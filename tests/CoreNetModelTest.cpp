//===- tests/CoreNetModelTest.cpp - Model-checking the production core -------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exhaustive and bounded exploration of mc::CoreNetModel — small
/// clusters of the *production* core::RaftCore (the same translation
/// unit the simulator and the threaded runtime execute), checked for
/// election safety, log matching, committed-prefix agreement, and the
/// R2/R3 reconfiguration disciplines. Also pins that the engine's
/// results are byte-identical across worker-thread counts, so CI can
/// run the exploration at ADORE_MC_THREADS=4 without losing
/// reproducibility.
///
//===----------------------------------------------------------------------===//

#include "mc/CoreNetModel.h"
#include "mc/Engine.h"

#include <gtest/gtest.h>

using namespace adore;
using namespace adore::mc;

namespace {

struct ModelHarness {
  std::unique_ptr<ReconfigScheme> Scheme;

  ModelHarness() { Scheme = makeScheme(SchemeKind::RaftSingleNode); }

  CoreNetModel make(size_t Members, CoreNetModelOptions Opts,
                    core::CoreOptions CoreOpts = {}) const {
    return CoreNetModel(*Scheme, Config(NodeSet::range(1, Members)), Opts,
                        CoreOpts);
  }
};

} // namespace

TEST(CoreNetModelTest, TwoNodeExhaustiveNoViolations) {
  ModelHarness H;
  CoreNetModelOptions Opts;
  Opts.MaxTerm = 2;
  Opts.MaxLog = 1;
  Opts.MaxPending = 4;
  Opts.WithReconfig = false;
  CoreNetModel M = H.make(2, Opts);
  Engine<CoreNetModel> E(M);
  ExploreResult R = E.run();
  EXPECT_FALSE(R.Violation.has_value()) << *R.Violation << "\nstate:\n"
                                        << R.ViolatingState;
  // The frontier drains: this configuration is finite and fully checked.
  // Exact counts pin the model's effect handling: any change to how
  // effects fold into model state moves them. They rose from 33979 /
  // 136228 when leaders started keeping a send cursor at window 1 (acks
  // send only entries the follower was never sent): the cursor is
  // fingerprinted, so states differing only in it are now distinct.
  // They rose again from 34863 / 139620 when suspicion accounting
  // became unconditional: a leader's per-peer scores and its
  // acked-since-heartbeat set are fingerprinted, so the failure
  // detector the healer depends on is now explored here too.
  EXPECT_TRUE(R.exhausted());
  EXPECT_EQ(R.States, 107179u);
  EXPECT_EQ(R.Transitions, 436872u);
}

TEST(CoreNetModelTest, ThreeNodeBoundedWithReconfigNoViolations) {
  // The CI configuration: three production cores, elections to term 2,
  // one client append, reconfigurations on — bounded by MaxStates so the
  // run stays inside test budget. Every visited state is invariant-
  // checked, so truncation only limits coverage, never soundness.
  ModelHarness H;
  CoreNetModelOptions Opts;
  Opts.MaxTerm = 2;
  Opts.MaxLog = 1;
  Opts.MaxPending = 4;
  Opts.WithReconfig = true;
  CoreNetModel M = H.make(3, Opts);
  Engine<CoreNetModel> E(M, ExploreOptions{/*MaxDepth=*/0,
                                           /*MaxStates=*/150000,
                                           /*Threads=*/0, {}});
  ExploreResult R = E.run();
  EXPECT_FALSE(R.Violation.has_value()) << *R.Violation << "\nstate:\n"
                                        << R.ViolatingState;
  EXPECT_GT(R.States, 10000u);
  EXPECT_GT(R.Depth, 5u);
}

TEST(CoreNetModelTest, CrashRestartExplorationStaysSafe) {
  ModelHarness H;
  CoreNetModelOptions Opts;
  Opts.MaxTerm = 2;
  Opts.MaxLog = 1;
  Opts.MaxPending = 3;
  Opts.WithReconfig = false;
  Opts.ExploreCrash = true;
  CoreNetModel M = H.make(2, Opts);
  Engine<CoreNetModel> E(M, ExploreOptions{/*MaxDepth=*/0,
                                           /*MaxStates=*/100000,
                                           /*Threads=*/0, {}});
  ExploreResult R = E.run();
  EXPECT_FALSE(R.Violation.has_value()) << *R.Violation << "\nstate:\n"
                                        << R.ViolatingState;
  EXPECT_GT(R.States, 1000u);
}

TEST(CoreNetModelTest, SafetyHoldsEvenWithoutVoteStickiness) {
  // The §4.2.3 stickiness guard is an availability defense, not a
  // safety mechanism: reintroducing the disruptive-server misbehavior
  // (cluster-level regression tests in CoreTest show it wrecks
  // availability) must leave every safety invariant intact.
  ModelHarness H;
  CoreNetModelOptions Opts;
  Opts.MaxTerm = 2;
  Opts.MaxLog = 1;
  Opts.MaxPending = 4;
  Opts.WithReconfig = true;
  core::CoreOptions CoreOpts;
  CoreOpts.DisableVoteStickiness = true;
  CoreNetModel M = H.make(3, Opts, CoreOpts);
  Engine<CoreNetModel> E(M, ExploreOptions{/*MaxDepth=*/0,
                                           /*MaxStates=*/100000,
                                           /*Threads=*/0, {}});
  ExploreResult R = E.run();
  EXPECT_FALSE(R.Violation.has_value()) << *R.Violation << "\nstate:\n"
                                        << R.ViolatingState;
}

TEST(CoreNetModelTest, SelfHealingExtensionsStaySafe) {
  // Suspicion scoring and chunked snapshot catch-up both extend the
  // core's transition relation (new counters steer effect emission, a
  // new message kind mutates follower logs wholesale). Explore the
  // production core with snapshot catch-up on and aggressive thresholds
  // (suspect after 2 silent rounds, snapshot any follower 1 entry
  // behind, 64-byte chunks so transfers take multiple round trips) and
  // require every safety invariant — election safety, log matching,
  // committed-prefix agreement, R2/R3, suspicion sanity — to hold on
  // every visited state.
  ModelHarness H;
  CoreNetModelOptions Opts;
  Opts.MaxTerm = 2;
  Opts.MaxLog = 2;
  Opts.MaxPending = 4;
  Opts.WithReconfig = true;
  core::CoreOptions CoreOpts;
  CoreOpts.SuspicionSuspectScore = 2;
  CoreOpts.SuspicionRecoverScore = 1;
  CoreOpts.EnableSnapshotCatchup = true;
  CoreOpts.SnapshotLagEntries = 1;
  CoreOpts.SnapshotChunkBytes = 64;
  CoreNetModel M = H.make(3, Opts, CoreOpts);
  Engine<CoreNetModel> E(M, ExploreOptions{/*MaxDepth=*/0,
                                           /*MaxStates=*/150000,
                                           /*Threads=*/0, {}});
  ExploreResult R = E.run();
  EXPECT_FALSE(R.Violation.has_value()) << *R.Violation << "\nstate:\n"
                                        << R.ViolatingState;
  EXPECT_GT(R.States, 10000u);
}

TEST(CoreNetModelTest, StickinessWindowChangesTheExploredGraph) {
  // The guard must be visible to the model checker: with it on, each
  // stickiness-sensitive RequestVote delivers both inside the contact
  // window (refused — a collapsing no-op transition) and past it
  // (considered); with the misbehavior flag every in-window delivery is
  // processed instead. The transition counts of the two exhaustive runs
  // must therefore differ — if they ever converge, the two-variant
  // delivery logic (or the guard itself) has silently stopped mattering.
  ModelHarness H;
  CoreNetModelOptions Opts;
  Opts.MaxTerm = 2;
  Opts.MaxLog = 0;
  Opts.MaxPending = 3;
  Opts.WithReconfig = false;

  CoreNetModel MG = H.make(2, Opts);
  Engine<CoreNetModel> E1(MG);
  ExploreResult RG = E1.run();

  core::CoreOptions Disabled;
  Disabled.DisableVoteStickiness = true;
  CoreNetModel MD = H.make(2, Opts, Disabled);
  Engine<CoreNetModel> E2(MD);
  ExploreResult RD = E2.run();

  EXPECT_TRUE(RG.exhausted());
  EXPECT_TRUE(RD.exhausted());
  EXPECT_FALSE(RG.Violation.has_value());
  EXPECT_FALSE(RD.Violation.has_value());
  EXPECT_NE(RG.Transitions, RD.Transitions);
}

TEST(CoreNetModelTest, LeaseReadsUnderDriftingClocksStaySafe) {
  // The read tiers under the clock adversary: every replica gets its
  // own clock, the tick schedule is adversarial within the pairwise
  // skew bound, reads flow through ReadIndex rounds and lease grants,
  // and reconfigurations churn underneath. The declared-drift envelope
  // is KEPT here — effective lease (4000 derated by 2*25% = 2000) plus
  // 2*Bound (1000) stays at or below ElectionTimeoutMinUs (4000) — so
  // no stale read, no two live leases, lease⊆term, and
  // lease-dies-at-reconfig must all hold on every visited state.
  ModelHarness H;
  CoreNetModelOptions Opts;
  Opts.MaxTerm = 2;
  Opts.MaxLog = 1;
  Opts.MaxPending = 4;
  Opts.WithReconfig = true;
  Opts.WithClocks = true;
  Opts.ClockSkewBoundUs = 1000;
  Opts.ClockQuantumUs = 1000;
  Opts.MaxClockUs = 6000;
  Opts.MaxReads = 2;
  core::CoreOptions CoreOpts;
  CoreOpts.ElectionTimeoutMinUs = 4000;
  CoreOpts.ElectionTimeoutMaxUs = 8000;
  CoreOpts.LeaseDurationUs = 4000;
  CoreOpts.MaxDriftPpm = 250000;
  CoreNetModel M = H.make(2, Opts, CoreOpts);
  Engine<CoreNetModel> E(M, ExploreOptions{/*MaxDepth=*/0,
                                           /*MaxStates=*/150000,
                                           /*Threads=*/0, {}});
  ExploreResult R = E.run();
  EXPECT_FALSE(R.Violation.has_value()) << *R.Violation << "\nstate:\n"
                                        << R.ViolatingState;
  EXPECT_GT(R.States, 10000u);
}

TEST(CoreNetModelTest, BrokenDriftPromiseIsCaughtByTheLeaseInvariant) {
  // The negative control: let the clock adversary skew clocks as far
  // as the full lease length while MaxDriftPpm=0 declares no drift at
  // all (so no derating). Three nodes: the leader's clock stalls at
  // the lease grant while a voter's clock races through the whole
  // stickiness window, letting a third node elect and lease in a
  // higher term — the exploration must FIND the two-live-leases (or
  // stale-read) violation, proving the invariant and the clock
  // adversary are both load-bearing. (Two nodes would not do: deposing
  // a 2-node leader needs its own vote, which stickiness never grants.)
  // The election-and-lease prefix is driven deterministically
  // (StartEstablished) so the bounded search spends its depth on the
  // drift-and-rival-election suffix, which is where the bug lives.
  ModelHarness H;
  CoreNetModelOptions Opts;
  Opts.MaxTerm = 3;
  Opts.MaxLog = 0;
  Opts.MaxPending = 6;
  Opts.StartEstablished = true;
  Opts.WithReconfig = false;
  Opts.WithClocks = true;
  Opts.ClockSkewBoundUs = 4000;
  Opts.ClockQuantumUs = 4000;
  Opts.MaxClockUs = 8000;
  Opts.MaxReads = 1;
  core::CoreOptions CoreOpts;
  CoreOpts.ElectionTimeoutMinUs = 4000;
  CoreOpts.ElectionTimeoutMaxUs = 8000;
  CoreOpts.LeaseDurationUs = 4000;
  CoreOpts.MaxDriftPpm = 0; // The lie: no derating at all.
  CoreNetModel M = H.make(3, Opts, CoreOpts);
  Engine<CoreNetModel> E(M, ExploreOptions{/*MaxDepth=*/0,
                                           /*MaxStates=*/400000,
                                           /*Threads=*/0, {}});
  ExploreResult R = E.run();
  ASSERT_TRUE(R.Violation.has_value())
      << "exploration found no lease violation despite a broken drift "
         "promise (states="
      << R.States << ")";
  EXPECT_TRUE(R.Violation->find("lease") != std::string::npos ||
              R.Violation->find("stale read") != std::string::npos)
      << *R.Violation;
}

TEST(CoreNetModelTest, SelfHealingAndLeasesComposeSafely) {
  // The combined exploration the ISSUE calls out: suspicion-driven
  // auto-reconfig (which appends Reconfig entries on its own) running
  // with lease reads under drifting clocks. The healing path must hit
  // the same lease-invalidation gate as admin reconfigs — if it ever
  // grants or keeps a lease across its own append, the
  // lease-dies-at-reconfig invariant fires here.
  ModelHarness H;
  CoreNetModelOptions Opts;
  Opts.MaxTerm = 2;
  Opts.MaxLog = 1;
  Opts.MaxPending = 4;
  Opts.WithReconfig = true;
  Opts.WithClocks = true;
  Opts.ClockSkewBoundUs = 1000;
  Opts.ClockQuantumUs = 1000;
  Opts.MaxClockUs = 6000;
  Opts.MaxReads = 1;
  core::CoreOptions CoreOpts;
  CoreOpts.ElectionTimeoutMinUs = 4000;
  CoreOpts.ElectionTimeoutMaxUs = 8000;
  CoreOpts.LeaseDurationUs = 4000;
  CoreOpts.MaxDriftPpm = 250000;
  CoreOpts.SuspicionSuspectScore = 2;
  CoreOpts.SuspicionRecoverScore = 1;
  CoreNetModel M = H.make(2, Opts, CoreOpts);
  Engine<CoreNetModel> E(M, ExploreOptions{/*MaxDepth=*/0,
                                           /*MaxStates=*/150000,
                                           /*Threads=*/0, {}});
  ExploreResult R = E.run();
  EXPECT_FALSE(R.Violation.has_value()) << *R.Violation << "\nstate:\n"
                                        << R.ViolatingState;
  EXPECT_GT(R.States, 10000u);
}

TEST(CoreNetModelTest, ResultsAreIdenticalAcrossThreadCounts) {
  // Level-synchronous BFS promises byte-identical results for any
  // worker count; CI runs at ADORE_MC_THREADS=4 relying on it.
  ModelHarness H;
  CoreNetModelOptions Opts;
  Opts.MaxTerm = 2;
  Opts.MaxLog = 1;
  Opts.MaxPending = 4;
  Opts.WithReconfig = true;
  ExploreResult Results[2];
  const unsigned Threads[2] = {1, 4};
  for (int I = 0; I != 2; ++I) {
    CoreNetModel M = H.make(3, Opts);
    Engine<CoreNetModel> E(M, ExploreOptions{/*MaxDepth=*/0,
                                             /*MaxStates=*/60000,
                                             Threads[I], {}});
    Results[I] = E.run();
  }
  EXPECT_EQ(Results[0].Violation, Results[1].Violation);
  EXPECT_EQ(Results[0].States, Results[1].States);
  EXPECT_EQ(Results[0].Transitions, Results[1].Transitions);
  EXPECT_EQ(Results[0].Depth, Results[1].Depth);
  EXPECT_EQ(Results[0].Truncated, Results[1].Truncated);
}

TEST(CoreNetModelTest, PipelinedTuningStaysSafe) {
  // The replication hot path (PipelineWindow > 1) runs through the
  // model checker's invariants too: windowed frames with stale
  // PrevIndex anchors and the heartbeat rewind interleave with
  // elections and message loss here. Safety must come from the
  // consensus rules, not from the unit-window schedule the defaults
  // happen to take.
  ModelHarness H;
  CoreNetModelOptions Opts;
  Opts.MaxTerm = 2;
  Opts.MaxLog = 2;
  Opts.MaxPending = 4;
  Opts.WithReconfig = false;
  core::CoreOptions CoreOpts;
  CoreOpts.PipelineWindow = 2;
  CoreNetModel M = H.make(3, Opts, CoreOpts);
  Engine<CoreNetModel> E(M, ExploreOptions{/*MaxDepth=*/0,
                                           /*MaxStates=*/150000,
                                           /*Threads=*/0, {}});
  ExploreResult R = E.run();
  EXPECT_FALSE(R.Violation.has_value()) << *R.Violation << "\nstate:\n"
                                        << R.ViolatingState;
  EXPECT_GT(R.States, 10000u);
}
