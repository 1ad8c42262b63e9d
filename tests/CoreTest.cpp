//===- tests/CoreTest.cpp - Sans-I/O Raft core tests -------------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for core::RaftCore driven entirely by hand-built inputs —
/// no event queue, no threads, no model checker. Also pins the shared
/// raft/Message.h log-comparison helpers (deduplicated from the sim and
/// raft layers) and the Raft §4.2.3 vote-stickiness guard, both at the
/// single-core level and as a full-cluster disruptive-server regression
/// test in the simulator. Also pins the host contract (core/Host.h):
/// the dispatcher's persist-before-act order and per-kind routing.
///
//===----------------------------------------------------------------------===//

#include "core/Codec.h"
#include "core/Host.h"
#include "core/RaftCore.h"
#include "sim/Cluster.h"

#include <gtest/gtest.h>

#include <deque>
#include <map>

using namespace adore;
using namespace adore::core;

//===----------------------------------------------------------------------===//
// Shared log-comparison helpers (satellite: deduplicated into
// raft/Message.h; these pin the edge cases both callers rely on).
//===----------------------------------------------------------------------===//

TEST(LogHelpersTest, AtLeastAsUpToDateEmptyLogs) {
  // Two empty logs tie, and a tie counts as "at least as up to date".
  EXPECT_TRUE(raft::logAtLeastAsUpToDate(0, 0, 0, 0));
}

TEST(LogHelpersTest, AtLeastAsUpToDateTermDominatesLength) {
  // A shorter log with a higher last term wins.
  EXPECT_TRUE(raft::logAtLeastAsUpToDate(3, 1, 2, 100));
  EXPECT_FALSE(raft::logAtLeastAsUpToDate(2, 100, 3, 1));
}

TEST(LogHelpersTest, AtLeastAsUpToDateLengthBreaksTermTies) {
  EXPECT_TRUE(raft::logAtLeastAsUpToDate(2, 5, 2, 5));  // Exact tie.
  EXPECT_TRUE(raft::logAtLeastAsUpToDate(2, 6, 2, 5));  // Longer wins.
  EXPECT_FALSE(raft::logAtLeastAsUpToDate(2, 4, 2, 5)); // Shorter loses.
}

TEST(LogHelpersTest, AtLeastAsUpToDateAgainstEmpty) {
  // Anything is at least as up to date as an empty log; the empty log is
  // only as up to date as another empty log.
  EXPECT_TRUE(raft::logAtLeastAsUpToDate(1, 1, 0, 0));
  EXPECT_FALSE(raft::logAtLeastAsUpToDate(0, 0, 1, 1));
}

TEST(LogHelpersTest, LastLogTermEmptyIsZero) {
  std::vector<LogEntry> Empty;
  EXPECT_EQ(raft::lastLogTerm(Empty), 0u);
  LogEntry E;
  E.Term = 7;
  std::vector<LogEntry> One{E};
  EXPECT_EQ(raft::lastLogTerm(One), 7u);
}

TEST(LogHelpersTest, LogUpToDateAcrossEntryTypes) {
  // The template helpers compare a core::LogEntry log against a
  // raft::Entry log through their ADL entryTerm hooks — exactly how the
  // refinement layer matches the executable node against the spec.
  LogEntry C1;
  C1.Term = 2;
  std::vector<LogEntry> CoreLog{C1};

  raft::Entry R1;
  R1.T = 1;
  std::vector<raft::Entry> SpecLog{R1, R1};

  // Core log: last term 2, length 1. Spec log: last term 1, length 2.
  EXPECT_TRUE(raft::logUpToDate(CoreLog, SpecLog));
  EXPECT_FALSE(raft::logUpToDate(SpecLog, CoreLog));
}

TEST(LogHelpersTest, ConfigOfPrefixPicksNewestReconfigInPrefix) {
  Config Initial(NodeSet{1, 2, 3});
  Config Grown(NodeSet{1, 2, 3, 4});
  Config Shrunk(NodeSet{1, 2});

  std::vector<LogEntry> Log(4);
  Log[1].Kind = raft::EntryKind::Reconfig;
  Log[1].Conf = Grown;
  Log[3].Kind = raft::EntryKind::Reconfig;
  Log[3].Conf = Shrunk;

  EXPECT_EQ(raft::configOfPrefix(Log, 0, Initial), Initial);
  EXPECT_EQ(raft::configOfPrefix(Log, 1, Initial), Initial);
  EXPECT_EQ(raft::configOfPrefix(Log, 2, Initial), Grown);
  EXPECT_EQ(raft::configOfPrefix(Log, 3, Initial), Grown);
  EXPECT_EQ(raft::configOfPrefix(Log, 4, Initial), Shrunk);
}

//===----------------------------------------------------------------------===//
// RaftCore fixture: a 3-node configuration, cores driven by hand
//===----------------------------------------------------------------------===//

namespace {

struct CoreHarness {
  std::unique_ptr<ReconfigScheme> Scheme;
  Config Conf;
  CoreOptions Opts;

  CoreHarness() : Conf(NodeSet{1, 2, 3}) {
    Scheme = makeScheme(SchemeKind::RaftSingleNode);
  }

  RaftCore make(NodeId Id, uint64_t Seed = 1) const {
    return RaftCore(Id, *Scheme, Conf, Opts, Seed);
  }
};

/// Counts effects of one kind.
size_t count(const Effects &Effs, Effect::Kind K) {
  size_t N = 0;
  for (const Effect &E : Effs)
    N += E.K == K;
  return N;
}

/// First effect of one kind, or nullptr.
const Effect *find(const Effects &Effs, Effect::Kind K) {
  for (const Effect &E : Effs)
    if (E.K == K)
      return &E;
  return nullptr;
}

/// Drives \p C through a full election: fire its election timer, then
/// feed it a granted vote from node 2. Returns the election's effects.
Effects electLeader(RaftCore &C) {
  Effects Out = C.onTimer(TimerId::Election, C.electionGen(), /*Now=*/0);
  EXPECT_EQ(C.role(), Role::Candidate);
  Msg Grant;
  Grant.K = Msg::Kind::VoteReply;
  Grant.From = 2;
  Grant.To = C.id();
  Grant.Term = C.term();
  Grant.Granted = true;
  Effects Win = C.onMessage(Grant, /*Now=*/0);
  Out.insert(Out.end(), Win.begin(), Win.end());
  EXPECT_TRUE(C.isLeader());
  return Out;
}

} // namespace

TEST(RaftCoreTest, StartArmsElectionTimerWithinBounds) {
  CoreHarness H;
  RaftCore C = H.make(1);
  Effects Effs = C.start();
  ASSERT_EQ(Effs.size(), 1u);
  EXPECT_EQ(Effs[0].K, Effect::Kind::SetTimer);
  EXPECT_EQ(Effs[0].Timer, TimerId::Election);
  EXPECT_EQ(Effs[0].TimerGen, 1u);
  EXPECT_EQ(Effs[0].TimerGen, C.electionGen());
  EXPECT_GE(Effs[0].DelayUs, H.Opts.ElectionTimeoutMinUs);
  EXPECT_LE(Effs[0].DelayUs, H.Opts.ElectionTimeoutMaxUs);
}

TEST(RaftCoreTest, ElectionTimeoutStartsCampaign) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  Effects Effs = C.onTimer(TimerId::Election, C.electionGen(), 0);
  EXPECT_EQ(C.role(), Role::Candidate);
  EXPECT_EQ(C.term(), 1u);
  // A fresh retry timer, RequestVotes to both peers, and a Persist for
  // the term/vote change.
  EXPECT_EQ(count(Effs, Effect::Kind::SetTimer), 1u);
  EXPECT_EQ(count(Effs, Effect::Kind::Send), 2u);
  EXPECT_EQ(count(Effs, Effect::Kind::Persist), 1u);
  for (const Effect &E : Effs)
    if (E.K == Effect::Kind::Send) {
      EXPECT_EQ(E.M.K, Msg::Kind::RequestVote);
      EXPECT_EQ(E.M.Term, 1u);
      EXPECT_FALSE(E.M.TransferElection);
    }
}

TEST(RaftCoreTest, StaleTimerGenerationIsIgnored) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  uint64_t Stale = C.electionGen();
  // Granting a vote re-arms the election timer, invalidating Stale.
  Msg RV;
  RV.K = Msg::Kind::RequestVote;
  RV.From = 2;
  RV.To = 1;
  RV.Term = 1;
  C.onMessage(RV, 0);
  ASSERT_NE(C.electionGen(), Stale);
  Effects Effs = C.onTimer(TimerId::Election, Stale, 0);
  EXPECT_TRUE(Effs.empty());
  EXPECT_EQ(C.role(), Role::Follower);
}

TEST(RaftCoreTest, QuorumOfVotesElectsAndEmitsLeaderEffects) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  Effects Effs = electLeader(C);
  const Effect *Led = find(Effs, Effect::Kind::LeaderElected);
  ASSERT_NE(Led, nullptr);
  EXPECT_EQ(Led->Term, 1u);
  // The term-start no-op barrier is appended and replicated.
  ASSERT_EQ(C.logSize(), 1u);
  EXPECT_EQ(C.entry(1).Term, 1u);
  EXPECT_EQ(C.entry(1).Kind, raft::EntryKind::Method);
  EXPECT_EQ(C.entry(1).Method, 0u);
  // A heartbeat timer is armed; AppendEntries go to both peers.
  bool SawHeartbeat = false;
  size_t Appends = 0;
  for (const Effect &E : Effs) {
    if (E.K == Effect::Kind::SetTimer && E.Timer == TimerId::Heartbeat)
      SawHeartbeat = true;
    if (E.K == Effect::Kind::Send && E.M.K == Msg::Kind::AppendEntries)
      ++Appends;
  }
  EXPECT_TRUE(SawHeartbeat);
  EXPECT_EQ(Appends, 2u);
}

TEST(RaftCoreTest, DuplicateVoteFromSameNodeDoesNotElect) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  C.onTimer(TimerId::Election, C.electionGen(), 0);
  Msg Grant;
  Grant.K = Msg::Kind::VoteReply;
  Grant.From = 1; // Own vote echoed back: no new information.
  Grant.To = 1;
  Grant.Term = C.term();
  Grant.Granted = true;
  C.onMessage(Grant, 0);
  EXPECT_EQ(C.role(), Role::Candidate);
}

TEST(RaftCoreTest, SubmitRejectedUnlessLeader) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  Effects Out;
  EXPECT_FALSE(C.submit(42, 1, Out));
  EXPECT_TRUE(Out.empty());
  electLeader(C);
  EXPECT_TRUE(C.submit(42, 1, Out));
  EXPECT_EQ(C.logSize(), 2u);
  EXPECT_EQ(C.entry(2).Method, 42u);
  EXPECT_EQ(C.entry(2).ClientSeq, 1u);
  // The append replicates to both peers and persists.
  EXPECT_EQ(count(Out, Effect::Kind::Send), 2u);
  EXPECT_EQ(count(Out, Effect::Kind::Persist), 1u);
}

TEST(RaftCoreTest, CommitRequiresQuorumThenAppliesInOrder) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  EXPECT_EQ(C.commitIndex(), 0u);
  // Node 2 acknowledges the no-op: {1, 2} is a quorum of three.
  Msg Ack;
  Ack.K = Msg::Kind::AppendReply;
  Ack.From = 2;
  Ack.To = 1;
  Ack.Term = C.term();
  Ack.Success = true;
  Ack.MatchIndex = 1;
  Effects Effs = C.onMessage(Ack, 0);
  EXPECT_EQ(C.commitIndex(), 1u);
  const Effect *Commit = find(Effs, Effect::Kind::CommitAdvanced);
  ASSERT_NE(Commit, nullptr);
  EXPECT_EQ(Commit->Index, 1u);
  const Effect *Apply = find(Effs, Effect::Kind::Apply);
  ASSERT_NE(Apply, nullptr);
  EXPECT_EQ(Apply->Index, 1u);
  EXPECT_EQ(Apply->Entry, C.entry(1));
}

TEST(RaftCoreTest, FollowerAppendsTruncatesConflictsAndApplies) {
  CoreHarness H;
  RaftCore C = H.make(2);
  C.start();
  // A leader in term 1 sends two entries.
  LogEntry E1, E2;
  E1.Term = 1;
  E2.Term = 1;
  E2.Method = 5;
  Msg App;
  App.K = Msg::Kind::AppendEntries;
  App.From = 1;
  App.To = 2;
  App.Term = 1;
  App.PrevIndex = 0;
  App.Entries = {E1, E2};
  App.LeaderCommit = 1;
  Effects Effs = C.onMessage(App, 1000);
  EXPECT_EQ(C.logSize(), 2u);
  EXPECT_EQ(C.commitIndex(), 1u);
  EXPECT_EQ(C.term(), 1u);
  EXPECT_EQ(C.leaderHint(), std::optional<NodeId>(1));
  const Effect *Reply = find(Effs, Effect::Kind::Send);
  ASSERT_NE(Reply, nullptr);
  EXPECT_EQ(Reply->M.K, Msg::Kind::AppendReply);
  EXPECT_TRUE(Reply->M.Success);
  EXPECT_EQ(Reply->M.MatchIndex, 2u);

  // A newer leader (term 2) overwrites the uncommitted slot 2.
  LogEntry N2;
  N2.Term = 2;
  N2.Method = 9;
  Msg App2;
  App2.K = Msg::Kind::AppendEntries;
  App2.From = 3;
  App2.To = 2;
  App2.Term = 2;
  App2.PrevIndex = 1;
  App2.PrevTerm = 1;
  App2.Entries = {N2};
  App2.LeaderCommit = 2;
  C.onMessage(App2, 2000);
  EXPECT_EQ(C.logSize(), 2u);
  EXPECT_EQ(C.entry(2).Term, 2u);
  EXPECT_EQ(C.entry(2).Method, 9u);
  EXPECT_EQ(C.commitIndex(), 2u);
}

TEST(RaftCoreTest, MismatchedPrevSlotIsRejectedWithHint) {
  CoreHarness H;
  RaftCore C = H.make(2);
  C.start();
  Msg App;
  App.K = Msg::Kind::AppendEntries;
  App.From = 1;
  App.To = 2;
  App.Term = 1;
  App.PrevIndex = 5; // We have nothing at slot 5.
  App.PrevTerm = 1;
  Effects Effs = C.onMessage(App, 0);
  const Effect *Reply = find(Effs, Effect::Kind::Send);
  ASSERT_NE(Reply, nullptr);
  EXPECT_FALSE(Reply->M.Success);
  EXPECT_EQ(Reply->M.MatchIndex, 0u); // Longest possibly matching prefix.
}

TEST(RaftCoreTest, CrashDropsVolatileStateRestartKeepsDurable) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  Effects Out;
  C.submit(7, 1, Out);
  Time TermBefore = C.term();
  size_t LogBefore = C.logSize();

  Effects CrashEffs = C.crash();
  EXPECT_TRUE(C.isCrashed());
  EXPECT_FALSE(C.isLeader());
  EXPECT_EQ(count(CrashEffs, Effect::Kind::CancelTimer), 2u);
  // Crashed cores ignore everything.
  EXPECT_TRUE(C.onTimer(TimerId::Election, C.electionGen(), 0).empty());
  EXPECT_FALSE(C.submit(8, 2, Out));

  Effects RestartEffs = C.restart();
  EXPECT_FALSE(C.isCrashed());
  EXPECT_EQ(C.role(), Role::Follower);
  EXPECT_EQ(C.term(), TermBefore);   // Durable state survives...
  EXPECT_EQ(C.logSize(), LogBefore); // ...including the log.
  EXPECT_FALSE(C.leaderHint().has_value()); // Volatile state does not.
  EXPECT_EQ(count(RestartEffs, Effect::Kind::SetTimer), 1u);
}

TEST(RaftCoreTest, DeposedLeaderStopsNamingItselfAsLeader) {
  // A follower's reply from a higher term deposes the leader without
  // naming a new one. The hint must not keep pointing at this node,
  // which now rejects submits: clients would retry it in a loop.
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  ASSERT_EQ(C.leaderHint(), std::optional<NodeId>(1));
  Msg Reply;
  Reply.K = Msg::Kind::AppendReply;
  Reply.From = 2;
  Reply.To = 1;
  Reply.Term = C.term() + 1;
  C.onMessage(Reply, 0);
  ASSERT_FALSE(C.isLeader());
  EXPECT_NE(C.leaderHint(), std::optional<NodeId>(1));
  Effects Out;
  EXPECT_FALSE(C.submit(9, 1, Out));
}

TEST(RaftCoreTest, CoresAreCopyableValues) {
  // Copy a core mid-protocol; both copies must evolve identically under
  // identical inputs (the Rng is owned by value).
  CoreHarness H;
  RaftCore A = H.make(1);
  A.start();
  RaftCore B = A;
  Effects EA = A.onTimer(TimerId::Election, A.electionGen(), 0);
  Effects EB = B.onTimer(TimerId::Election, B.electionGen(), 0);
  ASSERT_EQ(EA.size(), EB.size());
  for (size_t I = 0; I != EA.size(); ++I)
    EXPECT_EQ(EA[I].str(), EB[I].str());
  EXPECT_EQ(A.describe(), B.describe());
}

//===----------------------------------------------------------------------===//
// Reconfiguration guards
//===----------------------------------------------------------------------===//

TEST(RaftCoreTest, ReconfigGuardsRejectBeforeR3Holds) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  // R3 fails until an own-term entry commits.
  EXPECT_FALSE(C.logSatisfiesR3());
  Effects Out;
  EXPECT_FALSE(C.requestReconfig(Config(NodeSet{1, 2}), Out));

  // Commit the no-op barrier; now R2 and R3 hold and the request lands.
  Msg Ack;
  Ack.K = Msg::Kind::AppendReply;
  Ack.From = 2;
  Ack.To = 1;
  Ack.Term = C.term();
  Ack.Success = true;
  Ack.MatchIndex = 1;
  C.onMessage(Ack, 0);
  EXPECT_TRUE(C.logSatisfiesR2());
  EXPECT_TRUE(C.logSatisfiesR3());
  EXPECT_TRUE(C.requestReconfig(Config(NodeSet{1, 2}), Out));
  EXPECT_EQ(C.entry(C.logSize()).Kind, raft::EntryKind::Reconfig);
  // R2 now blocks a second reconfig until the first commits.
  EXPECT_FALSE(C.logSatisfiesR2());
  EXPECT_FALSE(C.requestReconfig(Config(NodeSet{1, 2, 3}), Out));
}

TEST(RaftCoreTest, LeaderNeverRemovesItself) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  Msg Ack;
  Ack.K = Msg::Kind::AppendReply;
  Ack.From = 2;
  Ack.To = 1;
  Ack.Term = C.term();
  Ack.Success = true;
  Ack.MatchIndex = 1;
  C.onMessage(Ack, 0);
  Effects Out;
  EXPECT_FALSE(C.requestReconfig(Config(NodeSet{2, 3}), Out));
}

//===----------------------------------------------------------------------===//
// Vote stickiness (Raft §4.2.3) — core level
//===----------------------------------------------------------------------===//

namespace {

/// Feeds \p C a heartbeat from node 1 at \p Now, then a RequestVote from
/// node 3 at \p VoteNow, and reports whether the vote was processed (any
/// effects emitted / term adopted).
Effects contactThenVote(RaftCore &C, uint64_t Now, uint64_t VoteNow) {
  Msg Beat;
  Beat.K = Msg::Kind::AppendEntries;
  Beat.From = 1;
  Beat.To = C.id();
  Beat.Term = 1;
  C.onMessage(Beat, Now);
  Msg RV;
  RV.K = Msg::Kind::RequestVote;
  RV.From = 3;
  RV.To = C.id();
  RV.Term = 99;
  return C.onMessage(RV, VoteNow);
}

} // namespace

TEST(VoteStickinessTest, RecentLeaderContactSuppressesVote) {
  CoreHarness H;
  RaftCore C = H.make(2);
  C.start();
  // The vote arrives well inside the minimum election timeout: ignored
  // entirely, without even adopting the higher term.
  Effects Effs = contactThenVote(C, 1000, 2000);
  EXPECT_TRUE(Effs.empty());
  EXPECT_EQ(C.term(), 1u);
}

TEST(VoteStickinessTest, ExpiredContactWindowAllowsVote) {
  CoreHarness H;
  RaftCore C = H.make(2);
  C.start();
  uint64_t Late = 1000 + H.Opts.ElectionTimeoutMinUs;
  Effects Effs = contactThenVote(C, 1000, Late);
  EXPECT_FALSE(Effs.empty());
  EXPECT_EQ(C.term(), 99u);
}

TEST(VoteStickinessTest, TransferElectionsAreExempt) {
  CoreHarness H;
  RaftCore C = H.make(2);
  C.start();
  Msg Beat;
  Beat.K = Msg::Kind::AppendEntries;
  Beat.From = 1;
  Beat.To = 2;
  Beat.Term = 1;
  C.onMessage(Beat, 1000);
  Msg RV;
  RV.K = Msg::Kind::RequestVote;
  RV.From = 3;
  RV.To = 2;
  RV.Term = 2;
  RV.TransferElection = true;
  Effects Effs = C.onMessage(RV, 2000);
  EXPECT_FALSE(Effs.empty());
  EXPECT_EQ(C.term(), 2u);
}

TEST(VoteStickinessTest, InjectedMisbehaviorDropsTheGuard) {
  CoreHarness H;
  H.Opts.DisableVoteStickiness = true;
  RaftCore C = H.make(2);
  C.start();
  // Same stimulus as RecentLeaderContactSuppressesVote, but with the
  // injectable misbehavior the disruptive vote is processed.
  Effects Effs = contactThenVote(C, 1000, 2000);
  EXPECT_FALSE(Effs.empty());
  EXPECT_EQ(C.term(), 99u);
}

//===----------------------------------------------------------------------===//
// Vote stickiness — cluster-level disruptive-server regression (§4.2.3)
//===----------------------------------------------------------------------===//

namespace {

/// Runs the §4.2.3 disruptive-server scenario: partition a follower
/// away, remove it from the configuration while it cannot hear about
/// it, let its term climb, then heal. Returns how far the *members'*
/// term rose after the heal (0 = the stale server never disrupted them).
Time disruptionAfterHeal(bool DisableStickiness) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  sim::ClusterOptions Opts;
  Opts.Node.DisableVoteStickiness = DisableStickiness;
  Config Initial(NodeSet::range(1, 3));
  sim::Cluster C(*Scheme, Initial, NodeSet::range(1, 3), Opts, /*Seed=*/11);
  C.start();
  auto Leader = C.runUntilLeader(5000000);
  EXPECT_TRUE(Leader.has_value());
  if (!Leader)
    return 0;

  // Partition a non-leader away; its election attempts inflate its term.
  NodeId Victim = *Leader == 3 ? 2 : 3;
  NodeSet Others;
  for (NodeId Id : NodeSet::range(1, 3))
    if (Id != Victim)
      Others.insert(Id);
  C.partition(Others);

  // Remove the victim while it is partitioned: it can never learn of
  // its own removal — exactly the disruptive-server setup.
  bool Removed = false;
  C.requestReconfig(Config(Others), [&](bool Ok, sim::SimTime) {
    Removed = Ok;
  });
  sim::SimTime Deadline = C.queue().now() + 20000000;
  while (!Removed && C.queue().now() < Deadline && C.queue().runNext())
    ;
  EXPECT_TRUE(Removed);

  // Let the victim's term climb well past the members'.
  C.queue().runUntil(C.queue().now() + 3000000);
  EXPECT_GT(C.node(Victim).term(), C.node(*Leader).term());

  // Heal and give the stale server a fixed window to cause trouble.
  Time MemberTermAtHeal = C.node(*Leader).term();
  C.heal();
  C.queue().runUntil(C.queue().now() + 3000000);

  Time MaxMemberTerm = 0;
  for (NodeId Id : Others)
    MaxMemberTerm = std::max(MaxMemberTerm, C.node(Id).term());
  EXPECT_FALSE(C.checkLeaderUniqueness().has_value());
  return MaxMemberTerm - MemberTermAtHeal;
}

} // namespace

TEST(VoteStickinessTest, GuardKeepsRemovedServerFromDisruptingMembers) {
  // With the guard, members refuse the removed server's votes (recent
  // leader contact) and their term stays flat after the heal.
  EXPECT_EQ(disruptionAfterHeal(/*DisableStickiness=*/false), 0u);
}

TEST(VoteStickinessTest, WithoutGuardRemovedServerDeposesLeaders) {
  // Reintroduce the bug: the removed server's inflated-term RequestVotes
  // are processed, dragging the members' terms up and deposing leaders.
  EXPECT_GT(disruptionAfterHeal(/*DisableStickiness=*/true), 0u);
}

//===----------------------------------------------------------------------===//
// EventQueue past-schedule clamp (satellite: assert -> counted clamp)
//===----------------------------------------------------------------------===//

TEST(EventQueueClampTest, SchedulingIntoThePastClampsAndCounts) {
  sim::EventQueue Q;
  Q.scheduleAt(100, [] {});
  Q.runUntil(100);
  ASSERT_EQ(Q.now(), 100u);
  std::vector<int> Order;
  Q.scheduleAt(50, [&] { Order.push_back(1); });  // In the past: clamped.
  Q.scheduleAt(100, [&] { Order.push_back(2); }); // "Now": fine.
  EXPECT_EQ(Q.stats().ClampedPastSchedules, 1u);
  while (Q.runNext())
    ;
  // The clamped event runs at now, keeping FIFO order among same-time
  // events, and the clock never moves backwards.
  EXPECT_EQ(Order, (std::vector<int>{1, 2}));
  EXPECT_EQ(Q.now(), 100u);
}

//===----------------------------------------------------------------------===//
// Failure detection (leader-observed suspicion with hysteresis)
//===----------------------------------------------------------------------===//

namespace {

/// Grants node \p From's latest append round back to leader \p C.
void ackFrom(RaftCore &C, NodeId From, size_t MatchIndex) {
  Msg Ack;
  Ack.K = Msg::Kind::AppendReply;
  Ack.From = From;
  Ack.To = C.id();
  Ack.Term = C.term();
  Ack.Success = true;
  Ack.MatchIndex = MatchIndex;
  C.onMessage(Ack, /*Now=*/0);
}

/// Fires the leader's heartbeat timer (one suspicion round).
Effects beat(RaftCore &C) {
  return C.onTimer(TimerId::Heartbeat, C.heartbeatGen(), /*Now=*/0);
}

} // namespace

TEST(SuspicionTest, MissedRoundsSuspectOnceAndAckRecovers) {
  CoreHarness H;
  H.Opts.SuspicionSuspectScore = 3;
  H.Opts.SuspicionRecoverScore = 1;
  RaftCore C = H.make(1);
  electLeader(C);

  // Node 2 acks every round; node 3 goes dark. The suspect fires on the
  // third consecutive miss and exactly once (the score saturates).
  size_t SuspectEffects = 0;
  for (int Round = 0; Round != 5; ++Round) {
    ackFrom(C, 2, C.commitIndex());
    Effects Effs = beat(C);
    for (const Effect &E : Effs) {
      if (E.K == Effect::Kind::ReplicaSuspected) {
        ++SuspectEffects;
        EXPECT_EQ(E.Peer, 3u);
      }
      EXPECT_NE(E.K, Effect::Kind::ReplicaRecovered);
    }
    if (Round < 2)
      EXPECT_TRUE(C.suspected().empty()) << "round " << Round;
    else
      EXPECT_TRUE(C.suspected().contains(3)) << "round " << Round;
  }
  EXPECT_EQ(SuspectEffects, 1u);
  EXPECT_FALSE(C.suspected().contains(2));

  // One ack halves the saturated score (3 -> 1 <= RecoverScore): the
  // hysteresis band closes and the peer is publicly recovered.
  ackFrom(C, 2, C.commitIndex());
  ackFrom(C, 3, C.commitIndex());
  Effects Effs = beat(C);
  const Effect *Rec = find(Effs, Effect::Kind::ReplicaRecovered);
  ASSERT_NE(Rec, nullptr);
  EXPECT_EQ(Rec->Peer, 3u);
  EXPECT_TRUE(C.suspected().empty());
}

TEST(SuspicionTest, NakStillProvesLiveness) {
  CoreHarness H;
  H.Opts.SuspicionSuspectScore = 2;
  RaftCore C = H.make(1);
  electLeader(C);

  // A consistency NAK is still an ack for liveness purposes: the
  // replica answered, it is merely behind.
  for (int Round = 0; Round != 4; ++Round) {
    ackFrom(C, 2, C.commitIndex());
    Msg Nak;
    Nak.K = Msg::Kind::AppendReply;
    Nak.From = 3;
    Nak.To = 1;
    Nak.Term = C.term();
    Nak.Success = false;
    Nak.MatchIndex = 0;
    C.onMessage(Nak, 0);
    beat(C);
  }
  EXPECT_TRUE(C.suspected().empty());
}

TEST(SuspicionTest, StateClearsOnLeadershipExit) {
  CoreHarness H;
  H.Opts.SuspicionSuspectScore = 1;
  RaftCore C = H.make(1);
  electLeader(C);
  beat(C); // Nobody acked: both followers suspected immediately.
  EXPECT_EQ(C.suspected().size(), 2u);

  // A higher-term append deposes this leader; suspicion is
  // per-leadership soft state and must vanish with the role.
  Msg M;
  M.K = Msg::Kind::AppendEntries;
  M.From = 2;
  M.To = 1;
  M.Term = C.term() + 1;
  C.onMessage(M, 0);
  EXPECT_FALSE(C.isLeader());
  EXPECT_TRUE(C.suspected().empty());
}

//===----------------------------------------------------------------------===//
// Snapshot catch-up (InstallSnapshot streaming)
//===----------------------------------------------------------------------===//

namespace {

/// Leader with \p Entries committed methods (plus its no-op barrier)
/// acked by node 2 only, so node 3 is far behind.
RaftCore makeLaggingLeader(const CoreHarness &H, size_t Entries) {
  RaftCore C = H.make(1);
  electLeader(C);
  for (size_t I = 0; I != Entries; ++I) {
    Effects Out;
    C.submit(/*Method=*/100 + I, /*ClientSeq=*/I + 1, Out);
  }
  ackFrom(C, 2, C.logSize());
  EXPECT_EQ(C.commitIndex(), C.logSize());
  return C;
}

/// First InstallSnapshot chunk addressed to \p To, or nullptr.
const Msg *findSnapshotChunk(const Effects &Effs, NodeId To) {
  for (const Effect &E : Effs)
    if (E.K == Effect::Kind::Send && E.M.K == Msg::Kind::InstallSnapshot &&
        E.M.To == To)
      return &E.M;
  return nullptr;
}

/// First reply addressed to \p To, or nullptr.
const Msg *findSnapshotReply(const Effects &Effs, NodeId To) {
  for (const Effect &E : Effs)
    if (E.K == Effect::Kind::Send &&
        E.M.K == Msg::Kind::InstallSnapshotReply && E.M.To == To)
      return &E.M;
  return nullptr;
}

} // namespace

TEST(SnapshotTest, LaggingFollowerCatchesUpInChunks) {
  CoreHarness H;
  H.Opts.EnableSnapshotCatchup = true;
  H.Opts.SnapshotLagEntries = 2;
  H.Opts.SnapshotChunkBytes = 16; // Force a multi-chunk transfer.
  RaftCore L = makeLaggingLeader(H, 4);
  RaftCore F = H.make(3);

  // CommitIndex (5) >= NextIndex[3] (1) + lag (2): the next replication
  // round opens a transfer instead of an incremental append.
  Effects LE = beat(L);
  ASSERT_TRUE(L.snapshotInFlightTo(3));
  size_t Chunks = 0;
  Msg FirstChunk;
  for (int Guard = 0; Guard != 100; ++Guard) {
    const Msg *C = findSnapshotChunk(LE, 3);
    if (!C)
      break;
    if (++Chunks == 1)
      FirstChunk = *C;
    Effects FE = F.onMessage(*C, 0);
    const Msg *R = findSnapshotReply(FE, 1);
    ASSERT_NE(R, nullptr);
    LE = L.onMessage(*R, 0);
  }
  EXPECT_GT(Chunks, 1u) << "chunking never engaged";
  EXPECT_FALSE(L.snapshotInFlightTo(3));

  // Strict recovered==idealized cross-check: the follower's log *is*
  // the leader's committed prefix, applied and committed.
  ASSERT_EQ(F.logSize(), L.commitIndex());
  for (size_t I = 1; I <= F.logSize(); ++I)
    EXPECT_EQ(F.entry(I), L.entry(I)) << "index " << I;
  EXPECT_EQ(F.commitIndex(), L.commitIndex());
  EXPECT_EQ(F.snapshotsInstalled(), 1u);
  // The commit advance inside the harness already opened the transfer
  // and emitted (dropped) a chunk before the pump began, so sent may
  // exceed received — but the follower staged the payload exactly once.
  EXPECT_EQ(F.snapshotBytesReceived(),
            codec::encodeSnapshotPayload(L.log(), L.commitIndex()).size());
  EXPECT_GE(L.snapshotBytesSent(), F.snapshotBytesReceived());

  // Idempotent re-delivery of a stale chunk: the follower is already
  // covered, so it short-circuits to Done without reopening staging.
  Effects FE = F.onMessage(FirstChunk, 0);
  const Msg *R = findSnapshotReply(FE, 1);
  ASSERT_NE(R, nullptr);
  EXPECT_TRUE(R->Success);
  EXPECT_TRUE(R->Done);
  EXPECT_EQ(F.snapshotsInstalled(), 1u);
}

TEST(SnapshotTest, TransferResumesAfterDroppedAck) {
  CoreHarness H;
  H.Opts.EnableSnapshotCatchup = true;
  H.Opts.SnapshotLagEntries = 2;
  H.Opts.SnapshotChunkBytes = 16;
  RaftCore L = makeLaggingLeader(H, 4);
  RaftCore F = H.make(3);

  Effects LE = beat(L);
  const Msg *C0 = findSnapshotChunk(LE, 3);
  ASSERT_NE(C0, nullptr);
  Msg Chunk0 = *C0;

  // Deliver chunk 0 but LOSE the follower's ack.
  F.onMessage(Chunk0, 0);

  // The next heartbeat re-sends the un-acked chunk verbatim; the
  // follower's offset check turns the duplicate into a resume hint.
  LE = beat(L);
  const Msg *Re = findSnapshotChunk(LE, 3);
  ASSERT_NE(Re, nullptr);
  EXPECT_EQ(Re->Offset, Chunk0.Offset);
  Effects FE = F.onMessage(*Re, 0);
  const Msg *Hint = findSnapshotReply(FE, 1);
  ASSERT_NE(Hint, nullptr);
  EXPECT_TRUE(Hint->Success);
  EXPECT_EQ(Hint->Offset, Chunk0.Chunk.size());

  // The leader fast-forwards to the hint and streams to completion.
  LE = L.onMessage(*Hint, 0);
  for (int Guard = 0; Guard != 100; ++Guard) {
    const Msg *C = findSnapshotChunk(LE, 3);
    if (!C)
      break;
    FE = F.onMessage(*C, 0);
    const Msg *R = findSnapshotReply(FE, 1);
    ASSERT_NE(R, nullptr);
    LE = L.onMessage(*R, 0);
  }
  ASSERT_EQ(F.logSize(), L.commitIndex());
  for (size_t I = 1; I <= F.logSize(); ++I)
    EXPECT_EQ(F.entry(I), L.entry(I));
  // Every payload byte was staged exactly once despite the duplicate.
  EXPECT_EQ(F.snapshotBytesReceived(),
            codec::encodeSnapshotPayload(L.log(), L.commitIndex()).size());
}

TEST(SnapshotTest, CorruptPayloadIsRefusedAndTransferRestarts) {
  CoreHarness H;
  H.Opts.EnableSnapshotCatchup = true;
  H.Opts.SnapshotLagEntries = 2;
  H.Opts.SnapshotChunkBytes = 1 << 20; // Single-chunk transfer.
  RaftCore L = makeLaggingLeader(H, 4);
  RaftCore F = H.make(3);

  Effects LE = beat(L);
  const Msg *C0 = findSnapshotChunk(LE, 3);
  ASSERT_NE(C0, nullptr);
  ASSERT_TRUE(C0->Done);
  Msg Torn = *C0;
  Torn.Chunk.resize(Torn.Chunk.size() / 2); // Torn mid-payload...
  Torn.Done = true;                         // ...but claims completion.

  Effects FE = F.onMessage(Torn, 0);
  const Msg *R = findSnapshotReply(FE, 1);
  ASSERT_NE(R, nullptr);
  EXPECT_FALSE(R->Success);
  EXPECT_EQ(F.logSize(), 0u) << "a torn snapshot must install nothing";

  // The refusal aborts the transfer; since the peer is still lagging,
  // the fallback replication round immediately opens a FRESH transfer
  // from offset 0 (the stale staging identity is discarded), and the
  // retry converges.
  LE = L.onMessage(*R, 0);
  const Msg *Fresh = findSnapshotChunk(LE, 3);
  ASSERT_NE(Fresh, nullptr);
  EXPECT_EQ(Fresh->Offset, 0u);
  FE = F.onMessage(*Fresh, 0);
  R = findSnapshotReply(FE, 1);
  ASSERT_NE(R, nullptr);
  EXPECT_TRUE(R->Success);
  EXPECT_TRUE(R->Done);
  ASSERT_EQ(F.logSize(), L.commitIndex());
  for (size_t I = 1; I <= F.logSize(); ++I)
    EXPECT_EQ(F.entry(I), L.entry(I));
}

TEST(SnapshotTest, DoneFromAnEarlierTransferIsIgnored) {
  // A duplicated Done from transfer A that lands while transfer B is in
  // flight must not close B: the leader would credit node 3 with B's
  // SnapIndex, which it never received, and re-anchor its appends past
  // the end of node 3's log, where no NAK can rewind them.
  CoreHarness H;
  H.Opts.EnableSnapshotCatchup = true;
  H.Opts.SnapshotLagEntries = 2;
  H.Opts.SnapshotChunkBytes = 1 << 20; // Single-chunk transfers.
  RaftCore L = makeLaggingLeader(H, 4);
  RaftCore F = H.make(3);

  Effects LE = beat(L);
  const Msg *ChunkA = findSnapshotChunk(LE, 3);
  ASSERT_NE(ChunkA, nullptr);
  size_t IndexA = ChunkA->SnapIndex;
  Effects FE = F.onMessage(*ChunkA, 0);
  const Msg *ReplyA = findSnapshotReply(FE, 1);
  ASSERT_NE(ReplyA, nullptr);
  ASSERT_TRUE(ReplyA->Done);
  Msg DoneA = *ReplyA;
  L.onMessage(DoneA, 0);
  ASSERT_FALSE(L.snapshotInFlightTo(3));
  ASSERT_EQ(F.logSize(), IndexA);

  // Node 3 hears nothing while node 2 acks four more entries, so it
  // lags again and transfer B opens; B's first chunk is lost.
  for (size_t I = 0; I != 4; ++I) {
    Effects Out;
    L.submit(/*Method=*/200 + I, /*ClientSeq=*/10 + I, Out);
  }
  ackFrom(L, 2, L.logSize());
  beat(L);
  ASSERT_TRUE(L.snapshotInFlightTo(3));
  ASSERT_GT(L.commitIndex(), IndexA);

  // From here node 2 is silent, and A's duplicated Done arrives.
  L.onMessage(DoneA, 0);
  EXPECT_TRUE(L.snapshotInFlightTo(3)) << "a stale Done closed transfer B";

  // A new entry commits only once node 3 holds it. Heartbeats resend
  // B's chunk, node 3 installs it, and the entry follows.
  Effects Out;
  ASSERT_TRUE(L.submit(/*Method=*/300, /*ClientSeq=*/20, Out));
  for (int Round = 0; Round != 3; ++Round) {
    std::deque<Msg> Wire;
    auto Post = [&Wire](const Effects &Effs) {
      for (const Effect &E : Effs)
        if (E.K == Effect::Kind::Send && E.M.To != 2)
          Wire.push_back(E.M);
    };
    Post(beat(L));
    for (int Guard = 0; !Wire.empty() && Guard != 1000; ++Guard) {
      Msg M = std::move(Wire.front());
      Wire.pop_front();
      Post(M.To == 3 ? F.onMessage(M, 0) : L.onMessage(M, 0));
    }
  }
  EXPECT_EQ(L.commitIndex(), L.logSize());
  ASSERT_EQ(F.logSize(), L.logSize());
  for (size_t I = 1; I <= F.logSize(); ++I)
    EXPECT_EQ(F.entry(I), L.entry(I)) << "index " << I;
}

TEST(SnapshotTest, PayloadCodecRejectsTruncationAndGarbage) {
  CoreHarness H;
  RaftCore L = makeLaggingLeader(H, 3);
  std::string Payload = codec::encodeSnapshotPayload(L.log(), L.commitIndex());

  std::vector<LogEntry> Decoded;
  ASSERT_TRUE(codec::decodeSnapshotPayload(Payload, Decoded));
  ASSERT_EQ(Decoded.size(), L.commitIndex());
  for (size_t I = 0; I != Decoded.size(); ++I)
    EXPECT_EQ(Decoded[I], L.entry(I + 1));

  for (size_t Len = 0; Len != Payload.size(); ++Len)
    EXPECT_FALSE(
        codec::decodeSnapshotPayload(Payload.substr(0, Len), Decoded))
        << "prefix " << Len;
  EXPECT_FALSE(codec::decodeSnapshotPayload(Payload + "x", Decoded));
  std::string Huge = Payload;
  for (size_t I = 0; I != 8; ++I)
    Huge[I] = char(0xFF); // Absurd declared entry count.
  EXPECT_FALSE(codec::decodeSnapshotPayload(Huge, Decoded));
}

//===----------------------------------------------------------------------===//
// Configuration index: config(), configOfPrefix() and the R2/R3 guards
// read derived state the core keeps beside the log. These check it
// against the definitions (the shared raft::configOfPrefix and linear
// scans of the log) after every step of random mutation sequences.
//===----------------------------------------------------------------------===//

namespace {

bool scanR2(const RaftCore &C) {
  for (size_t I = C.commitIndex(); I != C.logSize(); ++I)
    if (C.log()[I].Kind == raft::EntryKind::Reconfig)
      return false;
  return true;
}

bool scanR3(const RaftCore &C) {
  for (size_t I = C.commitIndex(); I > 0; --I)
    if (C.log()[I - 1].Term == C.term())
      return true;
  return false;
}

/// Random log mutations through the core's public inputs only: leader
/// appends and reconfigs, follower appends (with conflicting
/// truncation), chunked-snapshot installs, and crash-time
/// installDurableState. Every generated state is one Raft can reach:
/// entry terms never decrease along the log nor exceed the sender's
/// term, and committed slots are never rewritten.
struct LogFuzzer {
  CoreHarness H;
  RaftCore C;
  Rng R;
  std::vector<Config> Confs{Config(NodeSet{1, 2, 3}), Config(NodeSet{1, 2}),
                            Config(NodeSet{1, 2, 3, 4}),
                            Config(NodeSet{2, 3}), Config(NodeSet{1, 3})};

  explicit LogFuzzer(uint64_t Seed) : C(H.make(1, Seed)), R(Seed) {
    C.start();
  }

  Time termAt(size_t Index) const {
    return Index == 0 ? 0 : C.log()[Index - 1].Term;
  }

  /// A sender's term: a rival leader must be in a later term.
  Time senderTerm() {
    return C.term() + (C.role() == Role::Follower ? R.nextBelow(2) : 1);
  }

  /// \p Count entries following slot \p After, with terms in
  /// [termAt(After), MaxTerm], non-decreasing.
  std::vector<LogEntry> entries(size_t After, size_t Count, Time MaxTerm) {
    std::vector<LogEntry> Out;
    Time T = termAt(After);
    for (size_t I = 0; I != Count; ++I) {
      if (T < MaxTerm && R.nextChance(1, 3))
        T = R.nextInRange(T + 1, MaxTerm);
      LogEntry E;
      E.Term = T;
      E.Method = R.nextBelow(100);
      if (R.nextChance(1, 4)) {
        E.Kind = raft::EntryKind::Reconfig;
        E.Conf = R.pick(Confs);
      }
      Out.push_back(E);
    }
    return Out;
  }

  void followerAppend() {
    Msg M;
    M.K = Msg::Kind::AppendEntries;
    M.From = 2;
    M.To = 1;
    M.Term = senderTerm();
    M.PrevIndex = R.nextInRange(C.commitIndex(), C.logSize());
    M.PrevTerm = termAt(M.PrevIndex);
    M.Entries = entries(M.PrevIndex, R.nextBelow(5), M.Term);
    M.LeaderCommit = R.nextInRange(0, M.PrevIndex + M.Entries.size());
    C.onMessage(M, /*Now=*/0);
  }

  void snapshotInstall() {
    std::vector<LogEntry> Snap(
        C.log().begin(),
        C.log().begin() + R.nextInRange(C.commitIndex(), C.logSize()));
    Time Term = senderTerm();
    std::vector<LogEntry> More =
        entries(Snap.size(), R.nextInRange(1, 4), Term);
    Snap.insert(Snap.end(), More.begin(), More.end());
    Msg M;
    M.K = Msg::Kind::InstallSnapshot;
    M.From = 2;
    M.To = 1;
    M.Term = Term;
    M.SnapIndex = Snap.size();
    M.SnapTerm = Snap.back().Term;
    M.Chunk = codec::encodeSnapshotPayload(Snap, Snap.size());
    M.Done = true;
    C.onMessage(M, /*Now=*/0);
  }

  void recover() {
    C.crash();
    size_t Keep = R.nextInRange(C.commitIndex(), C.logSize());
    std::vector<LogEntry> Log(C.log().begin(), C.log().begin() + Keep);
    std::vector<LogEntry> More = entries(Keep, R.nextBelow(3), C.term());
    Log.insert(Log.end(), More.begin(), More.end());
    C.installDurableState(C.term(), std::nullopt, Log,
                          R.nextBelow(Log.size() + 1));
    C.restart();
  }

  void leaderWork() {
    if (!C.isLeader()) {
      C.onTimer(TimerId::Election, C.electionGen(), /*Now=*/0);
      if (C.role() != Role::Candidate)
        return;
      Msg Grant;
      Grant.K = Msg::Kind::VoteReply;
      Grant.From = 2;
      Grant.To = 1;
      Grant.Term = C.term();
      Grant.Granted = true;
      C.onMessage(Grant, /*Now=*/0);
      if (!C.isLeader())
        return;
    }
    Effects Out;
    if (R.nextChance(1, 3))
      C.requestReconfig(R.pick(Confs), Out);
    else
      C.submit(R.nextBelow(100), 0, Out);
    if (R.nextChance(1, 2))
      C.onMessage(appendAckFor(C.logSize()), /*Now=*/0);
  }

  Msg appendAckFor(size_t Match) const {
    Msg M;
    M.K = Msg::Kind::AppendReply;
    M.From = 2;
    M.To = 1;
    M.Term = C.term();
    M.Success = true;
    M.MatchIndex = Match;
    return M;
  }

  void step() {
    switch (R.nextBelow(8)) {
    case 0:
    case 1:
    case 2:
      followerAppend();
      break;
    case 3:
      snapshotInstall();
      break;
    case 4:
      recover();
      break;
    default:
      leaderWork();
      break;
    }
  }
};

} // namespace

TEST(ConfigIndexTest, MatchesLogScansUnderRandomMutation) {
  size_t Reconfigs = 0, R2Fails = 0, R3Holds = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    LogFuzzer F(Seed);
    for (size_t Step = 0; Step != 150; ++Step) {
      F.step();
      const RaftCore &C = F.C;
      ASSERT_LE(C.commitIndex(), C.logSize());
      for (size_t Len = 0; Len <= C.logSize(); ++Len)
        ASSERT_EQ(C.configOfPrefix(Len),
                  raft::configOfPrefix(C.log(), Len, F.H.Conf))
            << "seed " << Seed << " step " << Step << " prefix " << Len;
      ASSERT_EQ(C.config(),
                raft::configOfPrefix(C.log(), C.logSize(), F.H.Conf));
      ASSERT_EQ(C.logSatisfiesR2(), scanR2(C))
          << "seed " << Seed << " step " << Step;
      ASSERT_EQ(C.logSatisfiesR3(), scanR3(C))
          << "seed " << Seed << " step " << Step;
      Reconfigs += C.logSize() && C.log().back().Kind ==
                                      raft::EntryKind::Reconfig;
      R2Fails += !C.logSatisfiesR2();
      R3Holds += C.logSatisfiesR3();
    }
  }
  // The sequences really exercised both outcomes of each guard.
  EXPECT_GT(Reconfigs, 100u);
  EXPECT_GT(R2Fails, 100u);
  EXPECT_GT(R3Holds, 100u);
}

//===----------------------------------------------------------------------===//
// Commit advance: a leader tests only the candidate indices (the log
// end, each match index, and the index before each uncommitted reconfig
// entry). This checks its decisions against a scan of every uncommitted
// index after each step of random leader walks, for every scheme.
//===----------------------------------------------------------------------===//

namespace {

/// The highest index in (\p Commit, end of log] whose prefix a quorum of
/// its own configuration holds under \p Matches, scanning every index
/// from the top; \p Commit if none commits.
size_t scanCommit(const RaftCore &C, const ReconfigScheme &S,
                  const Config &Initial,
                  const std::map<NodeId, size_t> &Matches, size_t Commit) {
  for (size_t N = C.logSize(); N > Commit; --N) {
    if (C.log()[N - 1].Term != C.term())
      break;
    NodeSet Replicated{C.id()};
    for (const auto &[Peer, Match] : Matches)
      if (Match >= N)
        Replicated.insert(Peer);
    if (S.isQuorum(Replicated, raft::configOfPrefix(C.log(), N, Initial)))
      return N;
  }
  return Commit;
}

/// A starting configuration for \p K with node 1 a member; the joint
/// scheme starts mid-transition.
Config initialConfigFor(SchemeKind K) {
  Config C(NodeSet{1, 2, 3});
  switch (K) {
  case SchemeKind::RaftJoint:
    C.HasExtra = true;
    C.Extra = NodeSet{1, 3, 4};
    break;
  case SchemeKind::PrimaryBackup:
    C.Param = 2;
    break;
  case SchemeKind::DynamicQuorum:
    C.Members = NodeSet{1, 2, 3, 4};
    C.Param = 3;
    break;
  default:
    break;
  }
  return C;
}

/// Successors of \p C that keep node 1 (the leader under test) a member.
std::vector<Config> successorsKeepingNode1(const ReconfigScheme &S,
                                           const Config &C) {
  std::vector<Config> Out;
  for (Config &Next : S.candidateReconfigs(C, NodeSet{1, 2, 3, 4, 5}))
    if (S.mbrs(Next).contains(1))
      Out.push_back(std::move(Next));
  return Out;
}

} // namespace

TEST(CommitAdvanceTest, CandidateWalkMatchesAFullScan) {
  size_t Advances = 0, ShortOfEnd = 0, BeforeOwnReconfig = 0,
         OwnReconfigPending = 0, MixedTerms = 0;
  for (SchemeKind K : allSchemeKinds()) {
    std::unique_ptr<ReconfigScheme> S = makeScheme(K);
    Config Initial = initialConfigFor(K);
    for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
      Rng R(Seed);
      // Earlier terms' history, possibly with reconfig entries a deposed
      // leader left uncommitted.
      std::vector<LogEntry> Old;
      Config Conf = Initial;
      Time T = 1;
      for (size_t I = R.nextBelow(8); I != 0; --I) {
        if (R.nextChance(1, 3))
          ++T;
        LogEntry E;
        E.Term = T;
        E.Method = R.nextBelow(100);
        std::vector<Config> Next = successorsKeepingNode1(*S, Conf);
        if (!Next.empty() && R.nextChance(1, 3)) {
          E.Kind = raft::EntryKind::Reconfig;
          E.Conf = Conf = R.pick(Next);
        }
        Old.push_back(E);
      }
      RaftCore C(1, *S, Initial, CoreOptions(), Seed);
      C.installDurableState(T, std::nullopt, Old,
                            R.nextBelow(Old.size() + 1));
      C.start();
      C.onTimer(TimerId::Election, C.electionGen(), /*Now=*/0);
      for (NodeId Voter : S->mbrs(C.config())) {
        if (Voter == 1 || C.isLeader())
          continue;
        Msg Grant;
        Grant.K = Msg::Kind::VoteReply;
        Grant.From = Voter;
        Grant.To = 1;
        Grant.Term = C.term();
        Grant.Granted = true;
        C.onMessage(Grant, /*Now=*/0);
      }
      ASSERT_TRUE(C.isLeader()) << S->name() << " seed " << Seed;

      std::map<NodeId, size_t> Matches;
      for (size_t Step = 0; Step != 60; ++Step) {
        size_t Before = C.commitIndex();
        Effects Out;
        switch (R.nextBelow(4)) {
        case 0:
          C.submit(R.nextBelow(100), 0, Out);
          break;
        case 1: {
          std::vector<Config> Next = successorsKeepingNode1(*S, C.config());
          if (!Next.empty())
            C.requestReconfig(R.pick(Next), Out);
          break;
        }
        default: {
          NodeId Peer = static_cast<NodeId>(R.nextInRange(2, 5));
          size_t &Match = Matches[Peer];
          Match = std::max<size_t>(Match, R.nextInRange(0, C.logSize()));
          ackFrom(C, Peer, Match);
          break;
        }
        }
        ASSERT_EQ(C.commitIndex(), scanCommit(C, *S, Initial, Matches, Before))
            << S->name() << " seed " << Seed << " step " << Step;
        MixedTerms += C.logSize() > Before &&
                      C.entry(Before + 1).Term != C.term();
        for (size_t N = C.commitIndex() + 1; N <= C.logSize(); ++N)
          OwnReconfigPending += C.entry(N).Term == C.term() &&
                                C.entry(N).Kind == raft::EntryKind::Reconfig;
        if (C.commitIndex() > Before) {
          ++Advances;
          ShortOfEnd += C.commitIndex() < C.logSize();
          BeforeOwnReconfig +=
              C.commitIndex() < C.logSize() &&
              C.entry(C.commitIndex() + 1).Kind == raft::EntryKind::Reconfig;
        }
      }
    }
  }
  // The walks reached every shape the candidate rule must get right.
  EXPECT_GT(Advances, 300u);
  EXPECT_GT(ShortOfEnd, 200u);
  EXPECT_GT(BeforeOwnReconfig, 20u);
  EXPECT_GT(OwnReconfigPending, 1000u);
  EXPECT_GT(MixedTerms, 500u);
}

//===----------------------------------------------------------------------===//
// Replication hot path: the PipelineWindow in-flight window (defaults
// to 1; these tests turn it on)
//===----------------------------------------------------------------------===//

namespace {

/// Sends of AppendEntries addressed to \p To, in order.
std::vector<const Msg *> appendsTo(const Effects &Effs, NodeId To) {
  std::vector<const Msg *> Out;
  for (const Effect &E : Effs)
    if (E.K == Effect::Kind::Send && E.M.K == Msg::Kind::AppendEntries &&
        E.M.To == To)
      Out.push_back(&E.M);
  return Out;
}

/// A compact, order-preserving rendition of an effect stream, for
/// whole-schedule equality checks.
std::string describeEffects(const Effects &Effs) {
  std::string S;
  for (const Effect &E : Effs) {
    switch (E.K) {
    case Effect::Kind::Send:
      S += "send(k=" + std::to_string(int(E.M.K)) +
           ",to=" + std::to_string(E.M.To) +
           ",prev=" + std::to_string(E.M.PrevIndex) +
           ",n=" + std::to_string(E.M.Entries.size()) +
           ",commit=" + std::to_string(E.M.LeaderCommit) + ");";
      break;
    case Effect::Kind::SetTimer:
      S += "set(t=" + std::to_string(int(E.Timer)) + ");";
      break;
    case Effect::Kind::CancelTimer:
      S += "cancel(t=" + std::to_string(int(E.Timer)) + ");";
      break;
    case Effect::Kind::Apply:
      S += "apply(i=" + std::to_string(E.Index) + ");";
      break;
    case Effect::Kind::CommitAdvanced:
      S += "commit(i=" + std::to_string(E.Index) + ");";
      break;
    case Effect::Kind::Persist:
      S += "persist;";
      break;
    case Effect::Kind::LeaderElected:
      S += "led;";
      break;
    case Effect::Kind::ReplicaSuspected:
      S += "susp;";
      break;
    case Effect::Kind::ReplicaRecovered:
      S += "recov;";
      break;
    case Effect::Kind::ReadReady:
      S += "rdok(id=" + std::to_string(E.ReadId) +
           ",i=" + std::to_string(E.Index) + ");";
      break;
    case Effect::Kind::ReadFailed:
      S += "rdfail(id=" + std::to_string(E.ReadId) + ");";
      break;
    }
  }
  return S;
}

Msg appendAck(const RaftCore &L, NodeId From, size_t MatchIndex) {
  Msg M;
  M.K = Msg::Kind::AppendReply;
  M.From = From;
  M.To = L.id();
  M.Term = L.term();
  M.Success = true;
  M.MatchIndex = MatchIndex;
  return M;
}

Msg appendNack(const RaftCore &L, NodeId From, size_t MatchIndex) {
  Msg M = appendAck(L, From, MatchIndex);
  M.Success = false;
  return M;
}

} // namespace

TEST(PipelineTest, WindowStreamsFramesWithoutAcks) {
  // window=3, one entry per frame: submits stream three unacked frames
  // to each follower, then the window gates the fourth.
  CoreHarness H;
  H.Opts.PipelineWindow = 3;
  H.Opts.MaxEntriesPerAppend = 1;
  RaftCore C = H.make(1);
  C.start();
  Effects Elect = electLeader(C);
  // The noop broadcast shipped frame 1 and opened the window.
  EXPECT_EQ(appendsTo(Elect, 2).size(), 1u);
  EXPECT_EQ(C.inFlightTo(2), 1u);

  Effects S1, S2, S3;
  ASSERT_TRUE(C.submit(10, 1, S1));
  ASSERT_TRUE(C.submit(11, 2, S2));
  ASSERT_TRUE(C.submit(12, 3, S3));
  // Submits 1 and 2 fill the remaining two window slots...
  ASSERT_EQ(appendsTo(S1, 2).size(), 1u);
  EXPECT_EQ(appendsTo(S1, 2)[0]->PrevIndex, 1u);
  ASSERT_EQ(appendsTo(S2, 2).size(), 1u);
  EXPECT_EQ(appendsTo(S2, 2)[0]->PrevIndex, 2u);
  EXPECT_EQ(C.inFlightTo(2), 3u);
  // ...and the third finds the window full: nothing goes out.
  EXPECT_EQ(appendsTo(S3, 2).size(), 0u);
  EXPECT_EQ(C.inFlightTo(2), 3u);
}

TEST(PipelineTest, AckFreesASlotAndStreamsOn) {
  CoreHarness H;
  H.Opts.PipelineWindow = 2;
  H.Opts.MaxEntriesPerAppend = 1;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  Effects Tmp;
  ASSERT_TRUE(C.submit(10, 1, Tmp)); // Window now full (noop + this).
  ASSERT_TRUE(C.submit(11, 2, Tmp)); // Gated: log index 3 unsent.
  EXPECT_EQ(C.inFlightTo(2), 2u);

  // Acking the noop frees one slot; the pump ships index 3.
  Effects AckFx = C.onMessage(appendAck(C, 2, 1), /*Now=*/0);
  std::vector<const Msg *> Sent = appendsTo(AckFx, 2);
  ASSERT_EQ(Sent.size(), 1u);
  EXPECT_EQ(Sent[0]->PrevIndex, 2u);
  ASSERT_EQ(Sent[0]->Entries.size(), 1u);
  EXPECT_EQ(C.inFlightTo(2), 2u); // One acked out, one new in.
}

TEST(PipelineTest, NackMidWindowRewindsAndRestreams) {
  // A consistency NAK while frames are still in flight must drop the
  // whole window and re-stream from the backed-up NextIndex — the
  // frames in flight carry PrevIndex anchors the follower will reject.
  CoreHarness H;
  H.Opts.PipelineWindow = 3;
  H.Opts.MaxEntriesPerAppend = 1;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  Effects Tmp;
  ASSERT_TRUE(C.submit(10, 1, Tmp));
  ASSERT_TRUE(C.submit(11, 2, Tmp));
  ASSERT_EQ(C.inFlightTo(2), 3u);

  // Follower 2 rejects (it has nothing): MatchIndex hint 0.
  Effects NackFx = C.onMessage(appendNack(C, 2, 0), /*Now=*/0);
  std::vector<const Msg *> Resent = appendsTo(NackFx, 2);
  // Rewound to index 1 and the window re-filled from there.
  ASSERT_EQ(Resent.size(), 3u);
  EXPECT_EQ(Resent[0]->PrevIndex, 0u);
  EXPECT_EQ(Resent[1]->PrevIndex, 1u);
  EXPECT_EQ(Resent[2]->PrevIndex, 2u);
  EXPECT_EQ(C.inFlightTo(2), 3u);
}

TEST(PipelineTest, WindowDrainsOnLeadershipLoss) {
  CoreHarness H;
  H.Opts.PipelineWindow = 4;
  H.Opts.MaxEntriesPerAppend = 1;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  Effects Tmp;
  ASSERT_TRUE(C.submit(10, 1, Tmp));
  ASSERT_GE(C.inFlightTo(2), 2u);

  // A higher term deposes the leader; all pipeline state must drop
  // with the role (stale windows on a future term would gate frames).
  Msg Probe;
  Probe.K = Msg::Kind::AppendEntries;
  Probe.From = 3;
  Probe.To = 1;
  Probe.Term = C.term() + 1;
  C.onMessage(Probe, /*Now=*/0);
  EXPECT_FALSE(C.isLeader());
  EXPECT_EQ(C.inFlightTo(2), 0u);
  EXPECT_EQ(C.inFlightTo(3), 0u);
}

TEST(PipelineTest, HeartbeatRewindsAndRetransmitsTheWindow) {
  // Frames lost in flight are recovered by the heartbeat round: it
  // rewinds every peer's cursor to the acked point and re-fills the
  // window — no separate retransmission timer exists.
  CoreHarness H;
  H.Opts.PipelineWindow = 2;
  H.Opts.MaxEntriesPerAppend = 1;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  Effects Tmp;
  ASSERT_TRUE(C.submit(10, 1, Tmp));
  EXPECT_EQ(C.inFlightTo(2), 2u); // Noop + submit, both unacked.

  Effects Beat =
      C.onTimer(TimerId::Heartbeat, C.heartbeatGen(), /*Now=*/0);
  std::vector<const Msg *> Resent = appendsTo(Beat, 2);
  // Nothing was acked, so the same two frames go out again from 1.
  ASSERT_EQ(Resent.size(), 2u);
  EXPECT_EQ(Resent[0]->PrevIndex, 0u);
  EXPECT_EQ(Resent[1]->PrevIndex, 1u);
  EXPECT_EQ(C.inFlightTo(2), 2u);
}

TEST(PipelineTest, CaughtUpFollowerStillGetsKeepAlives) {
  // A follower with nothing to receive must still see periodic empty
  // appends (commit propagation and leadership proof) — the window
  // must not starve heartbeats.
  CoreHarness H;
  H.Opts.PipelineWindow = 4;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  C.onMessage(appendAck(C, 2, 1), /*Now=*/0);
  C.onMessage(appendAck(C, 3, 1), /*Now=*/0);

  Effects Beat =
      C.onTimer(TimerId::Heartbeat, C.heartbeatGen(), /*Now=*/0);
  std::vector<const Msg *> Sent = appendsTo(Beat, 2);
  ASSERT_EQ(Sent.size(), 1u);
  EXPECT_EQ(Sent[0]->Entries.size(), 0u);
  EXPECT_EQ(Sent[0]->LeaderCommit, C.commitIndex());
}

namespace {

/// Three real cores on FIFO links, driven as a closed loop: node 1 is
/// elected, then each op is submitted the moment the previous one
/// commits at the leader (back to back), and messages are delivered one
/// at a time in send order, so every link is in order. No timer fires,
/// so there are no heartbeats and no loss. Records every AppendEntries
/// the leader emits, by the input that emitted it, and checks that each
/// submit's frame carries the leader's current commit index.
struct ClosedLoop {
  CoreHarness H;
  std::vector<RaftCore> Cores;
  std::deque<Msg> Wire;
  /// Frames per peer emitted by submits, by acks whose step advanced
  /// the commit index, and by acks that did not.
  std::map<NodeId, size_t> SubmitFrames, AdvanceFrames, OtherAckFrames;
  size_t Submits = 0, Advances = 0, KeepAlives = 0;
  /// How often each log index was shipped to each peer.
  std::map<NodeId, std::map<size_t, size_t>> Shipped;

  explicit ClosedLoop(size_t Window) {
    H.Opts.PipelineWindow = Window;
    for (NodeId Id : {1, 2, 3})
      Cores.push_back(H.make(Id, /*Seed=*/Id));
    for (RaftCore &C : Cores)
      C.start();
    post(Cores[0].onTimer(TimerId::Election, Cores[0].electionGen(), 0));
    drain();
  }

  RaftCore &leader() { return Cores[0]; }

  /// Queues the sends of \p Effs and returns the leader's AppendEntries
  /// frames in it, per peer.
  std::map<NodeId, size_t> post(const Effects &Effs) {
    std::map<NodeId, size_t> Frames;
    for (const Effect &E : Effs) {
      if (E.K != Effect::Kind::Send)
        continue;
      Wire.push_back(E.M);
      if (E.M.K != Msg::Kind::AppendEntries || E.M.From != 1)
        continue;
      ++Frames[E.M.To];
      KeepAlives += E.M.Entries.empty();
      for (size_t I = 0; I != E.M.Entries.size(); ++I)
        ++Shipped[E.M.To][E.M.PrevIndex + 1 + I];
    }
    return Frames;
  }

  /// Delivers the oldest message in flight.
  void deliverOne() {
    Msg M = Wire.front();
    Wire.pop_front();
    Effects Effs = Cores[M.To - 1].onMessage(M, /*NowUs=*/0);
    std::map<NodeId, size_t> Frames = post(Effs);
    if (M.To != 1 || M.K != Msg::Kind::AppendReply)
      return;
    bool Advanced = count(Effs, Effect::Kind::CommitAdvanced) != 0;
    Advances += Advanced;
    for (const auto &[Peer, N] : Frames)
      (Advanced ? AdvanceFrames : OtherAckFrames)[Peer] += N;
  }

  void drain() {
    while (!Wire.empty())
      deliverOne();
  }

  void run(size_t Ops) {
    ASSERT_TRUE(leader().isLeader());
    while (Submits < Ops || !Wire.empty()) {
      if (Submits < Ops && leader().commitIndex() == leader().logSize()) {
        Effects Effs;
        ASSERT_TRUE(leader().submit(10 + Submits, Submits + 1, Effs));
        ++Submits;
        for (const Effect &E : Effs)
          if (E.K == Effect::Kind::Send &&
              E.M.K == Msg::Kind::AppendEntries) {
            EXPECT_EQ(E.M.LeaderCommit, leader().commitIndex())
                << "a submit's frame carries the commit index";
          }
        for (const auto &[Peer, N] : post(Effs)) {
          EXPECT_EQ(N, 1u) << "one frame per peer per submit";
          SubmitFrames[Peer] += N;
        }
        continue;
      }
      ASSERT_FALSE(Wire.empty()) << "stalled before op " << Submits;
      deliverOne();
    }
    EXPECT_EQ(leader().commitIndex(), leader().logSize());
  }
};

} // namespace

TEST(SendOnceTest, AcksNeverResendAtUnitWindow) {
  ClosedLoop L(/*Window=*/1);
  L.run(40);
  for (NodeId Peer : {2, 3}) {
    EXPECT_EQ(L.SubmitFrames[Peer], 40u);
    // A commit advance sends nothing, and acks that advance nothing
    // send nothing either.
    EXPECT_EQ(L.AdvanceFrames[Peer], 0u);
    EXPECT_EQ(L.OtherAckFrames[Peer], 0u);
    // The next submit's frame would carry the last op's commit.
    EXPECT_EQ(L.Cores[Peer - 1].commitIndex(), L.leader().commitIndex() - 1);
  }
  EXPECT_EQ(L.Advances, 41u); // The noop's and each op's.
  EXPECT_EQ(L.KeepAlives, 0u);
}

TEST(SendOnceTest, EachEntryShippedOncePerPeerWhenPipelined) {
  ClosedLoop L(/*Window=*/4);
  L.run(40);
  for (NodeId Peer : {2, 3}) {
    EXPECT_EQ(L.SubmitFrames[Peer], 40u);
    EXPECT_EQ(L.AdvanceFrames[Peer], 0u);
    EXPECT_EQ(L.OtherAckFrames[Peer], 0u);
    // The noop and the 40 ops, each sent to each follower exactly once.
    ASSERT_EQ(L.Shipped[Peer].size(), 41u);
    for (const auto &[Index, Times] : L.Shipped[Peer])
      EXPECT_EQ(Times, 1u) << "index " << Index << " to S" << Peer;
    EXPECT_EQ(L.Cores[Peer - 1].commitIndex(), L.leader().commitIndex() - 1);
  }
  EXPECT_EQ(L.Advances, 41u); // The noop's and each op's.
  EXPECT_EQ(L.KeepAlives, 0u);
}

TEST(PipelineTest, UnitWindowReproducesLegacySchedule) {
  // The acceptance pin for every seed-stable harness: window=1 must
  // walk exactly the code paths the pre-pipelining core walked, so a
  // default-options core and an explicit window=1 core produce identical
  // effect streams over a schedule that exercises election, submits,
  // acks, a nack, heartbeats, and commit advancement.
  CoreHarness HDefault, HUnit;
  HUnit.Opts.PipelineWindow = 1;
  RaftCore A = HDefault.make(1, /*Seed=*/42);
  RaftCore B = HUnit.make(1, /*Seed=*/42);

  auto Step = [](RaftCore &C, auto Fn) {
    Effects Out = Fn(C);
    return describeEffects(Out);
  };
  auto Same = [&](auto Fn) {
    EXPECT_EQ(Step(A, Fn), Step(B, Fn));
  };

  Same([](RaftCore &C) { return C.start(); });
  Same([](RaftCore &C) { return electLeader(C); });
  Same([](RaftCore &C) {
    Effects Out;
    C.submit(10, 1, Out);
    return Out;
  });
  Same([](RaftCore &C) { return C.onMessage(appendAck(C, 2, 2), 0); });
  Same([](RaftCore &C) { return C.onMessage(appendNack(C, 3, 0), 0); });
  Same([](RaftCore &C) {
    return C.onTimer(TimerId::Heartbeat, C.heartbeatGen(), 0);
  });
  Same([](RaftCore &C) { return C.onMessage(appendAck(C, 3, 2), 0); });
  Same([](RaftCore &C) {
    Effects Out;
    C.submit(11, 2, Out);
    return Out;
  });
  EXPECT_EQ(A.inFlightTo(2), 0u);
  EXPECT_EQ(B.inFlightTo(2), 0u);
}

//===----------------------------------------------------------------------===//
// Host contract (core/Host.h): the one effect dispatcher every host runs
//===----------------------------------------------------------------------===//

namespace {

/// A host that records which hook each effect reached, in call order.
struct RecordingHost {
  std::vector<std::string> Calls;

  void persist(size_t DirtyFrom) {
    Calls.push_back("persist from " + std::to_string(DirtyFrom));
  }
  void send(Msg &&M) { Calls.push_back("send to " + std::to_string(M.To)); }
  void setTimer(TimerId T, uint64_t Gen, uint64_t DelayUs) {
    Calls.push_back("set-timer " + std::to_string(int(T)) + " gen " +
                    std::to_string(Gen) + " after " + std::to_string(DelayUs));
  }
  void cancelTimer(TimerId T) {
    Calls.push_back("cancel-timer " + std::to_string(int(T)));
  }
  void apply(size_t Index, const LogEntry &E) {
    Calls.push_back("apply " + std::to_string(Index) + " method " +
                    std::to_string(E.Method));
  }
  void commitAdvanced(size_t Index) {
    Calls.push_back("commit " + std::to_string(Index));
  }
  void leaderElected(Time Term) {
    Calls.push_back("leader " + std::to_string(Term));
  }
  void replicaSuspected(NodeId Peer) {
    Calls.push_back("suspected " + std::to_string(Peer));
  }
  void replicaRecovered(NodeId Peer) {
    Calls.push_back("recovered " + std::to_string(Peer));
  }
  void readReady(uint64_t ReadId, size_t SafeIndex) {
    Calls.push_back("read-ready " + std::to_string(ReadId) + " at " +
                    std::to_string(SafeIndex));
  }
  void readFailed(uint64_t ReadId) {
    Calls.push_back("read-failed " + std::to_string(ReadId));
  }
};

Msg msgTo(NodeId To) {
  Msg M;
  M.To = To;
  return M;
}

} // namespace

TEST(HostTest, PersistRunsOnceBeforeTheEffectsItGates) {
  // The core emits Persist at the end of a batch; the host must make the
  // state durable before the Send that announces it escapes.
  Effects Effs{Effect::send(msgTo(2)),
               Effect::setTimer(TimerId::Heartbeat, 5, 50),
               Effect::persist(/*Term=*/3, /*LogLen=*/2, /*DirtyFrom=*/2),
               Effect::persist(/*Term=*/3, /*LogLen=*/2, /*DirtyFrom=*/1)};
  RecordingHost H;
  dispatchEffects(Effs, H);
  // One persist, from the lowest dirty index of the batch's steps.
  EXPECT_EQ(H.Calls, (std::vector<std::string>{"persist from 1", "send to 2",
                                               "set-timer 1 gen 5 after 50"}));
}

TEST(HostTest, BatchWithoutPersistNeverPersists) {
  Effects Effs{Effect::send(msgTo(3)), Effect::commitAdvanced(4),
               Effect::cancelTimer(TimerId::Election)};
  RecordingHost H;
  dispatchEffects(Effs, H);
  EXPECT_EQ(H.Calls, (std::vector<std::string>{"send to 3", "commit 4",
                                               "cancel-timer 0"}));
  Effects Empty;
  dispatchEffects(Empty, H);
  EXPECT_EQ(H.Calls.size(), 3u);
}

TEST(HostTest, EveryEffectKindReachesItsOwnHook) {
  LogEntry E;
  E.Method = 77;
  Effects Effs{Effect::send(msgTo(2)),
               Effect::setTimer(TimerId::Election, 1, 150),
               Effect::cancelTimer(TimerId::Heartbeat),
               Effect::apply(4, E),
               Effect::commitAdvanced(4),
               Effect::persist(/*Term=*/2, /*LogLen=*/4, /*DirtyFrom=*/4),
               Effect::leaderElected(2),
               Effect::replicaSuspected(3),
               Effect::replicaRecovered(3),
               Effect::readReady(9, 4),
               Effect::readFailed(10)};
  // The batch holds every kind, so a kind added to Effect::Kind without
  // a hook here fails this check (and Host.h's switch fails to compile).
  for (unsigned K = 0; K <= unsigned(Effect::Kind::ReadFailed); ++K)
    EXPECT_EQ(count(Effs, Effect::Kind(K)), 1u) << "kind " << K;
  RecordingHost H;
  dispatchEffects(Effs, H);
  EXPECT_EQ(H.Calls,
            (std::vector<std::string>{
                "persist from 4", "send to 2", "set-timer 0 gen 1 after 150",
                "cancel-timer 1", "apply 4 method 77", "commit 4", "leader 2",
                "suspected 3", "recovered 3", "read-ready 9 at 4",
                "read-failed 10"}));
}

//===----------------------------------------------------------------------===//
// Stale commits: a follower commits only what a frame vouches for
//===----------------------------------------------------------------------===//

namespace {

/// Three real cores on a hand-driven network, so a test can pick any
/// delivery order. Every Apply a core emits is recorded by node and
/// index, for comparison against the leader's committed log.
struct ThreeCores {
  CoreHarness H;
  std::vector<RaftCore> Cores;
  std::deque<Msg> Wire;
  std::map<NodeId, std::map<size_t, LogEntry>> Applied;
  uint64_t Now = 0;

  explicit ThreeCores(const CoreOptions &Opts) {
    H.Opts = Opts;
    for (NodeId Id : {1, 2, 3})
      Cores.push_back(H.make(Id, /*Seed=*/Id));
    for (RaftCore &C : Cores)
      C.start();
  }

  RaftCore &core(NodeId Id) { return Cores[Id - 1]; }

  void post(NodeId From, const Effects &Effs) {
    for (const Effect &E : Effs) {
      if (E.K == Effect::Kind::Send)
        Wire.push_back(E.M);
      else if (E.K == Effect::Kind::Apply)
        Applied[From][E.Index] = E.Entry;
    }
  }

  void deliver(const Msg &M) { post(M.To, core(M.To).onMessage(M, Now)); }

  void campaign(NodeId Id) {
    post(Id, core(Id).onTimer(TimerId::Election, core(Id).electionGen(), Now));
  }

  /// Delivers in send order every message not addressed to \p Held;
  /// those stay in flight, in order.
  void deliverAllExcept(NodeId Held) {
    std::deque<Msg> Kept;
    while (!Wire.empty()) {
      Msg M = Wire.front();
      Wire.pop_front();
      if (M.To == Held)
        Kept.push_back(M);
      else
        deliver(M);
    }
    Wire = std::move(Kept);
  }

  /// Removes and returns the first in-flight append to \p To whose
  /// PrevIndex is \p Prev.
  std::optional<Msg> takeAppend(NodeId To, size_t Prev) {
    for (auto It = Wire.begin(); It != Wire.end(); ++It)
      if (It->K == Msg::Kind::AppendEntries && It->To == To &&
          It->PrevIndex == Prev) {
        Msg M = *It;
        Wire.erase(It);
        return M;
      }
    return std::nullopt;
  }

  /// Drops every in-flight message to \p To.
  void takeAll(NodeId To) {
    std::erase_if(Wire, [To](const Msg &M) { return M.To == To; });
  }

  void drain() {
    for (size_t Steps = 0; !Wire.empty() && Steps != 10000; ++Steps) {
      Msg M = Wire.front();
      Wire.pop_front();
      deliver(M);
    }
  }
};

} // namespace

TEST(StaleCommitTest, ReorderedPipelinedFramesNeverCommitAStaleSuffix) {
  // Node 3 leads term 1 and commits [a] with both peers, then appends b
  // and c that reach nobody. Node 1 (holding [a]) wins term 2 with node
  // 2's vote, appends its noop and x, and commits index 3 with node 2.
  // Its pipelined frames Prev=1 and Prev=2 reach node 3 in reverse.
  CoreOptions Opts;
  Opts.PipelineWindow = 4;
  Opts.MaxEntriesPerAppend = 1;
  Opts.DisableVoteStickiness = true;
  ThreeCores N(Opts);
  N.campaign(3);
  N.drain();
  ASSERT_TRUE(N.core(3).isLeader());
  ASSERT_EQ(N.core(3).commitIndex(), 1u);
  Effects Unsent;
  ASSERT_TRUE(N.core(3).submit(20, 1, Unsent));
  ASSERT_TRUE(N.core(3).submit(21, 2, Unsent));
  ASSERT_EQ(N.core(3).logSize(), 3u);

  N.Now = 10000000;
  N.Wire.clear(); // b and c reach nobody.
  N.campaign(1);
  N.takeAll(3); // Node 3 never hears the campaign.
  N.deliverAllExcept(3);
  ASSERT_TRUE(N.core(1).isLeader());
  Effects Submit;
  ASSERT_TRUE(N.core(1).submit(30, 1, Submit));
  N.post(1, Submit);
  N.deliverAllExcept(3);
  ASSERT_EQ(N.core(1).commitIndex(), 3u);

  // Prev=2 first: node 3 holds b at index 2 and NAKs with hint 1. The
  // hint says index 1 matches, so no re-send may start below index 2.
  std::optional<Msg> Second = N.takeAppend(3, 2);
  ASSERT_TRUE(Second.has_value());
  N.deliver(*Second);
  ASSERT_FALSE(N.Wire.empty());
  Msg Nak = N.Wire.back();
  N.Wire.pop_back();
  ASSERT_EQ(Nak.K, Msg::Kind::AppendReply);
  ASSERT_FALSE(Nak.Success);
  EXPECT_EQ(Nak.MatchIndex, 1u);
  Effects Resend = N.core(1).onMessage(Nak, N.Now);
  for (const Msg *M : appendsTo(Resend, 3))
    EXPECT_GE(M->PrevIndex, 1u) << "NAK rewound below its hint";
  N.post(1, Resend);

  // A leader may still re-send from any earlier index (a retransmission
  // or a slow probe), so a frame that vouches only for [a] while
  // carrying commit 3 must not commit node 3's stale b and c.
  Msg Short;
  Short.K = Msg::Kind::AppendEntries;
  Short.From = 1;
  Short.To = 3;
  Short.Term = N.core(1).term();
  Short.PrevIndex = 0;
  Short.Entries = {N.core(1).entry(1)};
  Short.LeaderCommit = N.core(1).commitIndex();
  N.deliver(Short);
  EXPECT_LE(N.core(3).commitIndex(), 1u);

  N.drain();
  for (const auto &[Node, ByIndex] : N.Applied)
    for (const auto &[Index, E] : ByIndex) {
      ASSERT_LE(Index, N.core(1).commitIndex());
      EXPECT_TRUE(E == N.core(1).entry(Index))
          << "S" << Node << " applied a term-" << E.Term
          << " entry at index " << Index << "; the leader committed term "
          << N.core(1).entry(Index).Term;
    }
  EXPECT_EQ(N.core(3).log(), N.core(1).log());
  EXPECT_EQ(N.core(3).commitIndex(), 3u);
}

TEST(StaleCommitTest, DuplicatedNakNeverRewindsBelowTheMatchPoint) {
  // Window 1: follower 2 has acked index 2, then a NAK with hint 2 (a
  // probe past its log) arrives twice. Each copy used to step Next back
  // one more slot, re-sending entries the follower already holds.
  CoreHarness H;
  H.Opts.PipelineWindow = 1;
  H.Opts.MaxEntriesPerAppend = 1;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  Effects Tmp;
  for (MethodId M = 10; M != 14; ++M)
    ASSERT_TRUE(C.submit(M, M, Tmp));
  C.onMessage(appendAck(C, 2, 2), /*Now=*/0);
  for (int Copy = 0; Copy != 2; ++Copy) {
    Effects Fx = C.onMessage(appendNack(C, 2, 2), /*Now=*/0);
    std::vector<const Msg *> Sent = appendsTo(Fx, 2);
    ASSERT_FALSE(Sent.empty());
    for (const Msg *M : Sent)
      EXPECT_EQ(M->PrevIndex, 2u) << "copy " << Copy << " rewound Next";
  }
}

//===----------------------------------------------------------------------===//
// Forwarded reads: the answer's frame reaches tracked peers only
//===----------------------------------------------------------------------===//

namespace {

/// A follower's forwarded read of \p From at leader \p L.
Msg forwardedRead(const RaftCore &L, NodeId From, uint64_t Cookie) {
  Msg M;
  M.K = Msg::Kind::ReadIndexQuery;
  M.From = From;
  M.To = L.id();
  M.Term = L.term();
  M.Done = false;
  M.ReadRound = Cookie;
  return M;
}

/// Answers leader \p L's confirmation probe in \p Probes from \p From.
Effects ackProbe(RaftCore &L, const Effects &Probes, NodeId From) {
  for (const Effect &E : Probes)
    if (E.K == Effect::Kind::Send && E.M.K == Msg::Kind::ReadIndexQuery &&
        E.M.Done && E.M.To == From) {
      Msg Ack;
      Ack.K = Msg::Kind::ReadIndexReply;
      Ack.From = From;
      Ack.To = L.id();
      Ack.Term = L.term();
      Ack.Done = true;
      Ack.Success = true;
      Ack.ReadRound = E.M.ReadRound;
      return L.onMessage(Ack, /*NowUs=*/0);
    }
  ADD_FAILURE() << "no probe to S" << From;
  return {};
}

} // namespace

TEST(ForwardedReadTest, AnsweredMemberGetsOneFrameWithTheCommitIndex) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  C.onMessage(appendAck(C, 2, 1), /*NowUs=*/0);
  ASSERT_EQ(C.commitIndex(), 1u);

  // A commit advance sends nothing, so follower 2 has not heard of
  // index 1 yet. Answering its read also sends it the commit index.
  Effects Arrive = C.onMessage(forwardedRead(C, 2, 55), /*NowUs=*/0);
  EXPECT_TRUE(appendsTo(Arrive, 2).empty());
  Effects Done = ackProbe(C, Arrive, 3);
  std::vector<const Msg *> Frames = appendsTo(Done, 2);
  ASSERT_EQ(Frames.size(), 1u);
  EXPECT_EQ(Frames[0]->LeaderCommit, 1u);
  EXPECT_TRUE(appendsTo(Done, 3).empty()) << "only the reader is sent to";
}

TEST(ForwardedReadTest, NonMemberReadResolvesWithoutAFrameOrACrash) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  Effects Won = electLeader(C);
  C.onMessage(appendAck(C, 2, 1), /*NowUs=*/0);
  ASSERT_EQ(C.commitIndex(), 1u);

  // S4 is outside {1, 2, 3} but holds the committed noop and knows the
  // leader, as a node just removed from the configuration would.
  RaftCore F = H.make(4);
  F.start();
  std::vector<const Msg *> ToS2 = appendsTo(Won, 2);
  ASSERT_EQ(ToS2.size(), 1u);
  Msg Caught = *ToS2[0];
  Caught.To = 4;
  Caught.LeaderCommit = 1;
  F.onMessage(Caught, /*NowUs=*/0);
  ASSERT_EQ(F.commitIndex(), 1u);

  Effects Ask;
  ASSERT_TRUE(F.readQuery(7, /*NowUs=*/0, Ask));
  const Effect *Fwd = find(Ask, Effect::Kind::Send);
  ASSERT_NE(Fwd, nullptr);
  Effects Arrive = C.onMessage(Fwd->M, /*NowUs=*/0);
  Effects Done = ackProbe(C, Arrive, 2);
  EXPECT_TRUE(appendsTo(Done, 4).empty()) << "S4 has no replication stream";
  const Effect *Reply = nullptr;
  for (const Effect &E : Done)
    if (E.K == Effect::Kind::Send && E.M.K == Msg::Kind::ReadIndexReply &&
        E.M.To == 4)
      Reply = &E;
  ASSERT_NE(Reply, nullptr);
  EXPECT_TRUE(Reply->M.Success);

  Effects Served = F.onMessage(Reply->M, /*NowUs=*/0);
  const Effect *Ready = find(Served, Effect::Kind::ReadReady);
  ASSERT_NE(Ready, nullptr);
  EXPECT_EQ(Ready->ReadId, 7u);
  EXPECT_EQ(Ready->Index, 1u);

  // A consistency NAK from the untracked peer is ignored: there is no
  // stream to rewind, and starting one at index 0 would be invalid.
  Effects Nak = C.onMessage(appendNack(C, 4, 0), /*NowUs=*/0);
  EXPECT_EQ(count(Nak, Effect::Kind::Send), 0u);
  EXPECT_TRUE(C.isLeader());
}
