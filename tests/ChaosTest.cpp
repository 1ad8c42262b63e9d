//===- tests/ChaosTest.cpp - Chaos harness + linearizability tests ----------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the chaos layer bottom-up: the linearizability checker against
/// hand-built histories (including mutation tests that forge violations),
/// the new network-fault knobs, the end-to-end chaos runner across
/// scenarios, the Fig. 4-shaped crash-during-reconfig recovery, and seed
/// determinism of whole chaos runs.
///
//===----------------------------------------------------------------------===//

#include "chaos/ChaosRun.h"
#include "chaos/History.h"
#include "chaos/Linearizability.h"
#include "chaos/RtRun.h"
#include "kv/KvStore.h"
#include "sim/ShardedCluster.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace adore;
using namespace adore::chaos;
using sim::SimTime;

//===----------------------------------------------------------------------===//
// Linearizability checker on hand-built histories
//===----------------------------------------------------------------------===//

namespace {

uint64_t NextForgedId = 1000;

/// Builds one completed op for checker unit tests.
ClientOp op(OpKind Kind, uint32_t Key, uint32_t Value, SimTime Inv,
            SimTime Ret, Outcome Out,
            std::optional<uint32_t> ReadValue = std::nullopt) {
  ClientOp Op;
  Op.OpId = NextForgedId++;
  Op.Kind = Kind;
  Op.Key = Key;
  Op.Value = Value;
  Op.ReadValue = ReadValue;
  Op.InvokedAt = Inv;
  Op.ReturnedAt = Ret;
  Op.Out = Out;
  return Op;
}

} // namespace

TEST(LinearizabilityTest, EmptyAndTrivialHistoriesPass) {
  EXPECT_TRUE(checkLinearizability(std::vector<ClientOp>{}).Ok);
  std::vector<ClientOp> H = {
      op(OpKind::Put, 1, 7, 10, 20, Outcome::Ok),
      op(OpKind::Get, 1, 0, 30, 40, Outcome::Ok, 7u),
  };
  EXPECT_TRUE(checkLinearizability(H).Ok);
}

TEST(LinearizabilityTest, SequentialStaleReadFails) {
  // put(1)=5 completes, then put(1)=6 completes, then a read returns 5:
  // no linearization order explains it.
  std::vector<ClientOp> H = {
      op(OpKind::Put, 1, 5, 10, 20, Outcome::Ok),
      op(OpKind::Put, 1, 6, 30, 40, Outcome::Ok),
      op(OpKind::Get, 1, 0, 50, 60, Outcome::Ok, 5u),
  };
  LinearizabilityResult R = checkLinearizability(H);
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.BudgetExceeded);
  EXPECT_NE(R.Explanation.find("key 1"), std::string::npos);
}

TEST(LinearizabilityTest, ConcurrentReadsMayDisagreeOnOrder) {
  // Two concurrent puts; one read sees the first value *after* a read
  // saw the second — fine, as long as both reads are concurrent with
  // nothing forcing the opposite order... here reads are sequential, so
  // only one assignment works: put6 linearizes first, then put5.
  std::vector<ClientOp> H = {
      op(OpKind::Put, 1, 5, 10, 100, Outcome::Ok),
      op(OpKind::Put, 1, 6, 10, 100, Outcome::Ok),
      op(OpKind::Get, 1, 0, 110, 120, Outcome::Ok, 5u),
  };
  EXPECT_TRUE(checkLinearizability(H).Ok);
}

TEST(LinearizabilityTest, RealTimeOrderIsEnforced) {
  // A read that returned before a put was invoked cannot see its value.
  std::vector<ClientOp> H = {
      op(OpKind::Get, 1, 0, 10, 20, Outcome::Ok, 9u),
      op(OpKind::Put, 1, 9, 30, 40, Outcome::Ok),
  };
  EXPECT_FALSE(checkLinearizability(H).Ok);
}

TEST(LinearizabilityTest, IndeterminateWriteMayTakeEffect) {
  // The timed-out put(1)=3 is allowed to have happened: a later read
  // seeing 3 is legal.
  std::vector<ClientOp> H = {
      op(OpKind::Put, 1, 3, 10, 500, Outcome::Indeterminate),
      op(OpKind::Get, 1, 0, 600, 700, Outcome::Ok, 3u),
  };
  EXPECT_TRUE(checkLinearizability(H).Ok);
}

TEST(LinearizabilityTest, IndeterminateWriteMayNeverHappen) {
  std::vector<ClientOp> H = {
      op(OpKind::Put, 1, 3, 10, 500, Outcome::Indeterminate),
      op(OpKind::Get, 1, 0, 600, 700, Outcome::Ok, std::nullopt),
  };
  EXPECT_TRUE(checkLinearizability(H).Ok);
}

TEST(LinearizabilityTest, IndeterminateEffectCannotPrecedeInvocation) {
  // The read completes before the indeterminate put is even invoked, so
  // the put cannot explain the observed value.
  std::vector<ClientOp> H = {
      op(OpKind::Get, 1, 0, 10, 20, Outcome::Ok, 3u),
      op(OpKind::Put, 1, 3, 30, 500, Outcome::Indeterminate),
  };
  EXPECT_FALSE(checkLinearizability(H).Ok);
}

TEST(LinearizabilityTest, DeleteMakesKeyAbsent) {
  std::vector<ClientOp> H = {
      op(OpKind::Put, 1, 5, 10, 20, Outcome::Ok),
      op(OpKind::Del, 1, 0, 30, 40, Outcome::Ok),
      op(OpKind::Get, 1, 0, 50, 60, Outcome::Ok, std::nullopt),
  };
  EXPECT_TRUE(checkLinearizability(H).Ok);
  H.push_back(op(OpKind::Get, 1, 0, 70, 80, Outcome::Ok, 5u));
  EXPECT_FALSE(checkLinearizability(H).Ok);
}

TEST(LinearizabilityTest, KeysAreIndependent) {
  // A violation on key 2 is found even when key 1 is clean.
  std::vector<ClientOp> H = {
      op(OpKind::Put, 1, 5, 10, 20, Outcome::Ok),
      op(OpKind::Get, 1, 0, 30, 40, Outcome::Ok, 5u),
      op(OpKind::Put, 2, 7, 10, 20, Outcome::Ok),
      op(OpKind::Get, 2, 0, 30, 40, Outcome::Ok, 8u),
  };
  LinearizabilityResult R = checkLinearizability(H);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Explanation.find("key 2"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// New network-fault knobs
//===----------------------------------------------------------------------===//

namespace {

struct TestCluster {
  std::unique_ptr<ReconfigScheme> Scheme;
  std::unique_ptr<sim::Cluster> C;

  explicit TestCluster(size_t Members, size_t Spares = 0,
                       uint64_t Seed = 42, sim::ClusterOptions Opts = {}) {
    Scheme = makeScheme(SchemeKind::RaftSingleNode);
    Config Initial(NodeSet::range(1, Members));
    NodeSet Universe = NodeSet::range(1, Members + Spares);
    C = std::make_unique<sim::Cluster>(*Scheme, Initial, Universe, Opts,
                                       Seed);
    C->start();
  }

  sim::Cluster &operator*() { return *C; }
  sim::Cluster *operator->() { return C.get(); }
};

} // namespace

TEST(ChaosLinkTest, DuplicationIsCountedAndHarmless) {
  sim::ClusterOptions Opts;
  Opts.Link.DupPermille = 300;
  TestCluster TC(3, 0, 7, Opts);
  ASSERT_TRUE(TC->runUntilLeader(2000000).has_value());
  bool Done = false;
  TC->submit(42, [&](bool Ok, SimTime) { Done = Ok; });
  SimTime Deadline = TC->queue().now() + 5000000;
  while (!Done && TC->queue().now() < Deadline && TC->queue().runNext())
    ;
  EXPECT_TRUE(Done);
  EXPECT_GT(TC->messagesDuplicated(), 0u);
  EXPECT_FALSE(TC->checkCommittedAgreement().has_value());
}

TEST(ChaosLinkTest, DirectionalCutIsAsymmetric) {
  TestCluster TC(3);
  auto Leader = TC->runUntilLeader(2000000);
  ASSERT_TRUE(Leader.has_value());
  // Cut the leader's outbound link to one follower: its heartbeats on
  // that path die while the reverse direction keeps flowing.
  NodeId Follower = *Leader == 1 ? 2 : 1;
  TC->cutLink(*Leader, Follower);
  EXPECT_TRUE(TC->isLinkCut(*Leader, Follower));
  EXPECT_FALSE(TC->isLinkCut(Follower, *Leader));
  EXPECT_EQ(TC->activeCuts(), 1u);
  size_t Before = TC->messagesDroppedByCut();
  TC->queue().runUntil(TC->queue().now() + 1000000);
  // A second of heartbeats crossed the cut and was dropped.
  EXPECT_GT(TC->messagesDroppedByCut(), Before);
  TC->healAllLinks();
  EXPECT_EQ(TC->activeCuts(), 0u);
}

TEST(ChaosLinkTest, DropBreakdownSplitsCutFromLoss) {
  sim::ClusterOptions Opts;
  Opts.Link.DropPermille = 100;
  TestCluster TC(3, 0, 11, Opts);
  auto Leader = TC->runUntilLeader(3000000);
  ASSERT_TRUE(Leader.has_value());
  TC->cutLink(*Leader, *Leader == 1 ? 2 : 1);
  TC->queue().runUntil(TC->queue().now() + 1000000);
  EXPECT_GT(TC->messagesDroppedByLoss(), 0u);
  EXPECT_GT(TC->messagesDroppedByCut(), 0u);
  EXPECT_EQ(TC->messagesDropped(),
            TC->messagesDroppedByCut() + TC->messagesDroppedByLoss());
}

//===----------------------------------------------------------------------===//
// KV history recording + exactly-once semantics
//===----------------------------------------------------------------------===//

TEST(ChaosHistoryTest, FaultFreeRunRecordsOkHistory) {
  TestCluster TC(3);
  kv::ReplicatedKvStore Store(*TC);
  History H;
  Store.setObserver(&H);
  ASSERT_TRUE(TC->runUntilLeader(2000000).has_value());

  bool PutDone = false;
  Store.put(1, 10, [&](bool Ok, SimTime) { PutDone = Ok; });
  SimTime Deadline = TC->queue().now() + 5000000;
  while (!PutDone && TC->queue().now() < Deadline && TC->queue().runNext())
    ;
  ASSERT_TRUE(PutDone);

  std::optional<uint32_t> Read;
  bool GetDone = false;
  Store.get(1, [&](bool Ok, std::optional<uint32_t> V, SimTime) {
    GetDone = Ok;
    Read = V;
  });
  Deadline = TC->queue().now() + 5000000;
  while (!GetDone && TC->queue().now() < Deadline && TC->queue().runNext())
    ;
  ASSERT_TRUE(GetDone);
  EXPECT_EQ(Read, std::optional<uint32_t>(10));

  H.finalize(TC->queue().now());
  ASSERT_EQ(H.size(), 2u);
  EXPECT_EQ(H.countWithOutcome(Outcome::Ok), 2u);
  EXPECT_EQ(H.ops()[1].ReadValue, std::optional<uint32_t>(10));
  EXPECT_TRUE(checkLinearizability(H).Ok);
}

//===----------------------------------------------------------------------===//
// Mutation tests: the checker must reject corrupted histories
//===----------------------------------------------------------------------===//

TEST(ChaosMutationTest, InjectedStaleReadIsReported) {
  // Run a clean history, then append a read that bypassed the read
  // protocol: it reports a value the register had already left. The
  // checker must flag it.
  TestCluster TC(3);
  kv::ReplicatedKvStore Store(*TC);
  History H;
  Store.setObserver(&H);
  ASSERT_TRUE(TC->runUntilLeader(2000000).has_value());

  for (uint32_t V : {10u, 20u}) {
    bool Done = false;
    Store.put(5, V, [&](bool Ok, SimTime) { Done = Ok; });
    SimTime Deadline = TC->queue().now() + 5000000;
    while (!Done && TC->queue().now() < Deadline && TC->queue().runNext())
      ;
    ASSERT_TRUE(Done);
  }
  H.finalize(TC->queue().now());
  EXPECT_TRUE(checkLinearizability(H).Ok);

  // The forged stale read: unconfirmed, observes the overwritten 10
  // strictly after put(5)=20 returned.
  ClientOp Stale = op(OpKind::Get, 5, 0, TC->queue().now() + 10,
                      TC->queue().now() + 20, Outcome::Ok, 10u);
  H.inject(Stale);
  LinearizabilityResult R = checkLinearizability(H);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Explanation.find("key 5"), std::string::npos);
}

TEST(ChaosMutationTest, ForgedReorderingIsReported) {
  // Record a clean sequential history, then forge a reordering: swap the
  // real-time intervals of two sequential puts so the observed read now
  // contradicts the (forged) order.
  TestCluster TC(3);
  kv::ReplicatedKvStore Store(*TC);
  History H;
  Store.setObserver(&H);
  ASSERT_TRUE(TC->runUntilLeader(2000000).has_value());

  auto RunOp = [&](std::function<void(std::function<void(bool)>)> Go) {
    bool Done = false;
    Go([&](bool Ok) { Done = Ok; });
    SimTime Deadline = TC->queue().now() + 5000000;
    while (!Done && TC->queue().now() < Deadline && TC->queue().runNext())
      ;
    ASSERT_TRUE(Done);
  };
  RunOp([&](std::function<void(bool)> Done) {
    Store.put(9, 1, [Done](bool Ok, SimTime) { Done(Ok); });
  });
  RunOp([&](std::function<void(bool)> Done) {
    Store.put(9, 2, [Done](bool Ok, SimTime) { Done(Ok); });
  });
  std::optional<uint32_t> Read;
  RunOp([&](std::function<void(bool)> Done) {
    Store.get(9, [&Read, Done](bool Ok, std::optional<uint32_t> V,
                               SimTime) {
      Read = V;
      Done(Ok);
    });
  });
  ASSERT_EQ(Read, std::optional<uint32_t>(2));
  H.finalize(TC->queue().now());
  ASSERT_TRUE(checkLinearizability(H).Ok);

  // Forge: swap the two puts' intervals (timestamps and the recorder's
  // logical order). The history now claims put=2 finished before put=1
  // began, so the read of 2 is unexplainable.
  std::vector<ClientOp> Forged(H.ops());
  ASSERT_EQ(Forged.size(), 3u);
  std::swap(Forged[0].InvokedAt, Forged[1].InvokedAt);
  std::swap(Forged[0].ReturnedAt, Forged[1].ReturnedAt);
  std::swap(Forged[0].InvSeq, Forged[1].InvSeq);
  std::swap(Forged[0].RetSeq, Forged[1].RetSeq);
  EXPECT_FALSE(checkLinearizability(Forged).Ok);
}

//===----------------------------------------------------------------------===//
// End-to-end chaos runs
//===----------------------------------------------------------------------===//

TEST(ChaosRunTest, EveryScenarioPassesOnSampleSeeds) {
  for (Scenario S : allScenarios()) {
    ChaosRunOptions Opts;
    Opts.Nemesis.Kind = S;
    Opts.Workload.NumOps = 40;
    for (uint64_t Seed : {1u, 2u}) {
      ChaosRunResult R = runChaosScenario(Opts, Seed);
      EXPECT_TRUE(R.passed())
          << R.summary() << "\nviolations:\n"
          << [&] {
               std::string All;
               for (const std::string &V : R.Violations)
                 All += "  " + V + "\n";
               return All;
             }()
          << "nemesis trace:\n"
          << R.NemesisTrace;
      EXPECT_TRUE(R.HealedAll);
      EXPECT_GT(R.OpsTotal, 0u);
    }
  }
}

TEST(ChaosRunTest, MixedScenarioExercisesFaults) {
  ChaosRunOptions Opts;
  Opts.Nemesis.Kind = Scenario::Mixed;
  ChaosRunResult R = runChaosScenario(Opts, 3);
  EXPECT_TRUE(R.passed()) << R.summary();
  // The nemesis did *something* beyond bookkeeping.
  EXPECT_GT(R.NemesisActions, 2u);
}

TEST(ChaosRunTest, JsonReportIsWellFormedEnough) {
  ChaosRunOptions Opts;
  Opts.Workload.NumOps = 10;
  ChaosRunResult R = runChaosScenario(Opts, 4);
  JsonWriter W;
  W.beginObject();
  W.key("run");
  R.addToJson(W);
  W.endObject();
  const std::string &S = W.str();
  EXPECT_NE(S.find("\"seed\":4"), std::string::npos);
  EXPECT_NE(S.find("\"scenario\":\"mixed\""), std::string::npos);
  EXPECT_NE(S.find("\"violations\":["), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Self-healing: kill-forever end to end
//===----------------------------------------------------------------------===//

TEST(SelfHealingTest, KillForeverHealsToFullReplication) {
  // Victims never restart, so passing these runs requires the whole
  // pipeline: suspicion detects the corpse, the healer ejects it and
  // swaps a spare in via certified reconfigs, and the spare catches up
  // (by snapshot when far enough behind). The runner's own invariant
  // already fails any run that does not return to full replication; on
  // top of that, assert the metrics show the pipeline actually ran.
  size_t RunsWithKills = 0;
  size_t RunsWithSnapshots = 0;
  for (uint64_t Seed = 500; Seed != 516; ++Seed) {
    ChaosRunOptions Opts;
    Opts.Nemesis.Kind = Scenario::KillForever;
    ChaosRunResult R = runChaosScenario(Opts, Seed);
    EXPECT_TRUE(R.passed())
        << R.summary() << "\nviolations:\n"
        << [&] {
             std::string All;
             for (const std::string &V : R.Violations)
               All += "  " + V + "\n";
             return All;
           }()
        << "nemesis trace:\n"
        << R.NemesisTrace;
    EXPECT_TRUE(R.Healing);
    if (R.PermanentKills != 0) {
      ++RunsWithKills;
      EXPECT_GT(R.TimeToDetectUs, 0u) << R.summary();
      EXPECT_GT(R.TimeToFullReplicationUs, 0u) << R.summary();
      EXPECT_GE(R.HealReconfigsCommitted, 2 * R.PermanentKills)
          << "each kill needs an eject and a grow-back: " << R.summary();
    }
    if (R.SnapshotsInstalled != 0) {
      ++RunsWithSnapshots;
      EXPECT_GT(R.SnapshotBytesTransferred, 0u);
    }
  }
  // The nemesis draws moves randomly, but killing is its only move: the
  // overwhelming majority of seeds must actually kill, and at least one
  // replacement across the sweep must have caught up via InstallSnapshot.
  EXPECT_GE(RunsWithKills, 12u);
  EXPECT_GE(RunsWithSnapshots, 1u);
}

TEST(SelfHealingTest, KillForeverIsSeedDeterministic) {
  ChaosRunOptions Opts;
  Opts.Nemesis.Kind = Scenario::KillForever;
  ChaosRunResult A = runChaosScenario(Opts, 91);
  ChaosRunResult B = runChaosScenario(Opts, 91);
  EXPECT_EQ(A.NemesisTrace, B.NemesisTrace);
  EXPECT_EQ(A.HistoryText, B.HistoryText);
  EXPECT_EQ(A.HealReconfigsCommitted, B.HealReconfigsCommitted);
  EXPECT_EQ(A.TimeToFullReplicationUs, B.TimeToFullReplicationUs);
  EXPECT_EQ(A.SnapshotBytesTransferred, B.SnapshotBytesTransferred);
}

TEST(SelfHealingTest, HealingMetricsAppearOnlyForKillForever) {
  ChaosRunOptions Opts;
  Opts.Workload.NumOps = 10;
  ChaosRunResult Legacy = runChaosScenario(Opts, 5);
  JsonWriter WL;
  Legacy.addToJson(WL);
  EXPECT_EQ(WL.str().find("\"healing\""), std::string::npos)
      << "legacy scenarios must keep their JSON layout byte-identical";

  Opts.Nemesis.Kind = Scenario::KillForever;
  ChaosRunResult Healed = runChaosScenario(Opts, 5);
  JsonWriter WH;
  Healed.addToJson(WH);
  EXPECT_NE(WH.str().find("\"healing\""), std::string::npos);
  EXPECT_NE(WH.str().find("\"time_to_full_replication_us\""),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Read path: the clock-drift scenario and the lease-expiry mutation
//===----------------------------------------------------------------------===//

TEST(ReadChaosTest, ClockDriftScenarioReadsThroughTheTiers) {
  // The lease scenario: skews wander, crashes and reconfigs churn, and
  // the workload's gets flow through the lease read path (alternating
  // follower targeting) into the Wing & Gong checker. The run must
  // pass, and the read-path statistics must show both serving modes
  // were exercised.
  ChaosRunOptions Opts;
  Opts.Nemesis.Kind = Scenario::ClockDrift;
  ChaosRunResult R = runChaosScenario(Opts, 11);
  EXPECT_TRUE(R.passed()) << R.summary() << "\nviolations:\n" << [&] {
    std::string All;
    for (const std::string &V : R.Violations)
      All += "  " + V + "\n";
    return All;
  }();
  EXPECT_GT(R.ReadsIssued, 0u);
  EXPECT_GT(R.ReadsOk, 0u);
  EXPECT_GT(R.ReadsAtFollower, 0u);
  EXPECT_NE(R.NemesisTrace.find("clock-skew"), std::string::npos);

  JsonWriter W;
  R.addToJson(W);
  EXPECT_NE(W.str().find("\"read_path\""), std::string::npos);
}

TEST(ReadChaosTest, PartitionsRunCountsReads) {
  // Every scenario's gets go through the read path, not only
  // clock-drift's: a partitions run counts its reads, serves some at a
  // follower, and reports them.
  ChaosRunOptions Opts;
  Opts.Nemesis.Kind = Scenario::Partitions;
  ChaosRunResult R = runChaosScenario(Opts, 5);
  EXPECT_TRUE(R.passed()) << R.summary();
  EXPECT_GT(R.ReadsIssued, 0u);
  EXPECT_GT(R.ReadsOk, 0u);
  EXPECT_GT(R.ReadsAtFollower, 0u);
  EXPECT_EQ(R.ReadsOk + R.ReadsFailed, R.ReadsIssued);

  JsonWriter W;
  R.addToJson(W);
  EXPECT_NE(W.str().find("\"read_path\""), std::string::npos);
}

TEST(ReadChaosTest, LeaseExpiryMutationIsCaughtByTheChecker) {
  // The protocol-level mutation test: TestIgnoreLeaseExpiry makes a
  // leader keep serving lease reads after its lease lapsed. Partition
  // that leader, commit a newer value through its successor, then read
  // at the deposed leader — the hook serves the overwritten value, and
  // feeding that read into the linearizability checker must fail the
  // history. This proves the checker (not luck) guards the lease math.
  sim::ClusterOptions Opts;
  Opts.Node.LeaseDurationUs = 100000;
  Opts.Node.TestIgnoreLeaseExpiry = true;
  TestCluster TC(3, 0, /*Seed=*/9, Opts);
  kv::ReplicatedKvStore Store(*TC);
  History H;
  Store.setObserver(&H);
  std::optional<NodeId> L0 = TC->runUntilLeader(2000000);
  ASSERT_TRUE(L0.has_value());
  NodeId Stale = *L0;

  bool Put1 = false;
  Store.put(5, 10, [&](bool Ok, SimTime) { Put1 = Ok; });
  SimTime Deadline = TC->queue().now() + 5000000;
  while (!Put1 && TC->queue().now() < Deadline && TC->queue().runNext())
    ;
  ASSERT_TRUE(Put1);

  // Give the heartbeat-driven lease renewal a beat to grant, then strand
  // the lease holder: it keeps its role and (thanks to the hook) its
  // lease, while the majority moves on.
  SimTime Settle = TC->queue().now() + 200000;
  while (TC->queue().now() < Settle && TC->queue().runNext())
    ;
  TC->partition(NodeSet{Stale});
  Deadline = TC->queue().now() + 10000000;
  while (TC->queue().now() < Deadline && TC->queue().runNext()) {
    std::optional<NodeId> L = TC->leader();
    if (L && *L != Stale)
      break;
  }
  std::optional<NodeId> L2 = TC->leader();
  ASSERT_TRUE(L2.has_value());
  ASSERT_NE(*L2, Stale);

  bool Put2 = false;
  Store.put(5, 20, [&](bool Ok, SimTime) { Put2 = Ok; });
  Deadline = TC->queue().now() + 20000000;
  while (!Put2 && TC->queue().now() < Deadline && TC->queue().runNext())
    ;
  ASSERT_TRUE(Put2);

  // Read at the deposed leader. With the mutation hook it must answer
  // from its dead lease (a probe round could never complete across the
  // partition), serving the overwritten value.
  bool ReadOk = false;
  bool ReadSeen = false;
  TC->node(Stale).hooks().OnRead = [&](NodeId, uint64_t Id, bool Ok,
                                       size_t) {
    if (Id == 777) {
      ReadSeen = true;
      ReadOk = Ok;
    }
  };
  SimTime InvokedAt = TC->queue().now();
  TC->node(Stale).read(777);
  Deadline = TC->queue().now() + 1000000;
  while (!ReadSeen && TC->queue().now() < Deadline && TC->queue().runNext())
    ;
  ASSERT_TRUE(ReadSeen);
  ASSERT_TRUE(ReadOk) << "the mutation hook should have served the read "
                         "from the expired lease";
  std::optional<uint32_t> Served = Store.replica(Stale).get(5);
  ASSERT_EQ(Served, std::optional<uint32_t>(10))
      << "the deposed leader should still hold the overwritten value";

  // The observed stale read, as the client would have recorded it.
  H.finalize(TC->queue().now() + 100);
  ClientOp StaleRead = op(OpKind::Get, 5, 0, InvokedAt, InvokedAt + 50,
                          Outcome::Ok, Served);
  H.inject(StaleRead);
  LinearizabilityResult R = checkLinearizability(H);
  EXPECT_FALSE(R.Ok) << "the checker must flag a lease read served past "
                        "expiry";
  EXPECT_NE(R.Explanation.find("key 5"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Metadata-group recovery: leader killed mid-proposeMap on faulted disks
//===----------------------------------------------------------------------===//

TEST(MetaGroupRecoveryTest, LeaderKilledMidProposeMapWithDiskFaults) {
  // Composes the two nemeses that never meet in the scenario matrix:
  // the metadata group's leader dies (power cut on a fault-injecting
  // disk — torn writes, garbage tails) while a pool-map proposal is in
  // flight. Whatever side of the commit the crash lands on, the
  // generation-CAS invariants must hold across WAL recovery: committed
  // generation strictly monotone, exactly one installed change per
  // generation step, and a lost proposal reported false — never
  // half-installed.
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  for (uint64_t Seed = 300; Seed != 308; ++Seed) {
    sim::ShardedClusterOptions SCO;
    SCO.Groups = 2;
    SCO.NumShards = 8;
    SCO.Members = 3;
    SCO.Spares = 1;
    SCO.Group.DurableStore = true;
    SCO.Group.StoreFaults = ChaosRunOptions::defaultStoreFaults();
    sim::ShardedCluster Pool(*Scheme, SCO, Seed);
    Pool.start();
    ASSERT_TRUE(Pool.runUntilAllLeaders(10000000));

    auto RunFor = [&](SimTime Us) {
      SimTime Deadline = Pool.queue().now() + Us;
      while (Pool.queue().now() < Deadline && Pool.queue().runNext())
        ;
    };

    // A generation-2 successor moving one of group 1's shards to 2.
    shard::PoolMap Next = Pool.committedMap();
    Next.Generation += 1;
    for (shard::GroupId &G : Next.ShardToGroup)
      if (G == 1) {
        G = 2;
        break;
      }
    std::optional<bool> First;
    Pool.proposeMap(Next, [&](bool Ok) { First = Ok; }, 3000000);
    // Kill the meta leader before the proposal's first event runs, so
    // the ticket is genuinely mid-flight when power dies.
    std::optional<NodeId> MetaLeader = Pool.meta().leader();
    ASSERT_TRUE(MetaLeader.has_value());
    Pool.meta().crash(*MetaLeader);
    RunFor(500000);
    Pool.meta().restart(*MetaLeader);
    SimTime Deadline = Pool.queue().now() + 5000000;
    while (!First.has_value() && Pool.queue().now() < Deadline &&
           Pool.queue().runNext())
      ;

    // CAS invariants, however the race fell.
    EXPECT_TRUE(Pool.mapViolations().empty())
        << "seed " << Seed << ": " << Pool.mapViolations().front();
    uint64_t Gen = Pool.committedMap().Generation;
    EXPECT_EQ(Gen, 1 + Pool.mapChangesCommitted()) << "seed " << Seed;
    ASSERT_TRUE(First.has_value()) << "seed " << Seed;
    if (*First) {
      EXPECT_EQ(Gen, 2u) << "seed " << Seed;
    }

    // The recovered meta group must still arbitrate a CAS duel: two
    // proposals for the same successor generation — exactly one
    // installs, the loser reports false.
    shard::PoolMap Cur = Pool.committedMap();
    shard::PoolMap A = Cur, B = Cur;
    A.Generation += 1;
    B.Generation += 1;
    for (shard::GroupId &G : B.ShardToGroup)
      if (G == 2) {
        G = 1;
        break;
      }
    std::optional<bool> OkA, OkB;
    Pool.proposeMap(A, [&](bool Ok) { OkA = Ok; }, 3000000);
    Pool.proposeMap(B, [&](bool Ok) { OkB = Ok; }, 3000000);
    Deadline = Pool.queue().now() + 8000000;
    while (!(OkA.has_value() && OkB.has_value()) &&
           Pool.queue().now() < Deadline && Pool.queue().runNext())
      ;
    ASSERT_TRUE(OkA.has_value() && OkB.has_value()) << "seed " << Seed;
    EXPECT_NE(*OkA, *OkB) << "seed " << Seed
                          << ": generation CAS must pick exactly one";
    EXPECT_EQ(Pool.committedMap().Generation, Cur.Generation + 1)
        << "seed " << Seed;
    EXPECT_EQ(Pool.committedMap().Generation,
              1 + Pool.mapChangesCommitted())
        << "seed " << Seed;
    EXPECT_TRUE(Pool.mapViolations().empty()) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Crash during reconfiguration (Fig. 4-shaped, executable layer)
//===----------------------------------------------------------------------===//

TEST(ChaosRunTest, CrashDuringReconfigLosesNothing) {
  // The scripted scenario: a membership change is requested, the leader
  // crashes 60ms later, a spare may have been admitted mid-change. The
  // runner's invariants prove no committed entry was lost and replicas
  // reconverged; the history check proves clients never observed an
  // inconsistency. Sweep a few seeds so the crash lands at different
  // points relative to the reconfig commit.
  for (uint64_t Seed = 100; Seed != 108; ++Seed) {
    ChaosRunOptions Opts;
    Opts.Nemesis.Kind = Scenario::CrashMidReconfig;
    ChaosRunResult R = runChaosScenario(Opts, Seed);
    EXPECT_TRUE(R.passed())
        << R.summary() << "\ntrace:\n"
        << R.NemesisTrace;
    EXPECT_GT(R.CommittedEntries, 0u);
  }
}

//===----------------------------------------------------------------------===//
// The rt driver on the bus
//===----------------------------------------------------------------------===//

namespace {

/// Runs one short rt scenario on the in-process bus and requires a clean
/// run that committed at least one reconfiguration.
void expectRtScenarioPasses(Scenario Kind, size_t Groups) {
  RtRunOptions Opts;
  Opts.Kind = Kind;
  Opts.Groups = Groups;
  Opts.NumOps = 6;
  ChaosRunResult R = runRtScenario(Opts, 1);
  std::string Why = R.summary();
  for (const std::string &V : R.Violations)
    Why += "\n  " + V;
  EXPECT_TRUE(R.passed()) << Why;
  EXPECT_GT(R.ReconfigsCommitted, 0u) << Why;
  EXPECT_EQ(R.GroupStats.size(), Groups > 1 || Kind == Scenario::ShardReconfig
                                     ? Groups + 1
                                     : 0u);
}

} // namespace

TEST(RtChaosTest, MixedSingleGroup) {
  expectRtScenarioPasses(Scenario::Mixed, 1);
}

TEST(RtChaosTest, ShardReconfigTwoGroups) {
  expectRtScenarioPasses(Scenario::ShardReconfig, 2);
}

TEST(RtChaosTest, KillForeverTwoGroups) {
  expectRtScenarioPasses(Scenario::KillForever, 2);
}

//===----------------------------------------------------------------------===//
// Seed determinism
//===----------------------------------------------------------------------===//

TEST(ChaosDeterminismTest, SameSeedSameRun) {
  // Byte-identical nemesis trace and client history across reruns of the
  // same (seed, scenario) — the property that makes a failing seed a
  // complete bug report.
  for (Scenario S : {Scenario::Mixed, Scenario::CrashMidReconfig}) {
    ChaosRunOptions Opts;
    Opts.Nemesis.Kind = S;
    Opts.Workload.NumOps = 30;
    ChaosRunResult A = runChaosScenario(Opts, 77);
    ChaosRunResult B = runChaosScenario(Opts, 77);
    EXPECT_EQ(A.NemesisTrace, B.NemesisTrace);
    EXPECT_EQ(A.HistoryText, B.HistoryText);
    EXPECT_EQ(A.CommittedEntries, B.CommittedEntries);
    EXPECT_EQ(A.Violations, B.Violations);
    ChaosRunResult D = runChaosScenario(Opts, 78);
    EXPECT_NE(A.HistoryText, D.HistoryText);
  }
}

TEST(ChaosDeterminismTest, ShardedRunsAreSeedDeterministic) {
  // The sharded harness interleaves N+1 consensus groups on one virtual
  // timeline plus a migration driver; all of it must still be a pure
  // function of (options, seed), byte for byte.
  for (Scenario S : {Scenario::Mixed, Scenario::ShardReconfig}) {
    ChaosRunOptions Opts;
    Opts.Groups = 4;
    Opts.Nemesis.Kind = S;
    Opts.Workload.NumOps = 30;
    ChaosRunResult A = runChaosScenario(Opts, 77);
    ChaosRunResult B = runChaosScenario(Opts, 77);
    EXPECT_EQ(A.NemesisTrace, B.NemesisTrace);
    EXPECT_EQ(A.HistoryText, B.HistoryText);
    EXPECT_EQ(A.CommittedEntries, B.CommittedEntries);
    EXPECT_EQ(A.MapGeneration, B.MapGeneration);
    EXPECT_EQ(A.Violations, B.Violations);
    ChaosRunResult D = runChaosScenario(Opts, 78);
    EXPECT_NE(A.HistoryText, D.HistoryText);
  }
}

TEST(ChaosDeterminismTest, ShardedRunsIndependentOfMcThreadSetting) {
  ChaosRunOptions Opts;
  Opts.Groups = 4;
  Opts.Nemesis.Kind = Scenario::ShardReconfig;
  Opts.Workload.NumOps = 30;
  ASSERT_EQ(setenv("ADORE_MC_THREADS", "1", /*overwrite=*/1), 0);
  ChaosRunResult A = runChaosScenario(Opts, 5);
  ASSERT_EQ(setenv("ADORE_MC_THREADS", "4", /*overwrite=*/1), 0);
  ChaosRunResult B = runChaosScenario(Opts, 5);
  unsetenv("ADORE_MC_THREADS");
  EXPECT_EQ(A.NemesisTrace, B.NemesisTrace);
  EXPECT_EQ(A.HistoryText, B.HistoryText);
  EXPECT_EQ(A.Violations, B.Violations);
}

TEST(ChaosDeterminismTest, SingleGroupRunsMatchPreShardingBaseline) {
  // Differential regression for the sharding refactor: with the default
  // Groups=1 the run must take the original code path and reproduce the
  // exact bytes it produced before the shard layer existed. The hashes
  // below were captured on the pre-refactor tree (FNV-1a of the nemesis
  // trace and history text); a mismatch means the refactor perturbed
  // the legacy path — seed streams, scheduling order, or history
  // formatting — which it must not. The DiskFaults, KillForever and
  // ClockDrift rows were captured before the hosts moved onto
  // core/Host.h; they pin the persist pre-pass and store recovery, the
  // suspicion observers, and the read observers. The table was re-pinned
  // once when acks stopped re-sending entries already in flight: fewer
  // messages shift commit times, so every history but Reconfigs seed
  // 77's moved, and the Mixed seed 77 nemesis trace with them. It was
  // re-pinned a second time, for two causes at once. Every get now goes
  // through the core's read protocol instead of committing a no-op
  // barrier, which moves every history. And a read attempt's client
  // timeout no longer re-issues an attempt that a NACK already retried,
  // which by itself moves both ClockDrift rows, the seed 1234 nemesis
  // trace included. It was re-pinned a third time when a commit advance
  // stopped sending frames: followers learn commits from the next
  // frame, so follower applies, follower reads and the messages per op
  // all shift in time. Every history moved, and the Mixed seed 77
  // nemesis trace, whose faults key off cluster state, with them. It
  // was re-pinned a fourth time when a deposed leader stopped naming
  // itself as leader: clients it rejected used to retry it until the
  // real leader's frame arrived, so both Mixed histories moved; the
  // nemesis traces did not.
  struct Golden {
    Scenario Kind;
    uint64_t Seed;
    uint64_t NemesisHash;
    uint64_t HistoryHash;
  };
  const Golden Goldens[] = {
      {Scenario::Mixed, 77, 0xdee402425228a1a5ULL, 0xe6fcaa19cd1635afULL},
      {Scenario::Mixed, 1234, 0x0f28884619cf79d3ULL, 0x413caedac94721b3ULL},
      {Scenario::Reconfigs, 77, 0x26b59234d37c8d9bULL, 0x2c4b51effe3484ebULL},
      {Scenario::Reconfigs, 1234, 0x6cb721c5919bd1baULL, 0x0dd455ebab7fcefcULL},
      {Scenario::CrashMidReconfig, 77, 0xd05b6e93a92e5bdbULL,
       0x695da605ebe366cbULL},
      {Scenario::CrashMidReconfig, 1234, 0x88787faa7b3308ebULL,
       0xaeafb8f5a24d75c6ULL},
      {Scenario::DiskFaults, 77, 0x1b3d7e8f6a37bd28ULL, 0x97556cccb2e2f25fULL},
      {Scenario::DiskFaults, 1234, 0xa43412da2d331412ULL,
       0x8041c7ffaa66dbd0ULL},
      {Scenario::KillForever, 77, 0x2d98561b2badd8b4ULL, 0xdfba63a6007f9e48ULL},
      {Scenario::KillForever, 1234, 0x6c794a6c83220baaULL,
       0x3705cdd35512646eULL},
      {Scenario::ClockDrift, 77, 0xb96701f435fef46cULL, 0x048790536e03be40ULL},
      {Scenario::ClockDrift, 1234, 0x32bb89e9deabf61fULL,
       0x3a41e824ba103ff4ULL},
  };
  auto Fnv = [](const std::string &S) {
    Fnv1aHasher H;
    H.addString(S);
    return H.finish();
  };
  for (const Golden &G : Goldens) {
    ChaosRunOptions Opts;
    Opts.Nemesis.Kind = G.Kind;
    Opts.Workload.NumOps = 30;
    ChaosRunResult R = runChaosScenario(Opts, G.Seed);
    EXPECT_TRUE(R.passed()) << R.summary();
    EXPECT_TRUE(R.GroupStats.empty()) << "Groups=1 must take the legacy path";
    EXPECT_EQ(Fnv(R.NemesisTrace), G.NemesisHash)
        << scenarioName(G.Kind) << " seed " << G.Seed
        << ": nemesis trace drifted from the pre-sharding baseline";
    EXPECT_EQ(Fnv(R.HistoryText), G.HistoryHash)
        << scenarioName(G.Kind) << " seed " << G.Seed
        << ": history drifted from the pre-sharding baseline";
  }
}

TEST(ChaosDeterminismTest, ShardedRunsMatchBaseline) {
  // The sharded counterpart of the table above: a 4-group pool (meta
  // group plus data groups on one timeline) must keep producing the
  // exact bytes captured before the single-group and pool drivers were
  // merged into one group loop. Each scenario family the pool runs
  // differently is pinned: per-group nemeses (Mixed), the migration
  // driver (ShardReconfig), per-group healers with map re-sync
  // (KillForever) and store-backed groups (DiskFaults). The table was
  // re-pinned once when every get moved onto the core's read protocol:
  // a pool's gets start as follower reads instead of leader barriers,
  // which moves every history and the nemesis traces of Mixed seed 1234
  // and both ShardReconfig rows. It was re-pinned a second time when a
  // commit advance stopped sending frames, which shifts when followers
  // apply and so every history; the nemesis traces of Mixed seed 1234,
  // both ShardReconfig rows and KillForever seed 77 moved with them. A
  // third re-pin came when a deposed leader stopped naming itself as
  // leader, which moves both Mixed histories and no nemesis trace.
  struct Golden {
    Scenario Kind;
    uint64_t Seed;
    uint64_t NemesisHash;
    uint64_t HistoryHash;
  };
  const Golden Goldens[] = {
      {Scenario::Mixed, 77, 0xf8cf8f41980658ceULL, 0xb8fb877ca60ad45fULL},
      {Scenario::Mixed, 1234, 0xc812c5853bc2afe6ULL, 0x5d8a237118ec0c15ULL},
      {Scenario::ShardReconfig, 77, 0x9a0a3c8193bf6bb7ULL,
       0x5e253d1d16906e04ULL},
      {Scenario::ShardReconfig, 1234, 0xc68d1a58b9c46fcdULL,
       0x14a04f2ee7ad73ebULL},
      {Scenario::KillForever, 77, 0xdc13e284f2ffd38dULL, 0x9f2dfe0662c7deacULL},
      {Scenario::KillForever, 1234, 0x6455cde78357159bULL,
       0xc3e66ac99ae8c60dULL},
      {Scenario::DiskFaults, 77, 0x9ebbabf5d2bed240ULL, 0xa921a26c8e08678cULL},
      {Scenario::DiskFaults, 1234, 0x373f007ba9f666c1ULL,
       0xe649e345a84896b1ULL},
  };
  auto Fnv = [](const std::string &S) {
    Fnv1aHasher H;
    H.addString(S);
    return H.finish();
  };
  for (const Golden &G : Goldens) {
    ChaosRunOptions Opts;
    Opts.Groups = 4;
    Opts.Nemesis.Kind = G.Kind;
    Opts.Workload.NumOps = 30;
    ChaosRunResult R = runChaosScenario(Opts, G.Seed);
    EXPECT_TRUE(R.passed()) << R.summary();
    EXPECT_EQ(R.GroupStats.size(), 5u) << "meta group plus 4 data groups";
    EXPECT_EQ(Fnv(R.NemesisTrace), G.NemesisHash)
        << scenarioName(G.Kind) << " seed " << G.Seed
        << ": sharded nemesis trace drifted from the baseline";
    EXPECT_EQ(Fnv(R.HistoryText), G.HistoryHash)
        << scenarioName(G.Kind) << " seed " << G.Seed
        << ": sharded history drifted from the baseline";
  }
}

TEST(ChaosDeterminismTest, IndependentOfMcThreadSetting) {
  // The chaos layer must not key any behaviour off ADORE_MC_THREADS (the
  // model checker's parallelism knob). Run with the variable forced to
  // different values and require identical outcomes.
  ChaosRunOptions Opts;
  Opts.Workload.NumOps = 30;
  ASSERT_EQ(setenv("ADORE_MC_THREADS", "1", /*overwrite=*/1), 0);
  ChaosRunResult A = runChaosScenario(Opts, 5);
  ASSERT_EQ(setenv("ADORE_MC_THREADS", "4", /*overwrite=*/1), 0);
  ChaosRunResult B = runChaosScenario(Opts, 5);
  unsetenv("ADORE_MC_THREADS");
  EXPECT_EQ(A.NemesisTrace, B.NemesisTrace);
  EXPECT_EQ(A.HistoryText, B.HistoryText);
  EXPECT_EQ(A.Violations, B.Violations);
}
