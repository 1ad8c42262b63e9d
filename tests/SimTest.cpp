//===- tests/SimTest.cpp - Simulator and executable Raft tests ---------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the discrete-event core and the executable Raft cluster: leader
/// election under timers, client commit latency, crash/failover, message
/// loss, hot reconfiguration (grow and shrink), and determinism.
///
//===----------------------------------------------------------------------===//

#include "sim/Cluster.h"

#include <gtest/gtest.h>

using namespace adore;
using namespace adore::sim;

//===----------------------------------------------------------------------===//
// EventQueue
//===----------------------------------------------------------------------===//

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue Q;
  std::vector<int> Order;
  Q.scheduleAt(30, [&] { Order.push_back(3); });
  Q.scheduleAt(10, [&] { Order.push_back(1); });
  Q.scheduleAt(20, [&] { Order.push_back(2); });
  while (Q.runNext())
    ;
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(Q.now(), 30u);
}

TEST(EventQueueTest, FifoOnTies) {
  EventQueue Q;
  std::vector<int> Order;
  for (int I = 0; I != 5; ++I)
    Q.scheduleAt(7, [&Order, I] { Order.push_back(I); });
  while (Q.runNext())
    ;
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, HandlersCanScheduleMore) {
  EventQueue Q;
  int Count = 0;
  std::function<void()> Tick = [&] {
    if (++Count < 5)
      Q.scheduleAfter(10, Tick);
  };
  Q.scheduleAfter(10, Tick);
  while (Q.runNext())
    ;
  EXPECT_EQ(Count, 5);
  EXPECT_EQ(Q.now(), 50u);
}

TEST(EventQueueTest, RunUntilAdvancesClock) {
  EventQueue Q;
  bool Ran = false;
  Q.scheduleAt(100, [&] { Ran = true; });
  Q.runUntil(50);
  EXPECT_FALSE(Ran);
  EXPECT_EQ(Q.now(), 50u);
  Q.runUntil(150);
  EXPECT_TRUE(Ran);
  EXPECT_EQ(Q.now(), 150u);
}

//===----------------------------------------------------------------------===//
// Cluster basics
//===----------------------------------------------------------------------===//

namespace {

struct TestCluster {
  std::unique_ptr<ReconfigScheme> Scheme;
  std::unique_ptr<Cluster> C;

  explicit TestCluster(size_t Members, size_t Spares = 0,
                       uint64_t Seed = 42, ClusterOptions Opts = {}) {
    Scheme = makeScheme(SchemeKind::RaftSingleNode);
    Config Initial(NodeSet::range(1, Members));
    NodeSet Universe = NodeSet::range(1, Members + Spares);
    C = std::make_unique<Cluster>(*Scheme, Initial, Universe, Opts, Seed);
    C->start();
  }

  Cluster &operator*() { return *C; }
  Cluster *operator->() { return C.get(); }
};

/// Runs the cluster until \p Pred holds or \p MaxUs passes.
template <typename PredT>
bool runUntil(Cluster &C, SimTime MaxUs, PredT &&Pred) {
  SimTime Deadline = C.queue().now() + MaxUs;
  while (C.queue().now() < Deadline) {
    if (Pred())
      return true;
    if (!C.queue().runNext())
      return Pred();
  }
  return Pred();
}

} // namespace

TEST(ClusterTest, ElectsALeader) {
  TestCluster TC(3);
  auto Leader = TC->runUntilLeader(2000000);
  ASSERT_TRUE(Leader.has_value());
  EXPECT_TRUE(TC->node(*Leader).isLeader());
  // The no-op barrier commits shortly after.
  EXPECT_TRUE(runUntil(*TC, 2000000, [&] {
    return TC->node(*Leader).commitIndex() >= 1;
  }));
  EXPECT_FALSE(TC->checkCommittedAgreement().has_value());
}

TEST(ClusterTest, SingletonClusterSelfElects) {
  TestCluster TC(1);
  auto Leader = TC->runUntilLeader(2000000);
  ASSERT_TRUE(Leader.has_value());
  EXPECT_EQ(*Leader, 1u);
  EXPECT_GE(TC->node(1).commitIndex(), 1u);
}

TEST(ClusterTest, ClientCommandCommitsWithLatency) {
  TestCluster TC(3);
  ASSERT_TRUE(TC->runUntilLeader(2000000).has_value());
  bool Done = false;
  SimTime Latency = 0;
  TC->submit(1234, [&](bool Ok, SimTime L) {
    Done = Ok;
    Latency = L;
  });
  ASSERT_TRUE(runUntil(*TC, 5000000, [&] { return Done; }));
  // Sanity: at least two network hops, well under a second.
  EXPECT_GE(Latency, 600u);
  EXPECT_LT(Latency, 1000000u);
  EXPECT_FALSE(TC->checkCommittedAgreement().has_value());
}

TEST(ClusterTest, ManyCommandsAllCommit) {
  TestCluster TC(5);
  ASSERT_TRUE(TC->runUntilLeader(2000000).has_value());
  size_t Completed = 0;
  for (int I = 0; I != 50; ++I)
    TC->submit(100 + I, [&](bool Ok, SimTime) { Completed += Ok; });
  ASSERT_TRUE(runUntil(*TC, 30000000, [&] { return Completed == 50; }));
  EXPECT_FALSE(TC->checkCommittedAgreement().has_value());
}

TEST(ClusterTest, LeaderCrashFailsOver) {
  TestCluster TC(3);
  auto Leader = TC->runUntilLeader(2000000);
  ASSERT_TRUE(Leader.has_value());
  TC->crash(*Leader);
  // A new leader emerges among the remaining nodes.
  ASSERT_TRUE(runUntil(*TC, 5000000, [&] {
    auto L = TC->leader();
    return L && *L != *Leader;
  }));
  // Client commands still work.
  bool Done = false;
  TC->submit(7, [&](bool Ok, SimTime) { Done = Ok; });
  ASSERT_TRUE(runUntil(*TC, 10000000, [&] { return Done; }));
  // The crashed node restarts and catches up.
  TC->restart(*Leader);
  ASSERT_TRUE(runUntil(*TC, 10000000, [&] {
    return TC->node(*Leader).commitIndex() >= 2;
  }));
  EXPECT_FALSE(TC->checkCommittedAgreement().has_value());
}

TEST(ClusterTest, SurvivesMessageLoss) {
  ClusterOptions Opts;
  Opts.Link.DropPermille = 150; // 15% loss.
  TestCluster TC(3, 0, 7, Opts);
  ASSERT_TRUE(TC->runUntilLeader(5000000).has_value());
  size_t Completed = 0;
  for (int I = 0; I != 20; ++I)
    TC->submit(I + 1, [&](bool Ok, SimTime) { Completed += Ok; });
  ASSERT_TRUE(runUntil(*TC, 60000000, [&] { return Completed == 20; }));
  EXPECT_GT(TC->messagesDropped(), 0u);
  EXPECT_FALSE(TC->checkCommittedAgreement().has_value());
}

//===----------------------------------------------------------------------===//
// Hot reconfiguration
//===----------------------------------------------------------------------===//

TEST(ClusterReconfigTest, GrowByOne) {
  TestCluster TC(3, /*Spares=*/1);
  ASSERT_TRUE(TC->runUntilLeader(2000000).has_value());
  EXPECT_TRUE(TC->node(4).isPassive());
  bool Done = false;
  TC->requestReconfig(Config(NodeSet{1, 2, 3, 4}),
                      [&](bool Ok, SimTime) { Done = Ok; });
  ASSERT_TRUE(runUntil(*TC, 20000000, [&] { return Done; }));
  // The new node replicates and awakens.
  ASSERT_TRUE(runUntil(*TC, 20000000, [&] {
    return !TC->node(4).isPassive() && TC->node(4).commitIndex() >= 1;
  }));
  EXPECT_FALSE(TC->checkCommittedAgreement().has_value());
}

TEST(ClusterReconfigTest, ShrinkByOne) {
  TestCluster TC(3);
  auto Leader = TC->runUntilLeader(2000000);
  ASSERT_TRUE(Leader.has_value());
  // Remove a non-leader member.
  NodeId Victim = *Leader == 3 ? 2 : 3;
  NodeSet NewMembers = NodeSet::range(1, 3);
  NewMembers.erase(Victim);
  bool Done = false;
  TC->requestReconfig(Config(NewMembers),
                      [&](bool Ok, SimTime) { Done = Ok; });
  ASSERT_TRUE(runUntil(*TC, 20000000, [&] { return Done; }));
  // The removed node eventually learns and goes passive.
  ASSERT_TRUE(runUntil(*TC, 20000000,
                       [&] { return TC->node(Victim).isPassive(); }));
  // The two remaining nodes keep committing.
  bool Committed = false;
  TC->submit(99, [&](bool Ok, SimTime) { Committed = Ok; });
  ASSERT_TRUE(runUntil(*TC, 20000000, [&] { return Committed; }));
  EXPECT_FALSE(TC->checkCommittedAgreement().has_value());
}

TEST(ClusterReconfigTest, FullCycleFiveToThreeToFive) {
  // The Fig. 16 schedule in miniature.
  TestCluster TC(5, 0, 11);
  ASSERT_TRUE(TC->runUntilLeader(2000000).has_value());
  std::vector<NodeSet> Steps = {
      NodeSet{1, 2, 3, 4}, NodeSet{1, 2, 3},
      NodeSet{1, 2, 3, 4}, NodeSet{1, 2, 3, 4, 5}};
  for (const NodeSet &Members : Steps) {
    bool Done = false;
    TC->requestReconfig(Config(Members),
                        [&](bool Ok, SimTime) { Done = Ok; });
    ASSERT_TRUE(runUntil(*TC, 40000000, [&] { return Done; }))
        << "stuck reaching " << Members.str() << "\n"
        << TC->dump();
    // Interleave some traffic.
    size_t Acked = 0;
    for (int I = 0; I != 5; ++I)
      TC->submit(I + 1, [&](bool Ok, SimTime) { Acked += Ok; });
    ASSERT_TRUE(runUntil(*TC, 40000000, [&] { return Acked == 5; }));
  }
  EXPECT_FALSE(TC->checkCommittedAgreement().has_value());
  // Everyone in the final config is active again.
  auto Leader = TC->leader();
  ASSERT_TRUE(Leader.has_value());
  EXPECT_EQ(TC->node(*Leader).config(), Config(NodeSet{1, 2, 3, 4, 5}));
}

TEST(ClusterReconfigTest, LeaderRefusesSelfRemoval) {
  TestCluster TC(3);
  auto Leader = TC->runUntilLeader(2000000);
  ASSERT_TRUE(Leader.has_value());
  runUntil(*TC, 2000000,
           [&] { return TC->node(*Leader).commitIndex() >= 1; });
  NodeSet Others = NodeSet::range(1, 3);
  Others.erase(*Leader);
  EXPECT_FALSE(TC->node(*Leader).requestReconfig(Config(Others)));
}

//===----------------------------------------------------------------------===//
// Determinism
//===----------------------------------------------------------------------===//

TEST(ClusterTest, SameSeedSameRun) {
  auto RunOnce = [](uint64_t Seed) {
    TestCluster TC(3, 0, Seed);
    TC->runUntilLeader(2000000);
    size_t Completed = 0;
    for (int I = 0; I != 10; ++I)
      TC->submit(I + 1, [&](bool Ok, SimTime) { Completed += Ok; });
    runUntil(*TC, 20000000, [&] { return Completed == 10; });
    return std::make_tuple(TC->messagesSent(), TC->queue().now(),
                           TC->leader().value_or(0));
  };
  EXPECT_EQ(RunOnce(1234), RunOnce(1234));
  EXPECT_NE(RunOnce(1234), RunOnce(5678));
}

//===----------------------------------------------------------------------===//
// Network partitions
//===----------------------------------------------------------------------===//

TEST(ClusterPartitionTest, MinoritySideCannotCommit) {
  TestCluster TC(5, 0, 21);
  auto Leader = TC->runUntilLeader(2000000);
  ASSERT_TRUE(Leader.has_value());
  // Isolate the leader with one follower: a 2-node minority.
  NodeId Buddy = *Leader == 1 ? 2 : 1;
  TC->partition(NodeSet{*Leader, Buddy});
  bool Done = false, Ok = true;
  // Submit straight to the stranded leader; it must not commit.
  TC->node(*Leader).submit(777, 0);
  size_t CiBefore = TC->node(*Leader).commitIndex();
  runUntil(*TC, 3000000, [&] { return false; }); // Let it stew.
  EXPECT_EQ(TC->node(*Leader).commitIndex(), CiBefore);
  // The majority side elects its own leader and commits.
  TC->submit(888, [&](bool O, SimTime) {
    Done = true;
    Ok = O;
  });
  ASSERT_TRUE(runUntil(*TC, 20000000, [&] { return Done; }));
  EXPECT_TRUE(Ok);
  EXPECT_FALSE(TC->checkCommittedAgreement().has_value());
}

TEST(ClusterPartitionTest, HealedPartitionReconverges) {
  TestCluster TC(5, 0, 22);
  auto Leader = TC->runUntilLeader(2000000);
  ASSERT_TRUE(Leader.has_value());
  NodeId Buddy = *Leader == 1 ? 2 : 1;
  TC->partition(NodeSet{*Leader, Buddy});
  // The stranded ex-leader appends entries that can never commit.
  TC->node(*Leader).submit(111, 0);
  TC->node(*Leader).submit(112, 0);
  // Majority side makes real progress meanwhile.
  size_t Acked = 0;
  for (int I = 0; I != 5; ++I)
    TC->submit(200 + I, [&](bool Ok, SimTime) { Acked += Ok; });
  ASSERT_TRUE(runUntil(*TC, 30000000, [&] { return Acked == 5; }));
  // Heal: the stale branch is truncated, everyone converges.
  TC->heal();
  ASSERT_TRUE(runUntil(*TC, 30000000, [&] {
    size_t MinCi = SIZE_MAX;
    for (NodeId N : NodeSet::range(1, 5))
      MinCi = std::min(MinCi, TC->node(N).commitIndex());
    return MinCi >= 5;
  })) << TC->dump();
  EXPECT_FALSE(TC->checkCommittedAgreement().has_value());
  // The stranded entries are gone from the ex-leader's log.
  const RaftNode &Old = TC->node(*Leader);
  for (size_t I = 1; I <= Old.logSize(); ++I)
    EXPECT_NE(Old.entry(I).Method, 111u);
}

TEST(ClusterPartitionTest, SymmetricSplitBlocksEveryone) {
  // 2-2 split of a 4-node cluster: neither side has a quorum.
  TestCluster TC(4, 0, 23);
  ASSERT_TRUE(TC->runUntilLeader(2000000).has_value());
  TC->partition(NodeSet{1, 2});
  size_t CiMax = 0;
  for (NodeId N : NodeSet::range(1, 4))
    CiMax = std::max(CiMax, TC->node(N).commitIndex());
  bool Done = false;
  TC->submit(99, [&](bool, SimTime) { Done = true; }, 3000000);
  runUntil(*TC, 6000000, [&] { return Done; });
  for (NodeId N : NodeSet::range(1, 4))
    EXPECT_LE(TC->node(N).commitIndex(), CiMax);
  EXPECT_FALSE(TC->checkCommittedAgreement().has_value());
}

//===----------------------------------------------------------------------===//
// Joint consensus on the executable cluster
//===----------------------------------------------------------------------===//

TEST(ClusterJointTest, ArbitraryChangeViaJointConfiguration) {
  // Replace two of three nodes in one logical change: old -> joint ->
  // new, exactly Raft's joint-consensus flow, on the live cluster.
  auto Scheme = makeScheme(SchemeKind::RaftJoint);
  Config Old(NodeSet{1, 2, 3});
  Cluster C(*Scheme, Old, NodeSet::range(1, 5), ClusterOptions(), 77);
  C.start();
  auto Leader = C.runUntilLeader(5000000);
  ASSERT_TRUE(Leader.has_value());
  ASSERT_EQ(*Leader, C.leader().value());

  // The joint target keeps the leader and swaps the other two.
  NodeSet NewMembers{*Leader, 4, 5};
  Config Joint(Old.Members);
  Joint.Extra = NewMembers;
  Joint.HasExtra = true;
  Config New(NewMembers);

  bool JointDone = false, NewDone = false;
  C.requestReconfig(Joint, [&](bool Ok, SimTime) { JointDone = Ok; });
  SimTime Deadline = C.queue().now() + 60000000;
  while (!JointDone && C.queue().now() < Deadline && C.queue().runNext())
    ;
  ASSERT_TRUE(JointDone) << C.dump();
  // In the joint phase commits need majorities of BOTH sets, so the new
  // nodes must already be replicating.
  EXPECT_TRUE(C.node(*Leader).config().HasExtra);

  C.requestReconfig(New, [&](bool Ok, SimTime) { NewDone = Ok; });
  Deadline = C.queue().now() + 60000000;
  while (!NewDone && C.queue().now() < Deadline && C.queue().runNext())
    ;
  ASSERT_TRUE(NewDone) << C.dump();
  EXPECT_EQ(C.node(*Leader).config(), New);

  // Traffic still flows in the final configuration.
  bool Ok = false;
  C.submit(42, [&](bool O, SimTime) { Ok = O; });
  Deadline = C.queue().now() + 30000000;
  while (!Ok && C.queue().now() < Deadline && C.queue().runNext())
    ;
  EXPECT_TRUE(Ok);
  EXPECT_FALSE(C.checkCommittedAgreement().has_value());
}

//===----------------------------------------------------------------------===//
// Leadership transfer
//===----------------------------------------------------------------------===//

TEST(LeadershipTransferTest, TransfersToCaughtUpMember) {
  TestCluster TC(3, 0, 31);
  auto Leader = TC->runUntilLeader(2000000);
  ASSERT_TRUE(Leader.has_value());
  // Let the barrier replicate so followers are caught up.
  ASSERT_TRUE(runUntil(*TC, 5000000, [&] {
    for (NodeId N : NodeSet::range(1, 3))
      if (TC->node(N).commitIndex() < 1)
        return false;
    return true;
  }));
  NodeId Heir = *Leader == 1 ? 2 : 1;
  ASSERT_TRUE(TC->node(*Leader).transferLeadership(Heir));
  EXPECT_FALSE(TC->node(*Leader).isLeader());
  ASSERT_TRUE(runUntil(*TC, 5000000,
                       [&] { return TC->node(Heir).isLeader(); }));
  EXPECT_GT(TC->node(Heir).term(), TC->node(*Leader).term() - 1);
  EXPECT_FALSE(TC->checkCommittedAgreement().has_value());
}

TEST(LeadershipTransferTest, RefusesLaggingTarget) {
  TestCluster TC(3, 0, 32);
  auto Leader = TC->runUntilLeader(2000000);
  ASSERT_TRUE(Leader.has_value());
  NodeId Lagger = *Leader == 3 ? 2 : 3;
  TC->crash(Lagger);
  // Append entries the crashed node can never have.
  TC->node(*Leader).submit(1, 0);
  TC->node(*Leader).submit(2, 0);
  TC->restart(Lagger);
  // Immediately after restart the lagger's match index is unknown/stale.
  EXPECT_FALSE(TC->node(*Leader).transferLeadership(Lagger));
  EXPECT_TRUE(TC->node(*Leader).isLeader());
}

TEST(LeadershipTransferTest, RemovingTheLeaderViaAdminWorks) {
  // The admin asks to remove the current leader: the cluster transfers
  // leadership first, then the new leader commits the removal.
  TestCluster TC(3, 0, 33);
  auto Leader = TC->runUntilLeader(2000000);
  ASSERT_TRUE(Leader.has_value());
  NodeSet Remaining = NodeSet::range(1, 3);
  Remaining.erase(*Leader);
  bool Done = false;
  TC->requestReconfig(Config(Remaining),
                      [&](bool Ok, SimTime) { Done = Ok; }, 30000000);
  ASSERT_TRUE(runUntil(*TC, 40000000, [&] { return Done; })) << TC->dump();
  // The ex-leader eventually learns of its removal and goes passive.
  ASSERT_TRUE(runUntil(*TC, 20000000,
                       [&] { return TC->node(*Leader).isPassive(); }))
      << TC->dump();
  auto NewLeader = TC->leader();
  ASSERT_TRUE(NewLeader.has_value());
  EXPECT_NE(*NewLeader, *Leader);
  EXPECT_EQ(TC->node(*NewLeader).config(), Config(Remaining));
  EXPECT_FALSE(TC->checkCommittedAgreement().has_value());
}

//===----------------------------------------------------------------------===//
// Replication amplification: node-to-node messages per committed op
//===----------------------------------------------------------------------===//

namespace {

/// Node-to-node messages per committed op over a closed loop of \p Ops
/// puts on a 3-node cluster: each op is submitted when the previous one
/// completes.
double closedLoopMessagesPerOp(size_t Ops) {
  TestCluster TC(3, 0, 42);
  EXPECT_TRUE(TC->runUntilLeader(2000000).has_value());
  size_t Done = 0, Failed = 0;
  std::function<void()> Issue = [&] {
    TC->submit(7, [&](bool Ok, SimTime) {
      Failed += !Ok;
      if (++Done < Ops)
        Issue();
    });
  };
  size_t Before = TC->messagesSent();
  Issue();
  EXPECT_TRUE(runUntil(*TC, Ops * 10000, [&] { return Done == Ops; }));
  EXPECT_EQ(Failed, 0u);
  return double(TC->messagesSent() - Before) / double(Ops);
}

} // namespace

TEST(AmplificationTest, ClosedLoopSendsAtMostTwoMessagesPerPeerPerOp) {
  // Per op the leader ships the entry to each of the N-1 peers and each
  // frame is acked: 2(N-1) messages. A commit advance sends nothing; the
  // next op's frame carries it. The +1 covers heartbeats and the rare
  // NAK of a frame the simulator delivered before its predecessor. A
  // frame per peer per commit advance took this to 8.27, and acks that
  // re-sent entries still in flight to 10.7.
  const double Bound = 2 * (3 - 1) + 1;
  double PerOp = closedLoopMessagesPerOp(2000);
  EXPECT_LE(PerOp, Bound);
  // Seeded and virtual-time: the count repeats exactly.
  EXPECT_EQ(closedLoopMessagesPerOp(2000), PerOp);
}

TEST(ClusterReadTest, FollowerReadOnAnIdleClusterNeedsNoHeartbeat) {
  // A commit advance sends nothing, so on an idle cluster followers
  // learn the commit index only at the next heartbeat, here seconds
  // away. A follower read must not wait for it: the leader's answer to
  // the forwarded read comes with a frame carrying the commit index.
  // Both answer sites are covered: a confirmation round, then the
  // lease the round granted.
  ClusterOptions Opts;
  Opts.Node.HeartbeatUs = 5000000;
  Opts.Node.ElectionTimeoutMinUs = 15000000;
  Opts.Node.ElectionTimeoutMaxUs = 30000000;
  Opts.Node.LeaseDurationUs = 15000000;
  TestCluster TC(3, 0, /*Seed=*/42, Opts);
  std::optional<NodeId> Leader = TC->runUntilLeader(100000000);
  ASSERT_TRUE(Leader.has_value());
  const SimTime Bound = 10 * Opts.Link.LatencyMaxUs;
  for (int Round = 0; Round != 2; ++Round) {
    bool Written = false;
    TC->submit(7, [&](bool Ok, SimTime) { Written = Ok; });
    ASSERT_TRUE(runUntil(*TC, Bound, [&] { return Written; }));
    size_t Committed = TC->node(*Leader).commitIndex();
    for (NodeId N : TC->universe())
      if (N != *Leader) {
        EXPECT_LT(TC->node(N).commitIndex(), Committed)
            << "S" << N << " heard of the commit before the read";
      }
    bool Done = false, Ok = false;
    NodeId Server = InvalidNodeId;
    size_t Index = 0;
    SimTime Latency = 0;
    TC->read(
        [&](bool R, NodeId S, size_t I, SimTime L) {
          Done = true;
          Ok = R;
          Server = S;
          Index = I;
          Latency = L;
        },
        /*AtFollower=*/true);
    ASSERT_TRUE(runUntil(*TC, Bound, [&] { return Done; }))
        << "read " << Round << " waited for a heartbeat";
    EXPECT_TRUE(Ok);
    EXPECT_NE(Server, *Leader);
    EXPECT_EQ(Index, Committed);
    EXPECT_LE(Latency, Bound);
  }
  EXPECT_EQ(TC->leader(), Leader);
}

TEST(ClusterReadTest, ReadRetriesStayOneChainWithoutALeader) {
  // With no leader every read attempt is NACKed, and each NACK schedules
  // one retry. The attempt's client timeout must not add a second retry
  // chain for an attempt that already resolved: chains would fork on
  // every NACK and the attempt count would grow far faster than the
  // budget. One chain makes at most one attempt per retry delay.
  ClusterOptions Opts;
  Opts.Node.ElectionTimeoutMinUs = 100000000;
  Opts.Node.ElectionTimeoutMaxUs = 200000000;
  TestCluster TC(3, 0, /*Seed=*/42, Opts);
  size_t Outcomes = 0;
  for (NodeId N : TC->universe()) {
    auto &Hook = TC->node(N).hooks().OnRead;
    Hook = [&Outcomes, Inner = Hook](NodeId Id, uint64_t ReadId, bool Ok,
                                     size_t Index) {
      ++Outcomes;
      Inner(Id, ReadId, Ok, Index);
    };
  }
  const SimTime MaxTriesUs = 1000000;
  bool Done = false, Served = true;
  TC->read(
      [&](bool Ok, NodeId, size_t, SimTime) {
        Done = true;
        Served = Ok;
      },
      /*AtFollower=*/false, MaxTriesUs);
  ASSERT_TRUE(runUntil(*TC, 2 * MaxTriesUs, [&] { return Done; }));
  EXPECT_FALSE(Served);
  EXPECT_FALSE(TC->leader().has_value());
  EXPECT_GT(Outcomes, 0u);
  EXPECT_LE(Outcomes, MaxTriesUs / Opts.ClientRetryDelayUs + 1);
}
