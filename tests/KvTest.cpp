//===- tests/KvTest.cpp - Key-value store application tests ------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the two client styles of Fig. 2 over their substrates: the
/// SMR-facade store on the simulated cluster (opaque rpc_call) and the
/// ADO-style three-step client on the Adore model, including replica
/// convergence, linearizable reads, and behaviour under contention and
/// failures.
///
//===----------------------------------------------------------------------===//

#include "kv/KvStore.h"

#include "adore/Invariants.h"

#include <gtest/gtest.h>

using namespace adore;
using namespace adore::kv;
using namespace adore::sim;

//===----------------------------------------------------------------------===//
// Encoding and state machine
//===----------------------------------------------------------------------===//

TEST(KvOpTest, EncodeDecodeRoundTrip) {
  for (KvOpKind Kind : {KvOpKind::Noop, KvOpKind::Put, KvOpKind::Del}) {
    KvOp Op{Kind, 123456, 789012};
    KvOp Back = decodeKvOp(encodeKvOp(Op));
    EXPECT_EQ(Back.Kind, Op.Kind);
    EXPECT_EQ(Back.Key, Op.Key);
    EXPECT_EQ(Back.Value, Op.Value);
  }
}

TEST(KvOpTest, ZeroIsNoop) {
  KvOp Op = decodeKvOp(0);
  EXPECT_EQ(Op.Kind, KvOpKind::Noop);
}

TEST(KvOpTest, MaxFieldsSurvive) {
  uint32_t Max = (uint32_t(1) << 31) - 1;
  KvOp Op{KvOpKind::Put, Max, Max};
  KvOp Back = decodeKvOp(encodeKvOp(Op));
  EXPECT_EQ(Back.Key, Max);
  EXPECT_EQ(Back.Value, Max);
}

TEST(KvStateTest, PutGetDel) {
  KvState S;
  EXPECT_FALSE(S.get(1).has_value());
  S.apply({KvOpKind::Put, 1, 10});
  S.apply({KvOpKind::Put, 2, 20});
  EXPECT_EQ(S.get(1), std::optional<uint32_t>(10));
  S.apply({KvOpKind::Put, 1, 11});
  EXPECT_EQ(S.get(1), std::optional<uint32_t>(11));
  S.apply({KvOpKind::Del, 1, 0});
  EXPECT_FALSE(S.get(1).has_value());
  EXPECT_EQ(S.size(), 1u);
}

TEST(KvStateTest, NoopIsInvisible) {
  KvState S;
  S.apply({KvOpKind::Noop, 7, 7});
  EXPECT_EQ(S.size(), 0u);
}

//===----------------------------------------------------------------------===//
// SMR-style store over the cluster
//===----------------------------------------------------------------------===//

namespace {

struct KvHarness {
  std::unique_ptr<ReconfigScheme> Scheme;
  std::unique_ptr<Cluster> C;
  std::unique_ptr<ReplicatedKvStore> Store;

  explicit KvHarness(size_t Members, uint64_t Seed = 42) {
    Scheme = makeScheme(SchemeKind::RaftSingleNode);
    Config Initial(NodeSet::range(1, Members));
    C = std::make_unique<Cluster>(*Scheme, Initial, Initial.Members,
                                  ClusterOptions(), Seed);
    Store = std::make_unique<ReplicatedKvStore>(*C);
    C->start();
    C->runUntilLeader(2000000);
  }

  template <typename PredT> bool runUntil(SimTime MaxUs, PredT &&Pred) {
    SimTime Deadline = C->queue().now() + MaxUs;
    while (C->queue().now() < Deadline) {
      if (Pred())
        return true;
      if (!C->queue().runNext())
        return Pred();
    }
    return Pred();
  }
};

} // namespace

TEST(ReplicatedKvTest, PutThenGet) {
  for (bool AtFollower : {false, true}) {
    SCOPED_TRACE(AtFollower ? "follower read" : "leader read");
    KvHarness H(3);
    bool PutDone = false;
    H.Store->put(1, 42, [&](bool Ok, SimTime) { PutDone = Ok; });
    ASSERT_TRUE(H.runUntil(10000000, [&] { return PutDone; }));
    std::optional<uint32_t> Got;
    bool GetDone = false;
    H.Store->get(
        1,
        [&](bool Ok, std::optional<uint32_t> V, SimTime) {
          GetDone = Ok;
          Got = V;
        },
        AtFollower);
    ASSERT_TRUE(H.runUntil(10000000, [&] { return GetDone; }));
    EXPECT_EQ(Got, std::optional<uint32_t>(42));
  }
}

TEST(ReplicatedKvTest, GetMissingKey) {
  KvHarness H(3);
  bool Done = false;
  std::optional<uint32_t> Got = 1;
  H.Store->get(9, [&](bool Ok, std::optional<uint32_t> V, SimTime) {
    Done = Ok;
    Got = V;
  });
  ASSERT_TRUE(H.runUntil(10000000, [&] { return Done; }));
  EXPECT_FALSE(Got.has_value());
}

TEST(ReplicatedKvTest, OverwriteAndDelete) {
  // Each op is awaited before the next is issued. Concurrent ops may
  // commit in any order (a client retry can land a put after a later
  // del), so only sequenced ops make the final state below follow from
  // linearizability.
  KvHarness H(3);
  size_t Acks = 0;
  auto Await = [&](size_t N) {
    return H.runUntil(20000000, [&] { return Acks == N; });
  };
  H.Store->put(5, 1, [&](bool Ok, SimTime) { Acks += Ok; });
  ASSERT_TRUE(Await(1));
  H.Store->put(5, 2, [&](bool Ok, SimTime) { Acks += Ok; });
  ASSERT_TRUE(Await(2));
  H.Store->del(5, [&](bool Ok, SimTime) { Acks += Ok; });
  ASSERT_TRUE(Await(3));
  H.Store->put(6, 3, [&](bool Ok, SimTime) { Acks += Ok; });
  ASSERT_TRUE(Await(4));
  bool Done = false;
  std::optional<uint32_t> Got5, Got6;
  H.Store->get(5, [&](bool, std::optional<uint32_t> V, SimTime) { Got5 = V; });
  H.Store->get(6, [&](bool Ok, std::optional<uint32_t> V, SimTime) {
    Done = Ok;
    Got6 = V;
  });
  ASSERT_TRUE(H.runUntil(20000000, [&] { return Done; }));
  EXPECT_FALSE(Got5.has_value());
  EXPECT_EQ(Got6, std::optional<uint32_t>(3));
}

TEST(ReplicatedKvTest, ReplicasConverge) {
  KvHarness H(3);
  size_t Acks = 0;
  for (uint32_t K = 1; K <= 30; ++K)
    H.Store->put(K, K * 10, [&](bool Ok, SimTime) { Acks += Ok; });
  ASSERT_TRUE(H.runUntil(60000000, [&] { return Acks == 30; }));
  // Let heartbeats spread the final commit index.
  H.C->queue().runUntil(H.C->queue().now() + 500000);
  while (H.C->queue().runNext() &&
         H.C->queue().now() < 80000000)
    ;
  EXPECT_TRUE(H.Store->replicasAgree());
  auto Leader = H.C->leader();
  ASSERT_TRUE(Leader.has_value());
  EXPECT_EQ(H.Store->replica(*Leader).get(7), std::optional<uint32_t>(70));
}

TEST(ReplicatedKvTest, SurvivesLeaderCrashMidStream) {
  KvHarness H(3, 9);
  size_t Acks = 0;
  for (uint32_t K = 1; K <= 10; ++K)
    H.Store->put(K, K, [&](bool Ok, SimTime) { Acks += Ok; });
  ASSERT_TRUE(H.runUntil(30000000, [&] { return Acks >= 5; }));
  auto Leader = H.C->leader();
  ASSERT_TRUE(Leader.has_value());
  H.C->crash(*Leader);
  ASSERT_TRUE(H.runUntil(60000000, [&] { return Acks == 10; }));
  EXPECT_FALSE(H.C->checkCommittedAgreement().has_value());
  EXPECT_TRUE(H.Store->replicasAgree());
}

//===----------------------------------------------------------------------===//
// ADO-style client over the Adore model
//===----------------------------------------------------------------------===//

TEST(AdoKvClientTest, SingleClientPutsCommit) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  Semantics Sem(*Scheme);
  AdoreState St(*Scheme, Config(NodeSet{1, 2, 3}));
  RandomOracle Oracle(/*Seed=*/5, /*FailPermille=*/100);
  AdoKvClient Client(1, Sem, St, Oracle);

  ASSERT_TRUE(Client.callWithRetry({KvOpKind::Put, 1, 10}));
  ASSERT_TRUE(Client.callWithRetry({KvOpKind::Put, 2, 20}));
  KvState State = Client.committedState();
  EXPECT_EQ(State.get(1), std::optional<uint32_t>(10));
  EXPECT_EQ(State.get(2), std::optional<uint32_t>(20));
}

TEST(AdoKvClientTest, ContendingClientsStayConsistent) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  Semantics Sem(*Scheme);
  AdoreState St(*Scheme, Config(NodeSet{1, 2, 3}));
  RandomOracle Oracle(/*Seed=*/17, /*FailPermille=*/150);
  AdoKvClient C1(1, Sem, St, Oracle), C2(2, Sem, St, Oracle),
      C3(3, Sem, St, Oracle);
  Rng R(3);

  size_t Committed = 0;
  for (uint32_t I = 0; I != 60; ++I) {
    AdoKvClient &Client = I % 3 == 0 ? C1 : (I % 3 == 1 ? C2 : C3);
    KvOp Op{KvOpKind::Put, static_cast<uint32_t>(R.nextBelow(8)),
            I + 1};
    Committed += Client.call(Op);
    // The abstract object stays safe throughout.
    ASSERT_FALSE(checkReplicatedStateSafety(St.Tree).has_value());
  }
  EXPECT_GT(Committed, 5u);
  // All clients fold the same committed state.
  EXPECT_TRUE(C1.committedState() == C2.committedState());
  EXPECT_TRUE(C2.committedState() == C3.committedState());
}

TEST(AdoKvClientTest, FailedPushLeavesMethodUncommitted) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  Semantics Sem(*Scheme);
  AdoreState St(*Scheme, Config(NodeSet{1, 2, 3}));
  // Scripted: the election succeeds, the push reaches only the caller.
  ScriptedOracle Oracle;
  Oracle.scriptPull(PullChoice{NodeSet{1, 2}, 1});
  AdoKvClient Client(1, Sem, St, Oracle);
  // Script the push after the invoke exists (target id 2 = the MCache).
  Oracle.scriptPush(PushChoice{NodeSet{1}, 2});
  EXPECT_FALSE(Client.call({KvOpKind::Put, 1, 1}));
  EXPECT_TRUE(Client.committedState().size() == 0);
}

TEST(AdoKvClientTest, ClientsKeepWorkingAcrossReconfiguration) {
  // The application layer rides out a membership change: clients write,
  // the cluster grows from {1,2,3} to {1,2,3,4}, node 4 participates in
  // later commits, and the folded state stays consistent.
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  Semantics Sem(*Scheme);
  AdoreState St(*Scheme, Config(NodeSet{1, 2, 3}));
  RandomOracle Oracle(31, /*FailPermille=*/50);
  AdoKvClient Client(1, Sem, St, Oracle);

  ASSERT_TRUE(Client.callWithRetry({KvOpKind::Put, 1, 100}));
  // Reconfigure under the hood (an admin action at the protocol level).
  ASSERT_TRUE(Sem.reconfig(St, 1, Config(NodeSet{1, 2, 3, 4})));
  Sem.push(St, 1, PushChoice{NodeSet{1, 2, 4}, St.Tree.activeCache(1)});
  // The client continues against the grown object.
  ASSERT_TRUE(Client.callWithRetry({KvOpKind::Put, 2, 200}));
  KvState State = Client.committedState();
  EXPECT_EQ(State.get(1), std::optional<uint32_t>(100));
  EXPECT_EQ(State.get(2), std::optional<uint32_t>(200));
  EXPECT_FALSE(checkReplicatedStateSafety(St.Tree).has_value());
}
