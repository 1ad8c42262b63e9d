//===- tests/ShardTest.cpp - Shard layer unit tests -------------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the pure shard layer: golden-value placement vectors
/// (the hash is an on-disk/wire contract — silent drift would re-route
/// every key), distribution and monotone-stability properties of the
/// jump hash, pool-map construction/codec, and the routing client's
/// NACK/refetch/retry state machine against a scripted fake transport.
///
//===----------------------------------------------------------------------===//

#include "shard/MapStateMachine.h"
#include "shard/Placement.h"
#include "shard/PoolMap.h"
#include "shard/ShardedKvClient.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace adore;
using namespace adore::shard;

//===----------------------------------------------------------------------===//
// Placement: golden vectors, distribution, stability
//===----------------------------------------------------------------------===//

TEST(PlacementTest, GoldenVectorsArePinned) {
  // Pinned outputs of shardForKey. These are a compatibility contract:
  // any change re-routes every key in every deployed pool, so a failure
  // here must be a deliberate, versioned decision — never drift.
  struct Vector {
    uint64_t Key;
    uint32_t Shards;
    uint32_t Shard;
  };
  const Vector Golden[] = {
      {0ULL, 16, 8},
      {1ULL, 16, 15},
      {2ULL, 16, 0},
      {7ULL, 16, 8},
      {42ULL, 16, 0},
      {3735928559ULL, 16, 11},
      {1311768467463790320ULL, 16, 1},
      {18446744073709551615ULL, 16, 3},
      {0ULL, 64, 26},
      {1ULL, 64, 50},
      {2ULL, 64, 19},
      {7ULL, 64, 60},
      {42ULL, 64, 0},
      {3735928559ULL, 64, 54},
      {1311768467463790320ULL, 64, 21},
      {18446744073709551615ULL, 64, 26},
  };
  for (const Vector &V : Golden)
    EXPECT_EQ(shardForKey(V.Key, V.Shards), V.Shard)
        << "key " << V.Key << " over " << V.Shards << " shards";
  // The splitmix64 finalizer is part of the same contract.
  EXPECT_EQ(mixKey(0), 16294208416658607535ULL);
  EXPECT_EQ(mixKey(1), 10451216379200822465ULL);
}

TEST(PlacementTest, SingleShardAndBounds) {
  for (uint64_t K : {0ULL, 1ULL, ~0ULL})
    EXPECT_EQ(shardForKey(K, 1), 0u);
  for (uint64_t K = 0; K != 1000; ++K) {
    uint32_t S = shardForKey(K, 7);
    EXPECT_LT(S, 7u);
  }
}

TEST(PlacementTest, DistributionIsUniformEnough) {
  // Chi-square over 64 shards with 64k sequential keys (the worst,
  // most-correlated workload a KV client realistically produces). 63
  // degrees of freedom: the 99.9th percentile is ~103.4; a sound hash
  // sits far below, a broken mix blows up by orders of magnitude.
  constexpr uint32_t Shards = 64;
  constexpr uint64_t N = 64 * 1024;
  std::vector<uint64_t> Counts(Shards, 0);
  for (uint64_t K = 0; K != N; ++K)
    ++Counts[shardForKey(K, Shards)];
  const double Expected = double(N) / Shards;
  double ChiSq = 0;
  for (uint64_t C : Counts) {
    double D = double(C) - Expected;
    ChiSq += D * D / Expected;
  }
  EXPECT_LT(ChiSq, 103.4) << "chi-square " << ChiSq;
}

TEST(PlacementTest, GrowingShardCountMovesOnlyIntoNewShard) {
  // Jump consistent hashing's defining property: going from N to N+1
  // shards, a key either stays put or moves to the NEW shard — never
  // between old shards — and roughly 1/(N+1) of keys move.
  constexpr uint32_t N = 16;
  constexpr uint64_t Keys = 100000;
  uint64_t Moved = 0;
  for (uint64_t K = 0; K != Keys; ++K) {
    uint32_t Old = shardForKey(K, N);
    uint32_t New = shardForKey(K, N + 1);
    if (Old != New) {
      EXPECT_EQ(New, N) << "key " << K << " moved between old shards";
      ++Moved;
    }
  }
  const double Frac = double(Moved) / Keys;
  EXPECT_GT(Frac, 0.5 / (N + 1));
  EXPECT_LT(Frac, 2.0 / (N + 1));
}

//===----------------------------------------------------------------------===//
// Pool map: construction, codec
//===----------------------------------------------------------------------===//

TEST(PoolMapTest, UniformMapIsValidAndDisjoint) {
  PoolMap M = makeUniformPoolMap(/*Groups=*/4, /*NumShards=*/16,
                                 /*MembersPerGroup=*/3, /*SparesPerGroup=*/2,
                                 /*MetaMembers=*/3);
  EXPECT_TRUE(M.valid());
  EXPECT_EQ(M.Generation, 1u);
  EXPECT_EQ(M.dataGroups(), 4u);
  // Every shard owned by a data group; round-robin covers all groups.
  std::vector<uint32_t> PerGroup(5, 0);
  for (uint32_t S = 0; S != 16; ++S) {
    GroupId G = M.groupForShard(S);
    ASSERT_GE(G, 1u);
    ASSERT_LE(G, 4u);
    ++PerGroup[G];
  }
  for (GroupId G = 1; G <= 4; ++G)
    EXPECT_EQ(PerGroup[G], 4u);
  // Replica sets live in disjoint per-group id ranges.
  for (GroupId G = 0; G <= 4; ++G)
    for (NodeId N : M.GroupReplicas[G]) {
      EXPECT_GT(N, groupIdBase(G));
      EXPECT_LE(N, groupIdBase(G) + 3);
    }
  // Key placement goes through shard ownership.
  for (uint64_t K = 0; K != 100; ++K)
    EXPECT_EQ(M.groupForKey(K), M.groupForShard(shardForKey(K, 16)));
}

TEST(PoolMapTest, CodecRoundTrips) {
  PoolMap M = makeUniformPoolMap(3, 8, 3, 1, 3);
  M.Generation = 42;
  std::string Bytes;
  encodePoolMap(Bytes, M);
  PoolMap D;
  ASSERT_TRUE(decodePoolMap(Bytes, D));
  EXPECT_EQ(D, M);
}

TEST(PoolMapTest, CodecRejectsMalformedBytes) {
  PoolMap M = makeUniformPoolMap(2, 4, 3, 0, 3);
  std::string Bytes;
  encodePoolMap(Bytes, M);
  PoolMap D;
  // Truncation at every prefix length.
  for (size_t Len = 0; Len != Bytes.size(); ++Len)
    EXPECT_FALSE(decodePoolMap(Bytes.substr(0, Len), D)) << "len " << Len;
  // Trailing garbage.
  EXPECT_FALSE(decodePoolMap(Bytes + '\0', D));
  // A decoded map must also be structurally valid: zero the generation.
  std::string Zeroed = Bytes;
  for (int I = 0; I != 8; ++I)
    Zeroed[I] = '\0';
  EXPECT_FALSE(decodePoolMap(Zeroed, D));
}

TEST(PoolMapTest, ValidityCatchesStructuralLies) {
  PoolMap M = makeUniformPoolMap(2, 4, 3, 0, 3);
  EXPECT_TRUE(M.valid());
  PoolMap Bad = M;
  Bad.Generation = 0;
  EXPECT_FALSE(Bad.valid());
  Bad = M;
  Bad.ShardToGroup[0] = MetaGroupId; // meta group never owns user shards
  EXPECT_FALSE(Bad.valid());
  Bad = M;
  Bad.ShardToGroup[0] = 99; // nonexistent group
  EXPECT_FALSE(Bad.valid());
  Bad = M;
  Bad.GroupReplicas[1] = NodeSet(); // empty replica set
  EXPECT_FALSE(Bad.valid());
  Bad = M;
  Bad.Roster = NodeSet(); // replicas outside the roster
  EXPECT_FALSE(Bad.valid());
}

//===----------------------------------------------------------------------===//
// Pool-map state machine
//===----------------------------------------------------------------------===//

TEST(MapStateMachineTest, FirstApplyDecidesAndCasPicksOneWinner) {
  MapStateMachine SM(makeUniformPoolMap(2, 4, 3, 2, 3));
  PoolMap Next = SM.committed();
  Next.Generation = 2;
  // Two proposals race for generation 2: both commit in the meta log,
  // only the one applied first installs.
  MethodId A = SM.propose(Next);
  MethodId B = SM.propose(Next);
  EXPECT_NE(A, B);
  EXPECT_FALSE(SM.verdict(A).has_value());
  EXPECT_FALSE(SM.apply(1, 0)) << "a term-start noop decides nothing";
  EXPECT_TRUE(SM.apply(2, B));
  EXPECT_TRUE(SM.apply(3, A));
  EXPECT_EQ(SM.verdict(B), std::optional<bool>(true));
  EXPECT_EQ(SM.verdict(A), std::optional<bool>(false));
  EXPECT_EQ(SM.committed().Generation, 2u);
  EXPECT_EQ(SM.changes(), 1u);
  // Another replica applying the same indexes carries no new decision.
  EXPECT_FALSE(SM.apply(2, B));
  EXPECT_FALSE(SM.apply(3, A));
  EXPECT_FALSE(SM.apply(4, 999)) << "not a ticket";
  EXPECT_TRUE(SM.violations().empty());
}

TEST(MapStateMachineTest, InvalidOrSkippingProposalsNeverInstall) {
  MapStateMachine SM(makeUniformPoolMap(2, 4, 3, 0, 3));
  PoolMap Skip = SM.committed();
  Skip.Generation = 3; // Not the successor of generation 1.
  PoolMap Invalid = SM.committed();
  Invalid.Generation = 2;
  Invalid.GroupReplicas[1] = NodeSet();
  MethodId S = SM.propose(Skip);
  MethodId I = SM.propose(Invalid);
  EXPECT_TRUE(SM.apply(1, S));
  EXPECT_TRUE(SM.apply(2, I));
  EXPECT_EQ(SM.verdict(S), std::optional<bool>(false));
  EXPECT_EQ(SM.verdict(I), std::optional<bool>(false));
  EXPECT_EQ(SM.committed().Generation, 1u);
  EXPECT_EQ(SM.changes(), 0u);
}

//===----------------------------------------------------------------------===//
// Route wire codec
//===----------------------------------------------------------------------===//

TEST(RouteCodecTest, RequestAndReplyRoundTrip) {
  RouteRequest R;
  R.Key = 0xfeedULL;
  R.Payload = 77;
  R.IsRead = true;
  R.Shard = 9;
  R.Group = 3;
  R.MapGen = 12;
  R.ReadAtLeader = true;
  std::string Bytes;
  encodeRouteRequest(Bytes, R);
  RouteRequest D;
  ASSERT_TRUE(decodeRouteRequest(Bytes, D));
  EXPECT_EQ(D.Key, R.Key);
  EXPECT_EQ(D.Payload, R.Payload);
  EXPECT_EQ(D.IsRead, R.IsRead);
  EXPECT_EQ(D.Shard, R.Shard);
  EXPECT_EQ(D.Group, R.Group);
  EXPECT_EQ(D.MapGen, R.MapGen);
  EXPECT_EQ(D.ReadAtLeader, R.ReadAtLeader);
  for (size_t Len = 0; Len != Bytes.size(); ++Len)
    EXPECT_FALSE(decodeRouteRequest(Bytes.substr(0, Len), D));
  EXPECT_FALSE(decodeRouteRequest(Bytes + 'x', D));

  GroupReply Rep;
  Rep.Ok = true;
  Rep.HasValue = true;
  Rep.Value = 31337;
  std::string RepBytes;
  encodeGroupReply(RepBytes, Rep);
  GroupReply DRep;
  ASSERT_TRUE(decodeGroupReply(RepBytes, DRep));
  EXPECT_EQ(DRep.Ok, Rep.Ok);
  EXPECT_EQ(DRep.HasValue, Rep.HasValue);
  EXPECT_EQ(DRep.Value, Rep.Value);
  EXPECT_FALSE(DRep.ReadNack);
  for (size_t Len = 0; Len != RepBytes.size(); ++Len)
    EXPECT_FALSE(decodeGroupReply(RepBytes.substr(0, Len), DRep));
  EXPECT_FALSE(decodeGroupReply(RepBytes + 'x', DRep));

  GroupReply NackRep;
  NackRep.ReadNack = true;
  std::string NackBytes;
  encodeGroupReply(NackBytes, NackRep);
  GroupReply DNack;
  ASSERT_TRUE(decodeGroupReply(NackBytes, DNack));
  EXPECT_TRUE(DNack.ReadNack);
  EXPECT_FALSE(DNack.Ok);
  // The flag byte is validated, not just read.
  NackBytes.back() = 2;
  EXPECT_FALSE(decodeGroupReply(NackBytes, DNack));
}

//===----------------------------------------------------------------------===//
// Routing client against a scripted fake transport
//===----------------------------------------------------------------------===//

namespace {

/// Scripted transport: serves from a settable "server map", NACKing any
/// request stamped behind it or routed to the wrong group, and counts
/// everything.
struct FakeTransport {
  PoolMap ServerMap;
  size_t Performs = 0;
  size_t Fetches = 0;
  std::vector<RouteRequest> Seen;

  ShardedKvClient::Transport hooks() {
    ShardedKvClient::Transport T;
    T.Perform = [this](const RouteRequest &R, ShardedKvClient::ReplyFn Done) {
      ++Performs;
      Seen.push_back(R);
      GroupReply Rep;
      if (ServerMap.groupForShard(R.Shard) != R.Group ||
          R.MapGen < ServerMap.Generation) {
        Rep.HasNack = true;
        Rep.Nack.CurrentGen = ServerMap.Generation;
      } else {
        Rep.Ok = true;
      }
      Done(Rep);
    };
    T.FetchMap = [this](ShardedKvClient::MapFn Done) {
      ++Fetches;
      Done(ServerMap);
    };
    return T;
  }
};

} // namespace

TEST(ShardedKvClientTest, FreshMapRoutesWithoutRetry) {
  PoolMap M = makeUniformPoolMap(4, 16, 3, 0, 3);
  FakeTransport F;
  F.ServerMap = M;
  ShardedKvClient C(M, F.hooks());
  bool Ok = false;
  C.submit(7, 1, false, [&](const GroupReply &R) { Ok = R.Ok; });
  EXPECT_TRUE(Ok);
  EXPECT_EQ(F.Performs, 1u);
  EXPECT_EQ(F.Fetches, 0u);
  ASSERT_EQ(F.Seen.size(), 1u);
  EXPECT_EQ(F.Seen[0].Shard, shardForKey(7, 16));
  EXPECT_EQ(F.Seen[0].Group, M.groupForKey(7));
  EXPECT_EQ(F.Seen[0].MapGen, 1u);
}

TEST(ShardedKvClientTest, StaleMapRefetchesAndRetries) {
  PoolMap Old = makeUniformPoolMap(4, 16, 3, 0, 3);
  // The server moved every shard of group 1 to group 2 at generation 2.
  PoolMap New = Old;
  New.Generation = 2;
  for (GroupId &G : New.ShardToGroup)
    if (G == 1)
      G = 2;
  FakeTransport F;
  F.ServerMap = New;
  ShardedKvClient C(Old, F.hooks()); // client still holds generation 1

  // Pick a key group 1 used to own: it must be NACK'd once, refetched,
  // and complete against group 2 on the retry.
  uint64_t Key = 0;
  while (Old.groupForKey(Key) != 1)
    ++Key;
  bool Ok = false;
  C.submit(Key, 1, false, [&](const GroupReply &R) { Ok = R.Ok; });
  EXPECT_TRUE(Ok);
  EXPECT_EQ(F.Performs, 2u);
  EXPECT_EQ(F.Fetches, 1u);
  EXPECT_EQ(C.map().Generation, 2u);
  EXPECT_EQ(C.stats().WrongGroupNacks, 1u);
  EXPECT_EQ(C.stats().MapRefreshes, 1u);
  EXPECT_EQ(C.stats().MapInstalls, 1u);
  ASSERT_EQ(F.Seen.size(), 2u);
  EXPECT_EQ(F.Seen[1].Group, 2u);
  EXPECT_EQ(F.Seen[1].MapGen, 2u);
}

TEST(ShardedKvClientTest, NackFromThePastSkipsRefetch) {
  // A server answering with a generation the client already has (or
  // older) must not trigger a fetch — just a straight retry.
  PoolMap M = makeUniformPoolMap(2, 4, 3, 0, 3);
  size_t Performs = 0, Fetches = 0;
  ShardedKvClient::Transport T;
  T.Perform = [&](const RouteRequest &, ShardedKvClient::ReplyFn Done) {
    ++Performs;
    GroupReply Rep;
    if (Performs == 1) {
      Rep.HasNack = true;
      Rep.Nack.CurrentGen = 1; // not newer than the client's map
    } else {
      Rep.Ok = true;
    }
    Done(Rep);
  };
  T.FetchMap = [&](ShardedKvClient::MapFn) { ++Fetches; };
  ShardedKvClient C(M, std::move(T));
  bool Ok = false;
  C.submit(3, 1, false, [&](const GroupReply &R) { Ok = R.Ok; });
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Performs, 2u);
  EXPECT_EQ(Fetches, 0u);
}

TEST(ShardedKvClientTest, ReadNackRetriesPinnedToLeader) {
  // A follower that cannot prove a lease-protected read safe answers
  // ReadNack; the client must re-send the same read with ReadAtLeader
  // set, immediately (no map refetch — the routing was fine).
  PoolMap M = makeUniformPoolMap(2, 4, 3, 0, 3);
  size_t Fetches = 0;
  std::vector<RouteRequest> Seen;
  ShardedKvClient::Transport T;
  T.Perform = [&](const RouteRequest &R, ShardedKvClient::ReplyFn Done) {
    Seen.push_back(R);
    GroupReply Rep;
    if (!R.ReadAtLeader) {
      Rep.ReadNack = true;
    } else {
      Rep.Ok = true;
      Rep.HasValue = true;
      Rep.Value = 42;
    }
    Done(Rep);
  };
  T.FetchMap = [&](ShardedKvClient::MapFn) { ++Fetches; };
  ShardedKvClient C(M, std::move(T));
  bool Ok = false;
  uint32_t Value = 0;
  C.submit(3, 1, /*IsRead=*/true, [&](const GroupReply &R) {
    Ok = R.Ok;
    Value = R.Value;
  });
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Value, 42u);
  EXPECT_EQ(Fetches, 0u);
  ASSERT_EQ(Seen.size(), 2u);
  EXPECT_FALSE(Seen[0].ReadAtLeader);
  EXPECT_TRUE(Seen[1].ReadAtLeader);
  EXPECT_EQ(Seen[1].Group, Seen[0].Group);
  EXPECT_EQ(C.stats().ReadNacks, 1u);
  EXPECT_EQ(C.stats().ReadRetriesAtLeader, 1u);
  EXPECT_EQ(C.stats().WrongGroupNacks, 0u);
}

TEST(ShardedKvClientTest, PersistentReadNacksExhaustAttempts) {
  // Even a leader that keeps NACKing (leadership churn) must not loop:
  // the attempt budget bounds the pinned retries too.
  PoolMap M = makeUniformPoolMap(2, 4, 3, 0, 3);
  size_t Performs = 0;
  ShardedKvClient::Transport T;
  T.Perform = [&](const RouteRequest &, ShardedKvClient::ReplyFn Done) {
    ++Performs;
    GroupReply Rep;
    Rep.ReadNack = true;
    Done(Rep);
  };
  T.FetchMap = [&](ShardedKvClient::MapFn) {};
  ShardedKvClient C(M, std::move(T));
  bool Completed = false, Ok = true;
  C.submit(3, 1, /*IsRead=*/true,
           [&](const GroupReply &R) {
             Completed = true;
             Ok = R.Ok;
           },
           /*MaxAttempts=*/4);
  EXPECT_TRUE(Completed);
  EXPECT_FALSE(Ok);
  EXPECT_EQ(Performs, 4u);
  EXPECT_EQ(C.stats().ReadNacks, 4u);
  EXPECT_EQ(C.stats().Exhausted, 1u);
}

TEST(ShardedKvClientTest, ReadPinSurvivesMapRefresh) {
  // A pinned read that crosses a map change keeps its pin: the refetch
  // path must not silently un-pin and land back on a follower.
  PoolMap Old = makeUniformPoolMap(4, 16, 3, 0, 3);
  PoolMap New = Old;
  New.Generation = 2;
  for (GroupId &G : New.ShardToGroup)
    if (G == 1)
      G = 2;
  uint64_t Key = 0;
  while (Old.groupForKey(Key) != 1)
    ++Key;
  std::vector<RouteRequest> Seen;
  ShardedKvClient::Transport T;
  T.Perform = [&](const RouteRequest &R, ShardedKvClient::ReplyFn Done) {
    Seen.push_back(R);
    GroupReply Rep;
    if (Seen.size() == 1) {
      Rep.ReadNack = true; // follower can't serve: pin to leader
    } else if (R.MapGen < 2) {
      Rep.HasNack = true; // the pinned send hits a moved shard
      Rep.Nack.CurrentGen = 2;
    } else {
      Rep.Ok = true;
    }
    Done(Rep);
  };
  T.FetchMap = [&](ShardedKvClient::MapFn Done) { Done(New); };
  ShardedKvClient C(Old, std::move(T));
  bool Ok = false;
  C.submit(Key, 1, /*IsRead=*/true, [&](const GroupReply &R) { Ok = R.Ok; });
  EXPECT_TRUE(Ok);
  ASSERT_EQ(Seen.size(), 3u);
  EXPECT_FALSE(Seen[0].ReadAtLeader);
  EXPECT_TRUE(Seen[1].ReadAtLeader);
  EXPECT_TRUE(Seen[2].ReadAtLeader);
  EXPECT_EQ(Seen[2].Group, 2u);
  EXPECT_EQ(C.stats().ReadNacks, 1u);
  EXPECT_EQ(C.stats().WrongGroupNacks, 1u);
}

TEST(ShardedKvClientTest, PersistentNacksExhaustAttempts) {
  // A server that NACKs forever (with an ever-growing generation, so
  // the client keeps refetching a map that never actually helps) must
  // exhaust MaxAttempts and fail the op — not loop.
  PoolMap M = makeUniformPoolMap(2, 4, 3, 0, 3);
  uint64_t ServerGen = 1;
  size_t Performs = 0;
  ShardedKvClient::Transport T;
  T.Perform = [&](const RouteRequest &, ShardedKvClient::ReplyFn Done) {
    ++Performs;
    GroupReply Rep;
    Rep.HasNack = true;
    Rep.Nack.CurrentGen = ++ServerGen;
    Done(Rep);
  };
  T.FetchMap = [&](ShardedKvClient::MapFn Done) {
    PoolMap Newer = M;
    Newer.Generation = ServerGen;
    Done(Newer);
  };
  ShardedKvClient C(M, std::move(T));
  bool Called = false, Ok = true;
  C.submit(3, 1, false,
           [&](const GroupReply &R) {
             Called = true;
             Ok = R.Ok;
           },
           /*MaxAttempts=*/4);
  EXPECT_TRUE(Called);
  EXPECT_FALSE(Ok);
  EXPECT_EQ(Performs, 4u);
  EXPECT_EQ(C.stats().Exhausted, 1u);
}

TEST(ShardedKvClientTest, BackoffPacesRetriesAgainstAFlappingGroup) {
  // A group that flaps (rejects a while, then serves) must see retries
  // spread out by the jittered exponential backoff, not a storm of
  // back-to-back resends. The Sleep hook records each requested delay
  // on a virtual clock; the ladder must climb toward the cap.
  PoolMap M = makeUniformPoolMap(2, 4, 3, 0, 3);
  size_t Performs = 0;
  std::vector<uint64_t> Delays;
  ShardedKvClient::Transport T;
  T.Perform = [&](const RouteRequest &, ShardedKvClient::ReplyFn Done) {
    ++Performs;
    GroupReply Rep;
    if (Performs <= 5) {
      Rep.HasNack = true;
      Rep.Nack.CurrentGen = 1; // same generation: flapping, not stale
    } else {
      Rep.Ok = true;
    }
    Done(Rep);
  };
  T.FetchMap = [&](ShardedKvClient::MapFn Done) { Done(M); };
  T.Sleep = [&](uint64_t DelayUs, std::function<void()> Resume) {
    Delays.push_back(DelayUs);
    Resume(); // virtual time: record and continue immediately
  };
  BackoffOptions B;
  B.Seed = 42;
  B.BaseUs = 1000;
  B.MaxUs = 8000;
  ShardedKvClient C(M, std::move(T), B);
  bool Ok = false;
  C.submit(3, 1, false, [&](const GroupReply &R) { Ok = R.Ok; },
           /*MaxAttempts=*/8);
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Performs, 6u);
  // Every retry (all 5 of them) slept first: no immediate resends.
  ASSERT_EQ(Delays.size(), 5u);
  EXPECT_EQ(C.stats().BackoffSleeps, 5u);
  uint64_t Ceiling = B.BaseUs;
  uint64_t Total = 0;
  for (size_t I = 0; I != Delays.size(); ++I) {
    // Jitter stays inside [ceiling/2, ceiling] for the I-th rung.
    EXPECT_GE(Delays[I], Ceiling / 2) << "retry " << I;
    EXPECT_LE(Delays[I], Ceiling) << "retry " << I;
    Ceiling = Ceiling >= B.MaxUs / 2 ? B.MaxUs : Ceiling * 2;
    Total += Delays[I];
  }
  EXPECT_EQ(C.stats().BackoffUsTotal, Total);
  // The ladder reached the cap: the 5th rung's window is [4000, 8000].
  EXPECT_GE(Delays.back(), B.MaxUs / 2);
}

TEST(ShardedKvClientTest, FreshMapResetsTheBackoffLadder) {
  // A NACK explained by staleness (the refetched map is genuinely
  // newer) is not the group's fault: the retry on the fresh route goes
  // out immediately and the ladder restarts from BaseUs.
  PoolMap Old = makeUniformPoolMap(4, 16, 3, 0, 3);
  PoolMap New = Old;
  New.Generation = 2;
  for (GroupId &G : New.ShardToGroup)
    if (G == 1)
      G = 2;
  size_t Performs = 0;
  std::vector<uint64_t> Delays;
  ShardedKvClient::Transport T;
  T.Perform = [&](const RouteRequest &R, ShardedKvClient::ReplyFn Done) {
    ++Performs;
    GroupReply Rep;
    if (New.groupForShard(R.Shard) != R.Group || R.MapGen < New.Generation) {
      Rep.HasNack = true;
      Rep.Nack.CurrentGen = New.Generation;
    } else {
      Rep.Ok = true;
    }
    Done(Rep);
  };
  T.FetchMap = [&](ShardedKvClient::MapFn Done) { Done(New); };
  T.Sleep = [&](uint64_t DelayUs, std::function<void()> Resume) {
    Delays.push_back(DelayUs);
    Resume();
  };
  ShardedKvClient C(Old, std::move(T), BackoffOptions{});
  uint64_t Key = 0;
  while (Old.groupForKey(Key) != 1)
    ++Key;
  bool Ok = false;
  C.submit(Key, 1, false, [&](const GroupReply &R) { Ok = R.Ok; });
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Performs, 2u);
  // The one retry followed a map install — no sleep was taken.
  EXPECT_TRUE(Delays.empty());
  EXPECT_EQ(C.stats().BackoffSleeps, 0u);
}

TEST(ShardedKvClientTest, InstallMapIsStrictlyMonotone) {
  PoolMap M = makeUniformPoolMap(2, 4, 3, 0, 3);
  FakeTransport F;
  F.ServerMap = M;
  ShardedKvClient C(M, F.hooks());
  PoolMap Same = M;
  EXPECT_FALSE(C.installMap(Same)); // equal generation: rejected
  PoolMap Newer = M;
  Newer.Generation = 5;
  EXPECT_TRUE(C.installMap(Newer));
  EXPECT_EQ(C.map().Generation, 5u);
  EXPECT_FALSE(C.installMap(M)); // older: rejected
  EXPECT_EQ(C.map().Generation, 5u);
}
