//===- kv/ShardedKv.cpp - Sharded replicated KV store -----------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "kv/ShardedKv.h"

#include <cassert>

using namespace adore;
using namespace adore::kv;
using adore::shard::GroupId;
using sim::SimTime;

ShardedKvObserver::~ShardedKvObserver() = default;

ShardedKvStore::ShardedKvStore(sim::ShardedCluster &Pool) : Pool(Pool) {
  GroupStores.resize(Pool.dataGroups() + 1);
  for (GroupId G = 1; G <= Pool.dataGroups(); ++G)
    GroupStores[G] = std::make_unique<ReplicatedKvStore>(Pool.group(G));

  shard::ShardedKvClient::Transport T;
  T.Perform = [this](const shard::RouteRequest &Req,
                     shard::ShardedKvClient::ReplyFn Done) {
    // Server-side admission first: a stale-routed request never reaches
    // the group's consensus path. The NACK costs one round trip.
    if (auto Nack =
            this->Pool.ingressCheck(Req.Group, Req.Shard, Req.MapGen)) {
      shard::GroupReply R;
      R.HasNack = true;
      R.Nack = *Nack;
      this->Pool.queue().scheduleAfter(
          this->Pool.options().MapFetchLatencyUs,
          [Done = std::move(Done), R] { Done(R); });
      return;
    }
    ReplicatedKvStore &Store = groupStore(Req.Group);
    KvOp Op = decodeKvOp(Req.Payload);
    if (Req.IsRead) {
      // An un-pinned read starts at a follower. One the group cannot
      // prove safe within the budget comes back as a ReadNack, and the
      // routing client re-sends it with ReadAtLeader set; a pinned read
      // that fails is a plain failure.
      bool Pinned = Req.ReadAtLeader;
      Store.get(
          Op.Key,
          [Pinned, Done = std::move(Done)](bool Ok, std::optional<uint32_t> V,
                                           SimTime) {
            shard::GroupReply R;
            R.Ok = Ok;
            R.ReadNack = !Ok && !Pinned;
            R.HasValue = V.has_value();
            R.Value = V.value_or(0);
            Done(R);
          },
          /*AtFollower=*/!Pinned, OpTimeoutUs);
      return;
    }
    auto Reply = [Done = std::move(Done)](bool Ok, SimTime) {
      shard::GroupReply R;
      R.Ok = Ok;
      Done(R);
    };
    if (Op.Kind == KvOpKind::Del)
      Store.del(Op.Key, std::move(Reply), OpTimeoutUs);
    else
      Store.put(Op.Key, Op.Value, std::move(Reply), OpTimeoutUs);
  };
  T.FetchMap = [this](shard::ShardedKvClient::MapFn Done) {
    this->Pool.fetchMap(std::move(Done));
  };
  T.Sleep = [this](uint64_t DelayUs, std::function<void()> Resume) {
    this->Pool.queue().scheduleAfter(DelayUs, std::move(Resume));
  };
  shard::BackoffOptions Backoff;
  Backoff.Seed = Pool.clientSeed();
  Client = std::make_unique<shard::ShardedKvClient>(Pool.committedMap(),
                                                    std::move(T), Backoff);
}

ReplicatedKvStore &ShardedKvStore::groupStore(GroupId G) {
  assert(G != shard::MetaGroupId && G < GroupStores.size() &&
         "not a data group");
  return *GroupStores[G];
}

bool ShardedKvStore::replicasAgree() const {
  for (const auto &Store : GroupStores)
    if (Store && !Store->replicasAgree())
      return false;
  return true;
}

void ShardedKvStore::submit(
    OpKindTag Kind, uint32_t Key, uint32_t Value,
    std::function<void(bool, std::optional<uint32_t>, SimTime)> Done) {
  uint64_t OpId = NextOpId++;
  SimTime Start = Pool.queue().now();
  const shard::PoolMap &Map = Client->map();
  if (Observer) {
    uint32_t Shard = shard::shardForKey(Key, Map.NumShards);
    auto Type = Kind == OpKindTag::Put   ? ShardedKvObserver::OpType::Put
                : Kind == OpKindTag::Del ? ShardedKvObserver::OpType::Del
                                         : ShardedKvObserver::OpType::Get;
    Observer->onInvoke(OpId, Type, Key, Value, Shard,
                       Map.groupForShard(Shard), Start);
  }
  KvOp Op;
  Op.Kind = Kind == OpKindTag::Put   ? KvOpKind::Put
            : Kind == OpKindTag::Del ? KvOpKind::Del
                                     : KvOpKind::Noop;
  Op.Key = Key;
  Op.Value = Value;
  Client->submit(
      Key, encodeKvOp(Op), Kind == OpKindTag::Get,
      [this, OpId, Start,
       Done = std::move(Done)](const shard::GroupReply &R) {
        SimTime Now = Pool.queue().now();
        std::optional<uint32_t> V;
        if (R.Ok && R.HasValue)
          V = R.Value;
        if (Observer)
          Observer->onReturn(OpId, R.Ok, V, Now);
        if (Done)
          Done(R.Ok, V, Now - Start);
      });
}

void ShardedKvStore::put(uint32_t Key, uint32_t Value,
                         std::function<void(bool, SimTime)> Done) {
  submit(OpKindTag::Put, Key, Value,
         [Done = std::move(Done)](bool Ok, std::optional<uint32_t>,
                                  SimTime Latency) {
           if (Done)
             Done(Ok, Latency);
         });
}

void ShardedKvStore::del(uint32_t Key,
                         std::function<void(bool, SimTime)> Done) {
  submit(OpKindTag::Del, Key, 0,
         [Done = std::move(Done)](bool Ok, std::optional<uint32_t>,
                                  SimTime Latency) {
           if (Done)
             Done(Ok, Latency);
         });
}

void ShardedKvStore::get(
    uint32_t Key,
    std::function<void(bool, std::optional<uint32_t>, SimTime)> Done) {
  submit(OpKindTag::Get, Key, 0, std::move(Done));
}
