//===- kv/ShardedKv.h - Sharded replicated KV store -----------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded face of the Fig. 2 KV store: the same put/del/get API,
/// but keys are spread across N consensus groups by the pool map. This
/// class is the *host* binding of the pure shard::ShardedKvClient — it
/// supplies the client's transport (server-side ingress checks against
/// the simulated pool, dispatch into per-group ReplicatedKvStores, map
/// refetches) and adds the history observer hookup the chaos harness
/// records cross-shard runs through.
///
/// Each data group keeps its own ReplicatedKvStore, so commit barriers,
/// exactly-once client sequences, and replica convergence all stay
/// group-local; only routing is global.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_KV_SHARDEDKV_H
#define ADORE_KV_SHARDEDKV_H

#include "kv/KvStore.h"
#include "shard/ShardedKvClient.h"
#include "sim/ShardedCluster.h"

#include <memory>
#include <vector>

namespace adore {
namespace kv {

/// Observer of the sharded client-visible operation lifecycle: the
/// single-group KvClientObserver contract extended with the placement
/// tags (shard, owning group under the routing map at invocation time)
/// the cross-shard history recorder needs.
class ShardedKvObserver {
public:
  using OpType = KvClientObserver::OpType;

  virtual ~ShardedKvObserver();

  virtual void onInvoke(uint64_t OpId, OpType Type, uint32_t Key,
                        uint32_t Value, uint32_t Shard, shard::GroupId Group,
                        sim::SimTime At) = 0;
  virtual void onReturn(uint64_t OpId, bool Ok,
                        std::optional<uint32_t> Value, sim::SimTime At) = 0;
};

/// Sharded SMR-style store over a simulated pool. One logical client:
/// ops are recorded once at this boundary no matter how many wrong-group
/// NACK retries they take underneath.
class ShardedKvStore {
public:
  explicit ShardedKvStore(sim::ShardedCluster &Pool);

  /// Per-routed-attempt budget handed to the owning group's store.
  void setOpTimeout(sim::SimTime TimeoutUs) { OpTimeoutUs = TimeoutUs; }

  /// Serve un-pinned reads through the lease-protected fast path
  /// (ReplicatedKvStore::getFast, at a follower) instead of the leader
  /// commit barrier. Fast only when the pool's groups hold leases (a
  /// lease read tier); a fast read the group cannot prove safe comes
  /// back as a GroupReply::ReadNack, which the routing client answers by
  /// re-sending the read pinned to the leader. Default off: every legacy
  /// sharded run keeps the barrier-read path byte-identical.
  void setFollowerReads(bool On) { FollowerReads = On; }

  void put(uint32_t Key, uint32_t Value,
           std::function<void(bool Ok, sim::SimTime LatencyUs)> Done);
  void del(uint32_t Key,
           std::function<void(bool Ok, sim::SimTime LatencyUs)> Done);
  void get(uint32_t Key,
           std::function<void(bool Ok, std::optional<uint32_t> Value,
                              sim::SimTime LatencyUs)>
               Done);

  /// Installs the history observer (nullptr to detach). Not owned.
  void setObserver(ShardedKvObserver *O) { Observer = O; }

  /// The group-local store of data group \p G, for invariant checks.
  ReplicatedKvStore &groupStore(shard::GroupId G);

  /// True iff every group's replicas (at equal applied counts) agree.
  bool replicasAgree() const;

  /// Routing statistics of the underlying sans-I/O client.
  const shard::RouteStats &routeStats() const { return Client->stats(); }

private:
  /// Private scaffolding for the shared submit path.
  enum class OpKindTag : uint8_t { Put, Del, Get };

  void submit(OpKindTag Kind, uint32_t Key, uint32_t Value,
              std::function<void(bool, std::optional<uint32_t>,
                                 sim::SimTime)>
                  Done);

  sim::ShardedCluster &Pool;
  /// Indexed by GroupId; slot 0 (metadata group) stays empty.
  std::vector<std::unique_ptr<ReplicatedKvStore>> GroupStores;
  std::unique_ptr<shard::ShardedKvClient> Client;
  sim::SimTime OpTimeoutUs = 1500000;
  bool FollowerReads = false;
  uint64_t NextOpId = 1;
  ShardedKvObserver *Observer = nullptr;
};

} // namespace kv
} // namespace adore

#endif // ADORE_KV_SHARDEDKV_H
