//===- rt/ShardedRt.cpp - Multi-group pool on the rt runtime ----------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rt/ShardedRt.h"

#include "support/Rng.h"

#include <chrono>

using namespace adore;
using namespace adore::rt;

ShardedRtCluster::ShardedRtCluster(ShardedRtOptions O)
    : Opts(std::move(O)), Net(makeTransport(Opts.Group.Transport)),
      Maps(shard::makeUniformPoolMap(static_cast<uint32_t>(Opts.Groups),
                                     Opts.NumShards,
                                     static_cast<uint32_t>(Opts.Members),
                                     static_cast<uint32_t>(Opts.Spares),
                                     static_cast<uint32_t>(Opts.MetaMembers))) {

  // One master seed stream, forked per group in group order (meta
  // first), mirroring the simulator's ShardedCluster.
  Rng Master(Opts.Group.Seed);
  for (shard::GroupId G = 0; G <= static_cast<shard::GroupId>(Opts.Groups);
       ++G) {
    RtClusterOptions GO = Opts.Group;
    GO.IdBase = shard::groupIdBase(G);
    GO.SharedNet = Net.get();
    GO.Seed = Master.next();
    GO.StoreDirPrefix = "g" + std::to_string(G) + "/";
    if (G == shard::MetaGroupId) {
      GO.NumNodes = Opts.MetaMembers;
      GO.NumSpares = 0;
      GO.OnApplyExtra = [this](NodeId, size_t I, const core::LogEntry &E) {
        onMetaApply(I, E);
      };
    } else {
      GO.NumNodes = Opts.Members;
      GO.NumSpares = Opts.Spares;
      // Data groups keep the caller's tap (the meta group's slot is
      // taken by the pool-map state machine above): open-loop load
      // generators track completion through it.
      GO.OnApplyExtra = Opts.Group.OnApplyExtra;
    }
    GroupClusters.push_back(std::make_unique<RtCluster>(GO));
  }
}

ShardedRtCluster::~ShardedRtCluster() { stop(); }

void ShardedRtCluster::start() {
  for (auto &C : GroupClusters)
    C->start();
}

void ShardedRtCluster::stop() {
  for (auto &C : GroupClusters)
    C->stop();
}

bool ShardedRtCluster::waitForAllLeaders(uint64_t TimeoutMs) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMs);
  for (auto &C : GroupClusters) {
    auto Now = std::chrono::steady_clock::now();
    if (Now >= Deadline)
      return false;
    uint64_t LeftMs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Deadline - Now)
            .count());
    if (C->waitForLeader(LeftMs) == InvalidNodeId)
      return false;
  }
  return true;
}

shard::PoolMap ShardedRtCluster::committedMap() const {
  sync::MutexLock Lock(MapMu);
  return Maps.committed();
}

uint64_t ShardedRtCluster::mapChangesCommitted() const {
  sync::MutexLock Lock(MapMu);
  return Maps.changes();
}

std::vector<std::string> ShardedRtCluster::mapViolations() const {
  sync::MutexLock Lock(MapMu);
  return Maps.violations();
}

std::optional<shard::WrongGroupNack>
ShardedRtCluster::ingressCheck(shard::GroupId G, uint32_t Shard,
                               uint64_t ClientGen) const {
  sync::MutexLock Lock(MapMu);
  const shard::PoolMap &Committed = Maps.committed();
  if (Committed.groupForShard(Shard) != G || ClientGen < Committed.Generation)
    return shard::WrongGroupNack{Committed.Generation};
  return std::nullopt;
}

bool ShardedRtCluster::proposeMap(const shard::PoolMap &NewMap,
                                  uint64_t TimeoutMs) {
  MethodId Ticket;
  {
    sync::MutexLock Lock(MapMu);
    if (!NewMap.valid() ||
        NewMap.Generation != Maps.committed().Generation + 1)
      return false;
    Ticket = Maps.propose(NewMap);
  }
  if (!meta().submitAndWait(Ticket, TimeoutMs))
    return false;
  // The apply tap runs before the cluster's commitment bookkeeping, so
  // by the time submitAndWait observed the commit the ticket is
  // normally already decided; the wait below only covers the window
  // where a *different* replica's apply satisfied the ledger first.
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMs);
  sync::MutexLock Lock(MapMu);
  while (!Maps.verdict(Ticket)) {
    auto Retry =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(40);
    if (MapCv.waitUntil(MapMu, Retry) == std::cv_status::timeout &&
        std::chrono::steady_clock::now() >= Deadline)
      break;
  }
  return Maps.verdict(Ticket).value_or(false);
}

void ShardedRtCluster::onMetaApply(size_t Index, const core::LogEntry &E) {
  if (E.Kind != raft::EntryKind::Method)
    return;
  sync::MutexLock Lock(MapMu);
  if (Maps.apply(Index, E.Method))
    MapCv.notifyAll();
}
