//===- sim/ShardedCluster.cpp - N consensus groups, one timeline ------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/ShardedCluster.h"

#include <cassert>

using namespace adore;
using namespace adore::sim;
using adore::shard::GroupId;
using adore::shard::MetaGroupId;
using adore::shard::PoolMap;

ShardedCluster::ShardedCluster(const ReconfigScheme &Scheme,
                               ShardedClusterOptions Opts, uint64_t Seed)
    : Scheme(&Scheme), Opts(Opts),
      Maps(shard::makeUniformPoolMap(Opts.Groups, Opts.NumShards,
                                     Opts.Members, Opts.Spares,
                                     Opts.MetaMembers)) {
  assert(Opts.Groups >= 1 && "need at least one data group");
  assert(Opts.NumShards >= 1 && "need at least one shard");
  // Every group, server, and client boots already knowing generation 1:
  // the initial map is deployment configuration, not something learned.
  ServerView.assign(Opts.Groups + 1, Maps.committed());

  // One master RNG stream forks a seed per group, so group g's node
  // timers and network rolls are independent of how many other groups
  // exist before it in construction order.
  Rng Master(Seed);
  GroupClusters.resize(Opts.Groups + 1);
  for (GroupId G = 0; G <= Opts.Groups; ++G) {
    uint64_t GroupSeed = Master.next();
    NodeId Base = shard::groupIdBase(G);
    uint32_t InitialCount = G == MetaGroupId ? Opts.MetaMembers : Opts.Members;
    Config Initial(NodeSet::range(Base + 1, InitialCount));
    NodeSet Universe =
        G == MetaGroupId
            ? NodeSet::range(Base + 1, Opts.MetaMembers)
            : NodeSet::range(Base + 1, Opts.Members + Opts.Spares);
    GroupClusters[G] = std::make_unique<Cluster>(
        Scheme, Initial, Universe, Opts.Group, GroupSeed, &Queue);
  }
  // Drawn after every group fork so adding it left the per-group seed
  // streams (and thus all pre-existing runs) bit-identical.
  ClientSeed = Master.next();

  // The apply hook decides tickets; an installed map propagates to the
  // server views.
  meta().addApplyHook(
      [this](NodeId, size_t Index, const SimLogEntry &E) {
        if (E.Kind == raft::EntryKind::Method &&
            Maps.apply(Index, E.Method) && Maps.verdict(E.Method).value())
          broadcast(Maps.committed());
      });
}

Cluster &ShardedCluster::group(GroupId G) {
  assert(G < GroupClusters.size() && "unknown group");
  return *GroupClusters[G];
}

const Cluster &ShardedCluster::group(GroupId G) const {
  assert(G < GroupClusters.size() && "unknown group");
  return *GroupClusters[G];
}

void ShardedCluster::start() {
  for (auto &C : GroupClusters)
    C->start();
}

bool ShardedCluster::runUntilAllLeaders(SimTime MaxWaitUs) {
  auto AllLead = [this] {
    for (auto &C : GroupClusters)
      if (!C->leader())
        return false;
    return true;
  };
  SimTime Deadline = Queue.now() + MaxWaitUs;
  while (Queue.now() < Deadline && !AllLead())
    if (!Queue.runNext())
      break;
  return AllLead();
}

//===----------------------------------------------------------------------===//
// Pool map
//===----------------------------------------------------------------------===//

void ShardedCluster::proposeMap(PoolMap NewMap, std::function<void(bool)> Done,
                                SimTime MaxTriesUs) {
  assert(NewMap.valid() && "proposing a structurally invalid map");
  MethodId Ticket = Maps.propose(std::move(NewMap));
  meta().submit(
      Ticket,
      [this, Ticket, Done = std::move(Done)](bool Ok, SimTime) {
        // The apply hook ran before this response was scheduled, so the
        // install verdict for the ticket is already final on success.
        if (Done)
          Done(Ok && Maps.verdict(Ticket).value_or(false));
      },
      MaxTriesUs);
}

void ShardedCluster::broadcast(const PoolMap &M) {
  // Propagate to every group's server-side view after the broadcast
  // latency. Views only move forward; a broadcast overtaken by a newer
  // one is ignored at delivery.
  Queue.scheduleAfter(Opts.MapBroadcastLatencyUs, [this, M] {
    for (PoolMap &View : ServerView) {
      if (M.Generation < View.Generation) {
        ViewViolations.push_back(
            "server view generation regressed: broadcast gen " +
            std::to_string(M.Generation) + " onto view gen " +
            std::to_string(View.Generation));
        continue;
      }
      if (M.Generation > View.Generation)
        View = M;
    }
  });
}

std::vector<std::string> ShardedCluster::mapViolations() const {
  std::vector<std::string> All = Maps.violations();
  All.insert(All.end(), ViewViolations.begin(), ViewViolations.end());
  return All;
}

std::optional<shard::WrongGroupNack>
ShardedCluster::ingressCheck(GroupId G, uint32_t Shard,
                             uint64_t ClientGen) const {
  assert(G != MetaGroupId && G <= Opts.Groups && "not a data group");
  const PoolMap &View = ServerView[G];
  if (View.groupForShard(Shard) != G || ClientGen < View.Generation)
    return shard::WrongGroupNack{View.Generation};
  return std::nullopt;
}

void ShardedCluster::fetchMap(
    std::function<void(const PoolMap &)> Done) {
  Queue.scheduleAfter(Opts.MapFetchLatencyUs,
                      [this, Done = std::move(Done)] {
                        Done(Maps.committed());
                      });
}
