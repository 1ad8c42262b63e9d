//===- sim/Cluster.h - Simulated Raft cluster + client --------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated deployment substrate for the Fig. 16 reproduction: a
/// set of executable RaftNodes connected by a latency/loss network model
/// over the discrete-event queue, plus a retrying client (with leader
/// redirect hints) and an admin interface for membership changes. All
/// latencies are virtual microseconds, so experiments are exactly
/// reproducible from a seed.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_SIM_CLUSTER_H
#define ADORE_SIM_CLUSTER_H

#include "sim/RaftNode.h"
#include "store/NodeStore.h"

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace adore {
namespace sim {

/// Network link model: uniform latency plus Bernoulli loss, duplication,
/// and occasional latency spikes (which reorder traffic: a spiked message
/// is overtaken by everything sent shortly after it).
struct LinkOptions {
  SimTime LatencyMinUs = 300;
  SimTime LatencyMaxUs = 1500;
  /// Chance (out of 1000) a message is silently dropped.
  unsigned DropPermille = 0;
  /// Chance (out of 1000) a message is delivered twice; the duplicate
  /// takes an independent latency draw, so it can arrive far later.
  unsigned DupPermille = 0;
  /// Chance (out of 1000) a message suffers a latency spike of up to
  /// ReorderJitterUs extra delay on top of the base draw.
  unsigned ReorderPermille = 0;
  SimTime ReorderJitterUs = 0;
};

/// Cluster-level knobs.
struct ClusterOptions {
  core::CoreOptions Node;
  LinkOptions Link;
  /// Client gives up waiting for a response and retries after this long.
  SimTime ClientTimeoutUs = 400000;
  /// Small pause before a redirected/failed retry.
  SimTime ClientRetryDelayUs = 5000;
  /// Back every node with a WAL+snapshot store on a shared in-memory
  /// fault-injecting disk: crash() powers the disk down (per StoreFaults)
  /// and restart() recovers from what survived instead of trusting
  /// memory. Off, crashes preserve durable state by fiat (the idealized
  /// model the store-backed mode is differentially tested against).
  bool DurableStore = false;
  /// Crash-time disk fault model (only meaningful with DurableStore).
  store::MemVfsFaults StoreFaults;
  /// WAL segment-rotation / snapshot-compaction thresholds.
  store::StoreOptions Store;
};

/// A whole simulated deployment: nodes, network, client, admin.
class Cluster {
public:
  /// \p Universe enumerates every node id that may ever participate
  /// (spares included); nodes outside the initial configuration start
  /// passive and awaken when a reconfiguration admits them.
  ///
  /// \p SharedQueue lets several Clusters (the sharded pool's groups)
  /// run interleaved in one virtual timeline; null means this cluster
  /// owns a private queue, which is the original single-group behavior
  /// byte-for-byte.
  Cluster(const ReconfigScheme &Scheme, Config InitialConf,
          NodeSet Universe, ClusterOptions Opts, uint64_t Seed,
          EventQueue *SharedQueue = nullptr);

  EventQueue &queue() { return *Q; }
  const ReconfigScheme &scheme() const { return *Scheme; }

  /// Arms all election timers.
  void start();

  /// Runs the simulation until some node leads (or \p MaxWait virtual
  /// time passes); returns the leader if one emerged.
  std::optional<NodeId> runUntilLeader(SimTime MaxWaitUs);

  /// The current leader with the highest term, if any.
  std::optional<NodeId> leader() const;

  /// The leader's configuration, else that of the first live active
  /// node, else the first node's. Fault drivers pick their next move
  /// against it.
  Config currentConfig() const;

  RaftNode &node(NodeId Id);
  const RaftNode &node(NodeId Id) const;
  const NodeSet &universe() const { return Universe; }

  /// Fault injection: fail-stop and restart a node.
  void crash(NodeId Id) { node(Id).crash(); }
  void restart(NodeId Id) { node(Id).restart(); }

  /// Network partition: splits the universe into \p SideA and the rest;
  /// messages crossing the cut are dropped until heal() is called.
  /// (Client/admin requests are not partitioned — the client is
  /// modeled as able to reach any node.)
  void partition(NodeSet SideA) { Partition = std::move(SideA); }
  void heal() { Partition.reset(); }
  bool isPartitioned() const { return Partition.has_value(); }

  /// Directional cut: messages From -> To are dropped while the reverse
  /// direction keeps flowing (asymmetric failures — a node that can send
  /// heartbeats but never hears the replies).
  void cutLink(NodeId From, NodeId To) { CutLinks.emplace(From, To); }
  void healLink(NodeId From, NodeId To) { CutLinks.erase({From, To}); }
  void healAllLinks() { CutLinks.clear(); }
  bool isLinkCut(NodeId From, NodeId To) const {
    return CutLinks.count({From, To}) != 0;
  }
  size_t activeCuts() const { return CutLinks.size(); }

  /// Swaps the live link model; the nemesis uses this for duplication
  /// storms and latency-spike phases.
  void setLinkOptions(const LinkOptions &Link) { Opts.Link = Link; }
  const LinkOptions &linkOptions() const { return Opts.Link; }

  /// Per-node clock skew (virtual microseconds, may be negative): the
  /// node's protocol handlers see queue-now + skew. This is the lease
  /// tiers' drift adversary — the clock-drift nemesis keeps skews
  /// within the declared CoreOptions::MaxDriftPpm envelope (or pushes
  /// beyond it to demonstrate the declared bound is load-bearing).
  void setClockSkew(NodeId Id, int64_t SkewUs) {
    node(Id).setClockSkew(SkewUs);
  }
  int64_t clockSkew(NodeId Id) const { return node(Id).clockSkew(); }

  //===--------------------------------------------------------------===//
  // Client and admin
  //===--------------------------------------------------------------===//

  /// Submits a command; \p Done fires (in virtual time) with success and
  /// the end-to-end latency once the command is committed and the
  /// response delivered, or with Ok=false if retries exhaust MaxTriesUs.
  void submit(MethodId Method,
              std::function<void(bool Ok, SimTime LatencyUs)> Done,
              SimTime MaxTriesUs = 5000000);

  /// Requests a membership change; \p Done fires when the entry commits
  /// somewhere (with latency) or the attempt times out.
  void requestReconfig(Config NewConf,
                       std::function<void(bool Ok, SimTime LatencyUs)> Done,
                       SimTime MaxTriesUs = 10000000);

  /// Linearizable read through the protocol read path. \p Done fires with
  /// success, the node that served the read, and the safe index it was
  /// served at — by then that node's applied state machine covers the
  /// index, so reading its replica is linearizable. With \p AtFollower
  /// the first attempt targets a live non-leader replica (tier-3
  /// follower reads); any failure falls back to the leader, mirroring
  /// the NACK retry-at-leader client policy.
  void read(std::function<void(bool Ok, NodeId Server, size_t SafeIndex,
                               SimTime LatencyUs)>
                Done,
            bool AtFollower = false, SimTime MaxTriesUs = 5000000);

  /// Registers a hook observing every (node, index, entry) application;
  /// hooks fire in registration order. Used by the replicated KV store
  /// and by the chaos harness's committed-ledger invariant.
  void addApplyHook(
      std::function<void(NodeId, size_t, const SimLogEntry &)> Hook) {
    ApplyHooks.push_back(std::move(Hook));
  }

  //===--------------------------------------------------------------===//
  // Inspection
  //===--------------------------------------------------------------===//

  /// Slot-by-slot agreement of committed prefixes across all nodes.
  std::optional<std::string> checkCommittedAgreement() const;

  size_t messagesSent() const { return MessagesSent; }
  /// Total drops, and the per-cause breakdown: partition/directional-cut
  /// drops vs. random Bernoulli loss.
  size_t messagesDropped() const { return DroppedByCut + DroppedByLoss; }
  size_t messagesDroppedByCut() const { return DroppedByCut; }
  size_t messagesDroppedByLoss() const { return DroppedByLoss; }
  size_t messagesDuplicated() const { return MessagesDuplicated; }

  /// Every election win observed, as term -> winner. A term that two
  /// distinct nodes claimed is an election-safety violation, reported by
  /// checkLeaderUniqueness().
  const std::map<Time, NodeId> &leadersByTerm() const {
    return LeadersByTerm;
  }
  std::optional<std::string> checkLeaderUniqueness() const {
    return LeaderOverlap;
  }

  /// Store-backed mode: recovery cross-check failures (recovered state
  /// diverging from the idealized in-memory copy) and unrecoverable
  /// directories. Always empty in in-memory mode.
  const std::vector<std::string> &storeViolations() const {
    return StoreViolationsVec;
  }

  /// Store-backed mode: per-node store counters summed cluster-wide.
  store::StoreStats storeStats() const;

  std::string dump() const;

private:
  struct PendingOp {
    bool IsReconfig = false;
    MethodId Method = 0;
    Config Conf;
    SimTime SubmittedAt = 0;
    SimTime Deadline = 0;
    uint64_t Attempt = 0;
    bool Settled = false;
    std::function<void(bool, SimTime)> Done;
  };

  struct PendingReadOp {
    SimTime SubmittedAt = 0;
    SimTime Deadline = 0;
    bool AtFollower = false;
    uint64_t Attempt = 0;
    bool Settled = false;
    std::function<void(bool, NodeId, size_t, SimTime)> Done;
  };

  void sendMsg(SimMsg M);
  void onApply(NodeId Node, size_t Index, const SimLogEntry &E);
  void noteLeader(NodeId Leader, Time Term);
  void attempt(uint64_t Seq);
  void settle(uint64_t Seq, bool Ok);
  NodeId pickTarget();
  void attemptRead(uint64_t Seq);
  void settleRead(uint64_t Seq, bool Ok, NodeId Server, size_t Index);
  void onReadDone(NodeId Server, uint64_t ReadId, bool Ok, size_t Index);

  const ReconfigScheme *Scheme;
  Config InitialConf;
  NodeSet Universe;
  ClusterOptions Opts;
  /// Owned when constructed without a shared queue; Q points at either
  /// OwnQueue or the caller's shared timeline.
  std::unique_ptr<EventQueue> OwnQueue;
  EventQueue *Q;
  Rng R;
  /// Declared before Nodes: stores must outlive the nodes holding
  /// pointers into them (destruction runs bottom-up).
  std::unique_ptr<store::MemVfs> Disk;
  std::map<NodeId, std::unique_ptr<store::NodeStore>> Stores;
  std::vector<std::string> StoreViolationsVec;
  std::map<NodeId, std::unique_ptr<RaftNode>> Nodes;
  std::map<uint64_t, PendingOp> Pending;
  uint64_t NextSeq = 1;
  std::map<uint64_t, PendingReadOp> PendingReads;
  /// Per-attempt core-level read id -> client read op. Each attempt
  /// gets a fresh id so a late outcome from an abandoned attempt can
  /// never settle a newer one.
  std::map<uint64_t, uint64_t> ReadAttemptToSeq;
  uint64_t NextReadSeq = 1;
  uint64_t NextReadAttemptId = 1;
  size_t MessagesSent = 0;
  size_t DroppedByCut = 0;
  size_t DroppedByLoss = 0;
  size_t MessagesDuplicated = 0;
  std::optional<NodeId> LastKnownLeader;
  std::optional<NodeSet> Partition;
  std::set<std::pair<NodeId, NodeId>> CutLinks;
  std::map<Time, NodeId> LeadersByTerm;
  std::optional<std::string> LeaderOverlap;
  std::vector<std::function<void(NodeId, size_t, const SimLogEntry &)>>
      ApplyHooks;
};

} // namespace sim
} // namespace adore

#endif // ADORE_SIM_CLUSTER_H
