//===- rt/RtCluster.h - Threaded cluster harness --------------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A harness wiring several RtNode replicas to one in-process Bus, with
/// the shared bookkeeping real deployments get from clients and external
/// checkers: a first-apply-wins committed ledger, per-term leader
/// observation for election safety, and client helpers that retry
/// submissions until they observe commitment. Everything here runs on
/// real threads against the wall clock; determinism is NOT a goal of
/// this runtime (the simulator owns that) — safety under genuine
/// concurrency is.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_RT_RTCLUSTER_H
#define ADORE_RT_RTCLUSTER_H

#include "rt/Bus.h"
#include "rt/RtNode.h"
#include "rt/Transport.h"
#include "store/NodeStore.h"
#include "support/Sync.h"

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

namespace adore {
namespace rt {

/// Which Transport implementation an RtCluster (or sharded pool) wires
/// its nodes to when it owns the fabric itself.
enum class TransportKind : uint8_t {
  Bus, ///< In-process rt::Bus, synchronous delivery (the default).
  Tcp, ///< Loopback TCP via net::TcpTransport (epoll loop thread).
};

/// Knobs for an RtCluster run. Core timeouts default much faster than
/// the simulator's so smoke tests converge in tens of milliseconds.
struct RtClusterOptions {
  SchemeKind Scheme = SchemeKind::RaftSingleNode;
  size_t NumNodes = 3;
  /// Extra replicas beyond NumNodes, created but left out of the
  /// initial configuration (passive until a reconfig adopts them).
  /// Sharded pools draw migration targets from these.
  size_t NumSpares = 0;
  /// Node ids are IdBase+1 .. IdBase+NumNodes+NumSpares. A sharded pool
  /// gives each group a disjoint base (shard::groupIdBase), which is
  /// what makes frames on a shared bus group-tagged: the endpoint id
  /// itself names the group.
  NodeId IdBase = 0;
  /// The fabric the cluster creates when it owns one (SharedNet unset).
  TransportKind Transport = TransportKind::Bus;
  /// Attach the nodes to this caller-owned transport instead of an
  /// internal one; must outlive the cluster (Transport is then
  /// ignored). This is the rt multiplexing seam: N groups on one
  /// fabric, kept apart purely by disjoint endpoint ids.
  rt::Transport *SharedNet = nullptr;
  /// Host-side tuning applied to every node (inbox batch draining for
  /// WAL group commit).
  RtHostOptions Host;
  /// Prepended to every node's store directory ("g2/" makes node 2001
  /// persist under "g2/n2001"), so groups sharing one disk stay apart.
  std::string StoreDirPrefix;
  /// Observation tap called on every apply (same arguments as the
  /// internal hook, global node ids), OUTSIDE the cluster's locks — a
  /// sharded pool hangs its map state machine off the meta group here.
  /// Like every hook it runs on whichever thread steps the node: its
  /// worker, the TCP loop, a Bus poster, or a client inside
  /// submitAndWait/readAndWait/reconfigAndWait/submitAsync. So no
  /// caller of those may hold a lock the tap takes.
  std::function<void(NodeId, size_t, const core::LogEntry &)> OnApplyExtra;
  /// Observation tap for suspicion transitions (observer, peer,
  /// suspected-now), called on the stepping thread (as OnApplyExtra)
  /// outside the cluster's locks. The self-healing driver hangs its
  /// Healer off this.
  std::function<void(NodeId, NodeId, bool)> OnSuspicion;
  uint64_t Seed = 1;
  core::CoreOptions Node = fastNodeOptions();
  /// Back every node with a WAL+snapshot store on a shared in-memory
  /// fault-injecting disk; crash() then costs whatever StoreFaults says
  /// a power cut costs, and restart() recovers from the disk.
  bool DurableStore = false;
  store::MemVfsFaults StoreFaults;
  store::StoreOptions Store;
  /// With DurableStore: persist to this caller-owned Vfs (e.g. a
  /// PosixVfs over real files) instead of the internal fault-injecting
  /// MemVfs. crash() is then a pure fail-stop — a real disk keeps what
  /// it holds — and restart() recovers from it. Must outlive the
  /// cluster; StoreFaults is ignored.
  store::Vfs *ExternalDisk = nullptr;

  static const char *transportName(TransportKind K) {
    return K == TransportKind::Tcp ? "tcp" : "bus";
  }

  static core::CoreOptions fastNodeOptions() {
    core::CoreOptions O;
    O.ElectionTimeoutMinUs = 50000;
    O.ElectionTimeoutMaxUs = 100000;
    O.HeartbeatUs = 15000;
    return O;
  }
};

/// Creates an owned fabric of the given kind (rt::Bus or the TCP
/// backend); the seam every harness that owns its transport goes
/// through.
std::unique_ptr<Transport> makeTransport(TransportKind K);

/// Owns the bus, the nodes, and the cross-node observations.
class RtCluster {
public:
  explicit RtCluster(RtClusterOptions Opts);
  ~RtCluster();

  RtCluster(const RtCluster &) = delete;
  RtCluster &operator=(const RtCluster &) = delete;

  /// Starts every node's worker thread. Safe to race with stop().
  void start() ADORE_EXCLUDES(LifeMu);

  /// Stops and joins every node. Idempotent; called by the destructor.
  void stop() ADORE_EXCLUDES(LifeMu);

  size_t numNodes() const { return Nodes.size(); }

  /// All replica ids, initial members and spares alike (global ids,
  /// i.e. including IdBase).
  NodeSet universe() const;

  /// The configuration some node claiming leadership currently runs
  /// under, or the initial configuration if nobody leads. Advisory (the
  /// answer can be stale by the time it returns); migration drivers use
  /// it to pick the next reconfig candidate.
  Config currentConfig() const;

  /// Blocks until some live node reports itself leader, or \p TimeoutMs
  /// elapses. Returns the leader's id or InvalidNodeId.
  NodeId waitForLeader(uint64_t TimeoutMs) const;

  /// Submits \p Method with a fresh client sequence number, re-posting
  /// it (same sequence number — at-least-once, deduplicated by the
  /// ledger check) to rotating targets until it shows up committed or
  /// \p TimeoutMs elapses. Returns true on observed commitment.
  bool submitAndWait(MethodId Method, uint64_t TimeoutMs);

  /// Fire-and-forget client command with a caller-chosen sequence
  /// number: posted once to the node currently claiming leadership
  /// (round-robin fallback by \p Rotor), with NO commitment wait.
  /// Open-loop load generators track completion through OnApplyExtra
  /// by ClientSeq; caller-chosen sequence numbers must stay disjoint
  /// from submitAndWait's internal allocator (which counts up from 1).
  void submitAsync(MethodId Method, uint64_t ClientSeq, size_t Rotor = 0);

  /// Asks nodes to commit a membership change to \p NewConf; returns
  /// true once a Reconfig entry carrying it is observed committed.
  bool reconfigAndWait(const Config &NewConf, uint64_t TimeoutMs);

  /// Issues a linearizable read through the core's read path and
  /// blocks until it resolves or \p TimeoutMs elapses. Targets the node
  /// currently claiming leadership, or — with \p AtFollower — a
  /// non-leader replica, falling back to the leader when the follower
  /// NACKs. Returns the safe index the read was served at, or nullopt.
  /// Every successful read is checked against the committed ledger
  /// size snapshotted before issue; a safe index below it is recorded
  /// as a stale-read violation.
  std::optional<size_t> readAndWait(uint64_t TimeoutMs,
                                    bool AtFollower = false);

  /// State-level fail-stop / recovery of one node (thread keeps
  /// running; see RtNode).
  void crash(NodeId Id);
  void restart(NodeId Id);

  /// Point-in-time status snapshot of one node (any thread, advisory).
  RtNodeStatus nodeStatus(NodeId Id) const;

  /// Post-stop core access for metrics aggregation (see
  /// RtNode::coreForInspection for the safety contract).
  const core::RaftCore &coreForInspection(NodeId Id) const;

  const ReconfigScheme &scheme() const { return *Scheme; }
  Config initialConfig() const { return InitialConf; }

  /// Number of entries in the shared committed ledger.
  size_t committedCount() const;

  /// Cross-thread safety violations observed while running (divergent
  /// applies at one index, two leaders in one term).
  std::vector<std::string> violations() const;

  /// Post-stop whole-cluster audit: every node's applied prefix must
  /// match the shared ledger, and (store-backed) no node may have
  /// observed a recovery mismatch. Call ONLY after stop(); appends to
  /// and returns the violation list.
  std::vector<std::string> checkFinalAgreement();

  /// Store-backed mode: per-node store counters summed cluster-wide.
  store::StoreStats storeStats() const;

  /// Broadcasts that woke the clients waiting in submitAndWait,
  /// reconfigAndWait and readAndWait: one per new ledger entry and one
  /// per read answer an attempt still awaits.
  uint64_t observerBroadcasts() const;

  /// Read slots held: one per readAndWait attempt in progress. Zero
  /// once no read is waiting, however late abandoned answers land.
  size_t readResultCount() const;

private:
  void onApply(NodeId Node, size_t Index, const core::LogEntry &E)
      ADORE_EXCLUDES(ObsMu);
  void onLeader(NodeId Node, Time Term) ADORE_EXCLUDES(ObsMu);
  void onReadDone(NodeId Node, uint64_t ReadId, bool Ok, size_t Index)
      ADORE_EXCLUDES(ObsMu);
  bool confCommittedLocked(const Config &NewConf) const
      ADORE_REQUIRES(ObsMu);
  void notifyObservers() ADORE_REQUIRES(ObsMu);

  RtClusterOptions Opts;
  std::unique_ptr<ReconfigScheme> Scheme;
  Config InitialConf;
  /// Owned unless Opts.SharedNet points at a caller's transport (the
  /// sharded pool seam); Net is the one actually wired to the nodes.
  std::unique_ptr<Transport> OwnNet;
  Transport *Net;
  /// Declared before Nodes: stores must outlive the nodes holding
  /// pointers into them (destruction runs bottom-up, after stop()).
  std::unique_ptr<store::MemVfs> Disk;
  std::vector<std::unique_ptr<store::NodeStore>> Stores;
  std::vector<std::unique_ptr<RtNode>> Nodes;

  /// Serializes start()/stop(); no node step takes it, so stop() may
  /// join the workers and wait out inline steps while holding it. Never
  /// hold ObsMu across a lifecycle call: the steps' observation
  /// callbacks need ObsMu to drain.
  mutable sync::Mutex LifeMu;
  bool Running ADORE_GUARDED_BY(LifeMu) = false;

  mutable sync::Mutex ObsMu; ///< Guards everything below.
  mutable sync::CondVar ObsCv;
  std::map<size_t, core::LogEntry> Ledger
      ADORE_GUARDED_BY(ObsMu); ///< First apply at each index wins.
  std::set<uint64_t> CommittedSeqs
      ADORE_GUARDED_BY(ObsMu); ///< ClientSeq of committed methods.
  std::vector<Config> CommittedConfs
      ADORE_GUARDED_BY(ObsMu); ///< Committed reconfig targets.
  std::map<Time, std::set<NodeId>> LeadersByTerm ADORE_GUARDED_BY(ObsMu);
  std::vector<std::string> Violations ADORE_GUARDED_BY(ObsMu);
  uint64_t NextClientSeq ADORE_GUARDED_BY(ObsMu) = 1;
  uint64_t Broadcasts ADORE_GUARDED_BY(ObsMu) = 0;
  /// Outcome of a resolved read: Ok plus the safe index it was served
  /// at. Keyed by the cluster-allocated ReadId; each attempt uses a
  /// fresh id so late answers from abandoned attempts stay distinct.
  struct ReadOutcome {
    bool Ok = false;
    size_t Index = 0;
  };
  /// One slot per attempt still waiting, empty until answered; an
  /// answer for an id with no slot is dropped.
  std::map<uint64_t, std::optional<ReadOutcome>>
      ReadResults ADORE_GUARDED_BY(ObsMu);
  uint64_t NextReadId ADORE_GUARDED_BY(ObsMu) = 1;
};

} // namespace rt
} // namespace adore

#endif // ADORE_RT_RTCLUSTER_H
