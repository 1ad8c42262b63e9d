//===- sim/RaftNode.h - Simulator host for the Raft core ------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrete-event-simulator host for core::RaftCore: a thin adapter
/// that feeds the sans-I/O protocol core its inputs (messages, timer
/// firings, client commands) and maps the returned effect list onto the
/// sim::EventQueue — Send becomes the cluster's latency/loss network
/// callback, SetTimer becomes a scheduled callback that re-enters the
/// core with the carried generation, and the observer effects reach
/// the core::HostHooks table. The dispatch itself is core/Host.h's.
/// No protocol logic lives here; role transitions, quorum checks, log
/// truncation, and reconfiguration guards are all core::RaftCore's.
///
/// Effects are executed strictly in emission order, which reproduces the
/// pre-extraction event schedule exactly: chaos scenario seeds yield
/// byte-identical histories through this adapter.
///
/// This is the analog of the paper's extracted-OCaml Raft (Section 7):
/// where they extracted Coq to OCaml and ran on EC2, we run the one
/// executable core over a simulated network with calibrated latencies,
/// which reproduces the *shape* of Fig. 16 (latency blips at
/// reconfiguration points within the normal spike range).
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_SIM_RAFTNODE_H
#define ADORE_SIM_RAFTNODE_H

#include "core/Host.h"
#include "sim/EventQueue.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace adore {

namespace store {
class NodeStore;
} // namespace store

namespace sim {

/// Replica roles (the core's, re-exported for existing call sites).
using Role = core::Role;
using core::roleName;

/// One slot of the executable node's log.
using SimLogEntry = core::LogEntry;

/// Wire messages of the executable protocol.
using SimMsg = core::Msg;

/// A single simulated replica: core::RaftCore + effect plumbing.
class RaftNode {
public:
  /// \p Send transmits a message (the host applies latency/loss).
  /// \p Hooks observe applies, elections, suspicion and reads (see
  /// core::HostHooks). \p Store, when non-null, makes persistence real:
  /// durable state flows through the WAL before any effect of a
  /// Persist-carrying batch executes, crash() powers the store's disk
  /// down, and restart() recovers from what survived instead of
  /// trusting memory.
  RaftNode(NodeId Id, const ReconfigScheme &Scheme, Config InitialConf,
           core::CoreOptions Opts, EventQueue &Queue, uint64_t Seed,
           std::function<void(SimMsg)> Send, core::HostHooks Hooks,
           store::NodeStore *Store = nullptr);

  /// Arms the first election timeout; call once at cluster start.
  void start() { dispatch(Core.start()); }

  /// Delivers a message to this node.
  void receive(const SimMsg &M) {
    dispatch(Core.onMessage(M, nowUs()));
  }

  /// Fail-stop: the node ignores messages and timers until restarted.
  /// Store-backed nodes lose whatever the fault model says a power cut
  /// costs (the un-fsynced suffix, torn or garbage-tailed).
  void crash();

  /// Restart after a crash. In-memory mode, persistent state (term,
  /// vote, log) survives by fiat; store-backed nodes recover it from
  /// disk and cross-check the result against the idealized copy.
  void restart();

  /// Where store-backed recovery mismatches are reported (the cluster
  /// points this at its violation list).
  void setStoreViolationSink(std::vector<std::string> *Sink) {
    StoreViolations = Sink;
  }

  //===--------------------------------------------------------------===//
  // Leader-side API (cluster/client facing)
  //===--------------------------------------------------------------===//

  /// Appends a client command; returns false if not leader. Replication
  /// starts immediately.
  bool submit(MethodId Method, uint64_t ClientSeq);

  /// Appends a reconfiguration if the R1+/R2/R3 guards pass and this
  /// leader stays a member; returns false otherwise.
  bool requestReconfig(const Config &NewConf);

  /// Leadership transfer (Raft 3.10): tells \p Target — which must be a
  /// member and caught up — to elect immediately, and steps this leader
  /// out of the way. Returns false if not leader or the target lags.
  bool transferLeadership(NodeId Target);

  /// Starts a linearizable read (core::RaftCore::readQuery). The read
  /// hook fires with the outcome — possibly synchronously, before this
  /// returns. Returns false if the core failed it synchronously.
  bool read(uint64_t ReadId);

  /// The node's observers. Harnesses that attach to a node after
  /// construction (the heal drivers' suspicion taps, a test's read
  /// probe) replace entries here.
  core::HostHooks &hooks() { return Hooks; }

  /// Skews this node's protocol clock: every NowUs the core observes
  /// (message receipt, timer firing, read submission) is offset by
  /// \p SkewUs from virtual time. Timers still *fire* on queue time —
  /// drift misleads lease/stickiness arithmetic, it does not reorder
  /// the event loop. The clock-drift nemesis drives this.
  void setClockSkew(int64_t SkewUs) { ClockSkewUs = SkewUs; }
  int64_t clockSkew() const { return ClockSkewUs; }

  //===--------------------------------------------------------------===//
  // Introspection (forwarded to the core)
  //===--------------------------------------------------------------===//

  NodeId id() const { return Core.id(); }
  Role role() const { return Core.role(); }
  bool isLeader() const { return Core.isLeader(); }
  Time term() const { return Core.term(); }
  size_t commitIndex() const { return Core.commitIndex(); }
  size_t logSize() const { return Core.logSize(); }
  const SimLogEntry &entry(size_t Index1) const {
    return Core.entry(Index1);
  }
  /// The configuration currently in force (hot semantics).
  Config config() const { return Core.config(); }
  /// The leader this node last heard from (its redirect hint).
  std::optional<NodeId> leaderHint() const { return Core.leaderHint(); }
  /// True once the node has observed its own committed removal and
  /// gone passive.
  bool isPassive() const { return Core.isPassive(); }
  /// True while crashed (ignores everything).
  bool isCrashed() const { return Core.isCrashed(); }

  std::string describe() const { return Core.describe(); }

  /// The hosted protocol core (read-only), for tests that inspect core
  /// state directly.
  const core::RaftCore &core() const { return Core; }

private:
  /// Executes the core's effects through core::dispatchEffects against
  /// the event queue, the store and the hooks.
  void dispatch(core::Effects Effs);

  /// The node's (possibly skewed) protocol clock, clamped at zero.
  uint64_t nowUs() const {
    int64_t Now = static_cast<int64_t>(Queue->now()) + ClockSkewUs;
    return Now < 0 ? 0 : static_cast<uint64_t>(Now);
  }

  EventQueue *Queue;
  core::RaftCore Core;
  std::function<void(SimMsg)> SendFn;
  core::HostHooks Hooks;
  store::NodeStore *Store = nullptr;
  std::vector<std::string> *StoreViolations = nullptr;
  int64_t ClockSkewUs = 0;
};

} // namespace sim
} // namespace adore

#endif // ADORE_SIM_RAFTNODE_H
