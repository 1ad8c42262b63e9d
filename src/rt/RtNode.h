//===- rt/RtNode.h - Real-time threaded host for the Raft core -*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The real-time host for core::RaftCore. One thread at a time owns the
/// core, so the core itself needs no locks. Ownership is claimed and
/// released under the inbox mutex.
///
/// An input (a wire frame, a client command, an admin reconfig) that
/// finds the node idle is stepped on the calling thread: a client inside
/// submit()/read()/requestReconfig(), the TCP loop inside its delivery
/// handler, or a Bus poster. Otherwise it lands in the inbox, which the
/// node's worker thread drains in arrival order. The worker is the owner
/// of last resort: it runs the core's start, the crash/restart barriers,
/// queued items and the timers. The core's SetTimer effects become
/// steady_clock deadlines the worker sleeps toward, and its Send effects
/// are serialized through rt/Wire.h and posted to the transport.
///
/// Crash here is *state-level* fail-stop, matching the simulator: the
/// worker keeps running but the core discards volatile state and ignores
/// input until restart, which mirrors a process that lost memory but
/// kept its disk.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_RT_RTNODE_H
#define ADORE_RT_RTNODE_H

#include "core/Host.h"
#include "rt/Transport.h"
#include "support/Sync.h"

#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace adore {

namespace store {
class NodeStore;
} // namespace store

namespace rt {

/// Host-side tuning, orthogonal to core::CoreOptions.
struct RtHostOptions {
  /// Max consecutive inbox items (frames / submits / reconfigs) drained
  /// and stepped through the core as ONE effect batch. A store-backed
  /// host fsyncs once per dispatched batch, so raising this makes one
  /// WAL sync cover a whole pipelined burst of appends (group commit).
  /// Crash/restart items never coalesce; they are batch barriers.
  ///
  /// The default, 1, dispatches each item on its own. Draining the
  /// whole inbox instead fails bench_throughput's window-1 open loop in
  /// 3 of 3 runs on a 4-core host (bus 68-71 of 4000 ops complete, TCP
  /// 526-2880 of 4000), where 1 completes all 4000.
  size_t MaxInboxBatch = 1;
};

/// Snapshot of a node, refreshed by whichever thread stepped it, after
/// every step.
struct RtNodeStatus {
  core::Role Role = core::Role::Follower;
  Time Term = 0;
  size_t CommitIndex = 0;
  size_t LogSize = 0;
  bool Crashed = false;
  bool Passive = false;
  /// The configuration the core currently runs under; advisory by the
  /// time anyone reads it, like every other field here.
  Config Conf;
};

/// One threaded replica.
class RtNode {
public:
  /// \p Hooks run on whichever thread steps the node: its worker, or a
  /// caller of enqueueFrame/submit/requestReconfig/read that found it
  /// idle. They must be thread-safe against other nodes' steps, and a
  /// caller of those methods must not hold a lock a hook takes.
  ///
  /// \p Store, when non-null, makes persistence real: the node adopts
  /// whatever the store's directory holds at construction, flushes the
  /// WAL before acting on any Persist-carrying effect batch, powers the
  /// disk down on crash, and recovers from it on restart
  /// (cross-checking the result against the in-memory copy).
  RtNode(NodeId Id, const ReconfigScheme &Scheme, Config InitialConf,
         core::CoreOptions Opts, uint64_t Seed, Transport &Net,
         core::HostHooks Hooks, store::NodeStore *Store = nullptr,
         RtHostOptions Host = {});
  ~RtNode();

  RtNode(const RtNode &) = delete;
  RtNode &operator=(const RtNode &) = delete;

  /// Spawns the worker thread, which starts the core. Idempotent; safe to
  /// race with stop() (LifeMu serializes lifecycle transitions).
  void start() ADORE_EXCLUDES(LifeMu, Mu);

  /// Stops and joins the worker thread, and waits out a step in flight
  /// on another thread. Idempotent.
  void stop() ADORE_EXCLUDES(LifeMu, Mu);

  NodeId id() const { return Id; }

  /// A serialized frame from the transport (any thread). This and the
  /// next three step the core on the calling thread when the node is
  /// idle, and enqueue the input otherwise.
  void enqueueFrame(std::string Frame);

  /// A client command (any thread). Acceptance is observable only
  /// through commitment — like a real network client's.
  void submit(MethodId Method, uint64_t ClientSeq);

  /// An admin membership-change request (any thread).
  void requestReconfig(Config NewConf);

  /// A linearizable read (any thread); the outcome arrives via
  /// core::HostHooks::OnRead with the same host-chosen \p ReadId.
  void read(uint64_t ReadId);

  /// State-level fail-stop / recovery (any thread). Always queued for
  /// the worker; inputs posted after either are stepped after it.
  void crash();
  void restart();

  /// Point-in-time status snapshot (any thread).
  RtNodeStatus status() const;

  /// Count of bus frames that failed wire decoding (any thread).
  uint64_t malformedFrames() const;

  /// Store-backed mode: one line per recovered field that diverged from
  /// the in-memory copy at a restart, or per unrecoverable directory
  /// (store::NodeStore::recoverInto's text). Always empty in in-memory
  /// mode. Same safety contract as coreForInspection().
  const std::vector<std::string> &storeViolations() const {
    return StoreViolations;
  }

  /// Direct read access to the hosted core. Safe ONLY while the node is
  /// not running (before start() or after stop()); used by end-of-run
  /// whole-cluster checks.
  const core::RaftCore &coreForInspection() const { return Core; }

private:
  struct Item {
    enum class Kind : uint8_t {
      Frame,
      Submit,
      Reconfig,
      Read,
      Crash,
      Restart
    };
    Kind K = Kind::Frame;
    std::string Frame;
    MethodId Method = 0;
    uint64_t ClientSeq = 0;
    uint64_t ReadId = 0;
    Config Conf;
  };

  using Clock = std::chrono::steady_clock;

  void run();
  /// Steps \p It on the calling thread if the node is idle (see the
  /// file comment), otherwise queues it for the worker.
  void enqueue(Item It) ADORE_EXCLUDES(Mu);
  /// The inline path: steps \p It, then one batch of what queued
  /// meanwhile, then releases the core. Requires Busy claimed.
  void stepInline(Item &It) ADORE_EXCLUDES(Mu);
  /// Waits on Cv until notified or \p T (max: until notified).
  void sleepUntil(Clock::time_point T) ADORE_REQUIRES(Mu);
  /// Pops the inbox's next batch of up to MaxInboxBatch batchable items.
  std::vector<Item> takeBatch() ADORE_REQUIRES(Mu);
  /// Steps \p Batch through the core as ONE effect batch.
  void stepBatch(std::vector<Item> &Batch);
  uint64_t nowUs() const;
  /// True for items that may coalesce into one effect batch; false for
  /// crash/restart barriers.
  static bool isBatchable(const Item &It);
  /// Steps one batchable item through the core, appending its effects.
  void step(Item &It, core::Effects &Out);
  /// Runs one crash/restart barrier item (its own dispatch inside).
  void processBarrier(Item &It);
  void fireDueTimers();
  void dispatch(core::Effects Effs);
  void publishStatus();

  /// One armed core timer mapped onto the steady clock. Core owner
  /// only.
  struct Deadline {
    bool Armed = false;
    uint64_t Gen = 0;
    Clock::time_point At;
  };

  std::optional<Clock::time_point> nextDeadline() const;
  Deadline &deadline(core::TimerId T) {
    return Timers[static_cast<size_t>(T)];
  }

  NodeId Id;
  Transport *Net;
  core::HostHooks Hooks;
  RtHostOptions Host;
  core::RaftCore Core; ///< Only the thread that claimed Busy touches it.
  Clock::time_point Epoch;

  /// Indexed by core::TimerId. Same ownership as Core, except that the
  /// worker reads them under Mu while nobody owns the core, to pick its
  /// sleep.
  std::array<Deadline, 2> Timers;

  /// Serializes start()/stop() end to end: the worker thread never
  /// takes it, so stop() may join while holding it, and a start() racing
  /// a stop() can no longer observe (or clobber) a half-torn-down
  /// Worker. Ordered before Mu: lifecycle code acquires LifeMu first.
  mutable sync::Mutex LifeMu;
  mutable sync::Mutex Mu ADORE_ACQUIRED_AFTER(LifeMu);
  sync::CondVar Cv;
  std::deque<Item> Inbox ADORE_GUARDED_BY(Mu);
  bool Stopping ADORE_GUARDED_BY(Mu) = false;
  bool Started ADORE_GUARDED_BY(Mu) = false;
  /// Some thread owns the core: the worker for Core.start(), barriers,
  /// batches and timers, or an inline caller.
  bool Busy ADORE_GUARDED_BY(Mu) = false;
  /// The worker has a due timer and waits for an inline owner to let
  /// go; inputs queue until it has run.
  bool WorkerWaiting ADORE_GUARDED_BY(Mu) = false;
  /// The deadline the worker sleeps toward (max when none). An inline
  /// step that arms an earlier timer pulls it in and wakes the worker.
  Clock::time_point SleepTarget ADORE_GUARDED_BY(Mu) =
      Clock::time_point::max();

  mutable sync::Mutex StatusMu;
  RtNodeStatus Cached ADORE_GUARDED_BY(StatusMu);

  std::atomic<uint64_t> Malformed{0};
  std::vector<std::string> StoreViolations; ///< Worker-thread only.
  store::NodeStore *Store = nullptr; ///< Core owner only once started.

  std::thread Worker ADORE_GUARDED_BY(LifeMu);
};

} // namespace rt
} // namespace adore

#endif // ADORE_RT_RTNODE_H
