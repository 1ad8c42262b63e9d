//===- rt/RtNode.cpp - Real-time threaded host for the Raft core ------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rt/RtNode.h"

#include "rt/Wire.h"
#include "store/NodeStore.h"

#include <vector>

using namespace adore;
using namespace adore::rt;

namespace {

/// Cores the calling thread is stepping now. An input posted from inside
/// a step (a Bus post, a hook) queues instead of stepping a second core
/// on the same stack.
thread_local unsigned StepDepth = 0;

struct SteppingScope {
  SteppingScope() { ++StepDepth; }
  ~SteppingScope() { --StepDepth; }
  SteppingScope(const SteppingScope &) = delete;
  SteppingScope &operator=(const SteppingScope &) = delete;
};

} // namespace

RtNode::RtNode(NodeId Id, const ReconfigScheme &Scheme, Config InitialConf,
               core::CoreOptions Opts, uint64_t Seed, Transport &Net,
               core::HostHooks Hooks, store::NodeStore *Store,
               RtHostOptions Host)
    : Id(Id), Net(&Net), Hooks(std::move(Hooks)), Host(Host),
      Core(Id, Scheme, std::move(InitialConf), Opts, Seed),
      Epoch(Clock::now()), Store(Store) {
  // Adopt whatever the store's directory already holds, before the
  // worker thread exists (the core is fresh, so installing is legal).
  if (Store)
    StoreViolations = Store->recoverInto(Core, /*CheckAgainstCore=*/false);
  Net.attach(Id, [this](std::string Frame) {
    enqueueFrame(std::move(Frame));
  });
}

RtNode::~RtNode() {
  stop();
  // End the endpoint's transport lifetime before members die: an
  // asynchronous transport (TCP loop thread) may still hold buffered
  // frames for this id, and must stop invoking enqueueFrame now.
  Net->detach(Id);
}

void RtNode::start() {
  // LifeMu serializes whole lifecycle transitions; without it, a
  // start() racing a stop() could assign Worker while the stop was
  // joining the old thread (a data race on the std::thread object the
  // original lock scheme left unguarded — surfaced by annotating
  // Worker GUARDED_BY and letting the analysis reject the old code).
  sync::MutexLock Life(LifeMu);
  {
    sync::MutexLock Lock(Mu);
    if (Started)
      return;
    Started = true;
    Stopping = false;
    Busy = true; // The worker's Core.start() steps first.
  }
  Worker = std::thread([this] { run(); });
}

void RtNode::stop() {
  sync::MutexLock Life(LifeMu);
  {
    sync::MutexLock Lock(Mu);
    if (!Started)
      return;
    Stopping = true;
  }
  Cv.notifyAll();
  // Joining under LifeMu is safe: the worker never acquires it. The
  // worker returns only once no inline step is in flight.
  if (Worker.joinable())
    Worker.join();
  sync::MutexLock Lock(Mu);
  Started = false;
}

void RtNode::enqueue(Item It) {
  sync::MutexLock Lock(Mu);
  // Step inline only when nothing queued could be overtaken, nobody owns
  // the core, the worker is not waiting on a due timer, and this thread
  // is not inside another step.
  if (!Started || Stopping || Busy || WorkerWaiting || !Inbox.empty() ||
      !isBatchable(It) || StepDepth != 0) {
    // An owner looks at the inbox before it lets go, so only an idle
    // worker needs the wake-up.
    bool Wake = !Busy;
    Inbox.push_back(std::move(It));
    Lock.unlock();
    if (Wake)
      Cv.notifyAll();
    return;
  }
  Busy = true;
  Lock.unlock();
  stepInline(It);
}

void RtNode::stepInline(Item &It) {
  SteppingScope Scope;
  core::Effects Effs;
  step(It, Effs);
  dispatch(std::move(Effs));
  sync::MutexLock Lock(Mu);
  // What queued during the step (in the TCP closed loop, often the
  // client's next submit) is stepped here, without waking the worker.
  if (!WorkerWaiting && !Stopping) {
    std::vector<Item> Batch = takeBatch();
    if (!Batch.empty()) {
      Lock.unlock();
      stepBatch(Batch);
      Lock.lock();
    }
  }
  // A timer armed earlier than the worker's sleep target pulls the
  // target in, so the worker wakes for it even if another caller owns
  // the core by then.
  std::optional<Clock::time_point> Next = nextDeadline();
  bool Earlier = Next && *Next < SleepTarget;
  if (Earlier)
    SleepTarget = *Next;
  bool Wake = !Inbox.empty() || WorkerWaiting || Stopping || Earlier;
  Busy = false;
  Lock.unlock();
  if (Wake)
    Cv.notifyAll();
}

void RtNode::enqueueFrame(std::string Frame) {
  Item It;
  It.K = Item::Kind::Frame;
  It.Frame = std::move(Frame);
  enqueue(std::move(It));
}

void RtNode::submit(MethodId Method, uint64_t ClientSeq) {
  Item It;
  It.K = Item::Kind::Submit;
  It.Method = Method;
  It.ClientSeq = ClientSeq;
  enqueue(std::move(It));
}

void RtNode::requestReconfig(Config NewConf) {
  Item It;
  It.K = Item::Kind::Reconfig;
  It.Conf = std::move(NewConf);
  enqueue(std::move(It));
}

void RtNode::read(uint64_t ReadId) {
  Item It;
  It.K = Item::Kind::Read;
  It.ReadId = ReadId;
  enqueue(std::move(It));
}

void RtNode::crash() {
  Item It;
  It.K = Item::Kind::Crash;
  enqueue(std::move(It));
}

void RtNode::restart() {
  Item It;
  It.K = Item::Kind::Restart;
  enqueue(std::move(It));
}

RtNodeStatus RtNode::status() const {
  sync::MutexLock Lock(StatusMu);
  return Cached;
}

uint64_t RtNode::malformedFrames() const {
  return Malformed.load(std::memory_order_relaxed);
}

uint64_t RtNode::nowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            Epoch)
          .count());
}

std::optional<RtNode::Clock::time_point> RtNode::nextDeadline() const {
  std::optional<Clock::time_point> Next;
  for (const Deadline &D : Timers)
    if (D.Armed && (!Next || D.At < *Next))
      Next = D.At;
  return Next;
}

void RtNode::run() {
  {
    SteppingScope Scope;
    dispatch(Core.start());
  }
  sync::MutexLock Lock(Mu);
  Busy = false;
  for (;;) {
    if (Stopping) {
      while (Busy)
        Cv.wait(Mu);
      return;
    }
    if (Busy) {
      // An inline caller owns the core. Once the sleep target is due,
      // ask for the core so timers cannot be starved; the owner wakes
      // us when it lets go.
      WorkerWaiting = Clock::now() >= SleepTarget;
      sleepUntil(WorkerWaiting ? Clock::time_point::max() : SleepTarget);
      continue;
    }
    WorkerWaiting = false;
    // Nobody owns the core, so reading the timers under Mu is safe.
    std::optional<Clock::time_point> Next = nextDeadline();
    if (Inbox.empty() && !(Next && *Next <= Clock::now())) {
      SleepTarget = Next.value_or(Clock::time_point::max());
      sleepUntil(SleepTarget);
      continue; // Re-check stop flag, owner and inbox first.
    }
    Busy = true;
    // Crash/restart are barriers and run alone, preserving their store
    // side-effect ordering; other items go through takeBatch.
    std::optional<Item> Barrier;
    std::vector<Item> Batch;
    if (!Inbox.empty() && !isBatchable(Inbox.front())) {
      Barrier = std::move(Inbox.front());
      Inbox.pop_front();
    } else {
      Batch = takeBatch();
    }
    Lock.unlock();
    {
      SteppingScope Scope;
      if (Barrier)
        processBarrier(*Barrier);
      else if (!Batch.empty())
        stepBatch(Batch);
      // Timers may have come due while processing; handle them before
      // sleeping again.
      fireDueTimers();
    }
    Lock.lock();
    Busy = false;
  }
}

void RtNode::sleepUntil(Clock::time_point T) {
  if (T == Clock::time_point::max())
    Cv.wait(Mu);
  else
    Cv.waitUntil(Mu, T);
}

std::vector<RtNode::Item> RtNode::takeBatch() {
  // Consecutive core-step items (frames, submits, reconfigs, reads)
  // coalesce into ONE effect batch, so a store-backed host's persist
  // pre-pass fsyncs once for the whole burst (group commit). This is the
  // only batching on the write path: the core emits each submit's frames
  // as it steps it, and they leave together after the fsync.
  // MaxInboxBatch=1 reproduces the one-item-one-dispatch schedule.
  std::vector<Item> Batch;
  while ((Batch.empty() || Batch.size() < Host.MaxInboxBatch) &&
         !Inbox.empty() && isBatchable(Inbox.front())) {
    Batch.push_back(std::move(Inbox.front()));
    Inbox.pop_front();
  }
  return Batch;
}

void RtNode::stepBatch(std::vector<Item> &Batch) {
  core::Effects Effs;
  for (Item &It : Batch)
    step(It, Effs);
  dispatch(std::move(Effs));
}

bool RtNode::isBatchable(const Item &It) {
  return It.K == Item::Kind::Frame || It.K == Item::Kind::Submit ||
         It.K == Item::Kind::Reconfig || It.K == Item::Kind::Read;
}

void RtNode::step(Item &It, core::Effects &Out) {
  switch (It.K) {
  case Item::Kind::Frame: {
    core::Msg M;
    if (!decodeMsg(It.Frame, M)) {
      Malformed.fetch_add(1, std::memory_order_relaxed);
      return; // Malformed frame: dropped like a corrupt packet.
    }
    core::Effects Step = Core.onMessage(M, nowUs());
    for (core::Effect &E : Step)
      Out.push_back(std::move(E));
    return;
  }
  case Item::Kind::Submit:
    Core.submit(It.Method, It.ClientSeq, Out);
    return;
  case Item::Kind::Reconfig:
    Core.requestReconfig(It.Conf, Out);
    return;
  case Item::Kind::Read:
    // Lease expiry is checked lazily against the wall clock here; the
    // heartbeat timer drives renewals and probe retransmission.
    Core.readQuery(It.ReadId, nowUs(), Out);
    return;
  case Item::Kind::Crash:
  case Item::Kind::Restart:
    // Barriers never reach here; they go to processBarrier.
    return;
  }
}

void RtNode::processBarrier(Item &It) {
  switch (It.K) {
  case Item::Kind::Crash:
    dispatch(Core.crash());
    if (Store)
      Store->crash(); // Power cut: the fault model mangles the directory.
    return;
  case Item::Kind::Restart:
    // Restarting a node that never crashed is a no-op; only a crashed
    // core may have durable state re-installed.
    if (Store && Core.isCrashed())
      for (std::string &What :
           Store->recoverInto(Core, /*CheckAgainstCore=*/true))
        StoreViolations.push_back(std::move(What));
    dispatch(Core.restart());
    return;
  case Item::Kind::Frame:
  case Item::Kind::Submit:
  case Item::Kind::Reconfig:
  case Item::Kind::Read:
    // Batchable items never reach here; they go to step().
    return;
  }
}

void RtNode::fireDueTimers() {
  // At most one firing per timer per pass; re-arms take a fresh
  // deadline, so the loop in run() converges.
  Clock::time_point Now = Clock::now();
  for (core::TimerId T : {core::TimerId::Election, core::TimerId::Heartbeat}) {
    Deadline &D = deadline(T);
    if (D.Armed && D.At <= Now) {
      D.Armed = false;
      dispatch(Core.onTimer(T, D.Gen, nowUs()));
    }
  }
}

void RtNode::dispatch(core::Effects Effs) {
  struct Host : core::HostBase<store::NodeStore> {
    RtNode &N;
    void send(core::Msg &&M) { N.Net->post(M.To, encodeMsg(M)); }
    void setTimer(core::TimerId Timer, uint64_t Gen, uint64_t DelayUs) {
      Deadline &D = N.deadline(Timer);
      D.Armed = true;
      D.Gen = Gen;
      D.At = Clock::now() + std::chrono::microseconds(DelayUs);
    }
    void cancelTimer(core::TimerId Timer) { N.deadline(Timer).Armed = false; }
  } H{{Core, Hooks, Store}, *this};
  core::dispatchEffects(Effs, H);
  publishStatus();
}

void RtNode::publishStatus() {
  RtNodeStatus S;
  S.Role = Core.role();
  S.Term = Core.term();
  S.CommitIndex = Core.commitIndex();
  S.LogSize = Core.logSize();
  S.Crashed = Core.isCrashed();
  S.Passive = Core.isPassive();
  S.Conf = Core.config();
  sync::MutexLock Lock(StatusMu);
  Cached = S;
}
