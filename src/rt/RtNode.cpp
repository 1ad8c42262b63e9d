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
  // Joining under LifeMu is safe: the worker never acquires it.
  if (Worker.joinable())
    Worker.join();
  sync::MutexLock Lock(Mu);
  Started = false;
}

void RtNode::enqueue(Item It) {
  {
    sync::MutexLock Lock(Mu);
    Inbox.push_back(std::move(It));
  }
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
  dispatch(Core.start());
  sync::MutexLock Lock(Mu);
  for (;;) {
    if (Stopping)
      return;
    if (Inbox.empty()) {
      std::optional<Clock::time_point> Wake = nextDeadline();
      if (Wake) {
        if (Clock::now() < *Wake) {
          Cv.waitUntil(Mu, *Wake);
          continue; // Re-check stop flag and inbox first.
        }
        // A deadline is due: fire outside the inbox lock.
        Lock.unlock();
        fireDueTimers();
        Lock.lock();
        continue;
      }
      Cv.wait(Mu);
      continue;
    }
    // Drain a batch: consecutive core-step items (frames, submits,
    // reconfigs) coalesce into ONE effect batch, so a store-backed
    // host's persist pre-pass fsyncs once for the whole burst (group
    // commit). This is the only batching on the write path: the core
    // emits each submit's frames as it steps it, and they leave
    // together after the fsync. Crash/restart are barriers and run
    // alone, preserving their store side-effect ordering.
    // MaxInboxBatch=1 reproduces the one-item-one-dispatch schedule.
    Item First = std::move(Inbox.front());
    Inbox.pop_front();
    if (!isBatchable(First)) {
      Lock.unlock();
      processBarrier(First);
    } else {
      std::vector<Item> Batch;
      Batch.push_back(std::move(First));
      while (Batch.size() < Host.MaxInboxBatch && !Inbox.empty() &&
             isBatchable(Inbox.front())) {
        Batch.push_back(std::move(Inbox.front()));
        Inbox.pop_front();
      }
      Lock.unlock();
      core::Effects Effs;
      for (Item &It : Batch)
        step(It, Effs);
      dispatch(std::move(Effs));
    }
    // Timers may have come due while processing; handle them before
    // sleeping again.
    fireDueTimers();
    Lock.lock();
  }
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
    // Barriers never reach here; run() routes them to processBarrier.
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
    // Batchable items never reach here; run() routes them to step().
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
