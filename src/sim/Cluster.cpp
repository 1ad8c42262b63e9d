//===- sim/Cluster.cpp - Simulated Raft cluster + client --------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Cluster.h"

#include <cassert>
#include <functional>

using namespace adore;
using namespace adore::sim;
using raft::EntryKind;

Cluster::Cluster(const ReconfigScheme &Scheme, Config InitialConf,
                 NodeSet Universe, ClusterOptions Opts, uint64_t Seed,
                 EventQueue *SharedQueue)
    : Scheme(&Scheme), InitialConf(InitialConf),
      Universe(std::move(Universe)), Opts(Opts),
      OwnQueue(SharedQueue ? nullptr : std::make_unique<EventQueue>()),
      Q(SharedQueue ? SharedQueue : OwnQueue.get()), R(Seed) {
  assert(Scheme.mbrs(InitialConf).isSubsetOf(this->Universe) &&
         "initial members must be in the universe");
  if (Opts.DurableStore) {
    // The disk seed is derived from the cluster seed WITHOUT drawing
    // from R: the cluster's own draw sequence (node forks, network
    // rolls) must be byte-identical with the store on or off, which is
    // what the differential chaos test pins.
    Disk = std::make_unique<store::MemVfs>(Seed ^ 0xD15CFA017ULL,
                                           Opts.StoreFaults);
    for (NodeId Id : this->Universe) {
      auto St = std::make_unique<store::NodeStore>(
          *Disk, "n" + std::to_string(Id), Opts.Store);
      store::NodeStore *Ptr = St.get();
      St->setCrashHook([this, Ptr] { Disk->crashDir(Ptr->dir() + "/"); });
      Stores.emplace(Id, std::move(St));
    }
  }
  core::HostHooks Hooks;
  Hooks.OnApply = std::bind_front(&Cluster::onApply, this);
  Hooks.OnLeader = std::bind_front(&Cluster::noteLeader, this);
  Hooks.OnRead = std::bind_front(&Cluster::onReadDone, this);
  for (NodeId Id : this->Universe) {
    Rng NodeRng = R.fork();
    store::NodeStore *St =
        Opts.DurableStore ? Stores.at(Id).get() : nullptr;
    auto Node = std::make_unique<RaftNode>(
        Id, Scheme, InitialConf, Opts.Node, *Q, NodeRng.next(),
        [this](SimMsg M) { sendMsg(std::move(M)); }, Hooks, St);
    Node->setStoreViolationSink(&StoreViolationsVec);
    Nodes.emplace(Id, std::move(Node));
  }
}

store::StoreStats Cluster::storeStats() const {
  store::StoreStats Sum;
  for (const auto &[Id, St] : Stores)
    Sum.accumulate(St->stats());
  return Sum;
}

void Cluster::noteLeader(NodeId Leader, Time Term) {
  auto [It, Fresh] = LeadersByTerm.emplace(Term, Leader);
  if (!Fresh && It->second != Leader && !LeaderOverlap)
    LeaderOverlap = "two leaders in term " + std::to_string(Term) +
                    ": S" + std::to_string(It->second) + " and S" +
                    std::to_string(Leader);
}

void Cluster::start() {
  for (auto &[Id, Node] : Nodes)
    Node->start();
}

RaftNode &Cluster::node(NodeId Id) {
  auto It = Nodes.find(Id);
  assert(It != Nodes.end() && "unknown node");
  return *It->second;
}

const RaftNode &Cluster::node(NodeId Id) const {
  auto It = Nodes.find(Id);
  assert(It != Nodes.end() && "unknown node");
  return *It->second;
}

std::optional<NodeId> Cluster::leader() const {
  std::optional<NodeId> Best;
  for (const auto &[Id, Node] : Nodes) {
    if (!Node->isLeader())
      continue;
    if (!Best || Node->term() > Nodes.at(*Best)->term())
      Best = Id;
  }
  return Best;
}

Config Cluster::currentConfig() const {
  if (std::optional<NodeId> L = leader())
    return node(*L).config();
  for (NodeId N : Universe) {
    const RaftNode &Node = node(N);
    if (!Node.isCrashed() && !Node.isPassive())
      return Node.config();
  }
  return node(Universe[0]).config();
}

std::optional<NodeId> Cluster::runUntilLeader(SimTime MaxWaitUs) {
  SimTime Deadline = Q->now() + MaxWaitUs;
  while (Q->now() < Deadline) {
    if (auto L = leader())
      return L;
    if (!Q->runNext())
      break;
  }
  return leader();
}

//===----------------------------------------------------------------------===//
// Network
//===----------------------------------------------------------------------===//

void Cluster::sendMsg(SimMsg M) {
  ++MessagesSent;
  if (Partition &&
      Partition->contains(M.From) != Partition->contains(M.To)) {
    ++DroppedByCut; // The cut eats everything crossing it.
    return;
  }
  if (!CutLinks.empty() && CutLinks.count({M.From, M.To})) {
    ++DroppedByCut; // Directional cut: only this direction dies.
    return;
  }
  if (R.nextChance(Opts.Link.DropPermille, 1000)) {
    ++DroppedByLoss;
    return;
  }
  // The RNG draws below are guarded so that the draw sequence (and thus
  // every seed-pinned expectation) is unchanged when the chaos knobs are
  // at their defaults.
  unsigned Copies = 1;
  if (Opts.Link.DupPermille != 0 &&
      R.nextChance(Opts.Link.DupPermille, 1000)) {
    ++Copies;
    ++MessagesDuplicated;
  }
  for (unsigned I = 0; I != Copies; ++I) {
    SimTime Latency =
        R.nextInRange(Opts.Link.LatencyMinUs, Opts.Link.LatencyMaxUs);
    if (Opts.Link.ReorderJitterUs != 0 &&
        R.nextChance(Opts.Link.ReorderPermille, 1000))
      Latency += R.nextInRange(0, Opts.Link.ReorderJitterUs);
    Q->scheduleAfter(Latency, [this, M] {
      auto It = Nodes.find(M.To);
      if (It == Nodes.end())
        return; // Destination outside the universe: dropped.
      It->second->receive(M);
    });
  }
}

//===----------------------------------------------------------------------===//
// Client and admin
//===----------------------------------------------------------------------===//

NodeId Cluster::pickTarget() {
  if (LastKnownLeader && Nodes.count(*LastKnownLeader))
    return *LastKnownLeader;
  // No hint: ask a random member of some node's current configuration.
  NodeSet Members = Scheme->mbrs(InitialConf);
  for (const auto &[Id, Node] : Nodes)
    if (!Node->isPassive())
      Members = Members.unionWith(Scheme->mbrs(Node->config()));
  return Members[R.nextBelow(Members.size())];
}

void Cluster::submit(MethodId Method,
                     std::function<void(bool, SimTime)> Done,
                     SimTime MaxTriesUs) {
  uint64_t Seq = NextSeq++;
  PendingOp &Op = Pending[Seq];
  Op.Method = Method;
  Op.SubmittedAt = Q->now();
  Op.Deadline = Q->now() + MaxTriesUs;
  Op.Done = std::move(Done);
  attempt(Seq);
}

void Cluster::requestReconfig(Config NewConf,
                              std::function<void(bool, SimTime)> Done,
                              SimTime MaxTriesUs) {
  uint64_t Seq = NextSeq++;
  PendingOp &Op = Pending[Seq];
  Op.IsReconfig = true;
  Op.Conf = std::move(NewConf);
  Op.SubmittedAt = Q->now();
  Op.Deadline = Q->now() + MaxTriesUs;
  Op.Done = std::move(Done);
  attempt(Seq);
}

void Cluster::attempt(uint64_t Seq) {
  auto It = Pending.find(Seq);
  if (It == Pending.end() || It->second.Settled)
    return;
  PendingOp &Op = It->second;
  if (Q->now() >= Op.Deadline) {
    settle(Seq, false);
    return;
  }
  ++Op.Attempt;
  NodeId Target = pickTarget();
  // One network hop to reach the target.
  SimTime Hop = R.nextInRange(Opts.Link.LatencyMinUs,
                              Opts.Link.LatencyMaxUs);
  Q->scheduleAfter(Hop, [this, Seq, Target] {
    auto It = Pending.find(Seq);
    if (It == Pending.end() || It->second.Settled)
      return;
    PendingOp &Op = It->second;
    RaftNode &N = node(Target);
    if (N.isCrashed()) {
      // Dead silence: forget the stale hint and try elsewhere.
      if (LastKnownLeader == Target)
        LastKnownLeader.reset();
      Q->scheduleAfter(Opts.ClientRetryDelayUs,
                          [this, Seq] { attempt(Seq); });
      return;
    }
    // A change that removes the sitting leader needs a leadership
    // transfer first (Raft 3.10): hand off to a caught-up member of the
    // target configuration, then retry against the new leader.
    if (Op.IsReconfig && N.isLeader() &&
        !Scheme->mbrs(Op.Conf).contains(Target)) {
      for (NodeId Heir : Scheme->mbrs(Op.Conf))
        if (N.transferLeadership(Heir))
          break;
      LastKnownLeader.reset();
      Q->scheduleAfter(Opts.ClientRetryDelayUs * 4,
                          [this, Seq] { attempt(Seq); });
      return;
    }
    bool Accepted =
        Op.IsReconfig
            ? N.requestReconfig(Op.Conf)
            : N.submit(Op.Method, Seq);
    if (Accepted) {
      LastKnownLeader = Target;
      // Completion arrives via onApply; arm a retry in case the leader
      // falls (or is cut off) before committing. An unresponsive
      // accepted target loses the client's trust: retry elsewhere.
      Q->scheduleAfter(Opts.ClientTimeoutUs, [this, Seq, Target] {
        if (Pending.count(Seq) && LastKnownLeader == Target)
          LastKnownLeader.reset();
        attempt(Seq);
      });
      return;
    }
    // Rejected: follow the redirect hint (or try someone else soon).
    if (auto Hint = N.leaderHint())
      LastKnownLeader = *Hint;
    else
      LastKnownLeader.reset();
    Q->scheduleAfter(Opts.ClientRetryDelayUs,
                        [this, Seq] { attempt(Seq); });
  });
}

void Cluster::read(
    std::function<void(bool, NodeId, size_t, SimTime)> Done,
    bool AtFollower, SimTime MaxTriesUs) {
  uint64_t Seq = NextReadSeq++;
  PendingReadOp &Op = PendingReads[Seq];
  Op.SubmittedAt = Q->now();
  Op.Deadline = Q->now() + MaxTriesUs;
  Op.AtFollower = AtFollower;
  Op.Done = std::move(Done);
  attemptRead(Seq);
}

void Cluster::attemptRead(uint64_t Seq) {
  auto It = PendingReads.find(Seq);
  if (It == PendingReads.end() || It->second.Settled)
    return;
  PendingReadOp &Op = It->second;
  if (Q->now() >= Op.Deadline) {
    settleRead(Seq, false, InvalidNodeId, 0);
    return;
  }
  ++Op.Attempt;
  // Tier-3 first choice: a live non-leader replica; otherwise the
  // leader hint, like every other client request.
  NodeId Target = InvalidNodeId;
  if (Op.AtFollower) {
    std::optional<NodeId> L = leader();
    for (NodeId N : Universe) {
      const RaftNode &Cand = node(N);
      if (!Cand.isCrashed() && !Cand.isPassive() && (!L || *L != N)) {
        Target = N;
        break;
      }
    }
  }
  if (Target == InvalidNodeId)
    Target = pickTarget();
  SimTime Hop = R.nextInRange(Opts.Link.LatencyMinUs,
                              Opts.Link.LatencyMaxUs);
  Q->scheduleAfter(Hop, [this, Seq, Target] {
    auto It = PendingReads.find(Seq);
    if (It == PendingReads.end() || It->second.Settled)
      return;
    RaftNode &N = node(Target);
    if (N.isCrashed()) {
      if (LastKnownLeader == Target)
        LastKnownLeader.reset();
      Q->scheduleAfter(Opts.ClientRetryDelayUs,
                       [this, Seq] { attemptRead(Seq); });
      return;
    }
    uint64_t Rid = NextReadAttemptId++;
    ReadAttemptToSeq[Rid] = Seq;
    N.read(Rid);
    // A crashed target silently swallows pending reads (a dead node
    // sends nothing); arm a client-side timeout so the op retries.
    Q->scheduleAfter(Opts.ClientTimeoutUs, [this, Seq, Rid] {
      ReadAttemptToSeq.erase(Rid);
      attemptRead(Seq);
    });
  });
}

void Cluster::onReadDone(NodeId Server, uint64_t ReadId, bool Ok,
                         size_t Index) {
  auto MapIt = ReadAttemptToSeq.find(ReadId);
  if (MapIt == ReadAttemptToSeq.end())
    return; // Outcome of an abandoned (timed-out) attempt.
  uint64_t Seq = MapIt->second;
  ReadAttemptToSeq.erase(MapIt);
  auto It = PendingReads.find(Seq);
  if (It == PendingReads.end() || It->second.Settled)
    return;
  if (Ok) {
    // The response costs one more network hop back to the client.
    SimTime Hop = R.nextInRange(Opts.Link.LatencyMinUs,
                                Opts.Link.LatencyMaxUs);
    Q->scheduleAfter(Hop, [this, Seq, Server, Index] {
      settleRead(Seq, true, Server, Index);
    });
    return;
  }
  // NACK or mid-read leadership loss: fall back to the leader.
  It->second.AtFollower = false;
  Q->scheduleAfter(Opts.ClientRetryDelayUs,
                   [this, Seq] { attemptRead(Seq); });
}

void Cluster::settleRead(uint64_t Seq, bool Ok, NodeId Server,
                         size_t Index) {
  auto It = PendingReads.find(Seq);
  if (It == PendingReads.end() || It->second.Settled)
    return;
  It->second.Settled = true;
  SimTime Latency = Q->now() - It->second.SubmittedAt;
  auto Done = std::move(It->second.Done);
  PendingReads.erase(It);
  if (Done)
    Done(Ok, Server, Index, Latency);
}

void Cluster::settle(uint64_t Seq, bool Ok) {
  auto It = Pending.find(Seq);
  if (It == Pending.end() || It->second.Settled)
    return;
  It->second.Settled = true;
  SimTime Latency = Q->now() - It->second.SubmittedAt;
  auto Done = std::move(It->second.Done);
  Pending.erase(It);
  if (Done)
    Done(Ok, Latency);
}

void Cluster::onApply(NodeId Node, size_t Index, const SimLogEntry &E) {
  for (const auto &Hook : ApplyHooks)
    Hook(Node, Index, E);
  // Resolve the pending op this entry answers (first application wins;
  // the response costs one more network hop).
  uint64_t Seq = 0;
  if (E.Kind == EntryKind::Method && E.ClientSeq != 0 &&
      Pending.count(E.ClientSeq)) {
    Seq = E.ClientSeq;
  } else if (E.Kind == EntryKind::Reconfig) {
    for (auto &[S, Op] : Pending)
      if (Op.IsReconfig && !Op.Settled && Op.Conf == E.Conf) {
        Seq = S;
        break;
      }
  }
  if (Seq == 0)
    return;
  SimTime Hop = R.nextInRange(Opts.Link.LatencyMinUs,
                              Opts.Link.LatencyMaxUs);
  Q->scheduleAfter(Hop, [this, Seq] { settle(Seq, true); });
}

//===----------------------------------------------------------------------===//
// Inspection
//===----------------------------------------------------------------------===//

std::optional<std::string> Cluster::checkCommittedAgreement() const {
  for (auto A = Nodes.begin(); A != Nodes.end(); ++A) {
    for (auto B = std::next(A); B != Nodes.end(); ++B) {
      size_t Common = std::min(A->second->commitIndex(),
                               B->second->commitIndex());
      for (size_t I = 1; I <= Common; ++I) {
        const SimLogEntry &EA = A->second->entry(I);
        const SimLogEntry &EB = B->second->entry(I);
        if (EA.Term == EB.Term && EA.Method == EB.Method &&
            EA.Kind == EB.Kind && EA.Conf == EB.Conf)
          continue;
        return "committed disagreement between S" +
               std::to_string(A->first) + " and S" +
               std::to_string(B->first) + " at slot " + std::to_string(I);
      }
    }
  }
  return std::nullopt;
}

std::string Cluster::dump() const {
  std::string Out;
  for (const auto &[Id, Node] : Nodes) {
    Out += Node->describe();
    Out += "\n";
  }
  return Out;
}
