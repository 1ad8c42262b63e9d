//===- kv/KvStore.cpp - Replicated key-value store application --------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "kv/KvStore.h"

#include <cassert>

using namespace adore;
using namespace adore::kv;
using sim::SimLogEntry;
using sim::SimTime;

//===----------------------------------------------------------------------===//
// Operation encoding
//===----------------------------------------------------------------------===//

static constexpr uint64_t KvFieldMask = (uint64_t(1) << 31) - 1;

MethodId adore::kv::encodeKvOp(const KvOp &Op) {
  assert(Op.Key <= KvFieldMask && Op.Value <= KvFieldMask &&
         "key/value exceed 31 bits");
  return (static_cast<uint64_t>(Op.Kind) << 62) |
         (static_cast<uint64_t>(Op.Key) << 31) |
         static_cast<uint64_t>(Op.Value);
}

KvOp adore::kv::decodeKvOp(MethodId Method) {
  KvOp Op;
  Op.Kind = static_cast<KvOpKind>(Method >> 62);
  Op.Key = static_cast<uint32_t>((Method >> 31) & KvFieldMask);
  Op.Value = static_cast<uint32_t>(Method & KvFieldMask);
  return Op;
}

//===----------------------------------------------------------------------===//
// KvState
//===----------------------------------------------------------------------===//

void KvState::apply(const KvOp &Op) {
  switch (Op.Kind) {
  case KvOpKind::Noop:
    return;
  case KvOpKind::Put:
    Table[Op.Key] = Op.Value;
    return;
  case KvOpKind::Del:
    Table.erase(Op.Key);
    return;
  }
}

std::optional<uint32_t> KvState::get(uint32_t Key) const {
  auto It = Table.find(Key);
  if (It == Table.end())
    return std::nullopt;
  return It->second;
}

//===----------------------------------------------------------------------===//
// ReplicatedKvStore
//===----------------------------------------------------------------------===//

KvClientObserver::~KvClientObserver() = default;

ReplicatedKvStore::ReplicatedKvStore(sim::Cluster &Cluster)
    : Cluster(Cluster) {
  Cluster.addApplyHook(
      [this](NodeId Node, size_t Index, const SimLogEntry &E) {
        onApply(Node, Index, E);
      });
}

void ReplicatedKvStore::onApply(NodeId Node, size_t Index,
                                const SimLogEntry &E) {
  KvState &State = Replicas[Node];
  if (E.Kind == raft::EntryKind::Method) {
    // Exactly-once: a command retried across failovers may occupy two
    // committed slots; only the first occurrence executes.
    bool Duplicate = E.ClientSeq != 0 &&
                     !AppliedSeqs[Node].insert(E.ClientSeq).second;
    if (!Duplicate)
      State.applyMethod(E.Method);
  }
  AppliedCount[Node] = Index;
}

void ReplicatedKvStore::put(
    uint32_t Key, uint32_t Value,
    std::function<void(bool, SimTime)> Done, SimTime MaxTriesUs) {
  KvOp Op{KvOpKind::Put, Key, Value};
  uint64_t OpId = NextOpId++;
  if (Observer)
    Observer->onInvoke(OpId, KvClientObserver::OpType::Put, Key, Value,
                       Cluster.queue().now());
  Cluster.submit(
      encodeKvOp(Op),
      [this, OpId, Done = std::move(Done)](bool Ok, SimTime Latency) {
        if (Observer)
          Observer->onReturn(OpId, Ok, std::nullopt,
                             Cluster.queue().now());
        if (Done)
          Done(Ok, Latency);
      },
      MaxTriesUs);
}

void ReplicatedKvStore::del(uint32_t Key,
                            std::function<void(bool, SimTime)> Done,
                            SimTime MaxTriesUs) {
  KvOp Op{KvOpKind::Del, Key, 0};
  uint64_t OpId = NextOpId++;
  if (Observer)
    Observer->onInvoke(OpId, KvClientObserver::OpType::Del, Key, 0,
                       Cluster.queue().now());
  Cluster.submit(
      encodeKvOp(Op),
      [this, OpId, Done = std::move(Done)](bool Ok, SimTime Latency) {
        if (Observer)
          Observer->onReturn(OpId, Ok, std::nullopt,
                             Cluster.queue().now());
        if (Done)
          Done(Ok, Latency);
      },
      MaxTriesUs);
}

void ReplicatedKvStore::get(
    uint32_t Key,
    std::function<void(bool, std::optional<uint32_t>, SimTime)> Done,
    bool AtFollower, SimTime MaxTriesUs) {
  uint64_t OpId = NextOpId++;
  if (Observer)
    Observer->onInvoke(OpId, KvClientObserver::OpType::Get, Key, 0,
                       Cluster.queue().now());
  Cluster.read(
      [this, Key, OpId, Done = std::move(Done)](
          bool Ok, NodeId Server, size_t, SimTime Latency) {
        std::optional<uint32_t> Value;
        if (Ok)
          Value = Replicas[Server].get(Key);
        if (Observer)
          Observer->onReturn(OpId, Ok, Value, Cluster.queue().now());
        if (Done)
          Done(Ok, Value, Latency);
      },
      AtFollower, MaxTriesUs);
}

const KvState &ReplicatedKvStore::replica(NodeId Id) const {
  static const KvState Empty;
  auto It = Replicas.find(Id);
  return It == Replicas.end() ? Empty : It->second;
}

bool ReplicatedKvStore::replicasAgree() const {
  // Replicas at the same applied count must hold identical tables.
  std::map<size_t, const KvState *> ByCount;
  for (const auto &[Node, State] : Replicas) {
    size_t Count = AppliedCount.count(Node) ? AppliedCount.at(Node) : 0;
    auto [It, Fresh] = ByCount.emplace(Count, &State);
    if (!Fresh && !(*It->second == State))
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// AdoKvClient
//===----------------------------------------------------------------------===//

bool AdoKvClient::hasActiveLeadership() const {
  CacheId Active = St->Tree.activeCache(Id);
  if (Active == InvalidCacheId)
    return false;
  return St->isLeader(Id, St->Tree.cache(Active).T);
}

bool AdoKvClient::call(const KvOp &Op) {
  // Fig. 2 (ADO): if (!pull()) return FAIL;
  if (!hasActiveLeadership()) {
    auto Choice = Oracle->choosePull(*Sem, *St, Id);
    if (!Choice)
      return false;
    Sem->pull(*St, Id, *Choice);
    if (!hasActiveLeadership())
      return false; // Election failed (non-quorum supporters).
  }
  // if (!invoke(["put","a",1])) return FAIL;
  if (!Sem->invoke(*St, Id, encodeKvOp(Op)))
    return false;
  CacheId Mine = St->Tree.activeCache(Id); // The MCache just invoked.
  // if (push()) return OK; else return FAIL;
  auto Choice = Oracle->choosePush(*Sem, *St, Id);
  if (!Choice)
    return false;
  CacheId Target = Choice->Target;
  size_t Before = St->Tree.size();
  Sem->push(*St, Id, *Choice);
  if (St->Tree.size() == Before)
    return false; // Non-quorum ack set: not committed.
  // Committed iff our method lies in the certified prefix, i.e. is an
  // ancestor-or-self of the push target (the oracle may certify only an
  // earlier prefix: a partial failure, Fig. 3f).
  return St->Tree.isAncestorOrSelf(Mine, Target);
}

bool AdoKvClient::callWithRetry(const KvOp &Op, unsigned Attempts) {
  for (unsigned I = 0; I != Attempts; ++I)
    if (call(Op))
      return true;
  return false;
}

KvState AdoKvClient::committedState() const {
  KvState State;
  for (CacheId Id : St->Tree.committedLog()) {
    const Cache &C = St->Tree.cache(Id);
    if (C.isMethod())
      State.applyMethod(C.Method);
  }
  return State;
}
