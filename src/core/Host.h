//===- core/Host.h - The host contract of the Raft core -------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place that turns a core::RaftCore effect batch into host
/// actions. Every host — sim::RaftNode (event queue), rt::RtNode
/// (threads and a transport) and mc::CoreNetModel (model-checker
/// state) — hands each batch to dispatchEffects(), so the switch over
/// Effect::Kind and the persist-before-act pre-pass exist exactly once,
/// and the model checker runs the same effect handling the shipping
/// hosts run. adore_lint's effect-dispatch rule keeps it that way.
///
/// A host is any type with these members (called statically: the
/// template adds no indirect call of its own):
///
///   void persist(size_t DirtyFrom); // once, before any other effect of
///                                 // a batch that carries Persist;
///                                 // DirtyFrom is the lowest first-
///                                 // changed log index among them
///   void send(Msg &&M);
///   void setTimer(TimerId T, uint64_t Gen, uint64_t DelayUs);
///   void cancelTimer(TimerId T);
///   void apply(size_t Index, const LogEntry &E);
///   void commitAdvanced(size_t Index);
///   void leaderElected(Time Term);
///   void replicaSuspected(NodeId Peer);
///   void replicaRecovered(NodeId Peer);
///   void readReady(uint64_t ReadId, size_t SafeIndex);
///   void readFailed(uint64_t ReadId);
///
/// HostBase implements everything but send and the timers on top of an
/// optional store and a HostHooks table; sim and rt derive from it.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_CORE_HOST_H
#define ADORE_CORE_HOST_H

#include "core/RaftCore.h"

#include <algorithm>
#include <functional>

namespace adore {
namespace core {

/// Observers a harness hangs off a hosted core. Each receives the
/// hosting node's id first; unset entries are skipped.
struct HostHooks {
  /// Every entry the node applies (commits), in log order.
  std::function<void(NodeId, size_t, const LogEntry &)> OnApply;
  /// The node won the election for the given term.
  std::function<void(NodeId, Time)> OnLeader;
  /// Leader-observed liveness transition: (observer, peer, suspected).
  /// Fires only with CoreOptions::EnableSuspicion.
  std::function<void(NodeId, NodeId, bool)> OnSuspicion;
  /// Read outcome: (node, ReadId, ok, safe index). On ok the node's
  /// applied state machine has reached the safe index, so serving the
  /// read from this replica is linearizable. Fires only when a read
  /// tier (CoreOptions::EnableReadIndex/...) is on.
  std::function<void(NodeId, uint64_t, bool, size_t)> OnRead;
};

/// Executes \p Effs against \p H in emission order. Persist-before-act:
/// the core emits Persist at the END of a step's batch, after the Sends
/// it must gate, so when the batch carries one the host persists up
/// front — nothing, especially no Send, may escape before the state
/// backing it is durable. Persisting more than the step needed is
/// always safe; acting before the flush is not. A batch may hold several
/// steps (rt drains its inbox in bursts), so the host is told the lowest
/// dirty-from index among their Persist effects.
template <typename HostT> void dispatchEffects(Effects &Effs, HostT &H) {
  size_t DirtyFrom = SIZE_MAX;
  for (const Effect &E : Effs)
    if (E.K == Effect::Kind::Persist)
      DirtyFrom = std::min(DirtyFrom, E.Index);
  if (DirtyFrom != SIZE_MAX)
    H.persist(DirtyFrom);
  for (Effect &E : Effs) {
    // No default: adding an Effect::Kind without deciding what hosts do
    // with it is a compile error under -Werror=switch.
    switch (E.K) {
    case Effect::Kind::Send:
      H.send(std::move(E.M));
      break;
    case Effect::Kind::SetTimer:
      H.setTimer(E.Timer, E.TimerGen, E.DelayUs);
      break;
    case Effect::Kind::CancelTimer:
      H.cancelTimer(E.Timer);
      break;
    case Effect::Kind::Apply:
      H.apply(E.Index, E.Entry);
      break;
    case Effect::Kind::CommitAdvanced:
      H.commitAdvanced(E.Index);
      break;
    case Effect::Kind::Persist:
      // Handled by the pre-pass above.
      break;
    case Effect::Kind::LeaderElected:
      H.leaderElected(E.Term);
      break;
    case Effect::Kind::ReplicaSuspected:
      H.replicaSuspected(E.Peer);
      break;
    case Effect::Kind::ReplicaRecovered:
      H.replicaRecovered(E.Peer);
      break;
    case Effect::Kind::ReadReady:
      H.readReady(E.ReadId, E.Index);
      break;
    case Effect::Kind::ReadFailed:
      H.readFailed(E.ReadId);
      break;
    }
  }
}

/// The half of a host that sim and rt share: Persist and CommitAdvanced
/// go to an optional durable store (store::NodeStore, duck-typed so this
/// layer stays pure), the observer effects to a HostHooks table. Hosts
/// derive from it and add send and the timers.
template <typename StoreT> struct HostBase {
  const RaftCore &Core;
  const HostHooks &Hooks;
  StoreT *Store;

  /// One sync covers the whole batch (group commit). Without a store,
  /// crash is state-level and the core keeps durable fields by fiat.
  void persist(size_t DirtyFrom) const {
    if (Store) {
      Store->persistFrom(Core, DirtyFrom);
      Store->sync();
    }
  }
  /// Deferred durability: the commit record rides the next sync, so a
  /// crash can lose it — which is safe, since recovery re-derives
  /// commits from the quorum.
  void commitAdvanced(size_t Index) const {
    if (Store)
      Store->noteCommit(Index);
  }
  void apply(size_t Index, const LogEntry &E) const {
    if (Hooks.OnApply)
      Hooks.OnApply(Core.id(), Index, E);
  }
  void leaderElected(Time Term) const {
    if (Hooks.OnLeader)
      Hooks.OnLeader(Core.id(), Term);
  }
  void replicaSuspected(NodeId Peer) const {
    if (Hooks.OnSuspicion)
      Hooks.OnSuspicion(Core.id(), Peer, /*Suspected=*/true);
  }
  void replicaRecovered(NodeId Peer) const {
    if (Hooks.OnSuspicion)
      Hooks.OnSuspicion(Core.id(), Peer, /*Suspected=*/false);
  }
  void readReady(uint64_t ReadId, size_t SafeIndex) const {
    if (Hooks.OnRead)
      Hooks.OnRead(Core.id(), ReadId, /*Ok=*/true, SafeIndex);
  }
  void readFailed(uint64_t ReadId) const {
    if (Hooks.OnRead)
      Hooks.OnRead(Core.id(), ReadId, /*Ok=*/false, 0);
  }
};

} // namespace core
} // namespace adore

#endif // ADORE_CORE_HOST_H
