//===- kv/KvStore.h - Replicated key-value store application ---*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The application layer of the paper's running example (Section 2.2 /
/// Fig. 2): a distributed key-value store, in both styles the paper
/// contrasts:
///
///  - ReplicatedKvStore: the SMR-style client over the executable Raft
///    cluster — put("a", 1) is one opaque rpc_call that internally
///    retries elections and replication;
///  - AdoKvClient: the ADO-style three-step client over the Adore model
///    itself — pull() / invoke(["put","a",1]) / push(), each of which
///    may fail and is retried explicitly.
///
/// Methods are opaque identifiers at the protocol layer; the KV layer
/// packs its operations into the 64-bit MethodId:
/// [2 op bits | 31 key bits | 31 value bits].
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_KV_KVSTORE_H
#define ADORE_KV_KVSTORE_H

#include "adore/Oracle.h"
#include "sim/Cluster.h"

#include <functional>
#include <map>
#include <optional>
#include <set>

namespace adore {
namespace kv {

/// KV operation kinds packed into MethodId.
enum class KvOpKind : uint8_t {
  Noop = 0, ///< No-op (also the leader's term-start entry).
  Put = 1,
  Del = 2,
};

/// A decoded KV operation.
struct KvOp {
  KvOpKind Kind = KvOpKind::Noop;
  uint32_t Key = 0;
  uint32_t Value = 0;
};

/// Packs \p Op into an opaque method id.
MethodId encodeKvOp(const KvOp &Op);

/// Unpacks a method id produced by encodeKvOp (Noop for id 0).
KvOp decodeKvOp(MethodId Method);

/// The deterministic state machine: applies committed KV operations in
/// order. One instance per replica.
class KvState {
public:
  /// Applies a decoded operation.
  void apply(const KvOp &Op);

  /// Applies an encoded method (protocol-layer convenience).
  void applyMethod(MethodId Method) { apply(decodeKvOp(Method)); }

  std::optional<uint32_t> get(uint32_t Key) const;
  size_t size() const { return Table.size(); }
  bool operator==(const KvState &RHS) const { return Table == RHS.Table; }

private:
  std::map<uint32_t, uint32_t> Table;
};

//===----------------------------------------------------------------------===//
// SMR-style store over the executable cluster
//===----------------------------------------------------------------------===//

/// Observer of the client-visible operation lifecycle: every put/del/get
/// reports an invocation when it is issued and a return when its Done
/// callback would fire. The chaos harness implements this to record
/// operation histories for linearizability checking; `Ok == false` on a
/// write means *indeterminate* (a retried command may still commit), not
/// "definitely did not happen".
class KvClientObserver {
public:
  enum class OpType : uint8_t { Put, Del, Get };

  virtual ~KvClientObserver();

  /// An operation begins. \p OpId is unique per store instance; \p Value
  /// is meaningful for Put only.
  virtual void onInvoke(uint64_t OpId, OpType Type, uint32_t Key,
                        uint32_t Value, sim::SimTime At) = 0;

  /// The operation returns to the client. \p Value carries the observed
  /// value for a successful Get and is nullopt otherwise.
  virtual void onReturn(uint64_t OpId, bool Ok,
                        std::optional<uint32_t> Value, sim::SimTime At) = 0;
};

/// The SMR-facade store of Fig. 2: opaque calls over a simulated Raft
/// cluster. Maintains one KvState per replica (fed by the cluster's
/// apply hook) and serves linearizable reads through the core's read
/// protocol, with no log append. Client commands carry a unique sequence
/// number and replicas apply each at most once, so a command that is
/// retried across leader failovers (and therefore may appear in the
/// committed log twice) takes effect exactly once — without this,
/// at-least-once retries would make even fault-free histories
/// non-linearizable.
class ReplicatedKvStore {
public:
  explicit ReplicatedKvStore(sim::Cluster &Cluster);

  /// put(key, value): completes (in virtual time) once committed, or
  /// with Ok=false once \p MaxTriesUs elapses (outcome indeterminate).
  void put(uint32_t Key, uint32_t Value,
           std::function<void(bool Ok, sim::SimTime LatencyUs)> Done,
           sim::SimTime MaxTriesUs = 5000000);

  /// del(key).
  void del(uint32_t Key,
           std::function<void(bool Ok, sim::SimTime LatencyUs)> Done,
           sim::SimTime MaxTriesUs = 5000000);

  /// Linearizable get through the core's read path: no log append. The
  /// cluster confirms a safe index (a ReadIndex round, the lease fast
  /// path when the nodes grant leases, or a follower read with
  /// \p AtFollower) and the value is served from the confirming node's
  /// replica, whose applied state covers that index by the time the
  /// read resolves. Ok=false means the read exhausted \p MaxTriesUs.
  void get(uint32_t Key,
           std::function<void(bool Ok, std::optional<uint32_t> Value,
                              sim::SimTime LatencyUs)>
               Done,
           bool AtFollower = false, sim::SimTime MaxTriesUs = 5000000);

  /// Installs the history observer (nullptr to detach). Not owned.
  void setObserver(KvClientObserver *O) { Observer = O; }

  /// Replica state for inspection (e.g. convergence checks in tests).
  const KvState &replica(NodeId Id) const;

  /// True iff all replicas with equal applied counts agree; tests drain
  /// the cluster first.
  bool replicasAgree() const;

private:
  void onApply(NodeId Node, size_t Index, const sim::SimLogEntry &E);

  sim::Cluster &Cluster;
  std::map<NodeId, KvState> Replicas;
  std::map<NodeId, size_t> AppliedCount;
  /// Per-replica set of client sequence numbers already applied; repeat
  /// occurrences of a retried command are skipped (exactly-once apply).
  /// Deterministic across replicas because all apply the same log.
  std::map<NodeId, std::set<uint64_t>> AppliedSeqs;
  uint64_t NextOpId = 1;
  KvClientObserver *Observer = nullptr;
};

//===----------------------------------------------------------------------===//
// ADO-style client over the Adore model
//===----------------------------------------------------------------------===//

/// The three-step ADO client of Fig. 2 run directly against the Adore
/// abstract machine: pull to become leader, invoke the method, push to
/// commit — each step may fail, and the client retries. One AdoKvClient
/// per replica id; all clients share one AdoreState (the global abstract
/// object).
class AdoKvClient {
public:
  AdoKvClient(NodeId Id, const Semantics &Sem, AdoreState &Shared,
              OracleStrategy &Oracle)
      : Id(Id), Sem(&Sem), St(&Shared), Oracle(&Oracle) {}

  /// Fig. 2's ADO pseudocode: pull if not leader, invoke, push. Returns
  /// true once the method is committed; false when any step failed (the
  /// caller decides whether to retry).
  bool call(const KvOp &Op);

  /// Retries call() up to \p Attempts times.
  bool callWithRetry(const KvOp &Op, unsigned Attempts = 16);

  /// Folds the committed log into a KvState (what any client observes).
  KvState committedState() const;

  NodeId id() const { return Id; }

private:
  bool hasActiveLeadership() const;

  NodeId Id;
  const Semantics *Sem;
  AdoreState *St;
  OracleStrategy *Oracle;
};

} // namespace kv
} // namespace adore

#endif // ADORE_KV_KVSTORE_H
