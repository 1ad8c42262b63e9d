//===- chaos/History.h - Client operation history recorder ----*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Records the client-visible history of a chaos run as a sequence of
/// invoke/return events, Jepsen-style: every put/del/get issued against
/// the ReplicatedKvStore becomes one ClientOp with an invocation time, a
/// return time, and an outcome. The outcome taxonomy matters for the
/// linearizability checker:
///
///   Ok            — the operation definitely took effect (writes) or
///                   definitely observed the returned value (reads);
///   Fail          — the operation definitely had no effect (only reads
///                   can fail definitively: a read that exhausted its
///                   retries observed nothing and mutated nothing);
///   Indeterminate — a write whose client gave up waiting. The command
///                   may still sit in some leader's log and commit
///                   arbitrarily later, so the checker must allow it to
///                   take effect at any point after its invocation — or
///                   never.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_CHAOS_HISTORY_H
#define ADORE_CHAOS_HISTORY_H

#include "kv/KvStore.h"
#include "kv/ShardedKv.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace adore {
namespace chaos {

/// Client operation kinds at the history level.
enum class OpKind : uint8_t { Put, Del, Get };

/// What the client learned about an operation by the end of the run.
enum class Outcome : uint8_t { Pending, Ok, Fail, Indeterminate };

const char *opKindName(OpKind K);
const char *outcomeName(Outcome O);

/// One client operation as observed at the client boundary.
struct ClientOp {
  uint64_t OpId = 0;
  OpKind Kind = OpKind::Put;
  uint32_t Key = 0;
  /// Written value (Put); unused for Del/Get.
  uint32_t Value = 0;
  /// Observed value for an Ok Get (nullopt = key absent at the read's
  /// safe index).
  std::optional<uint32_t> ReadValue;
  sim::SimTime InvokedAt = 0;
  /// Meaningful for Ok/Fail outcomes; for Indeterminate it records when
  /// the client gave up, which is *not* an upper bound on the effect.
  sim::SimTime ReturnedAt = 0;
  /// Logical invocation/return order: one strictly monotone counter over
  /// every event the recorder observes. Virtual-microsecond stamps can
  /// tie (a return and the next invocation in the same event-queue
  /// tick), which would erase real causal order and let the checker
  /// treat sequential operations as concurrent; the checker therefore
  /// orders by these. Zero means unset (hand-built histories), in which
  /// case the checker falls back to the timestamps.
  uint64_t InvSeq = 0;
  uint64_t RetSeq = 0;
  Outcome Out = Outcome::Pending;
  /// Placement tags of a sharded run: the shard the key mapped to and
  /// the group the client routed to under its map at invocation time.
  /// Only rendered when HasPlacement, so single-group histories stay
  /// byte-identical to the pre-sharding format.
  uint32_t Shard = 0;
  shard::GroupId Group = 0;
  bool HasPlacement = false;

  /// Canonical one-line rendering, byte-stable across identical runs.
  std::string str() const;
};

/// The recorder: plugs into ReplicatedKvStore (single group) or
/// ShardedKvStore (sharded pool) as the client observer and accumulates
/// ClientOps. The single onReturn body serves both observer contracts.
class History : public kv::KvClientObserver, public kv::ShardedKvObserver {
public:
  using OpType = kv::KvClientObserver::OpType;

  void onInvoke(uint64_t OpId, OpType Type, uint32_t Key, uint32_t Value,
                sim::SimTime At) override;
  void onInvoke(uint64_t OpId, OpType Type, uint32_t Key, uint32_t Value,
                uint32_t Shard, shard::GroupId Group,
                sim::SimTime At) override;
  void onReturn(uint64_t OpId, bool Ok, std::optional<uint32_t> Value,
                sim::SimTime At) override;

  /// Closes the history once the run ends: operations still pending are
  /// writes that never answered (Indeterminate) or reads that never
  /// resolved (Fail — an unresolved read observed nothing).
  void finalize(sim::SimTime At);

  /// Test/mutation hook: appends a forged operation. Used to verify that
  /// the linearizability checker actually rejects corrupted histories.
  /// Assigns logical sequence numbers (invoked and returned after every
  /// recorded event) unless the op carries its own.
  void inject(ClientOp Op) {
    if (Op.InvSeq == 0)
      Op.InvSeq = NextSeq++;
    if (Op.RetSeq == 0)
      Op.RetSeq = NextSeq++;
    Ops.push_back(std::move(Op));
  }

  const std::vector<ClientOp> &ops() const { return Ops; }
  size_t size() const { return Ops.size(); }
  size_t countWithOutcome(Outcome O) const;

  /// Canonical multi-line rendering (one op per line), byte-comparable
  /// across reruns for the seed-determinism regression test.
  std::string str() const;

private:
  std::vector<ClientOp> Ops;
  std::map<uint64_t, size_t> IndexByOpId;
  /// The recorder's causal clock; see ClientOp::InvSeq.
  uint64_t NextSeq = 1;
};

} // namespace chaos
} // namespace adore

#endif // ADORE_CHAOS_HISTORY_H
