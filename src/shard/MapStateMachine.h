//===- shard/MapStateMachine.h - Pool-map decisions ----------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pool map as the metadata group's state machine, shared by every
/// runtime. A proposal is recorded under a ticket MethodId, which the
/// host submits through the metadata log; the first application of each
/// log index decides the ticket it carries, installing the proposed map
/// iff it is valid and its generation is exactly committed + 1
/// (compare-and-set: a concurrent competing proposal commits in the log
/// too, but as a no-op, and its proposer reads the verdict false). Every
/// install is audited for generation monotonicity.
///
/// Pure: no locking, no timers, no I/O. Hosts add what is theirs — the
/// simulator its server-view broadcast and fetch latency, the threaded
/// runtime its mutex, condition variable and early generation
/// pre-check.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_SHARD_MAPSTATEMACHINE_H
#define ADORE_SHARD_MAPSTATEMACHINE_H

#include "shard/PoolMap.h"
#include "support/Ids.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace adore {
namespace shard {

class MapStateMachine {
public:
  explicit MapStateMachine(PoolMap Initial) : Committed(std::move(Initial)) {}

  /// The latest installed map.
  const PoolMap &committed() const { return Committed; }

  /// Installed map changes past the initial map.
  uint64_t changes() const { return Changes; }

  /// Generation-monotonicity violations seen at install. Empty means the
  /// invariant held.
  const std::vector<std::string> &violations() const { return Violations; }

  /// Records \p NewMap as a proposal and returns the ticket to submit
  /// through the metadata log.
  MethodId propose(PoolMap NewMap) {
    MethodId Ticket = NextTicket++;
    Proposals.emplace(Ticket, std::move(NewMap));
    return Ticket;
  }

  /// Feeds one application, at \p Index on any replica, of a metadata-log
  /// command entry carrying \p Method (hosts skip the other entry kinds;
  /// a method of 0 is a term-start noop). Returns true iff it decided a
  /// ticket: the first application of a command index that carries a
  /// proposal's ticket.
  bool apply(size_t Index, MethodId Method) {
    // First application wins: every meta replica applies the same
    // ledger in index order, so later applications of an index (other
    // replicas, restarts) carry no new information.
    if (Method == 0 || Index <= IndexSeen)
      return false;
    IndexSeen = Index;
    auto It = Proposals.find(Method);
    if (It == Proposals.end())
      return false;
    const PoolMap &M = It->second;
    // Compare-and-set on the generation: only the successor of the
    // current committed map installs.
    bool Install = M.valid() && M.Generation == Committed.Generation + 1;
    if (Install) {
      if (M.Generation <= Committed.Generation)
        Violations.push_back(
            "pool map generation not monotone: committed gen " +
            std::to_string(M.Generation) + " after " +
            std::to_string(Committed.Generation));
      Committed = M;
      ++Changes;
    }
    Decided[Method] = Install;
    return true;
  }

  /// The decided outcome of \p Ticket (installed or lost the CAS), or
  /// nullopt while undecided.
  std::optional<bool> verdict(MethodId Ticket) const {
    auto It = Decided.find(Ticket);
    if (It == Decided.end())
      return std::nullopt;
    return It->second;
  }

private:
  PoolMap Committed;
  std::map<MethodId, PoolMap> Proposals;
  std::map<MethodId, bool> Decided;
  MethodId NextTicket = 1;
  /// First-apply-wins guard over the metadata ledger.
  size_t IndexSeen = 0;
  uint64_t Changes = 0;
  std::vector<std::string> Violations;
};

} // namespace shard
} // namespace adore

#endif // ADORE_SHARD_MAPSTATEMACHINE_H
