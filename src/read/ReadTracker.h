//===- read/ReadTracker.h - Client-side read routing policy -----*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sans-I/O client half of the read protocol: allocates read ids,
/// chooses which replica a fresh read should target under the active
/// tier (leader, or round-robin across followers when the tier permits
/// follower reads), and owns the NACK fallback policy — a follower
/// that fails the read (no leader hint, or a wrong-leader NACK) sends
/// it back to the leader exactly once before the attempt is declared
/// failed.
///
/// Like shard/ShardedKvClient, the tracker never talks to a network:
/// hosts feed it outcomes and ask it where to go next, so the whole
/// retry policy is deterministic and unit-testable with scripted
/// replies, and the sim and rt clients share one routing brain.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_READ_READTRACKER_H
#define ADORE_READ_READTRACKER_H

#include "read/ReadPath.h"
#include "support/Ids.h"

#include <cstdint>
#include <vector>

namespace adore {
namespace read {

/// Monotone counters describing the tracker's life so far.
struct ReadStats {
  uint64_t Issued = 0;        ///< Reads begun.
  uint64_t ServedAtLeader = 0;
  uint64_t ServedAtFollower = 0;
  uint64_t RetriedAtLeader = 0; ///< Follower NACK -> leader fallback.
  uint64_t Failed = 0;          ///< Exhausted the fallback too.
};

/// Where the next attempt of a read should go.
struct ReadTarget {
  NodeId Node = 0;
  bool AtLeader = true;
};

class ReadTracker {
public:
  explicit ReadTracker(ReadTier Tier) : Tier(Tier) {}

  ReadTier tier() const { return Tier; }

  /// Allocates a fresh read id and picks its first target: the leader,
  /// unless the tier allows follower reads and \p Members contains a
  /// non-leader replica, in which case followers are visited
  /// round-robin (spreading read load is the whole point of tier 3).
  ReadTarget begin(uint64_t &ReadId, NodeId Leader,
                   const std::vector<NodeId> &Members);

  /// Follower answered with a NACK (wrong leader or lease lapsed).
  /// Returns the leader-retry target exactly once per read; a second
  /// failure of the same read returns false and counts it as failed.
  bool onNack(uint64_t ReadId, NodeId Leader, ReadTarget &Retry);

  /// Read completed at its target.
  void onServed(uint64_t ReadId, bool AtLeader);

  /// Read failed outright (leader lost leadership mid-read, crash).
  void onFailed(uint64_t ReadId);

  const ReadStats &stats() const { return Stats; }

  /// Reads issued but not yet resolved (for drain checks in tests).
  size_t inFlight() const { return Pending.size(); }

private:
  struct PendingRead {
    uint64_t ReadId = 0;
    bool RetriedAtLeader = false;
  };

  /// Erases \p ReadId from Pending; returns false if unknown (stale
  /// duplicate outcome — hosts may deliver late answers after a
  /// fallback already resolved the read).
  bool resolve(uint64_t ReadId, PendingRead &Out);

  ReadTier Tier;
  uint64_t NextReadId = 0;
  size_t NextFollower = 0; ///< Round-robin cursor over Members.
  std::vector<PendingRead> Pending;
  ReadStats Stats;
};

} // namespace read
} // namespace adore

#endif // ADORE_READ_READTRACKER_H
