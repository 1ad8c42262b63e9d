//===- read/ReadPath.h - Linearizable read tier selection -------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The read-path configuration surface: one enum naming the three
/// escalating linearizable-read tiers, plus the translation from a tier
/// choice into the core::CoreOptions lease parameters. The core always
/// serves ReadIndex reads and forwards follower reads; a tier is client
/// policy (where a host sends a read, and whether it reads through the
/// log at all) plus the lease length the lease tiers need.
///
/// Tier ladder (each includes everything below it):
///
///   Off           reads go through the log like writes (baseline).
///   ReadIndex     leader reads: capture the commit index, confirm
///                 leadership with one heartbeat-quorum round, serve
///                 from the applied state machine. No log append.
///   Lease         quorum-granted time lease: while it holds, the
///                 leader skips the confirmation round entirely. The
///                 lease duration is shrunk by the declared worst-case
///                 clock drift (MaxDriftPpm) and dies the moment a
///                 reconfiguration is appended.
///   FollowerLease followers serve reads at a leader-supplied safe
///                 index, which the leader answers at once under its
///                 lease and otherwise after one confirmation round; a
///                 wrong-leader NACK falls back to a retry at the
///                 leader (read/ReadTracker.h).
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_READ_READPATH_H
#define ADORE_READ_READPATH_H

#include "core/RaftCore.h"

#include <cstdint>

namespace adore {
namespace read {

/// The escalating read tiers. Ordered: a higher tier subsumes the
/// machinery of every lower one.
enum class ReadTier : uint8_t {
  Off = 0,       ///< Reads replicate through the log (baseline).
  ReadIndex = 1, ///< Leader reads behind one confirmation round.
  Lease = 2,     ///< Lease-holding leader skips confirmation.
  FollowerLease = 3, ///< Lease-protected follower reads.
};

/// A tier plus the timing parameters the lease tiers need. The
/// defaults read through the log and grant no lease.
struct ReadOptions {
  ReadTier Tier = ReadTier::Off;
  /// Requested lease length; the core clamps it to the minimum
  /// election timeout and shrinks it by drift (see effectiveLeaseUs).
  uint64_t LeaseDurationUs = 0;
  /// Declared worst-case clock drift, parts-per-million, used to bound
  /// the adversary: the lease the leader trusts is shortened by
  /// 2*MaxDriftPpm so a follower's faster clock cannot expire the
  /// promise before the leader stops relying on it.
  uint32_t MaxDriftPpm = 0;
};

/// Human-readable tier name (stable; used in bench JSON keys).
inline const char *tierName(ReadTier T) {
  switch (T) {
  case ReadTier::Off:
    return "log";
  case ReadTier::ReadIndex:
    return "read_index";
  case ReadTier::Lease:
    return "lease";
  case ReadTier::FollowerLease:
    return "follower_lease";
  }
  return "?";
}

/// Projects a tier choice onto the core's option set: the lease tiers
/// set the lease parameters, and lower tiers leave \p Opts untouched.
inline void applyTier(const ReadOptions &RO, core::CoreOptions &Opts) {
  if (RO.Tier >= ReadTier::Lease) {
    Opts.LeaseDurationUs = RO.LeaseDurationUs;
    Opts.MaxDriftPpm = RO.MaxDriftPpm;
  }
}

} // namespace read
} // namespace adore

#endif // ADORE_READ_READPATH_H
