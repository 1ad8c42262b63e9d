//===- shard/ShardedKvClient.h - Map-caching routing client ---*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded KV client: routes each per-key operation to the group
/// that owns the key's shard under its cached pool map, and recovers
/// from staleness by refetching. The protocol is the DAOS one:
///
///   1. place: shard = shardForKey(key), group = map[shard];
///   2. send the op stamped with the cached map generation;
///   3. a server whose view disagrees (newer map, or it no longer owns
///      the shard) answers WrongGroup{CurrentGen} instead of executing;
///   4. the client refetches the map (from the metadata group), installs
///      it if newer, and retries — bounded by MaxAttempts.
///
/// The client is sans-I/O: it never talks to a network or a cluster
/// directly. The host supplies a Transport of two hooks — perform an
/// already-routed request, and fetch the current map — and the client
/// owns only the routing state machine. That keeps every retry decision
/// deterministic and unit-testable with a scripted fake transport, and
/// lets the sim and rt hosts share one routing brain.
///
/// Payloads are opaque 64-bit methods (the same MethodId the log
/// carries); this layer deliberately knows nothing about KV encoding —
/// kv/ShardedKv.cpp owns that, on the impure side of the layering line.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_SHARD_SHARDEDKVCLIENT_H
#define ADORE_SHARD_SHARDEDKVCLIENT_H

#include "shard/PoolMap.h"
#include "support/Ids.h"
#include "support/Rng.h"

#include <cstdint>
#include <functional>
#include <string>

namespace adore {
namespace shard {

/// Server-side rejection of a stale-routed request: the serving group's
/// current map generation rides back so the client knows how far behind
/// it is (and can skip refetching if it already caught up meanwhile).
struct WrongGroupNack {
  uint64_t CurrentGen = 0;
};

/// A routed request as it crosses the client/host boundary: the key and
/// opaque method plus the routing stamp (shard, group, map generation)
/// the server validates before executing.
struct RouteRequest {
  uint64_t Key = 0;
  MethodId Payload = 0;
  bool IsRead = false;
  uint32_t Shard = 0;
  GroupId Group = InvalidGroupId;
  uint64_t MapGen = 0;
  /// Set by the client's retry-at-leader fallback after a ReadNack: the
  /// server must serve this read at the leader (a ReadIndex round or
  /// the lease fast path), never at a follower. Meaningless unless
  /// IsRead.
  bool ReadAtLeader = false;
};

/// What a group answers: success with an optional value (reads), a
/// definite failure (e.g. the group never committed the op), or a
/// WrongGroup NACK. Indeterminate outcomes (timeouts) are expressed by
/// the host never completing the request — the chaos recorder treats
/// those separately.
struct GroupReply {
  bool Ok = false;
  bool HasValue = false;
  uint32_t Value = 0;
  bool HasNack = false;
  WrongGroupNack Nack;
  /// Server-side rejection of a lease-protected read: the contacted
  /// replica was the wrong leader or its lease had expired, so serving
  /// would risk staleness. Distinct from WrongGroup — the *routing* was
  /// right, the read *placement* was wrong — so the client retries at
  /// the leader instead of refetching the map.
  bool ReadNack = false;
};

/// Wire helpers for hosts that carry requests/replies as opaque frames
/// (the rt bus). Round-trip safe; decode rejects truncated or trailing
/// bytes.
void encodeRouteRequest(std::string &Out, const RouteRequest &R);
bool decodeRouteRequest(const std::string &Bytes, RouteRequest &R);
void encodeGroupReply(std::string &Out, const GroupReply &R);
bool decodeGroupReply(const std::string &Bytes, GroupReply &R);

/// Routing statistics, exposed for benchmarks and chaos reporting.
struct RouteStats {
  uint64_t Routed = 0;          ///< requests handed to the transport
  uint64_t Completed = 0;       ///< ops finished (ok or failed)
  uint64_t WrongGroupNacks = 0; ///< stale-generation rejections seen
  uint64_t MapRefreshes = 0;    ///< map fetches triggered by NACKs
  uint64_t MapInstalls = 0;     ///< fetched maps that were newer
  uint64_t Exhausted = 0;       ///< ops that ran out of attempts
  uint64_t BackoffSleeps = 0;   ///< retries delayed through Sleep
  uint64_t BackoffUsTotal = 0;  ///< total delay requested from Sleep
  uint64_t ReadNacks = 0;       ///< lease/leader read rejections seen
  uint64_t ReadRetriesAtLeader = 0; ///< reads re-sent pinned to leader
};

/// Retry pacing for NACKed sends. Each consecutive retry of one op
/// sleeps a jittered delay drawn uniformly from [ceiling/2, ceiling],
/// with the ceiling starting at BaseUs and doubling up to MaxUs (the
/// decorrelated-jitter shape: a flapping group sees retries spread out
/// instead of a synchronized storm). Seeded so sim runs stay
/// deterministic. Only engaged when the host supplies Transport::Sleep;
/// without it retries fire immediately, as they always have.
struct BackoffOptions {
  uint64_t Seed = 1;
  uint64_t BaseUs = 2000;
  uint64_t MaxUs = 64000;
};

/// The sans-I/O routing client. Not thread-safe: hosts that drive it
/// from multiple threads (rt) serialize access externally.
class ShardedKvClient {
public:
  /// Delivers \p Reply for a request previously given to Perform.
  using ReplyFn = std::function<void(const GroupReply &)>;
  /// Delivers a fetched pool map (possibly stale; installMap filters).
  using MapFn = std::function<void(const PoolMap &)>;

  /// Host-provided effects. Perform must eventually call Done at most
  /// once; never calling it models a lost request (the op stays open,
  /// which the history recorder reports as indeterminate). FetchMap
  /// must eventually call Done with the host's best known map.
  struct Transport {
    std::function<void(const RouteRequest &, ReplyFn)> Perform;
    std::function<void(MapFn)> FetchMap;
    /// Runs \p Resume after \p DelayUs host time (virtual in the sim,
    /// wall in rt). Optional: unset means retries fire immediately.
    /// The hook keeps this layer pure — the client decides *how long*,
    /// the host decides *how* to wait.
    std::function<void(uint64_t DelayUs, std::function<void()> Resume)> Sleep;
  };

  ShardedKvClient(PoolMap Initial, Transport T, BackoffOptions Backoff = {});

  /// Routes \p Payload for \p Key and drives the NACK/refetch/retry loop
  /// until a non-NACK reply arrives or \p MaxAttempts routed sends are
  /// exhausted (then Done gets Ok=false). Calls \p Done at most once.
  /// Reads start un-pinned (a host with follower reads enabled may serve
  /// them anywhere); a ReadNack re-sends the read pinned to the leader
  /// immediately — placement rejections signal staleness risk, not
  /// congestion, so they skip the backoff ladder.
  void submit(uint64_t Key, MethodId Payload, bool IsRead, ReplyFn Done,
              unsigned MaxAttempts = 6);

  /// Installs \p M if strictly newer than the cached map; returns
  /// whether it was installed. Hosts may push maps proactively
  /// (broadcast) through this same gate.
  bool installMap(const PoolMap &M);

  const PoolMap &map() const { return Map; }
  const RouteStats &stats() const { return Stats; }

private:
  void attempt(uint64_t Key, MethodId Payload, bool IsRead, bool ReadAtLeader,
               unsigned Left, uint64_t BackoffCeilingUs, ReplyFn Done);
  /// Re-enters attempt() after a jittered delay drawn below
  /// \p CeilingUs, or immediately when the host supplied no Sleep hook.
  void retryAfter(uint64_t CeilingUs, std::function<void()> Resume);

  PoolMap Map;
  Transport Io;
  BackoffOptions Backoff;
  Rng BackoffRng;
  RouteStats Stats;
};

} // namespace shard
} // namespace adore

#endif // ADORE_SHARD_SHARDEDKVCLIENT_H
