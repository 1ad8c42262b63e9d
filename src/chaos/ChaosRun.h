//===- chaos/ChaosRun.h - One chaos scenario end to end -------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The chaos harness's top level: build a cluster and a replicated KV
/// store, unleash a nemesis and a randomized client workload, then — after
/// the horizon heal and a quiescence window — check everything we can
/// check:
///
///   - the recorded client history is linearizable per key (with
///     indeterminate timed-out writes allowed to take effect late or
///     never),
///   - at most one leader per term was ever elected,
///   - the committed ledger never diverged (no node applied a different
///     entry at an index some other node had already applied),
///   - every committed entry survived every crash/restart/reconfig: after
///     healing, all members of the final configuration hold the full
///     committed prefix,
///   - replica KV states converge after heal.
///
/// Everything is derived deterministically from one seed, so a failing
/// (seed, scenario) pair is a complete, replayable bug report.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_CHAOS_CHAOSRUN_H
#define ADORE_CHAOS_CHAOSRUN_H

#include "chaos/Nemesis.h"
#include "support/Json.h"

#include <string>
#include <vector>

namespace adore {
namespace chaos {

/// Randomized client workload knobs.
struct ChaosWorkloadOptions {
  size_t NumOps = 60;
  uint32_t NumKeys = 8;
  /// Operation mix (out of 1000); the remainder are puts.
  unsigned GetPermille = 330;
  unsigned DelPermille = 100;
  /// Per-operation client budget; shorter than the default so timed-out
  /// (indeterminate) operations actually occur under faults.
  sim::SimTime OpTimeoutUs = 1500000;
};

/// Full configuration of one chaos run.
struct ChaosRunOptions {
  SchemeKind Scheme = SchemeKind::RaftSingleNode;
  size_t Members = 3;
  size_t Spares = 2;
  /// Number of data consensus groups. 1 runs one group with no pool;
  /// >1 (or Scenario::ShardReconfig, which needs a metadata group even
  /// over one data group) runs a pool: a metadata group replicating the
  /// pool map plus Groups data groups, with the workload routed per key.
  size_t Groups = 1;
  /// Shards the keyspace is split into for sharded runs (jump hash).
  uint32_t Shards = 16;
  sim::ClusterOptions Cluster;
  ChaosWorkloadOptions Workload;
  NemesisOptions Nemesis;
  /// Fault-free tail after the horizon heal in which the cluster must
  /// converge; all durability/convergence invariants are checked at its
  /// end.
  sim::SimTime QuiescenceUs = 3000000;
  /// Back every node with the WAL+snapshot store on a fault-injecting
  /// in-memory disk (forced on for Scenario::DiskFaults). Crashes then
  /// power the disk down per StoreFaults and restarts recover from it,
  /// with recovered state cross-checked against the idealized copy.
  bool DurableStore = false;
  /// Crash-time disk fault model used when the store is on: lose the
  /// un-fsynced suffix, usually torn at a random byte, often with a
  /// garbage tail where a record was mid-write.
  store::MemVfsFaults StoreFaults = defaultStoreFaults();

  static store::MemVfsFaults defaultStoreFaults() {
    store::MemVfsFaults F;
    F.LoseUnsyncedOnCrash = true;
    F.TornWritePermille = 700;
    F.GarbageTailPermille = 600;
    F.MaxGarbageBytes = 64;
    return F;
  }
};

/// Everything a run produced, checks included.
struct ChaosRunResult {
  uint64_t Seed = 0;
  Scenario Kind = Scenario::Mixed;

  // Workload outcomes.
  size_t OpsTotal = 0;
  size_t OpsOk = 0;
  size_t OpsFailed = 0;
  size_t OpsIndeterminate = 0;

  // Network statistics.
  size_t MessagesSent = 0;
  size_t DroppedByCut = 0;
  size_t DroppedByLoss = 0;
  size_t Duplicated = 0;

  // Nemesis statistics.
  size_t NemesisActions = 0;
  size_t ReconfigsRequested = 0;
  size_t ReconfigsCommitted = 0;
  bool HealedAll = false;

  size_t CommittedEntries = 0;
  uint64_t LinStatesExplored = 0;

  /// Sharded-run breakdown: one entry per consensus group (group 0 is
  /// the metadata group). Empty for single-group runs, which keeps the
  /// legacy JSON byte-identical.
  struct GroupStatsEntry {
    uint32_t Group = 0;
    size_t CommittedEntries = 0;
    /// Client ops whose invocation routed to this group (0 for meta).
    size_t Ops = 0;
  };
  std::vector<GroupStatsEntry> GroupStats;

  // Pool-map statistics (sharded runs only).
  uint64_t MapGeneration = 0;
  uint64_t MapChangesCommitted = 0;
  uint64_t WrongGroupNacks = 0;
  uint64_t MapRefreshes = 0;

  // Self-healing statistics (Scenario::KillForever runs only; the JSON
  // keys are emitted only when Healing is set, which keeps every legacy
  // report byte-identical).
  bool Healing = false;
  size_t PermanentKills = 0;
  /// First permanent kill to the first ReplicaSuspected observation.
  uint64_t TimeToDetectUs = 0;
  /// Last permanent kill to the cluster being back at full strength:
  /// target-many live members all holding the leader's commit prefix.
  uint64_t TimeToFullReplicationUs = 0;
  uint64_t SnapshotBytesTransferred = 0;
  uint64_t SnapshotsInstalled = 0;
  uint64_t HealReconfigsCommitted = 0;
  uint64_t HealReconfigRetries = 0;

  // Read-path statistics (Scenario::ClockDrift runs only; the JSON keys
  // are emitted only when ReadPath is set, which keeps every legacy
  // report byte-identical).
  bool ReadPath = false;
  size_t ReadsIssued = 0;
  size_t ReadsOk = 0;
  size_t ReadsFailed = 0;
  size_t ReadsAtFollower = 0;

  // Durable-store statistics (all zero unless the store was on).
  bool DurableStore = false;
  store::StoreStats Store;

  /// Event-queue self-diagnostics: schedule requests that targeted a
  /// virtual time already in the past and were clamped to "now" (see
  /// sim::QueueStats).
  uint64_t ClampedPastSchedules = 0;

  /// Human-readable invariant violations; empty means the run passed.
  std::vector<std::string> Violations;

  /// Canonical nemesis action trace and client history (byte-stable for
  /// identical (seed, options) runs — the determinism test diffs these).
  std::string NemesisTrace;
  std::string HistoryText;

  bool passed() const { return Violations.empty(); }

  /// Appends this result as one JSON object. The trace and history are
  /// included only for failing runs (they dominate the report size).
  void addToJson(JsonWriter &W) const;

  /// One-line summary for logs.
  std::string summary() const;
};

/// Runs one scenario to completion. Deterministic in (Opts, Seed).
/// Every per-group step (ledger, nemesis, healer, statistics, checks)
/// loops over the groups under test: one group, or the metadata group
/// plus Opts.Groups data groups of a pool, whose runs add the pool-map
/// invariants (generation monotonicity, no committed entry lost across
/// a map change) on top of the per-key linearizability of the merged
/// history.
ChaosRunResult runChaosScenario(const ChaosRunOptions &Opts, uint64_t Seed);

} // namespace chaos
} // namespace adore

#endif // ADORE_CHAOS_CHAOSRUN_H
