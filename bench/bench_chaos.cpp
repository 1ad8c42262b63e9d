//===- bench/bench_chaos.cpp - E8: chaos seed sweep -------------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Experiment E8 (robustness): Jepsen-style chaos sweeps over the
// executable cluster. Every (scenario, seed) pair runs a nemesis fault
// schedule plus a randomized KV workload, then checks client-history
// linearizability and cluster safety invariants (election safety,
// committed-ledger durability, replica convergence). Any violation is a
// real bug in the executable Raft + reconfiguration layer — the
// complement of the model checker: unbounded-in-principle executions,
// checked at runtime instead of exhaustively.
//
// Usage:
//   bench_chaos                 full sweep (seeds per scenario below)
//   bench_chaos --smoke         CI smoke subset (~200 runs, < 1 min)
//   bench_chaos --seeds N       N seeds per scenario (N >= 1)
//   bench_chaos --scenario S    one scenario only (by name)
//   bench_chaos --runtime=R     sim (default: virtual-time simulator) or
//                               rt (threaded wall-clock runtime; crash
//                               faults only, few seeds — see RtRun.h)
//   bench_chaos --durable       back every node with the WAL+snapshot
//                               store on a fault-injecting disk (the
//                               disk-faults scenario forces this on)
//   bench_chaos --groups N      run N data consensus groups behind a
//                               replicated pool map (N >= 1; 1 runs one
//                               group with no pool, except for the
//                               shard-reconfig scenario, which always
//                               runs a pool)
//   bench_chaos --shards N      shards the keyspace splits into for
//                               multi-group runs (default 16)
//   bench_chaos --transport=T   bus (default: in-process message bus)
//                               or tcp (real loopback sockets; requires
//                               --runtime=rt — the simulator has no
//                               kernel underneath it)
//
// Output: per-run lines for failures, a summary table, and
// BENCH_chaos.json with machine-readable per-run records. With
// --durable, also BENCH_durability.json with aggregated store counters
// (recovery time, fsync-batch stats, torn tails detected). Exit status
// is nonzero iff any run failed a check; malformed flags exit 2 with
// usage.
//
//===----------------------------------------------------------------------===//

#include "chaos/ChaosRun.h"
#include "chaos/RtRun.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace adore;
using namespace adore::chaos;

namespace {

struct SweepOptions {
  size_t SeedsPerScenario = 50;
  bool SeedsExplicit = false;
  bool Smoke = false;
  std::string OnlyScenario;
  bool RtRuntime = false;
  bool Durable = false;
  size_t Groups = 1;
  uint32_t Shards = 16;
  rt::TransportKind Transport = rt::TransportKind::Bus;
};

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s [--smoke] [--seeds N] [--scenario NAME] "
               "[--runtime=sim|rt] [--durable] [--groups N] [--shards N] "
               "[--transport=bus|tcp]\n",
               Prog);
  return 2;
}

bool knownScenario(const std::string &Name) {
  for (Scenario S : allScenarios())
    if (Name == scenarioName(S))
      return true;
  return false;
}

/// Per-scenario knob overrides: scripted scenarios need no random gaps;
/// net-chaos benefits from a busier workload.
ChaosRunOptions optionsFor(Scenario S) {
  ChaosRunOptions Opts;
  Opts.Nemesis.Kind = S;
  if (S == Scenario::NetChaos) {
    Opts.Workload.NumOps = 80;
    Opts.Nemesis.MeanGapUs = 150000;
  }
  if (S == Scenario::Reconfigs)
    Opts.Nemesis.MeanGapUs = 350000;
  return Opts;
}

} // namespace

int main(int Argc, char **Argv) {
  SweepOptions Sweep;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0) {
      Sweep.Smoke = true;
      Sweep.SeedsPerScenario = 25; // 12 scenarios -> 300 runs.
    } else if (std::strcmp(Argv[I], "--durable") == 0) {
      Sweep.Durable = true;
    } else if (std::strcmp(Argv[I], "--seeds") == 0 && I + 1 < Argc) {
      const char *Arg = Argv[++I];
      char *End = nullptr;
      unsigned long N = std::strtoul(Arg, &End, 10);
      if (End == Arg || *End != '\0' || N == 0) {
        std::fprintf(stderr, "error: --seeds needs a positive integer, "
                             "got '%s'\n", Arg);
        return usage(Argv[0]);
      }
      Sweep.SeedsPerScenario = N;
      Sweep.SeedsExplicit = true;
    } else if (std::strcmp(Argv[I], "--scenario") == 0 && I + 1 < Argc) {
      Sweep.OnlyScenario = Argv[++I];
      if (!knownScenario(Sweep.OnlyScenario)) {
        std::fprintf(stderr, "error: unknown scenario '%s'\n",
                     Sweep.OnlyScenario.c_str());
        return usage(Argv[0]);
      }
    } else if (std::strcmp(Argv[I], "--groups") == 0 && I + 1 < Argc) {
      const char *Arg = Argv[++I];
      char *End = nullptr;
      unsigned long N = std::strtoul(Arg, &End, 10);
      if (End == Arg || *End != '\0' || N == 0) {
        std::fprintf(stderr, "error: --groups needs a positive integer, "
                             "got '%s'\n", Arg);
        return usage(Argv[0]);
      }
      Sweep.Groups = N;
    } else if (std::strcmp(Argv[I], "--shards") == 0 && I + 1 < Argc) {
      const char *Arg = Argv[++I];
      char *End = nullptr;
      unsigned long N = std::strtoul(Arg, &End, 10);
      if (End == Arg || *End != '\0' || N == 0) {
        std::fprintf(stderr, "error: --shards needs a positive integer, "
                             "got '%s'\n", Arg);
        return usage(Argv[0]);
      }
      Sweep.Shards = static_cast<uint32_t>(N);
    } else if (std::strncmp(Argv[I], "--runtime=", 10) == 0) {
      const char *R = Argv[I] + 10;
      if (std::strcmp(R, "rt") == 0) {
        Sweep.RtRuntime = true;
      } else if (std::strcmp(R, "sim") != 0) {
        std::fprintf(stderr, "error: unknown runtime '%s'\n", R);
        return usage(Argv[0]);
      }
    } else if (std::strncmp(Argv[I], "--transport=", 12) == 0) {
      const char *T = Argv[I] + 12;
      if (std::strcmp(T, "tcp") == 0) {
        Sweep.Transport = rt::TransportKind::Tcp;
      } else if (std::strcmp(T, "bus") != 0) {
        std::fprintf(stderr, "error: unknown transport '%s'\n", T);
        return usage(Argv[0]);
      }
    } else {
      std::fprintf(stderr, "error: unrecognized argument '%s'\n", Argv[I]);
      return usage(Argv[0]);
    }
  }
  // The simulator's virtual network has no kernel underneath it; real
  // sockets only exist on the threaded runtime.
  if (Sweep.Transport == rt::TransportKind::Tcp && !Sweep.RtRuntime) {
    std::fprintf(stderr,
                 "error: --transport=tcp requires --runtime=rt\n");
    return usage(Argv[0]);
  }
  // Threaded runs cost real wall-clock seconds each; keep the default
  // sweep small unless the user sized it explicitly.
  if (Sweep.RtRuntime && !Sweep.SeedsExplicit)
    Sweep.SeedsPerScenario = 2;

  std::printf("E8: chaos sweep — nemesis faults + linearizability and "
              "safety checks\n");
  std::printf("%zu seeds per scenario%s, %s runtime%s%s",
              Sweep.SeedsPerScenario, Sweep.Smoke ? " (smoke)" : "",
              Sweep.RtRuntime ? "rt" : "sim",
              Sweep.Transport == rt::TransportKind::Tcp
                  ? " over loopback tcp"
                  : "",
              Sweep.Durable ? ", durable store" : "");
  if (Sweep.Groups > 1)
    std::printf(", %zu groups x %u shards", Sweep.Groups, Sweep.Shards);
  std::printf("\n\n");

  JsonWriter W;
  W.beginObject();
  W.key("experiment").value("chaos-sweep");
  W.key("runtime").value(Sweep.RtRuntime ? "rt" : "sim");
  // Only non-default transports appear in the report: default-bus
  // sweeps keep their layout (and bytes) unchanged across versions.
  if (Sweep.Transport == rt::TransportKind::Tcp)
    W.key("transport").value("tcp");
  W.key("seeds_per_scenario").value(uint64_t(Sweep.SeedsPerScenario));
  W.key("groups").value(uint64_t(Sweep.Groups));
  W.key("shards").value(uint64_t(Sweep.Shards));
  W.key("runs").beginArray();

  size_t Total = 0, Failures = 0;
  uint64_t TotalLinStates = 0;
  size_t DurableRuns = 0;
  store::StoreStats StoreAgg;
  // Self-healing aggregates across kill-forever runs (the only scenario
  // that sets ChaosRunResult::Healing).
  size_t HealRuns = 0, HealKills = 0;
  uint64_t DetectUsTotal = 0, DetectUsMax = 0;
  uint64_t RefillUsTotal = 0, RefillUsMax = 0;
  uint64_t SnapBytes = 0, SnapInstalls = 0, HealCommits = 0,
           HealRetries = 0;
  std::printf("%-20s %6s %6s %8s %8s %6s\n", "scenario", "runs", "fail",
              "ops-ok", "indet", "reconf");
  for (Scenario S : allScenarios()) {
    if (!Sweep.OnlyScenario.empty() &&
        Sweep.OnlyScenario != scenarioName(S))
      continue;
    ChaosRunOptions Opts = optionsFor(S);
    size_t ScenarioFailures = 0, OpsOk = 0, OpsIndet = 0, Reconfigs = 0;
    for (size_t I = 0; I != Sweep.SeedsPerScenario; ++I) {
      // Fixed seed schedule: reruns and CI hit identical executions
      // (exactly so under sim; under rt the seed still fixes every
      // protocol-level draw, though thread interleavings vary).
      uint64_t Seed = 0xC4A05 + I * 7919;
      ChaosRunResult R;
      if (Sweep.RtRuntime) {
        RtRunOptions RO;
        RO.Kind = S;
        RO.DurableStore = Sweep.Durable;
        RO.Groups = Sweep.Groups;
        RO.Shards = Sweep.Shards;
        RO.Transport = Sweep.Transport;
        R = runRtScenario(RO, Seed);
      } else {
        ChaosRunOptions RunOpts = Opts;
        RunOpts.DurableStore = Sweep.Durable;
        RunOpts.Groups = Sweep.Groups;
        RunOpts.Shards = Sweep.Shards;
        R = runChaosScenario(RunOpts, Seed);
      }
      ++Total;
      if (R.DurableStore) {
        ++DurableRuns;
        StoreAgg.accumulate(R.Store);
      }
      OpsOk += R.OpsOk;
      OpsIndet += R.OpsIndeterminate;
      Reconfigs += R.ReconfigsCommitted;
      TotalLinStates += R.LinStatesExplored;
      if (R.Healing) {
        ++HealRuns;
        HealKills += R.PermanentKills;
        DetectUsTotal += R.TimeToDetectUs;
        if (R.TimeToDetectUs > DetectUsMax)
          DetectUsMax = R.TimeToDetectUs;
        RefillUsTotal += R.TimeToFullReplicationUs;
        if (R.TimeToFullReplicationUs > RefillUsMax)
          RefillUsMax = R.TimeToFullReplicationUs;
        SnapBytes += R.SnapshotBytesTransferred;
        SnapInstalls += R.SnapshotsInstalled;
        HealCommits += R.HealReconfigsCommitted;
        HealRetries += R.HealReconfigRetries;
      }
      if (!R.passed()) {
        ++Failures;
        ++ScenarioFailures;
        std::printf("FAIL %s\n", R.summary().c_str());
        for (const std::string &V : R.Violations)
          std::printf("  violation: %s\n", V.c_str());
      }
      R.addToJson(W);
    }
    std::printf("%-20s %6zu %6zu %8zu %8zu %6zu\n", scenarioName(S),
                Sweep.SeedsPerScenario, ScenarioFailures, OpsOk, OpsIndet,
                Reconfigs);
  }

  W.endArray();
  W.key("total_runs").value(uint64_t(Total));
  W.key("failures").value(uint64_t(Failures));
  W.key("lin_states_explored").value(TotalLinStates);
  // Healing summary: present only when kill-forever ran, so sweeps that
  // exclude it keep their report layout unchanged.
  if (HealRuns != 0) {
    W.key("healing").beginObject();
    W.key("scenario").value("kill-forever");
    W.key("runs").value(uint64_t(HealRuns));
    W.key("permanent_kills").value(uint64_t(HealKills));
    W.key("time_to_detect_us_avg").value(DetectUsTotal / HealRuns);
    W.key("time_to_detect_us_max").value(DetectUsMax);
    W.key("time_to_full_replication_us_avg")
        .value(RefillUsTotal / HealRuns);
    W.key("time_to_full_replication_us_max").value(RefillUsMax);
    W.key("snapshot_bytes_transferred").value(SnapBytes);
    W.key("snapshots_installed").value(SnapInstalls);
    W.key("heal_reconfigs_committed").value(HealCommits);
    W.key("heal_reconfig_retries").value(HealRetries);
    W.endObject();
  }
  W.endObject();
  if (!W.writeFile("BENCH_chaos.json"))
    std::fprintf(stderr, "warning: could not write BENCH_chaos.json\n");

  // Durability report: aggregated store counters across every run that
  // had the store on (the disk-faults scenario always does).
  if (DurableRuns != 0) {
    JsonWriter D;
    D.beginObject();
    D.key("experiment").value("durability-sweep");
    D.key("runtime").value(Sweep.RtRuntime ? "rt" : "sim");
    D.key("durable_runs").value(uint64_t(DurableRuns));
    D.key("syncs").value(StoreAgg.Syncs);
    D.key("records_written").value(StoreAgg.RecordsWritten);
    D.key("bytes_written").value(StoreAgg.BytesWritten);
    D.key("max_batch_records").value(StoreAgg.MaxBatchRecords);
    D.key("snapshots").value(StoreAgg.Snapshots);
    D.key("segments_created").value(StoreAgg.SegmentsCreated);
    D.key("segments_deleted").value(StoreAgg.SegmentsDeleted);
    D.key("recoveries").value(StoreAgg.Recoveries);
    D.key("torn_tails_detected").value(StoreAgg.TornTailsDetected);
    D.key("truncated_bytes").value(StoreAgg.TruncatedBytes);
    D.key("recovery_us_total").value(StoreAgg.RecoveryUsTotal);
    D.key("recovery_us_max").value(StoreAgg.RecoveryUsMax);
    D.endObject();
    if (!D.writeFile("BENCH_durability.json"))
      std::fprintf(stderr,
                   "warning: could not write BENCH_durability.json\n");
    std::printf("\ndurability: %zu store-backed runs, %llu recoveries, "
                "%llu torn tails detected, %llu fsyncs (max batch %llu "
                "records), recovery max %llu us\n",
                DurableRuns,
                static_cast<unsigned long long>(StoreAgg.Recoveries),
                static_cast<unsigned long long>(StoreAgg.TornTailsDetected),
                static_cast<unsigned long long>(StoreAgg.Syncs),
                static_cast<unsigned long long>(StoreAgg.MaxBatchRecords),
                static_cast<unsigned long long>(StoreAgg.RecoveryUsMax));
  }

  if (HealRuns != 0)
    std::printf("\nself-healing: %zu kill-forever runs, %zu permanent "
                "kills, detect avg %llu us (max %llu), full replication "
                "avg %llu us (max %llu), %llu snapshot bytes, %llu heal "
                "reconfigs committed, %llu retries\n",
                HealRuns, HealKills,
                static_cast<unsigned long long>(DetectUsTotal / HealRuns),
                static_cast<unsigned long long>(DetectUsMax),
                static_cast<unsigned long long>(RefillUsTotal / HealRuns),
                static_cast<unsigned long long>(RefillUsMax),
                static_cast<unsigned long long>(SnapBytes),
                static_cast<unsigned long long>(HealCommits),
                static_cast<unsigned long long>(HealRetries));

  std::printf("\n%zu runs, %zu failures, %llu linearization states "
              "explored\n",
              Total, Failures,
              static_cast<unsigned long long>(TotalLinStates));
  return Failures == 0 ? 0 : 1;
}
