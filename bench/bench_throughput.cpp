//===- bench/bench_throughput.cpp - E9: replication hot-path throughput -----===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Experiment E9 (performance): throughput and latency of the replication
// hot path on the threaded runtime, across the transport seam. Each run
// wires an RtCluster (or the sharded pool with --groups) to one of the
// two Transport backends and drives a client workload through it:
//
//   closed loop   one client, submitAndWait per op — measures end-to-end
//                 commit latency (p50/p99/p999) and the sequential
//                 ops/sec ceiling.
//   open loop     submitAsync flood with completion tracked through the
//                 cluster's apply tap — measures pipelined throughput,
//                 which is where the PipelineWindow in-flight window
//                 and the host's inbox batch draining (one WAL fsync
//                 per burst) actually pay.
//
// Every (transport, mode) cell runs twice: the unit-window baseline
// (window=1, inbox=1 — the library defaults) and the pipelined tuning
// (window=8 by default, inbox=16), so the report carries its own
// control group.
//
// Usage:
//   bench_throughput                 both transports, both modes
//   bench_throughput --smoke         tiny op counts (CI / TSan budget)
//   bench_throughput --ops N         open-loop ops per run (closed loop
//                                    caps at 500)
//   bench_throughput --transport=T   bus | tcp | both (default both)
//   bench_throughput --mode=M        open | closed | both (default both)
//   bench_throughput --window N      pipelined tuning's PipelineWindow
//   bench_throughput --durable       store-backed nodes on an idealized
//                                    in-memory disk; reports fsync
//                                    group-commit ratios
//   bench_throughput --groups N      drive the sharded pool (N data
//                                    groups, keyed round-robin)
//   bench_throughput --read-ratio F  add a read-tier ladder: for each
//                                    tier (log, read_index, lease,
//                                    follower_lease) run a closed-loop
//                                    mixed workload where fraction F of
//                                    ops are linearizable reads, and
//                                    report read ops/sec + p50/p99 per
//                                    tier. F in [0,1]; 0 (default)
//                                    skips the ladder entirely.
//
// Output: a per-run table, BENCH_throughput.json, and a baseline-vs-
// pipelined summary. Each run also reports vcsw/op: the process's
// voluntary context switches over the run (setup included) per op
// completed, a count of wake-ups that host noise barely moves; and
// queued/op: inputs its nodes' workers stepped (rt::RtHandoffs::Queued)
// per op completed, the thread handoffs behind those wake-ups. Exit is
// nonzero iff a run failed outright (no leader, op timeout, open-loop
// completion shortfall, reported with the term change over the cell,
// the leader at the deadline and the first missing ClientSeq);
// malformed flags exit 2 with usage.
//
//===----------------------------------------------------------------------===//

#include "net/TcpTransport.h"
#include "read/ReadPath.h"
#include "rt/RtCluster.h"
#include "rt/ShardedRt.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/Sync.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <sys/resource.h>

using namespace adore;

namespace {

struct BenchOptions {
  size_t Ops = 4000;
  bool OpsExplicit = false;
  bool Smoke = false;
  bool RunBus = true;
  bool RunTcp = true;
  bool RunOpen = true;
  bool RunClosed = true;
  size_t Window = 8;
  bool Durable = false;
  size_t Groups = 1;
  /// Fraction of ops served as linearizable reads in the read-tier
  /// ladder; 0 keeps the ladder (and its JSON keys) out entirely, so
  /// legacy reports stay byte-identical.
  double ReadRatio = 0;
};

/// The pipelined tuning's host inbox batch: one WAL group commit per
/// drained burst of up to this many inputs.
constexpr size_t PipelinedInboxBatch = 16;

/// One (transport, tuning, mode) cell's knobs.
struct RunSpec {
  rt::TransportKind Transport = rt::TransportKind::Bus;
  const char *Tuning = "baseline"; ///< "baseline" or "pipelined".
  size_t Window = 1;
  size_t InboxBatch = 1;
  const char *Mode = "closed"; ///< "closed" or "open".
};

struct RunResult {
  bool Ok = false;
  std::string Error;
  size_t OpsRequested = 0;
  size_t OpsCompleted = 0;
  double ElapsedS = 0;
  double OpsPerSec = 0;
  SampleStats LatencyUs;
  bool HaveStore = false;
  store::StoreStats Store;
  bool HaveNet = false;
  net::TcpTransportStats Net;
  rt::RtHandoffs Handoffs;
};

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s [--smoke] [--ops N] [--transport=bus|tcp|both] "
               "[--mode=open|closed|both] [--window N] "
               "[--durable] [--groups N] [--read-ratio F]\n",
               Prog);
  return 2;
}

/// Voluntary context switches of every thread this process has run.
uint64_t voluntarySwitches() {
  rusage U{};
  (void)getrusage(RUSAGE_SELF, &U);
  return static_cast<uint64_t>(U.ru_nvcsw);
}

uint64_t monoUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Open-loop completion tracker: the cluster's apply tap reports every
/// node's apply; the first observation of a sequence number closes it.
/// ClientSeq values start far above submitAndWait's allocator so the
/// two never collide.
constexpr uint64_t OpenLoopSeqBase = uint64_t(1) << 32;

class CompletionTracker {
public:
  void expect(uint64_t Seq, uint64_t SubmitUs) {
    sync::MutexLock Lock(Mu);
    Pending[Seq] = SubmitUs;
  }

  void observe(uint64_t Seq, uint64_t NowUs) {
    sync::MutexLock Lock(Mu);
    auto It = Pending.find(Seq);
    if (It == Pending.end())
      return; // Duplicate apply (other replicas) or foreign seq.
    Latencies.add(static_cast<double>(NowUs - It->second));
    Pending.erase(It);
    ++DoneCount;
    LastDoneUs = NowUs;
    Cv.notifyAll();
  }

  /// Waits until \p Target ops completed or \p DeadlineUs passes.
  /// Returns the completion count.
  size_t awaitAll(size_t Target, uint64_t DeadlineUs) {
    sync::MutexLock Lock(Mu);
    while (DoneCount < Target && monoUs() < DeadlineUs)
      Cv.waitUntil(Mu, std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(20));
    return DoneCount;
  }

  size_t done() const {
    sync::MutexLock Lock(Mu);
    return DoneCount;
  }
  uint64_t lastDoneUs() const {
    sync::MutexLock Lock(Mu);
    return LastDoneUs;
  }
  SampleStats takeLatencies() {
    sync::MutexLock Lock(Mu);
    return std::move(Latencies);
  }
  /// The lowest sequence number expected and not yet observed.
  std::optional<uint64_t> firstMissing() const {
    sync::MutexLock Lock(Mu);
    if (Pending.empty())
      return std::nullopt;
    return Pending.begin()->first;
  }

private:
  mutable sync::Mutex Mu;
  sync::CondVar Cv;
  std::map<uint64_t, uint64_t> Pending ADORE_GUARDED_BY(Mu);
  SampleStats Latencies ADORE_GUARDED_BY(Mu);
  size_t DoneCount ADORE_GUARDED_BY(Mu) = 0;
  uint64_t LastDoneUs ADORE_GUARDED_BY(Mu) = 0;
};

/// The highest term any replica of \p C reports.
Time highestTerm(const rt::RtCluster &C) {
  Time T = 0;
  for (NodeId Id : C.universe())
    T = std::max(T, C.nodeStatus(Id).Term);
  return T;
}

/// An open-loop shortfall, with what it takes to attribute it: the term
/// change over the cell, the leader at the deadline, and the first op
/// whose apply was never seen. \p C is the group that op went to.
std::string shortfallError(size_t Done, size_t Ops, Time TermBefore,
                           const rt::RtCluster &C,
                           const CompletionTracker &Tracker) {
  NodeId Leader = C.waitForLeader(0);
  std::optional<uint64_t> Missing = Tracker.firstMissing();
  return "open-loop completion shortfall: " + std::to_string(Done) + "/" +
         std::to_string(Ops) + " (term " + std::to_string(TermBefore) +
         " -> " + std::to_string(highestTerm(C)) + ", leader at deadline " +
         (Leader == InvalidNodeId ? "none" : "S" + std::to_string(Leader)) +
         ", first missing ClientSeq " +
         (Missing ? "base+" + std::to_string(*Missing - OpenLoopSeqBase)
                  : "none") +
         ")";
}

rt::RtClusterOptions clusterOptionsFor(const BenchOptions &Bench,
                                      const RunSpec &Spec, uint64_t Seed) {
  rt::RtClusterOptions CO;
  CO.Scheme = SchemeKind::RaftSingleNode;
  CO.NumNodes = 3;
  CO.Seed = Seed;
  CO.Node.PipelineWindow = Spec.Window;
  CO.Host.MaxInboxBatch = Spec.InboxBatch;
  CO.DurableStore = Bench.Durable;
  return CO;
}

/// Single-group run. The TCP fabric is caller-owned (SharedNet) so its
/// counters survive the cluster and land in the report.
RunResult runSingleGroup(const BenchOptions &Bench, const RunSpec &Spec,
                         size_t Ops) {
  RunResult R;
  R.OpsRequested = Ops;

  CompletionTracker Tracker;
  rt::RtClusterOptions CO = clusterOptionsFor(Bench, Spec, /*Seed=*/0xE9);
  std::unique_ptr<rt::Transport> Fabric = rt::makeTransport(Spec.Transport);
  CO.SharedNet = Fabric.get();
  CO.OnApplyExtra = [&Tracker](NodeId, size_t, const core::LogEntry &E) {
    if (E.Kind == raft::EntryKind::Method && E.ClientSeq >= OpenLoopSeqBase)
      Tracker.observe(E.ClientSeq, monoUs());
  };

  {
    rt::RtCluster Cluster(CO);
    Cluster.start();
    if (Cluster.waitForLeader(5000) == InvalidNodeId) {
      R.Error = "no leader elected within 5s";
      return R;
    }
    // Warm the pipeline: a few committed ops settle NextIndex and (on
    // TCP) establish every connection before the clock starts.
    for (int I = 0; I != 3; ++I)
      if (!Cluster.submitAndWait(/*Method=*/900 + I, /*TimeoutMs=*/3000)) {
        R.Error = "warmup op timed out";
        return R;
      }

    if (std::strcmp(Spec.Mode, "closed") == 0) {
      uint64_t T0 = monoUs();
      for (size_t I = 0; I != Ops; ++I) {
        uint64_t OpStart = monoUs();
        if (!Cluster.submitAndWait(static_cast<MethodId>(I), 3000)) {
          R.Error = "closed-loop op timed out";
          return R;
        }
        R.LatencyUs.add(static_cast<double>(monoUs() - OpStart));
      }
      R.ElapsedS = static_cast<double>(monoUs() - T0) / 1e6;
      R.OpsCompleted = Ops;
    } else {
      Time TermBefore = highestTerm(Cluster);
      uint64_t T0 = monoUs();
      for (size_t I = 0; I != Ops; ++I) {
        uint64_t Seq = OpenLoopSeqBase + I;
        Tracker.expect(Seq, monoUs());
        Cluster.submitAsync(static_cast<MethodId>(I), Seq, /*Rotor=*/I);
      }
      R.OpsCompleted = Tracker.awaitAll(Ops, monoUs() + 30 * 1000 * 1000);
      uint64_t T1 = Tracker.lastDoneUs();
      R.ElapsedS = T1 > T0 ? static_cast<double>(T1 - T0) / 1e6 : 0;
      R.LatencyUs = Tracker.takeLatencies();
      // Open loop is fire-and-forget; a leader change mid-flood can
      // orphan a few submits. A small shortfall is measurement noise, a
      // large one is a harness failure.
      if (R.OpsCompleted < Ops - Ops / 10) {
        R.Error = shortfallError(R.OpsCompleted, Ops, TermBefore, Cluster,
                                 Tracker);
        return R;
      }
    }
    Cluster.stop();
    R.Handoffs = Cluster.handoffs();
    if (Bench.Durable) {
      R.HaveStore = true;
      R.Store = Cluster.storeStats();
    }
  }
  if (Spec.Transport == rt::TransportKind::Tcp) {
    R.HaveNet = true;
    R.Net = static_cast<net::TcpTransport *>(Fabric.get())->stats();
  }
  if (R.ElapsedS > 0)
    R.OpsPerSec = static_cast<double>(R.OpsCompleted) / R.ElapsedS;
  R.Ok = true;
  return R;
}

/// Sharded run: ops round-robin across the data groups; open loop
/// tracks completion through the propagated apply tap, closed loop
/// walks the groups sequentially.
RunResult runSharded(const BenchOptions &Bench, const RunSpec &Spec,
                     size_t Ops) {
  RunResult R;
  R.OpsRequested = Ops;

  CompletionTracker Tracker;
  rt::ShardedRtOptions SO;
  SO.Groups = Bench.Groups;
  SO.Group = clusterOptionsFor(Bench, Spec, /*Seed=*/0xE9);
  SO.Group.Transport = Spec.Transport;
  SO.Group.OnApplyExtra =
      [&Tracker](NodeId, size_t, const core::LogEntry &E) {
        if (E.Kind == raft::EntryKind::Method &&
            E.ClientSeq >= OpenLoopSeqBase)
          Tracker.observe(E.ClientSeq, monoUs());
      };

  rt::ShardedRtCluster Pool(SO);
  Pool.start();
  if (!Pool.waitForAllLeaders(8000)) {
    R.Error = "not all groups elected leaders within 8s";
    return R;
  }
  size_t DataGroups = Pool.dataGroups();
  for (size_t G = 1; G <= DataGroups; ++G)
    if (!Pool.group(G).submitAndWait(/*Method=*/900, /*TimeoutMs=*/3000)) {
      R.Error = "warmup op timed out on group " + std::to_string(G);
      return R;
    }

  if (std::strcmp(Spec.Mode, "closed") == 0) {
    uint64_t T0 = monoUs();
    for (size_t I = 0; I != Ops; ++I) {
      uint64_t OpStart = monoUs();
      if (!Pool.group(1 + I % DataGroups)
               .submitAndWait(static_cast<MethodId>(I), 3000)) {
        R.Error = "closed-loop op timed out";
        return R;
      }
      R.LatencyUs.add(static_cast<double>(monoUs() - OpStart));
    }
    R.ElapsedS = static_cast<double>(monoUs() - T0) / 1e6;
    R.OpsCompleted = Ops;
  } else {
    std::vector<Time> TermsBefore;
    for (size_t G = 0; G <= DataGroups; ++G)
      TermsBefore.push_back(highestTerm(Pool.group(G)));
    uint64_t T0 = monoUs();
    for (size_t I = 0; I != Ops; ++I) {
      uint64_t Seq = OpenLoopSeqBase + I;
      Tracker.expect(Seq, monoUs());
      Pool.group(1 + I % DataGroups)
          .submitAsync(static_cast<MethodId>(I), Seq, /*Rotor=*/I);
    }
    R.OpsCompleted = Tracker.awaitAll(Ops, monoUs() + 30 * 1000 * 1000);
    uint64_t T1 = Tracker.lastDoneUs();
    R.ElapsedS = T1 > T0 ? static_cast<double>(T1 - T0) / 1e6 : 0;
    R.LatencyUs = Tracker.takeLatencies();
    if (R.OpsCompleted < Ops - Ops / 10) {
      // Blame the group the first missing op went to.
      uint64_t Op =
          Tracker.firstMissing().value_or(OpenLoopSeqBase) - OpenLoopSeqBase;
      size_t G = 1 + Op % DataGroups;
      R.Error = shortfallError(R.OpsCompleted, Ops, TermsBefore[G],
                               Pool.group(G), Tracker);
      return R;
    }
  }
  Pool.stop();
  for (size_t G = 0; G <= DataGroups; ++G)
    R.Handoffs.accumulate(Pool.group(G).handoffs());
  if (R.ElapsedS > 0)
    R.OpsPerSec = static_cast<double>(R.OpsCompleted) / R.ElapsedS;
  R.Ok = true;
  return R;
}

bool parseCount(const char *Arg, size_t &Out) {
  char *End = nullptr;
  unsigned long N = std::strtoul(Arg, &End, 10);
  if (End == Arg || *End != '\0' || N == 0)
    return false;
  Out = N;
  return true;
}

bool parseRatio(const char *Arg, double &Out) {
  char *End = nullptr;
  double R = std::strtod(Arg, &End);
  if (End == Arg || *End != '\0' || !(R >= 0.0 && R <= 1.0))
    return false;
  Out = R;
  return true;
}

/// One tier of the read ladder: a 3-node cluster with the tier's core
/// knobs applied, driven closed-loop with \p Ratio of the ops issued
/// as linearizable reads. The Off tier has no read machinery, so its
/// "reads" replicate through the log like writes — that is the
/// baseline the ladder is measured against.
struct ReadRunResult {
  bool Ok = false;
  std::string Error;
  size_t Reads = 0;
  size_t Writes = 0;
  double ElapsedS = 0;
  double ReadOpsPerSec = 0;
  SampleStats ReadLatencyUs;
  size_t StaleReads = 0;
};

ReadRunResult runReadTier(const BenchOptions &Bench, rt::TransportKind T,
                          read::ReadTier Tier, size_t Ops) {
  ReadRunResult R;

  // Unit-window knobs, deliberately: a single closed-loop client
  // never fills a pipeline window, and deep inbox batching makes the
  // WAL group commit hold a solitary write until heartbeat traffic
  // pads the batch — which would charge ~one heartbeat interval to
  // every write and drown the tier effect this ladder isolates.
  RunSpec Spec;
  Spec.Transport = T;
  rt::RtClusterOptions CO = clusterOptionsFor(Bench, Spec, /*Seed=*/0xEA);
  read::ReadOptions RO;
  RO.Tier = Tier;
  // Lease shorter than the election-timeout floor, renewed by every
  // 15ms heartbeat; the 10% declared drift derates it to 24ms, so the
  // fast path stays hot for the whole run.
  RO.LeaseDurationUs = 30000;
  RO.MaxDriftPpm = 100000;
  read::applyTier(RO, CO.Node);
  std::unique_ptr<rt::Transport> Fabric = rt::makeTransport(T);
  CO.SharedNet = Fabric.get();

  rt::RtCluster Cluster(CO);
  Cluster.start();
  if (Cluster.waitForLeader(5000) == InvalidNodeId) {
    R.Error = "no leader elected within 5s";
    return R;
  }
  for (int I = 0; I != 3; ++I)
    if (!Cluster.submitAndWait(/*Method=*/900 + I, /*TimeoutMs=*/3000)) {
      R.Error = "warmup op timed out";
      return R;
    }

  // Deterministic read/write interleaving by error accumulation: the
  // read fraction converges on ReadRatio without any RNG, so two runs
  // of the same tier issue the identical op sequence.
  double Acc = 0;
  uint64_t T0 = monoUs();
  for (size_t I = 0; I != Ops; ++I) {
    Acc += Bench.ReadRatio;
    bool IsRead = Acc >= 1.0;
    if (IsRead) {
      Acc -= 1.0;
      uint64_t OpStart = monoUs();
      bool Done;
      if (Tier == read::ReadTier::Off) {
        // No read machinery: a linearizable read IS a log append.
        Done = Cluster.submitAndWait(static_cast<MethodId>(I), 3000);
      } else {
        // The follower tier alternates targets so both the follower
        // fast path and the leader path show up in the numbers.
        bool AtFollower = Tier == read::ReadTier::FollowerLease && I % 2 == 0;
        Done = Cluster.readAndWait(3000, AtFollower).has_value();
      }
      if (!Done) {
        R.Error = "read timed out";
        return R;
      }
      R.ReadLatencyUs.add(static_cast<double>(monoUs() - OpStart));
      ++R.Reads;
    } else {
      if (!Cluster.submitAndWait(static_cast<MethodId>(I), 3000)) {
        R.Error = "write timed out";
        return R;
      }
      ++R.Writes;
    }
  }
  R.ElapsedS = static_cast<double>(monoUs() - T0) / 1e6;
  Cluster.stop();
  // readAndWait checks every answer against the committed ledger; any
  // stale read is a correctness failure, not a performance datum.
  R.StaleReads = Cluster.violations().size();
  if (R.StaleReads != 0) {
    R.Error = "stale-read violations: " + Cluster.violations().front();
    return R;
  }
  if (R.ElapsedS > 0 && R.Reads > 0)
    R.ReadOpsPerSec = static_cast<double>(R.Reads) / R.ElapsedS;
  R.Ok = true;
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Bench;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0) {
      Bench.Smoke = true;
    } else if (std::strcmp(Argv[I], "--durable") == 0) {
      Bench.Durable = true;
    } else if (std::strcmp(Argv[I], "--ops") == 0 && I + 1 < Argc) {
      if (!parseCount(Argv[++I], Bench.Ops)) {
        std::fprintf(stderr, "error: --ops needs a positive integer\n");
        return usage(Argv[0]);
      }
      Bench.OpsExplicit = true;
    } else if (std::strcmp(Argv[I], "--window") == 0 && I + 1 < Argc) {
      if (!parseCount(Argv[++I], Bench.Window)) {
        std::fprintf(stderr, "error: --window needs a positive integer\n");
        return usage(Argv[0]);
      }
    } else if (std::strcmp(Argv[I], "--groups") == 0 && I + 1 < Argc) {
      if (!parseCount(Argv[++I], Bench.Groups)) {
        std::fprintf(stderr, "error: --groups needs a positive integer\n");
        return usage(Argv[0]);
      }
    } else if (std::strcmp(Argv[I], "--read-ratio") == 0 && I + 1 < Argc) {
      if (!parseRatio(Argv[++I], Bench.ReadRatio)) {
        std::fprintf(stderr,
                     "error: --read-ratio needs a number in [0,1]\n");
        return usage(Argv[0]);
      }
    } else if (std::strncmp(Argv[I], "--transport=", 12) == 0) {
      const char *T = Argv[I] + 12;
      if (std::strcmp(T, "bus") == 0) {
        Bench.RunTcp = false;
      } else if (std::strcmp(T, "tcp") == 0) {
        Bench.RunBus = false;
      } else if (std::strcmp(T, "both") != 0) {
        std::fprintf(stderr, "error: unknown transport '%s'\n", T);
        return usage(Argv[0]);
      }
    } else if (std::strncmp(Argv[I], "--mode=", 7) == 0) {
      const char *M = Argv[I] + 7;
      if (std::strcmp(M, "open") == 0) {
        Bench.RunClosed = false;
      } else if (std::strcmp(M, "closed") == 0) {
        Bench.RunOpen = false;
      } else if (std::strcmp(M, "both") != 0) {
        std::fprintf(stderr, "error: unknown mode '%s'\n", M);
        return usage(Argv[0]);
      }
    } else {
      std::fprintf(stderr, "error: unrecognized argument '%s'\n", Argv[I]);
      return usage(Argv[0]);
    }
  }
  if (Bench.Smoke && !Bench.OpsExplicit)
    Bench.Ops = 200;
  size_t ClosedOps = std::min<size_t>(Bench.Ops, Bench.Smoke ? 60 : 500);

  std::printf("E9: replication hot-path throughput on the rt runtime\n");
  std::printf("%zu open-loop ops (%zu closed), pipelined tuning window=%zu "
              "inbox=%zu%s%s\n\n",
              Bench.Ops, ClosedOps, Bench.Window, PipelinedInboxBatch,
              Bench.Durable ? ", durable store" : "",
              Bench.Groups > 1 ? ", sharded pool" : "");

  std::vector<RunSpec> Specs;
  std::vector<rt::TransportKind> Transports;
  if (Bench.RunBus)
    Transports.push_back(rt::TransportKind::Bus);
  if (Bench.RunTcp)
    Transports.push_back(rt::TransportKind::Tcp);
  std::vector<const char *> Modes;
  if (Bench.RunClosed)
    Modes.push_back("closed");
  if (Bench.RunOpen)
    Modes.push_back("open");
  for (rt::TransportKind T : Transports)
    for (const char *Mode : Modes) {
      RunSpec Base;
      Base.Transport = T;
      Base.Mode = Mode;
      Specs.push_back(Base);
      RunSpec Piped = Base;
      Piped.Tuning = "pipelined";
      Piped.Window = Bench.Window;
      Piped.InboxBatch = PipelinedInboxBatch;
      Specs.push_back(Piped);
    }

  JsonWriter W;
  W.beginObject();
  W.key("experiment").value("throughput");
  W.key("smoke").value(Bench.Smoke);
  W.key("groups").value(uint64_t(Bench.Groups));
  W.key("durable").value(Bench.Durable);
  W.key("runs").beginArray();

  std::printf("%-4s %-10s %-7s %8s %10s %9s %9s %9s %8s %9s\n", "net",
              "tuning", "mode", "ops", "ops/sec", "p50us", "p99us", "p999us",
              "vcsw/op", "queued/op");
  bool AnyFailed = false;
  // ops/sec keyed by (transport, mode, tuning) for the summary.
  std::map<std::string, double> Rates;
  for (const RunSpec &Spec : Specs) {
    size_t Ops = std::strcmp(Spec.Mode, "closed") == 0 ? ClosedOps
                                                       : Bench.Ops;
    uint64_t Vcsw0 = voluntarySwitches();
    RunResult R = Bench.Groups > 1 ? runSharded(Bench, Spec, Ops)
                                   : runSingleGroup(Bench, Spec, Ops);
    auto PerOp = [&R](uint64_t Count) {
      return R.OpsCompleted ? static_cast<double>(Count) /
                                  static_cast<double>(R.OpsCompleted)
                            : 0.0;
    };
    double VcswPerOp = PerOp(voluntarySwitches() - Vcsw0);
    double QueuedPerOp = PerOp(R.Handoffs.Queued);
    const char *Net = rt::RtClusterOptions::transportName(Spec.Transport);
    if (!R.Ok) {
      AnyFailed = true;
      std::printf("%-4s %-10s %-7s FAILED: %s\n", Net, Spec.Tuning,
                  Spec.Mode, R.Error.c_str());
    } else {
      std::printf(
          "%-4s %-10s %-7s %8zu %10.0f %9.0f %9.0f %9.0f %8.2f %9.2f\n",
          Net, Spec.Tuning, Spec.Mode, R.OpsCompleted, R.OpsPerSec,
          R.LatencyUs.percentile(50), R.LatencyUs.percentile(99),
          R.LatencyUs.percentile(99.9), VcswPerOp, QueuedPerOp);
      Rates[std::string(Net) + "/" + Spec.Mode + "/" + Spec.Tuning] =
          R.OpsPerSec;
    }

    W.beginObject();
    W.key("transport").value(Net);
    W.key("tuning").value(Spec.Tuning);
    W.key("mode").value(Spec.Mode);
    W.key("window").value(uint64_t(Spec.Window));
    W.key("inbox_batch").value(uint64_t(Spec.InboxBatch));
    W.key("ok").value(R.Ok);
    if (!R.Ok)
      W.key("error").value(R.Error);
    W.key("ops_requested").value(uint64_t(R.OpsRequested));
    W.key("ops_completed").value(uint64_t(R.OpsCompleted));
    W.key("elapsed_s").value(R.ElapsedS);
    W.key("ops_per_sec").value(R.OpsPerSec);
    W.key("vcsw_per_op").value(VcswPerOp);
    W.key("queued_per_op").value(QueuedPerOp);
    if (!R.LatencyUs.empty()) {
      W.key("lat_us_mean").value(R.LatencyUs.mean());
      W.key("lat_us_p50").value(R.LatencyUs.percentile(50));
      W.key("lat_us_p99").value(R.LatencyUs.percentile(99));
      W.key("lat_us_p999").value(R.LatencyUs.percentile(99.9));
      W.key("lat_us_max").value(R.LatencyUs.max());
    }
    if (R.HaveStore) {
      W.key("store").beginObject();
      W.key("syncs").value(R.Store.Syncs);
      W.key("records_written").value(R.Store.RecordsWritten);
      W.key("max_batch_records").value(R.Store.MaxBatchRecords);
      W.key("records_per_sync")
          .value(R.Store.Syncs
                     ? static_cast<double>(R.Store.RecordsWritten) /
                           static_cast<double>(R.Store.Syncs)
                     : 0.0);
      W.endObject();
    }
    if (R.HaveNet) {
      W.key("net").beginObject();
      W.key("frames_delivered").value(R.Net.FramesDelivered);
      W.key("frames_dropped").value(R.Net.FramesDropped);
      W.key("bytes_sent").value(R.Net.BytesSent);
      W.key("bytes_received").value(R.Net.BytesReceived);
      W.key("dials").value(R.Net.Dials);
      W.key("accepts").value(R.Net.Accepts);
      W.key("connection_drops").value(R.Net.ConnectionDrops);
      W.endObject();
    }
    W.endObject();
  }
  W.endArray();

  // The read-tier ladder: same cluster shape, closed-loop mixed
  // workload, one run per (transport, tier). Gated on --read-ratio so
  // a legacy invocation's JSON is byte-identical to before the ladder
  // existed.
  if (Bench.ReadRatio > 0) {
    size_t ReadOps = ClosedOps;
    std::printf("\nread ladder: %.0f%% reads, %zu ops per tier\n",
                Bench.ReadRatio * 100, ReadOps);
    std::printf("%-4s %-14s %8s %8s %10s %9s %9s\n", "net", "tier",
                "reads", "writes", "rd/sec", "rd-p50us", "rd-p99us");
    W.key("read_ratio").value(Bench.ReadRatio);
    W.key("read_runs").beginArray();
    const read::ReadTier Tiers[] = {
        read::ReadTier::Off, read::ReadTier::ReadIndex,
        read::ReadTier::Lease, read::ReadTier::FollowerLease};
    for (rt::TransportKind T : Transports)
      for (read::ReadTier Tier : Tiers) {
        ReadRunResult R = runReadTier(Bench, T, Tier, ReadOps);
        const char *Net = rt::RtClusterOptions::transportName(T);
        const char *Name = read::tierName(Tier);
        if (!R.Ok) {
          AnyFailed = true;
          std::printf("%-4s %-14s FAILED: %s\n", Net, Name,
                      R.Error.c_str());
        } else {
          std::printf("%-4s %-14s %8zu %8zu %10.0f %9.0f %9.0f\n", Net,
                      Name, R.Reads, R.Writes, R.ReadOpsPerSec,
                      R.ReadLatencyUs.percentile(50),
                      R.ReadLatencyUs.percentile(99));
        }
        W.beginObject();
        W.key("transport").value(Net);
        W.key("tier").value(Name);
        W.key("read_ratio").value(Bench.ReadRatio);
        W.key("ok").value(R.Ok);
        if (!R.Ok)
          W.key("error").value(R.Error);
        W.key("reads_completed").value(uint64_t(R.Reads));
        W.key("writes_completed").value(uint64_t(R.Writes));
        W.key("elapsed_s").value(R.ElapsedS);
        W.key("read_ops_per_sec").value(R.ReadOpsPerSec);
        if (!R.ReadLatencyUs.empty()) {
          W.key("read_lat_us_mean").value(R.ReadLatencyUs.mean());
          W.key("read_lat_us_p50").value(R.ReadLatencyUs.percentile(50));
          W.key("read_lat_us_p99").value(R.ReadLatencyUs.percentile(99));
        }
        W.key("stale_read_violations").value(uint64_t(R.StaleReads));
        W.endObject();
      }
    W.endArray();
  }
  W.endObject();
  if (!W.writeFile("BENCH_throughput.json"))
    std::fprintf(stderr,
                 "warning: could not write BENCH_throughput.json\n");

  // The control-group summary: pipelined over baseline, per transport,
  // open loop (the mode the hot path exists for).
  std::printf("\n");
  for (const char *Net : {"bus", "tcp"}) {
    auto Base = Rates.find(std::string(Net) + "/open/baseline");
    auto Piped = Rates.find(std::string(Net) + "/open/pipelined");
    if (Base == Rates.end() || Piped == Rates.end() || Base->second <= 0)
      continue;
    std::printf("open-loop %s: pipelined %.0f ops/sec vs baseline %.0f "
                "(%.2fx)\n",
                Net, Piped->second, Base->second,
                Piped->second / Base->second);
  }
  return AnyFailed ? 1 : 0;
}
