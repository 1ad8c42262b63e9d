//===- perfbench/Main.cpp - The repository benchmark --------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-dir DIR]
//
// Workloads (README.md says why each exists):
//   write-tcp-durable      rt::RtCluster, 3 nodes, loopback TCP, WAL on
//                          MemVfs; closed-loop kv puts, one client.
//   read-lease-bus         rt::RtCluster, 3 nodes, in-process Bus,
//                          volatile, lease reads; 90% reads, one client.
//   reconfig-failover-sim  sim::Cluster, 5-node universe, WAL on MemVfs;
//                          open-loop puts under Fig. 16's hot schedule
//                          (5)->(4)->(3)->(4)->(5), with the leader
//                          crashed and restarted partway.
//
// A run is a sequence of trials. Each trial builds a fresh cluster and
// runs a fixed number of ops generated from (seed, trial index), so every
// trial sees the same log lengths. Trials repeat until --seconds have
// passed; the simulator workload always runs at least SimTrials of them,
// and its virtual-time metrics and counts come from exactly those, so
// they repeat exactly for a seed.
//
// --trace 0 prints the end-to-end metrics. --trace 1 spends half the
// time untraced and half traced, adds the passes that measure the
// layers the workload itself does not cross, prints the per-layer
// metrics, and writes the kept spans to DIR/<workload>-<seed>.spans.tsv.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics. A correctness violation prints it to
// standard error and exits 1 without a result.
//
//===----------------------------------------------------------------------===//

#include "Passes.h"

#include "kv/KvStore.h"
#include "support/Rng.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace adore;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Workload shapes
//===----------------------------------------------------------------------===//

enum class Workload { WriteTcpDurable, ReadLeaseBus, ReconfigFailoverSim };

/// Ops per trial; each trial's p99 has at least ten samples beyond it.
constexpr size_t WriteTcpOps = 1000;
constexpr size_t ReadLeaseOps = 4000;
constexpr size_t SimOps = 1500;
/// Simulator trials whose virtual-time metrics and counts are reported.
constexpr size_t SimTrials = 40;
/// Open-loop arrival rate of the simulator workload (virtual ops/s).
constexpr double SimRatePerS = 1000;
/// Writes in the core growth replay of the rt workloads.
constexpr size_t ReplayWrites = 10000;
/// Keys are drawn uniformly from 1..KeySpace; key 0 is the warm-up key.
constexpr uint32_t KeySpace = 1024;
/// Fig. 16's single-server schedule.
const std::vector<size_t> Fig16Phases = {5, 4, 3, 4, 5};

/// Trial index of the extra passes a traced run adds.
constexpr uint64_t ReplayTrial = 1000000;

struct Args {
  Workload W = Workload::WriteTcpDurable;
  std::string Name;
  uint64_t Seed = 0;
  unsigned Seconds = 0;
  bool Trace = false;
  std::string SpansDir = ".";
};

uint64_t trialSeed(uint64_t Seed, uint64_t Trial) {
  Rng R(Seed ^ (Trial * 0x9E3779B97F4A7C15ULL));
  return R.next();
}

Op putOp(Rng &R) {
  Op O;
  O.Method = kv::encodeKvOp(kv::KvOp{
      kv::KvOpKind::Put, static_cast<uint32_t>(R.nextInRange(1, KeySpace)),
      static_cast<uint32_t>(R.next() & 0x7fffffffU)});
  return O;
}

/// Everything one trial feeds the cluster, drawn from (seed, trial).
struct TrialInputs {
  uint64_t ClusterSeed = 0;
  std::vector<Op> Ops;
  size_t CrashAtOp = SIZE_MAX;
  uint64_t RestartAfterUs = 0;
};

TrialInputs makeInputs(Workload W, uint64_t Seed, uint64_t Trial) {
  Rng R(trialSeed(Seed, Trial));
  TrialInputs In;
  In.ClusterSeed = R.next();
  switch (W) {
  case Workload::WriteTcpDurable:
    for (size_t I = 0; I != WriteTcpOps; ++I)
      In.Ops.push_back(putOp(R));
    break;
  case Workload::ReadLeaseBus:
    for (size_t I = 0; I != ReadLeaseOps; ++I) {
      if (R.nextChance(9, 10)) {
        Op O;
        O.IsRead = true;
        In.Ops.push_back(O);
      } else {
        In.Ops.push_back(putOp(R));
      }
    }
    break;
  case Workload::ReconfigFailoverSim: {
    // Poisson arrivals; the crash lands in the middle two fifths.
    double Due = 0;
    for (size_t I = 0; I != SimOps; ++I) {
      Due += -std::log(1.0 - R.nextUnit()) * 1e6 / SimRatePerS;
      Op O = putOp(R);
      O.DueUs = static_cast<uint64_t>(Due);
      In.Ops.push_back(O);
    }
    In.CrashAtOp = R.nextInRange(SimOps * 3 / 10, SimOps * 7 / 10);
    In.RestartAfterUs = R.nextInRange(300000, 800000);
    break;
  }
  }
  return In;
}

/// The workload's writes, generated until there are \p Count of them.
std::vector<Op> writesOf(Workload W, uint64_t Seed, size_t Count) {
  std::vector<Op> Out;
  for (uint64_t Trial = ReplayTrial; Out.size() < Count; ++Trial)
    for (const Op &O : makeInputs(W, Seed, Trial).Ops)
      if (!O.IsRead && Out.size() < Count)
        Out.push_back(Op{false, O.Method, 0});
  return Out;
}

RtSpec rtSpecFor(Workload W, uint64_t ClusterSeed) {
  RtSpec S;
  S.Seed = ClusterSeed;
  if (W == Workload::WriteTcpDurable) {
    S.Transport = rt::TransportKind::Tcp;
    S.Durable = true;
  } else {
    S.Transport = rt::TransportKind::Bus;
    S.LeaseReads = W == Workload::ReadLeaseBus;
  }
  return S;
}

SimSpec failoverSpec(const TrialInputs &In) {
  SimSpec S;
  S.Universe = 5;
  S.OpenLoop = true;
  S.Phases = Fig16Phases;
  S.CrashAtOp = In.CrashAtOp;
  S.RestartAfterUs = In.RestartAfterUs;
  S.Seed = In.ClusterSeed;
  return S;
}

//===----------------------------------------------------------------------===//
// Aggregation
//===----------------------------------------------------------------------===//

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(P / 100.0 * static_cast<double>(V.size()));
  return V[std::min(Rank, V.size() - 1)];
}

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // KiB on Linux.
}

/// Outcome of a sequence of trials. Timings are reported as medians
/// over trials (CPU per op excepted, see cpuUsPerOp), which keeps a run
/// steady when a minority of trials stall (see README.md on bimodal rt
/// trials).
struct Totals {
  bool Correct = true;
  std::string Violation;
  size_t Attempted = 0;
  size_t Failed = 0;
  size_t Writes = 0;
  size_t Reads = 0;
  /// One entry per trial.
  std::vector<double> SetupS, OpsPerS, CpuUsPerOp, P50Us, P99Us;

  void add(const PassResult &R) {
    if (!R.Correct && Correct) {
      Correct = false;
      Violation = R.Violation;
    }
    std::vector<double> Us = R.WriteUs;
    Us.insert(Us.end(), R.ReadUs.begin(), R.ReadUs.end());
    double Done = static_cast<double>(Us.size());
    Attempted += R.Attempted;
    Failed += R.Failed;
    Writes += R.WriteUs.size();
    Reads += R.ReadUs.size();
    SetupS.push_back(R.SetupS);
    OpsPerS.push_back(ratio(Done, R.ElapsedS));
    CpuUsPerOp.push_back(ratio(R.CpuS * 1e6, Done));
    P50Us.push_back(percentile(Us, 50));
    P99Us.push_back(percentile(Us, 99));
  }
  /// One line per trial on standard error, for reading a run's spread.
  void logLast() const {
    std::fprintf(stderr,
                 "  trial %zu: %.0f ops/s, cpu %.1f us/op, setup %.1f us, "
                 "p50 %.1f us, p99 %.1f us, %zu failed so far\n",
                 trials() - 1, OpsPerS.back(), CpuUsPerOp.back(),
                 SetupS.back() * 1e6, P50Us.back(), P99Us.back(), Failed);
  }
  size_t trials() const { return SetupS.size(); }
  size_t completed() const { return Writes + Reads; }
};

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

struct Report {
  Totals T;
  std::vector<Metric> Metrics;
  void put(std::string Name, double Value, const char *Unit) {
    Metrics.push_back(Metric{std::move(Name), Value, Unit});
  }
};

uint64_t deadlineNs(double Seconds) {
  return nowNs() + static_cast<uint64_t>(Seconds * 1e9);
}

/// Runs rt trials until \p Seconds pass (at least one), traced through
/// \p P when set.
void rtTrials(Workload W, uint64_t Seed, double Seconds, Totals &Out,
              std::vector<RtResult> *Results = nullptr,
              RtProbes *P = nullptr) {
  uint64_t Until = deadlineNs(Seconds);
  for (uint64_t Trial = 0; Trial == 0 || nowNs() < Until; ++Trial) {
    TrialInputs In = makeInputs(W, Seed, Trial);
    RtResult R = runRt(rtSpecFor(W, In.ClusterSeed), In.Ops, P);
    Out.add(R);
    Out.logLast();
    if (Results)
      Results->push_back(std::move(R));
    if (!Out.Correct)
      return;
  }
}

/// Runs the simulator workload's trials, one after another, until
/// \p Seconds pass and at least SimTrials have run. All go into \p All;
/// the first SimTrials also into \p Fixed and \p Results, which feed the
/// virtual-time metrics and counts so those repeat exactly for a seed.
/// Only those are kept whole, so memory does not grow with the number of
/// trials.
void simTrials(uint64_t Seed, double Seconds, Totals &Fixed,
               std::vector<SimResult> &Results, Totals *All = nullptr,
               SimProbes *P = nullptr) {
  uint64_t Until = deadlineNs(Seconds);
  for (uint64_t Trial = 0; Trial < SimTrials || (All && nowNs() < Until);
       ++Trial) {
    TrialInputs In = makeInputs(Workload::ReconfigFailoverSim, Seed, Trial);
    SimResult R = runSim(failoverSpec(In), In.Ops, P);
    bool Correct = R.Correct;
    if (All) {
      All->add(R);
      All->logLast();
    }
    if (Trial < SimTrials) {
      Fixed.add(R);
      if (!All)
        Fixed.logLast();
      Results.push_back(std::move(R));
    }
    if (!Correct)
      return;
  }
}

/// CPU per completed op, from the per-trial values. Other processes on
/// the host only ever add to a trial's CPU time, through the caches and
/// memory they share, so a low order statistic tracks the program's own
/// cost better than the median. Simulator trials all have the same op
/// count and shape, so the fastest one is taken: over eight 30-s runs in
/// a busy period the run-to-run spread was 0.29 for the median trial,
/// 0.19 for the 10th percentile and 0.12 for the fastest. An rt trial
/// draws its own read/write mix, and the fastest trial is then the one
/// with the fewest writes: the 10th percentile spread 0.07-0.08 over ten
/// runs where the fastest trial spread 0.16.
double cpuUsPerOp(const Totals &T, Workload W) {
  return percentile(T.CpuUsPerOp, W == Workload::ReconfigFailoverSim ? 0 : 10);
}

/// \p Wall gives setup, CPU and memory; \p Lat the metrics kept in the
/// pass's own clock (virtual on sim), throughput and latency. Virtual
/// times repeat exactly for a seed and are medians over trials. Wall-clock
/// throughput and latency are taken at the 10th percentile toward the
/// better end, for the reason cpuUsPerOp gives: on a shared host, runs of
/// read-lease-bus stalled for a minute at a time (p99 10x, throughput a
/// third) in fresh clusters, so the stall came from the host, and two such
/// runs in ten spread the median trial's p99 by 0.83.
void putEndToEnd(Report &Rep, Workload W, const Totals &Wall,
                 const Totals &Lat) {
  double P = W == Workload::ReconfigFailoverSim ? 50 : 10;
  Rep.put("setup_s", median(Wall.SetupS), "s");
  Rep.put("ops_per_s", percentile(Lat.OpsPerS, 100 - P), "ops/s");
  Rep.put("cpu_us_per_op", cpuUsPerOp(Wall, W), "us");
  Rep.put("rss_mb", peakRssMb(), "MiB");
  Rep.put("op_p50_us", percentile(Lat.P50Us, P), "us");
  Rep.put("op_p99_us", percentile(Lat.P99Us, P), "us");
}

Report endToEnd(const Args &A) {
  Report Rep;
  if (A.W == Workload::ReconfigFailoverSim) {
    Totals Fixed;
    std::vector<SimResult> Results;
    // One trial at a time: concurrent trials made peak RSS depend on how
    // they overlapped, and per-thread CPU time on what ran beside them.
    simTrials(A.Seed, A.Seconds, Fixed, Results, &Rep.T);
    putEndToEnd(Rep, A.W, Rep.T, Fixed);
  } else {
    rtTrials(A.W, A.Seed, A.Seconds, Rep.T);
    putEndToEnd(Rep, A.W, Rep.T, Rep.T);
  }
  return Rep;
}

//===----------------------------------------------------------------------===//
// Traced run
//===----------------------------------------------------------------------===//

double load(const std::atomic<uint64_t> &A) {
  return static_cast<double>(A.load());
}

/// Transport, wire, net, kv and rt metrics from traced rt passes whose
/// pooled outcome is \p T.
void putRtLayers(Report &Rep, const Totals &T, const std::vector<RtResult> &Rs,
                 RtProbes &P) {
  double Ops = static_cast<double>(T.completed());
  double Writes = static_cast<double>(T.Writes);
  double Drops = 0, Dropped = 0, Elections = 0;
  for (const RtResult &R : Rs) {
    Drops += static_cast<double>(R.Tcp.ConnectionDrops);
    Dropped += static_cast<double>(R.Tcp.FramesDropped);
    Elections += static_cast<double>(R.Elections);
  }
  std::vector<double> Delivery;
  {
    sync::MutexLock Lock(P.Net.Mu);
    Delivery = P.Net.DeliveryUs;
  }
  Rep.put("transport.frames_per_op", ratio(load(P.Net.Post.Calls), Ops),
          "frames/op");
  Rep.put("transport.bytes_per_op", ratio(load(P.Net.Bytes), Ops), "B/op");
  Rep.put("transport.post_us", P.Net.Post.meanUs(), "us");
  Rep.put("transport.handler_us", P.Net.Handler.meanUs(), "us");
  Rep.put("transport.delivery_us", median(std::move(Delivery)), "us");
  Rep.put("wire.decode_us", P.Net.Decode.meanUs(), "us");
  Rep.put("wire.encode_us", P.Net.Encode.meanUs(), "us");
  Rep.put("wire.append_frames_per_op", ratio(load(P.Net.AppendFrames), Writes),
          "frames/op");
  Rep.put("wire.entries_shipped_per_op",
          ratio(load(P.Net.EntriesShipped), Writes), "entries/op");
  Rep.put("wire.read_frames_per_read",
          ratio(load(P.Net.ReadFrames), static_cast<double>(T.Reads)),
          "frames/read");
  Rep.put("net.connection_drops", Drops, "count");
  Rep.put("net.frames_dropped", Dropped, "count");
  Rep.put("kv.apply_us", P.KvApply.meanUs(), "us");
  Rep.put("rt.elections", Elections, "count");
}

/// Store metrics from traced durable rt passes.
void putStoreLayers(Report &Rep, const Totals &T,
                    const std::vector<RtResult> &Rs, const RtProbes &P) {
  double Writes = static_cast<double>(T.Writes);
  store::StoreStats S;
  for (const RtResult &R : Rs)
    S.accumulate(R.Store);
  Rep.put("store.appends_per_op", ratio(load(P.Disk.Append.Calls), Writes),
          "appends/op");
  Rep.put("store.bytes_per_op", ratio(load(P.Disk.Bytes), Writes), "B/op");
  Rep.put("store.append_us", P.Disk.Append.meanUs(), "us");
  Rep.put("store.syncs_per_op", ratio(load(P.Disk.Sync.Calls), Writes),
          "syncs/op");
  Rep.put("store.sync_us", P.Disk.Sync.meanUs(), "us");
  Rep.put("store.records_per_sync",
          ratio(static_cast<double>(S.RecordsWritten),
                static_cast<double>(S.Syncs)),
          "records/sync");
  Rep.put("store.snapshot_bytes_per_op",
          ratio(load(P.Disk.SnapshotBytes), Writes), "B/op");
}

/// Core growth by log-length decile of a traced sim pass.
void putGrowth(Report &Rep, const SimProbes &P) {
  auto UsPerOp = [&](size_t D) {
    return ratio(static_cast<double>(P.Growth[D].StepNs) / 1000.0,
                 static_cast<double>(P.Growth[D].Ops));
  };
  Rep.put("core.us_per_op.first_tenth", UsPerOp(0), "us");
  Rep.put("core.us_per_op.last_tenth", UsPerOp(9), "us");
  for (size_t D = 0; D != 10; ++D) {
    std::string Prefix = "core.decile" + std::to_string(D) + ".";
    Rep.put(Prefix + "us_per_op", UsPerOp(D), "us");
    Rep.put(Prefix + "msgs_per_op",
            ratio(static_cast<double>(P.Growth[D].Messages),
                  static_cast<double>(P.Growth[D].Ops)),
            "msgs/op");
  }
}

/// Core, simulated-store and failover metrics of traced sim passes.
void putSimLayers(Report &Rep, const Totals &T,
                  const std::vector<SimResult> &Rs, const SimProbes &P) {
  double Ops = static_cast<double>(T.completed());
  double Msgs = 0, Steps = 0, Elections = 0;
  store::StoreStats S;
  std::vector<double> Outage, Reconfig;
  for (const SimResult &R : Rs) {
    Msgs += static_cast<double>(R.Messages);
    Steps += static_cast<double>(R.Steps);
    Elections += static_cast<double>(R.Elections);
    S.accumulate(R.Store);
    if (R.OutageUs >= 0)
      Outage.push_back(R.OutageUs / 1000.0);
    for (double Us : R.ReconfigUs)
      Reconfig.push_back(Us / 1000.0);
  }
  Rep.put("core.msgs_per_op", ratio(Msgs, Ops), "msgs/op");
  Rep.put("core.steps_per_op", ratio(Steps, Ops), "steps/op");
  Rep.put("core.step_us", P.Step.meanUs(), "us");
  Rep.put("core.elections", ratio(Elections, static_cast<double>(Rs.size())),
          "count/pass");
  Rep.put("store.sim_records_per_sync",
          ratio(static_cast<double>(S.RecordsWritten),
                static_cast<double>(S.Syncs)),
          "records/sync");
  Rep.put("store.recovery_us",
          ratio(static_cast<double>(S.RecoveryUsTotal),
                static_cast<double>(S.Recoveries)),
          "us");
  Rep.put("sim.outage_ms", median(Outage), "ms");
  Rep.put("sim.reconfig_ms", median(Reconfig), "ms");
}

/// The simulator failover schedule driven with \p Writes as payloads.
void failoverReplay(uint64_t Seed, const std::vector<Op> &Writes,
                    Totals &T, std::vector<SimResult> &Rs, SimProbes &P) {
  TrialInputs In =
      makeInputs(Workload::ReconfigFailoverSim, Seed, ReplayTrial);
  for (size_t I = 0; I != In.Ops.size(); ++I)
    In.Ops[I].Method = Writes[I % Writes.size()].Method;
  SimResult R = runSim(failoverSpec(In), In.Ops, &P);
  T.add(R);
  Rs.push_back(std::move(R));
}

Report traced(const Args &A) {
  Report Rep;
  Tracer Spans;
  double Half = A.Seconds / 2.0;
  Totals Untraced;
  Totals Main;

  // Passes that measure the layers: Rt* feed transport, wire, net, kv,
  // rt and (when durable) store; Single* the single-node baseline;
  // Growth* the log-length deciles; Sim* core and failover.
  Totals RtT, SimT, SingleT, GrowthT;
  std::vector<RtResult> RtRs, SingleRs;
  RtProbes RtP(Spans), SingleP(Spans);
  std::vector<SimResult> SimRs;
  SimProbes SimP(Spans), GrowthP(Spans);

  std::vector<Op> Writes;
  rt::TransportKind SingleNet = rt::TransportKind::Bus;
  if (A.W == Workload::ReconfigFailoverSim) {
    Totals Ignored;
    std::vector<SimResult> Unused;
    simTrials(A.Seed, Half, Ignored, Unused, &Untraced);
    simTrials(A.Seed, 0, Main, SimRs, nullptr, &SimP);
    SimT = Main;
    putGrowth(Rep, SimP);
    // The rt layers on this workload's writes: a closed-loop replay on
    // the production path, a 3-node loopback-TCP cluster with a durable
    // store.
    Writes = writesOf(A.W, A.Seed, SimOps);
    SingleNet = rt::TransportKind::Tcp;
    RtSpec S;
    S.Transport = rt::TransportKind::Tcp;
    S.Durable = true;
    S.Seed = trialSeed(A.Seed, ReplayTrial);
    RtRs.push_back(runRt(S, Writes, &RtP));
    RtT.add(RtRs.back());
  } else {
    rtTrials(A.W, A.Seed, Half, Untraced);
    rtTrials(A.W, A.Seed, Half, Main, &RtRs, &RtP);
    RtT = Main;
    Writes = writesOf(A.W, A.Seed, ReplayWrites);
    SingleNet = rtSpecFor(A.W, 0).Transport;
    // Core growth: the workload's writes replayed closed-loop on a
    // 3-node simulated cluster with a durable store, the shape of
    // write-tcp-durable.
    SimSpec G;
    G.Seed = trialSeed(A.Seed, ReplayTrial);
    GrowthT.add(runSim(G, Writes, &GrowthP));
    putGrowth(Rep, GrowthP);
    failoverReplay(A.Seed, Writes, SimT, SimRs, SimP);
  }

  // Single-node baseline: the workload's writes on a 1-node durable
  // cluster over the workload's transport (TCP for the simulator).
  RtSpec One;
  One.Transport = SingleNet;
  One.Nodes = 1;
  One.Durable = true;
  One.Seed = trialSeed(A.Seed, ReplayTrial + 1);
  std::vector<Op> OneOps(Writes.begin(),
                         Writes.begin() +
                             std::min<size_t>(Writes.size(), WriteTcpOps));
  SingleRs.push_back(runRt(One, OneOps, &SingleP));
  SingleT.add(SingleRs.back());

  putRtLayers(Rep, RtT, RtRs, RtP);
  // The store layer as the workload crosses it; read-lease-bus is
  // volatile, so its store numbers are the single-node pass's.
  if (A.W == Workload::ReadLeaseBus)
    putStoreLayers(Rep, SingleT, SingleRs, SingleP);
  else
    putStoreLayers(Rep, RtT, RtRs, RtP);
  Rep.put("rt.single_node_write_p50_us",
          percentile(SingleRs.back().WriteUs, 50), "us");
  putSimLayers(Rep, SimT, SimRs, SimP);
  Rep.put("trace.overhead_cpu_us_per_op",
          cpuUsPerOp(Main, A.W) - cpuUsPerOp(Untraced, A.W), "us");

  for (const Totals *T : {&Untraced, &RtT, &SimT, &SingleT, &GrowthT})
    if (!T->Correct && Main.Correct) {
      Main.Correct = false;
      Main.Violation = T->Violation;
    }
  Rep.T = Main;
  Rep.T.Attempted += Untraced.Attempted;
  Rep.T.Failed += Untraced.Failed;

  std::string Path = A.SpansDir + "/" + A.Name + "-" +
                     std::to_string(A.Seed) + ".spans.tsv";
  if (Spans.writeTsv(Path))
    std::fprintf(stderr, "perfbench: wrote %zu spans (%llu dropped) to %s\n",
                 Spans.kept(),
                 static_cast<unsigned long long>(Spans.dropped()),
                 Path.c_str());
  else
    std::fprintf(stderr, "perfbench: could not write spans to %s\n",
                 Path.c_str());
  return Rep;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

/// Shortest decimal that reads back as exactly \p V.
std::string number(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  auto Res = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, Res.ptr);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload write-tcp-durable|read-lease-bus|"
               "reconfig-failover-sim --seed N --seconds S --trace 0|1 "
               "[--spans-dir DIR]\n");
  return 2;
}

bool parseU64(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (End == S || *End != '\0' || errno != 0 || *S == '-')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  bool HaveW = false, HaveSeed = false, HaveSecs = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    const char *V = Argv[++I];
    uint64_t N = 0;
    if (Flag == "--workload") {
      A.Name = V;
      HaveW = true;
      if (A.Name == "write-tcp-durable")
        A.W = Workload::WriteTcpDurable;
      else if (A.Name == "read-lease-bus")
        A.W = Workload::ReadLeaseBus;
      else if (A.Name == "reconfig-failover-sim")
        A.W = Workload::ReconfigFailoverSim;
      else
        return usage();
    } else if (Flag == "--seed" && parseU64(V, N)) {
      A.Seed = N;
      HaveSeed = true;
    } else if (Flag == "--seconds" && parseU64(V, N) && N >= 1 && N <= 60) {
      A.Seconds = static_cast<unsigned>(N);
      HaveSecs = true;
    } else if (Flag == "--trace" && (std::strcmp(V, "0") == 0 ||
                                     std::strcmp(V, "1") == 0)) {
      A.Trace = V[0] == '1';
      HaveTrace = true;
    } else if (Flag == "--spans-dir") {
      A.SpansDir = V;
    } else {
      return usage();
    }
  }
  if (!HaveW || !HaveSeed || !HaveSecs || !HaveTrace)
    return usage();

  Report Rep = A.Trace ? traced(A) : endToEnd(A);
  if (!Rep.T.Correct) {
    std::fprintf(stderr, "perfbench: %s seed %llu: correctness violation: %s\n",
                 A.Name.c_str(), static_cast<unsigned long long>(A.Seed),
                 Rep.T.Violation.c_str());
    return 1;
  }

  std::printf("%s seed=%llu trace=%d trials=%zu ops_attempted=%zu "
              "ops_failed=%zu\n",
              A.Name.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Trace ? 1 : 0, Rep.T.trials(), Rep.T.Attempted, Rep.T.Failed);
  for (const Metric &M : Rep.Metrics)
    std::printf("  %-34s %14.4f %s\n", M.Name.c_str(), M.Value, M.Unit);
  std::string J = "{\"correct\": true, \"attempted\": " +
                  std::to_string(Rep.T.Attempted) +
                  ", \"failed\": " + std::to_string(Rep.T.Failed) +
                  ", \"metrics\": {";
  for (size_t I = 0; I != Rep.Metrics.size(); ++I) {
    const Metric &M = Rep.Metrics[I];
    J += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + number(M.Value) +
         ", \"unit\": \"" + M.Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  return 0;
}
