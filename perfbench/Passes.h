//===- perfbench/Passes.h - One cluster run of the benchmark -------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pass builds a fresh cluster, feeds it a generated op sequence, checks
/// the outcome, and returns what it measured. runRt drives the threaded
/// runtime (rt::RtCluster), runSim the simulator (sim::Cluster). Both run
/// the library's default tuning and set only what defines a workload:
/// transport, durability, read tier, cluster size and fault schedule.
/// With probes attached a pass is traced; without, it runs the program
/// exactly as a user would.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_PERFBENCH_PASSES_H
#define ADORE_PERFBENCH_PASSES_H

#include "Probes.h"

#include "net/TcpTransport.h"
#include "rt/RtCluster.h"
#include "store/NodeStore.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One client operation, generated from the seed.
struct Op {
  bool IsRead = false;
  /// A kv::encodeKvOp put (writes only).
  adore::MethodId Method = 0;
  /// Open loop only: virtual time the op is due, relative to the start
  /// of the measured phase.
  uint64_t DueUs = 0;
};

/// What both runtimes report about a pass.
struct PassResult {
  /// False on any correctness violation; Violation says which.
  bool Correct = true;
  std::string Violation;
  size_t Attempted = 0;
  size_t Failed = 0;
  /// Wall time from cluster construction to the first committed warm-up
  /// op.
  double SetupS = 0;
  /// Length of the measured phase, wall on rt and virtual on sim, and
  /// its CPU time (user + sys): the whole process's on rt, the simulating
  /// thread's on sim.
  double ElapsedS = 0;
  double CpuS = 0;
  /// Per-op latency in microseconds (wall on rt, virtual on sim).
  std::vector<double> WriteUs;
  std::vector<double> ReadUs;
};

//===----------------------------------------------------------------------===//
// Threaded runtime
//===----------------------------------------------------------------------===//

struct RtSpec {
  adore::rt::TransportKind Transport = adore::rt::TransportKind::Bus;
  size_t Nodes = 3;
  bool Durable = false;
  bool LeaseReads = false;
  uint64_t Seed = 1;
};

/// What traced rt passes observe at the layer boundaries; may be shared
/// by several passes.
struct RtProbes {
  explicit RtProbes(Tracer &T) : T(T) {}
  Tracer &T;
  TransportProbe Net;
  VfsProbe Disk;
  BoundaryStat KvApply;
  BoundaryStat ClientWrite;
  BoundaryStat ClientRead;
};

struct RtResult : PassResult {
  /// Rise of the highest term any node reports over the measured phase.
  uint64_t Elections = 0;
  adore::store::StoreStats Store;
  adore::net::TcpTransportStats Tcp;
};

/// Closed loop, one client: each op is a submitAndWait put or a
/// readAndWait, with a deadline whose miss counts as a failure.
RtResult runRt(const RtSpec &Spec, const std::vector<Op> &Ops,
               RtProbes *Probes);

//===----------------------------------------------------------------------===//
// Simulator
//===----------------------------------------------------------------------===//

struct SimSpec {
  /// Node ids 1..Universe; the initial configuration is all of them.
  size_t Universe = 3;
  /// Open loop submits each op at its DueUs; closed loop submits the
  /// next op when the previous one completes.
  bool OpenLoop = false;
  /// Hot reconfiguration schedule: configuration sizes of equal-length
  /// phases; a reconfig to the next size is requested when the first op
  /// of its phase is submitted (or, while no leader exists or another
  /// reconfig is pending, with the next op after). Empty means none.
  std::vector<size_t> Phases;
  /// The leader is crashed when op CrashAtOp is due (or the first op
  /// after it that finds a leader and no pending reconfig) and restarted
  /// RestartAfterUs later. CrashAtOp >= ops means no crash.
  size_t CrashAtOp = SIZE_MAX;
  uint64_t RestartAfterUs = 0;
  uint64_t Seed = 1;
};

/// Core cost bucketed by tenths of the op sequence, i.e. by log length.
struct GrowthDecile {
  uint64_t Ops = 0;
  uint64_t StepNs = 0;
  uint64_t Messages = 0;
};

/// What a traced sim pass observes; may be shared by several passes.
struct SimProbes {
  explicit SimProbes(Tracer &T) : T(T) {}
  Tracer &T;
  BoundaryStat Step;
  std::array<GrowthDecile, 10> Growth{};
};

struct SimResult : PassResult {
  /// Virtual microseconds from the leader crash to the completion of the
  /// first op submitted after it; negative without a crash.
  double OutageUs = -1;
  /// Virtual request-to-commit time of each reconfig.
  std::vector<double> ReconfigUs;
  uint64_t Messages = 0;
  uint64_t Steps = 0;
  uint64_t Elections = 0;
  adore::store::StoreStats Store;
};

/// Every simulated node keeps a durable store (sim::ClusterOptions::
/// DurableStore, on MemVfs).
SimResult runSim(const SimSpec &Spec, const std::vector<Op> &Ops,
                 SimProbes *Probes);

/// CPU time (user + sys) in seconds of the process, and of the calling
/// thread.
double processCpuS();
double threadCpuS();

} // namespace perfbench

#endif // ADORE_PERFBENCH_PASSES_H
