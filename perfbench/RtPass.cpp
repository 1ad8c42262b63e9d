//===- perfbench/RtPass.cpp - A closed-loop pass on the threaded runtime -===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Passes.h"

#include "kv/KvStore.h"
#include "read/ReadPath.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

using namespace adore;
using namespace perfbench;

namespace {

/// A client op that misses this deadline counts as failed; the run goes
/// on.
constexpr uint64_t OpDeadlineMs = 2000;

/// Warm-up puts use key 0, which generated ops never use.
MethodId warmupPut(uint32_t I) {
  return kv::encodeKvOp(kv::KvOp{kv::KvOpKind::Put, 0, I});
}

Time maxTerm(const rt::RtCluster &C) {
  Time Max = 0;
  for (NodeId Id : C.universe())
    Max = std::max(Max, C.nodeStatus(Id).Term);
  return Max;
}

} // namespace

namespace {

/// CPU time (user + sys) of \p Clock. The clock counts scheduler run time
/// in nanoseconds; getrusage would round to the 4 ms tick, about 3% of a
/// simulator trial.
double cpuS(clockid_t Clock) {
  timespec T{};
  clock_gettime(Clock, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) / 1e9;
}

} // namespace

double perfbench::processCpuS() { return cpuS(CLOCK_PROCESS_CPUTIME_ID); }

double perfbench::threadCpuS() { return cpuS(CLOCK_THREAD_CPUTIME_ID); }

RtResult perfbench::runRt(const RtSpec &Spec, const std::vector<Op> &Ops,
                          RtProbes *Probes) {
  RtResult R;
  uint64_t T0 = nowNs();

  std::unique_ptr<rt::Transport> Fabric = rt::makeTransport(Spec.Transport);
  std::unique_ptr<TracedTransport> TracedNet;
  if (Probes)
    TracedNet =
        std::make_unique<TracedTransport>(*Fabric, Probes->T, Probes->Net);
  store::MemVfs Disk(Spec.Seed ^ 0xD15CULL);
  std::unique_ptr<TracedVfs> TracedDisk;
  if (Probes)
    TracedDisk = std::make_unique<TracedVfs>(Disk, Probes->T, Probes->Disk);

  // One KvState per replica, fed by the apply tap on that replica's own
  // worker thread; read from this thread only after the nodes stop.
  std::vector<kv::KvState> Replicas(Spec.Nodes + 1);
  std::vector<std::atomic<size_t>> Applied(Spec.Nodes + 1);

  rt::RtClusterOptions CO;
  CO.NumNodes = Spec.Nodes;
  CO.Seed = Spec.Seed;
  CO.SharedNet = TracedNet ? static_cast<rt::Transport *>(TracedNet.get())
                           : Fabric.get();
  CO.DurableStore = Spec.Durable;
  CO.ExternalDisk = TracedDisk ? static_cast<store::Vfs *>(TracedDisk.get())
                               : &Disk;
  if (Spec.LeaseReads) {
    // The lease tier needs a lease length; ask for the longest the core
    // allows (it clamps to the minimum election timeout).
    read::ReadOptions RO;
    RO.Tier = read::ReadTier::Lease;
    RO.LeaseDurationUs = CO.Node.ElectionTimeoutMinUs;
    read::applyTier(RO, CO.Node);
  }
  CO.OnApplyExtra = [&](NodeId Node, size_t, const core::LogEntry &E) {
    if (E.Kind == raft::EntryKind::Method) {
      if (Probes) {
        uint64_t S = nowNs();
        Replicas[Node].applyMethod(E.Method);
        Probes->T.record("kv.apply", S, nowNs(), Probes->KvApply);
      } else {
        Replicas[Node].applyMethod(E.Method);
      }
    }
    Applied[Node].fetch_add(1, std::memory_order_release);
  };

  {
    rt::RtCluster Cluster(CO);
    Cluster.start();
    if (Cluster.waitForLeader(5000) == InvalidNodeId) {
      R.Correct = false;
      R.Violation = "no leader elected within 5 s";
      return R;
    }
    bool Warm = false;
    for (uint32_t I = 0; I != 3 && !Warm; ++I)
      Warm = Cluster.submitAndWait(warmupPut(I), 5000);
    if (!Warm) {
      R.Correct = false;
      R.Violation = "no warm-up op committed within 15 s";
      return R;
    }
    R.SetupS = static_cast<double>(nowNs() - T0) / 1e9;
    // Two more warm-up ops settle replication (and, on TCP, every
    // connection) before the clock starts.
    for (uint32_t I = 3; I != 5; ++I)
      Cluster.submitAndWait(warmupPut(I), OpDeadlineMs);

    Time Term0 = maxTerm(Cluster);
    double Cpu0 = processCpuS();
    uint64_t W0 = nowNs();
    R.WriteUs.reserve(Ops.size());
    Tracer *T = Probes ? &Probes->T : nullptr;
    for (const Op &O : Ops) {
      ++R.Attempted;
      uint64_t S = nowNs();
      bool Ok;
      if (O.IsRead) {
        Tracer::ClientOp Scope(T, "client.read",
                               Probes ? &Probes->ClientRead : nullptr);
        Ok = Cluster.readAndWait(OpDeadlineMs).has_value();
      } else {
        Tracer::ClientOp Scope(T, "client.write",
                               Probes ? &Probes->ClientWrite : nullptr);
        Ok = Cluster.submitAndWait(O.Method, OpDeadlineMs);
      }
      double Us = static_cast<double>(nowNs() - S) / 1000.0;
      if (!Ok)
        ++R.Failed;
      else
        (O.IsRead ? R.ReadUs : R.WriteUs).push_back(Us);
    }
    R.ElapsedS = static_cast<double>(nowNs() - W0) / 1e9;
    R.CpuS = processCpuS() - Cpu0;
    R.Elections = maxTerm(Cluster) - Term0;

    // Let every replica apply everything committed (followers learn the
    // commit index from the next heartbeat) before comparing them.
    uint64_t Until = nowNs() + 10000000000ULL;
    bool Converged = false;
    while (!Converged && nowNs() < Until) {
      size_t Target = Cluster.committedCount();
      Converged = true;
      for (size_t I = 1; I <= Spec.Nodes; ++I)
        Converged &= Applied[I].load(std::memory_order_acquire) == Target;
      if (!Converged)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Cluster.stop();
    std::vector<std::string> V = Cluster.checkFinalAgreement();
    if (!V.empty()) {
      R.Correct = false;
      R.Violation = V.front();
    } else if (!Converged) {
      R.Correct = false;
      R.Violation = "replicas did not apply the committed log within 10 s";
    } else {
      for (size_t I = 2; I <= Spec.Nodes; ++I)
        if (!(Replicas[I] == Replicas[1])) {
          R.Correct = false;
          R.Violation = "replica " + std::to_string(I) +
                        " kv state differs from replica 1";
        }
    }
    if (Spec.Durable)
      R.Store = Cluster.storeStats();
  }
  if (Probes) {
    // Frames never delivered must not match a later pass's frames.
    sync::MutexLock Lock(Probes->Net.Mu);
    Probes->Net.InFlight.clear();
  }
  if (Spec.Transport == rt::TransportKind::Tcp)
    R.Tcp = static_cast<net::TcpTransport &>(*Fabric).stats();
  return R;
}
