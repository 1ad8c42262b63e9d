//===- perfbench/SimPass.cpp - A pass on the discrete-event simulator -----===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Passes.h"

#include "kv/KvStore.h"
#include "sim/Cluster.h"

#include <algorithm>
#include <functional>
#include <optional>

using namespace adore;
using namespace adore::sim;
using namespace perfbench;

namespace {

/// Virtual deadline of one client op; a miss counts as failed.
constexpr SimTime OpDeadlineUs = 5000000;
/// Virtual time allowed for the last ops to settle after the last one
/// was due before the pass is declared stuck.
constexpr SimTime SettleSlackUs = 60000000;

/// Fig. 16's single-server step toward \p TargetSize: shrinking removes
/// the largest member that is not the leader, growing re-admits the
/// smallest absent node.
Config nextConfig(const Cluster &C, size_t TargetSize) {
  NodeId Lead = C.leader().value_or(1);
  NodeSet Members = C.node(Lead).config().Members;
  while (Members.size() > TargetSize) {
    for (size_t I = Members.size(); I-- > 0;) {
      if (Members[I] != Lead) {
        Members.erase(Members[I]);
        break;
      }
    }
  }
  for (NodeId N : C.universe()) {
    if (Members.size() >= TargetSize)
      break;
    Members.insert(N);
  }
  return Config(Members);
}

} // namespace

SimResult perfbench::runSim(const SimSpec &Spec, const std::vector<Op> &Ops,
                            SimProbes *Probes) {
  SimResult R;
  uint64_t T0 = nowNs();
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  NodeSet Universe = NodeSet::range(1, Spec.Universe);
  ClusterOptions CO;
  CO.DurableStore = true;
  Cluster C(*Scheme, Config(Universe), Universe, CO, Spec.Seed);
  EventQueue &Q = C.queue();

  std::vector<kv::KvState> Replicas(Spec.Universe + 1);
  std::vector<size_t> Applied(Spec.Universe + 1, 0);
  C.addApplyHook([&](NodeId Node, size_t, const SimLogEntry &E) {
    if (E.Kind == raft::EntryKind::Method)
      Replicas[Node].applyMethod(E.Method);
    ++Applied[Node];
  });

  C.start();
  if (!C.runUntilLeader(10000000)) {
    R.Correct = false;
    R.Violation = "no leader within 10 virtual s";
    return R;
  }
  bool WarmDone = false;
  bool WarmOk = false;
  C.submit(kv::encodeKvOp(kv::KvOp{kv::KvOpKind::Put, 0, 0}),
           [&](bool Ok, SimTime) {
             WarmDone = true;
             WarmOk = Ok;
           });
  Q.runUntilPred([&] { return WarmDone; });
  if (!WarmOk) {
    R.Correct = false;
    R.Violation = "warm-up op did not commit";
    return R;
  }
  R.SetupS = static_cast<double>(nowNs() - T0) / 1e9;

  const size_t N = Ops.size();
  const size_t PhaseLen = Spec.Phases.empty() ? 0 : N / Spec.Phases.size();
  const SimTime Base = Q.now();
  size_t Settled = 0;
  size_t ReconfigsPending = 0;
  bool Crashed = false;
  SimTime CrashAt = 0;
  std::optional<SimTime> FirstAfterCrash;

  // Reconfigs and the crash are serialized: a reconfig is requested only
  // while a leader exists and no other reconfig is pending, and the crash
  // waits for pending reconfigs, so a target configuration is never
  // computed against a leader that is about to change. Either one that is
  // due while it must wait is retried when the next op is due.
  size_t PhaseRequested = 0;
  std::function<void(size_t)> Issue = [&](size_t I) {
    size_t Phase = PhaseLen ? std::min(I / PhaseLen, Spec.Phases.size() - 1)
                            : 0;
    if (PhaseRequested < Phase && ReconfigsPending == 0 && C.leader()) {
      ++PhaseRequested;
      ++ReconfigsPending;
      ++R.Attempted;
      C.requestReconfig(nextConfig(C, Spec.Phases[PhaseRequested]),
                        [&](bool Ok, SimTime Us) {
                          --ReconfigsPending;
                          if (Ok)
                            R.ReconfigUs.push_back(static_cast<double>(Us));
                          else
                            ++R.Failed;
                        });
    }
    // The victim is whoever leads once the crash point is due.
    if (!Crashed && I >= Spec.CrashAtOp && ReconfigsPending == 0) {
      if (std::optional<NodeId> Victim = C.leader()) {
        Crashed = true;
        CrashAt = Q.now();
        C.crash(*Victim);
        Q.scheduleAfter(Spec.RestartAfterUs,
                        [&C, V = *Victim] { C.restart(V); });
      }
    }
    ++R.Attempted;
    C.submit(
        Ops[I].Method,
        [&, I](bool Ok, SimTime Us) {
          if (Probes)
            ++Probes->Growth[std::min<size_t>(9, Settled * 10 / N)].Ops;
          ++Settled;
          if (Ok) {
            R.WriteUs.push_back(static_cast<double>(Us));
            // Service is back once an op submitted after the crash
            // completes; earlier ops may complete on replies already in
            // flight.
            if (Crashed && !FirstAfterCrash && Q.now() - Us >= CrashAt)
              FirstAfterCrash = Q.now();
          } else {
            ++R.Failed;
          }
          if (!Spec.OpenLoop && I + 1 < N)
            Issue(I + 1);
        },
        OpDeadlineUs);
  };
  SimTime LastDue = 0;
  if (Spec.OpenLoop) {
    for (size_t I = 0; I != N; ++I) {
      LastDue = std::max(LastDue, Ops[I].DueUs);
      Q.scheduleAt(Base + Ops[I].DueUs, [&Issue, I] { Issue(I); });
    }
  } else if (N) {
    Issue(0);
  }

  size_t Msgs0 = C.messagesSent();
  double Cpu0 = threadCpuS();
  // A closed loop's ops fall due one after another; allow each 10 ms.
  const SimTime GiveUp =
      Base + LastDue + SettleSlackUs + (Spec.OpenLoop ? 0 : N * 10000);
  while ((Settled < N || ReconfigsPending > 0) && Q.now() < GiveUp) {
    ++R.Steps;
    if (!Probes) {
      if (!Q.runNext())
        break;
      continue;
    }
    size_t Bucket = std::min<size_t>(9, Settled * 10 / std::max<size_t>(N, 1));
    size_t M0 = C.messagesSent();
    uint64_t S = nowNs();
    bool More = Q.runNext();
    uint64_t E = nowNs();
    Probes->T.record("core.step", S, E, Probes->Step);
    Probes->Growth[Bucket].StepNs += E - S;
    Probes->Growth[Bucket].Messages += C.messagesSent() - M0;
    if (!More)
      break;
  }
  R.ElapsedS = static_cast<double>(Q.now() - Base) / 1e6;
  R.CpuS = threadCpuS() - Cpu0;
  R.Messages = C.messagesSent() - Msgs0;
  if (Settled < N || ReconfigsPending > 0) {
    R.Correct = false;
    R.Violation = "ops still pending " +
                  std::to_string(SettleSlackUs / 1000000) +
                  " virtual s after the last was due";
    return R;
  }
  if (FirstAfterCrash)
    R.OutageUs = static_cast<double>(*FirstAfterCrash - CrashAt);

  // One virtual second lets every follower learn the final commit index.
  Q.runUntil(Q.now() + 1000000);
  R.Elections = C.leadersByTerm().size();
  R.Store = C.storeStats();
  if (auto V = C.checkCommittedAgreement()) {
    R.Correct = false;
    R.Violation = *V;
  } else if (auto V = C.checkLeaderUniqueness()) {
    R.Correct = false;
    R.Violation = *V;
  } else if (!C.storeViolations().empty()) {
    R.Correct = false;
    R.Violation = C.storeViolations().front();
  } else {
    // Every member of the final configuration must have applied the
    // whole log and hold the same kv state.
    std::optional<NodeId> Lead = C.leader();
    if (!Lead) {
      R.Correct = false;
      R.Violation = "no leader at the end of the pass";
      return R;
    }
    size_t Max = *std::max_element(Applied.begin(), Applied.end());
    for (NodeId Id : C.node(*Lead).config().Members) {
      if (Applied[Id] != Max || !(Replicas[Id] == Replicas[*Lead])) {
        R.Correct = false;
        R.Violation = "replica " + std::to_string(Id) +
                      " kv state differs from the leader's";
        break;
      }
    }
  }
  return R;
}
