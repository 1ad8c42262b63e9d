//===- chaos/Nemesis.cpp - Seed-driven fault scheduler ----------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "chaos/Nemesis.h"

#include "support/Debug.h"

#include <algorithm>

using namespace adore;
using namespace adore::chaos;
using sim::SimTime;

const char *adore::chaos::scenarioName(Scenario S) {
  switch (S) {
  case Scenario::Mixed:
    return "mixed";
  case Scenario::Crashes:
    return "crashes";
  case Scenario::Partitions:
    return "partitions";
  case Scenario::Cuts:
    return "cuts";
  case Scenario::NetChaos:
    return "net-chaos";
  case Scenario::Reconfigs:
    return "reconfigs";
  case Scenario::SplitBrain:
    return "split-brain";
  case Scenario::CrashMidReconfig:
    return "crash-mid-reconfig";
  case Scenario::DiskFaults:
    return "disk-faults";
  case Scenario::ShardReconfig:
    return "shard-reconfig";
  case Scenario::KillForever:
    return "kill-forever";
  case Scenario::ClockDrift:
    return "clock-drift";
  }
  ADORE_UNREACHABLE("unknown scenario");
}

std::vector<Scenario> adore::chaos::allScenarios() {
  return {Scenario::Mixed,     Scenario::Crashes,
          Scenario::Partitions, Scenario::Cuts,
          Scenario::NetChaos,  Scenario::Reconfigs,
          Scenario::SplitBrain, Scenario::CrashMidReconfig,
          Scenario::DiskFaults, Scenario::ShardReconfig,
          Scenario::KillForever, Scenario::ClockDrift};
}

static std::string nodeName(NodeId N) { return "S" + std::to_string(N); }

Nemesis::Nemesis(sim::Cluster &Cluster, NemesisOptions Opts, uint64_t Seed)
    : C(&Cluster), Opts(Opts), R(Seed) {}

void Nemesis::start() {
  StartAt = C->queue().now();
  BaseLink = C->linkOptions();
  record(std::string("scenario ") + scenarioName(Opts.Kind));
  switch (Opts.Kind) {
  case Scenario::SplitBrain:
    scriptSplitBrain();
    break;
  case Scenario::CrashMidReconfig:
    scriptCrashMidReconfig();
    break;
  case Scenario::Mixed:
  case Scenario::Crashes:
  case Scenario::Partitions:
  case Scenario::Cuts:
  case Scenario::NetChaos:
  case Scenario::Reconfigs:
  case Scenario::DiskFaults:
  case Scenario::ShardReconfig:
  case Scenario::KillForever:
  case Scenario::ClockDrift:
    // Randomized scenarios: step() draws from the per-scenario move
    // set. Enumerated (no default) so a new Scenario must choose
    // scripted vs randomized explicitly. ShardReconfig is normally
    // driven by the sharded run's migration driver; a plain Nemesis
    // given it falls back to ordinary reconfig churn.
    scheduleNextStep();
    break;
  }
  // The horizon heal: no fault outlives the active window, so the
  // quiescence tail can meaningfully check convergence and durability.
  C->queue().scheduleAt(StartAt + Opts.HorizonUs,
                        [this] { healEverything(); });
}

void Nemesis::record(const std::string &Desc) {
  Trace.push_back(NemesisAction{C->queue().now(), Desc});
}

std::string
adore::chaos::formatTrace(const std::vector<NemesisAction> &Trace) {
  std::string Out;
  for (const NemesisAction &A : Trace) {
    Out += std::to_string(A.At);
    Out += ' ';
    Out += A.Desc;
    Out += '\n';
  }
  return Out;
}

void Nemesis::scheduleNextStep() {
  SimTime Gap = R.nextInRange(Opts.MeanGapUs / 2, Opts.MeanGapUs * 3 / 2);
  C->queue().scheduleAfter(Gap, [this] {
    if (HealedAll || C->queue().now() >= StartAt + Opts.HorizonUs)
      return;
    step();
    scheduleNextStep();
  });
}

void Nemesis::step() {
  using Move = bool (Nemesis::*)();
  std::vector<Move> Moves;
  switch (Opts.Kind) {
  case Scenario::Mixed:
    Moves = {&Nemesis::moveCrash,    &Nemesis::moveRestart,
             &Nemesis::movePartition, &Nemesis::moveCut,
             &Nemesis::moveNetStorm, &Nemesis::moveReconfig};
    break;
  case Scenario::Crashes:
    Moves = {&Nemesis::moveCrash, &Nemesis::moveRestart};
    break;
  case Scenario::Partitions:
    Moves = {&Nemesis::movePartition};
    break;
  case Scenario::Cuts:
    Moves = {&Nemesis::moveCut};
    break;
  case Scenario::NetChaos:
    Moves = {&Nemesis::moveNetStorm};
    break;
  case Scenario::Reconfigs:
  case Scenario::ShardReconfig:
    Moves = {&Nemesis::moveReconfig};
    break;
  case Scenario::DiskFaults:
    // Crash/restart is where the disk fault model bites (each crash
    // tears the WAL tail); reconfigs keep the durable log churning.
    Moves = {&Nemesis::moveCrash, &Nemesis::moveRestart,
             &Nemesis::moveReconfig};
    break;
  case Scenario::KillForever:
    Moves = {&Nemesis::moveKillForever};
    break;
  case Scenario::ClockDrift:
    // Skew churn is the point; crash/restart and reconfigs stress the
    // lease's step-down and reconfig-append invalidation paths while
    // clocks disagree.
    Moves = {&Nemesis::moveClockDrift, &Nemesis::moveClockDrift,
             &Nemesis::moveCrash, &Nemesis::moveRestart,
             &Nemesis::moveReconfig};
    break;
  case Scenario::SplitBrain:
  case Scenario::CrashMidReconfig:
    return; // Scripted scenarios never take randomized steps.
  }
  // A move can be inapplicable in the current state (budget exhausted,
  // already partitioned, ...); give the policy a few draws before giving
  // up on this step.
  for (int Try = 0; Try != 4; ++Try)
    if ((this->*R.pick(Moves))())
      return;
}

bool Nemesis::moveCrash() {
  if (Crashed.size() >= Opts.MaxCrashed)
    return false;
  NodeSet Members = C->scheme().mbrs(C->currentConfig());
  std::vector<NodeId> Cands;
  for (NodeId N : Members)
    if (!C->node(N).isCrashed())
      Cands.push_back(N);
  if (Cands.empty())
    return false;
  NodeId Victim = R.pick(Cands);
  C->crash(Victim);
  Crashed.insert(Victim);
  record("crash " + nodeName(Victim));
  // Crashes always recover: schedule the restart now so even an idle
  // policy heals its faults.
  SimTime Down =
      R.nextInRange(Opts.FaultDurationUs / 2, Opts.FaultDurationUs * 3 / 2);
  C->queue().scheduleAfter(Down, [this, Victim] {
    if (!Crashed.contains(Victim))
      return; // Already restarted by moveRestart or the horizon heal.
    Crashed.erase(Victim);
    C->restart(Victim);
    record("restart " + nodeName(Victim));
  });
  return true;
}

bool Nemesis::moveRestart() {
  if (Crashed.empty())
    return false;
  NodeId Victim = Crashed[R.nextBelow(Crashed.size())];
  Crashed.erase(Victim);
  C->restart(Victim);
  record("restart " + nodeName(Victim) + " (early)");
  return true;
}

bool Nemesis::movePartition() {
  if (C->isPartitioned())
    return false;
  NodeSet SideA;
  for (NodeId N : C->universe())
    if (R.nextChance(1, 2))
      SideA.insert(N);
  if (SideA.empty() || SideA.size() == C->universe().size())
    return false; // Degenerate draw; the policy will try another move.
  C->partition(SideA);
  uint64_t Gen = ++PartitionGen;
  record("partition " + SideA.str() + " | rest");
  SimTime Dur =
      R.nextInRange(Opts.FaultDurationUs / 2, Opts.FaultDurationUs * 3 / 2);
  C->queue().scheduleAfter(Dur, [this, Gen] {
    if (Gen != PartitionGen || !C->isPartitioned())
      return; // A later partition (or the horizon heal) superseded us.
    C->heal();
    record("heal partition");
  });
  return true;
}

bool Nemesis::moveCut() {
  if (C->activeCuts() >= Opts.MaxCuts)
    return false;
  const NodeSet &U = C->universe();
  if (U.size() < 2)
    return false;
  NodeId From = U[R.nextBelow(U.size())];
  NodeId To = U[R.nextBelow(U.size())];
  if (From == To || C->isLinkCut(From, To))
    return false;
  C->cutLink(From, To);
  record("cut " + nodeName(From) + "->" + nodeName(To));
  SimTime Dur =
      R.nextInRange(Opts.FaultDurationUs / 2, Opts.FaultDurationUs * 3 / 2);
  // If the horizon heal lifted this cut first the callback no-ops; if an
  // identical cut was re-installed meanwhile, healing it early merely
  // shortens that fault, which is harmless.
  C->queue().scheduleAfter(Dur, [this, From, To] {
    if (!C->isLinkCut(From, To))
      return;
    C->healLink(From, To);
    record("heal cut " + nodeName(From) + "->" + nodeName(To));
  });
  return true;
}

bool Nemesis::moveNetStorm() {
  if (StormActive)
    return false;
  sim::LinkOptions Stormy = BaseLink;
  const char *Flavor = "";
  switch (R.nextBelow(3)) {
  case 0:
    Stormy.DupPermille = 200;
    Flavor = "dup";
    break;
  case 1:
    Stormy.ReorderPermille = 300;
    Stormy.ReorderJitterUs = 20000;
    Flavor = "reorder";
    break;
  case 2:
    Stormy.DropPermille = std::max(BaseLink.DropPermille, 100u);
    Stormy.DupPermille = 100;
    Stormy.ReorderPermille = 200;
    Stormy.ReorderJitterUs = 10000;
    Flavor = "lossy-dup-reorder";
    break;
  }
  C->setLinkOptions(Stormy);
  StormActive = true;
  uint64_t Gen = ++StormGen;
  record(std::string("net storm (") + Flavor + ")");
  SimTime Dur =
      R.nextInRange(Opts.FaultDurationUs / 2, Opts.FaultDurationUs * 3 / 2);
  C->queue().scheduleAfter(Dur, [this, Gen] {
    if (Gen != StormGen || !StormActive)
      return;
    StormActive = false;
    C->setLinkOptions(BaseLink);
    record("net storm ends");
  });
  return true;
}

bool Nemesis::moveReconfig() {
  if (!C->scheme().allowsReconfig())
    return false;
  std::vector<Config> Cands =
      C->scheme().candidateReconfigs(C->currentConfig(), C->universe());
  if (Cands.empty())
    return false;
  const Config &Next = R.pick(Cands);
  ++ReconfigsRequested;
  record("reconfig -> " + C->scheme().mbrs(Next).str());
  C->requestReconfig(
      Next,
      [this](bool Ok, SimTime) {
        if (Ok)
          ++ReconfigsCommitted;
      },
      /*MaxTriesUs=*/2000000);
  return true;
}

bool Nemesis::moveKillForever() {
  if (KilledForever.size() >= Opts.MaxForeverKills)
    return false;
  Config Conf = C->currentConfig();
  NodeSet Members = C->scheme().mbrs(Conf);
  std::vector<NodeId> Cands;
  for (NodeId N : Members) {
    if (C->node(N).isCrashed())
      continue;
    // The survivors must retain a quorum of the configuration in force,
    // or no leader could ever certify the healing reconfig — the
    // scenario tests self-healing, not unhealable majority loss.
    NodeSet Alive;
    for (NodeId M : Members)
      if (M != N && !C->node(M).isCrashed())
        Alive.insert(M);
    if (C->scheme().isQuorum(Alive, Conf))
      Cands.push_back(N);
  }
  if (Cands.empty())
    return false;
  NodeId Victim = R.pick(Cands);
  C->crash(Victim);
  // Deliberately NOT in Crashed: the horizon heal restarts Crashed, and
  // these victims stay dead forever. Only reconfiguration heals this.
  KilledForever.insert(Victim);
  record("kill-forever " + nodeName(Victim));
  return true;
}

bool Nemesis::moveClockDrift() {
  const NodeSet &U = C->universe();
  NodeId Victim = U[R.nextBelow(U.size())];
  int64_t Skew =
      static_cast<int64_t>(R.nextInRange(0, 2 * Opts.MaxSkewUs)) -
      static_cast<int64_t>(Opts.MaxSkewUs);
  C->setClockSkew(Victim, Skew);
  record("clock-skew " + nodeName(Victim) + " -> " +
         std::to_string(Skew) + "us");
  return true;
}

void Nemesis::healEverything() {
  // Invalidate every pending auto-heal so none fires on state installed
  // after this point.
  ++PartitionGen;
  ++StormGen;
  if (C->isPartitioned()) {
    C->heal();
    record("horizon: heal partition");
  }
  if (C->activeCuts() != 0) {
    C->healAllLinks();
    record("horizon: heal all cuts");
  }
  StormActive = false;
  C->setLinkOptions(BaseLink);
  // Skews only exist in clock-drift runs, so legacy traces gain no
  // lines here.
  for (NodeId N : C->universe())
    if (C->clockSkew(N) != 0) {
      C->setClockSkew(N, 0);
      record("horizon: clock-skew " + nodeName(N) + " reset");
    }
  std::vector<NodeId> ToRestart(Crashed.begin(), Crashed.end());
  Crashed.clear();
  for (NodeId N : ToRestart) {
    C->restart(N);
    record("horizon: restart " + nodeName(N));
  }
  HealedAll = true;
  record("horizon: all faults healed");
}

void Nemesis::scriptSplitBrain() {
  // Phase 1 (+300ms): the leader goes deaf — every inbound link to it is
  // cut while its outbound heartbeats keep flowing. Followers keep
  // hearing a leader, so nobody elects; the cluster is wedged and client
  // writes time out (Indeterminate).
  C->queue().scheduleAt(StartAt + 300000, [this] {
    std::optional<NodeId> L = C->leader();
    if (!L) {
      record("split-brain: no leader to isolate; script aborted");
      return;
    }
    NodeId Leader = *L;
    for (NodeId N : C->universe())
      if (N != Leader)
        C->cutLink(N, Leader);
    record("split-brain: " + nodeName(Leader) + " deaf (inbound cut)");
    // Phase 2 (+1.2s): cut the outbound direction too. Followers now
    // time out and elect; the stale leader still believes it leads its
    // old term — the classic two-leaders-in-different-terms state the
    // commit rule and the read protocol must tolerate.
    C->queue().scheduleAt(StartAt + 1200000, [this, Leader] {
      for (NodeId N : C->universe())
        if (N != Leader)
          C->cutLink(Leader, N);
      record("split-brain: " + nodeName(Leader) + " fully isolated");
    });
    // Phase 3 (+2.5s): heal. The stale leader hears the higher term and
    // steps down; the horizon heal at HorizonUs is then a no-op.
    C->queue().scheduleAt(StartAt + 2500000, [this, Leader] {
      C->healAllLinks();
      record("split-brain: healed, " + nodeName(Leader) + " rejoins");
    });
  });
}

void Nemesis::scriptCrashMidReconfig() {
  // The Fig. 4-shaped hazard, executable edition: a membership change is
  // requested, the leader crashes before it can settle, and the cluster
  // must recover with no committed entry lost.
  C->queue().scheduleAt(StartAt + 300000, [this] {
    std::optional<NodeId> L = C->leader();
    if (!L) {
      record("crash-mid-reconfig: no leader; script aborted");
      return;
    }
    NodeId Leader = *L;
    std::vector<Config> Cands =
        C->scheme().candidateReconfigs(C->node(Leader).config(),
                                       C->universe());
    if (Cands.empty()) {
      record("crash-mid-reconfig: no candidate reconfigs; script aborted");
      return;
    }
    // Prefer a change that grows the member set (admits a spare), so the
    // later recovery must integrate a fresh replica.
    NodeSet Now = C->scheme().mbrs(C->node(Leader).config());
    const Config *Choice = &Cands.front();
    for (const Config &Cand : Cands)
      if (C->scheme().mbrs(Cand).size() > Now.size()) {
        Choice = &Cand;
        break;
      }
    ++ReconfigsRequested;
    record("crash-mid-reconfig: reconfig -> " +
           C->scheme().mbrs(*Choice).str());
    C->requestReconfig(
        *Choice,
        [this](bool Ok, SimTime) {
          if (Ok)
            ++ReconfigsCommitted;
        },
        /*MaxTriesUs=*/3000000);
    // Crash the leader 60ms later: long enough for the reconfig entry to
    // reach some logs, short enough that it is typically uncommitted.
    C->queue().scheduleAfter(60000, [this, Leader] {
      C->crash(Leader);
      Crashed.insert(Leader);
      record("crash-mid-reconfig: crash " + nodeName(Leader));
    });
    // Restart it 1s after that; the horizon heal would also catch it.
    C->queue().scheduleAfter(1060000, [this, Leader] {
      if (!Crashed.contains(Leader))
        return;
      Crashed.erase(Leader);
      C->restart(Leader);
      record("crash-mid-reconfig: restart " + nodeName(Leader));
    });
  });
}
