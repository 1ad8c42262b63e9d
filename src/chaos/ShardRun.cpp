//===- chaos/ShardRun.cpp - Sharded-pool chaos scenario ---------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The multi-group sibling of ChaosRun.cpp: one metadata group plus N
// data groups on a shared virtual timeline, the client workload routed
// per key through the pool map, per-group nemeses (or the migration
// driver for shard-reconfig), and the cross-shard invariant suite on
// top of the per-key linearizability of the merged history.
//
//===----------------------------------------------------------------------===//

#include "chaos/ChaosRun.h"

#include "chaos/History.h"
#include "chaos/Ledger.h"
#include "chaos/Linearizability.h"
#include "heal/Healer.h"
#include "kv/ShardedKv.h"
#include "sim/ShardedCluster.h"

#include <algorithm>
#include <memory>

using namespace adore;
using namespace adore::chaos;
using adore::shard::GroupId;
using sim::SimTime;

namespace {

/// Full strength for one group: the leader's configuration has at least
/// \p Target members, all alive and holding the leader's commit prefix.
bool groupFullyReplicated(const sim::Cluster &C,
                          const ReconfigScheme &Scheme, NodeId Leader,
                          size_t Target) {
  NodeSet Members = Scheme.mbrs(C.node(Leader).config());
  if (Members.size() < Target)
    return false;
  size_t Commit = C.node(Leader).commitIndex();
  for (NodeId M : Members) {
    const sim::RaftNode &Node = C.node(M);
    if (Node.isCrashed() || Node.logSize() < Commit)
      return false;
  }
  return true;
}

Config currentConfigOf(sim::Cluster &C) {
  if (std::optional<NodeId> L = C.leader())
    return C.node(*L).config();
  for (NodeId N : C.universe()) {
    const sim::RaftNode &Node = C.node(N);
    if (!Node.isCrashed() && !Node.isPassive())
      return Node.config();
  }
  return C.node(C.universe()[0]).config();
}

/// The shard-reconfig nemesis: instead of cutting links or crashing
/// nodes, it migrates groups — pick a data group, pick a legal successor
/// replica set from the scheme's own candidateReconfigs enumeration,
/// commit a pool map recording the move through the metadata group, and
/// only then reconfigure the group itself. One migration in flight at a
/// time, so every proposal targets the committed generation + 1.
class MigrationDriver {
public:
  MigrationDriver(sim::ShardedCluster &Pool, NemesisOptions Opts,
                  uint64_t Seed)
      : Pool(Pool), Opts(Opts), R(Seed) {}

  void start() {
    StartAt = Pool.queue().now();
    record("scenario shard-reconfig (migration driver)");
    scheduleNext();
  }

  std::string traceString() const {
    std::string Out;
    for (const NemesisAction &A : Trace) {
      Out += std::to_string(A.At);
      Out += ' ';
      Out += A.Desc;
      Out += '\n';
    }
    return Out;
  }

  size_t actions() const { return Trace.size(); }
  size_t requested() const { return Requested; }
  size_t committed() const { return Committed; }

private:
  void record(const std::string &Desc) {
    Trace.push_back(NemesisAction{Pool.queue().now(), Desc});
  }

  void scheduleNext() {
    SimTime Gap =
        R.nextInRange(Opts.MeanGapUs, Opts.MeanGapUs * 3);
    Pool.queue().scheduleAfter(Gap, [this] {
      if (Pool.queue().now() >= StartAt + Opts.HorizonUs)
        return;
      step();
      scheduleNext();
    });
  }

  void step() {
    if (InFlight || !Pool.scheme().allowsReconfig())
      return;
    GroupId G = 1 + static_cast<GroupId>(R.nextBelow(Pool.dataGroups()));
    Config Cur = currentConfigOf(Pool.group(G));
    std::vector<Config> Cands =
        Pool.scheme().candidateReconfigs(Cur, Pool.groupUniverse(G));
    if (Cands.empty())
      return;
    Config Next = R.pick(Cands);
    shard::PoolMap M = Pool.committedMap();
    M.Generation += 1;
    M.GroupReplicas[G] = Pool.scheme().mbrs(Next);
    M.Roster = M.Roster.unionWith(M.GroupReplicas[G]);
    InFlight = true;
    ++Requested;
    record("migrate group " + std::to_string(G) + " -> " +
           M.GroupReplicas[G].str() + " (propose gen " +
           std::to_string(M.Generation) + ")");
    Pool.proposeMap(M, [this, G, Next](bool Ok) {
      if (!Ok) {
        record("map proposal for group " + std::to_string(G) + " lost");
        InFlight = false;
        return;
      }
      record("map committed; reconfiguring group " + std::to_string(G));
      Pool.group(G).requestReconfig(
          Next,
          [this, G](bool Ok2, SimTime) {
            record(Ok2 ? "group " + std::to_string(G) +
                             " reconfig committed"
                       : "group " + std::to_string(G) +
                             " reconfig timed out");
            if (Ok2)
              ++Committed;
            InFlight = false;
          },
          /*MaxTriesUs=*/3000000);
    });
  }

  sim::ShardedCluster &Pool;
  NemesisOptions Opts;
  Rng R;
  SimTime StartAt = 0;
  std::vector<NemesisAction> Trace;
  bool InFlight = false;
  size_t Requested = 0;
  size_t Committed = 0;
};

} // namespace

ChaosRunResult
adore::chaos::runShardedChaosScenario(const ChaosRunOptions &Opts,
                                      uint64_t Seed) {
  ChaosRunResult Result;
  Result.Seed = Seed;
  Result.Kind = Opts.Nemesis.Kind;

  // Same stream discipline as the single-group run: master forks
  // cluster / nemesis / workload seeds in the same order.
  Rng Master(Seed);
  uint64_t ClusterSeed = Master.next();
  uint64_t NemesisSeed = Master.next();
  uint64_t WorkloadSeed = Master.next();

  std::unique_ptr<ReconfigScheme> Scheme = makeScheme(Opts.Scheme);
  bool Durable =
      Opts.DurableStore || Opts.Nemesis.Kind == Scenario::DiskFaults;
  Result.DurableStore = Durable;

  sim::ShardedClusterOptions SCO;
  SCO.Group = Opts.Cluster;
  SCO.Group.DurableStore = Durable;
  if (Durable)
    SCO.Group.StoreFaults = Opts.StoreFaults;
  SCO.Groups = static_cast<uint32_t>(std::max<size_t>(1, Opts.Groups));
  SCO.NumShards = Opts.Shards;
  SCO.Members = static_cast<uint32_t>(Opts.Members);
  SCO.Spares = static_cast<uint32_t>(Opts.Spares);
  // Kill-forever: the self-healing scenario (see ChaosRun.cpp); every
  // group runs with suspicion on and a low snapshot lag so replacement
  // spares catch up via InstallSnapshot.
  bool Healing = Opts.Nemesis.Kind == Scenario::KillForever;
  Result.Healing = Healing;
  if (Healing) {
    SCO.Group.Node.EnableSuspicion = true;
    SCO.Group.Node.EnableSnapshotCatchup = true;
    SCO.Group.Node.SnapshotLagEntries = 8;
  }
  sim::ShardedCluster Pool(*Scheme, SCO, ClusterSeed);
  uint32_t Groups = Pool.dataGroups();

  // One first-apply-wins ledger per group, metadata group included.
  std::vector<CommittedLedger> Ledgers(Groups + 1);
  for (GroupId G = 0; G <= Groups; ++G)
    Pool.group(G).addApplyHook(
        [&Ledgers, G](NodeId Node, size_t Index, const sim::SimLogEntry &E) {
          Ledgers[G].observe(Node, Index, E);
        });

  kv::ShardedKvStore Store(Pool);
  Store.setOpTimeout(Opts.Workload.OpTimeoutUs);
  History H;
  Store.setObserver(&H);

  Pool.start();
  if (!Pool.runUntilAllLeaders(5000000))
    Result.Violations.push_back(
        "not every group elected a leader before chaos start");
  SimTime Start = Pool.queue().now();

  // Fault injection. Shard-reconfig runs the migration driver; every
  // other scenario runs one independent per-group nemesis over the data
  // groups (the metadata group stays fault-free so the map service is
  // comparable across scenarios). Seeds are forked in group order either
  // way, so adding groups never perturbs earlier groups' schedules.
  Rng NemMaster(NemesisSeed);
  std::vector<std::unique_ptr<Nemesis>> Nemeses;
  MigrationDriver Driver(Pool, Opts.Nemesis, NemMaster.next());
  if (Opts.Nemesis.Kind == Scenario::ShardReconfig) {
    Driver.start();
  } else {
    for (GroupId G = 1; G <= Groups; ++G)
      Nemeses.push_back(std::make_unique<Nemesis>(
          Pool.group(G), Opts.Nemesis, NemMaster.next()));
    for (auto &N : Nemeses)
      N->start();
  }

  // Self-healing drivers, one Healer per data group (kill-forever only).
  // Each group heals itself with its own spares; whenever a group's live
  // configuration diverges from the committed pool map, the driver also
  // proposes the corrected map through the metadata group's
  // generation-CAS (retried on a later tick if it loses the race), so
  // routing state follows the certified reconfigs.
  std::vector<std::unique_ptr<heal::Healer>> Healers;
  SimTime FirstSuspectAt = 0;
  SimTime FullyReplicatedAt = 0;
  size_t KillsSeen = 0;
  bool MapProposalInFlight = false;
  std::function<void()> HealTick;
  if (Healing) {
    Rng HealMaster(Master.next());
    Healers.resize(Groups + 1);
    for (GroupId G = 1; G <= Groups; ++G) {
      heal::HealerOptions HO;
      HO.Seed = HealMaster.next();
      HO.BaseBackoffUs = 100000;
      HO.MaxBackoffUs = 1600000;
      HO.CooldownUs = 400000;
      Healers[G] = std::make_unique<heal::Healer>(*Scheme, HO);
      heal::Healer *Doc = Healers[G].get();
      sim::Cluster &C = Pool.group(G);
      for (NodeId Id : C.universe())
        C.node(Id).hooks().OnSuspicion =
            [&, Doc](NodeId, NodeId Peer, bool SuspectedNow) {
              if (!SuspectedNow) {
                Doc->observeRecovered(Peer);
                return;
              }
              Doc->observeSuspected(Peer);
              if (!FirstSuspectAt)
                FirstSuspectAt = Pool.queue().now();
            };
    }
    const SimTime HealTickUs = 50000;
    SimTime End = Start + Opts.Nemesis.HorizonUs + Opts.QuiescenceUs;
    HealTick = [&, HealTickUs, End] {
      SimTime Now = Pool.queue().now();
      size_t Kills = 0;
      for (auto &N : Nemeses)
        Kills += N->killedForever().size();
      if (Kills > KillsSeen) {
        KillsSeen = Kills;
        FullyReplicatedAt = 0;
      }
      bool AllFull = KillsSeen != 0;
      for (GroupId G = 1; G <= Groups; ++G) {
        sim::Cluster &C = Pool.group(G);
        std::optional<NodeId> L = C.leader();
        if (!L) {
          AllFull = false;
          continue;
        }
        if (!groupFullyReplicated(C, *Scheme, *L, Opts.Members))
          AllFull = false;
        heal::Healer *Doc = Healers[G].get();
        if (std::optional<Config> P =
                Doc->tick(Now, C.node(*L).config(), C.universe(), *L))
          C.requestReconfig(
              *P,
              [&, Doc](bool Ok, SimTime) {
                Doc->onReconfigResult(Ok, Pool.queue().now());
              },
              /*MaxTriesUs=*/1500000);
        if (!MapProposalInFlight && !Doc->inFlight()) {
          NodeSet Live = Scheme->mbrs(C.node(*L).config());
          shard::PoolMap M = Pool.committedMap();
          if (G < M.GroupReplicas.size() &&
              !(M.GroupReplicas[G] == Live)) {
            MapProposalInFlight = true;
            Pool.proposeMap(heal::withGroupReplicas(M, G, Live),
                            [&](bool) { MapProposalInFlight = false; });
          }
        }
      }
      if (AllFull && FullyReplicatedAt == 0)
        FullyReplicatedAt = Now;
      if (Now + HealTickUs < End)
        Pool.queue().scheduleAfter(HealTickUs, HealTick);
    };
    Pool.queue().scheduleAfter(HealTickUs, HealTick);
  }

  // The workload, scheduled up front exactly like the single-group run;
  // routing happens per key at invocation time.
  Rng W(WorkloadSeed);
  uint32_t NextVal = 1;
  const ChaosWorkloadOptions &WL = Opts.Workload;
  for (size_t I = 0; I != WL.NumOps; ++I) {
    SimTime At = Start + W.nextBelow(Opts.Nemesis.HorizonUs);
    uint32_t Key = static_cast<uint32_t>(W.nextBelow(WL.NumKeys));
    unsigned Draw = static_cast<unsigned>(W.nextBelow(1000));
    uint32_t Val = NextVal++;
    Pool.queue().scheduleAt(At, [&Store, &WL, Key, Draw, Val] {
      if (Draw < WL.GetPermille)
        Store.get(Key, [](bool, std::optional<uint32_t>, SimTime) {});
      else if (Draw < WL.GetPermille + WL.DelPermille)
        Store.del(Key, [](bool, SimTime) {});
      else
        Store.put(Key, Val, [](bool, SimTime) {});
    });
  }

  Pool.queue().runUntil(Start + Opts.Nemesis.HorizonUs + Opts.QuiescenceUs);
  H.finalize(Pool.queue().now());

  // Statistics: workload outcomes from the merged history, network and
  // nemesis counters summed across groups, plus the per-group breakdown.
  Result.OpsTotal = H.size();
  Result.OpsOk = H.countWithOutcome(Outcome::Ok);
  Result.OpsFailed = H.countWithOutcome(Outcome::Fail);
  Result.OpsIndeterminate = H.countWithOutcome(Outcome::Indeterminate);
  Result.ClampedPastSchedules = Pool.queue().stats().ClampedPastSchedules;
  std::string Traces;
  bool HealedAll = true;
  for (GroupId G = 0; G <= Groups; ++G) {
    sim::Cluster &C = Pool.group(G);
    Result.MessagesSent += C.messagesSent();
    Result.DroppedByCut += C.messagesDroppedByCut();
    Result.DroppedByLoss += C.messagesDroppedByLoss();
    Result.Duplicated += C.messagesDuplicated();
    ChaosRunResult::GroupStatsEntry GS;
    GS.Group = G;
    GS.CommittedEntries = Ledgers[G].Entries.size();
    for (const ClientOp &Op : H.ops())
      GS.Ops += Op.HasPlacement && Op.Group == G;
    Result.GroupStats.push_back(GS);
    Result.CommittedEntries += Ledgers[G].Entries.size();
    if (Durable)
      Result.Store.accumulate(C.storeStats());
  }
  if (Opts.Nemesis.Kind == Scenario::ShardReconfig) {
    Result.NemesisActions = Driver.actions();
    Result.ReconfigsRequested = Driver.requested();
    Result.ReconfigsCommitted = Driver.committed();
    Traces = Driver.traceString();
  } else {
    for (size_t I = 0; I != Nemeses.size(); ++I) {
      Result.NemesisActions += Nemeses[I]->trace().size();
      Result.ReconfigsRequested += Nemeses[I]->reconfigsRequested();
      Result.ReconfigsCommitted += Nemeses[I]->reconfigsCommitted();
      HealedAll = HealedAll && Nemeses[I]->healedAll();
      Traces += "group " + std::to_string(I + 1) + ":\n" +
                Nemeses[I]->traceString();
    }
  }
  Result.HealedAll = HealedAll;
  Result.NemesisTrace = Traces;
  Result.HistoryText = H.str();
  Result.MapGeneration = Pool.committedMap().Generation;
  Result.MapChangesCommitted = Pool.mapChangesCommitted();
  Result.WrongGroupNacks = Store.routeStats().WrongGroupNacks;
  Result.MapRefreshes = Store.routeStats().MapRefreshes;

  if (Healing) {
    // Sample once more at end-of-run: the last catch-up may have
    // completed after the final 50ms tick.
    if (FullyReplicatedAt == 0 && KillsSeen != 0) {
      bool AllFull = true;
      for (GroupId G = 1; G <= Groups; ++G) {
        std::optional<NodeId> L = Pool.group(G).leader();
        if (!L || !groupFullyReplicated(Pool.group(G), *Scheme, *L,
                                        Opts.Members))
          AllFull = false;
      }
      if (AllFull)
        FullyReplicatedAt = Pool.queue().now();
    }
    SimTime FirstKillAt = 0;
    SimTime FinalKillAt = 0;
    for (const auto &N : Nemeses)
      for (const NemesisAction &A : N->trace())
        if (A.Desc.rfind("kill-forever", 0) == 0) {
          if (!FirstKillAt || A.At < FirstKillAt)
            FirstKillAt = A.At;
          if (A.At > FinalKillAt)
            FinalKillAt = A.At;
        }
    for (const auto &N : Nemeses)
      Result.PermanentKills += N->killedForever().size();
    for (GroupId G = 1; G <= Groups; ++G) {
      Result.HealReconfigsCommitted += Healers[G]->heals();
      Result.HealReconfigRetries += Healers[G]->retries();
      for (NodeId Id : Pool.group(G).universe()) {
        const core::RaftCore &Core = Pool.group(G).node(Id).core();
        Result.SnapshotBytesTransferred += Core.snapshotBytesReceived();
        Result.SnapshotsInstalled += Core.snapshotsInstalled();
      }
    }
    if (FirstKillAt && FirstSuspectAt > FirstKillAt)
      Result.TimeToDetectUs = FirstSuspectAt - FirstKillAt;
    if (FullyReplicatedAt > FinalKillAt)
      Result.TimeToFullReplicationUs = FullyReplicatedAt - FinalKillAt;
  }

  // Invariants, per group first.
  if (!HealedAll)
    Result.Violations.push_back("nemesis did not heal all faults");
  if (Healing && KillsSeen != 0) {
    if (FullyReplicatedAt == 0)
      Result.Violations.push_back(
          "self-healing: some group never returned to full replication "
          "after " +
          std::to_string(KillsSeen) + " permanent kills");
    for (GroupId G = 1; G <= Groups; ++G) {
      std::optional<NodeId> L = Pool.group(G).leader();
      if (!L)
        continue; // Flagged as "no leader" by the per-group walk below.
      NodeSet Final = Scheme->mbrs(Pool.group(G).node(*L).config());
      for (NodeId Dead : Nemeses[G - 1]->killedForever())
        if (Final.contains(Dead))
          Result.Violations.push_back(
              "self-healing: group " + std::to_string(G) +
              " still lists permanently killed S" + std::to_string(Dead) +
              " in its final configuration");
      const shard::PoolMap &M = Pool.committedMap();
      if (G < M.GroupReplicas.size() && !(M.GroupReplicas[G] == Final))
        Result.Violations.push_back(
            "self-healing: committed pool map for group " +
            std::to_string(G) + " (" + M.GroupReplicas[G].str() +
            ") does not match its healed configuration " + Final.str());
    }
  }
  for (GroupId G = 0; G <= Groups; ++G) {
    sim::Cluster &C = Pool.group(G);
    std::string Tag = "group " + std::to_string(G) + ": ";
    for (const std::string &V : C.storeViolations())
      Result.Violations.push_back(Tag + "durable store: " + V);
    if (Ledgers[G].Violation)
      Result.Violations.push_back(Tag + *Ledgers[G].Violation);
    if (std::optional<std::string> V = C.checkLeaderUniqueness())
      Result.Violations.push_back(Tag + "election safety: " + *V);
    if (std::optional<std::string> V = C.checkCommittedAgreement())
      Result.Violations.push_back(Tag + "committed agreement: " + *V);

    // Durability across map changes: after heal and quiescence every
    // member of the group's final configuration must hold the group's
    // full committed prefix. For a migrated group the final members are
    // exactly the new replica set, so this is the "no committed entry
    // lost across a map change" obligation.
    std::optional<NodeId> FinalLeader = C.leader();
    if (!FinalLeader) {
      Result.Violations.push_back(Tag +
                                  "no leader after heal + quiescence:\n" +
                                  C.dump());
      continue;
    }
    NodeSet FinalMembers = Scheme->mbrs(C.node(*FinalLeader).config());
    std::optional<NodeId> First;
    for (NodeId M : FinalMembers) {
      const sim::RaftNode &Node = C.node(M);
      if (Node.isCrashed()) {
        Result.Violations.push_back(Tag + "S" + std::to_string(M) +
                                    " still crashed after heal");
        continue;
      }
      if (Node.commitIndex() < Ledgers[G].Entries.size()) {
        Result.Violations.push_back(
            Tag + "durability: S" + std::to_string(M) + " commit index " +
            std::to_string(Node.commitIndex()) + " < committed ledger " +
            std::to_string(Ledgers[G].Entries.size()));
        continue;
      }
      if (G == shard::MetaGroupId)
        continue; // No KV state to compare in the metadata group.
      if (!First) {
        First = M;
      } else if (!(Store.groupStore(G).replica(M) ==
                   Store.groupStore(G).replica(*First))) {
        Result.Violations.push_back(Tag + "convergence: KV state of S" +
                                    std::to_string(M) + " differs from S" +
                                    std::to_string(*First));
      }
    }
  }
  if (!Store.replicasAgree())
    Result.Violations.push_back("replicas with equal applied counts "
                                "disagree on KV state");

  // Pool-map invariants: generation monotonicity at every observer, and
  // the committed generation accounting for every installed change.
  for (const std::string &V : Pool.mapViolations())
    Result.Violations.push_back("pool map: " + V);
  if (Result.MapGeneration != 1 + Result.MapChangesCommitted)
    Result.Violations.push_back(
        "pool map: committed generation " +
        std::to_string(Result.MapGeneration) + " != 1 + " +
        std::to_string(Result.MapChangesCommitted) + " installed changes");

  // Cross-shard linearizability last (per key as before; keys never
  // span groups, so the merged history factors per key).
  LinearizabilityResult Lin = checkLinearizability(H);
  Result.LinStatesExplored = Lin.StatesExplored;
  if (!Lin.Ok)
    Result.Violations.push_back("linearizability: " + Lin.Explanation);

  return Result;
}
