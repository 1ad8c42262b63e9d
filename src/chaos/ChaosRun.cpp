//===- chaos/ChaosRun.cpp - One chaos scenario end to end -------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "chaos/ChaosRun.h"

#include "chaos/History.h"
#include "chaos/Ledger.h"
#include "chaos/Linearizability.h"
#include "heal/Healer.h"
#include "kv/KvStore.h"
#include "kv/ShardedKv.h"
#include "read/ReadPath.h"
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
bool fullyReplicated(const sim::Cluster &C, const ReconfigScheme &Scheme,
                     NodeId Leader, size_t Target) {
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

  const std::vector<NemesisAction> &trace() const { return Trace; }
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
    sim::Cluster &C = Pool.group(G);
    std::vector<Config> Cands =
        Pool.scheme().candidateReconfigs(C.currentConfig(), C.universe());
    if (Cands.empty())
      return;
    Config Next = R.pick(Cands);
    shard::PoolMap M = heal::withGroupReplicas(Pool.committedMap(), G,
                                               Pool.scheme().mbrs(Next));
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

/// Independent seed streams of one run. One master seed forks cluster /
/// nemesis / workload / healer seeds in that order, so e.g. changing the
/// workload mix never perturbs the nemesis schedule. A single group uses
/// the nemesis and healer streams directly; a pool forks them per data
/// group (the migration driver's draw first), so adding groups never
/// perturbs earlier groups' schedules.
struct RunSeeds {
  uint64_t Cluster = 0;
  uint64_t Workload = 0;
  uint64_t Migration = 0;
  std::vector<uint64_t> Nemesis;
  std::vector<uint64_t> Healer;
};

RunSeeds deriveSeeds(uint64_t Seed, bool IsPool, size_t DataGroups) {
  Rng Master(Seed);
  RunSeeds S;
  S.Cluster = Master.next();
  uint64_t NemesisSeed = Master.next();
  S.Workload = Master.next();
  uint64_t HealSeed = Master.next();
  Rng NemMaster(NemesisSeed);
  Rng HealMaster(HealSeed);
  if (IsPool)
    S.Migration = NemMaster.next();
  for (size_t I = 0; I != DataGroups; ++I) {
    S.Nemesis.push_back(IsPool ? NemMaster.next() : NemesisSeed);
    S.Healer.push_back(IsPool ? HealMaster.next() : HealSeed);
  }
  return S;
}

/// One consensus group under test: the single cluster, or one group of
/// the pool (the metadata group included, with no KV store and no
/// nemesis).
struct GroupRun {
  sim::Cluster *C = nullptr;
  /// Prefix of this group's violations ("" for a single group).
  std::string Tag;
  kv::ReplicatedKvStore *Kv = nullptr;
  CommittedLedger Ledger;
  std::unique_ptr<Nemesis> N;
  std::unique_ptr<heal::Healer> Doc;
};

} // namespace

ChaosRunResult adore::chaos::runChaosScenario(const ChaosRunOptions &Opts,
                                              uint64_t Seed) {
  ChaosRunResult Result;
  Result.Seed = Seed;
  Result.Kind = Opts.Nemesis.Kind;

  // Multi-group runs, and the migration scenario (which needs a metadata
  // group even over one data group), run a pool: a metadata group
  // replicating the pool map plus the data groups, with the workload
  // routed per key. Everything else is one group with no pool.
  bool IsPool = Opts.Groups > 1 || Opts.Nemesis.Kind == Scenario::ShardReconfig;
  size_t DataGroups = IsPool ? std::max<size_t>(1, Opts.Groups) : 1;
  RunSeeds Seeds = deriveSeeds(Seed, IsPool, DataGroups);

  std::unique_ptr<ReconfigScheme> Scheme = makeScheme(Opts.Scheme);
  // The disk-faults scenario is meaningless without the store, so it
  // forces durable mode; any other scenario can opt in via the flag.
  bool Durable =
      Opts.DurableStore || Opts.Nemesis.Kind == Scenario::DiskFaults;
  sim::ClusterOptions CO = Opts.Cluster;
  CO.DurableStore = Durable;
  if (Durable)
    CO.StoreFaults = Opts.StoreFaults;
  Result.DurableStore = Durable;
  // Kill-forever is the self-healing scenario: victims never restart, so
  // the whole detection -> auto-reconfig -> snapshot-catch-up pipeline
  // must be live. A low snapshot lag makes replacement spares catch up
  // via InstallSnapshot rather than plain appends.
  bool Healing = Opts.Nemesis.Kind == Scenario::KillForever;
  Result.Healing = Healing;
  if (Healing) {
    CO.Node.EnableSnapshotCatchup = true;
    CO.Node.SnapshotLagEntries = 8;
  }
  // Clock-drift is the lease scenario: the nodes grant leases and the
  // nemesis wanders per-node clock skews. The parameters keep lease
  // safety provable against the nemesis bound: effective lease =
  // 100ms * (1 - 2*10%) = 80ms, and 80ms + 2*MaxSkewUs(20ms each way)
  // stays under the 150ms minimum election timeout.
  if (Opts.Nemesis.Kind == Scenario::ClockDrift)
    read::applyTier({.Tier = read::ReadTier::FollowerLease,
                     .LeaseDurationUs = 100000,
                     .MaxDriftPpm = 100000},
                    CO.Node);

  // Construction: the groups under test are the one cluster, or the
  // metadata group (index 0) plus the data groups of a pool, all on one
  // timeline.
  std::unique_ptr<sim::Cluster> Single;
  std::unique_ptr<sim::ShardedCluster> Pool;
  std::vector<GroupRun> Groups(IsPool ? DataGroups + 1 : 1);
  size_t FirstData = IsPool ? 1 : 0;
  if (IsPool) {
    sim::ShardedClusterOptions SCO;
    SCO.Group = CO;
    SCO.Groups = static_cast<uint32_t>(DataGroups);
    SCO.NumShards = Opts.Shards;
    SCO.Members = static_cast<uint32_t>(Opts.Members);
    SCO.Spares = static_cast<uint32_t>(Opts.Spares);
    Pool = std::make_unique<sim::ShardedCluster>(*Scheme, SCO, Seeds.Cluster);
    for (GroupId G = 0; G != Groups.size(); ++G) {
      Groups[G].C = &Pool->group(G);
      Groups[G].Tag = "group " + std::to_string(G) + ": ";
    }
  } else {
    Single = std::make_unique<sim::Cluster>(
        *Scheme, Config(NodeSet::range(1, Opts.Members)),
        NodeSet::range(1, Opts.Members + Opts.Spares), CO, Seeds.Cluster);
    Groups[0].C = Single.get();
  }
  sim::EventQueue &Q = Groups[0].C->queue();

  // One first-apply-wins ledger per group, metadata group included.
  for (GroupRun &GR : Groups)
    GR.C->addApplyHook(
        [&GR](NodeId Node, size_t Index, const sim::SimLogEntry &E) {
          GR.Ledger.observe(Node, Index, E);
        });

  // The KV front end: a group store, or the routed pool store.
  History H;
  std::unique_ptr<kv::ReplicatedKvStore> SingleKv;
  std::unique_ptr<kv::ShardedKvStore> PoolKv;
  const ChaosWorkloadOptions &WL = Opts.Workload;
  if (IsPool) {
    PoolKv = std::make_unique<kv::ShardedKvStore>(*Pool);
    PoolKv->setOpTimeout(WL.OpTimeoutUs);
    PoolKv->setObserver(&H);
    for (GroupId G = 1; G != Groups.size(); ++G)
      Groups[G].Kv = &PoolKv->groupStore(G);
  } else {
    SingleKv = std::make_unique<kv::ReplicatedKvStore>(*Single);
    SingleKv->setObserver(&H);
    Groups[0].Kv = SingleKv.get();
  }

  // Issues one workload op. Gets go through the core's read path: a
  // single group alternates leader- and follower-side reads, and a pool
  // starts every read at a follower (one the group cannot prove safe is
  // re-sent pinned to the leader). The observer records each as a Get,
  // so the Wing & Gong check covers the read path end to end.
  auto Ignore = [](bool, SimTime) {};
  auto CountRead = [&Result](bool Ok, std::optional<uint32_t>, SimTime) {
    ++(Ok ? Result.ReadsOk : Result.ReadsFailed);
  };
  auto Issue = [&](uint32_t Key, unsigned Draw, uint32_t Val) {
    if (Draw < WL.GetPermille) {
      bool AtFollower = PoolKv || (Draw % 2) == 0;
      ++Result.ReadsIssued;
      Result.ReadsAtFollower += AtFollower;
      if (PoolKv)
        PoolKv->get(Key, CountRead);
      else
        SingleKv->get(Key, CountRead, AtFollower, WL.OpTimeoutUs);
    } else if (Draw < WL.GetPermille + WL.DelPermille) {
      if (PoolKv)
        PoolKv->del(Key, Ignore);
      else
        SingleKv->del(Key, Ignore, WL.OpTimeoutUs);
    } else if (PoolKv) {
      PoolKv->put(Key, Val, Ignore);
    } else {
      SingleKv->put(Key, Val, Ignore, WL.OpTimeoutUs);
    }
  };

  for (GroupRun &GR : Groups)
    GR.C->start();
  if (Pool ? !Pool->runUntilAllLeaders(5000000)
           : !Single->runUntilLeader(5000000))
    Result.Violations.push_back(
        "not every group elected a leader before chaos start");
  SimTime Start = Q.now();
  SimTime End = Start + Opts.Nemesis.HorizonUs + Opts.QuiescenceUs;

  // Fault injection. Shard-reconfig runs the migration driver; every
  // other scenario runs one independent nemesis per data group (a
  // pool's metadata group stays fault-free so the map service is
  // comparable across scenarios).
  std::optional<MigrationDriver> Driver;
  if (Opts.Nemesis.Kind == Scenario::ShardReconfig) {
    Driver.emplace(*Pool, Opts.Nemesis, Seeds.Migration);
    Driver->start();
  } else {
    for (size_t G = FirstData; G != Groups.size(); ++G) {
      Groups[G].N = std::make_unique<Nemesis>(*Groups[G].C, Opts.Nemesis,
                                              Seeds.Nemesis[G - FirstData]);
      Groups[G].N->start();
    }
  }

  // Self-healing drivers, one Healer per data group (kill-forever only).
  // Suspicion observations from whichever node currently leads feed the
  // group's Healer, and a periodic tick turns its proposals into
  // client-path reconfiguration requests. In a pool, whenever a group's
  // live configuration diverges from the committed pool map, the tick
  // also proposes the corrected map through the metadata group's
  // generation-CAS (retried on a later tick if it loses the race), so
  // routing state follows the certified reconfigs. The clocks feed the
  // time-to-detect / time-to-full-replication metrics; the replication
  // clock restarts whenever another victim drops.
  SimTime FirstSuspectAt = 0;
  SimTime FullyReplicatedAt = 0;
  size_t KillsSeen = 0;
  bool MapProposalInFlight = false;
  std::function<void()> HealTick;
  // Samples the replication clock: stamp the first moment after a kill
  // at which every data group is back at full strength.
  auto SampleFullReplication = [&] {
    if (FullyReplicatedAt != 0 || KillsSeen == 0)
      return;
    for (size_t G = FirstData; G != Groups.size(); ++G) {
      std::optional<NodeId> L = Groups[G].C->leader();
      if (!L || !fullyReplicated(*Groups[G].C, *Scheme, *L, Opts.Members))
        return;
    }
    FullyReplicatedAt = Q.now();
  };
  if (Healing) {
    for (size_t G = FirstData; G != Groups.size(); ++G) {
      heal::HealerOptions HO;
      HO.Seed = Seeds.Healer[G - FirstData];
      HO.BaseBackoffUs = 100000;
      HO.MaxBackoffUs = 1600000;
      HO.CooldownUs = 400000;
      Groups[G].Doc = std::make_unique<heal::Healer>(*Scheme, HO);
      heal::Healer *Doc = Groups[G].Doc.get();
      sim::Cluster &C = *Groups[G].C;
      for (NodeId Id : C.universe())
        C.node(Id).hooks().OnSuspicion =
            [&, Doc](NodeId, NodeId Peer, bool SuspectedNow) {
              if (!SuspectedNow) {
                Doc->observeRecovered(Peer);
                return;
              }
              Doc->observeSuspected(Peer);
              if (!FirstSuspectAt)
                FirstSuspectAt = Q.now();
            };
    }
    const SimTime HealTickUs = 50000;
    HealTick = [&, HealTickUs] {
      SimTime Now = Q.now();
      size_t Kills = 0;
      for (size_t G = FirstData; G != Groups.size(); ++G)
        Kills += Groups[G].N->killedForever().size();
      if (Kills > KillsSeen) {
        KillsSeen = Kills;
        FullyReplicatedAt = 0;
      }
      SampleFullReplication();
      for (size_t G = FirstData; G != Groups.size(); ++G) {
        sim::Cluster &C = *Groups[G].C;
        std::optional<NodeId> L = C.leader();
        if (!L)
          continue;
        heal::Healer *Doc = Groups[G].Doc.get();
        if (std::optional<Config> P =
                Doc->tick(Now, C.node(*L).config(), C.universe(), *L))
          C.requestReconfig(
              *P,
              [&, Doc](bool Ok, SimTime) {
                Doc->onReconfigResult(Ok, Q.now());
              },
              /*MaxTriesUs=*/1500000);
        if (Pool && !MapProposalInFlight && !Doc->inFlight()) {
          NodeSet Live = Scheme->mbrs(C.node(*L).config());
          shard::PoolMap M = Pool->committedMap();
          if (G < M.GroupReplicas.size() && !(M.GroupReplicas[G] == Live)) {
            MapProposalInFlight = true;
            Pool->proposeMap(
                heal::withGroupReplicas(M, static_cast<GroupId>(G), Live),
                [&](bool) { MapProposalInFlight = false; });
          }
        }
      }
      if (Now + HealTickUs < End)
        Q.scheduleAfter(HealTickUs, HealTick);
    };
    Q.scheduleAfter(HealTickUs, HealTick);
  }

  // Schedule the whole workload up front (invocation times and op mix
  // are drawn now; effects happen in virtual time, and a pool routes
  // each op per key at invocation). Every put writes a globally unique
  // value, which is what makes per-key register linearizability
  // checking discriminating.
  Rng W(Seeds.Workload);
  uint32_t NextVal = 1;
  for (size_t I = 0; I != WL.NumOps; ++I) {
    SimTime At = Start + W.nextBelow(Opts.Nemesis.HorizonUs);
    uint32_t Key = static_cast<uint32_t>(W.nextBelow(WL.NumKeys));
    unsigned Draw = static_cast<unsigned>(W.nextBelow(1000));
    uint32_t Val = NextVal++;
    Q.scheduleAt(At, [&Issue, Key, Draw, Val] { Issue(Key, Draw, Val); });
  }

  // Active window, then the fault-free quiescence tail. The queue never
  // drains (heartbeats), so the run is time-bounded.
  Q.runUntil(End);
  H.finalize(Q.now());

  // Statistics: workload outcomes from the (merged) history, network,
  // ledger and store counters summed across groups, plus a pool's
  // per-group breakdown.
  Result.OpsTotal = H.size();
  Result.OpsOk = H.countWithOutcome(Outcome::Ok);
  Result.OpsFailed = H.countWithOutcome(Outcome::Fail);
  Result.OpsIndeterminate = H.countWithOutcome(Outcome::Indeterminate);
  Result.ClampedPastSchedules = Q.stats().ClampedPastSchedules;
  Result.HealedAll = true;
  SimTime FirstKillAt = 0;
  SimTime FinalKillAt = 0;
  for (GroupId G = 0; G != Groups.size(); ++G) {
    const GroupRun &GR = Groups[G];
    Result.MessagesSent += GR.C->messagesSent();
    Result.DroppedByCut += GR.C->messagesDroppedByCut();
    Result.DroppedByLoss += GR.C->messagesDroppedByLoss();
    Result.Duplicated += GR.C->messagesDuplicated();
    Result.CommittedEntries += GR.Ledger.Entries.size();
    if (Durable)
      Result.Store.accumulate(GR.C->storeStats());
    if (const Nemesis *N = GR.N.get()) {
      Result.NemesisActions += N->trace().size();
      Result.ReconfigsRequested += N->reconfigsRequested();
      Result.ReconfigsCommitted += N->reconfigsCommitted();
      Result.HealedAll = Result.HealedAll && N->healedAll();
      if (Pool)
        Result.NemesisTrace += "group " + std::to_string(G) + ":\n";
      Result.NemesisTrace += N->traceString();
    }
    if (const heal::Healer *Doc = GR.Doc.get()) {
      for (const NemesisAction &A : GR.N->trace())
        if (A.Desc.rfind("kill-forever", 0) == 0) {
          if (!FirstKillAt || A.At < FirstKillAt)
            FirstKillAt = A.At;
          if (A.At > FinalKillAt)
            FinalKillAt = A.At;
        }
      Result.PermanentKills += GR.N->killedForever().size();
      Result.HealReconfigsCommitted += Doc->heals();
      Result.HealReconfigRetries += Doc->retries();
      for (NodeId Id : GR.C->universe()) {
        const core::RaftCore &Core = GR.C->node(Id).core();
        Result.SnapshotBytesTransferred += Core.snapshotBytesReceived();
        Result.SnapshotsInstalled += Core.snapshotsInstalled();
      }
    }
    if (!Pool)
      continue;
    ChaosRunResult::GroupStatsEntry GS;
    GS.Group = G;
    GS.CommittedEntries = GR.Ledger.Entries.size();
    for (const ClientOp &Op : H.ops())
      GS.Ops += Op.HasPlacement && Op.Group == G;
    Result.GroupStats.push_back(GS);
  }
  if (Driver) {
    Result.NemesisActions = Driver->trace().size();
    Result.ReconfigsRequested = Driver->requested();
    Result.ReconfigsCommitted = Driver->committed();
    Result.NemesisTrace = formatTrace(Driver->trace());
  }
  Result.HistoryText = H.str();
  if (Pool) {
    Result.MapGeneration = Pool->committedMap().Generation;
    Result.MapChangesCommitted = Pool->mapChangesCommitted();
    Result.WrongGroupNacks = PoolKv->routeStats().WrongGroupNacks;
    Result.MapRefreshes = PoolKv->routeStats().MapRefreshes;
  }

  if (Healing) {
    // The tick only samples every 50ms; catch a catch-up that completed
    // between the last tick and the end of the run.
    SampleFullReplication();
    if (FirstKillAt && FirstSuspectAt > FirstKillAt)
      Result.TimeToDetectUs = FirstSuspectAt - FirstKillAt;
    if (FullyReplicatedAt > FinalKillAt)
      Result.TimeToFullReplicationUs = FullyReplicatedAt - FinalKillAt;
  }

  // Invariants.
  if (!Result.HealedAll)
    Result.Violations.push_back("nemesis did not heal all faults");
  if (Healing && KillsSeen != 0) {
    // The point of the scenario: only reconfiguration can restore the
    // replication factor, and it must have by the end of quiescence.
    if (FullyReplicatedAt == 0)
      Result.Violations.push_back(
          "self-healing: cluster never returned to full replication after " +
          std::to_string(KillsSeen) + " permanent kills");
    for (size_t G = FirstData; G != Groups.size(); ++G) {
      const GroupRun &GR = Groups[G];
      std::optional<NodeId> L = GR.C->leader();
      if (!L)
        continue; // Flagged as "no leader" by the per-group walk below.
      NodeSet Final = Scheme->mbrs(GR.C->node(*L).config());
      for (NodeId Dead : GR.N->killedForever())
        if (Final.contains(Dead))
          Result.Violations.push_back(
              GR.Tag + "self-healing: permanently killed S" +
              std::to_string(Dead) +
              " is still a member of the final configuration");
      if (!Pool)
        continue;
      const shard::PoolMap &M = Pool->committedMap();
      if (G < M.GroupReplicas.size() && !(M.GroupReplicas[G] == Final))
        Result.Violations.push_back(
            GR.Tag + "self-healing: committed pool map (" +
            M.GroupReplicas[G].str() +
            ") does not match the healed configuration " + Final.str());
    }
  }
  bool ReplicasAgree = true;
  for (const GroupRun &GR : Groups) {
    sim::Cluster &C = *GR.C;
    // Store-backed recovery cross-checks: every restart's recovered
    // term/vote/log must equal the idealized in-memory copy (only
    // deferred commit records may be lost), and no directory may be
    // unrecoverable.
    for (const std::string &V : C.storeViolations())
      Result.Violations.push_back(GR.Tag + "durable store: " + V);
    if (GR.Ledger.Violation)
      Result.Violations.push_back(GR.Tag + *GR.Ledger.Violation);
    if (std::optional<std::string> V = C.checkLeaderUniqueness())
      Result.Violations.push_back(GR.Tag + "election safety: " + *V);
    if (std::optional<std::string> V = C.checkCommittedAgreement())
      Result.Violations.push_back(GR.Tag + "committed agreement: " + *V);
    if (GR.Kv && !GR.Kv->replicasAgree())
      ReplicasAgree = false;

    // Durability + convergence: after heal and quiescence, some node
    // leads and every member of its configuration holds the full
    // committed prefix (nothing committed was lost to any crash,
    // restart, reconfig or map change — for a migrated group the final
    // members are exactly the new replica set) with identical KV state.
    std::optional<NodeId> FinalLeader = C.leader();
    if (!FinalLeader) {
      Result.Violations.push_back(
          GR.Tag + "no leader after heal + quiescence:\n" + C.dump());
      continue;
    }
    NodeSet FinalMembers = Scheme->mbrs(C.node(*FinalLeader).config());
    std::optional<NodeId> First;
    for (NodeId M : FinalMembers) {
      const sim::RaftNode &Node = C.node(M);
      if (Node.isCrashed()) {
        Result.Violations.push_back(GR.Tag + "S" + std::to_string(M) +
                                    " still crashed after heal");
        continue;
      }
      if (Node.commitIndex() < GR.Ledger.Entries.size()) {
        Result.Violations.push_back(
            GR.Tag + "durability: S" + std::to_string(M) + " commit index " +
            std::to_string(Node.commitIndex()) + " < committed ledger " +
            std::to_string(GR.Ledger.Entries.size()));
        continue;
      }
      if (!GR.Kv)
        continue; // No KV state to compare in the metadata group.
      if (!First) {
        First = M;
      } else if (!(GR.Kv->replica(M) == GR.Kv->replica(*First))) {
        Result.Violations.push_back(GR.Tag + "convergence: KV state of S" +
                                    std::to_string(M) + " differs from S" +
                                    std::to_string(*First));
      }
    }
  }
  if (!ReplicasAgree)
    Result.Violations.push_back("replicas with equal applied counts "
                                "disagree on KV state");

  // Pool-map invariants: generation monotonicity at every observer, and
  // the committed generation accounting for every installed change.
  if (Pool) {
    for (const std::string &V : Pool->mapViolations())
      Result.Violations.push_back("pool map: " + V);
    if (Result.MapGeneration != 1 + Result.MapChangesCommitted)
      Result.Violations.push_back(
          "pool map: committed generation " +
          std::to_string(Result.MapGeneration) + " != 1 + " +
          std::to_string(Result.MapChangesCommitted) + " installed changes");
  }

  // The history check runs last so its (potentially long) explanation
  // lands after the cheap invariant reports. Keys never span groups, so
  // a pool's merged history factors per key too.
  LinearizabilityResult Lin = checkLinearizability(H);
  Result.LinStatesExplored = Lin.StatesExplored;
  if (!Lin.Ok)
    Result.Violations.push_back("linearizability: " + Lin.Explanation);

  return Result;
}

void ChaosRunResult::addToJson(JsonWriter &W) const {
  W.beginObject();
  W.key("seed").value(uint64_t(Seed));
  W.key("scenario").value(scenarioName(Kind));
  W.key("passed").value(passed());
  W.key("ops").beginObject();
  W.key("total").value(uint64_t(OpsTotal));
  W.key("ok").value(uint64_t(OpsOk));
  W.key("fail").value(uint64_t(OpsFailed));
  W.key("indeterminate").value(uint64_t(OpsIndeterminate));
  W.endObject();
  W.key("net").beginObject();
  W.key("sent").value(uint64_t(MessagesSent));
  W.key("dropped_by_cut").value(uint64_t(DroppedByCut));
  W.key("dropped_by_loss").value(uint64_t(DroppedByLoss));
  W.key("duplicated").value(uint64_t(Duplicated));
  W.endObject();
  W.key("nemesis").beginObject();
  W.key("actions").value(uint64_t(NemesisActions));
  W.key("reconfigs_requested").value(uint64_t(ReconfigsRequested));
  W.key("reconfigs_committed").value(uint64_t(ReconfigsCommitted));
  W.key("healed_all").value(HealedAll);
  W.endObject();
  if (Healing) {
    W.key("healing").beginObject();
    W.key("permanent_kills").value(uint64_t(PermanentKills));
    W.key("time_to_detect_us").value(TimeToDetectUs);
    W.key("time_to_full_replication_us").value(TimeToFullReplicationUs);
    W.key("snapshot_bytes_transferred").value(SnapshotBytesTransferred);
    W.key("snapshots_installed").value(SnapshotsInstalled);
    W.key("heal_reconfigs_committed").value(HealReconfigsCommitted);
    W.key("heal_reconfig_retries").value(HealReconfigRetries);
    W.endObject();
  }
  W.key("read_path").beginObject();
  W.key("reads_issued").value(uint64_t(ReadsIssued));
  W.key("reads_ok").value(uint64_t(ReadsOk));
  W.key("reads_failed").value(uint64_t(ReadsFailed));
  W.key("reads_at_follower").value(uint64_t(ReadsAtFollower));
  W.endObject();
  W.key("committed_entries").value(uint64_t(CommittedEntries));
  if (!GroupStats.empty()) {
    W.key("pool_map").beginObject();
    W.key("generation").value(MapGeneration);
    W.key("changes_committed").value(MapChangesCommitted);
    W.key("wrong_group_nacks").value(WrongGroupNacks);
    W.key("map_refreshes").value(MapRefreshes);
    W.endObject();
    W.key("groups").beginArray();
    for (const GroupStatsEntry &G : GroupStats) {
      W.beginObject();
      W.key("group").value(uint64_t(G.Group));
      W.key("committed_entries").value(uint64_t(G.CommittedEntries));
      W.key("ops").value(uint64_t(G.Ops));
      W.endObject();
    }
    W.endArray();
  }
  W.key("lin_states_explored").value(LinStatesExplored);
  W.key("durable_store").value(DurableStore);
  if (DurableStore) {
    W.key("store").beginObject();
    W.key("syncs").value(Store.Syncs);
    W.key("records_written").value(Store.RecordsWritten);
    W.key("bytes_written").value(Store.BytesWritten);
    W.key("max_batch_records").value(Store.MaxBatchRecords);
    W.key("snapshots").value(Store.Snapshots);
    W.key("segments_created").value(Store.SegmentsCreated);
    W.key("segments_deleted").value(Store.SegmentsDeleted);
    W.key("recoveries").value(Store.Recoveries);
    W.key("torn_tails_detected").value(Store.TornTailsDetected);
    W.key("truncated_bytes").value(Store.TruncatedBytes);
    W.key("recovery_us_total").value(Store.RecoveryUsTotal);
    W.key("recovery_us_max").value(Store.RecoveryUsMax);
    W.endObject();
  }
  W.key("clamped_past_schedules").value(ClampedPastSchedules);
  W.key("violations").beginArray();
  for (const std::string &V : Violations)
    W.value(V);
  W.endArray();
  if (!passed()) {
    W.key("nemesis_trace").value(NemesisTrace);
    W.key("history").value(HistoryText);
  }
  W.endObject();
}

std::string ChaosRunResult::summary() const {
  std::string S = std::string(scenarioName(Kind)) + " seed=" +
                  std::to_string(Seed) + " ops=" + std::to_string(OpsTotal) +
                  " (ok=" + std::to_string(OpsOk) +
                  " indet=" + std::to_string(OpsIndeterminate) +
                  ") committed=" + std::to_string(CommittedEntries) +
                  " nemesis=" + std::to_string(NemesisActions);
  if (!GroupStats.empty())
    S += " groups=" + std::to_string(GroupStats.size() - 1) +
         " map_gen=" + std::to_string(MapGeneration) +
         " nacks=" + std::to_string(WrongGroupNacks);
  if (Healing)
    S += " kills=" + std::to_string(PermanentKills) +
         " heals=" + std::to_string(HealReconfigsCommitted) +
         " detect_us=" + std::to_string(TimeToDetectUs) +
         " refill_us=" + std::to_string(TimeToFullReplicationUs) +
         " snap_bytes=" + std::to_string(SnapshotBytesTransferred);
  S += " reads=" + std::to_string(ReadsOk) + "/" +
       std::to_string(ReadsIssued) +
       " follower_reads=" + std::to_string(ReadsAtFollower);
  if (DurableStore)
    S += " recoveries=" + std::to_string(Store.Recoveries) +
         " torn_tails=" + std::to_string(Store.TornTailsDetected);
  S += passed() ? " PASS" : (" FAIL (" + std::to_string(Violations.size()) +
                             " violations)");
  return S;
}
