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
#include "read/ReadPath.h"

#include <algorithm>

using namespace adore;
using namespace adore::chaos;
using sim::SimTime;

/// Full strength for the self-healing check: the leader's configuration
/// has at least \p Target members and every one of them is alive with
/// the leader's whole commit prefix in its log.
static bool fullyReplicated(const sim::Cluster &C,
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

ChaosRunResult adore::chaos::runChaosScenario(const ChaosRunOptions &Opts,
                                              uint64_t Seed) {
  // Multi-group requests (and the migration scenario, which needs a
  // metadata group even over one data group) take the sharded harness;
  // everything else runs the original path untouched, which the
  // differential regression test pins byte-for-byte.
  if (Opts.Groups > 1 || Opts.Nemesis.Kind == Scenario::ShardReconfig)
    return runShardedChaosScenario(Opts, Seed);

  ChaosRunResult Result;
  Result.Seed = Seed;
  Result.Kind = Opts.Nemesis.Kind;

  // One master seed forks independent streams per component, so e.g.
  // changing the workload mix never perturbs the nemesis schedule.
  Rng Master(Seed);
  uint64_t ClusterSeed = Master.next();
  uint64_t NemesisSeed = Master.next();
  uint64_t WorkloadSeed = Master.next();

  std::unique_ptr<ReconfigScheme> Scheme = makeScheme(Opts.Scheme);
  Config Initial(NodeSet::range(1, Opts.Members));
  NodeSet Universe = NodeSet::range(1, Opts.Members + Opts.Spares);
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
    CO.Node.EnableSuspicion = true;
    CO.Node.EnableSnapshotCatchup = true;
    CO.Node.SnapshotLagEntries = 8;
  }
  // Clock-drift is the read-path scenario: every read tier is on, the
  // nemesis wanders per-node clock skews, and gets go through the
  // protocol read path (no log barrier). The parameters keep lease
  // safety provable against the nemesis bound: effective lease =
  // 100ms * (1 - 2*10%) = 80ms, and 80ms + 2*MaxSkewUs(20ms each way)
  // stays under the 150ms minimum election timeout.
  bool ReadPath = Opts.Nemesis.Kind == Scenario::ClockDrift;
  Result.ReadPath = ReadPath;
  if (ReadPath) {
    read::applyTier({.Tier = read::ReadTier::FollowerLease,
                     .LeaseDurationUs = 100000,
                     .MaxDriftPpm = 100000},
                    CO.Node);
  }
  sim::Cluster C(*Scheme, Initial, Universe, CO, ClusterSeed);

  CommittedLedger Ledger;
  C.addApplyHook([&Ledger](NodeId Node, size_t Index,
                           const sim::SimLogEntry &E) {
    Ledger.observe(Node, Index, E);
  });

  kv::ReplicatedKvStore Store(C);
  History H;
  Store.setObserver(&H);

  C.start();
  if (!C.runUntilLeader(5000000))
    Result.Violations.push_back("no leader elected before chaos start");
  SimTime Start = C.queue().now();

  Nemesis N(C, Opts.Nemesis, NemesisSeed);
  N.start();

  // Self-healing driver (kill-forever only). Suspicion observations from
  // whichever node currently leads feed one Healer, and a periodic tick
  // turns its proposals into client-path reconfiguration requests. The
  // clocks feed the time-to-detect / time-to-full-replication metrics;
  // the replication clock restarts whenever another victim drops.
  std::optional<heal::Healer> Doc;
  SimTime FirstSuspectAt = 0;
  SimTime FullyReplicatedAt = 0;
  SimTime LastKillAt = 0;
  size_t KillsSeen = 0;
  std::function<void()> HealTick;
  if (Healing) {
    heal::HealerOptions HO;
    HO.Seed = Master.next();
    HO.BaseBackoffUs = 100000;
    HO.MaxBackoffUs = 1600000;
    HO.CooldownUs = 400000;
    Doc.emplace(*Scheme, HO);
    for (NodeId Id : C.universe())
      C.node(Id).hooks().OnSuspicion =
          [&](NodeId, NodeId Peer, bool SuspectedNow) {
            if (!SuspectedNow) {
              Doc->observeRecovered(Peer);
              return;
            }
            Doc->observeSuspected(Peer);
            if (!FirstSuspectAt)
              FirstSuspectAt = C.queue().now();
          };
    const SimTime HealTickUs = 50000;
    SimTime End = Start + Opts.Nemesis.HorizonUs + Opts.QuiescenceUs;
    HealTick = [&, HealTickUs, End] {
      SimTime Now = C.queue().now();
      if (N.killedForever().size() > KillsSeen) {
        KillsSeen = N.killedForever().size();
        LastKillAt = Now;
        FullyReplicatedAt = 0;
      }
      if (std::optional<NodeId> L = C.leader()) {
        if (FullyReplicatedAt == 0 && KillsSeen != 0 &&
            fullyReplicated(C, *Scheme, *L, Opts.Members))
          FullyReplicatedAt = Now;
        if (std::optional<Config> P =
                Doc->tick(Now, C.node(*L).config(), C.universe(), *L))
          C.requestReconfig(
              *P,
              [&](bool Ok, SimTime) {
                Doc->onReconfigResult(Ok, C.queue().now());
              },
              /*MaxTriesUs=*/1500000);
      }
      if (Now + HealTickUs < End)
        C.queue().scheduleAfter(HealTickUs, HealTick);
    };
    C.queue().scheduleAfter(HealTickUs, HealTick);
  }

  // Schedule the whole workload up front (invocation times and op mix
  // are drawn now; effects happen in virtual time). Every put writes a
  // globally unique value, which is what makes per-key register
  // linearizability checking discriminating.
  Rng W(WorkloadSeed);
  uint32_t NextVal = 1;
  const ChaosWorkloadOptions &WL = Opts.Workload;
  for (size_t I = 0; I != WL.NumOps; ++I) {
    SimTime At = Start + W.nextBelow(Opts.Nemesis.HorizonUs);
    uint32_t Key = static_cast<uint32_t>(W.nextBelow(WL.NumKeys));
    unsigned Draw = static_cast<unsigned>(W.nextBelow(1000));
    uint32_t Val = NextVal++;
    C.queue().scheduleAt(At, [&Store, &WL, &Result, Key, Draw, Val,
                              ReadPath] {
      if (Draw < WL.GetPermille) {
        if (ReadPath) {
          // Alternate leader-side and follower-side reads; the
          // observer still records each as a Get, so the Wing & Gong
          // check covers the read path end to end.
          bool AtFollower = (Draw % 2) == 0;
          ++Result.ReadsIssued;
          if (AtFollower)
            ++Result.ReadsAtFollower;
          Store.getFast(
              Key,
              [&Result](bool Ok, std::optional<uint32_t>, SimTime) {
                if (Ok)
                  ++Result.ReadsOk;
                else
                  ++Result.ReadsFailed;
              },
              AtFollower, WL.OpTimeoutUs);
        } else {
          Store.get(
              Key, [](bool, std::optional<uint32_t>, SimTime) {},
              WL.OpTimeoutUs);
        }
      } else if (Draw < WL.GetPermille + WL.DelPermille)
        Store.del(Key, [](bool, SimTime) {}, WL.OpTimeoutUs);
      else
        Store.put(Key, Val, [](bool, SimTime) {}, WL.OpTimeoutUs);
    });
  }

  // Active window, then the fault-free quiescence tail. The queue never
  // drains (heartbeats), so the run is time-bounded.
  C.queue().runUntil(Start + Opts.Nemesis.HorizonUs + Opts.QuiescenceUs);
  H.finalize(C.queue().now());

  // Gather statistics.
  Result.OpsTotal = H.size();
  Result.OpsOk = H.countWithOutcome(Outcome::Ok);
  Result.OpsFailed = H.countWithOutcome(Outcome::Fail);
  Result.OpsIndeterminate = H.countWithOutcome(Outcome::Indeterminate);
  Result.MessagesSent = C.messagesSent();
  Result.DroppedByCut = C.messagesDroppedByCut();
  Result.DroppedByLoss = C.messagesDroppedByLoss();
  Result.Duplicated = C.messagesDuplicated();
  Result.NemesisActions = N.trace().size();
  Result.ReconfigsRequested = N.reconfigsRequested();
  Result.ReconfigsCommitted = N.reconfigsCommitted();
  Result.HealedAll = N.healedAll();
  Result.CommittedEntries = Ledger.Entries.size();
  Result.ClampedPastSchedules = C.queue().stats().ClampedPastSchedules;
  Result.NemesisTrace = N.traceString();
  Result.HistoryText = H.str();

  if (Durable)
    Result.Store = C.storeStats();

  if (Healing) {
    // The tick only samples every 50ms; catch a catch-up that completed
    // between the last tick and the end of the run.
    if (FullyReplicatedAt == 0 && KillsSeen != 0)
      if (std::optional<NodeId> L = C.leader())
        if (fullyReplicated(C, *Scheme, *L, Opts.Members))
          FullyReplicatedAt = C.queue().now();
    SimTime FirstKillAt = 0;
    SimTime FinalKillAt = 0;
    for (const NemesisAction &A : N.trace())
      if (A.Desc.rfind("kill-forever", 0) == 0) {
        if (!FirstKillAt)
          FirstKillAt = A.At;
        FinalKillAt = A.At;
      }
    Result.PermanentKills = N.killedForever().size();
    Result.HealReconfigsCommitted = Doc->heals();
    Result.HealReconfigRetries = Doc->retries();
    for (NodeId Id : C.universe()) {
      Result.SnapshotBytesTransferred +=
          C.node(Id).core().snapshotBytesReceived();
      Result.SnapshotsInstalled += C.node(Id).core().snapshotsInstalled();
    }
    if (FirstKillAt && FirstSuspectAt > FirstKillAt)
      Result.TimeToDetectUs = FirstSuspectAt - FirstKillAt;
    if (FullyReplicatedAt > FinalKillAt)
      Result.TimeToFullReplicationUs = FullyReplicatedAt - FinalKillAt;
  }

  // Invariants.
  if (!N.healedAll())
    Result.Violations.push_back("nemesis did not heal all faults");
  if (Healing && KillsSeen != 0) {
    // The point of the scenario: only reconfiguration can restore the
    // replication factor, and it must have by the end of quiescence.
    if (FullyReplicatedAt == 0)
      Result.Violations.push_back(
          "self-healing: cluster never returned to full replication after " +
          std::to_string(KillsSeen) + " permanent kills");
    if (std::optional<NodeId> L = C.leader()) {
      NodeSet FinalMembers = Scheme->mbrs(C.node(*L).config());
      for (NodeId Dead : N.killedForever())
        if (FinalMembers.contains(Dead))
          Result.Violations.push_back(
              "self-healing: permanently killed S" + std::to_string(Dead) +
              " is still a member of the final configuration");
    }
  }
  // Store-backed recovery cross-checks: every restart's recovered
  // term/vote/log must equal the idealized in-memory copy (only deferred
  // commit records may be lost), and no directory may be unrecoverable.
  for (const std::string &V : C.storeViolations())
    Result.Violations.push_back("durable store: " + V);
  if (Ledger.Violation)
    Result.Violations.push_back(*Ledger.Violation);
  if (std::optional<std::string> V = C.checkLeaderUniqueness())
    Result.Violations.push_back("election safety: " + *V);
  if (std::optional<std::string> V = C.checkCommittedAgreement())
    Result.Violations.push_back("committed agreement: " + *V);

  // Durability + convergence: after heal and quiescence, some node leads
  // and every member of its configuration holds the full committed
  // prefix (nothing committed was lost to any crash/restart/reconfig)
  // with identical KV state.
  std::optional<NodeId> FinalLeader = C.leader();
  if (!FinalLeader) {
    Result.Violations.push_back("no leader after heal + quiescence:\n" +
                                C.dump());
  } else {
    NodeSet FinalMembers = Scheme->mbrs(C.node(*FinalLeader).config());
    std::optional<NodeId> First;
    for (NodeId M : FinalMembers) {
      const sim::RaftNode &Node = C.node(M);
      if (Node.isCrashed()) {
        Result.Violations.push_back("S" + std::to_string(M) +
                                    " still crashed after heal");
        continue;
      }
      if (Node.commitIndex() < Ledger.Entries.size()) {
        Result.Violations.push_back(
            "durability: S" + std::to_string(M) + " commit index " +
            std::to_string(Node.commitIndex()) + " < committed ledger " +
            std::to_string(Ledger.Entries.size()));
        continue;
      }
      if (!First) {
        First = M;
      } else if (!(Store.replica(M) == Store.replica(*First))) {
        Result.Violations.push_back("convergence: KV state of S" +
                                    std::to_string(M) + " differs from S" +
                                    std::to_string(*First));
      }
    }
  }
  if (!Store.replicasAgree())
    Result.Violations.push_back("replicas with equal applied counts "
                                "disagree on KV state");

  // The history check runs last so its (potentially long) explanation
  // lands after the cheap invariant reports.
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
  if (ReadPath) {
    W.key("read_path").beginObject();
    W.key("reads_issued").value(uint64_t(ReadsIssued));
    W.key("reads_ok").value(uint64_t(ReadsOk));
    W.key("reads_failed").value(uint64_t(ReadsFailed));
    W.key("reads_at_follower").value(uint64_t(ReadsAtFollower));
    W.endObject();
  }
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
  if (ReadPath)
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
