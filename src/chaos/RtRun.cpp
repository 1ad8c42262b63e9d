//===- chaos/RtRun.cpp - Chaos scenarios on the threaded runtime ------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// One driver for every rt run shape: a single RtCluster, or a meta + N
// data group pool (rt::ShardedRtCluster) on one shared transport with a
// routing client stamping every keyed write with its cached map
// generation. Each scenario is one per-group script that runs on each
// data group in turn; a pool re-syncs the pool map with the group's
// live configuration after every script. Nothing here is deterministic;
// the point is safety under genuine thread interleaving (this path runs
// under TSan in CI).
//
//===----------------------------------------------------------------------===//

#include "chaos/RtRun.h"

#include "heal/Healer.h"
#include "read/ReadPath.h"
#include "rt/ShardedRt.h"
#include "support/Rng.h"
#include "support/Sync.h"

#include <chrono>
#include <thread>

using namespace adore;
using namespace adore::chaos;
using adore::shard::GroupId;

namespace {

void sleepMs(uint64_t Ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
}

/// Picks a member of \p Members other than \p Leader (highest id first,
/// for reproducibility of the choice itself).
NodeId pickVictim(const NodeSet &Members, NodeId Leader) {
  NodeId Best = InvalidNodeId;
  for (NodeId Id : Members)
    if (Id != Leader && (Best == InvalidNodeId || Id > Best))
      Best = Id;
  return Best;
}

Config configWithout(const NodeSet &Members, NodeId Removed) {
  NodeSet S;
  for (NodeId Id : Members)
    if (Id != Removed)
      S.insert(Id);
  return Config(S);
}

/// Full strength for one group: the leader's configuration has at least
/// \p Target members, all alive, active and holding the leader's commit
/// prefix.
bool fullyReplicated(rt::RtCluster &Grp, size_t Target) {
  NodeId L = Grp.waitForLeader(100);
  if (L == InvalidNodeId)
    return false;
  rt::RtNodeStatus LS = Grp.nodeStatus(L);
  NodeSet Members = Grp.scheme().mbrs(LS.Conf);
  if (Members.size() < Target)
    return false;
  for (NodeId M : Members) {
    rt::RtNodeStatus S = Grp.nodeStatus(M);
    if (S.Crashed || S.Passive || S.LogSize < LS.CommitIndex)
      return false;
  }
  return true;
}

} // namespace

ChaosRunResult adore::chaos::runRtScenario(const RtRunOptions &Opts,
                                           uint64_t Seed) {
  ChaosRunResult Result;
  Result.Seed = Seed;
  Result.Kind = Opts.Kind;

  Rng Master(Seed);
  uint64_t ClusterSeed = Master.next();
  uint64_t ScenarioSeed = Master.next();
  uint64_t WorkloadSeed = Master.next();

  // Multi-group runs, and the migration scenario (which needs a metadata
  // group even over one data group), run a pool; everything else is one
  // group with no pool.
  bool IsPool = Opts.Groups > 1 || Opts.Kind == Scenario::ShardReconfig;
  size_t DataGroups = IsPool ? std::max<size_t>(1, Opts.Groups) : 1;
  GroupId FirstData = IsPool ? 1 : 0;
  GroupId EndGroup = static_cast<GroupId>(FirstData + DataGroups);

  // Wall-clock microseconds since run start: the healer's backoff clock
  // and the healing latency metrics (rt runs live on the real clock).
  auto T0 = std::chrono::steady_clock::now();
  auto NowUs = [T0] {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - T0)
            .count());
  };

  // The group template; a pool overwrites the per-group fields.
  rt::RtClusterOptions CO;
  CO.Scheme = Opts.Scheme;
  CO.NumNodes = Opts.Members;
  CO.NumSpares = Opts.Spares;
  CO.Seed = ClusterSeed;
  CO.Transport = Opts.Transport;
  // The read-path scenario: the rt runtime lives on the real clock (no
  // skew to inject — loopback clocks agree), so what it buys is the
  // whole read ladder under genuine concurrency: ReadIndex rounds,
  // lease renewal off real deadline timers, follower forwarding, and
  // the retry-at-leader fallback, all with every read staleness-checked
  // against the ledger snapshot taken at issue.
  if (Opts.Kind == Scenario::ClockDrift) {
    // fastNodeOptions: ETmin 50ms, heartbeat 15ms. Effective lease =
    // 30ms * (1 - 2*10%) = 24ms — longer than a heartbeat gap, so the
    // lease stays continuously renewed, and well under ETmin.
    read::applyTier({.Tier = read::ReadTier::FollowerLease,
                     .LeaseDurationUs = 30000,
                     .MaxDriftPpm = 100000},
                    CO.Node);
  }
  CO.DurableStore = Opts.DurableStore || Opts.Kind == Scenario::DiskFaults;
  if (CO.DurableStore)
    CO.StoreFaults = ChaosRunOptions::defaultStoreFaults();
  Result.DurableStore = CO.DurableStore;

  // Self-healing setup (kill-forever only): one Healer per data group,
  // fed by the suspicion tap. Node ids are group-spaced
  // (shard::groupIdBase), so the observing node's id names the group.
  // The tap runs on node worker threads; HealMu serializes it against
  // the harness thread's healer ticks. Declared before the clusters so
  // the workers never outlive what the tap captures.
  bool Healing = Opts.Kind == Scenario::KillForever;
  Result.Healing = Healing;
  sync::Mutex HealMu;
  std::unique_ptr<ReconfigScheme> HealScheme;
  std::vector<std::unique_ptr<heal::Healer>> Healers;
  uint64_t FirstSuspectUs = 0;
  if (Healing) {
    CO.Node.EnableSnapshotCatchup = true;
    CO.Node.SnapshotLagEntries = 8;
    HealScheme = makeScheme(Opts.Scheme);
    Healers.resize(EndGroup);
    for (GroupId G = FirstData; G != EndGroup; ++G) {
      heal::HealerOptions HO;
      HO.Seed = Seed ^ (0x4EA1D05EULL + G);
      HO.BaseBackoffUs = 50000;
      HO.MaxBackoffUs = 800000;
      HO.CooldownUs = 100000;
      HO.TargetReplication = Opts.Members;
      Healers[G] = std::make_unique<heal::Healer>(*HealScheme, HO);
    }
    CO.OnSuspicion = [&](NodeId Observer, NodeId Peer, bool SuspectedNow) {
      size_t G = Observer / 1000;
      sync::MutexLock L(HealMu);
      if (G >= Healers.size() || !Healers[G])
        return;
      if (SuspectedNow) {
        Healers[G]->observeSuspected(Peer);
        if (!FirstSuspectUs)
          FirstSuspectUs = NowUs();
      } else {
        Healers[G]->observeRecovered(Peer);
      }
    };
  }

  // Construction: the groups under test are the one cluster, or the
  // metadata group (index 0) plus the data groups of a pool.
  std::unique_ptr<rt::RtCluster> Single;
  std::unique_ptr<rt::ShardedRtCluster> Pool;
  std::vector<rt::RtCluster *> Groups;
  if (IsPool) {
    rt::ShardedRtOptions SO;
    SO.Group = CO;
    SO.Groups = DataGroups;
    SO.NumShards = Opts.Shards;
    SO.Members = Opts.Members;
    SO.Spares = Opts.Spares;
    SO.MetaMembers = Opts.Members;
    Pool = std::make_unique<rt::ShardedRtCluster>(SO);
    for (GroupId G = 0; G != EndGroup; ++G)
      Groups.push_back(&Pool->group(G));
  } else {
    Single = std::make_unique<rt::RtCluster>(CO);
    Groups.push_back(Single.get());
  }
  auto TagOf = [&](GroupId G) {
    return Pool ? "rt group " + std::to_string(G) + ": " : std::string("rt: ");
  };
  for (rt::RtCluster *Grp : Groups)
    Grp->start();

  // The submit path: a direct submitAndWait on the one group, or — in a
  // pool — the routing client. Its Perform round-trips the request and
  // reply through the wire codecs (the rt path carries frames, so
  // exercise the framing), validates ingress against the committed map,
  // and executes accepted writes as a submitAndWait on the owning
  // group. Per-group executed-op counters are written only from the
  // harness thread (Perform runs synchronously inside submit).
  std::vector<size_t> OpsByGroup(EndGroup, 0);
  std::optional<shard::ShardedKvClient> Client;
  Rng W(WorkloadSeed);
  std::function<bool(MethodId)> SubmitOne;
  if (Pool) {
    shard::ShardedKvClient::Transport T;
    T.Perform = [&](const shard::RouteRequest &R,
                    shard::ShardedKvClient::ReplyFn Done) {
      std::string Frame;
      shard::encodeRouteRequest(Frame, R);
      shard::RouteRequest Req;
      shard::GroupReply Reply;
      if (!shard::decodeRouteRequest(Frame, Req)) {
        Done(Reply); // Ok=false: a malformed frame is a definite failure.
        return;
      }
      if (std::optional<shard::WrongGroupNack> N =
              Pool->ingressCheck(Req.Group, Req.Shard, Req.MapGen)) {
        Reply.HasNack = true;
        Reply.Nack = *N;
      } else {
        Reply.Ok = Pool->group(Req.Group).submitAndWait(Req.Payload,
                                                        Opts.OpTimeoutMs);
        ++OpsByGroup[Req.Group];
      }
      std::string ReplyFrame;
      shard::encodeGroupReply(ReplyFrame, Reply);
      shard::GroupReply Decoded;
      if (shard::decodeGroupReply(ReplyFrame, Decoded))
        Done(Decoded);
      else
        Done(shard::GroupReply{});
    };
    T.FetchMap = [&](shard::ShardedKvClient::MapFn Done) {
      Done(Pool->committedMap());
    };
    // Perform runs synchronously on the harness thread, so a blocking
    // sleep paces the retry loop without touching any worker thread.
    T.Sleep = [](uint64_t DelayUs, std::function<void()> Resume) {
      std::this_thread::sleep_for(std::chrono::microseconds(DelayUs));
      Resume();
    };
    shard::BackoffOptions ClientBackoff;
    ClientBackoff.Seed = WorkloadSeed ^ 0xBAC0FFULL;
    ClientBackoff.BaseUs = 500;
    ClientBackoff.MaxUs = 8000;
    Client.emplace(Pool->committedMap(), std::move(T), ClientBackoff);
    SubmitOne = [&](MethodId Method) {
      bool Ok = false;
      Client->submit(W.nextBelow(64), Method, /*IsRead=*/false,
                     [&Ok](const shard::GroupReply &Rep) { Ok = Rep.Ok; });
      return Ok;
    };
  } else {
    SubmitOne = [&](MethodId Method) {
      return Single->submitAndWait(Method, Opts.OpTimeoutMs);
    };
  }
  auto Submit = [&](size_t Count) {
    for (size_t I = 0; I != Count; ++I) {
      ++Result.OpsTotal;
      if (SubmitOne(/*Method=*/1 + (Result.OpsTotal % 7)))
        ++Result.OpsOk;
      else
        ++Result.OpsFailed;
    }
  };
  auto AllLead = [&, T = Opts.ConvergeTimeoutMs] {
    return Pool ? Pool->waitForAllLeaders(T)
                : Single->waitForLeader(T) != InvalidNodeId;
  };

  // The kill-forever heal loop: tick the group's Healer against its
  // current leader and commit whatever it proposes, until the group is
  // back at full strength or the budget runs out.
  auto HealUntilFull = [&](GroupId G, uint64_t KillUs) {
    rt::RtCluster &Grp = *Groups[G];
    uint64_t Deadline = KillUs + 3 * Opts.ConvergeTimeoutMs * 1000;
    for (; NowUs() < Deadline; sleepMs(20)) {
      if (fullyReplicated(Grp, Opts.Members))
        return true;
      NodeId L = Grp.waitForLeader(100);
      if (L == InvalidNodeId)
        continue;
      Config Cur = Grp.nodeStatus(L).Conf;
      std::optional<Config> P;
      {
        sync::MutexLock Lk(HealMu);
        P = Healers[G]->tick(NowUs(), Cur, Grp.universe(), L);
      }
      if (!P)
        continue;
      ++Result.ReconfigsRequested;
      bool Ok = Grp.reconfigAndWait(*P, Opts.ConvergeTimeoutMs);
      if (Ok)
        ++Result.ReconfigsCommitted;
      sync::MutexLock Lk(HealMu);
      Healers[G]->onReconfigResult(Ok, NowUs());
    }
    return false;
  };

  // Routing state follows the group: commit a map naming the group's
  // live replica set, or flag the run if the generation-CAS never lands.
  auto ResyncMap = [&](GroupId G) {
    rt::RtCluster &Grp = *Groups[G];
    for (int Try = 0; Try != 5; ++Try) {
      NodeId L = Grp.waitForLeader(Opts.ConvergeTimeoutMs);
      if (L == InvalidNodeId)
        break;
      NodeSet Live = Grp.scheme().mbrs(Grp.nodeStatus(L).Conf);
      shard::PoolMap M = Pool->committedMap();
      if (M.GroupReplicas[G] == Live ||
          Pool->proposeMap(heal::withGroupReplicas(M, G, Live),
                           Opts.ConvergeTimeoutMs))
        return;
    }
    Result.Violations.push_back(
        TagOf(G) + "pool map never caught up with the group's configuration");
  };

  uint64_t FirstKillUs = 0;
  Rng R(ScenarioSeed);
  // One scenario script, run on one data group.
  auto Script = [&](GroupId G) {
    rt::RtCluster &Grp = *Groups[G];
    std::string Tag = TagOf(G);
    auto Reconfig = [&](const Config &To, const char *What) {
      ++Result.ReconfigsRequested;
      if (Grp.reconfigAndWait(To, Opts.ConvergeTimeoutMs)) {
        ++Result.ReconfigsCommitted;
        return true;
      }
      Result.Violations.push_back(Tag + What + " never committed");
      return false;
    };
    NodeId Leader = Grp.waitForLeader(Opts.ConvergeTimeoutMs);
    if (Leader == InvalidNodeId) {
      Result.Violations.push_back(Tag + "no leader to run the scenario");
      return;
    }
    NodeSet Initial = Grp.scheme().mbrs(Grp.initialConfig());
    NodeId Victim = pickVictim(Initial, Leader);
    switch (Opts.Kind) {
    case Scenario::Reconfigs:
      // Two full hot cycles: remove a follower, bring it back, twice.
      for (int Round = 0; Round != 2; ++Round) {
        Reconfig(configWithout(Initial, Victim), "removal reconfig");
        Reconfig(Grp.initialConfig(), "re-add reconfig");
      }
      break;
    case Scenario::CrashMidReconfig:
      // Crash the node being removed while its removal is in flight:
      // the remaining members must commit it without the victim.
      Grp.crash(Victim);
      Reconfig(configWithout(Initial, Victim), "removal with crashed subject");
      Grp.restart(Victim);
      Reconfig(Grp.initialConfig(), "re-add after restart");
      break;
    case Scenario::Mixed:
      // One crash/restart cycle plus one reconfig cycle.
      Grp.crash(Victim);
      Submit(2);
      Grp.restart(Victim);
      if (Reconfig(configWithout(Initial, Victim), "mixed removal"))
        Reconfig(Grp.initialConfig(), "mixed re-add");
      break;
    case Scenario::ShardReconfig:
      // Live migrations: commit a pool map naming the group's next
      // replica set, then hot-reconfigure the group to match. Two
      // rounds, traffic in between — stale-stamped ops after each map
      // change earn NACKs and drive the client's refetch loop.
      for (int Round = 0; Round != 2 && Grp.scheme().allowsReconfig();
           ++Round) {
        Leader = Grp.waitForLeader(Opts.ConvergeTimeoutMs);
        // Only candidates keeping the current leader: the core refuses
        // a reconfig that removes the leader itself, so anything else
        // would just spin until leadership happens to move.
        std::vector<Config> Cands;
        for (const Config &C :
             Grp.scheme().candidateReconfigs(Grp.currentConfig(),
                                             Grp.universe()))
          if (Leader != InvalidNodeId && Grp.scheme().mbrs(C).contains(Leader))
            Cands.push_back(C);
        if (Cands.empty())
          continue;
        Config Next = R.pick(Cands);
        shard::PoolMap NewMap = heal::withGroupReplicas(
            Pool->committedMap(), G, Grp.scheme().mbrs(Next));
        ++Result.ReconfigsRequested;
        // Failures here are not violations — the rt runtime is honestly
        // nondeterministic (leadership can move mid-migration), and the
        // sim driver treats timed-out migrations the same way. The map
        // re-sync and the invariants below still hold either way.
        if (!Pool->proposeMap(NewMap, Opts.ConvergeTimeoutMs))
          continue;
        if (Grp.reconfigAndWait(Next, Opts.ConvergeTimeoutMs))
          ++Result.ReconfigsCommitted;
        Submit(2);
      }
      break;
    case Scenario::KillForever:
      // Permanent kills: the victim never restarts, so only the healing
      // pipeline — the suspicion tap feeding the Healer, certified
      // reconfigs swapping spares in, snapshot catch-up for the
      // replacement — can restore the replication factor. One kill per
      // round, each of which must heal before the next.
      for (size_t K = 0; K != std::min<size_t>(Opts.Spares, 2); ++K) {
        NodeId L = Grp.waitForLeader(Opts.ConvergeTimeoutMs);
        if (L == InvalidNodeId) {
          Result.Violations.push_back(Tag + "self-healing: no leader to "
                                            "observe the kill");
          break;
        }
        // Every member is live again once the previous kill healed.
        NodeId KillVictim =
            pickVictim(Grp.scheme().mbrs(Grp.nodeStatus(L).Conf), L);
        if (KillVictim == InvalidNodeId)
          break;
        Grp.crash(KillVictim);
        ++Result.PermanentKills;
        uint64_t KillUs = NowUs();
        if (!FirstKillUs)
          FirstKillUs = KillUs;
        Submit(2);
        if (!HealUntilFull(G, KillUs)) {
          Result.Violations.push_back(
              Tag + "self-healing: never returned to full replication "
                    "after kill " +
              std::to_string(K + 1));
          break;
        }
        Result.TimeToFullReplicationUs = NowUs() - KillUs;
      }
      break;
    case Scenario::ClockDrift: {
      auto Read = [&](bool AtFollower) {
        ++Result.ReadsIssued;
        if (AtFollower)
          ++Result.ReadsAtFollower;
        if (Grp.readAndWait(Opts.OpTimeoutMs, AtFollower))
          ++Result.ReadsOk;
        else
          ++Result.ReadsFailed;
      };
      for (int Round = 0; Round != 2; ++Round) {
        // Read-heavy phase: alternate leader- and follower-side reads
        // with writes interleaved so safe indexes keep moving.
        for (int I = 0; I != 6; ++I) {
          Read(/*AtFollower=*/(I % 2) == 0);
          Submit(1);
        }
        // Reads must keep resolving while a replica is down (the
        // leader's quorum round and lease survive one crash of three).
        Grp.crash(Victim);
        Submit(1);
        Read(/*AtFollower=*/false);
        sleepMs(50);
        Grp.restart(Victim);
        sleepMs(50);
      }
      break;
    }
    case Scenario::Crashes:
    case Scenario::Partitions:
    case Scenario::Cuts:
    case Scenario::NetChaos:
    case Scenario::SplitBrain:
    case Scenario::DiskFaults:
      // Crash-flavored mapping for the network scenarios: the rt
      // transports have no cuttable links, so fault pressure comes from
      // losing and recovering a replica (twice, with traffic in
      // between). Listed explicitly (no default) so a new Scenario
      // forces a decision here under -Werror=switch instead of
      // inheriting this mapping.
      for (int Round = 0; Round != 2; ++Round) {
        Grp.crash(Victim);
        Submit(2);
        sleepMs(50);
        Grp.restart(Victim);
        sleepMs(50);
      }
      break;
    }
  };

  if (!AllLead()) {
    Result.Violations.push_back("rt: not every group elected a leader "
                                "at startup");
  } else {
    size_t Half = Opts.NumOps / 2;
    Submit(Half);
    for (GroupId G = FirstData; G != EndGroup; ++G) {
      Script(G);
      if (Pool)
        ResyncMap(G);
    }
    if (Healing) {
      sync::MutexLock Lk(HealMu);
      if (FirstKillUs && FirstSuspectUs > FirstKillUs)
        Result.TimeToDetectUs = FirstSuspectUs - FirstKillUs;
    }
    Submit(Opts.NumOps - Half);
    // Everything was healed inline; give in-flight appends one beat to
    // drain before the final audit.
    if (!AllLead())
      Result.Violations.push_back("rt: not every group has a leader "
                                  "after faults healed");
    sleepMs(100);
  }

  Result.HealedAll = true;
  for (rt::RtCluster *Grp : Groups)
    Grp->stop();

  for (GroupId G = 0; G != Groups.size(); ++G) {
    rt::RtCluster &Grp = *Groups[G];
    for (const std::string &V : Grp.checkFinalAgreement())
      Result.Violations.push_back(TagOf(G) + V);
    Result.CommittedEntries += Grp.committedCount();
    if (Result.DurableStore)
      Result.Store.accumulate(Grp.storeStats());
    if (Healing && Healers[G]) {
      // Workers are joined: the cores are safe to inspect directly.
      for (NodeId Id : Grp.universe()) {
        const core::RaftCore &Core = Grp.coreForInspection(Id);
        Result.SnapshotBytesTransferred += Core.snapshotBytesReceived();
        Result.SnapshotsInstalled += Core.snapshotsInstalled();
      }
      sync::MutexLock Lk(HealMu);
      Result.HealReconfigsCommitted += Healers[G]->heals();
      Result.HealReconfigRetries += Healers[G]->retries();
    }
    if (!Pool)
      continue;
    ChaosRunResult::GroupStatsEntry GS;
    GS.Group = G;
    GS.CommittedEntries = Grp.committedCount();
    GS.Ops = OpsByGroup[G];
    Result.GroupStats.push_back(GS);
  }

  if (Pool) {
    const shard::RouteStats &RS = Client->stats();
    Result.WrongGroupNacks = RS.WrongGroupNacks;
    Result.MapRefreshes = RS.MapRefreshes;
    Result.MapGeneration = Pool->committedMap().Generation;
    Result.MapChangesCommitted = Pool->mapChangesCommitted();
    for (const std::string &V : Pool->mapViolations())
      Result.Violations.push_back("pool map: " + V);
    if (Result.MapGeneration != 1 + Result.MapChangesCommitted)
      Result.Violations.push_back(
          "pool map: generation " + std::to_string(Result.MapGeneration) +
          " != 1 + " + std::to_string(Result.MapChangesCommitted) +
          " committed changes");
  }
  return Result;
}
