//===- chaos/RtRun.cpp - Chaos scenarios on the threaded runtime ------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "chaos/RtRun.h"

#include "heal/Healer.h"
#include "read/ReadPath.h"
#include "rt/RtCluster.h"
#include "support/Sync.h"

#include <chrono>
#include <thread>

using namespace adore;
using namespace adore::chaos;

namespace {

/// Picks a member other than \p Leader (the highest id, for
/// reproducibility of the choice itself).
NodeId pickVictim(size_t Members, NodeId Leader) {
  for (NodeId Id = static_cast<NodeId>(Members); Id >= 1; --Id)
    if (Id != Leader)
      return Id;
  return InvalidNodeId;
}

Config configWithout(size_t Members, NodeId Removed) {
  NodeSet S;
  for (size_t I = 1; I <= Members; ++I)
    if (static_cast<NodeId>(I) != Removed)
      S.insert(static_cast<NodeId>(I));
  return Config(S);
}

void sleepMs(uint64_t Ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
}

} // namespace

ChaosRunResult adore::chaos::runRtScenario(const RtRunOptions &Opts,
                                           uint64_t Seed) {
  // Multi-group requests (and the migration scenario, which needs a
  // metadata group even over one data group) take the sharded harness.
  if (Opts.Groups > 1 || Opts.Kind == Scenario::ShardReconfig)
    return runShardedRtScenario(Opts, Seed);

  ChaosRunResult Result;
  Result.Seed = Seed;
  Result.Kind = Opts.Kind;

  // Wall-clock microseconds since run start: the healer's backoff clock
  // and the healing latency metrics (rt runs live on the real clock).
  auto T0 = std::chrono::steady_clock::now();
  auto NowUs = [T0] {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - T0)
            .count());
  };

  bool Healing = Opts.Kind == Scenario::KillForever;
  Result.Healing = Healing;
  // The suspicion tap runs on node worker threads; HealMu serializes it
  // against the main thread's healer ticks. Declared before the cluster
  // so the workers never outlive what the tap captures.
  sync::Mutex HealMu;
  std::optional<heal::Healer> Doc;
  uint64_t FirstSuspectUs = 0;

  rt::RtClusterOptions CO;
  CO.Scheme = Opts.Scheme;
  CO.NumNodes = Opts.Members;
  CO.Seed = Seed;
  CO.Transport = Opts.Transport;
  // The read-path scenario: the rt runtime lives on the real clock (no
  // skew to inject — loopback clocks agree), so what it buys is the
  // whole read ladder under genuine concurrency: ReadIndex rounds,
  // lease renewal off real deadline timers, follower forwarding, and
  // the retry-at-leader fallback, all with every read staleness-checked
  // against the ledger snapshot taken at issue.
  bool ReadPath = Opts.Kind == Scenario::ClockDrift;
  Result.ReadPath = ReadPath;
  if (ReadPath) {
    // fastNodeOptions: ETmin 50ms, heartbeat 15ms. Effective lease =
    // 30ms * (1 - 2*10%) = 24ms — longer than a heartbeat gap, so the
    // lease stays continuously renewed, and well under ETmin.
    read::applyTier({.Tier = read::ReadTier::FollowerLease,
                     .LeaseDurationUs = 30000,
                     .MaxDriftPpm = 100000},
                    CO.Node);
  }
  CO.DurableStore =
      Opts.DurableStore || Opts.Kind == Scenario::DiskFaults;
  if (CO.DurableStore)
    CO.StoreFaults = ChaosRunOptions::defaultStoreFaults();
  Result.DurableStore = CO.DurableStore;
  if (Healing) {
    CO.NumSpares = Opts.Spares;
    CO.Node.EnableSuspicion = true;
    CO.Node.EnableSnapshotCatchup = true;
    CO.Node.SnapshotLagEntries = 8;
    CO.OnSuspicion = [&](NodeId, NodeId Peer, bool SuspectedNow) {
      sync::MutexLock L(HealMu);
      if (!Doc)
        return;
      if (SuspectedNow) {
        Doc->observeSuspected(Peer);
        if (!FirstSuspectUs)
          FirstSuspectUs = NowUs();
      } else {
        Doc->observeRecovered(Peer);
      }
    };
  }
  rt::RtCluster C(CO);
  if (Healing) {
    heal::HealerOptions HO;
    HO.Seed = Seed ^ 0x4EA1D05EULL;
    HO.BaseBackoffUs = 50000;
    HO.MaxBackoffUs = 800000;
    HO.CooldownUs = 100000;
    HO.TargetReplication = Opts.Members;
    sync::MutexLock L(HealMu);
    Doc.emplace(C.scheme(), HO);
  }
  C.start();

  auto Submit = [&](size_t Count) {
    for (size_t I = 0; I != Count; ++I) {
      ++Result.OpsTotal;
      if (C.submitAndWait(/*Method=*/1 + (Result.OpsTotal % 7),
                          Opts.OpTimeoutMs))
        ++Result.OpsOk;
      else
        ++Result.OpsFailed;
    }
  };
  auto Reconfig = [&](const Config &To, const char *What) {
    ++Result.ReconfigsRequested;
    if (C.reconfigAndWait(To, Opts.ConvergeTimeoutMs)) {
      ++Result.ReconfigsCommitted;
      return true;
    }
    Result.Violations.push_back(std::string("rt: ") + What +
                                " never committed");
    return false;
  };

  NodeId Leader = C.waitForLeader(Opts.ConvergeTimeoutMs);
  if (Leader == InvalidNodeId) {
    Result.Violations.push_back("rt: no leader elected at startup");
  } else {
    size_t Half = Opts.NumOps / 2;
    Submit(Half);

    NodeId Victim = pickVictim(Opts.Members, Leader);
    switch (Opts.Kind) {
    case Scenario::Reconfigs:
      // Two full hot cycles: remove a follower, bring it back, twice.
      for (int Round = 0; Round != 2; ++Round) {
        Reconfig(configWithout(Opts.Members, Victim), "removal reconfig");
        Reconfig(C.initialConfig(), "re-add reconfig");
      }
      break;
    case Scenario::CrashMidReconfig:
      // Crash the node being removed while its removal is in flight:
      // the remaining members must commit it without the victim.
      C.crash(Victim);
      Reconfig(configWithout(Opts.Members, Victim),
               "removal with crashed subject");
      C.restart(Victim);
      Reconfig(C.initialConfig(), "re-add after restart");
      break;
    case Scenario::Mixed:
      // One crash/restart cycle plus one reconfig cycle.
      C.crash(Victim);
      Submit(2);
      C.restart(Victim);
      if (Reconfig(configWithout(Opts.Members, Victim), "mixed removal"))
        Reconfig(C.initialConfig(), "mixed re-add");
      break;
    case Scenario::ShardReconfig:
      // Unreachable: dispatched to runShardedRtScenario above. Listed
      // so the switch stays exhaustive under -Werror=switch.
      break;
    case Scenario::KillForever: {
      // Permanent kills: the victim never restarts, so only the healing
      // pipeline — the suspicion tap feeding the Healer, certified
      // reconfigs swapping spares in, snapshot catch-up for the
      // replacement — can restore the replication factor. One kill per
      // round, each of which must heal before the next.
      auto FullyReplicated = [&]() -> bool {
        NodeId L = C.waitForLeader(100);
        if (L == InvalidNodeId)
          return false;
        rt::RtNodeStatus LS = C.nodeStatus(L);
        NodeSet Members = C.scheme().mbrs(LS.Conf);
        if (Members.size() < Opts.Members)
          return false;
        for (NodeId M : Members) {
          rt::RtNodeStatus S = C.nodeStatus(M);
          if (S.Crashed || S.Passive || S.LogSize < LS.CommitIndex)
            return false;
        }
        return true;
      };
      auto HealStep = [&] {
        NodeId L = C.waitForLeader(100);
        if (L == InvalidNodeId)
          return;
        Config Cur = C.nodeStatus(L).Conf;
        std::optional<Config> P;
        {
          sync::MutexLock Lk(HealMu);
          P = Doc->tick(NowUs(), Cur, C.universe(), L);
        }
        if (!P)
          return;
        ++Result.ReconfigsRequested;
        bool Ok = C.reconfigAndWait(*P, Opts.ConvergeTimeoutMs);
        if (Ok)
          ++Result.ReconfigsCommitted;
        sync::MutexLock Lk(HealMu);
        Doc->onReconfigResult(Ok, NowUs());
      };

      uint64_t FirstKillUs = 0;
      size_t Kills = Opts.Spares < 2 ? Opts.Spares : 2;
      for (size_t K = 0; K != Kills; ++K) {
        NodeId L = C.waitForLeader(Opts.ConvergeTimeoutMs);
        if (L == InvalidNodeId) {
          Result.Violations.push_back("rt self-healing: no leader to "
                                      "observe the kill");
          break;
        }
        // Victim: the highest-id live member that is not the leader.
        NodeId KillVictim = InvalidNodeId;
        for (NodeId M : C.scheme().mbrs(C.nodeStatus(L).Conf))
          if (M != L && !C.nodeStatus(M).Crashed)
            KillVictim = M;
        if (KillVictim == InvalidNodeId)
          break;
        C.crash(KillVictim);
        ++Result.PermanentKills;
        uint64_t KillUs = NowUs();
        if (!FirstKillUs)
          FirstKillUs = KillUs;
        Submit(2);

        bool Healed = false;
        uint64_t Deadline = KillUs + 3 * Opts.ConvergeTimeoutMs * 1000;
        while (NowUs() < Deadline) {
          if (FullyReplicated()) {
            Healed = true;
            break;
          }
          HealStep();
          sleepMs(20);
        }
        if (!Healed) {
          Result.Violations.push_back(
              "rt self-healing: cluster never returned to full "
              "replication after kill " +
              std::to_string(K + 1));
          break;
        }
        Result.TimeToFullReplicationUs = NowUs() - KillUs;
      }
      {
        sync::MutexLock Lk(HealMu);
        if (FirstKillUs && FirstSuspectUs > FirstKillUs)
          Result.TimeToDetectUs = FirstSuspectUs - FirstKillUs;
      }
      break;
    }
    case Scenario::ClockDrift: {
      auto Read = [&](bool AtFollower) {
        ++Result.ReadsIssued;
        if (AtFollower)
          ++Result.ReadsAtFollower;
        if (C.readAndWait(Opts.OpTimeoutMs, AtFollower))
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
        C.crash(Victim);
        Submit(1);
        Read(/*AtFollower=*/false);
        sleepMs(50);
        C.restart(Victim);
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
      // Crash-flavored mapping for the network scenarios: the rt bus
      // has no cuttable links, so fault pressure comes from losing and
      // recovering a replica (twice, with traffic in between). Listed
      // explicitly (no default) so a new Scenario forces a decision
      // here under -Werror=switch instead of inheriting this mapping.
      for (int Round = 0; Round != 2; ++Round) {
        C.crash(Victim);
        Submit(2);
        sleepMs(50);
        C.restart(Victim);
        sleepMs(50);
      }
      break;
    }

    Submit(Opts.NumOps - Half);
    // Everything was healed inline; give in-flight appends one beat to
    // drain before the final audit.
    if (C.waitForLeader(Opts.ConvergeTimeoutMs) == InvalidNodeId)
      Result.Violations.push_back("rt: no leader after faults healed");
    sleepMs(100);
  }

  Result.HealedAll = true;
  C.stop();
  for (const std::string &V : C.checkFinalAgreement())
    Result.Violations.push_back("rt: " + V);
  Result.CommittedEntries = C.committedCount();
  if (Result.DurableStore)
    Result.Store = C.storeStats();
  if (Healing) {
    // Workers are joined: the cores are safe to inspect directly.
    for (NodeId Id : C.universe()) {
      const core::RaftCore &Core = C.coreForInspection(Id);
      Result.SnapshotBytesTransferred += Core.snapshotBytesReceived();
      Result.SnapshotsInstalled += Core.snapshotsInstalled();
    }
    sync::MutexLock Lk(HealMu);
    Result.HealReconfigsCommitted = Doc->heals();
    Result.HealReconfigRetries = Doc->retries();
  }
  return Result;
}
