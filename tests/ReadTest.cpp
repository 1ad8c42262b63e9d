//===- tests/ReadTest.cpp - Linearizable read protocol tests ----------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the read subsystem: the pure read/ layer (tier ladder,
/// client-side retry tracker) and the core protocol underneath it —
/// ReadIndex confirmation rounds, leader leases with drift derating,
/// reconfig-append invalidation, and lease-protected follower reads —
/// all driven by hand-built inputs, no event queue.
///
//===----------------------------------------------------------------------===//

#include "core/RaftCore.h"
#include "read/ReadPath.h"
#include "read/ReadTracker.h"

#include <gtest/gtest.h>

using namespace adore;
using namespace adore::core;

//===----------------------------------------------------------------------===//
// read/ReadPath.h: the tier ladder
//===----------------------------------------------------------------------===//

TEST(ReadPathTest, TierLadderIsMonotone) {
  read::ReadOptions R;
  R.LeaseDurationUs = 5000;
  R.MaxDriftPpm = 100;

  // Below the lease tiers a tier is pure client policy: the core's
  // options stay at their defaults, which grant no lease.
  CoreOptions Off;
  R.Tier = read::ReadTier::Off;
  read::applyTier(R, Off);
  EXPECT_EQ(Off.LeaseDurationUs, 0u);
  EXPECT_EQ(Off.MaxDriftPpm, 0u);

  CoreOptions Ri;
  R.Tier = read::ReadTier::ReadIndex;
  read::applyTier(R, Ri);
  EXPECT_EQ(Ri.LeaseDurationUs, 0u);
  EXPECT_EQ(Ri.MaxDriftPpm, 0u);

  CoreOptions Le;
  R.Tier = read::ReadTier::Lease;
  read::applyTier(R, Le);
  EXPECT_EQ(Le.LeaseDurationUs, 5000u);
  EXPECT_EQ(Le.MaxDriftPpm, 100u);

  CoreOptions Fo;
  R.Tier = read::ReadTier::FollowerLease;
  read::applyTier(R, Fo);
  EXPECT_EQ(Fo.LeaseDurationUs, 5000u);
  EXPECT_EQ(Fo.MaxDriftPpm, 100u);
}

TEST(ReadPathTest, TierNamesAreStableJsonKeys) {
  // bench_throughput uses these as JSON keys; renaming breaks report
  // consumers, so pin them.
  EXPECT_STREQ(read::tierName(read::ReadTier::Off), "log");
  EXPECT_STREQ(read::tierName(read::ReadTier::ReadIndex), "read_index");
  EXPECT_STREQ(read::tierName(read::ReadTier::Lease), "lease");
  EXPECT_STREQ(read::tierName(read::ReadTier::FollowerLease),
               "follower_lease");
}

//===----------------------------------------------------------------------===//
// read/ReadTracker.h: client-side targeting and NACK fallback
//===----------------------------------------------------------------------===//

TEST(ReadTrackerTest, LeaderTiersAlwaysTargetTheLeader) {
  read::ReadTracker T(read::ReadTier::Lease);
  std::vector<NodeId> Members{1, 2, 3};
  for (int I = 0; I != 4; ++I) {
    uint64_t Id = 0;
    read::ReadTarget Tgt = T.begin(Id, /*Leader=*/2, Members);
    EXPECT_EQ(Tgt.Node, 2u);
    EXPECT_TRUE(Tgt.AtLeader);
    T.onServed(Id, Tgt.AtLeader);
  }
  EXPECT_EQ(T.stats().Issued, 4u);
  EXPECT_EQ(T.stats().ServedAtLeader, 4u);
  EXPECT_EQ(T.stats().ServedAtFollower, 0u);
  EXPECT_EQ(T.inFlight(), 0u);
}

TEST(ReadTrackerTest, FollowerTierRoundRobinsOverNonLeaders) {
  read::ReadTracker T(read::ReadTier::FollowerLease);
  std::vector<NodeId> Members{1, 2, 3};
  std::vector<NodeId> Picked;
  for (int I = 0; I != 4; ++I) {
    uint64_t Id = 0;
    read::ReadTarget Tgt = T.begin(Id, /*Leader=*/1, Members);
    EXPECT_FALSE(Tgt.AtLeader);
    EXPECT_NE(Tgt.Node, 1u);
    Picked.push_back(Tgt.Node);
    T.onServed(Id, Tgt.AtLeader);
  }
  // Both followers get traffic, alternating.
  EXPECT_EQ(Picked[0], Picked[2]);
  EXPECT_EQ(Picked[1], Picked[3]);
  EXPECT_NE(Picked[0], Picked[1]);
  EXPECT_EQ(T.stats().ServedAtFollower, 4u);
}

TEST(ReadTrackerTest, NackFallsBackToLeaderExactlyOnce) {
  read::ReadTracker T(read::ReadTier::FollowerLease);
  std::vector<NodeId> Members{1, 2, 3};
  uint64_t Id = 0;
  read::ReadTarget Tgt = T.begin(Id, /*Leader=*/1, Members);
  EXPECT_FALSE(Tgt.AtLeader);

  read::ReadTarget Retry;
  ASSERT_TRUE(T.onNack(Id, /*Leader=*/1, Retry));
  EXPECT_EQ(Retry.Node, 1u);
  EXPECT_TRUE(Retry.AtLeader);
  EXPECT_EQ(T.stats().RetriedAtLeader, 1u);

  // A second NACK of the same read (the leader churned) fails it
  // instead of looping.
  EXPECT_FALSE(T.onNack(Id, /*Leader=*/1, Retry));
  EXPECT_EQ(T.stats().Failed, 1u);
  EXPECT_EQ(T.inFlight(), 0u);
}

TEST(ReadTrackerTest, StaleOutcomesAreIgnored) {
  read::ReadTracker T(read::ReadTier::ReadIndex);
  std::vector<NodeId> Members{1, 2, 3};
  uint64_t Id = 0;
  T.begin(Id, 1, Members);
  T.onServed(Id, true);
  // The same outcome delivered twice (late duplicate) changes nothing.
  T.onServed(Id, true);
  T.onFailed(Id);
  EXPECT_EQ(T.stats().ServedAtLeader, 1u);
  EXPECT_EQ(T.stats().Failed, 0u);
}

//===----------------------------------------------------------------------===//
// RaftCore read protocol, driven by hand
//===----------------------------------------------------------------------===//

namespace {

struct ReadHarness {
  std::unique_ptr<ReconfigScheme> Scheme;
  Config Conf;
  CoreOptions Opts;

  ReadHarness() : Conf(NodeSet{1, 2, 3}) {
    Scheme = makeScheme(SchemeKind::RaftSingleNode);
  }

  RaftCore make(NodeId Id, uint64_t Seed = 1) const {
    return RaftCore(Id, *Scheme, Conf, Opts, Seed);
  }
};

size_t count(const Effects &Effs, Effect::Kind K) {
  size_t N = 0;
  for (const Effect &E : Effs)
    N += E.K == K;
  return N;
}

const Effect *find(const Effects &Effs, Effect::Kind K) {
  for (const Effect &E : Effs)
    if (E.K == K)
      return &E;
  return nullptr;
}

/// Fire the election timer, then grant node 2's vote: C leads.
Effects electLeader(RaftCore &C) {
  Effects Out = C.onTimer(TimerId::Election, C.electionGen(), /*Now=*/0);
  Msg Grant;
  Grant.K = Msg::Kind::VoteReply;
  Grant.From = 2;
  Grant.To = C.id();
  Grant.Term = C.term();
  Grant.Granted = true;
  Effects Win = C.onMessage(Grant, /*Now=*/0);
  Out.insert(Out.end(), Win.begin(), Win.end());
  EXPECT_TRUE(C.isLeader());
  return Out;
}

/// Node 2 acks the leader's whole log: {1, 2} commits everything.
Effects ackLog(RaftCore &C, uint64_t Now = 0) {
  Msg Ack;
  Ack.K = Msg::Kind::AppendReply;
  Ack.From = 2;
  Ack.To = C.id();
  Ack.Term = C.term();
  Ack.Success = true;
  Ack.MatchIndex = C.logSize();
  return C.onMessage(Ack, Now);
}

/// Node \p From acks probe round \p Round.
Effects ackRound(RaftCore &C, NodeId From, uint64_t Round, uint64_t Now) {
  Msg Ack;
  Ack.K = Msg::Kind::ReadIndexReply;
  Ack.From = From;
  Ack.To = C.id();
  Ack.Term = C.term();
  Ack.Done = true;
  Ack.Success = true;
  Ack.ReadRound = Round;
  return C.onMessage(Ack, Now);
}

/// Fires the leader's heartbeat timer at \p Now.
Effects beat(RaftCore &C, uint64_t Now) {
  return C.onTimer(TimerId::Heartbeat, C.heartbeatGen(), Now);
}

/// The first send of a \p K message in \p Effs, or null.
const Effect *findSend(const Effects &Effs, Msg::Kind K) {
  for (const Effect &E : Effs)
    if (E.K == Effect::Kind::Send && E.M.K == K)
      return &E;
  return nullptr;
}

/// The round number carried by the first probe in \p Effs.
uint64_t probeRoundOf(const Effects &Effs) {
  for (const Effect &E : Effs)
    if (E.K == Effect::Kind::Send && E.M.K == Msg::Kind::ReadIndexQuery &&
        E.M.Done)
      return E.M.ReadRound;
  ADD_FAILURE() << "no probe in effects";
  return 0;
}

} // namespace

TEST(CoreReadTest, LeaselessLeaderConfirmsForwardedReadsByRound) {
  ReadHarness H;
  ASSERT_EQ(H.Opts.LeaseDurationUs, 0u); // The default: no lease.
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  ackLog(C);
  ASSERT_EQ(C.commitIndex(), 1u);

  // With no lease to keep warm, heartbeats carry no probes.
  for (uint64_t Now = 100; Now != 600; Now += 100)
    EXPECT_EQ(findSend(beat(C, Now), Msg::Kind::ReadIndexQuery), nullptr)
        << "at " << Now;

  // Follower 2 forwards a read. No lease can vouch for it, so the
  // leader captures its commit index and opens a confirmation round
  // instead of answering.
  Msg Fwd;
  Fwd.K = Msg::Kind::ReadIndexQuery;
  Fwd.From = 2;
  Fwd.To = 1;
  Fwd.Term = C.term();
  Fwd.Done = false;
  Fwd.ReadRound = 55;
  Effects Arrive = C.onMessage(Fwd, 700);
  EXPECT_EQ(findSend(Arrive, Msg::Kind::ReadIndexReply), nullptr);
  uint64_t Round = probeRoundOf(Arrive);

  // The commit index moves on while the round is in flight.
  Effects Sub;
  ASSERT_TRUE(C.submit(/*Method=*/42, /*ClientSeq=*/1, Sub));
  ackLog(C, 750);
  ASSERT_EQ(C.commitIndex(), 2u);

  // One ack completes the round: the reply goes out now, and carries
  // the index captured on arrival, not the current one.
  Effects Done = ackRound(C, 3, Round, 800);
  const Effect *Reply = findSend(Done, Msg::Kind::ReadIndexReply);
  ASSERT_NE(Reply, nullptr);
  EXPECT_EQ(Reply->M.To, 2u);
  EXPECT_FALSE(Reply->M.Done);
  EXPECT_TRUE(Reply->M.Success);
  EXPECT_EQ(Reply->M.ReadRound, 55u);
  EXPECT_EQ(Reply->M.LeaderCommit, 1u);
  EXPECT_EQ(C.leaseUntilUs(), 0u);
}

TEST(CoreReadTest, ReadIndexRoundConfirmsThenServes) {
  ReadHarness H;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  ackLog(C); // Commit the term-start no-op: commit index 1.
  ASSERT_EQ(C.commitIndex(), 1u);

  // The read captures the commit index and opens a confirmation round:
  // probes to both peers, no log append.
  Effects Out;
  EXPECT_TRUE(C.readQuery(7, /*Now=*/10, Out));
  EXPECT_EQ(count(Out, Effect::Kind::ReadReady), 0u);
  size_t LogBefore = C.logSize();
  size_t Probes = 0;
  for (const Effect &E : Out)
    if (E.K == Effect::Kind::Send) {
      EXPECT_EQ(E.M.K, Msg::Kind::ReadIndexQuery);
      EXPECT_TRUE(E.M.Done);
      ++Probes;
    }
  EXPECT_EQ(Probes, 2u);
  uint64_t Round = probeRoundOf(Out);

  // One ack makes {1, 2} a quorum: the read is released at the captured
  // index, still with no log growth.
  Effects AckEffs = ackRound(C, 2, Round, /*Now=*/20);
  const Effect *Ready = find(AckEffs, Effect::Kind::ReadReady);
  ASSERT_NE(Ready, nullptr);
  EXPECT_EQ(Ready->ReadId, 7u);
  EXPECT_EQ(Ready->Index, 1u);
  EXPECT_EQ(C.logSize(), LogBefore);
}

TEST(CoreReadTest, StaleRoundAcksAreIgnored) {
  ReadHarness H;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  ackLog(C);
  Effects Out;
  C.readQuery(7, 10, Out);
  uint64_t Round = probeRoundOf(Out);
  // An ack of a round that never ran must not complete this one.
  Effects Stale = ackRound(C, 2, Round + 5, 20);
  EXPECT_EQ(count(Stale, Effect::Kind::ReadReady), 0u);
  Effects Old = ackRound(C, 2, Round - 1, 20);
  EXPECT_EQ(count(Old, Effect::Kind::ReadReady), 0u);
  // The real ack still works.
  Effects Good = ackRound(C, 2, Round, 30);
  EXPECT_EQ(count(Good, Effect::Kind::ReadReady), 1u);
}

TEST(CoreReadTest, ReadsArrivingMidRoundBatchIntoTheNextOne) {
  ReadHarness H;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  ackLog(C);

  Effects Out1;
  C.readQuery(1, 10, Out1);
  uint64_t Round1 = probeRoundOf(Out1);
  // Two more reads land while the round is in flight: their captured
  // index must be re-confirmed, so they wait for the *next* round
  // rather than piggybacking on acks that may predate them.
  Effects Out2, Out3;
  C.readQuery(2, 11, Out2);
  C.readQuery(3, 12, Out3);
  EXPECT_EQ(count(Out2, Effect::Kind::Send), 0u);
  EXPECT_EQ(count(Out3, Effect::Kind::Send), 0u);

  // Completing round 1 releases read 1 and immediately opens round 2
  // for the two batched reads.
  Effects Ack1 = ackRound(C, 2, Round1, 20);
  EXPECT_EQ(count(Ack1, Effect::Kind::ReadReady), 1u);
  uint64_t Round2 = probeRoundOf(Ack1);
  EXPECT_EQ(Round2, Round1 + 1);

  // One confirmation round serves the whole batch.
  Effects Ack2 = ackRound(C, 2, Round2, 30);
  EXPECT_EQ(count(Ack2, Effect::Kind::ReadReady), 2u);
}

TEST(CoreReadTest, LeaseHolderServesWithoutMessages) {
  ReadHarness H;
  H.Opts.LeaseDurationUs = 10000;
  H.Opts.MaxDriftPpm = 0;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  ackLog(C);

  // The first read pays a confirmation round, which doubles as the
  // lease grant.
  Effects Out;
  C.readQuery(1, /*Now=*/100, Out);
  uint64_t Round = probeRoundOf(Out);
  ackRound(C, 2, Round, 150);
  ASSERT_NE(C.leaseUntilUs(), 0u);
  EXPECT_EQ(C.leaseUntilUs(), 100u + 10000u); // Anchored at round start.

  // While the lease holds, reads are answered instantly: one ReadReady,
  // zero sends.
  Effects Fast;
  EXPECT_TRUE(C.readQuery(2, 5000, Fast));
  const Effect *Ready = find(Fast, Effect::Kind::ReadReady);
  ASSERT_NE(Ready, nullptr);
  EXPECT_EQ(Ready->Index, C.commitIndex());
  EXPECT_EQ(count(Fast, Effect::Kind::Send), 0u);

  // Past expiry the fast path is gone; the read opens a round again.
  Effects Slow;
  EXPECT_TRUE(C.readQuery(3, 20000, Slow));
  EXPECT_EQ(count(Slow, Effect::Kind::ReadReady), 0u);
  EXPECT_GE(count(Slow, Effect::Kind::Send), 2u);
}

TEST(CoreReadTest, LeaseIsDeratedByDeclaredDrift) {
  ReadHarness H;
  H.Opts.LeaseDurationUs = 10000;
  H.Opts.MaxDriftPpm = 100000; // 10% per clock: derate by 20%.
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  ackLog(C);
  Effects Out;
  C.readQuery(1, /*Now=*/0, Out);
  ackRound(C, 2, probeRoundOf(Out), 10);
  EXPECT_EQ(C.leaseUntilUs(), 8000u);

  // At 50% declared drift the derated window collapses to nothing and
  // no lease may be granted at all.
  ReadHarness H2;
  H2.Opts = H.Opts;
  H2.Opts.MaxDriftPpm = 500000;
  RaftCore C2 = H2.make(1);
  C2.start();
  electLeader(C2);
  ackLog(C2);
  Effects Out2;
  C2.readQuery(1, 0, Out2);
  ackRound(C2, 2, probeRoundOf(Out2), 10);
  EXPECT_EQ(C2.leaseUntilUs(), 0u);
  // Nor do heartbeats try to keep one warm: they send no probes.
  for (uint64_t Now = 100; Now != 600; Now += 100)
    EXPECT_EQ(findSend(beat(C2, Now), Msg::Kind::ReadIndexQuery), nullptr)
        << "at " << Now;
}

TEST(CoreReadTest, ReconfigAppendKillsTheLeaseAndPendingReads) {
  ReadHarness H;
  H.Opts.LeaseDurationUs = 10000;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  ackLog(C);
  Effects Out;
  C.readQuery(1, 0, Out);
  ackRound(C, 2, probeRoundOf(Out), 10);
  ASSERT_NE(C.leaseUntilUs(), 0u);

  // Park a read behind a fresh confirmation round, then append a
  // reconfiguration: the lease dies *at append time* (the new quorum
  // could commit without us) and the parked read fails rather than
  // being served under a dead promise.
  Effects Park;
  C.readQuery(2, 11000, Park); // Past expiry: queues behind a round.
  ASSERT_EQ(count(Park, Effect::Kind::ReadReady), 0u);
  Effects Rc;
  Config Grown(NodeSet{1, 2, 3, 4});
  ASSERT_TRUE(C.requestReconfig(Grown, Rc));
  EXPECT_EQ(C.leaseUntilUs(), 0u);
  const Effect *Fail = find(Rc, Effect::Kind::ReadFailed);
  ASSERT_NE(Fail, nullptr);
  EXPECT_EQ(Fail->ReadId, 2u);

  // While the reconfig sits uncommitted, completing a round confirms
  // reads but must NOT re-grant a lease (R2 gating). The round now
  // runs in the grown configuration: quorum is 3 of {1,2,3,4}.
  Effects After;
  C.readQuery(3, 12000, After);
  uint64_t Round = probeRoundOf(After);
  ackRound(C, 2, Round, 12400);
  Effects Done = ackRound(C, 3, Round, 12500);
  EXPECT_EQ(count(Done, Effect::Kind::ReadReady), 1u);
  EXPECT_EQ(C.leaseUntilUs(), 0u);
}

TEST(CoreReadTest, MutationHookServesPastExpiry) {
  // The chaos mutation test's hook: with TestIgnoreLeaseExpiry set, a
  // leader keeps serving lease reads after the lease lapsed — the bug
  // the linearizability checker must catch downstream.
  ReadHarness H;
  H.Opts.LeaseDurationUs = 10000;
  H.Opts.TestIgnoreLeaseExpiry = true;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  ackLog(C);
  Effects Out;
  C.readQuery(1, 0, Out);
  ackRound(C, 2, probeRoundOf(Out), 10);
  ASSERT_NE(C.leaseUntilUs(), 0u);
  EXPECT_TRUE(C.leaseLiveAt(C.leaseUntilUs() + 1000000));

  Effects Fast;
  EXPECT_TRUE(C.readQuery(2, C.leaseUntilUs() + 1000000, Fast));
  EXPECT_EQ(count(Fast, Effect::Kind::ReadReady), 1u);
}

TEST(CoreReadTest, FollowerForwardsAndServesAtTheLeadersIndex) {
  ReadHarness H;
  H.Opts.LeaseDurationUs = 10000;
  RaftCore F = H.make(2);
  F.start();

  // Leader 1 announces itself with an empty heartbeat.
  Msg Hb;
  Hb.K = Msg::Kind::AppendEntries;
  Hb.From = 1;
  Hb.To = 2;
  Hb.Term = 1;
  F.onMessage(Hb, 0);

  // The follower forwards the read to its leader hint.
  Effects Out;
  EXPECT_TRUE(F.readQuery(7, 10, Out));
  const Effect *Fwd = find(Out, Effect::Kind::Send);
  ASSERT_NE(Fwd, nullptr);
  EXPECT_EQ(Fwd->M.K, Msg::Kind::ReadIndexQuery);
  EXPECT_FALSE(Fwd->M.Done);
  EXPECT_EQ(Fwd->M.To, 1u);
  uint64_t Cookie = Fwd->M.ReadRound;

  // The leader grants at safe index 0 (<= our applied prefix): served
  // immediately on receipt.
  Msg Grant;
  Grant.K = Msg::Kind::ReadIndexReply;
  Grant.From = 1;
  Grant.To = 2;
  Grant.Term = 1;
  Grant.Done = false;
  Grant.Success = true;
  Grant.ReadRound = Cookie;
  Grant.LeaderCommit = 0;
  Effects Served = F.onMessage(Grant, 20);
  const Effect *Ready = find(Served, Effect::Kind::ReadReady);
  ASSERT_NE(Ready, nullptr);
  EXPECT_EQ(Ready->ReadId, 7u);
}

TEST(CoreReadTest, ForwardedReadWaitsForTheApplyFrontier) {
  ReadHarness H;
  RaftCore F = H.make(2);
  F.start();

  // Leader 1 replicates one entry but hasn't advanced the commit yet.
  Msg App;
  App.K = Msg::Kind::AppendEntries;
  App.From = 1;
  App.To = 2;
  App.Term = 1;
  LogEntry E;
  E.Term = 1;
  E.Method = 42;
  App.Entries.push_back(E);
  F.onMessage(App, 0);

  Effects Out;
  EXPECT_TRUE(F.readQuery(7, 10, Out));
  uint64_t Cookie = find(Out, Effect::Kind::Send)->M.ReadRound;

  // The leader's safe index is 1, but we have applied nothing: the read
  // must park until our apply frontier catches up.
  Msg Grant;
  Grant.K = Msg::Kind::ReadIndexReply;
  Grant.From = 1;
  Grant.To = 2;
  Grant.Term = 1;
  Grant.Done = false;
  Grant.Success = true;
  Grant.ReadRound = Cookie;
  Grant.LeaderCommit = 1;
  Effects Parked = F.onMessage(Grant, 20);
  EXPECT_EQ(count(Parked, Effect::Kind::ReadReady), 0u);

  // A heartbeat advancing the commit applies the entry and releases the
  // read — Apply precedes ReadReady, so the state machine is current.
  Msg Hb;
  Hb.K = Msg::Kind::AppendEntries;
  Hb.From = 1;
  Hb.To = 2;
  Hb.Term = 1;
  Hb.PrevIndex = 1;
  Hb.PrevTerm = 1;
  Hb.LeaderCommit = 1;
  Effects Rel = F.onMessage(Hb, 30);
  const Effect *Apply = find(Rel, Effect::Kind::Apply);
  const Effect *Ready = find(Rel, Effect::Kind::ReadReady);
  ASSERT_NE(Apply, nullptr);
  ASSERT_NE(Ready, nullptr);
  EXPECT_EQ(Ready->ReadId, 7u);
  EXPECT_EQ(Ready->Index, 1u);
  EXPECT_LT(Apply - &Rel[0], Ready - &Rel[0]);
}

TEST(CoreReadTest, NonLeaderNacksForwardedReads) {
  ReadHarness H;
  RaftCore F = H.make(2);
  F.start();

  // A forwarded read lands on a node that is not the leader: it must
  // NACK (Success=false) so the client retries at the real leader.
  Msg Fwd;
  Fwd.K = Msg::Kind::ReadIndexQuery;
  Fwd.From = 3;
  Fwd.To = 2;
  Fwd.Term = 0;
  Fwd.Done = false;
  Fwd.ReadRound = 99;
  Effects Out = F.onMessage(Fwd, 0);
  const Effect *Nack = find(Out, Effect::Kind::Send);
  ASSERT_NE(Nack, nullptr);
  EXPECT_EQ(Nack->M.K, Msg::Kind::ReadIndexReply);
  EXPECT_FALSE(Nack->M.Done);
  EXPECT_FALSE(Nack->M.Success);
  EXPECT_EQ(Nack->M.ReadRound, 99u);

  // And the forwarding side translates that NACK into ReadFailed.
  Effects Q;
  Msg Hb;
  Hb.K = Msg::Kind::AppendEntries;
  Hb.From = 1;
  Hb.To = 2;
  Hb.Term = 1;
  F.onMessage(Hb, 0);
  F.readQuery(7, 10, Q);
  uint64_t Cookie = find(Q, Effect::Kind::Send)->M.ReadRound;
  Msg Deny;
  Deny.K = Msg::Kind::ReadIndexReply;
  Deny.From = 1;
  Deny.To = 2;
  Deny.Term = 1;
  Deny.Done = false;
  Deny.Success = false;
  Deny.ReadRound = Cookie;
  Effects Failed = F.onMessage(Deny, 20);
  const Effect *Fail = find(Failed, Effect::Kind::ReadFailed);
  ASSERT_NE(Fail, nullptr);
  EXPECT_EQ(Fail->ReadId, 7u);
}

TEST(CoreReadTest, CrashedCoreFailsReadsSynchronously) {
  ReadHarness H;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  C.crash();
  Effects Out;
  EXPECT_FALSE(C.readQuery(7, 0, Out));
  EXPECT_NE(find(Out, Effect::Kind::ReadFailed), nullptr);
  EXPECT_EQ(count(Out, Effect::Kind::Send), 0u);
}

TEST(CoreReadTest, LosingLeadershipFailsParkedReads) {
  ReadHarness H;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  ackLog(C);
  Effects Out;
  C.readQuery(7, 10, Out);

  // A higher-term message dethrones the leader before the round
  // completes: the parked read must fail, not hang forever. Vote
  // stickiness makes a leader ignore bare RequestVotes, so this one
  // rides a deliberate leadership transfer.
  Msg RV;
  RV.K = Msg::Kind::RequestVote;
  RV.From = 3;
  RV.To = 1;
  RV.Term = C.term() + 1;
  RV.LastLogTerm = C.term();
  RV.LastLogIndex = C.logSize();
  RV.TransferElection = true;
  Effects Down = C.onMessage(RV, 20);
  const Effect *Fail = find(Down, Effect::Kind::ReadFailed);
  ASSERT_NE(Fail, nullptr);
  EXPECT_EQ(Fail->ReadId, 7u);
}
