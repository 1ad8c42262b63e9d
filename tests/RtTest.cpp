//===- tests/RtTest.cpp - Real-time runtime tests ----------------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the threaded runtime: the wire format (round-trips and
/// malformed-frame rejection) and RtCluster smoke runs — leader
/// election, concurrent client traffic, a hot reconfiguration, and a
/// crash/restart — on real threads against the wall clock. These are
/// the tests CI runs under ThreadSanitizer.
///
//===----------------------------------------------------------------------===//

#include "net/Framing.h"
#include "rt/Bus.h"
#include "rt/RtCluster.h"
#include "rt/Wire.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

using namespace adore;
using namespace adore::rt;

//===----------------------------------------------------------------------===//
// Wire format
//===----------------------------------------------------------------------===//

namespace {

core::Msg sampleMsg(core::Msg::Kind K) {
  core::Msg M;
  M.K = K;
  M.From = 3;
  M.To = 1;
  M.Term = 7;
  switch (K) {
  case core::Msg::Kind::RequestVote:
    M.LastLogTerm = 6;
    M.LastLogIndex = 41;
    M.TransferElection = true;
    break;
  case core::Msg::Kind::VoteReply:
    M.Granted = true;
    break;
  case core::Msg::Kind::AppendEntries: {
    M.PrevIndex = 12;
    M.PrevTerm = 5;
    M.LeaderCommit = 11;
    core::LogEntry Cmd;
    Cmd.Term = 6;
    Cmd.Kind = raft::EntryKind::Method;
    Cmd.Method = 99;
    Cmd.ClientSeq = 1234567890123ull;
    core::LogEntry Rcf;
    Rcf.Term = 7;
    Rcf.Kind = raft::EntryKind::Reconfig;
    Rcf.Conf = Config(NodeSet{1, 3, 5});
    M.Entries = {Cmd, Rcf};
    break;
  }
  case core::Msg::Kind::AppendReply:
    M.Success = true;
    M.MatchIndex = 14;
    break;
  case core::Msg::Kind::TimeoutNow:
    break;
  case core::Msg::Kind::InstallSnapshot:
    M.SnapIndex = 23;
    M.SnapTerm = 6;
    M.Offset = 8192;
    M.Chunk = std::string("snapshot-bytes\x00with-nul", 22);
    M.Done = true;
    break;
  case core::Msg::Kind::InstallSnapshotReply:
    M.Success = true;
    M.SnapIndex = 23;
    M.Offset = 8214;
    M.Done = true;
    break;
  case core::Msg::Kind::ReadIndexQuery:
    M.Done = true; // A confirmation-round probe.
    M.ReadRound = 42;
    break;
  case core::Msg::Kind::ReadIndexReply:
    M.Done = false; // An answer to a forwarded read.
    M.Success = true;
    M.ReadRound = 777; // The forwarding follower's cookie.
    M.LeaderCommit = 19; // The safe index.
    break;
  }
  return M;
}

void expectMsgEq(const core::Msg &A, const core::Msg &B) {
  EXPECT_EQ(A.K, B.K);
  EXPECT_EQ(A.From, B.From);
  EXPECT_EQ(A.To, B.To);
  EXPECT_EQ(A.Term, B.Term);
  EXPECT_EQ(A.LastLogTerm, B.LastLogTerm);
  EXPECT_EQ(A.LastLogIndex, B.LastLogIndex);
  EXPECT_EQ(A.TransferElection, B.TransferElection);
  EXPECT_EQ(A.Granted, B.Granted);
  EXPECT_EQ(A.PrevIndex, B.PrevIndex);
  EXPECT_EQ(A.PrevTerm, B.PrevTerm);
  EXPECT_EQ(A.LeaderCommit, B.LeaderCommit);
  EXPECT_EQ(A.Success, B.Success);
  EXPECT_EQ(A.MatchIndex, B.MatchIndex);
  EXPECT_EQ(A.SnapIndex, B.SnapIndex);
  EXPECT_EQ(A.SnapTerm, B.SnapTerm);
  EXPECT_EQ(A.Offset, B.Offset);
  EXPECT_EQ(A.Chunk, B.Chunk);
  EXPECT_EQ(A.Done, B.Done);
  EXPECT_EQ(A.ReadRound, B.ReadRound);
  ASSERT_EQ(A.Entries.size(), B.Entries.size());
  for (size_t I = 0; I != A.Entries.size(); ++I)
    EXPECT_EQ(A.Entries[I], B.Entries[I]);
}

} // namespace

TEST(WireTest, RoundTripsEveryMessageKind) {
  for (auto K :
       {core::Msg::Kind::RequestVote, core::Msg::Kind::VoteReply,
        core::Msg::Kind::AppendEntries, core::Msg::Kind::AppendReply,
        core::Msg::Kind::TimeoutNow, core::Msg::Kind::InstallSnapshot,
        core::Msg::Kind::InstallSnapshotReply,
        core::Msg::Kind::ReadIndexQuery, core::Msg::Kind::ReadIndexReply}) {
    core::Msg In = sampleMsg(K);
    std::string Bytes = encodeMsg(In);
    core::Msg Out;
    ASSERT_TRUE(decodeMsg(Bytes, Out));
    expectMsgEq(In, Out);
  }
}

TEST(WireTest, GoldenInstallSnapshotFrameIsPinned) {
  // The InstallSnapshot frame layout is an on-wire contract between
  // mixed-version replicas: a fixed chunked-transfer message must
  // encode to exactly the bytes pinned in the golden file (hex, one
  // line). Any drift — field order, widths, endianness, a new field
  // without a version bump — fails here before it can strand a
  // catch-up transfer between peers that disagree on the layout.
  core::Msg M;
  M.K = core::Msg::Kind::InstallSnapshot;
  M.From = 1;
  M.To = 4;
  M.Term = 3;
  M.SnapIndex = 17;
  M.SnapTerm = 2;
  M.Offset = 256;
  M.Done = false;
  M.Chunk = std::string("chunk\x00payload", 13);
  std::string Bytes = encodeMsg(M);
  std::string Hex;
  for (unsigned char C : Bytes) {
    char Buf[3];
    std::snprintf(Buf, sizeof(Buf), "%02x", C);
    Hex += Buf;
  }

  std::string GoldenPath =
      std::string(ADORE_TEST_GOLDEN_DIR) + "/install_snapshot_frame.hex";
  if (std::getenv("ADORE_UPDATE_GOLDEN")) {
    std::ofstream Out(GoldenPath);
    Out << Hex << "\n";
  }
  std::ifstream In(GoldenPath);
  ASSERT_TRUE(In.good()) << "golden file missing";
  std::string Golden;
  In >> Golden;
  EXPECT_EQ(Hex, Golden)
      << "InstallSnapshot wire layout drifted from the golden frame";

  // And the pinned bytes still decode to the same message.
  core::Msg Out;
  ASSERT_TRUE(decodeMsg(Bytes, Out));
  expectMsgEq(M, Out);
}

TEST(WireTest, RejectsTruncatedFrames) {
  std::string Bytes = encodeMsg(sampleMsg(core::Msg::Kind::AppendEntries));
  core::Msg Out;
  // Every strict prefix must fail, not crash or mis-parse.
  for (size_t Len = 0; Len != Bytes.size(); ++Len)
    EXPECT_FALSE(decodeMsg(Bytes.substr(0, Len), Out)) << "prefix " << Len;
}

TEST(WireTest, RejectsTrailingGarbage) {
  std::string Bytes = encodeMsg(sampleMsg(core::Msg::Kind::VoteReply));
  core::Msg Out;
  EXPECT_FALSE(decodeMsg(Bytes + "x", Out));
}

TEST(WireTest, RejectsBadKindAndHugeCounts) {
  std::string Bytes = encodeMsg(sampleMsg(core::Msg::Kind::AppendEntries));
  core::Msg Out;
  {
    // Corrupt the message-kind byte (the first byte of the frame).
    std::string Bad = Bytes;
    Bad[0] = char(0xEE);
    EXPECT_FALSE(decodeMsg(Bad, Out));
  }
  {
    // An absurd declared entry count (the u64 after the fixed header)
    // must be rejected before any allocation.
    constexpr size_t CountOff = 1 + 4 + 4 + 8 * 3 + 2 + 8 * 3 + 1 + 8;
    std::string Bad = Bytes;
    for (size_t I = 0; I != 8; ++I)
      Bad[CountOff + I] = char(0xFF);
    EXPECT_FALSE(decodeMsg(Bad, Out));
  }
  EXPECT_FALSE(decodeMsg(std::string(), Out));
}

//===----------------------------------------------------------------------===//
// RtCluster smoke — the TSan targets
//===----------------------------------------------------------------------===//

TEST(RtClusterTest, ElectsALeaderQuickly) {
  RtClusterOptions Opts;
  RtCluster C(Opts);
  C.start();
  NodeId Leader = C.waitForLeader(5000);
  EXPECT_NE(Leader, InvalidNodeId);
  C.stop();
  EXPECT_TRUE(C.violations().empty());
}

TEST(RtClusterTest, ConcurrentClientsAllCommit) {
  // The headline smoke: 100 operations from four genuinely concurrent
  // client threads, each observing commitment through the shared ledger.
  RtClusterOptions Opts;
  Opts.Seed = 7;
  RtCluster C(Opts);
  C.start();
  ASSERT_NE(C.waitForLeader(5000), InvalidNodeId);

  constexpr int NumClients = 4;
  constexpr int OpsPerClient = 25;
  std::atomic<int> Committed{0};
  std::vector<std::thread> Clients;
  for (int T = 0; T != NumClients; ++T)
    Clients.emplace_back([&C, &Committed, T] {
      for (int I = 0; I != OpsPerClient; ++I)
        if (C.submitAndWait(MethodId(100 + T * OpsPerClient + I), 10000))
          ++Committed;
    });
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Committed.load(), NumClients * OpsPerClient);
  C.stop();
  EXPECT_TRUE(C.violations().empty());
  EXPECT_TRUE(C.checkFinalAgreement().empty());
  EXPECT_GE(C.committedCount(), size_t(NumClients * OpsPerClient));
}

TEST(RtClusterTest, HotReconfigUnderTraffic) {
  RtClusterOptions Opts;
  Opts.Seed = 13;
  RtCluster C(Opts);
  C.start();
  ASSERT_NE(C.waitForLeader(5000), InvalidNodeId);
  ASSERT_TRUE(C.submitAndWait(1, 10000));

  // Shrink by one, keep traffic flowing, then grow back.
  NodeId Leader = C.waitForLeader(5000);
  ASSERT_NE(Leader, InvalidNodeId);
  NodeSet Shrunk;
  for (NodeId Id : C.scheme().mbrs(C.initialConfig()))
    if (Id == Leader || Shrunk.size() + 1 < C.numNodes())
      Shrunk.insert(Id);
  EXPECT_TRUE(C.reconfigAndWait(Config(Shrunk), 10000));
  EXPECT_TRUE(C.submitAndWait(2, 10000));
  EXPECT_TRUE(C.reconfigAndWait(C.initialConfig(), 10000));
  EXPECT_TRUE(C.submitAndWait(3, 10000));

  C.stop();
  EXPECT_TRUE(C.violations().empty());
  EXPECT_TRUE(C.checkFinalAgreement().empty());
}

TEST(RtClusterTest, ConcurrentLifecycleIsSerialized) {
  // Regression test for the lock-discipline holes the thread-safety
  // annotations surfaced: RtCluster::Running was an unguarded flag and
  // RtNode::Worker (the std::thread object itself) was written by
  // start() and joined by stop() with no common lock, so concurrent
  // lifecycle calls could double-start workers or join a thread being
  // assigned. Both are now serialized under LifeMu; this hammers the
  // old interleavings. The race was on the lifecycle state, not the
  // data path, so the TSan CI job is where a regression shows up.
  RtClusterOptions Opts;
  Opts.Seed = 31;
  RtCluster C(Opts);

  constexpr int NumRacers = 4;
  constexpr int CyclesPerRacer = 8;
  std::vector<std::thread> Racers;
  for (int T = 0; T != NumRacers; ++T)
    Racers.emplace_back([&C, T] {
      for (int I = 0; I != CyclesPerRacer; ++I) {
        if ((T + I) % 2 == 0)
          C.start();
        else
          C.stop();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  for (std::thread &T : Racers)
    T.join();

  // Whatever state the race left behind, the cluster must still be
  // fully usable: idempotent start, an election, a commit, clean stop.
  C.start();
  ASSERT_NE(C.waitForLeader(5000), InvalidNodeId);
  EXPECT_TRUE(C.submitAndWait(1, 10000));
  C.stop();
  C.stop(); // Idempotent.
  EXPECT_TRUE(C.violations().empty());
  EXPECT_TRUE(C.checkFinalAgreement().empty());
}

TEST(RtClusterTest, SurvivesCrashAndRestart) {
  RtClusterOptions Opts;
  Opts.Seed = 23;
  RtCluster C(Opts);
  C.start();
  NodeId Leader = C.waitForLeader(5000);
  ASSERT_NE(Leader, InvalidNodeId);
  ASSERT_TRUE(C.submitAndWait(1, 10000));

  // Kill the leader; the survivors fail over and keep committing.
  C.crash(Leader);
  EXPECT_TRUE(C.submitAndWait(2, 15000));
  C.restart(Leader);
  EXPECT_TRUE(C.submitAndWait(3, 10000));

  C.stop();
  EXPECT_TRUE(C.violations().empty());
  EXPECT_TRUE(C.checkFinalAgreement().empty());
}

TEST(RtClusterTest, ClientIsWokenOncePerCommit) {
  // A cost-ledger row: a write wakes the waiting client when its index
  // first enters the ledger. The other replicas' applies of the same
  // index are checked for divergence but wake nobody.
  RtClusterOptions Opts;
  Opts.Seed = 37;
  RtCluster C(Opts);
  C.start();
  ASSERT_NE(C.waitForLeader(5000), InvalidNodeId);
  constexpr int NumOps = 200;
  for (int I = 0; I != NumOps; ++I)
    ASSERT_TRUE(C.submitAndWait(MethodId(I), 10000));
  C.stop();
  // No reads ran, so new ledger entries are the only wake-ups owed.
  EXPECT_GE(C.committedCount(), size_t(NumOps));
  EXPECT_LE(C.observerBroadcasts(), C.committedCount());
  EXPECT_TRUE(C.violations().empty());
}

TEST(RtClusterTest, AbandonedReadAnswersAreDropped) {
  // ReadIndex with no lease: with both followers down the leader cannot
  // confirm a round, so every 40 ms attempt gives up with its read still
  // queued there. Once the followers return, those reads are answered
  // late, and nothing may keep the answers.
  RtClusterOptions Opts;
  Opts.Seed = 41;
  RtCluster C(Opts);
  C.start();
  NodeId Leader = C.waitForLeader(5000);
  ASSERT_NE(Leader, InvalidNodeId);
  ASSERT_TRUE(C.submitAndWait(1, 10000));

  std::vector<NodeId> Followers;
  for (NodeId Id : C.universe())
    if (Id != Leader)
      Followers.push_back(Id);
  for (NodeId Id : Followers)
    C.crash(Id);
  EXPECT_FALSE(C.readAndWait(150).has_value());
  for (NodeId Id : Followers)
    C.restart(Id);

  // A fresh read is served by a round that also releases every older
  // queued read (or by a new leader, after the old one failed them), so
  // once it returns all the late answers have landed.
  ASSERT_TRUE(C.readAndWait(10000).has_value());
  EXPECT_EQ(C.readResultCount(), 0u);
  C.stop();
  EXPECT_TRUE(C.violations().empty());
}

//===----------------------------------------------------------------------===//
// RtNode: who steps the core
//===----------------------------------------------------------------------===//

namespace {

/// A one-shot gate: wait() blocks until open().
class Gate {
public:
  void open() {
    std::lock_guard<std::mutex> L(M);
    Opened = true;
    Cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> L(M);
    Cv.wait(L, [this] { return Opened; });
  }

private:
  std::mutex M;
  std::condition_variable Cv;
  bool Opened = false;
};

/// Polls \p Done every millisecond for up to \p Ms.
bool eventually(const std::function<bool()> &Done, int Ms = 5000) {
  auto Until = std::chrono::steady_clock::now() + std::chrono::milliseconds(Ms);
  while (!Done()) {
    if (std::chrono::steady_clock::now() >= Until)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Every timer 10 s away: nothing wakes a test's worker on its own.
core::CoreOptions quietOptions() {
  core::CoreOptions O;
  O.ElectionTimeoutMinUs = 10000000;
  O.ElectionTimeoutMaxUs = 10000000;
  O.HeartbeatUs = 10000000;
  return O;
}

/// Lets the worker finish whatever it is stepping and go idle.
void settle() { std::this_thread::sleep_for(std::chrono::milliseconds(50)); }

/// Elects a one-member node at once: a TimeoutNow frame starts its
/// election, and it is its own quorum.
void electAlone(Bus &B, RtNode &N) {
  settle();
  core::Msg M;
  M.K = core::Msg::Kind::TimeoutNow;
  M.From = N.id();
  M.To = N.id();
  M.Term = N.status().Term;
  B.post(N.id(), encodeMsg(M));
  ASSERT_TRUE(eventually(
      [&N] { return N.status().Role == core::Role::Leader; }));
  settle();
}

/// Per-thread tallies of a node's client applies (a leader's no-op has
/// no ClientSeq) and read answers.
struct Probe {
  const std::thread::id Caller = std::this_thread::get_id();
  std::atomic<int> AppliesHere{0}, AppliesElsewhere{0};
  std::atomic<int> ReadsOkHere{0}, ReadsOther{0};
  /// The answer to each read, +1 Ok or -1 failed.
  std::mutex M;
  std::map<uint64_t, int> Answers;

  core::HostHooks hooks() {
    core::HostHooks H;
    H.OnApply = [this](NodeId, size_t, const core::LogEntry &E) {
      if (E.ClientSeq != 0)
        ++(std::this_thread::get_id() == Caller ? AppliesHere
                                                : AppliesElsewhere);
    };
    H.OnRead = [this](NodeId, uint64_t Id, bool Ok, size_t) {
      ++(Ok && std::this_thread::get_id() == Caller ? ReadsOkHere
                                                    : ReadsOther);
      std::lock_guard<std::mutex> L(M);
      Answers[Id] = Ok ? 1 : -1;
    };
    return H;
  }

  int answer(uint64_t Id) {
    std::lock_guard<std::mutex> L(M);
    auto It = Answers.find(Id);
    return It == Answers.end() ? 0 : It->second;
  }
};

} // namespace

TEST(RtNodeTest, IdleNodeStepsOnTheCallersThread) {
  // A one-node cluster is its own quorum, and with a 10 s heartbeat no
  // timer fires after its election, so the leader is idle whenever this
  // thread calls in: each write applies on this thread before
  // submitAndWait returns.
  const std::thread::id Caller = std::this_thread::get_id();
  std::atomic<int> AppliesHere{0}, AppliesElsewhere{0};
  RtClusterOptions O;
  O.NumNodes = 1;
  O.Node.HeartbeatUs = 10000000;
  O.OnApplyExtra = [&](NodeId, size_t, const core::LogEntry &E) {
    if (E.ClientSeq != 0) // Not the leader's no-op.
      ++(std::this_thread::get_id() == Caller ? AppliesHere
                                              : AppliesElsewhere);
  };
  RtCluster C(O);
  C.start();
  ASSERT_NE(C.waitForLeader(5000), InvalidNodeId);
  settle();
  for (int I = 0; I != 100; ++I) {
    ASSERT_TRUE(C.submitAndWait(MethodId(I), 5000));
    ASSERT_EQ(AppliesHere.load(), I + 1);
  }
  for (int I = 0; I != 100; ++I)
    ASSERT_TRUE(C.readAndWait(5000).has_value());
  C.stop();
  EXPECT_EQ(AppliesElsewhere.load(), 0);
  EXPECT_TRUE(C.violations().empty());
}

TEST(RtNodeTest, IdleNodeAnswersReadsOnTheCallersThread) {
  // The same at the node, where the read hook is visible: a one-member
  // leader with no timer due commits each write, and answers each read,
  // on this thread before submit() or read() returns.
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  Bus B;
  Probe P;
  RtNode N(1, *Scheme, Config(NodeSet{1}), quietOptions(), 3, B, P.hooks());
  N.start();
  electAlone(B, N);
  for (int I = 0; I != 100; ++I) {
    N.submit(MethodId(I), uint64_t(I) + 1);
    ASSERT_EQ(P.AppliesHere.load(), I + 1);
  }
  for (int I = 0; I != 100; ++I) {
    N.read(uint64_t(I) + 1);
    ASSERT_EQ(P.ReadsOkHere.load(), I + 1);
  }
  N.stop();
  EXPECT_EQ(P.AppliesElsewhere.load(), 0);
  EXPECT_EQ(P.ReadsOther.load(), 0);
}

TEST(RtNodeTest, InputsPostedDuringACrashBarrierStepAfterIt) {
  // Crash is a barrier for the worker. A read posted while it runs, or
  // while it waits in the inbox behind a busy core, is stepped after it
  // and fails; it is never served Ok by the pre-crash leader.
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  Bus B;
  Probe P;
  store::MemVfs Disk(5);
  store::NodeStore St(Disk, "n1");
  std::atomic<bool> BlockCrash{true};
  Gate InCrash, EndCrash;
  St.setCrashHook([&] {
    if (BlockCrash) {
      InCrash.open();
      EndCrash.wait();
    }
  });
  std::atomic<bool> BlockApply{false};
  Gate InApply, EndApply;
  core::HostHooks H = P.hooks();
  H.OnApply = [&, Tally = H.OnApply](NodeId N, size_t I,
                                     const core::LogEntry &E) {
    Tally(N, I, E);
    if (BlockApply.exchange(false)) {
      InApply.open();
      EndApply.wait();
    }
  };
  RtNode N(1, *Scheme, Config(NodeSet{1}), quietOptions(), 5, B, H, &St);
  N.start();
  electAlone(B, N);

  // While the barrier runs: the worker is inside the store's crash.
  N.crash();
  InCrash.wait();
  N.read(1);
  N.submit(1, 1);
  EXPECT_EQ(P.answer(1), 0);
  EndCrash.open();
  ASSERT_TRUE(eventually([&] { return P.answer(1) != 0; }));
  EXPECT_EQ(P.answer(1), -1);
  EXPECT_EQ(P.AppliesHere.load() + P.AppliesElsewhere.load(), 0);

  BlockCrash = false;
  N.restart();
  electAlone(B, N);

  // While the barrier is queued: another thread's inline step holds the
  // core, blocked in its apply.
  BlockApply = true;
  std::thread Writer([&N] { N.submit(2, 2); });
  InApply.wait();
  N.crash();
  N.read(2);
  EndApply.open();
  Writer.join();
  ASSERT_TRUE(eventually([&] { return P.answer(2) != 0; }));
  EXPECT_EQ(P.answer(2), -1);
  N.stop();
}

TEST(RtNodeTest, StopWaitsOutAnInlineStep) {
  // stop() must not return while another thread steps the core: after
  // it, coreForInspection() reads a quiet core that holds the entry.
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  Bus B;
  Gate InApply, EndApply;
  core::HostHooks H;
  H.OnApply = [&](NodeId, size_t, const core::LogEntry &E) {
    if (E.ClientSeq != 0) {
      InApply.open();
      EndApply.wait();
    }
  };
  RtNode N(1, *Scheme, Config(NodeSet{1}), quietOptions(), 9, B, H);
  N.start();
  electAlone(B, N);
  std::thread Writer([&N] { N.submit(42, 1); });
  InApply.wait();
  std::atomic<bool> Stopped{false};
  std::thread Stopper([&] {
    N.stop();
    Stopped = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(Stopped.load());
  EndApply.open();
  Writer.join();
  Stopper.join();
  const core::RaftCore &C = N.coreForInspection();
  ASSERT_GE(C.commitIndex(), 1u);
  EXPECT_EQ(C.entry(C.commitIndex()).Method, MethodId(42));
}

TEST(RtNodeTest, InlineStepWakesWorkerForAnEarlierTimer) {
  // The worker sleeps toward its election deadline, 300-400 ms out. A
  // vote stepped on this thread makes the node leader and arms a 10 ms
  // heartbeat; the worker must wake for it, not sleep past it.
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  Bus B;
  std::mutex M;
  std::optional<Time> VoteTerm;
  std::atomic<int> Appends{0};
  Gate Asked;
  B.attach(2, [&](std::string Frame) {
    core::Msg Got;
    ASSERT_TRUE(decodeMsg(Frame, Got));
    if (Got.K == core::Msg::Kind::AppendEntries)
      ++Appends;
    if (Got.K == core::Msg::Kind::RequestVote) {
      std::lock_guard<std::mutex> L(M);
      VoteTerm = Got.Term;
      Asked.open();
    }
  });
  const std::thread::id Caller = std::this_thread::get_id();
  std::atomic<bool> LedHere{false};
  core::HostHooks H;
  H.OnLeader = [&](NodeId, Time) {
    LedHere = std::this_thread::get_id() == Caller;
  };
  core::CoreOptions O;
  O.ElectionTimeoutMinUs = 300000;
  O.ElectionTimeoutMaxUs = 400000;
  O.HeartbeatUs = 10000;
  RtNode N(1, *Scheme, Config(NodeSet{1, 2}), O, 11, B, H);
  N.start();
  Asked.wait();
  settle();
  core::Msg Vote;
  Vote.K = core::Msg::Kind::VoteReply;
  Vote.From = 2;
  Vote.To = 1;
  {
    std::lock_guard<std::mutex> L(M);
    Vote.Term = *VoteTerm;
  }
  Vote.Granted = true;
  B.post(1, encodeMsg(Vote));
  ASSERT_TRUE(LedHere.load());
  // The first append left with the election; the next one is the
  // heartbeat's.
  EXPECT_TRUE(eventually([&] { return Appends.load() >= 2; }, 150));
  N.stop();
  B.detach(2);
}

//===----------------------------------------------------------------------===//
// Golden frames: the full wire-compat pin set
//===----------------------------------------------------------------------===//

namespace {

std::string hexOf(const std::string &Bytes) {
  std::string Hex;
  for (unsigned char C : Bytes) {
    char Buf[3];
    std::snprintf(Buf, sizeof(Buf), "%02x", C);
    Hex += Buf;
  }
  return Hex;
}

} // namespace

TEST(WireTest, GoldenFramesForEveryKindArePinned) {
  // One pinned frame per message kind, extending the InstallSnapshot
  // pin above to the whole vocabulary: since the TCP transport ships
  // the rt wire encoding verbatim (plus a length prefix), these hex
  // files ARE the cross-version network contract. Regenerate them
  // deliberately with ADORE_UPDATE_GOLDEN=1 after an intentional,
  // version-bumped layout change — never to silence this test.
  struct KindPin {
    core::Msg::Kind K;
    const char *File;
  };
  const KindPin Pins[] = {
      {core::Msg::Kind::RequestVote, "frame_request_vote.hex"},
      {core::Msg::Kind::VoteReply, "frame_vote_reply.hex"},
      {core::Msg::Kind::AppendEntries, "frame_append_entries.hex"},
      {core::Msg::Kind::AppendReply, "frame_append_reply.hex"},
      {core::Msg::Kind::TimeoutNow, "frame_timeout_now.hex"},
      {core::Msg::Kind::InstallSnapshot, "frame_install_snapshot.hex"},
      {core::Msg::Kind::InstallSnapshotReply,
       "frame_install_snapshot_reply.hex"},
      {core::Msg::Kind::ReadIndexQuery, "frame_read_index_query.hex"},
      {core::Msg::Kind::ReadIndexReply, "frame_read_index_reply.hex"},
  };
  for (const KindPin &P : Pins) {
    std::string Hex = hexOf(encodeMsg(sampleMsg(P.K)));
    std::string Path = std::string(ADORE_TEST_GOLDEN_DIR) + "/" + P.File;
    if (std::getenv("ADORE_UPDATE_GOLDEN")) {
      std::ofstream Out(Path);
      Out << Hex << "\n";
    }
    std::ifstream In(Path);
    ASSERT_TRUE(In.good()) << P.File
                           << " missing (ADORE_UPDATE_GOLDEN=1 regenerates)";
    std::string Golden;
    In >> Golden;
    EXPECT_EQ(Hex, Golden) << P.File << ": wire layout drifted";
  }
}

TEST(WireTest, TcpFramingPreservesBusBytesForEveryKind) {
  // The transport-independence pin: a message travels over TCP as
  // exactly the bytes the in-process bus delivers, wrapped in exactly
  // four little-endian length bytes — nothing re-encoded, nothing
  // appended. Reassembly from one-byte reads returns the identical
  // payload, which still decodes to the identical message.
  for (auto K :
       {core::Msg::Kind::RequestVote, core::Msg::Kind::VoteReply,
        core::Msg::Kind::AppendEntries, core::Msg::Kind::AppendReply,
        core::Msg::Kind::TimeoutNow, core::Msg::Kind::InstallSnapshot,
        core::Msg::Kind::InstallSnapshotReply,
        core::Msg::Kind::ReadIndexQuery, core::Msg::Kind::ReadIndexReply}) {
    std::string BusFrame = encodeMsg(sampleMsg(K));
    ASSERT_TRUE(net::frameable(BusFrame));
    std::string Framed;
    net::appendFrame(Framed, BusFrame);
    std::string Header;
    codec::putU32(Header, static_cast<uint32_t>(BusFrame.size()));
    ASSERT_EQ(Framed, Header + BusFrame) << "kind " << int(K);

    net::FrameSplitter S;
    std::vector<std::string> Got;
    for (size_t I = 0; I != Framed.size(); ++I)
      ASSERT_TRUE(S.feed(Framed.data() + I, 1,
                         [&](std::string F) { Got.push_back(std::move(F)); }));
    ASSERT_EQ(Got.size(), 1u);
    EXPECT_EQ(Got[0], BusFrame);
    core::Msg Out;
    ASSERT_TRUE(decodeMsg(Got[0], Out));
    expectMsgEq(sampleMsg(K), Out);
  }
}

//===----------------------------------------------------------------------===//
// Bus semantics
//===----------------------------------------------------------------------===//

TEST(BusTest, DeliversOnThePostingThreadAndDropsUnknownIds) {
  Bus B;
  std::string Seen;
  B.attach(1, [&Seen](std::string F) { Seen = std::move(F); });
  B.post(1, "hello");
  EXPECT_EQ(Seen, "hello"); // Synchronous: visible before post returns.
  B.post(99, "dropped");    // Nobody attached; must not crash.
  B.detach(1);
  B.post(1, "after detach");
  EXPECT_EQ(Seen, "hello");
}

TEST(BusTest, PostRacingAttachDetachNeverDangles) {
  // Regression test: post() used to invoke the handler through a
  // reference into the Handlers map after unlocking, so a concurrent
  // detach()/attach() destroying that map entry left the reference
  // dangling — a use-after-free only a racing workload (or TSan/ASan)
  // would catch. post() now copies the handler out under the lock;
  // this hammers the old interleaving with handlers that own heap
  // state they touch on every delivery.
  Bus B;
  std::atomic<uint64_t> Delivered{0};
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Posters;
  for (int T = 0; T != 4; ++T)
    Posters.emplace_back([&B, &Stop] {
      std::string Frame(256, 'f');
      while (!Stop.load(std::memory_order_relaxed))
        B.post(1, Frame);
    });
  // Churn the handler identity until the posters have demonstrably
  // delivered through several generations (bounded by iteration count
  // so a broken bus cannot hang the suite).
  for (int I = 0; I != 200000 && Delivered.load() < 1000; ++I) {
    // Each generation's handler owns a fresh heap payload and reads it
    // on delivery: a stale reference to a destroyed std::function (or
    // its captures) trips immediately under the sanitizers.
    auto Payload =
        std::make_shared<std::string>(64, static_cast<char>('a' + I % 26));
    B.attach(1, [&Delivered, Payload](std::string) {
      if (!Payload->empty() && (*Payload)[0] >= 'a')
        Delivered.fetch_add(1, std::memory_order_relaxed);
    });
    if (I % 3 == 0)
      B.detach(1);
  }
  Stop.store(true);
  for (std::thread &T : Posters)
    T.join();
  EXPECT_GT(Delivered.load(), 0u);
}

//===----------------------------------------------------------------------===//
// RtCluster over loopback TCP
//===----------------------------------------------------------------------===//

TEST(RtClusterTest, TcpTransportElectsCommitsAndFailsOver) {
  // The SurvivesCrashAndRestart smoke, re-run over real sockets: same
  // hosts, same consensus, only the fabric differs — which is the whole
  // point of the Transport seam.
  RtClusterOptions Opts;
  Opts.Transport = TransportKind::Tcp;
  Opts.Seed = 17;
  RtCluster C(Opts);
  C.start();
  NodeId Leader = C.waitForLeader(10000);
  ASSERT_NE(Leader, InvalidNodeId);
  ASSERT_TRUE(C.submitAndWait(1, 10000));

  C.crash(Leader);
  EXPECT_TRUE(C.submitAndWait(2, 20000));
  C.restart(Leader);
  EXPECT_TRUE(C.submitAndWait(3, 10000));

  C.stop();
  EXPECT_TRUE(C.violations().empty());
  EXPECT_TRUE(C.checkFinalAgreement().empty());
}

TEST(RtClusterTest, TcpPipelinedTuningCommitsConcurrentBursts) {
  // The bench's hot-path tuning (pipelined replication, inbox-batch
  // group commit) under concurrent clients on TCP: correctness must
  // not depend on the unit-window defaults.
  RtClusterOptions Opts;
  Opts.Transport = TransportKind::Tcp;
  Opts.Seed = 29;
  Opts.Node.PipelineWindow = 8;
  Opts.Host.MaxInboxBatch = 16;
  RtCluster C(Opts);
  C.start();
  ASSERT_NE(C.waitForLeader(10000), InvalidNodeId);

  constexpr int NumClients = 4;
  constexpr int OpsPerClient = 25;
  std::atomic<int> Committed{0};
  std::vector<std::thread> Clients;
  for (int T = 0; T != NumClients; ++T)
    Clients.emplace_back([&C, &Committed, T] {
      for (int I = 0; I != OpsPerClient; ++I)
        if (C.submitAndWait(MethodId(500 + T * OpsPerClient + I), 15000))
          ++Committed;
    });
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Committed.load(), NumClients * OpsPerClient);

  C.stop();
  EXPECT_TRUE(C.violations().empty());
  EXPECT_TRUE(C.checkFinalAgreement().empty());
  EXPECT_GE(C.committedCount(), size_t(NumClients * OpsPerClient));
}
