//===- core/RaftCore.h - Sans-I/O Raft protocol core ----------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable Raft replica as a pure state machine: typed inputs in,
/// an ordered effect list out, and nothing else. The core knows no
/// clocks, queues, sockets, or threads — time arrives as a parameter,
/// timers are requests it *emits* (SetTimer) and acknowledgements it
/// *receives* (onTimer, validated by a generation counter), and all
/// randomness comes from an internally owned Rng seeded at construction,
/// so a core is a value: copy it and both copies evolve identically under
/// identical inputs.
///
/// This is the reproduction's answer to the paper's extraction story
/// (Section 7): where Adore extracts the verified Coq protocol to OCaml
/// and deploys *that*, we keep a single C++ protocol core and plug it
/// into three hosts, each through the one dispatcher in core/Host.h —
///
///   sim::RaftNode     effects -> discrete-event queue (deterministic
///                     latency/fault simulation, chaos harness)
///   rt::RtNode        effects -> threads + an in-process message bus
///                     with wire-format serialization (real time)
///   mc::CoreNetModel  effects -> a model-checker transition relation
///                     (mc::Engine exhaustively explores small clusters
///                     of this exact code)
///
/// so the code the chaos suite bombards and the code the model checker
/// proves finite-scenario-safe are the same translation unit.
///
/// Protocol features (unchanged from the former sim/RaftNode logic):
/// randomized election timeouts, heartbeats, incremental AppendEntries
/// with per-follower nextIndex/matchIndex, conflict truncation,
/// commit-index advancement against per-prefix configurations, hot
/// single-server reconfiguration guarded by R1+/R2/R3, leadership
/// transfer (TimeoutNow), and the Raft §4.2.3 disruptive-server vote
/// stickiness (with an injectable misbehavior flag so tests can prove
/// the guard is load-bearing).
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_CORE_RAFTCORE_H
#define ADORE_CORE_RAFTCORE_H

#include "adore/Config.h"
#include "raft/Message.h"
#include "support/Rng.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace adore {
namespace core {

/// Replica roles.
enum class Role : uint8_t { Follower, Candidate, Leader };

const char *roleName(Role R);

/// One slot of the replica's log.
struct LogEntry {
  Time Term = 0;
  raft::EntryKind Kind = raft::EntryKind::Method;
  MethodId Method = 0;
  Config Conf;
  /// Nonzero for client-submitted commands; used to route completions.
  uint64_t ClientSeq = 0;

  bool operator==(const LogEntry &RHS) const {
    return Term == RHS.Term && Kind == RHS.Kind && Method == RHS.Method &&
           Conf == RHS.Conf && ClientSeq == RHS.ClientSeq;
  }
  bool operator!=(const LogEntry &RHS) const { return !(*this == RHS); }
};

/// ADL hook for the shared raft/Message.h log helpers.
inline Time entryTerm(const LogEntry &E) { return E.Term; }

/// Wire messages of the executable protocol.
struct Msg {
  enum class Kind : uint8_t {
    RequestVote,
    VoteReply,
    AppendEntries,
    AppendReply,
    TimeoutNow,      ///< Leadership transfer: start an election immediately.
    InstallSnapshot, ///< One chunk of a committed-prefix bulk transfer.
    InstallSnapshotReply, ///< Progress ack carrying the resume offset.
    ReadIndexQuery,  ///< Done=true: leader's read-round probe to a peer.
                     ///< Done=false: follower-forwarded read (ReadRound is
                     ///< the follower's cookie).
    ReadIndexReply,  ///< Done=true: probe ack (Success = still follower of
                     ///< this leader). Done=false: answer to a forwarded
                     ///< read (Success + LeaderCommit = safe index, or a
                     ///< NACK telling the client to retry at the leader).
  };

  Kind K = Kind::RequestVote;
  NodeId From = InvalidNodeId;
  NodeId To = InvalidNodeId;
  Time Term = 0;

  // RequestVote.
  Time LastLogTerm = 0;
  size_t LastLogIndex = 0;
  /// True when the election was triggered by a leadership transfer;
  /// exempts the request from the disruptive-server vote stickiness.
  bool TransferElection = false;

  // VoteReply.
  bool Granted = false;

  // AppendEntries.
  size_t PrevIndex = 0;
  Time PrevTerm = 0;
  std::vector<LogEntry> Entries;
  size_t LeaderCommit = 0;

  // AppendReply.
  bool Success = false;
  size_t MatchIndex = 0;

  // InstallSnapshot / InstallSnapshotReply. The payload is the codec
  // encoding of the leader's committed prefix [1, SnapIndex]; Chunk is
  // its bytes [Offset, Offset + Chunk.size()). The reply's Offset is the
  // follower's next expected byte (the resume point after a drop); Done
  // marks the final chunk (request) / a completed install (reply), and
  // the reply reuses Success for "keep streaming" vs "abort transfer".
  size_t SnapIndex = 0;
  Time SnapTerm = 0;
  uint64_t Offset = 0;
  std::string Chunk;
  bool Done = false;

  // ReadIndexQuery / ReadIndexReply. For probes (Done=true) this is the
  // leader's confirmation-round counter; acks echo it so a quorum is
  // only ever assembled from acks of the *current* round. For forwarded
  // reads (Done=false) it is the follower's per-read cookie, echoed by
  // the leader's answer. The reply reuses Success (round still valid /
  // read granted) and LeaderCommit (the granted safe index).
  uint64_t ReadRound = 0;

  std::string str() const;
};

/// The core's two timers, identified abstractly; hosts map them onto
/// whatever clock they own.
enum class TimerId : uint8_t { Election, Heartbeat };

const char *timerName(TimerId T);

/// One instruction from the core to its host, produced in the exact order
/// the host must act on it (message sends and timer arms interleave with
/// applications precisely as the protocol performed them, which is what
/// keeps the simulator's event schedule byte-identical per seed).
struct Effect {
  enum class Kind : uint8_t {
    Send,           ///< Transmit M (host applies latency/loss/serialization).
    SetTimer,       ///< (Re-)arm Timer: call onTimer(Timer, TimerGen)
                    ///< after DelayUs. Replaces any earlier arming.
    CancelTimer,    ///< Disarm Timer (advisory: a stale onTimer call is
                    ///< rejected by generation anyway).
    Apply,          ///< Entry at Index is committed; apply to the app.
    CommitAdvanced, ///< Commit index reached Index (precedes the Apply
                    ///< batch it unlocks).
    Persist,        ///< Durable state (term/vote/log) changed; a crash-
                    ///< tolerant host must flush before acting on any
                    ///< *later* effect of this step. Index is the first
                    ///< log slot changed since the previous Persist
                    ///< (LogLen + 1 when only term/vote changed).
    LeaderElected,  ///< This replica won the election for Term.
    ReplicaSuspected, ///< Leader-observed liveness: Peer's missed-ack
                      ///< accumulator crossed the suspect threshold.
    ReplicaRecovered, ///< Peer acked again; the suspicion decayed below
                      ///< the recovery threshold (hysteresis).
    ReadReady,        ///< Read ReadId may be served once the local state
                      ///< machine has applied through Index (already true
                      ///< when emitted; see readQuery).
    ReadFailed,       ///< Read ReadId cannot be served here (no leader
                      ///< hint / leadership lost / NACKed forward); the
                      ///< client should retry at the leader.
  };

  Kind K = Kind::Send;
  Msg M;                 // Send.
  TimerId Timer = TimerId::Election; // SetTimer / CancelTimer.
  uint64_t TimerGen = 0; // SetTimer.
  uint64_t DelayUs = 0;  // SetTimer.
  size_t Index = 0;      // Apply / CommitAdvanced / Persist (dirty-from).
  LogEntry Entry;        // Apply.
  Time Term = 0;         // LeaderElected / Persist.
  size_t LogLen = 0;     // Persist.
  NodeId Peer = InvalidNodeId; // ReplicaSuspected / ReplicaRecovered.
  uint64_t ReadId = 0;   // ReadReady / ReadFailed (Index = safe index).

  static Effect send(Msg M);
  static Effect setTimer(TimerId Timer, uint64_t Gen, uint64_t DelayUs);
  static Effect cancelTimer(TimerId Timer);
  static Effect apply(size_t Index, LogEntry Entry);
  static Effect commitAdvanced(size_t Index);
  static Effect persist(Time Term, size_t LogLen, size_t DirtyFrom);
  static Effect leaderElected(Time Term);
  static Effect replicaSuspected(NodeId Peer);
  static Effect replicaRecovered(NodeId Peer);
  static Effect readReady(uint64_t ReadId, size_t Index);
  static Effect readFailed(uint64_t ReadId);

  std::string str() const;
};

using Effects = std::vector<Effect>;

/// Timing knobs, in host time units (the sim interprets them as virtual
/// microseconds, the rt runtime as real microseconds).
struct CoreOptions {
  uint64_t ElectionTimeoutMinUs = 150000;
  uint64_t ElectionTimeoutMaxUs = 300000;
  uint64_t HeartbeatUs = 50000;
  size_t MaxEntriesPerAppend = 64;
  /// Injectable misbehavior: drop the Raft §4.2.3 vote stickiness, i.e.
  /// process RequestVote even while a live leader is known. Reintroduces
  /// the disruptive-server bug (a server removed while partitioned can
  /// depose healthy leaders forever); exists so tests can demonstrate
  /// the chaos suite and model checker catch the regression. Never
  /// enable outside tests.
  bool DisableVoteStickiness = false;

  /// Leader-observed failure detection: a φ-style integer accumulator
  /// per follower, clocked by heartbeat rounds. A round with no
  /// AppendReply/InstallSnapshotReply from the peer adds one (saturating
  /// at SuspicionSuspectScore); a round with an ack halves the score.
  /// The peer is suspected at >= SuspicionSuspectScore and recovered at
  /// <= SuspicionRecoverScore — the gap is the hysteresis band that
  /// keeps a flapping link from toggling the healer every round.
  /// Surfaced as ReplicaSuspected/ReplicaRecovered effects; a host
  /// with no healer may ignore them.
  uint32_t SuspicionSuspectScore = 8;
  uint32_t SuspicionRecoverScore = 2;

  /// Snapshot catch-up: when a follower's next index trails the commit
  /// index by more than SnapshotLagEntries, replicate via a chunked
  /// InstallSnapshot transfer of the whole committed prefix instead of
  /// MaxEntriesPerAppend-sized AppendEntries rounds. Chunks resume from
  /// the follower's acked offset after drops. Off by default because
  /// replicateTo measures the lag from NextIndex, the acked point: a
  /// pipelined follower with up to PipelineWindow*MaxEntriesPerAppend
  /// entries still in flight looks lagged and gets a whole-log
  /// snapshot. Measured on bench_throughput's pipelined open loop on a
  /// 4-core host, on by default drops 197k-268k ops/s to 22k-128k on
  /// the bus and 213k-275k to 35k-71k on TCP.
  bool EnableSnapshotCatchup = false;
  size_t SnapshotLagEntries = 64;
  size_t SnapshotChunkBytes = 4096;

  /// Replication hot path. A leader keeps a per-follower send cursor,
  /// the first index never sent to that follower. An ack sends only
  /// entries past the cursor, so acks never re-send what is in flight;
  /// a heartbeat (the retransmission path for lost frames) and a
  /// consistency NAK rewind it to the acked point.
  ///
  /// A commit advance sends nothing: followers learn the commit index
  /// from the next entry-bearing frame, the heartbeat round, or, for a
  /// forwarded read, the one frame its answer sends the reader.
  ///
  /// PipelineWindow = 1 sends one frame per broadcast (a submit, a
  /// heartbeat round) from the acked point, so a broadcast also
  /// retransmits the unacked suffix. PipelineWindow > 1 streams frames
  /// from the cursor, each entry once, up to that many unacked
  /// entry-bearing frames per follower, and sends an empty keep-alive
  /// (carrying the commit index) only when none is in flight.
  ///
  /// The default stays 1 because the sim's links reorder, and reordered
  /// pipelined frames NAK and rewind: on perfbench's
  /// reconfig-failover-sim (seed 1, virtual time) window 8 raises
  /// op_p50_us from 3562 to 3883 and op_p99_us from 195,100 to 196,357,
  /// and streaming from the cursor at window 1 raises op_p50_us to 4513.
  size_t PipelineWindow = 1;

  /// Linearizable read path (src/read layers client policy on top of
  /// it). readQuery() never touches the log:
  ///
  /// - A leader captures its commit index and confirms it still leads
  ///   via one probe round (a quorum of ReadIndexQuery/Reply exchanges);
  ///   reads arriving while a round is in flight batch behind the
  ///   *next* round (acks predating a read prove nothing about it).
  /// - A follower with a leader hint forwards the read there (one small
  ///   ReadIndexQuery, not a log round). The leader answers with the
  ///   commit index it held on arrival, at once under a live lease or
  ///   else after one probe round, and the follower serves once applied
  ///   through it. A non-leader NACKs, and the client falls back to the
  ///   leader.
  ///
  /// A lease exists iff effectiveLeaseUs() > 0, i.e. LeaseDurationUs is
  /// set and MaxDriftPpm is below 50%. A completed probe round then also
  /// grants a lease anchored at the round's *start* time, heartbeats
  /// keep renewing it, and while it is live the leader serves reads (and
  /// answers forwarded reads) immediately, with no probe round at all.
  /// Safety rests on the vote stickiness promise (followers refuse votes
  /// for ElectionTimeoutMinUs after leader contact) shrunk by the
  /// declared clock-drift bound; a lease is deliberately killed when a
  /// reconfiguration is *appended* (not committed): a quorum granted
  /// under config C must never outlive C's replacement.
  ///
  /// Requested lease length; the effective lease is
  /// min(LeaseDurationUs, ElectionTimeoutMinUs) derated by 2*MaxDriftPpm
  /// (the granting quorum's clocks may run slow while ours runs fast).
  /// 0, the default, means no lease.
  uint64_t LeaseDurationUs = 0;
  /// Declared worst-case clock drift, parts per million, symmetric.
  /// The deployment promises |each clock's rate - 1| <= MaxDriftPpm/1e6;
  /// the lease math consumes it. >= 500000 (50%) disables leases.
  uint64_t MaxDriftPpm = 0;
  /// Injectable misbehavior: leaseLive() ignores lease *expiry* (it
  /// still requires a lease to have been granted in the current term).
  /// Exists so mutation tests can serve a provably stale read and
  /// assert the chaos linearizability checker flags it. Never enable
  /// outside tests.
  bool TestIgnoreLeaseExpiry = false;
};

//===----------------------------------------------------------------------===//
// RaftCore
//===----------------------------------------------------------------------===//

/// A single replica's protocol state machine. Pure: every public entry
/// point consumes typed input plus the host's current time and returns
/// the ordered effect list; the only hidden inputs are the seeded Rng
/// (election jitter) owned by value, so cores are copyable values with
/// deterministic evolution.
class RaftCore {
public:
  RaftCore(NodeId Id, const ReconfigScheme &Scheme, Config InitialConf,
           CoreOptions Opts, uint64_t Seed);

  /// Arms the first election timeout; call once at start of day.
  Effects start();

  /// A message arrived. \p NowUs is the host's current time (used only
  /// for leader-contact bookkeeping and vote stickiness).
  Effects onMessage(const Msg &M, uint64_t NowUs);

  /// Timer \p Timer armed with generation \p Gen fired.
  Effects onTimer(TimerId Timer, uint64_t Gen, uint64_t NowUs);

  /// Fail-stop: drop volatile state; ignore all input until restart().
  Effects crash();

  /// Restart after a crash: persistent state (term, vote, log) survives,
  /// volatile state resets, the election timer re-arms.
  Effects restart();

  /// Appends a client command; returns false (no effects) if not leader.
  bool submit(MethodId Method, uint64_t ClientSeq, Effects &Out);

  /// Appends a reconfiguration if the R1+/R2/R3 guards pass and this
  /// leader stays a member; returns false (no effects) otherwise.
  bool requestReconfig(const Config &NewConf, Effects &Out);

  /// Leadership transfer (Raft 3.10): tells \p Target — which must be a
  /// member and caught up — to elect immediately, and steps this leader
  /// out of the way. Returns false if not leader or the target lags.
  bool transferLeadership(NodeId Target, Effects &Out);

  /// A linearizable read identified by the host-chosen \p ReadId.
  /// Resolves — possibly within this call, possibly later — as exactly
  /// one ReadReady{ReadId, Index} (serve from the applied state machine,
  /// which has reached Index) or ReadFailed{ReadId} (retry elsewhere,
  /// normally at the leader). A lease-holding leader answers instantly,
  /// any other leader after a probe round, a follower by forwarding to
  /// its leader hint; a follower with no hint fails at once. Returns
  /// false iff the read failed synchronously.
  bool readQuery(uint64_t ReadId, uint64_t NowUs, Effects &Out);

  /// Overwrites the durable fields (term, vote, log, commit floor) with
  /// state recovered from a disk store. Only legal before start() or
  /// while crashed — a store-backed host installs this between crash()
  /// and restart(), replacing the in-memory fiction that durable state
  /// survives crashes for free. The commit index only ever grows (a
  /// lagging durable commit record must not un-commit entries the host
  /// already acked) and is clamped to the recovered log.
  void installDurableState(Time NewTerm, std::optional<NodeId> Vote,
                           std::vector<LogEntry> NewLog, size_t DurableCommit);

  //===--------------------------------------------------------------===//
  // Introspection
  //===--------------------------------------------------------------===//

  NodeId id() const { return Id; }
  Role role() const { return MyRole; }
  bool isLeader() const { return MyRole == Role::Leader; }
  Time term() const { return Term; }
  std::optional<NodeId> votedFor() const { return VotedFor; }
  size_t commitIndex() const { return CommitIndex; }
  size_t logSize() const { return Log.size(); }
  const LogEntry &entry(size_t Index1) const {
    assert(Index1 >= 1 && Index1 <= Log.size() && "bad log index");
    return Log[Index1 - 1];
  }
  const std::vector<LogEntry> &log() const { return Log; }
  /// The configuration currently in force (hot semantics): the newest
  /// Reconfig entry in the log, InitialConf if there is none. O(1).
  const Config &config() const {
    return ConfHist.empty() ? InitialConf : ConfHist.back().second;
  }
  /// The leader this node last heard from (its redirect hint).
  std::optional<NodeId> leaderHint() const { return LeaderHint; }
  /// True once the node has observed its own committed removal and gone
  /// passive.
  bool isPassive() const { return Passive; }
  /// True while crashed (ignores everything).
  bool isCrashed() const { return Crashed; }
  /// Current timer generations (what a live SetTimer would carry).
  uint64_t electionGen() const { return ElectionGen; }
  uint64_t heartbeatGen() const { return HeartbeatGen; }
  /// The configuration in force after the first \p Len entries: a
  /// binary search of the configuration history.
  const Config &configOfPrefix(size_t Len) const;
  /// Log-level reconfiguration guards, exposed for tests and the model
  /// checker's invariants. O(1).
  bool logSatisfiesR2() const;
  bool logSatisfiesR3() const;
  const CoreOptions &options() const { return Opts; }
  /// Peers this leader currently suspects (empty on non-leaders).
  const NodeSet &suspected() const { return Suspected; }
  /// True while a chunked snapshot transfer to \p Peer is in flight.
  bool snapshotInFlightTo(NodeId Peer) const {
    return OutgoingSnaps.count(Peer) != 0;
  }
  /// Unacked pipelined AppendEntries frames outstanding toward \p Peer
  /// (always 0 with PipelineWindow <= 1). Test introspection.
  size_t inFlightTo(NodeId Peer) const {
    auto It = Pipe.find(Peer);
    return It == Pipe.end() ? 0 : It->second.InFlight;
  }
  /// Lease introspection for the model checker's cross-node invariants
  /// (no-two-live-leases, lease implies R2-clean log) and tests. A
  /// LeaseUntilUs of 0 means no lease was ever granted this term.
  uint64_t leaseUntilUs() const { return LeaseUntilUs; }
  Time leaseTerm() const { return LeaseTerm; }
  /// Whether this core would serve a lease read at \p NowUs (honors the
  /// TestIgnoreLeaseExpiry mutation hook, like the serving path does).
  bool leaseLiveAt(uint64_t NowUs) const { return leaseLive(NowUs); }
  /// Reads queued behind a confirmation round on this node (leader
  /// waiters + forwarded remote reads + follower-side forwards/apply
  /// waiters). Test introspection.
  size_t pendingReadCount() const {
    return ReadWaiters.size() + RemoteReads.size() + FwdReads.size() +
           ApplyWaiters.size();
  }
  /// Current confirmation-round counter (0 before any round).
  uint64_t readRound() const { return ReadRound; }
  /// Healing metrics: payload bytes shipped/accepted over InstallSnapshot
  /// chunks and completed installs on this replica. Monotonic counters,
  /// excluded from the fingerprint (they never influence behavior).
  uint64_t snapshotBytesSent() const { return SnapshotBytesSentCount; }
  uint64_t snapshotBytesReceived() const { return SnapshotBytesReceivedCount; }
  uint64_t snapshotsInstalled() const { return SnapshotsInstalledCount; }

  std::string describe() const;

  /// Feeds the protocol-relevant state into a fingerprint hasher or
  /// canonical encoder (any support/Hashing.h sink). The timer
  /// generations and the Rng are deliberately excluded: generations only
  /// distinguish stale timer callbacks (the model checker always fires
  /// the current generation) and the Rng only perturbs timer delays,
  /// which the model checker abstracts over.
  template <typename SinkT> void addToSink(SinkT &S) const {
    S.addU32(Id);
    S.addByte(static_cast<uint8_t>(MyRole));
    S.addU64(Term);
    S.addBool(VotedFor.has_value());
    S.addU32(VotedFor ? *VotedFor : 0);
    S.addU64(Log.size());
    for (const LogEntry &E : Log) {
      S.addU64(E.Term);
      S.addByte(static_cast<uint8_t>(E.Kind));
      S.addU64(E.Method);
      E.Conf.addToSink(S);
      S.addU64(E.ClientSeq);
    }
    S.addU64(CommitIndex);
    S.addU64(Applied);
    S.addNodeSet(Votes);
    S.addU64(NextIndex.size());
    for (const auto &[Peer, Next] : NextIndex) {
      S.addU32(Peer);
      S.addU64(Next);
    }
    S.addU64(MatchIndex.size());
    for (const auto &[Peer, Match] : MatchIndex) {
      S.addU32(Peer);
      S.addU64(Match);
    }
    S.addBool(LeaderHint.has_value());
    S.addU32(LeaderHint ? *LeaderHint : 0);
    S.addU64(LastLeaderContactUs);
    S.addBool(Passive);
    S.addBool(Crashed);
    // Failure-detection and snapshot-transfer state: both steer future
    // effect emission, so the model checker must distinguish them. The
    // scores saturate at the suspect threshold, which keeps this finite.
    S.addU64(SuspicionScore.size());
    for (const auto &[Peer, Score] : SuspicionScore) {
      S.addU32(Peer);
      S.addU32(Score);
    }
    S.addNodeSet(Suspected);
    S.addNodeSet(AckedSinceBeat);
    S.addU64(OutgoingSnaps.size());
    for (const auto &[Peer, X] : OutgoingSnaps) {
      S.addU32(Peer);
      S.addU64(X.SnapIndex);
      S.addU64(X.SnapTerm);
      S.addU64(X.Offset);
      S.addString(X.Payload);
    }
    S.addBool(Staging.has_value());
    if (Staging) {
      S.addU32(Staging->From);
      S.addU64(Staging->LeaderTerm);
      S.addU64(Staging->SnapIndex);
      S.addU64(Staging->SnapTerm);
      S.addString(Staging->Buf);
    }
    // Replication volatile state: the send cursor and window occupancy
    // steer which AppendEntries frames a leader emits next, so the
    // model checker must distinguish them.
    S.addU64(Pipe.size());
    for (const auto &[Peer, PP] : Pipe) {
      S.addU32(Peer);
      S.addU64(PP.SentNext);
      S.addU64(PP.InFlight);
    }
    // Read-path state: rounds, leases, and queued reads all steer future
    // effect emission. Everything here stays zero/empty while no read
    // is issued and no lease is configured.
    S.addU64(ReadRound);
    S.addU64(RoundStartUs);
    S.addNodeSet(RoundAcks);
    S.addBool(RoundInFlight);
    S.addU64(LeaseUntilUs);
    S.addU64(LeaseTerm);
    S.addU64(ReadWaiters.size());
    for (const ReadWaiter &W : ReadWaiters) {
      S.addU64(W.ReadId);
      S.addU64(W.Index);
      S.addU64(W.NeedRound);
    }
    S.addU64(RemoteReads.size());
    for (const RemoteRead &RR : RemoteReads) {
      S.addU32(RR.From);
      S.addU64(RR.Cookie);
      S.addU64(RR.Index);
      S.addU64(RR.NeedRound);
    }
    S.addU64(NextReadCookie);
    S.addU64(FwdReads.size());
    for (const FwdRead &F : FwdReads) {
      S.addU64(F.Cookie);
      S.addU64(F.ReadId);
    }
    S.addU64(ApplyWaiters.size());
    for (const ApplyWaiter &W : ApplyWaiters) {
      S.addU64(W.ReadId);
      S.addU64(W.Index);
    }
  }

private:
  // Role transitions.
  void stepDown(Time NewTerm, Effects &Out);
  void startElection(bool Transfer, Effects &Out);
  void becomeLeader(Effects &Out);

  // Timers (generation counters invalidate stale callbacks).
  void armElectionTimer(Effects &Out);
  void armHeartbeatTimer(Effects &Out);

  // Handlers.
  void onTimeoutNow(const Msg &M, Effects &Out);
  void onRequestVote(const Msg &M, uint64_t NowUs, Effects &Out);
  void onVoteReply(const Msg &M, Effects &Out);
  void onAppendEntries(const Msg &M, uint64_t NowUs, Effects &Out);
  void onAppendReply(const Msg &M, Effects &Out);
  void onInstallSnapshot(const Msg &M, uint64_t NowUs, Effects &Out);
  void onInstallSnapshotReply(const Msg &M, Effects &Out);
  void onReadIndexQuery(const Msg &M, uint64_t NowUs, Effects &Out);
  void onReadIndexReply(const Msg &M, uint64_t NowUs, Effects &Out);

  // Linearizable read machinery (leader side unless noted).
  /// True while this leader's lease covers \p NowUs (and the mutation
  /// hook, which waives only expiry).
  bool leaseLive(uint64_t NowUs) const;
  /// min(LeaseDurationUs, ElectionTimeoutMinUs) derated by 2*MaxDriftPpm;
  /// 0 when the drift bound makes any lease unsafe.
  uint64_t effectiveLeaseUs() const;
  /// Starts confirmation round ReadRound+1: resets the ack set to self,
  /// probes every peer, and (single-node config) may complete at once.
  void startReadRound(uint64_t NowUs, Effects &Out);
  /// Re-emits the current round's probes (heartbeat retransmission).
  void probeRound(Effects &Out);
  /// A quorum acked round ReadRound: grant/extend the lease (when
  /// effectiveLeaseUs() > 0, anchored at RoundStartUs), release every
  /// waiter whose round requirement is met, and start the next round
  /// if any remain.
  void completeReadRound(uint64_t NowUs, Effects &Out);
  /// Fails every queued read (local waiters and follower-side state),
  /// NACKs forwarded ones, and aborts any round in flight; called on any
  /// leadership/liveness exit and at reconfig append (paired with
  /// clearLease there — the lease must die the moment a new config
  /// exists in the log).
  void failAllReads(Effects &Out);
  void clearLease() {
    LeaseUntilUs = 0;
    LeaseTerm = 0;
  }

  // Leader machinery.
  void replicateTo(NodeId Peer, Effects &Out);
  /// Ack-clocked streaming: replicateTo only if \p Peer has log entries
  /// it was never sent. An ack never re-sends what is still in flight.
  void streamUnsent(NodeId Peer, Effects &Out);
  /// A commit advance sends nothing, so a follower whose forwarded read
  /// was just answered gets one frame carrying LeaderCommit rather than
  /// wait for the next write or heartbeat. Untracked peers (no
  /// NextIndex entry, i.e. non-members) get none.
  void sendCommitTo(NodeId Peer, Effects &Out);
  /// \p ResetPipe rewinds every peer's send cursor to its acked point
  /// first — the heartbeat round passes true, making it the
  /// retransmission path for frames lost in flight.
  void broadcastAppends(Effects &Out, bool ResetPipe = false);
  void advanceCommit(Effects &Out);
  void appendOwn(LogEntry Entry, Effects &Out);
  /// Builds and emits one AppendEntries frame carrying
  /// [Next, min(lastLogIndex, Next - 1 + MaxEntriesPerAppend)].
  /// Returns one past the last index shipped (== Next for an empty
  /// keep-alive frame).
  size_t sendAppendFrame(NodeId Peer, size_t Next, Effects &Out);

  // Failure detection and snapshot catch-up.
  void noteAck(NodeId Peer);
  void suspicionRound(Effects &Out);
  void clearLeaderHealthState();
  void sendSnapshotChunk(NodeId Peer, Effects &Out);

  // Log helpers (1-based).
  Time lastLogTerm() const { return raft::lastLogTerm(Log); }
  size_t lastLogIndex() const { return Log.size(); }
  void applyUpTo(size_t Index, Effects &Out);
  void updatePassivity();

  /// Appends the Persist effect if this step touched durable state.
  void finishStep(Effects &Out);

  // Log mutation. Every change to Log goes through these, which keep the
  // configuration history, the current term's start and the dirty-from
  // mark in step with it.
  void appendEntry(LogEntry E);
  void truncateLog(size_t Len);
  /// Rebuilds the derived log state from scratch (recovery).
  void reindexLog();

  NodeId Id;
  const ReconfigScheme *Scheme;
  Config InitialConf;
  CoreOptions Opts;
  Rng R;

  Role MyRole = Role::Follower;
  Time Term = 0;
  std::optional<NodeId> VotedFor;
  std::vector<LogEntry> Log;
  size_t CommitIndex = 0;
  size_t Applied = 0;
  NodeSet Votes;
  std::map<NodeId, size_t> NextIndex;
  std::map<NodeId, size_t> MatchIndex;
  std::optional<NodeId> LeaderHint;
  /// When this node last accepted an AppendEntries from a live leader.
  /// Votes are refused within ElectionTimeoutMinUs of leader contact
  /// (Raft §4.2.3): a server campaigning on stale state — typically one
  /// removed from the configuration while partitioned, which can never
  /// learn of its removal — would otherwise depose healthy leaders
  /// forever. Volatile: reset on restart.
  uint64_t LastLeaderContactUs = 0;
  bool Passive = false;
  bool Crashed = false;

  //===--------------------------------------------------------------===//
  // Self-healing state (all volatile; leaders rebuild it from traffic)
  //===--------------------------------------------------------------===//

  /// Per-follower missed-ack accumulator, saturating at
  /// SuspicionSuspectScore (keeps the model checker's state space
  /// finite under unbounded heartbeat rounds).
  std::map<NodeId, uint32_t> SuspicionScore;
  /// Followers currently past the suspect threshold.
  NodeSet Suspected;
  /// Followers that acked since the last heartbeat round.
  NodeSet AckedSinceBeat;

  /// Leader-side outgoing chunked snapshot transfer, one per lagging
  /// peer. Offset advances only on acks, so a dropped chunk is simply
  /// re-sent from the follower's resume point.
  struct SnapshotXfer {
    size_t SnapIndex = 0;
    Time SnapTerm = 0;
    std::string Payload;
    uint64_t Offset = 0;
  };
  std::map<NodeId, SnapshotXfer> OutgoingSnaps;

  /// Follower-side staging buffer for an incoming transfer. Buf.size()
  /// is the next expected offset; chunks from any other offset are
  /// answered with the resume point instead of being buffered.
  struct SnapshotStaging {
    NodeId From = InvalidNodeId;
    Time LeaderTerm = 0;
    size_t SnapIndex = 0;
    Time SnapTerm = 0;
    std::string Buf;
  };
  std::optional<SnapshotStaging> Staging;

  uint64_t SnapshotBytesSentCount = 0;
  uint64_t SnapshotBytesReceivedCount = 0;
  uint64_t SnapshotsInstalledCount = 0;

  //===--------------------------------------------------------------===//
  // Replication state (volatile, leader-only)
  //===--------------------------------------------------------------===//

  /// Per-follower pipeline: SentNext is the send cursor (first index
  /// not yet shipped; may run ahead of NextIndex, which tracks acks),
  /// InFlight counts unacked entry-bearing frames (PipelineWindow > 1
  /// only). A SentNext of 0 means "not yet initialized; adopt NextIndex
  /// on first use".
  struct PeerPipe {
    size_t SentNext = 0;
    size_t InFlight = 0;
  };
  std::map<NodeId, PeerPipe> Pipe;

  //===--------------------------------------------------------------===//
  // Linearizable-read state (volatile; empty until a read or a lease)
  //===--------------------------------------------------------------===//

  /// Leader-side confirmation rounds. ReadRound counts rounds this
  /// leadership; RoundAcks collects echoes of the *current* round only.
  /// RoundStartUs anchors the lease a completing round grants: the
  /// stickiness promises backing it were made no earlier than the
  /// probes, which left no earlier than the round started.
  uint64_t ReadRound = 0;
  uint64_t RoundStartUs = 0;
  NodeSet RoundAcks;
  bool RoundInFlight = false;

  /// The lease (leader-side). LeaseUntilUs == 0 means none; LeaseTerm
  /// must equal Term for the lease to mean anything (a stale value from
  /// an earlier leadership is dead by definition).
  uint64_t LeaseUntilUs = 0;
  Time LeaseTerm = 0;

  /// Local reads waiting for a confirmation round. Index is the commit
  /// index captured at enqueue; NeedRound is the first round whose acks
  /// all postdate the read (a round already in flight at enqueue proves
  /// nothing — its acks may predate the read).
  struct ReadWaiter {
    uint64_t ReadId = 0;
    size_t Index = 0;
    uint64_t NeedRound = 0;
  };
  std::vector<ReadWaiter> ReadWaiters;

  /// Forwarded follower reads waiting for a round, answered over the
  /// wire instead of via ReadReady. Cookie echoes the follower's.
  struct RemoteRead {
    NodeId From = InvalidNodeId;
    uint64_t Cookie = 0;
    size_t Index = 0;
    uint64_t NeedRound = 0;
  };
  std::vector<RemoteRead> RemoteReads;

  /// Follower-side forwarded reads in flight to the leader hint, keyed
  /// by a per-node cookie (echoed in the leader's answer).
  uint64_t NextReadCookie = 0;
  struct FwdRead {
    uint64_t Cookie = 0;
    uint64_t ReadId = 0;
  };
  std::vector<FwdRead> FwdReads;

  /// Follower reads granted a safe index the local apply cursor has not
  /// reached yet; released by applyUpTo.
  struct ApplyWaiter {
    uint64_t ReadId = 0;
    size_t Index = 0;
  };
  std::vector<ApplyWaiter> ApplyWaiters;

  uint64_t ElectionGen = 0;
  uint64_t HeartbeatGen = 0;
  /// True while the current step has modified term/vote/log.
  bool Dirty = false;
  /// First log index changed since the last Persist effect; SIZE_MAX
  /// when the log is unchanged.
  size_t DirtyFrom = SIZE_MAX;

  //===--------------------------------------------------------------===//
  // Derived log state (a function of Log and Term, so not fingerprinted)
  //===--------------------------------------------------------------===//

  /// (index, configuration) of every Reconfig entry, in log order.
  std::vector<std::pair<size_t, Config>> ConfHist;
  /// Index of the first entry of the current term; 0 if the log holds
  /// none. Log terms never exceed Term, so a new term starts at 0.
  size_t TermStart = 0;
};

} // namespace core
} // namespace adore

#endif // ADORE_CORE_RAFTCORE_H
