//===- core/RaftCore.cpp - Sans-I/O Raft protocol core ----------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Faithful port of the former sim/RaftNode protocol logic into effect
// form. The effect emission order is load-bearing: every Send, SetTimer,
// and Apply is emitted exactly where the old code performed the
// corresponding action, so a host that executes effects in order
// reproduces the old event schedule (and hence the chaos suite's
// byte-identical seed determinism) exactly.
//
//===----------------------------------------------------------------------===//

#include "core/RaftCore.h"

#include "core/Codec.h"
#include "core/Host.h"
#include "support/Debug.h"

#include <algorithm>
#include <functional>

using namespace adore;
using namespace adore::core;
using raft::EntryKind;

const char *adore::core::roleName(Role R) {
  switch (R) {
  case Role::Follower:
    return "follower";
  case Role::Candidate:
    return "candidate";
  case Role::Leader:
    return "leader";
  }
  ADORE_UNREACHABLE("unknown role");
}

const char *adore::core::timerName(TimerId T) {
  switch (T) {
  case TimerId::Election:
    return "election";
  case TimerId::Heartbeat:
    return "heartbeat";
  }
  ADORE_UNREACHABLE("unknown timer");
}

//===----------------------------------------------------------------------===//
// Msg / Effect rendering and builders
//===----------------------------------------------------------------------===//

std::string Msg::str() const {
  std::string Out;
  switch (K) {
  case Kind::RequestVote:
    Out = "RequestVote(t=" + std::to_string(Term) +
          " lastT=" + std::to_string(LastLogTerm) +
          " lastI=" + std::to_string(LastLogIndex) +
          (TransferElection ? " transfer" : "") + ")";
    break;
  case Kind::VoteReply:
    Out = "VoteReply(t=" + std::to_string(Term) +
          (Granted ? " granted" : " denied") + ")";
    break;
  case Kind::AppendEntries:
    Out = "AppendEntries(t=" + std::to_string(Term) +
          " prev=" + std::to_string(PrevIndex) + "@" +
          std::to_string(PrevTerm) + " n=" + std::to_string(Entries.size()) +
          " lc=" + std::to_string(LeaderCommit) + ")";
    break;
  case Kind::AppendReply:
    Out = "AppendReply(t=" + std::to_string(Term) +
          (Success ? " ok" : " nak") + " match=" +
          std::to_string(MatchIndex) + ")";
    break;
  case Kind::TimeoutNow:
    Out = "TimeoutNow(t=" + std::to_string(Term) + ")";
    break;
  case Kind::InstallSnapshot:
    Out = "InstallSnapshot(t=" + std::to_string(Term) +
          " snap=" + std::to_string(SnapIndex) + "@" +
          std::to_string(SnapTerm) + " off=" + std::to_string(Offset) +
          " n=" + std::to_string(Chunk.size()) + (Done ? " done" : "") + ")";
    break;
  case Kind::InstallSnapshotReply:
    Out = "InstallSnapshotReply(t=" + std::to_string(Term) +
          (Success ? " ok" : " abort") + " off=" + std::to_string(Offset) +
          (Done ? " done" : "") + ")";
    break;
  case Kind::ReadIndexQuery:
    Out = "ReadIndexQuery(t=" + std::to_string(Term) +
          (Done ? " probe round=" : " fwd cookie=") +
          std::to_string(ReadRound) + ")";
    break;
  case Kind::ReadIndexReply:
    Out = "ReadIndexReply(t=" + std::to_string(Term) +
          (Done ? " ack" : " answer") + (Success ? " ok" : " nak") +
          (Done ? " round=" : " cookie=") + std::to_string(ReadRound) +
          (Done ? "" : " safe=" + std::to_string(LeaderCommit)) + ")";
    break;
  }
  return "S" + std::to_string(From) + "->S" + std::to_string(To) + " " + Out;
}

Effect Effect::send(Msg M) {
  Effect E;
  E.K = Kind::Send;
  E.M = std::move(M);
  return E;
}

Effect Effect::setTimer(TimerId Timer, uint64_t Gen, uint64_t DelayUs) {
  Effect E;
  E.K = Kind::SetTimer;
  E.Timer = Timer;
  E.TimerGen = Gen;
  E.DelayUs = DelayUs;
  return E;
}

Effect Effect::cancelTimer(TimerId Timer) {
  Effect E;
  E.K = Kind::CancelTimer;
  E.Timer = Timer;
  return E;
}

Effect Effect::apply(size_t Index, LogEntry Entry) {
  Effect E;
  E.K = Kind::Apply;
  E.Index = Index;
  E.Entry = std::move(Entry);
  return E;
}

Effect Effect::commitAdvanced(size_t Index) {
  Effect E;
  E.K = Kind::CommitAdvanced;
  E.Index = Index;
  return E;
}

Effect Effect::persist(Time Term, size_t LogLen, size_t DirtyFrom) {
  Effect E;
  E.K = Kind::Persist;
  E.Term = Term;
  E.LogLen = LogLen;
  E.Index = DirtyFrom;
  return E;
}

Effect Effect::leaderElected(Time Term) {
  Effect E;
  E.K = Kind::LeaderElected;
  E.Term = Term;
  return E;
}

Effect Effect::replicaSuspected(NodeId Peer) {
  Effect E;
  E.K = Kind::ReplicaSuspected;
  E.Peer = Peer;
  return E;
}

Effect Effect::replicaRecovered(NodeId Peer) {
  Effect E;
  E.K = Kind::ReplicaRecovered;
  E.Peer = Peer;
  return E;
}

Effect Effect::readReady(uint64_t ReadId, size_t Index) {
  Effect E;
  E.K = Kind::ReadReady;
  E.ReadId = ReadId;
  E.Index = Index;
  return E;
}

Effect Effect::readFailed(uint64_t ReadId) {
  Effect E;
  E.K = Kind::ReadFailed;
  E.ReadId = ReadId;
  return E;
}

std::string Effect::str() const {
  // Rendered through core/Host.h, which keeps the one switch over Kind.
  struct Describer {
    const Effect &E;
    std::string Out;
    static std::string n(uint64_t V) { return std::to_string(V); }
    void persist(size_t DirtyFrom) {
      Out = "persist t=" + n(E.Term) + " log=" + n(E.LogLen) +
            " from=" + n(DirtyFrom);
    }
    void send(Msg &&M) { Out = "send " + M.str(); }
    void setTimer(TimerId T, uint64_t Gen, uint64_t DelayUs) {
      Out = std::string("set-timer ") + timerName(T) + " gen=" + n(Gen) +
            " delay=" + n(DelayUs);
    }
    void cancelTimer(TimerId T) {
      Out = std::string("cancel-timer ") + timerName(T);
    }
    void apply(size_t I, const LogEntry &) { Out = "apply #" + n(I); }
    void commitAdvanced(size_t I) { Out = "commit-advanced #" + n(I); }
    void leaderElected(Time T) { Out = "leader-elected t=" + n(T); }
    void replicaSuspected(NodeId P) { Out = "replica-suspected S" + n(P); }
    void replicaRecovered(NodeId P) { Out = "replica-recovered S" + n(P); }
    void readReady(uint64_t Id, size_t I) {
      Out = "read-ready id=" + n(Id) + " safe#" + n(I);
    }
    void readFailed(uint64_t Id) { Out = "read-failed id=" + n(Id); }
  } D{*this, {}};
  Effects One{*this};
  dispatchEffects(One, D);
  return D.Out;
}

//===----------------------------------------------------------------------===//
// Construction and lifecycle
//===----------------------------------------------------------------------===//

RaftCore::RaftCore(NodeId Id, const ReconfigScheme &Scheme,
                   Config InitialConf, CoreOptions Opts, uint64_t Seed)
    : Id(Id), Scheme(&Scheme), InitialConf(std::move(InitialConf)),
      Opts(Opts), R(Seed) {}

Effects RaftCore::start() {
  Effects Out;
  updatePassivity(); // Spares outside the initial config stay passive.
  armElectionTimer(Out);
  return Out;
}

Effects RaftCore::crash() {
  Effects Out;
  Crashed = true;
  LeaderHint.reset();
  // Invalidate all armed timers; volatile leader state dies with us.
  ++ElectionGen;
  ++HeartbeatGen;
  Out.push_back(Effect::cancelTimer(TimerId::Election));
  Out.push_back(Effect::cancelTimer(TimerId::Heartbeat));
  MyRole = Role::Follower;
  Votes.clear();
  NextIndex.clear();
  MatchIndex.clear();
  clearLeaderHealthState();
  Staging.reset();
  // Reads pending at a crash die silently with the rest of volatile
  // state; the host forgot them too, so no resolution effect is owed.
  // NextReadCookie is deliberately NOT reset: a cookie must never be
  // reused while a pre-crash answer could still be in flight.
  FwdReads.clear();
  ApplyWaiters.clear();
  return Out;
}

void RaftCore::installDurableState(Time NewTerm, std::optional<NodeId> Vote,
                                   std::vector<LogEntry> NewLog,
                                   size_t DurableCommit) {
  assert((Crashed || (Term == 0 && Log.empty())) &&
         "installDurableState is only legal while crashed or pre-start");
  Term = NewTerm;
  VotedFor = Vote;
  Log = std::move(NewLog);
  reindexLog();
  // The durable commit record is advisory (it rides the next sync
  // batch), so it may lag what this replica already acked; never move
  // the commit index backwards, and never past the recovered log.
  CommitIndex = std::min(std::max(CommitIndex, DurableCommit), Log.size());
  Applied = std::min(Applied, CommitIndex);
  Dirty = false;
  DirtyFrom = SIZE_MAX; // The store this came from already holds it.
}

Effects RaftCore::restart() {
  Effects Out;
  if (!Crashed)
    return Out;
  Crashed = false;
  LeaderHint.reset();
  LastLeaderContactUs = 0;
  updatePassivity();
  armElectionTimer(Out);
  return Out;
}

Effects RaftCore::step(const Input &In, uint64_t NowUs) {
  if (const auto *M = std::get_if<MsgIn>(&In))
    return onMessage(M->M, NowUs);
  if (const auto *T = std::get_if<TimerFired>(&In))
    return onTimer(T->Timer, T->Gen, NowUs);
  if (const auto *C = std::get_if<ClientRequest>(&In)) {
    Effects Out;
    submit(C->Method, C->ClientSeq, Out);
    return Out;
  }
  if (const auto *A = std::get_if<AdminReconfig>(&In)) {
    Effects Out;
    requestReconfig(A->NewConf, Out);
    return Out;
  }
  return {}; // Tick: nothing is time-polled.
}

//===----------------------------------------------------------------------===//
// Configuration helpers
//===----------------------------------------------------------------------===//

const Config &RaftCore::configOfPrefix(size_t Len) const {
  auto It = std::upper_bound(
      ConfHist.begin(), ConfHist.end(), Len,
      [](size_t L, const std::pair<size_t, Config> &H) { return L < H.first; });
  return It == ConfHist.begin() ? InitialConf : std::prev(It)->second;
}

bool RaftCore::logSatisfiesR2() const {
  // No Reconfig entry past the commit point.
  return ConfHist.empty() || ConfHist.back().first <= CommitIndex;
}

bool RaftCore::logSatisfiesR3() const {
  // Some committed entry carries the current term.
  return TermStart != 0 && TermStart <= CommitIndex;
}

//===----------------------------------------------------------------------===//
// Log mutation
//===----------------------------------------------------------------------===//

void RaftCore::appendEntry(LogEntry E) {
  Log.push_back(std::move(E));
  const LogEntry &Back = Log.back();
  if (Back.Kind == EntryKind::Reconfig)
    ConfHist.emplace_back(Log.size(), Back.Conf);
  if (TermStart == 0 && Back.Term == Term)
    TermStart = Log.size();
  DirtyFrom = std::min(DirtyFrom, Log.size());
  Dirty = true;
}

void RaftCore::truncateLog(size_t Len) {
  assert(Len <= Log.size() && "truncating past the log");
  Log.resize(Len);
  while (!ConfHist.empty() && ConfHist.back().first > Len)
    ConfHist.pop_back();
  if (TermStart > Len)
    TermStart = 0;
  DirtyFrom = std::min(DirtyFrom, Len + 1);
  Dirty = true;
}

void RaftCore::reindexLog() {
  ConfHist.clear();
  TermStart = 0;
  for (size_t I = 1; I <= Log.size(); ++I) {
    const LogEntry &E = Log[I - 1];
    if (E.Kind == EntryKind::Reconfig)
      ConfHist.emplace_back(I, E.Conf);
    if (TermStart == 0 && E.Term == Term)
      TermStart = I;
  }
}

void RaftCore::updatePassivity() {
  // Hot semantics: the moment this node's log says it is no longer a
  // member, it stops initiating elections (it keeps answering messages,
  // which helps drain in-flight rounds).
  Passive = !Scheme->mbrs(config()).contains(Id);
  if (Passive && MyRole != Role::Follower) {
    MyRole = Role::Follower;
    Votes.clear();
    // Suspicion and snapshot-transfer state are leader-local; a node
    // leaving leadership through passivity must drop them like any
    // other leadership exit.
    clearLeaderHealthState();
  }
}

//===----------------------------------------------------------------------===//
// Timers
//===----------------------------------------------------------------------===//

void RaftCore::armElectionTimer(Effects &Out) {
  uint64_t Gen = ++ElectionGen;
  uint64_t Delay = R.nextInRange(Opts.ElectionTimeoutMinUs,
                                 Opts.ElectionTimeoutMaxUs);
  Out.push_back(Effect::setTimer(TimerId::Election, Gen, Delay));
}

void RaftCore::armHeartbeatTimer(Effects &Out) {
  uint64_t Gen = ++HeartbeatGen;
  Out.push_back(Effect::setTimer(TimerId::Heartbeat, Gen, Opts.HeartbeatUs));
}

Effects RaftCore::onTimer(TimerId Timer, uint64_t Gen, uint64_t NowUs) {
  Effects Out;
  if (Crashed)
    return Out;
  if (Timer == TimerId::Election) {
    if (Gen != ElectionGen)
      return Out; // Timer was reset.
    if (MyRole == Role::Leader || Passive) {
      armElectionTimer(Out);
      return Out;
    }
    startElection(/*Transfer=*/false, Out);
  } else {
    if (Gen != HeartbeatGen || MyRole != Role::Leader)
      return Out;
    // Account the round that just elapsed before opening the next one:
    // any follower whose ack never arrived takes a suspicion hit here.
    suspicionRound(Out);
    broadcastAppends(Out, /*ResetPipe=*/true);
    if (RoundInFlight) {
      // Probes lost in flight get retransmitted each heartbeat without
      // bumping the round id — stale acks stay countable.
      probeRound(Out);
    } else if (effectiveLeaseUs() > 0 && logSatisfiesR2() &&
               (!leaseLive(NowUs) || RoundStartUs < NowUs)) {
      // Keep the lease warm: renew one heartbeat at a time so the
      // expiry horizon keeps sliding while a quorum keeps answering.
      // The RoundStartUs < NowUs guard stops back-to-back rounds when
      // time cannot advance between them (the model checker's bounded
      // clocks), which keeps exploration finite.
      startReadRound(NowUs, Out);
    }
    armHeartbeatTimer(Out);
  }
  finishStep(Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Role transitions
//===----------------------------------------------------------------------===//

void RaftCore::stepDown(Time NewTerm, Effects &Out) {
  if (NewTerm > Term) {
    Term = NewTerm;
    TermStart = 0;
    VotedFor.reset();
    Dirty = true;
  }
  if (MyRole != Role::Follower) {
    MyRole = Role::Follower;
    Votes.clear();
    failAllReads(Out); // Resolve waiters before the state is wiped.
    clearLeaderHealthState();
  }
  ++HeartbeatGen; // Cancel leader heartbeats.
  Out.push_back(Effect::cancelTimer(TimerId::Heartbeat));
  armElectionTimer(Out);
}

void RaftCore::startElection(bool Transfer, Effects &Out) {
  Config Conf = config();
  if (!Scheme->mbrs(Conf).contains(Id))
    return; // Non-members never stand (Def. C.2 validity).
  Term += 1;
  TermStart = 0;
  MyRole = Role::Candidate;
  VotedFor = Id;
  Votes = NodeSet{Id};
  Dirty = true;
  armElectionTimer(Out); // Retry with a fresh timeout if this one stalls.
  if (Scheme->isQuorum(Votes, Conf)) {
    becomeLeader(Out);
    return;
  }
  for (NodeId Peer : Scheme->mbrs(Conf)) {
    if (Peer == Id)
      continue;
    Msg M;
    M.K = Msg::Kind::RequestVote;
    M.From = Id;
    M.To = Peer;
    M.Term = Term;
    M.LastLogTerm = lastLogTerm();
    M.LastLogIndex = lastLogIndex();
    M.TransferElection = Transfer;
    Out.push_back(Effect::send(std::move(M)));
  }
}

void RaftCore::becomeLeader(Effects &Out) {
  MyRole = Role::Leader;
  LeaderHint = Id;
  Out.push_back(Effect::leaderElected(Term));
  NextIndex.clear();
  MatchIndex.clear();
  clearLeaderHealthState(); // Suspicions are per-leadership observations.
  for (NodeId Peer : Scheme->mbrs(config()))
    if (Peer != Id)
      NextIndex[Peer] = lastLogIndex() + 1;
  // Term-start no-op barrier: commits everything inherited and makes R3
  // satisfiable at this term.
  LogEntry Noop;
  Noop.Term = Term;
  Noop.Kind = EntryKind::Method;
  Noop.Method = 0;
  appendOwn(std::move(Noop), Out);
  armHeartbeatTimer(Out);
}

//===----------------------------------------------------------------------===//
// Message dispatch
//===----------------------------------------------------------------------===//

Effects RaftCore::onMessage(const Msg &M, uint64_t NowUs) {
  Effects Out;
  if (Crashed)
    return Out;
  switch (M.K) {
  case Msg::Kind::RequestVote:
    onRequestVote(M, NowUs, Out);
    break;
  case Msg::Kind::VoteReply:
    onVoteReply(M, Out);
    break;
  case Msg::Kind::AppendEntries:
    onAppendEntries(M, NowUs, Out);
    break;
  case Msg::Kind::AppendReply:
    onAppendReply(M, Out);
    break;
  case Msg::Kind::TimeoutNow:
    onTimeoutNow(M, Out);
    break;
  case Msg::Kind::InstallSnapshot:
    onInstallSnapshot(M, NowUs, Out);
    break;
  case Msg::Kind::InstallSnapshotReply:
    onInstallSnapshotReply(M, Out);
    break;
  case Msg::Kind::ReadIndexQuery:
    onReadIndexQuery(M, NowUs, Out);
    break;
  case Msg::Kind::ReadIndexReply:
    onReadIndexReply(M, NowUs, Out);
    break;
  }
  finishStep(Out);
  return Out;
}

void RaftCore::onTimeoutNow(const Msg &M, Effects &Out) {
  // Only honor a transfer from the current term's leader; stale
  // transfers from deposed leaders are ignored.
  if (M.Term < Term || Passive)
    return;
  startElection(/*Transfer=*/true, Out);
}

void RaftCore::onRequestVote(const Msg &M, uint64_t NowUs, Effects &Out) {
  // Vote stickiness (Raft §4.2.3): while we believe a leader is alive —
  // we are it, or we accepted its AppendEntries within the minimum
  // election timeout — ignore the request entirely, without even
  // adopting its term. A server campaigning on stale state (typically
  // one removed from the configuration while partitioned, which can
  // never learn of its removal) would otherwise depose healthy leaders
  // indefinitely. Deliberate leadership transfers are exempt.
  if (!M.TransferElection && !Opts.DisableVoteStickiness &&
      (MyRole == Role::Leader ||
       (LastLeaderContactUs != 0 &&
        NowUs < LastLeaderContactUs + Opts.ElectionTimeoutMinUs)))
    return;
  if (M.Term > Term)
    stepDown(M.Term, Out);
  Msg Reply;
  Reply.K = Msg::Kind::VoteReply;
  Reply.From = Id;
  Reply.To = M.From;
  Reply.Term = Term;
  bool UpToDate = raft::logAtLeastAsUpToDate(M.LastLogTerm, M.LastLogIndex,
                                             lastLogTerm(), lastLogIndex());
  Reply.Granted = M.Term == Term && MyRole == Role::Follower && UpToDate &&
                  (!VotedFor || *VotedFor == M.From);
  if (Reply.Granted) {
    VotedFor = M.From;
    Dirty = true;
    armElectionTimer(Out); // Granting a vote defers our own candidacy.
  }
  Out.push_back(Effect::send(std::move(Reply)));
}

void RaftCore::onVoteReply(const Msg &M, Effects &Out) {
  if (M.Term > Term) {
    stepDown(M.Term, Out);
    return;
  }
  if (MyRole != Role::Candidate || M.Term != Term || !M.Granted)
    return;
  Votes.insert(M.From);
  if (Scheme->isQuorum(Votes, config()))
    becomeLeader(Out);
}

void RaftCore::onAppendEntries(const Msg &M, uint64_t NowUs, Effects &Out) {
  Msg Reply;
  Reply.K = Msg::Kind::AppendReply;
  Reply.From = Id;
  Reply.To = M.From;
  if (M.Term < Term) {
    Reply.Term = Term;
    Reply.Success = false;
    Reply.MatchIndex = 0;
    Out.push_back(Effect::send(std::move(Reply)));
    return;
  }
  stepDown(M.Term, Out); // Also resets the election timer.
  LeaderHint = M.From;
  LastLeaderContactUs = NowUs;
  Reply.Term = Term;

  // Consistency check on the previous slot.
  bool PrevOk = M.PrevIndex == 0 ||
                (M.PrevIndex <= Log.size() &&
                 Log[M.PrevIndex - 1].Term == M.PrevTerm);
  if (!PrevOk) {
    Reply.Success = false;
    // Hint: the longest prefix that could possibly match.
    Reply.MatchIndex = std::min(Log.size(), M.PrevIndex - 1);
    Out.push_back(Effect::send(std::move(Reply)));
    return;
  }

  // Append, truncating conflicting suffixes.
  size_t Idx = M.PrevIndex;
  for (const LogEntry &E : M.Entries) {
    ++Idx;
    if (Idx <= Log.size()) {
      if (Log[Idx - 1].Term == E.Term)
        continue; // Already have it.
      truncateLog(Idx - 1); // Conflict: drop our suffix.
    }
    appendEntry(E);
  }
  updatePassivity();
  // Commit only what this frame vouches for: past its last entry the
  // log may still hold a stale suffix the leader never sent.
  size_t NewCommit =
      std::min(M.LeaderCommit, M.PrevIndex + M.Entries.size());
  if (NewCommit > CommitIndex)
    applyUpTo(NewCommit, Out);
  Reply.Success = true;
  Reply.MatchIndex = std::max(Idx, M.PrevIndex + M.Entries.size());
  Out.push_back(Effect::send(std::move(Reply)));
}

void RaftCore::onAppendReply(const Msg &M, Effects &Out) {
  if (M.Term > Term) {
    stepDown(M.Term, Out);
    return;
  }
  if (MyRole != Role::Leader || M.Term != Term)
    return;
  noteAck(M.From); // Even a consistency NAK proves the replica is alive.
  if (M.Success) {
    size_t &Match = MatchIndex[M.From];
    bool Advanced = M.MatchIndex > Match;
    Match = std::max(Match, M.MatchIndex);
    NextIndex[M.From] = Match + 1;
    PeerPipe &PP = Pipe[M.From];
    // An ack that acknowledges new entries frees its frame's window
    // slot. A keep-alive is anchored at the acked point, so its ack
    // advances nothing and frees nothing.
    if (Advanced && PP.InFlight > 0)
      --PP.InFlight;
    if (PP.SentNext < Match + 1)
      PP.SentNext = Match + 1;
    advanceCommit(Out);
    streamUnsent(M.From, Out);
    return;
  }
  // Back up and retry. A consistency NAK invalidates everything past the
  // probe point: frames still in flight carry the wrong PrevIndex
  // anchor, so drop the window and rewind the cursor to re-send from the
  // backup. The hint and the acked match point both prove a matching
  // prefix, so Next never drops below either; a stale or duplicated NAK
  // leaves it where it is.
  auto Acked = MatchIndex.find(M.From);
  size_t Floor = std::max(M.MatchIndex,
                          Acked == MatchIndex.end() ? 0 : Acked->second);
  size_t &Next = NextIndex[M.From];
  Next = std::min(Next, Floor + 1);
  PeerPipe &PP = Pipe[M.From];
  PP.InFlight = 0;
  PP.SentNext = Next;
  replicateTo(M.From, Out);
}

//===----------------------------------------------------------------------===//
// Snapshot catch-up
//===----------------------------------------------------------------------===//

void RaftCore::onInstallSnapshot(const Msg &M, uint64_t NowUs, Effects &Out) {
  Msg Reply;
  Reply.K = Msg::Kind::InstallSnapshotReply;
  Reply.From = Id;
  Reply.To = M.From;
  Reply.SnapIndex = M.SnapIndex;
  if (M.Term < Term) {
    Reply.Term = Term;
    Reply.Success = false;
    Out.push_back(Effect::send(std::move(Reply)));
    return;
  }
  stepDown(M.Term, Out); // Also resets the election timer.
  LeaderHint = M.From;
  LastLeaderContactUs = NowUs;
  Reply.Term = Term;

  // Already caught up through the snapshot's coverage: committed
  // prefixes agree entry-for-entry, so report the install as complete
  // without touching the log (idempotent re-deliveries land here too).
  if (M.SnapIndex <= CommitIndex) {
    Staging.reset();
    Reply.Success = true;
    Reply.Done = true;
    Out.push_back(Effect::send(std::move(Reply)));
    return;
  }

  // (Re-)open the staging buffer when the transfer identity changes: a
  // new leader term, a different leader, or a different snapshot point
  // all invalidate previously buffered bytes.
  if (!Staging || Staging->From != M.From || Staging->LeaderTerm != Term ||
      Staging->SnapIndex != M.SnapIndex || Staging->SnapTerm != M.SnapTerm) {
    Staging.emplace();
    Staging->From = M.From;
    Staging->LeaderTerm = Term;
    Staging->SnapIndex = M.SnapIndex;
    Staging->SnapTerm = M.SnapTerm;
  }
  if (M.Offset != Staging->Buf.size()) {
    // A drop or duplication desynced us: answer with the resume point
    // and let the leader re-send from there.
    Reply.Success = true;
    Reply.Offset = Staging->Buf.size();
    Out.push_back(Effect::send(std::move(Reply)));
    return;
  }
  Staging->Buf += M.Chunk;
  SnapshotBytesReceivedCount += M.Chunk.size();
  if (!M.Done) {
    Reply.Success = true;
    Reply.Offset = Staging->Buf.size();
    Out.push_back(Effect::send(std::move(Reply)));
    return;
  }

  // Final chunk: decode the payload and install it exactly like an
  // AppendEntries anchored at slot 0 — identical truncate/append and
  // commit semantics, so log matching and committed agreement hold by
  // construction rather than by a parallel code path.
  std::vector<LogEntry> SnapLog;
  bool Ok = codec::decodeSnapshotPayload(Staging->Buf, SnapLog) &&
            SnapLog.size() == M.SnapIndex && !SnapLog.empty() &&
            SnapLog.back().Term == M.SnapTerm;
  Staging.reset();
  if (!Ok) {
    Reply.Success = false;
    Out.push_back(Effect::send(std::move(Reply)));
    return;
  }
  size_t Idx = 0;
  for (LogEntry &E : SnapLog) {
    ++Idx;
    if (Idx <= Log.size()) {
      if (Log[Idx - 1].Term == E.Term)
        continue; // Already have it.
      truncateLog(Idx - 1); // Conflict: drop our suffix.
    }
    appendEntry(std::move(E));
  }
  updatePassivity();
  // Everything the snapshot covers was committed at the leader.
  applyUpTo(std::min(M.SnapIndex, Log.size()), Out);
  ++SnapshotsInstalledCount;
  Reply.Success = true;
  Reply.Done = true;
  Reply.Offset = M.Offset + M.Chunk.size();
  Out.push_back(Effect::send(std::move(Reply)));
}

void RaftCore::onInstallSnapshotReply(const Msg &M, Effects &Out) {
  if (M.Term > Term) {
    stepDown(M.Term, Out);
    return;
  }
  if (MyRole != Role::Leader || M.Term != Term)
    return;
  noteAck(M.From);
  auto It = OutgoingSnaps.find(M.From);
  if (It == OutgoingSnaps.end())
    return; // Stale ack for a transfer we already closed.
  SnapshotXfer &X = It->second;
  if (M.SnapIndex != X.SnapIndex)
    return; // A reply to an earlier transfer to this peer.
  if (!M.Success) {
    // The follower refused (e.g. a torn decode): abort the transfer and
    // fall back to ordinary incremental replication.
    OutgoingSnaps.erase(It);
    replicateTo(M.From, Out);
    return;
  }
  if (M.Done) {
    size_t &Match = MatchIndex[M.From];
    Match = std::max(Match, X.SnapIndex);
    NextIndex[M.From] = Match + 1;
    OutgoingSnaps.erase(It);
    advanceCommit(Out);
    streamUnsent(M.From, Out);
    return;
  }
  // Ack-clocked streaming: resume from the follower's next expected
  // byte (which rewinds us after a dropped chunk) and ship the next.
  X.Offset = std::min<uint64_t>(M.Offset, X.Payload.size());
  sendSnapshotChunk(M.From, Out);
}

void RaftCore::sendSnapshotChunk(NodeId Peer, Effects &Out) {
  const SnapshotXfer &X = OutgoingSnaps.at(Peer);
  Msg M;
  M.K = Msg::Kind::InstallSnapshot;
  M.From = Id;
  M.To = Peer;
  M.Term = Term;
  M.SnapIndex = X.SnapIndex;
  M.SnapTerm = X.SnapTerm;
  M.Offset = X.Offset;
  size_t Len = static_cast<size_t>(
      std::min<uint64_t>(Opts.SnapshotChunkBytes, X.Payload.size() - X.Offset));
  M.Chunk = X.Payload.substr(static_cast<size_t>(X.Offset), Len);
  M.Done = X.Offset + Len == X.Payload.size();
  SnapshotBytesSentCount += Len;
  Out.push_back(Effect::send(std::move(M)));
}

//===----------------------------------------------------------------------===//
// Failure detection
//===----------------------------------------------------------------------===//

void RaftCore::noteAck(NodeId Peer) {
  if (MyRole == Role::Leader)
    AckedSinceBeat.insert(Peer);
}

void RaftCore::suspicionRound(Effects &Out) {
  if (MyRole != Role::Leader)
    return;
  NodeSet Members = Scheme->mbrs(config());
  // Reconfigured-out replicas drop off the books entirely — a node we
  // no longer replicate to must not stay suspected forever.
  for (auto It = SuspicionScore.begin(); It != SuspicionScore.end();)
    It = Members.contains(It->first) ? std::next(It)
                                     : SuspicionScore.erase(It);
  Suspected = Suspected.intersectWith(Members);
  for (NodeId Peer : Members) {
    if (Peer == Id)
      continue;
    uint32_t &Score = SuspicionScore[Peer];
    if (AckedSinceBeat.contains(Peer)) {
      Score /= 2;
      if (Suspected.contains(Peer) && Score <= Opts.SuspicionRecoverScore) {
        Suspected.erase(Peer);
        Out.push_back(Effect::replicaRecovered(Peer));
      }
    } else {
      if (Score < Opts.SuspicionSuspectScore)
        ++Score;
      if (Score >= Opts.SuspicionSuspectScore && !Suspected.contains(Peer)) {
        Suspected.insert(Peer);
        Out.push_back(Effect::replicaSuspected(Peer));
      }
    }
  }
  AckedSinceBeat.clear();
}

void RaftCore::clearLeaderHealthState() {
  SuspicionScore.clear();
  Suspected.clear();
  AckedSinceBeat.clear();
  OutgoingSnaps.clear();
  Pipe.clear();
  // Confirmation rounds, the lease, and read waiters are leader-local
  // too. Callers that owe the waiters a resolution (stepDown's
  // leadership exit) run failAllReads first; here the drop is silent
  // for the paths where no effect may be emitted (crash, passivity).
  ReadWaiters.clear();
  RemoteReads.clear();
  RoundAcks.clear();
  RoundInFlight = false;
  clearLease();
}

//===----------------------------------------------------------------------===//
// Linearizable reads: ReadIndex, leases, follower forwarding
//===----------------------------------------------------------------------===//

uint64_t RaftCore::effectiveLeaseUs() const {
  // Each clock may run fast or slow by MaxDriftPpm, so over a nominal
  // span D the leader's and a voter's measurements diverge by up to
  // 2*D*MaxDriftPpm/1e6. Derating D by that much keeps the leader's
  // expiry conservative against every correct clock; at >= 50% drift
  // the bound collapses and no lease is safe.
  if (Opts.MaxDriftPpm >= 500000)
    return 0;
  uint64_t Base = std::min(Opts.LeaseDurationUs, Opts.ElectionTimeoutMinUs);
  return Base * (1000000 - 2 * Opts.MaxDriftPpm) / 1000000;
}

bool RaftCore::leaseLive(uint64_t NowUs) const {
  if (MyRole != Role::Leader || LeaseTerm != Term || LeaseUntilUs == 0)
    return false;
  // The mutation hook skips only the expiry comparison: the lease must
  // still have been granted, this term, to this leader.
  return Opts.TestIgnoreLeaseExpiry || NowUs < LeaseUntilUs;
}

void RaftCore::startReadRound(uint64_t NowUs, Effects &Out) {
  assert(MyRole == Role::Leader && !RoundInFlight &&
         "rounds are leader-only and never nest");
  ++ReadRound;
  RoundStartUs = NowUs;
  RoundAcks = NodeSet{Id};
  RoundInFlight = true;
  probeRound(Out);
  // Singleton configurations self-quorum instantly.
  if (Scheme->isQuorum(RoundAcks, config()))
    completeReadRound(NowUs, Out);
}

void RaftCore::probeRound(Effects &Out) {
  for (NodeId Peer : Scheme->mbrs(config())) {
    if (Peer == Id)
      continue;
    Msg M;
    M.K = Msg::Kind::ReadIndexQuery;
    M.From = Id;
    M.To = Peer;
    M.Term = Term;
    M.Done = true; // Probe, not a forwarded read.
    M.ReadRound = ReadRound;
    Out.push_back(Effect::send(std::move(M)));
  }
}

void RaftCore::completeReadRound(uint64_t NowUs, Effects &Out) {
  RoundInFlight = false;
  if (logSatisfiesR2()) {
    // Anchor at the round's *start*: every ack's follower-side promise
    // (no votes for ElectionTimeoutMinUs after receipt) began no
    // earlier than the probes left, so the derated window measured
    // from there is covered by all of them. R2 gating mirrors the
    // reconfig-append invalidation below: while an uncommitted config
    // sits in the log, no lease may be (re)granted.
    uint64_t D = effectiveLeaseUs();
    if (D > 0) {
      LeaseUntilUs = RoundStartUs + D;
      LeaseTerm = Term;
    }
  }
  // Release every waiter this round covers. A read that arrived while
  // the round was already in flight needs the *next* one (its acks
  // could predate the read), so it stays queued and a fresh round
  // opens immediately.
  for (auto It = ReadWaiters.begin(); It != ReadWaiters.end();) {
    if (It->NeedRound <= ReadRound) {
      Out.push_back(Effect::readReady(It->ReadId, It->Index));
      It = ReadWaiters.erase(It);
    } else {
      ++It;
    }
  }
  for (auto It = RemoteReads.begin(); It != RemoteReads.end();) {
    if (It->NeedRound <= ReadRound) {
      Msg Reply;
      Reply.K = Msg::Kind::ReadIndexReply;
      Reply.From = Id;
      Reply.To = It->From;
      Reply.Term = Term;
      Reply.Done = false;
      Reply.ReadRound = It->Cookie;
      Reply.Success = true;
      Reply.LeaderCommit = It->Index;
      Out.push_back(Effect::send(std::move(Reply)));
      It = RemoteReads.erase(It);
    } else {
      ++It;
    }
  }
  if (!ReadWaiters.empty() || !RemoteReads.empty())
    startReadRound(NowUs, Out);
}

void RaftCore::failAllReads(Effects &Out) {
  // Local waiters learn failure; forwarded reads get a NACK so the
  // remote client can retry at the real leader. Both imply the current
  // round (if any) dies unanswered.
  for (const ReadWaiter &W : ReadWaiters)
    Out.push_back(Effect::readFailed(W.ReadId));
  ReadWaiters.clear();
  for (const RemoteRead &RR : RemoteReads) {
    Msg Reply;
    Reply.K = Msg::Kind::ReadIndexReply;
    Reply.From = Id;
    Reply.To = RR.From;
    Reply.Term = Term;
    Reply.Done = false;
    Reply.ReadRound = RR.Cookie;
    Reply.Success = false;
    Out.push_back(Effect::send(std::move(Reply)));
  }
  RemoteReads.clear();
  RoundAcks.clear();
  RoundInFlight = false;
}

bool RaftCore::readQuery(uint64_t ReadId, uint64_t NowUs, Effects &Out) {
  if (Crashed) {
    Out.push_back(Effect::readFailed(ReadId));
    return false;
  }
  if (MyRole == Role::Leader) {
    if (leaseLive(NowUs)) {
      // Sole-committer fast path: while the lease holds, no other
      // leader can commit, so the current commit index is complete and
      // the read is served with zero message delays.
      Out.push_back(Effect::readReady(ReadId, CommitIndex));
      finishStep(Out);
      return true;
    }
    ReadWaiter W;
    W.ReadId = ReadId;
    W.Index = CommitIndex; // Captured now; confirmed by the round.
    W.NeedRound = ReadRound + 1;
    ReadWaiters.push_back(W);
    if (!RoundInFlight)
      startReadRound(NowUs, Out); // May complete synchronously.
    finishStep(Out);
    return true;
  }
  // Follower path: forward to the last known leader and wait for its
  // safe index. Without a hint there is nowhere to forward — fail fast
  // and let the client route to the leader itself.
  if (LeaderHint && *LeaderHint != Id) {
    uint64_t Cookie = ++NextReadCookie;
    FwdRead F;
    F.Cookie = Cookie;
    F.ReadId = ReadId;
    FwdReads.push_back(F);
    Msg M;
    M.K = Msg::Kind::ReadIndexQuery;
    M.From = Id;
    M.To = *LeaderHint;
    M.Term = Term;
    M.Done = false; // Forwarded read, not a probe.
    M.ReadRound = Cookie;
    Out.push_back(Effect::send(std::move(M)));
    return true;
  }
  Out.push_back(Effect::readFailed(ReadId));
  return false;
}

void RaftCore::onReadIndexQuery(const Msg &M, uint64_t NowUs, Effects &Out) {
  if (M.Done) {
    // A leader's confirmation probe. Acking doubles as the lease
    // promise: stepDown re-arms our election timer and the contact
    // stamp renews vote stickiness, so for ElectionTimeoutMinUs on our
    // clock we neither stand for election nor vote — the probing
    // leader stays unopposed by us for its (derated) lease window.
    Msg Reply;
    Reply.K = Msg::Kind::ReadIndexReply;
    Reply.From = Id;
    Reply.To = M.From;
    Reply.Done = true;
    Reply.ReadRound = M.ReadRound;
    if (M.Term < Term) {
      Reply.Term = Term;
      Reply.Success = false;
      Out.push_back(Effect::send(std::move(Reply)));
      return;
    }
    stepDown(M.Term, Out); // Also resets the election timer.
    LeaderHint = M.From;
    LastLeaderContactUs = NowUs;
    Reply.Term = Term;
    Reply.Success = true;
    Out.push_back(Effect::send(std::move(Reply)));
    return;
  }
  // A read forwarded by a follower; ReadRound carries its cookie.
  if (M.Term > Term)
    stepDown(M.Term, Out);
  Msg Reply;
  Reply.K = Msg::Kind::ReadIndexReply;
  Reply.From = Id;
  Reply.To = M.From;
  Reply.Term = Term;
  Reply.Done = false;
  Reply.ReadRound = M.ReadRound;
  if (MyRole != Role::Leader) {
    Reply.Success = false; // Wrong-leader NACK: client retries at leader.
    Out.push_back(Effect::send(std::move(Reply)));
    return;
  }
  if (leaseLive(NowUs)) {
    Reply.Success = true;
    Reply.LeaderCommit = CommitIndex;
    Out.push_back(Effect::send(std::move(Reply)));
    return;
  }
  RemoteRead RR;
  RR.From = M.From;
  RR.Cookie = M.ReadRound;
  RR.Index = CommitIndex;
  RR.NeedRound = ReadRound + 1;
  RemoteReads.push_back(RR);
  if (!RoundInFlight)
    startReadRound(NowUs, Out);
}

void RaftCore::onReadIndexReply(const Msg &M, uint64_t NowUs, Effects &Out) {
  if (M.Done) {
    // Probe ack (or its term-mismatch refusal).
    if (M.Term > Term) {
      stepDown(M.Term, Out);
      return;
    }
    if (MyRole != Role::Leader || M.Term != Term || !M.Success ||
        !RoundInFlight || M.ReadRound != ReadRound)
      return; // Stale round, stale term, or refusal: ignore.
    noteAck(M.From); // An ack proves the replica alive, like any other.
    RoundAcks.insert(M.From);
    if (Scheme->isQuorum(RoundAcks, config()))
      completeReadRound(NowUs, Out);
    return;
  }
  // Answer to a read this node forwarded as a follower.
  if (M.Term > Term)
    stepDown(M.Term, Out);
  auto It = std::find_if(
      FwdReads.begin(), FwdReads.end(),
      [&](const FwdRead &F) { return F.Cookie == M.ReadRound; });
  if (It == FwdReads.end())
    return; // Duplicate or pre-crash answer: the cookie is gone.
  uint64_t ReadId = It->ReadId;
  FwdReads.erase(It);
  if (!M.Success) {
    Out.push_back(Effect::readFailed(ReadId));
    return;
  }
  // The leader's safe index: serve once our applied prefix reaches it.
  size_t Index = static_cast<size_t>(M.LeaderCommit);
  if (Applied >= Index) {
    Out.push_back(Effect::readReady(ReadId, Index));
    return;
  }
  ApplyWaiter W;
  W.ReadId = ReadId;
  W.Index = Index;
  ApplyWaiters.push_back(W);
}

//===----------------------------------------------------------------------===//
// Leader machinery
//===----------------------------------------------------------------------===//

void RaftCore::appendOwn(LogEntry Entry, Effects &Out) {
  appendEntry(std::move(Entry));
  updatePassivity();
  broadcastAppends(Out);
  advanceCommit(Out); // Singleton configurations commit instantly.
}

void RaftCore::replicateTo(NodeId Peer, Effects &Out) {
  size_t Next = NextIndex.count(Peer) ? NextIndex[Peer]
                                      : lastLogIndex() + 1;
  assert(Next >= 1 && "nextIndex must stay positive");
  if (Opts.EnableSnapshotCatchup) {
    // A transfer in flight owns this peer's replication stream until it
    // completes or aborts (heartbeat rounds re-send the current chunk,
    // which is what recovers a dropped one).
    if (OutgoingSnaps.count(Peer)) {
      sendSnapshotChunk(Peer, Out);
      return;
    }
    // Far enough behind the commit point: ship the whole committed
    // prefix as one resumable bulk transfer instead of grinding through
    // MaxEntriesPerAppend-sized rounds.
    if (CommitIndex >= Next + Opts.SnapshotLagEntries) {
      SnapshotXfer X;
      X.SnapIndex = CommitIndex;
      X.SnapTerm = Log[CommitIndex - 1].Term;
      X.Payload = codec::encodeSnapshotPayload(Log, CommitIndex);
      OutgoingSnaps.emplace(Peer, std::move(X));
      // The transfer owns this peer's stream; drop any stale pipeline
      // bookkeeping so replication resumes cleanly after it completes.
      Pipe.erase(Peer);
      sendSnapshotChunk(Peer, Out);
      return;
    }
  }
  // The send cursor runs ahead of NextIndex (which only acks advance);
  // acks send only past it, and a heartbeat or NAK rewinds it.
  PeerPipe &PP = Pipe[Peer];
  if (PP.SentNext < Next)
    PP.SentNext = Next; // Fresh pipe, or acks overtook the cursor.
  if (Opts.PipelineWindow <= 1) {
    // Unit window: one frame per call, from the acked point, so every
    // broadcast also retransmits the unacked suffix.
    PP.SentNext = std::max(PP.SentNext, sendAppendFrame(Peer, Next, Out));
    return;
  }
  // Pipelined: stream entry-bearing frames until the window fills or
  // the log runs dry.
  bool SentEntries = false;
  while (PP.InFlight < Opts.PipelineWindow && PP.SentNext <= lastLogIndex()) {
    PP.SentNext = sendAppendFrame(Peer, PP.SentNext, Out);
    ++PP.InFlight;
    SentEntries = true;
  }
  // Caught up (or the cursor is parked past the log): an empty frame
  // still carries LeaderCommit and proves leadership. It does not
  // occupy a window slot — its ack harmlessly saturates at zero.
  if (!SentEntries && PP.InFlight == 0)
    sendAppendFrame(Peer, PP.SentNext, Out);
}

void RaftCore::streamUnsent(NodeId Peer, Effects &Out) {
  auto It = Pipe.find(Peer);
  size_t Cursor = std::max(It == Pipe.end() ? 0 : It->second.SentNext,
                           NextIndex[Peer]);
  if (Cursor <= lastLogIndex())
    replicateTo(Peer, Out);
}

size_t RaftCore::sendAppendFrame(NodeId Peer, size_t Next, Effects &Out) {
  assert(Next >= 1 && "append frames start at index 1");
  Msg M;
  M.K = Msg::Kind::AppendEntries;
  M.From = Id;
  M.To = Peer;
  M.Term = Term;
  M.PrevIndex = Next - 1;
  M.PrevTerm = M.PrevIndex == 0 ? 0 : Log[M.PrevIndex - 1].Term;
  size_t End = std::min(Log.size(), M.PrevIndex + Opts.MaxEntriesPerAppend);
  for (size_t I = Next; I <= End; ++I)
    M.Entries.push_back(Log[I - 1]);
  M.LeaderCommit = CommitIndex;
  Out.push_back(Effect::send(std::move(M)));
  return std::max(Next, End + 1);
}

void RaftCore::broadcastAppends(Effects &Out, bool ResetPipe) {
  if (MyRole != Role::Leader)
    return;
  for (NodeId Peer : Scheme->mbrs(config())) {
    if (Peer == Id)
      continue;
    if (!NextIndex.count(Peer))
      NextIndex[Peer] = lastLogIndex() + 1; // Node joined just now.
    if (ResetPipe) {
      // Heartbeat round: rewind to the acked point and re-send from
      // there. This is how frames lost in flight get retransmitted.
      PeerPipe &PP = Pipe[Peer];
      PP.InFlight = 0;
      PP.SentNext = NextIndex[Peer];
    }
    replicateTo(Peer, Out);
  }
}

void RaftCore::advanceCommit(Effects &Out) {
  // Index N commits when a quorum of configOfPrefix(N) holds it. The
  // set holding N changes only just past a match index, and the
  // prefix's configuration only at a reconfig entry, so the highest
  // committable index ends a run on which both are constant: the log
  // end, a match index, or the index before a reconfig entry. Testing
  // just those costs O(peers + uncommitted reconfigs) per ack or
  // submit, not O(uncommitted entries), and commits exactly what a
  // scan of every index would.
  size_t Last = lastLogIndex();
  if (Last <= CommitIndex)
    return;
  std::vector<size_t> Candidates{Last};
  for (const auto &[Peer, Match] : MatchIndex)
    if (Match > CommitIndex && Match < Last)
      Candidates.push_back(Match);
  for (auto It = ConfHist.rbegin();
       It != ConfHist.rend() && It->first > CommitIndex + 1; ++It)
    Candidates.push_back(It->first - 1);
  std::sort(Candidates.begin(), Candidates.end(), std::greater<>());
  for (size_t N : Candidates) {
    if (Log[N - 1].Term != Term)
      break; // Only own-term entries commit directly.
    NodeSet Replicated{Id};
    for (const auto &[Peer, Match] : MatchIndex)
      if (Match >= N)
        Replicated.insert(Peer);
    if (!Scheme->isQuorum(Replicated, configOfPrefix(N)))
      continue;
    applyUpTo(N, Out);
    // Propagate the new commit index promptly.
    broadcastAppends(Out);
    return;
  }
}

void RaftCore::applyUpTo(size_t Index, Effects &Out) {
  assert(Index <= Log.size() && "applying past the log");
  if (Index > CommitIndex) {
    CommitIndex = Index;
    Out.push_back(Effect::commitAdvanced(CommitIndex));
  }
  while (Applied < CommitIndex) {
    ++Applied;
    Out.push_back(Effect::apply(Applied, Log[Applied - 1]));
  }
  // Forwarded reads parked on the applied prefix become servable the
  // moment it reaches their safe index.
  for (auto It = ApplyWaiters.begin(); It != ApplyWaiters.end();) {
    if (It->Index <= Applied) {
      Out.push_back(Effect::readReady(It->ReadId, It->Index));
      It = ApplyWaiters.erase(It);
    } else {
      ++It;
    }
  }
}

void RaftCore::finishStep(Effects &Out) {
  if (!Dirty)
    return;
  Dirty = false;
  Out.push_back(
      Effect::persist(Term, Log.size(), std::min(DirtyFrom, Log.size() + 1)));
  DirtyFrom = SIZE_MAX;
}

//===----------------------------------------------------------------------===//
// Client-facing API
//===----------------------------------------------------------------------===//

bool RaftCore::submit(MethodId Method, uint64_t ClientSeq, Effects &Out) {
  if (Crashed || MyRole != Role::Leader)
    return false;
  LogEntry E;
  E.Term = Term;
  E.Kind = EntryKind::Method;
  E.Method = Method;
  E.ClientSeq = ClientSeq;
  appendOwn(std::move(E), Out);
  finishStep(Out);
  return true;
}

bool RaftCore::requestReconfig(const Config &NewConf, Effects &Out) {
  if (Crashed || MyRole != Role::Leader)
    return false;
  if (!Scheme->isValidConfig(NewConf))
    return false;
  if (!Scheme->mbrs(NewConf).contains(Id))
    return false; // Leaders do not remove themselves.
  if (!Scheme->r1Plus(config(), NewConf))
    return false;
  if (!logSatisfiesR2() || !logSatisfiesR3())
    return false;
  NodeSet OldMembers = Scheme->mbrs(config());
  LogEntry E;
  E.Term = Term;
  E.Kind = EntryKind::Reconfig;
  E.Conf = NewConf;
  appendOwn(std::move(E), Out);
  // Lease invalidation at reconfig-APPEND time. The lease quorum was
  // granted under the old configuration; the instant a new one exists
  // in the log it could commit and elect a leader whose voters never
  // promised us anything, so the lease dies now — not at commit, not
  // at expiry. Pending confirmation rounds die with it (their acks are
  // old-config promises too); clients simply retry. Until the entry
  // commits, R2 fails, so completeReadRound cannot re-grant.
  clearLease();
  failAllReads(Out);
  // The new configuration takes effect at append time, so drop failure-
  // detection state for ejected peers here rather than waiting for the
  // next heartbeat round: a leader must never suspect a non-member of
  // its own configuration (the model checker holds us to this). No
  // ReplicaRecovered is emitted — an ejected suspect is presumed dead,
  // and the heal driver's blacklist must keep remembering it.
  NodeSet NewMembers = Scheme->mbrs(NewConf);
  for (auto It = SuspicionScore.begin(); It != SuspicionScore.end();)
    It = NewMembers.contains(It->first) ? std::next(It)
                                        : SuspicionScore.erase(It);
  Suspected = Suspected.intersectWith(NewMembers);
  // Nodes leaving the configuration still receive this round so they
  // learn of their removal and go passive instead of campaigning
  // against the remaining members.
  for (NodeId Peer : OldMembers.differenceWith(NewMembers)) {
    if (Peer == Id)
      continue;
    if (!NextIndex.count(Peer))
      NextIndex[Peer] = lastLogIndex();
    replicateTo(Peer, Out);
  }
  finishStep(Out);
  return true;
}

bool RaftCore::transferLeadership(NodeId Target, Effects &Out) {
  if (Crashed || MyRole != Role::Leader || Target == Id)
    return false;
  if (!Scheme->mbrs(config()).contains(Target))
    return false;
  // The target must hold our full log, or its immediate election would
  // lose to better-informed voters (and our uncommitted tail could die).
  auto It = MatchIndex.find(Target);
  if (It == MatchIndex.end() || It->second < lastLogIndex())
    return false;
  Msg M;
  M.K = Msg::Kind::TimeoutNow;
  M.From = Id;
  M.To = Target;
  M.Term = Term;
  Out.push_back(Effect::send(std::move(M)));
  // Step aside so we do not compete with the fresh candidate. Keep the
  // term: the target's election will bump it past us. The lease and
  // any waiting reads are leadership-local and go with it.
  clearLease();
  failAllReads(Out);
  MyRole = Role::Follower;
  ++HeartbeatGen;
  Out.push_back(Effect::cancelTimer(TimerId::Heartbeat));
  armElectionTimer(Out);
  return true;
}

std::string RaftCore::describe() const {
  std::string Out = "S" + std::to_string(Id) + "[" + roleName(MyRole) +
                    " t=" + std::to_string(Term) +
                    " log=" + std::to_string(Log.size()) +
                    " ci=" + std::to_string(CommitIndex) +
                    " cf=" + config().str();
  if (Passive)
    Out += " passive";
  Out += "]";
  return Out;
}
