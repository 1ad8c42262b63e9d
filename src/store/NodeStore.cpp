//===- store/NodeStore.cpp - Per-replica durable store ----------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "store/NodeStore.h"

#include <algorithm>
#include <chrono>

using namespace adore;
using namespace adore::store;

void StoreStats::accumulate(const StoreStats &O) {
  Syncs += O.Syncs;
  RecordsWritten += O.RecordsWritten;
  BytesWritten += O.BytesWritten;
  MaxBatchRecords = std::max(MaxBatchRecords, O.MaxBatchRecords);
  Snapshots += O.Snapshots;
  SegmentsCreated += O.SegmentsCreated;
  SegmentsDeleted += O.SegmentsDeleted;
  Recoveries += O.Recoveries;
  TornTailsDetected += O.TornTailsDetected;
  TruncatedBytes += O.TruncatedBytes;
  RecoveryUsTotal += O.RecoveryUsTotal;
  RecoveryUsMax = std::max(RecoveryUsMax, O.RecoveryUsMax);
}

NodeStore::NodeStore(Vfs &V, std::string Dir, StoreOptions Opts)
    : V(V), Dir(std::move(Dir)), Opts(Opts) {}

std::string NodeStore::segPath(uint64_t Seq) const {
  return Dir + "/" + segmentName(Seq);
}

std::string NodeStore::snapPath(uint64_t Seq) const {
  return Dir + "/" + snapshotName(Seq);
}

//===----------------------------------------------------------------------===//
// Recovery
//===----------------------------------------------------------------------===//

RecoveredState NodeStore::open() {
  auto T0 = std::chrono::steady_clock::now();
  RecoveredState RS;

  // Inventory the directory. Names are zero-padded so the sorted list()
  // order is numeric order; anything unparsable (stray tmp files) is
  // ignored.
  std::vector<std::pair<uint64_t, std::string>> Snaps, Segs;
  for (const std::string &P : V.list(Dir + "/snap-")) {
    uint64_t Seq;
    if (parseTrailingSeq(P, Seq))
      Snaps.emplace_back(Seq, P);
  }
  for (const std::string &P : V.list(Dir + "/wal-")) {
    uint64_t Seq;
    if (parseTrailingSeq(P, Seq))
      Segs.emplace_back(Seq, P);
  }

  // Pick the newest decodable snapshot as the baseline. Falling back to
  // an older snapshot is only sound if the WAL records it was missing
  // still exist — i.e. the segment the snapshot points at survives. If
  // compaction already deleted them, loading the older snapshot would
  // silently resurrect stale state, so the store refuses instead.
  uint64_t StartSeq = 1;
  std::vector<std::string> CorruptSnaps;
  bool HaveBase = false;
  for (auto It = Snaps.rbegin(); It != Snaps.rend(); ++It) {
    std::string Bytes;
    uint64_t Term = 0, Commit = 0;
    std::optional<NodeId> Vote;
    std::vector<core::LogEntry> Log;
    if (!V.readFile(It->second, Bytes) ||
        !decodeSnapshot(Bytes, Term, Vote, Commit, Log)) {
      CorruptSnaps.push_back(It->second);
      RS.TailCorruptionDetected = true;
      continue;
    }
    auto FirstGE = std::find_if(Segs.begin(), Segs.end(), [&](const auto &S) {
      return S.first >= It->first;
    });
    if (FirstGE != Segs.end() && FirstGE->first > It->first) {
      RS.Error = "snapshot " + It->second +
                 " decodes but its WAL segment is missing (compacted gap); "
                 "refusing to load stale state";
      return RS;
    }
    RS.Term = Term;
    RS.Vote = Vote;
    RS.Log = std::move(Log);
    RS.CommitIndex = Commit;
    RS.FromSnapshot = true;
    StartSeq = It->first;
    HaveBase = true;
    break;
  }
  if (!HaveBase && !CorruptSnaps.empty()) {
    // Every snapshot is corrupt. Full replay from segment 1 is the only
    // safe fallback, and only if that prefix still exists.
    if (Segs.empty() || Segs.front().first != 1) {
      RS.Error = "all snapshots corrupt and the WAL prefix they covered "
                 "is compacted away; refusing to load corrupt state";
      return RS;
    }
  }

  // Replay segments StartSeq, StartSeq+1, ... in order. The scan stops
  // at the first invalid byte; the corrupt tail is physically truncated
  // and any later segments (now unreachable history) are deleted.
  uint64_t Expected = StartSeq;
  bool Stopped = false;
  uint64_t LastSeen = 0;
  for (const auto &[Seq, Path] : Segs) {
    if (Seq < StartSeq)
      continue; // Covered by the snapshot; compaction will remove it.
    if (Stopped || Seq != Expected) {
      // A gap (or an earlier stop) means this segment's records no
      // longer connect to the recovered prefix. Drop it.
      RS.TailCorruptionDetected = true;
      Stats.TruncatedBytes += V.fileSize(Path);
      RS.TruncatedBytes += V.fileSize(Path);
      V.removeFile(Path);
      Stats.SegmentsDeleted++;
      continue;
    }
    ++RS.SegmentsScanned;
    std::string Bytes;
    V.readFile(Path, Bytes);
    SegmentScan Scan = scanSegment(Bytes);
    if (!Scan.HeaderOk || Scan.Seq != Seq) {
      // The header itself is gone; nothing in this file is loadable.
      RS.TailCorruptionDetected = true;
      Stats.TornTailsDetected++;
      Stats.TruncatedBytes += Bytes.size();
      RS.TruncatedBytes += Bytes.size();
      V.removeFile(Path);
      Stats.SegmentsDeleted++;
      Stopped = true;
      continue;
    }
    uint64_t ValidEnd = SegmentHeaderBytes;
    bool SemanticStop = false;
    for (const WalRecord &R : Scan.Records) {
      switch (R.Type) {
      case RecordType::TermVote:
        RS.Term = R.Term;
        RS.Vote = R.Vote;
        break;
      case RecordType::Append:
        // Slots are contiguous and 1-based; a gap means the record
        // stream itself is damaged, not just torn.
        if (R.Index != RS.Log.size() + 1)
          SemanticStop = true;
        else
          RS.Log.push_back(R.Entry);
        break;
      case RecordType::Truncate:
        if (R.NewLen > RS.Log.size())
          SemanticStop = true;
        else
          RS.Log.resize(R.NewLen);
        break;
      case RecordType::Commit:
        // Advisory floor; clamped against the final log below.
        RS.CommitIndex = std::max<size_t>(RS.CommitIndex, R.Index);
        break;
      }
      if (SemanticStop)
        break;
      ValidEnd = R.EndOffset;
      ++RS.RecordsReplayed;
    }
    if (Scan.CorruptTail || SemanticStop) {
      uint64_t End = SemanticStop ? ValidEnd : Scan.ValidBytes;
      RS.TailCorruptionDetected = true;
      Stats.TornTailsDetected++;
      Stats.TruncatedBytes += Bytes.size() - End;
      RS.TruncatedBytes += Bytes.size() - End;
      V.truncate(Path, End);
      V.sync(Path);
      Stopped = true;
      LastSeen = Seq;
      ++Expected;
      continue;
    }
    LastSeen = Seq;
    ++Expected;
  }

  RS.CommitIndex = std::min(RS.CommitIndex, RS.Log.size());

  // Position the write path. If the directory had no segment for the
  // current sequence (fresh store, or a crash landed between snapshot
  // rename and segment creation), lay one down now.
  setSegment(LastSeen != 0 ? LastSeen : StartSeq);
  if (!V.exists(CurPath)) {
    if (!createSegment(CurSeq)) {
      RS.Error = "cannot create WAL segment in " + Dir;
      return RS;
    }
  }

  // Recovery succeeded: corrupt snapshots are dead weight now.
  for (const std::string &P : CorruptSnaps)
    V.removeFile(P);

  MirrorTerm = RS.Term;
  MirrorVote = RS.Vote;
  MirrorLogLen = RS.Log.size();
  SnapLog = nullptr;
  MirrorCommit = RS.CommitIndex;
  UnsyncedRecords = 0;
  WalBytesSinceSnapshot = 0;
  Open = true;

  auto T1 = std::chrono::steady_clock::now();
  uint64_t Us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(T1 - T0).count());
  Stats.Recoveries++;
  Stats.RecoveryUsTotal += Us;
  Stats.RecoveryUsMax = std::max(Stats.RecoveryUsMax, Us);
  return RS;
}

std::vector<std::string> NodeStore::recoverInto(core::RaftCore &Core,
                                                bool CheckAgainstCore) {
  RecoveredState RS = open();
  // Unrecoverable directory: leave the in-memory state in place so the
  // run can proceed, but report it — under the supported fault model
  // this must never happen.
  if (RS.Error)
    return {*RS.Error};
  std::vector<std::string> Mismatches;
  if (CheckAgainstCore) {
    // Every Persist-carrying batch syncs before any of its effects
    // escape, so the only bytes a crash may cost are deferred Commit
    // records: recovered term/vote/log must match the in-memory copy
    // EXACTLY, even with crash faults on, and only the commit index may
    // lag.
    if (RS.Term != Core.term())
      Mismatches.push_back("recovered term " + std::to_string(RS.Term) +
                           " != in-memory " + std::to_string(Core.term()));
    if (RS.Vote != Core.votedFor())
      Mismatches.push_back("recovered vote differs from in-memory vote");
    if (RS.Log != Core.log())
      Mismatches.push_back("recovered log (" + std::to_string(RS.Log.size()) +
                           " entries) differs from in-memory log (" +
                           std::to_string(Core.log().size()) + " entries)");
    if (RS.CommitIndex > Core.commitIndex())
      Mismatches.push_back("recovered commit index " +
                           std::to_string(RS.CommitIndex) +
                           " ahead of in-memory " +
                           std::to_string(Core.commitIndex()));
  }
  Core.installDurableState(RS.Term, RS.Vote, std::move(RS.Log),
                           RS.CommitIndex);
  return Mismatches;
}

//===----------------------------------------------------------------------===//
// Write path
//===----------------------------------------------------------------------===//

void NodeStore::setSegment(uint64_t Seq) {
  CurSeq = Seq;
  CurPath = segPath(Seq);
}

bool NodeStore::appendBatch(uint64_t Records) {
  if (Records == 0)
    return true;
  if (!V.append(CurPath, Batch))
    return false;
  UnsyncedRecords += Records;
  Stats.RecordsWritten += Records;
  Stats.BytesWritten += Batch.size();
  WalBytesSinceSnapshot += Batch.size();
  return true;
}

bool NodeStore::persistFrom(const core::RaftCore &Core, size_t DirtyFrom) {
  return persistState(Core.term(), Core.votedFor(), Core.log(), DirtyFrom);
}

bool NodeStore::persistState(Time Term, std::optional<NodeId> Vote,
                             const std::vector<core::LogEntry> &Log,
                             size_t DirtyFrom) {
  assert(Open && "persist on a closed store");
  assert(DirtyFrom >= 1 && "log slots are 1-based");
  Batch.clear();
  uint64_t Records = 0;

  // The slots below the dirty mark are the ones the store already holds.
  size_t Common = std::min({DirtyFrom - 1, MirrorLogLen, Log.size()});
  if (MirrorLogLen > Common) {
    frameTruncate(Batch, Common);
    ++Records;
  }
  for (size_t I = Common; I < Log.size(); ++I)
    frameAppend(Batch, I + 1, Log[I]);
  Records += Log.size() - Common;
  MirrorLogLen = Log.size();
  SnapLog = &Log;
  if (Term != MirrorTerm || Vote != MirrorVote) {
    frameTermVote(Batch, Term, Vote);
    ++Records;
    MirrorTerm = Term;
    MirrorVote = Vote;
  }
  return appendBatch(Records);
}

void NodeStore::noteCommit(size_t Index) {
  assert(Open && "noteCommit on a closed store");
  if (Index <= MirrorCommit)
    return;
  MirrorCommit = Index;
  Batch.clear();
  frameCommit(Batch, Index);
  appendBatch(1);
}

bool NodeStore::sync() {
  assert(Open && "sync on a closed store");
  const std::vector<core::LogEntry> *Log = SnapLog;
  SnapLog = nullptr;
  if (UnsyncedRecords == 0)
    return true;
  if (!V.sync(CurPath))
    return false;
  Stats.Syncs++;
  Stats.MaxBatchRecords = std::max(Stats.MaxBatchRecords, UnsyncedRecords);
  UnsyncedRecords = 0;

  // Housekeeping happens only at sync boundaries, so a rotation or
  // snapshot never splits an un-fsynced batch across files. A snapshot
  // needs the log, so a sync without a persist call since the last one
  // leaves it to the next sync that has one.
  if (Log && WalBytesSinceSnapshot >= Opts.SnapshotEveryBytes)
    return takeSnapshot(*Log);
  if (V.fileSize(CurPath) >= Opts.SegmentBytes)
    return rotateSegment();
  return true;
}

bool NodeStore::createSegment(uint64_t Seq) {
  std::string Path = segPath(Seq);
  if (!V.append(Path, segmentHeader(Seq)) || !V.sync(Path))
    return false;
  Stats.SegmentsCreated++;
  return true;
}

bool NodeStore::rotateSegment() {
  uint64_t Next = CurSeq + 1;
  if (!createSegment(Next))
    return false;
  setSegment(Next);
  return true;
}

bool NodeStore::takeSnapshot(const std::vector<core::LogEntry> &Log) {
  // Checkpoint the durable state (everything below is already fsynced —
  // this runs right after the sync barrier), install it atomically via
  // tmp-write + rename, start a fresh segment at the same sequence
  // number, then drop the history both now cover. Order matters: the
  // snapshot must be durable under its final name before any segment it
  // replaces is deleted.
  uint64_t Next = CurSeq + 1;
  std::string Tmp = Dir + "/snap.tmp";
  V.removeFile(Tmp);
  assert(Log.size() == MirrorLogLen && "snapshot of an unpersisted log");
  std::string Bytes = encodeSnapshot(MirrorTerm, MirrorVote, MirrorCommit, Log);
  if (!V.append(Tmp, Bytes) || !V.sync(Tmp) ||
      !V.renameFile(Tmp, snapPath(Next)))
    return false;
  Stats.Snapshots++;
  if (!createSegment(Next))
    return false;
  uint64_t Prev = CurSeq;
  setSegment(Next);
  WalBytesSinceSnapshot = 0;
  for (uint64_t Seq = Prev;; --Seq) {
    bool Removed = false;
    if (V.exists(segPath(Seq))) {
      V.removeFile(segPath(Seq));
      Stats.SegmentsDeleted++;
      Removed = true;
    }
    if (V.exists(snapPath(Seq))) {
      V.removeFile(snapPath(Seq));
      Removed = true;
    }
    if (!Removed || Seq == 1)
      break;
  }
  return true;
}

void NodeStore::crash() {
  if (CrashHook)
    CrashHook();
  Open = false;
  UnsyncedRecords = 0;
  MirrorLogLen = 0;
  SnapLog = nullptr;
  MirrorTerm = 0;
  MirrorVote.reset();
  MirrorCommit = 0;
}
