//===- store/NodeStore.h - Per-replica durable store ----------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One replica's durable persistence: a rotating CRC-framed WAL plus
/// snapshot checkpoints under a per-node directory of a Vfs, and a
/// recovery path that rebuilds the durable fields of a core::RaftCore
/// from snapshot + replay, truncating (never loading) corrupt tails.
///
/// The write path is incremental and group-committed: the core reports
/// the first log slot it changed since its last Persist effect (the
/// dirty-from index), and persistState() appends only what changed from
/// there (a Truncate when a conflict dropped durable slots, Appends for
/// the new ones, a TermVote when either changed), so its cost does not
/// depend on the log's length. Each persist or commit call frames its
/// records in place into one reused buffer (store/Wal.h's writers) and
/// hands it to the Vfs in ONE append before it returns, to the segment
/// path cached when the segment was opened. Records land in the file
/// immediately but are not durable until sync(), which issues ONE fsync
/// for the whole batch — including any Commit records that rode along —
/// and is where segment rotation and snapshot compaction happen. A
/// snapshot encodes the log passed to the persist call that preceded
/// the sync.
///
/// Hosts call persistFrom(core, dirty-from)+sync() before acting on any
/// effect of a batch that carries a Persist effect (persist-before-act), call
/// noteCommit() on CommitAdvanced (deferred: rides the next sync), and
/// at start and restart call recoverInto(), which opens the store and
/// installs what it recovered into the core.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_STORE_NODESTORE_H
#define ADORE_STORE_NODESTORE_H

#include "core/RaftCore.h"
#include "store/Vfs.h"
#include "store/Wal.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace adore {
namespace store {

/// Compaction thresholds (bytes of WAL, checked at sync boundaries).
struct StoreOptions {
  /// Rotate to a fresh segment once the current one exceeds this.
  uint64_t SegmentBytes = 16 * 1024;
  /// Snapshot + delete old segments once this much WAL has accumulated
  /// since the last snapshot.
  uint64_t SnapshotEveryBytes = 64 * 1024;
};

/// What open() recovered from disk.
struct RecoveredState {
  Time Term = 0;
  std::optional<NodeId> Vote;
  std::vector<core::LogEntry> Log;
  size_t CommitIndex = 0;
  bool FromSnapshot = false;
  /// A torn/corrupt WAL tail (or corrupt snapshot) was detected and cut
  /// off. The surviving prefix is still valid state.
  bool TailCorruptionDetected = false;
  uint64_t TruncatedBytes = 0;
  size_t RecordsReplayed = 0;
  size_t SegmentsScanned = 0;
  /// Set when the directory is unrecoverable (e.g. every snapshot is
  /// corrupt and the WAL prefix it covered is already compacted away).
  /// The store refuses to guess: no state is loaded.
  std::optional<std::string> Error;
};

/// Lifetime counters, aggregatable across nodes and runs.
struct StoreStats {
  uint64_t Syncs = 0;
  uint64_t RecordsWritten = 0;
  uint64_t BytesWritten = 0;
  /// Largest number of records made durable by a single fsync
  /// (group-commit batch size high-water mark).
  uint64_t MaxBatchRecords = 0;
  uint64_t Snapshots = 0;
  uint64_t SegmentsCreated = 0;
  uint64_t SegmentsDeleted = 0;
  uint64_t Recoveries = 0;
  uint64_t TornTailsDetected = 0;
  uint64_t TruncatedBytes = 0;
  uint64_t RecoveryUsTotal = 0;
  uint64_t RecoveryUsMax = 0;

  void accumulate(const StoreStats &O);
};

/// One replica's durable store rooted at \p Dir within \p V. Not
/// internally synchronized: each node owns its store and drives it from
/// one thread at a time (the Vfs underneath is the shared, locked
/// layer).
class NodeStore {
public:
  NodeStore(Vfs &V, std::string Dir, StoreOptions Opts = StoreOptions());

  /// Scans the directory and rebuilds durable state: newest valid
  /// snapshot, then WAL replay in segment order, stopping at — and
  /// physically truncating — the first corrupt byte. Leaves the store
  /// positioned to append. Call once at start and again after crash().
  RecoveredState open();

  /// The hosts' recovery path: open(), then with \p CheckAgainstCore
  /// cross-check the recovered term, vote and log (which must equal the
  /// core's in-memory copy) and commit index (which may only lag), then
  /// install the recovered state into \p Core. Returns one message per
  /// mismatching field; an unrecoverable directory returns its error
  /// and leaves \p Core untouched.
  std::vector<std::string> recoverInto(core::RaftCore &Core,
                                       bool CheckAgainstCore);

  /// Appends the core's durable fields changed since the last persist
  /// (unsynced): log slots from \p DirtyFrom (1-based, the lowest index
  /// of the batch's Persist effects) and term/vote if they differ.
  /// Returns false on I/O error.
  bool persistFrom(const core::RaftCore &Core, size_t DirtyFrom);

  /// Lower-level form of persistFrom for arbitrary states (tests). Slots
  /// below \p DirtyFrom must equal what the store holds. \p Log must stay
  /// alive and unchanged until the next sync(), which may snapshot it.
  bool persistState(Time Term, std::optional<NodeId> Vote,
                    const std::vector<core::LogEntry> &Log, size_t DirtyFrom);

  /// Records a commit-index advance (unsynced; rides the next sync()).
  void noteCommit(size_t Index);

  /// Group commit: one fsync covering every record appended since the
  /// last barrier, then rotation/snapshot housekeeping.
  bool sync();

  /// Simulated power loss: fires the crash hook (MemVfs::crashDir) and
  /// closes the store; the next open() recovers from what survived.
  void crash();

  /// Hook run by crash(); cluster harnesses point it at the fault
  /// injector so the store stays ignorant of the Vfs's concrete type.
  void setCrashHook(std::function<void()> Hook) { CrashHook = std::move(Hook); }

  const StoreStats &stats() const { return Stats; }
  const std::string &dir() const { return Dir; }
  bool isOpen() const { return Open; }
  /// Current WAL segment sequence number (tests).
  uint64_t segmentSeq() const { return CurSeq; }

private:
  std::string segPath(uint64_t Seq) const;
  std::string snapPath(uint64_t Seq) const;
  /// Positions the write path at segment \p Seq (sets CurSeq and CurPath).
  void setSegment(uint64_t Seq);
  /// Hands Batch, holding \p Records framed records, to the Vfs in one
  /// append; counts them only if the Vfs took them.
  bool appendBatch(uint64_t Records);
  bool createSegment(uint64_t Seq);
  bool takeSnapshot(const std::vector<core::LogEntry> &Log);
  bool rotateSegment();

  Vfs &V;
  std::string Dir;
  StoreOptions Opts;
  std::function<void()> CrashHook;

  bool Open = false;
  uint64_t CurSeq = 0;
  /// segPath(CurSeq), formatted once per segment rather than per append.
  std::string CurPath;
  /// The records of the current persist or commit call, framed in
  /// place; reused so a call allocates nothing once it has grown.
  std::string Batch;
  /// Records appended since the last sync barrier (group-commit size).
  uint64_t UnsyncedRecords = 0;
  /// WAL bytes laid down since the last snapshot (compaction trigger).
  uint64_t WalBytesSinceSnapshot = 0;

  // What the WAL+snapshot encode: term, vote, log length and commit.
  Time MirrorTerm = 0;
  std::optional<NodeId> MirrorVote;
  size_t MirrorLogLen = 0;
  size_t MirrorCommit = 0;
  /// The log passed to the last persist call, until the next sync().
  const std::vector<core::LogEntry> *SnapLog = nullptr;

  StoreStats Stats;
};

} // namespace store
} // namespace adore

#endif // ADORE_STORE_NODESTORE_H
