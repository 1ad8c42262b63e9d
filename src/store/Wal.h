//===- store/Wal.h - Write-ahead log and snapshot format ------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk format of the durable store: CRC32C-framed,
/// length-prefixed records over the shared little-endian codec
/// (core/Codec.h — the same encoding the rt wire format uses), laid down
/// in rotating WAL segments, plus an atomically-renamed snapshot file
/// format for prefix compaction.
///
///   segment  := header record*
///   header   := "ADORWAL1" u32:version u64:seq
///   record   := u32:payload-len u32:crc32c(payload) payload
///   payload  := u8:type fields...
///
/// Record types:
///   TermVote  u64:term u8:has-vote u32:vote      (current term + vote)
///   Append    u64:index entry                    (log slot written, 1-based)
///   Truncate  u64:new-len                        (conflict suffix dropped)
///   Commit    u64:index                          (commit index advanced)
///
///   snapshot := "ADORSNP1" u32:payload-len u32:crc32c(payload) payload
///   payload  := u64:term u8:has-vote u32:vote u64:commit u64:log-len entry*
///
/// Recovery scans segments in sequence order and stops at the first
/// invalid byte: a record whose length is insane, whose CRC mismatches,
/// whose payload does not parse exactly, or a trailing partial record.
/// Everything before the stop point is the valid prefix; everything
/// after is a corrupt tail that is truncated, never loaded.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_STORE_WAL_H
#define ADORE_STORE_WAL_H

#include "core/RaftCore.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace adore {
namespace store {

/// WAL record discriminators (payload byte 0).
enum class RecordType : uint8_t {
  TermVote = 1,
  Append = 2,
  Truncate = 3,
  Commit = 4,
};

constexpr uint32_t WalVersion = 1;
/// A record claiming a payload larger than this is corrupt, not big.
constexpr uint64_t MaxRecordPayload = 1 << 26;

/// File-name scheme: zero-padded so lexicographic order is numeric order.
std::string segmentName(uint64_t Seq);             // "wal-%08u.log"
std::string snapshotName(uint64_t Seq);            // "snap-%08u.snap"
bool parseTrailingSeq(const std::string &Path, uint64_t &Seq);

/// 20-byte segment header carrying its own sequence number.
std::string segmentHeader(uint64_t Seq);
constexpr uint64_t SegmentHeaderBytes = 8 + 4 + 8;

/// Record writers. Each appends one framed record ([len][crc][payload])
/// to \p Out: it reserves the 8-byte frame header, encodes the payload
/// after it, then patches in the payload's length and CRC.
void frameTermVote(std::string &Out, uint64_t Term,
                   const std::optional<NodeId> &Vote);
void frameAppend(std::string &Out, uint64_t Index, const core::LogEntry &E);
void frameTruncate(std::string &Out, uint64_t NewLen);
void frameCommit(std::string &Out, uint64_t Index);

/// One decoded record (fields valid per Type).
struct WalRecord {
  RecordType Type = RecordType::TermVote;
  uint64_t Term = 0;              // TermVote.
  std::optional<NodeId> Vote;     // TermVote.
  uint64_t Index = 0;             // Append / Commit.
  core::LogEntry Entry;           // Append.
  uint64_t NewLen = 0;            // Truncate.
  /// Byte offset just past this record within its segment, so recovery
  /// can truncate exactly before a semantically invalid successor.
  uint64_t EndOffset = 0;
};

/// Result of scanning one segment's bytes.
struct SegmentScan {
  bool HeaderOk = false;
  uint64_t Seq = 0;
  std::vector<WalRecord> Records;
  /// Bytes up to and including the last valid record (0 if the header
  /// itself is bad).
  uint64_t ValidBytes = 0;
  /// True when invalid bytes follow the valid prefix (torn or corrupt
  /// tail — the recovery path truncates the file to ValidBytes).
  bool CorruptTail = false;
};

/// Walks every record of \p Bytes, stopping at the first invalid one.
SegmentScan scanSegment(const std::string &Bytes);

/// Snapshot encode/decode (full durable-state checkpoint). decode
/// returns false on any framing, CRC, or parse violation — a corrupt
/// snapshot is rejected wholesale, never partially loaded.
std::string encodeSnapshot(uint64_t Term, const std::optional<NodeId> &Vote,
                           uint64_t CommitIndex,
                           const std::vector<core::LogEntry> &Log);
bool decodeSnapshot(const std::string &Bytes, uint64_t &Term,
                    std::optional<NodeId> &Vote, uint64_t &CommitIndex,
                    std::vector<core::LogEntry> &Log);

} // namespace store
} // namespace adore

#endif // ADORE_STORE_WAL_H
