//===- store/Wal.cpp - Write-ahead log and snapshot format ------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "store/Wal.h"

#include "core/Codec.h"
#include "support/Crc32c.h"

#include <cassert>
#include <cstdio>

using namespace adore;
using namespace adore::store;

static const char WalMagic[8] = {'A', 'D', 'O', 'R', 'W', 'A', 'L', '1'};
static const char SnapMagic[8] = {'A', 'D', 'O', 'R', 'S', 'N', 'P', '1'};

std::string store::segmentName(uint64_t Seq) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "wal-%08llu.log",
                static_cast<unsigned long long>(Seq));
  return Buf;
}

std::string store::snapshotName(uint64_t Seq) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "snap-%08llu.snap",
                static_cast<unsigned long long>(Seq));
  return Buf;
}

bool store::parseTrailingSeq(const std::string &Path, uint64_t &Seq) {
  // "dir/wal-00000042.log" -> 42. The 8-digit field sits between the
  // last '-' and the last '.'.
  size_t Dash = Path.rfind('-');
  size_t Dot = Path.rfind('.');
  if (Dash == std::string::npos || Dot == std::string::npos || Dot <= Dash + 1)
    return false;
  uint64_t V = 0;
  for (size_t I = Dash + 1; I != Dot; ++I) {
    char C = Path[I];
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<uint64_t>(C - '0');
  }
  Seq = V;
  return true;
}

std::string store::segmentHeader(uint64_t Seq) {
  std::string Out(WalMagic, sizeof(WalMagic));
  codec::putU32(Out, WalVersion);
  codec::putU64(Out, Seq);
  return Out;
}

/// Reserves a zeroed [len][crc] frame header at the end of \p Out for
/// endFrame to patch; returns where the frame starts.
static size_t beginFrame(std::string &Out) {
  size_t Start = Out.size();
  Out.append(8, '\0');
  return Start;
}

/// Opens a WAL record: the frame header, then the record type.
static size_t beginRecord(std::string &Out, RecordType Type) {
  size_t Start = beginFrame(Out);
  codec::putU8(Out, static_cast<uint8_t>(Type));
  return Start;
}

static void patchU32(std::string &Out, size_t At, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out[At + I] = static_cast<char>(V >> (8 * I));
}

/// Closes the frame opened at \p Start: everything after its header is
/// the payload.
static void endFrame(std::string &Out, size_t Start) {
  size_t Len = Out.size() - Start - 8;
  patchU32(Out, Start, static_cast<uint32_t>(Len));
  patchU32(Out, Start + 4, crc32c(Out.data() + Start + 8, Len));
}

void store::frameTermVote(std::string &Out, uint64_t Term,
                          const std::optional<NodeId> &Vote) {
  size_t Start = beginRecord(Out, RecordType::TermVote);
  codec::putU64(Out, Term);
  codec::putU8(Out, Vote.has_value() ? 1 : 0);
  codec::putU32(Out, Vote.value_or(0));
  endFrame(Out, Start);
}

void store::frameAppend(std::string &Out, uint64_t Index,
                        const core::LogEntry &E) {
  size_t Start = beginRecord(Out, RecordType::Append);
  codec::putU64(Out, Index);
  codec::putEntry(Out, E);
  endFrame(Out, Start);
}

void store::frameTruncate(std::string &Out, uint64_t NewLen) {
  size_t Start = beginRecord(Out, RecordType::Truncate);
  codec::putU64(Out, NewLen);
  endFrame(Out, Start);
}

void store::frameCommit(std::string &Out, uint64_t Index) {
  size_t Start = beginRecord(Out, RecordType::Commit);
  codec::putU64(Out, Index);
  endFrame(Out, Start);
}

/// Decodes one payload into \p R; false means corrupt (even with a good
/// CRC, a payload must parse exactly — belt and braces).
static bool decodePayload(const std::string &Payload, WalRecord &R) {
  codec::Cursor C{Payload};
  uint8_t Type = C.u8();
  // Validate the raw byte up front, then switch over the typed enum
  // with no default: an out-of-range byte is corruption (rejected
  // here), while a *new* RecordType someone adds becomes a
  // -Werror=switch error below instead of silently decoding as corrupt.
  if (!C.Ok || Type < static_cast<uint8_t>(RecordType::TermVote) ||
      Type > static_cast<uint8_t>(RecordType::Commit))
    return false;
  switch (static_cast<RecordType>(Type)) {
  case RecordType::TermVote: {
    R.Type = RecordType::TermVote;
    R.Term = C.u64();
    bool HasVote = C.u8() != 0;
    NodeId Vote = C.u32();
    R.Vote = HasVote ? std::optional<NodeId>(Vote) : std::nullopt;
    return C.done();
  }
  case RecordType::Append: {
    R.Type = RecordType::Append;
    R.Index = C.u64();
    if (!C.entry(R.Entry))
      return false;
    return C.done();
  }
  case RecordType::Truncate: {
    R.Type = RecordType::Truncate;
    R.NewLen = C.u64();
    return C.done();
  }
  case RecordType::Commit: {
    R.Type = RecordType::Commit;
    R.Index = C.u64();
    return C.done();
  }
  }
  return false; // Unreachable: the range check above is exhaustive.
}

SegmentScan store::scanSegment(const std::string &Bytes) {
  SegmentScan S;
  if (Bytes.size() < SegmentHeaderBytes ||
      Bytes.compare(0, sizeof(WalMagic), WalMagic, sizeof(WalMagic)) != 0) {
    S.CorruptTail = !Bytes.empty();
    return S;
  }
  codec::Cursor Hdr{Bytes, sizeof(WalMagic)};
  uint32_t Version = Hdr.u32();
  uint64_t Seq = Hdr.u64();
  if (Version != WalVersion) {
    S.CorruptTail = true;
    return S;
  }
  S.HeaderOk = true;
  S.Seq = Seq;

  size_t Pos = SegmentHeaderBytes;
  for (;;) {
    if (Pos == Bytes.size())
      break; // Clean end at a record boundary.
    if (Bytes.size() - Pos < 8) {
      S.CorruptTail = true; // Partial frame header.
      break;
    }
    codec::Cursor C{Bytes, Pos};
    uint32_t Len = C.u32();
    uint32_t Crc = C.u32();
    if (Len > MaxRecordPayload || Bytes.size() - C.Pos < Len) {
      S.CorruptTail = true; // Insane length or truncated payload.
      break;
    }
    std::string Payload = Bytes.substr(C.Pos, Len);
    WalRecord R;
    if (crc32c(Payload) != Crc || !decodePayload(Payload, R)) {
      S.CorruptTail = true; // Bit rot or garbage.
      break;
    }
    Pos = C.Pos + Len;
    R.EndOffset = Pos;
    S.Records.push_back(std::move(R));
  }
  S.ValidBytes = Pos;
  return S;
}

std::string store::encodeSnapshot(uint64_t Term,
                                  const std::optional<NodeId> &Vote,
                                  uint64_t CommitIndex,
                                  const std::vector<core::LogEntry> &Log) {
  size_t Size = sizeof(SnapMagic) + 8 + 8 + 1 + 4 + 8 + 8;
  for (const core::LogEntry &E : Log)
    Size += codec::entryBytes(E);
  std::string Out;
  Out.reserve(Size);
  Out.append(SnapMagic, sizeof(SnapMagic));
  size_t Start = beginFrame(Out);
  codec::putU64(Out, Term);
  codec::putU8(Out, Vote.has_value() ? 1 : 0);
  codec::putU32(Out, Vote.value_or(0));
  codec::putU64(Out, CommitIndex);
  codec::putU64(Out, Log.size());
  for (const core::LogEntry &E : Log)
    codec::putEntry(Out, E);
  endFrame(Out, Start);
  assert(Out.size() == Size && "codec::entryBytes disagrees with putEntry");
  return Out;
}

bool store::decodeSnapshot(const std::string &Bytes, uint64_t &Term,
                           std::optional<NodeId> &Vote, uint64_t &CommitIndex,
                           std::vector<core::LogEntry> &Log) {
  if (Bytes.size() < sizeof(SnapMagic) + 8 ||
      Bytes.compare(0, sizeof(SnapMagic), SnapMagic, sizeof(SnapMagic)) != 0)
    return false;
  codec::Cursor F{Bytes, sizeof(SnapMagic)};
  uint32_t Len = F.u32();
  uint32_t Crc = F.u32();
  if (Len > MaxRecordPayload || Bytes.size() - F.Pos != Len)
    return false; // A snapshot is exactly one frame; no trailing bytes.
  std::string Payload = Bytes.substr(F.Pos, Len);
  if (crc32c(Payload) != Crc)
    return false;

  codec::Cursor C{Payload};
  Term = C.u64();
  bool HasVote = C.u8() != 0;
  NodeId V = C.u32();
  Vote = HasVote ? std::optional<NodeId>(V) : std::nullopt;
  CommitIndex = C.u64();
  uint64_t N = C.u64();
  if (!C.Ok || N > codec::MaxEntries)
    return false;
  Log.clear();
  Log.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    core::LogEntry E;
    if (!C.entry(E))
      return false;
    Log.push_back(std::move(E));
  }
  return C.done();
}
