//===- core/Codec.h - Little-endian codec for core protocol types -*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The little-endian binary codec shared by everything that serializes
/// core protocol state: the rt runtime's wire format (rt/Wire.cpp) and
/// the durable store's WAL records and snapshots (src/store). One
/// encoding means a log entry laid down in the WAL is byte-identical to
/// the same entry on the wire, and both sides share the same
/// bounds-checked reader — a frame or record claiming an absurd size is
/// malformed, not big.
///
/// Writers append to a std::string; the Cursor reader never reads past
/// the buffer and latches Ok=false on the first violation, so callers
/// can decode a whole structure and check once at the end.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_CORE_CODEC_H
#define ADORE_CORE_CODEC_H

#include "core/RaftCore.h"

#include <cstdint>
#include <string>

namespace adore {
namespace codec {

/// Sanity bounds: anything claiming more than this is malformed.
constexpr uint64_t MaxEntries = 1 << 20;
constexpr uint64_t MaxSetSize = 1 << 16;
constexpr uint64_t MaxBlob = 1 << 26;

inline void putU8(std::string &Out, uint8_t V) {
  Out.push_back(static_cast<char>(V));
}

/// Fixed-width writers fill a local buffer and append it once, so a
/// word costs one size check instead of one per byte.
inline void putU32(std::string &Out, uint32_t V) {
  char B[4];
  for (int I = 0; I != 4; ++I)
    B[I] = static_cast<char>(V >> (8 * I));
  Out.append(B, sizeof(B));
}

inline void putU64(std::string &Out, uint64_t V) {
  char B[8];
  for (int I = 0; I != 8; ++I)
    B[I] = static_cast<char>(V >> (8 * I));
  Out.append(B, sizeof(B));
}

inline void putNodeSet(std::string &Out, const NodeSet &S) {
  putU64(Out, S.size());
  for (NodeId N : S)
    putU32(Out, N);
}

inline void putConfig(std::string &Out, const Config &C) {
  putNodeSet(Out, C.Members);
  putNodeSet(Out, C.Extra);
  putU8(Out, C.HasExtra ? 1 : 0);
  putU64(Out, C.Param);
}

inline void putEntry(std::string &Out, const core::LogEntry &E) {
  putU64(Out, E.Term);
  putU8(Out, static_cast<uint8_t>(E.Kind));
  putU64(Out, E.Method);
  putConfig(Out, E.Conf);
  putU64(Out, E.ClientSeq);
}

/// Bytes putEntry appends for \p E, for sizing a buffer up front.
inline size_t entryBytes(const core::LogEntry &E) {
  return 8 + 1 + 8 + (8 + 4 * E.Conf.Members.size()) +
         (8 + 4 * E.Conf.Extra.size()) + 1 + 8 + 8;
}

/// Length-prefixed opaque byte string (InstallSnapshot chunks on the
/// wire, blob fields in WAL records).
inline void putBytes(std::string &Out, const std::string &B) {
  putU64(Out, B.size());
  Out += B;
}

/// Bounds-checked little-endian reader over a byte string.
struct Cursor {
  const std::string &Bytes;
  size_t Pos = 0;
  bool Ok = true;

  uint8_t u8() {
    if (Pos + 1 > Bytes.size()) {
      Ok = false;
      return 0;
    }
    return static_cast<uint8_t>(Bytes[Pos++]);
  }

  uint32_t u32() {
    uint32_t V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(u8()) << (8 * I);
    return V;
  }

  uint64_t u64() {
    uint64_t V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(u8()) << (8 * I);
    return V;
  }

  bool nodeSet(NodeSet &S) {
    uint64_t N = u64();
    if (!Ok || N > MaxSetSize)
      return Ok = false;
    S.clear();
    for (uint64_t I = 0; I != N && Ok; ++I)
      S.insert(u32());
    return Ok;
  }

  bool config(Config &C) {
    if (!nodeSet(C.Members) || !nodeSet(C.Extra))
      return false;
    C.HasExtra = u8() != 0;
    C.Param = u64();
    return Ok;
  }

  bool entry(core::LogEntry &E) {
    E.Term = u64();
    uint8_t Kind = u8();
    if (!Ok || Kind > static_cast<uint8_t>(raft::EntryKind::Reconfig))
      return Ok = false;
    E.Kind = static_cast<raft::EntryKind>(Kind);
    E.Method = u64();
    if (!config(E.Conf))
      return false;
    E.ClientSeq = u64();
    return Ok;
  }

  bool bytes(std::string &B) {
    uint64_t N = u64();
    if (!Ok || N > MaxBlob || N > Bytes.size() - Pos)
      return Ok = false;
    B.assign(Bytes, Pos, static_cast<size_t>(N));
    Pos += static_cast<size_t>(N);
    return true;
  }

  /// True when the whole buffer was consumed without violation.
  bool done() const { return Ok && Pos == Bytes.size(); }
};

//===----------------------------------------------------------------------===//
// Snapshot payload
//===----------------------------------------------------------------------===//
//
// The byte string an InstallSnapshot transfer carries, chunk by chunk:
// an entry-count header followed by the leader's committed prefix
// [1, Count] in the exact entry encoding the WAL and the wire share.
// DESIGN.md pins this format with a golden file (tests/golden/).

inline std::string encodeSnapshotPayload(const std::vector<core::LogEntry> &Log,
                                         size_t Count) {
  std::string Out;
  putU64(Out, Count);
  for (size_t I = 0; I != Count; ++I)
    putEntry(Out, Log[I]);
  return Out;
}

inline bool decodeSnapshotPayload(const std::string &Bytes,
                                  std::vector<core::LogEntry> &Entries) {
  Cursor C{Bytes};
  uint64_t N = C.u64();
  if (!C.Ok || N > MaxEntries)
    return false;
  Entries.clear();
  for (uint64_t I = 0; I != N; ++I) {
    core::LogEntry E;
    if (!C.entry(E))
      return false;
    Entries.push_back(std::move(E));
  }
  return C.done();
}

} // namespace codec
} // namespace adore

#endif // ADORE_CORE_CODEC_H
