//===- tests/StoreTest.cpp - Durable store tests ----------------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the durable storage subsystem (src/store): the Vfs seam and
/// its crash fault model, the CRC-framed WAL format (golden-pinned so the
/// on-disk layout cannot drift silently), torn-tail and bit-flip recovery
/// (a corrupt suffix is detected and truncated, NEVER loaded), snapshot
/// compaction, and the end-to-end story: a store-backed simulator cluster
/// is byte-identical to the idealized in-memory one when the disk is
/// fault-free, and survives the disk-faults nemesis when it is not.
///
//===----------------------------------------------------------------------===//

#include "chaos/ChaosRun.h"
#include "core/Host.h"
#include "rt/RtCluster.h"
#include "store/NodeStore.h"
#include "store/Vfs.h"
#include "store/Wal.h"
#include "support/Crc32c.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <thread>

using namespace adore;
using namespace adore::store;

//===----------------------------------------------------------------------===//
// Heap-allocation counter
//===----------------------------------------------------------------------===//
//
// This binary replaces the global scalar operator new/delete so a test
// can count the allocations a code path makes. The array and aligned
// forms are left alone; each pairs with its own delete. The deletes
// stay out of line: inlined, GCC pairs the free() with the library's
// operator new and warns (-Wmismatched-new-delete).

static std::atomic<uint64_t> HeapAllocs{0};

void *operator new(std::size_t N) {
  HeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N != 0 ? N : 1))
    return P;
  throw std::bad_alloc();
}

void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  HeapAllocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(N != 0 ? N : 1);
}

[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}
[[gnu::noinline]] void operator delete(void *P,
                                       const std::nothrow_t &) noexcept {
  std::free(P);
}

namespace {

core::LogEntry makeEntry(Time Term, MethodId Method, uint64_t Seq) {
  core::LogEntry E;
  E.Term = Term;
  E.Method = Method;
  E.ClientSeq = Seq;
  return E;
}

void putU32le(std::string &S, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    S.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putU64le(std::string &S, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    S.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

/// Bit-at-a-time CRC-32C: the definition the slicing tables are built
/// from, kept independent of them.
uint32_t crc32cBitwise(const uint8_t *P, size_t Len) {
  uint32_t C = ~0u;
  for (size_t I = 0; I != Len; ++I) {
    C ^= P[I];
    for (int K = 0; K != 8; ++K)
      C = (C & 1) ? 0x82F63B78u ^ (C >> 1) : C >> 1;
  }
  return ~C;
}

/// \p N pseudo-random bytes from a fixed LCG.
std::vector<uint8_t> noiseBytes(size_t N) {
  std::vector<uint8_t> Buf(N);
  uint32_t X = 0x9E3779B9u;
  for (uint8_t &B : Buf) {
    X = X * 1664525u + 1013904223u;
    B = static_cast<uint8_t>(X >> 24);
  }
  return Buf;
}

bool sameRecord(const WalRecord &A, const WalRecord &B) {
  return A.Type == B.Type && A.Term == B.Term && A.Vote == B.Vote &&
         A.Index == B.Index && A.Entry == B.Entry && A.NewLen == B.NewLen;
}

std::string hexOf(const std::string &Bytes) {
  std::string Hex;
  for (unsigned char C : Bytes) {
    char Buf[3];
    std::snprintf(Buf, sizeof(Buf), "%02x", C);
    Hex += Buf;
  }
  return Hex;
}

/// Compares \p Bytes with the one-line hex golden \p File (under
/// tests/golden). ADORE_UPDATE_GOLDEN=1 rewrites the file first; do that
/// only after an intentional, version-bumped format change.
void expectGolden(const std::string &Bytes, const char *File) {
  std::string Hex = hexOf(Bytes);
  std::string Path = std::string(ADORE_TEST_GOLDEN_DIR) + "/" + File;
  if (std::getenv("ADORE_UPDATE_GOLDEN")) {
    std::ofstream Out(Path);
    Out << Hex << "\n";
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << File
                         << " missing (ADORE_UPDATE_GOLDEN=1 regenerates)";
  std::string Golden;
  In >> Golden;
  EXPECT_EQ(Hex, Golden) << File << ": on-disk layout drifted";
}

/// A joint-configuration Reconfig entry: both member sets, the joint
/// flag and the scheme parameter all reach the encoding.
core::LogEntry jointReconfigEntry() {
  core::LogEntry E = makeEntry(5, 0, 0);
  E.Kind = raft::EntryKind::Reconfig;
  E.Conf = Config(NodeSet{1, 2, 3});
  E.Conf.Extra = NodeSet{3, 4, 5};
  E.Conf.HasExtra = true;
  E.Conf.Param = 2;
  return E;
}

} // namespace

//===----------------------------------------------------------------------===//
// CRC-32C
//===----------------------------------------------------------------------===//

TEST(Crc32cTest, GoldenVectors) {
  // The CRC-32C (Castagnoli) check values; everything framed in the WAL
  // is pinned transitively through these.
  EXPECT_EQ(crc32c(std::string("")), 0u);
  EXPECT_EQ(crc32c(std::string("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c(std::string("a")), 0xC1D04330u);
}

TEST(Crc32cTest, SeedChainsIncrementally) {
  std::string S = "hello, wal";
  uint32_t Whole = crc32c(S);
  uint32_t Part = crc32c(S.data(), 4);
  EXPECT_EQ(crc32c(S.data() + 4, S.size() - 4, Part), Whole);
}

TEST(Crc32cTest, SlicingMatchesBitwiseAtEveryLengthAndOffset) {
  // Every tail length of the 8-byte loop, several whole steps, and every
  // start offset within a word.
  std::vector<uint8_t> Buf = noiseBytes(8 + 257);
  for (size_t Off = 0; Off != 8; ++Off)
    for (size_t Len = 0; Len <= 257; ++Len)
      ASSERT_EQ(crc32c(Buf.data() + Off, Len),
                crc32cBitwise(Buf.data() + Off, Len))
          << "offset " << Off << " length " << Len;
}

TEST(Crc32cTest, SeedChainsAtEverySplit) {
  std::vector<uint8_t> Buf = noiseBytes(257);
  uint32_t Whole = crc32c(Buf.data(), Buf.size());
  for (size_t Split = 0; Split <= Buf.size(); ++Split)
    ASSERT_EQ(crc32c(Buf.data() + Split, Buf.size() - Split,
                     crc32c(Buf.data(), Split)),
              Whole)
        << "split " << Split;
}

//===----------------------------------------------------------------------===//
// MemVfs
//===----------------------------------------------------------------------===//

TEST(MemVfsTest, AppendReadTruncateRenameRemove) {
  MemVfs V(1);
  EXPECT_FALSE(V.exists("a/x"));
  EXPECT_TRUE(V.append("a/x", "hell"));
  EXPECT_TRUE(V.append("a/x", "o"));
  std::string Out;
  ASSERT_TRUE(V.readFile("a/x", Out));
  EXPECT_EQ(Out, "hello");
  EXPECT_EQ(V.fileSize("a/x"), 5u);

  EXPECT_TRUE(V.truncate("a/x", 2));
  ASSERT_TRUE(V.readFile("a/x", Out));
  EXPECT_EQ(Out, "he");
  // Growing via truncate is not a thing; it is a no-op.
  EXPECT_TRUE(V.truncate("a/x", 100));
  EXPECT_EQ(V.fileSize("a/x"), 2u);

  EXPECT_TRUE(V.renameFile("a/x", "a/y"));
  EXPECT_FALSE(V.exists("a/x"));
  ASSERT_TRUE(V.readFile("a/y", Out));
  EXPECT_EQ(Out, "he");

  EXPECT_TRUE(V.removeFile("a/y"));
  EXPECT_FALSE(V.exists("a/y"));
  EXPECT_FALSE(V.readFile("a/y", Out));
}

TEST(MemVfsTest, ListIsSortedAndPrefixScoped) {
  MemVfs V(1);
  V.append("n1/wal-00000002.log", "b");
  V.append("n1/wal-00000001.log", "a");
  V.append("n1/snap-00000001.snap", "s");
  V.append("n2/wal-00000001.log", "other");
  std::vector<std::string> L = V.list("n1/wal-");
  ASSERT_EQ(L.size(), 2u);
  EXPECT_EQ(L[0], "n1/wal-00000001.log");
  EXPECT_EQ(L[1], "n1/wal-00000002.log");
}

TEST(MemVfsTest, CrashLosesExactlyTheUnsyncedSuffix) {
  MemVfsFaults F;
  F.LoseUnsyncedOnCrash = true; // No tearing, no garbage: exact cut.
  MemVfs V(42, F);
  V.append("n1/f", "durable");
  ASSERT_TRUE(V.sync("n1/f"));
  V.append("n1/f", "-volatile");
  EXPECT_EQ(V.unsyncedBytes("n1/f"), 9u);
  V.append("n2/f", "untouched");

  V.crashDir("n1/");
  std::string Out;
  ASSERT_TRUE(V.readFile("n1/f", Out));
  EXPECT_EQ(Out, "durable");
  // Survivors are durable: a second crash changes nothing.
  EXPECT_EQ(V.unsyncedBytes("n1/f"), 0u);
  V.crashDir("n1/");
  ASSERT_TRUE(V.readFile("n1/f", Out));
  EXPECT_EQ(Out, "durable");
  // Other directories are not touched.
  ASSERT_TRUE(V.readFile("n2/f", Out));
  EXPECT_EQ(Out, "untouched");
}

TEST(MemVfsTest, CrashWithoutFaultModelKeepsEverything) {
  MemVfs V(7); // Default faults: idealized disk.
  V.append("n1/f", "abc");
  V.crashDir("n1/");
  std::string Out;
  ASSERT_TRUE(V.readFile("n1/f", Out));
  EXPECT_EQ(Out, "abc");
}

TEST(MemVfsTest, TearAndFlipHooks) {
  MemVfs V(1);
  V.append("f", "abcdef");
  ASSERT_TRUE(V.tearAt("f", 3));
  std::string Out;
  ASSERT_TRUE(V.readFile("f", Out));
  EXPECT_EQ(Out, "abc");
  ASSERT_TRUE(V.flipBit("f", 0, 1));
  ASSERT_TRUE(V.readFile("f", Out));
  EXPECT_EQ(Out[0], 'a' ^ 2);
}

//===----------------------------------------------------------------------===//
// PosixVfs (real files under a temp dir)
//===----------------------------------------------------------------------===//

TEST(PosixVfsTest, RoundTripOnRealFiles) {
  std::string Root = ::testing::TempDir() + "adore_store_posix_test";
  std::filesystem::remove_all(Root);
  {
    PosixVfs V(Root);
    EXPECT_TRUE(V.append("n1/wal-00000001.log", "hello"));
    EXPECT_TRUE(V.append("n1/wal-00000001.log", " world"));
    EXPECT_TRUE(V.sync("n1/wal-00000001.log"));
    std::string Out;
    ASSERT_TRUE(V.readFile("n1/wal-00000001.log", Out));
    EXPECT_EQ(Out, "hello world");
    EXPECT_EQ(V.fileSize("n1/wal-00000001.log"), 11u);
    EXPECT_TRUE(V.truncate("n1/wal-00000001.log", 5));
    ASSERT_TRUE(V.readFile("n1/wal-00000001.log", Out));
    EXPECT_EQ(Out, "hello");
    EXPECT_TRUE(V.append("n1/snap.tmp", "snap"));
    EXPECT_TRUE(V.renameFile("n1/snap.tmp", "n1/snap-00000001.snap"));
    EXPECT_FALSE(V.exists("n1/snap.tmp"));
    std::vector<std::string> L = V.list("n1/");
    ASSERT_EQ(L.size(), 2u);
    EXPECT_EQ(L[0], "n1/snap-00000001.snap");
    EXPECT_EQ(L[1], "n1/wal-00000001.log");
    EXPECT_TRUE(V.removeFile("n1/snap-00000001.snap"));
    EXPECT_FALSE(V.exists("n1/snap-00000001.snap"));
  }
  std::filesystem::remove_all(Root);
}

TEST(PosixVfsTest, StoreRecoversFromRealDisk) {
  std::string Root = ::testing::TempDir() + "adore_store_posix_store";
  std::filesystem::remove_all(Root);
  {
    PosixVfs V(Root);
    NodeStore S(V, "n1");
    ASSERT_FALSE(S.open().Error.has_value());
    std::vector<core::LogEntry> Log{makeEntry(3, 10, 1), makeEntry(3, 11, 2)};
    ASSERT_TRUE(S.persistState(3, NodeId(2), Log, /*DirtyFrom=*/1));
    S.noteCommit(1);
    ASSERT_TRUE(S.sync());
  }
  {
    PosixVfs V(Root);
    NodeStore S(V, "n1");
    RecoveredState RS = S.open();
    ASSERT_FALSE(RS.Error.has_value());
    EXPECT_EQ(RS.Term, 3u);
    EXPECT_EQ(RS.Vote, std::optional<NodeId>(2));
    ASSERT_EQ(RS.Log.size(), 2u);
    EXPECT_EQ(RS.Log[1].Method, 11u);
    EXPECT_EQ(RS.CommitIndex, 1u);
  }
  std::filesystem::remove_all(Root);
}

//===----------------------------------------------------------------------===//
// WAL format (golden-pinned)
//===----------------------------------------------------------------------===//

TEST(WalFormatTest, FileNames) {
  EXPECT_EQ(segmentName(1), "wal-00000001.log");
  EXPECT_EQ(segmentName(12345), "wal-00012345.log");
  EXPECT_EQ(snapshotName(7), "snap-00000007.snap");
  uint64_t Seq = 0;
  ASSERT_TRUE(parseTrailingSeq("n1/wal-00000042.log", Seq));
  EXPECT_EQ(Seq, 42u);
  ASSERT_TRUE(parseTrailingSeq("snap-00000007.snap", Seq));
  EXPECT_EQ(Seq, 7u);
  EXPECT_FALSE(parseTrailingSeq("n1/snap.tmp", Seq));
}

TEST(WalFormatTest, GoldenSegmentHeader) {
  // "ADORWAL1", u32 version=1 LE, u64 seq LE — 20 bytes, nothing else.
  std::string Expected = "ADORWAL1";
  putU32le(Expected, 1);
  putU64le(Expected, 7);
  std::string Actual = segmentHeader(7);
  EXPECT_EQ(Actual.size(), SegmentHeaderBytes);
  EXPECT_EQ(Actual, Expected);
}

TEST(WalFormatTest, GoldenTermVoteRecord) {
  // Payload: u8 type=1, u64 term LE, u8 has-vote, u32 vote LE. Frame:
  // u32 len LE, u32 crc32c(payload) LE, payload. The CRC function itself
  // is pinned by Crc32cTest, so this pins the full on-disk byte layout.
  std::string Payload;
  Payload.push_back(1);
  putU64le(Payload, 5);
  Payload.push_back(1);
  putU32le(Payload, 2);

  std::string Expected;
  putU32le(Expected, static_cast<uint32_t>(Payload.size()));
  putU32le(Expected, crc32c(Payload));
  Expected += Payload;

  std::string Actual;
  frameTermVote(Actual, 5, NodeId(2));
  EXPECT_EQ(Actual, Expected);
}

TEST(WalFormatTest, GoldenTruncateAndCommitRecords) {
  // Payloads as above; each writer must emit exactly their frame.
  auto Framed = [](const std::string &Payload) {
    std::string F;
    putU32le(F, static_cast<uint32_t>(Payload.size()));
    putU32le(F, crc32c(Payload));
    return F + Payload;
  };
  std::string Actual;

  std::string PT;
  PT.push_back(3);
  putU64le(PT, 9);
  frameTruncate(Actual, 9);
  EXPECT_EQ(Actual, Framed(PT));

  std::string PC;
  PC.push_back(4);
  putU64le(PC, 6);
  Actual.clear();
  frameCommit(Actual, 6);
  EXPECT_EQ(Actual, Framed(PC));

  // No vote -> has-vote byte 0 and a zero placeholder id.
  std::string PV;
  PV.push_back(1);
  putU64le(PV, 2);
  PV.push_back(0);
  putU32le(PV, 0);
  Actual.clear();
  frameTermVote(Actual, 2, std::nullopt);
  EXPECT_EQ(Actual, Framed(PV));
}

TEST(WalFormatTest, ScanRoundTripsAllRecordTypes) {
  core::LogEntry E = makeEntry(4, 77, 9);
  E.Kind = raft::EntryKind::Reconfig;
  E.Conf = Config(NodeSet{1, 2, 3});

  std::string Seg = segmentHeader(3);
  frameTermVote(Seg, 4, NodeId(1));
  frameAppend(Seg, 1, E);
  frameTruncate(Seg, 0);
  frameCommit(Seg, 1);

  SegmentScan Scan = scanSegment(Seg);
  EXPECT_TRUE(Scan.HeaderOk);
  EXPECT_EQ(Scan.Seq, 3u);
  EXPECT_FALSE(Scan.CorruptTail);
  EXPECT_EQ(Scan.ValidBytes, Seg.size());
  ASSERT_EQ(Scan.Records.size(), 4u);
  EXPECT_EQ(Scan.Records[0].Type, RecordType::TermVote);
  EXPECT_EQ(Scan.Records[0].Term, 4u);
  EXPECT_EQ(Scan.Records[0].Vote, std::optional<NodeId>(1));
  EXPECT_EQ(Scan.Records[1].Type, RecordType::Append);
  EXPECT_EQ(Scan.Records[1].Index, 1u);
  EXPECT_EQ(Scan.Records[1].Entry, E);
  EXPECT_EQ(Scan.Records[2].Type, RecordType::Truncate);
  EXPECT_EQ(Scan.Records[2].NewLen, 0u);
  EXPECT_EQ(Scan.Records[3].Type, RecordType::Commit);
  EXPECT_EQ(Scan.Records[3].Index, 1u);
  EXPECT_EQ(Scan.Records[3].EndOffset, Seg.size());
}

TEST(WalFormatTest, TornTailAtEveryByteOffsetYieldsAValidPrefix) {
  // Build a segment with several records, then cut it at EVERY byte
  // offset. Whatever scans out must be exactly the records fully
  // contained in the prefix — never a corrupt or fabricated record.
  std::string Seg = segmentHeader(1);
  frameTermVote(Seg, 2, NodeId(3));
  for (uint64_t I = 1; I <= 4; ++I)
    frameAppend(Seg, I, makeEntry(2, 100 + I, I));
  SegmentScan Full = scanSegment(Seg);
  ASSERT_EQ(Full.Records.size(), 5u);

  for (size_t Cut = 0; Cut <= Seg.size(); ++Cut) {
    SegmentScan S = scanSegment(Seg.substr(0, Cut));
    if (Cut < SegmentHeaderBytes) {
      EXPECT_FALSE(S.HeaderOk) << "cut=" << Cut;
      EXPECT_TRUE(S.Records.empty());
      EXPECT_EQ(S.CorruptTail, Cut != 0) << "cut=" << Cut;
      continue;
    }
    ASSERT_TRUE(S.HeaderOk) << "cut=" << Cut;
    // Records must be the exact prefix that fits.
    size_t Expect = 0;
    while (Expect < Full.Records.size() &&
           Full.Records[Expect].EndOffset <= Cut)
      ++Expect;
    ASSERT_EQ(S.Records.size(), Expect) << "cut=" << Cut;
    for (size_t I = 0; I != Expect; ++I)
      EXPECT_TRUE(sameRecord(S.Records[I], Full.Records[I]))
          << "cut=" << Cut << " record=" << I;
    // A mid-record cut is flagged; a boundary cut is clean.
    uint64_t Boundary =
        Expect == 0 ? SegmentHeaderBytes : Full.Records[Expect - 1].EndOffset;
    EXPECT_EQ(S.CorruptTail, Cut != Boundary) << "cut=" << Cut;
    EXPECT_EQ(S.ValidBytes, Boundary) << "cut=" << Cut;
  }
}

TEST(WalFormatTest, BitFlipAnywhereNeverFabricatesARecord) {
  std::string Seg = segmentHeader(1);
  frameTermVote(Seg, 2, NodeId(3));
  for (uint64_t I = 1; I <= 3; ++I)
    frameAppend(Seg, I, makeEntry(2, 50 + I, I));
  SegmentScan Full = scanSegment(Seg);
  ASSERT_EQ(Full.Records.size(), 4u);

  for (size_t Off = 0; Off != Seg.size(); ++Off) {
    for (unsigned Bit = 0; Bit < 8; Bit += 3) {
      std::string Bad = Seg;
      Bad[Off] = static_cast<char>(Bad[Off] ^ (1u << Bit));
      SegmentScan S = scanSegment(Bad);
      if (Off < SegmentHeaderBytes) {
        // Magic/version flips kill the header; seq flips only change
        // the advertised sequence number (recovery cross-checks it
        // against the file name).
        if (Off < 12) {
          EXPECT_FALSE(S.HeaderOk) << "off=" << Off;
        }
        continue;
      }
      // The flip lands inside some record; every record before it must
      // survive untouched and no record at or past it may be loaded
      // with the corruption undetected: the scan either stops before
      // the flipped record or (impossible for CRC32C single-bit flips)
      // would have to collide.
      ASSERT_TRUE(S.HeaderOk);
      EXPECT_TRUE(S.CorruptTail) << "off=" << Off << " bit=" << Bit;
      ASSERT_LT(S.Records.size(), Full.Records.size());
      for (size_t I = 0; I != S.Records.size(); ++I) {
        EXPECT_TRUE(sameRecord(S.Records[I], Full.Records[I]));
        EXPECT_LT(Full.Records[I].EndOffset, Off + 1)
            << "a record containing the flipped byte was loaded";
      }
    }
  }
}

TEST(WalFormatTest, InsaneLengthIsCorruptionNotAllocation) {
  std::string Seg = segmentHeader(1);
  putU32le(Seg, 0x7fffffff); // Claims a 2 GiB payload.
  putU32le(Seg, 0);
  Seg += "x";
  SegmentScan S = scanSegment(Seg);
  EXPECT_TRUE(S.HeaderOk);
  EXPECT_TRUE(S.Records.empty());
  EXPECT_TRUE(S.CorruptTail);
  EXPECT_EQ(S.ValidBytes, SegmentHeaderBytes);
}

TEST(WalFormatTest, SnapshotRoundTripAndWholesaleRejection) {
  std::vector<core::LogEntry> Log{makeEntry(2, 5, 1), makeEntry(3, 6, 2)};
  std::string Bytes = encodeSnapshot(3, NodeId(1), 1, Log);

  uint64_t Term = 0, Commit = 0;
  std::optional<NodeId> Vote;
  std::vector<core::LogEntry> Out;
  ASSERT_TRUE(decodeSnapshot(Bytes, Term, Vote, Commit, Out));
  EXPECT_EQ(Term, 3u);
  EXPECT_EQ(Vote, std::optional<NodeId>(1));
  EXPECT_EQ(Commit, 1u);
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[1], Log[1]);

  // Any single corrupt byte rejects the whole snapshot: truncation,
  // trailing garbage, and every single-bit flip.
  EXPECT_FALSE(decodeSnapshot(Bytes.substr(0, Bytes.size() - 1), Term, Vote,
                              Commit, Out));
  EXPECT_FALSE(decodeSnapshot(Bytes + "x", Term, Vote, Commit, Out));
  for (size_t Off = 0; Off != Bytes.size(); ++Off) {
    std::string Bad = Bytes;
    Bad[Off] = static_cast<char>(Bad[Off] ^ 1);
    EXPECT_FALSE(decodeSnapshot(Bad, Term, Vote, Commit, Out))
        << "off=" << Off;
  }
}

TEST(WalFormatTest, GoldenSegmentBytesArePinned) {
  // Every record type the write path emits, framed into one segment:
  // TermVote with and without a vote, an Append of a Method entry and
  // of a joint-config Reconfig entry, a Truncate and a Commit. The hex
  // golden pins the whole file independently of the writer's code.
  std::string Seg = segmentHeader(3);
  frameTermVote(Seg, 4, NodeId(1));
  frameAppend(Seg, 1, makeEntry(4, 77, 9));
  frameAppend(Seg, 2, jointReconfigEntry());
  frameTruncate(Seg, 1);
  frameTermVote(Seg, 5, std::nullopt);
  frameCommit(Seg, 1);
  expectGolden(Seg, "wal_segment.hex");

  SegmentScan Scan = scanSegment(Seg);
  EXPECT_FALSE(Scan.CorruptTail);
  ASSERT_EQ(Scan.Records.size(), 6u);
  EXPECT_EQ(Scan.Records[2].Entry, jointReconfigEntry());
  EXPECT_EQ(Scan.Records[4].Vote, std::nullopt);
}

TEST(WalFormatTest, GoldenSnapshotBytesArePinned) {
  std::vector<core::LogEntry> Log{makeEntry(2, 5, 1), jointReconfigEntry(),
                                  makeEntry(5, 6, 2)};
  std::string Bytes = encodeSnapshot(5, NodeId(2), 2, Log);
  expectGolden(Bytes, "wal_snapshot.hex");

  uint64_t Term = 0, Commit = 0;
  std::optional<NodeId> Vote;
  std::vector<core::LogEntry> Out;
  ASSERT_TRUE(decodeSnapshot(Bytes, Term, Vote, Commit, Out));
  EXPECT_EQ(Vote, std::optional<NodeId>(2));
  EXPECT_EQ(Out, Log);
}

//===----------------------------------------------------------------------===//
// NodeStore: persist, recover, compact
//===----------------------------------------------------------------------===//

TEST(NodeStoreTest, EmptyDirectoryRecoversEmptyState) {
  MemVfs V(1);
  NodeStore S(V, "n1");
  RecoveredState RS = S.open();
  ASSERT_FALSE(RS.Error.has_value());
  EXPECT_EQ(RS.Term, 0u);
  EXPECT_FALSE(RS.Vote.has_value());
  EXPECT_TRUE(RS.Log.empty());
  EXPECT_EQ(RS.CommitIndex, 0u);
  EXPECT_TRUE(S.isOpen());
  EXPECT_TRUE(V.exists("n1/" + segmentName(1)));
}

TEST(NodeStoreTest, PersistRecoverRoundTrip) {
  MemVfs V(1);
  {
    NodeStore S(V, "n1");
    ASSERT_FALSE(S.open().Error.has_value());
    std::vector<core::LogEntry> Log{makeEntry(5, 1, 1), makeEntry(6, 2, 2),
                                    makeEntry(7, 3, 3)};
    ASSERT_TRUE(S.persistState(7, NodeId(3), Log, /*DirtyFrom=*/1));
    S.noteCommit(2);
    ASSERT_TRUE(S.sync());
    EXPECT_EQ(S.stats().Syncs, 1u);
    EXPECT_EQ(S.stats().MaxBatchRecords, 5u); // TermVote + 3 appends + commit.
  }
  NodeStore S2(V, "n1");
  RecoveredState RS = S2.open();
  ASSERT_FALSE(RS.Error.has_value());
  EXPECT_EQ(RS.Term, 7u);
  EXPECT_EQ(RS.Vote, std::optional<NodeId>(3));
  ASSERT_EQ(RS.Log.size(), 3u);
  EXPECT_EQ(RS.Log[2].Term, 7u);
  EXPECT_EQ(RS.CommitIndex, 2u);
  EXPECT_FALSE(RS.TailCorruptionDetected);
  EXPECT_EQ(RS.RecordsReplayed, 5u);
}

TEST(NodeStoreTest, DiffPersistenceEmitsTruncateForConflictSuffix) {
  MemVfs V(1);
  NodeStore S(V, "n1");
  ASSERT_FALSE(S.open().Error.has_value());
  std::vector<core::LogEntry> Log{makeEntry(1, 1, 1), makeEntry(1, 2, 2),
                                  makeEntry(1, 3, 3)};
  ASSERT_TRUE(S.persistState(2, std::nullopt, Log, /*DirtyFrom=*/1));
  ASSERT_TRUE(S.sync());
  // New leader's log conflicts from slot 2 onward.
  Log = {makeEntry(1, 1, 1), makeEntry(3, 9, 9)};
  ASSERT_TRUE(S.persistState(3, NodeId(2), Log, /*DirtyFrom=*/2));
  ASSERT_TRUE(S.sync());

  // The raw WAL must contain the Truncate record (the dirty mark worked)...
  std::string Bytes;
  ASSERT_TRUE(V.readFile("n1/" + segmentName(1), Bytes));
  SegmentScan Scan = scanSegment(Bytes);
  bool SawTruncate = false;
  for (const WalRecord &R : Scan.Records)
    SawTruncate |= R.Type == RecordType::Truncate && R.NewLen == 1;
  EXPECT_TRUE(SawTruncate);

  // ...and recovery must replay to the post-conflict state.
  NodeStore S2(V, "n1");
  RecoveredState RS = S2.open();
  ASSERT_FALSE(RS.Error.has_value());
  EXPECT_EQ(RS.Term, 3u);
  ASSERT_EQ(RS.Log.size(), 2u);
  EXPECT_EQ(RS.Log[1].Method, 9u);
}

TEST(NodeStoreTest, TornTailAtEveryOffsetRecoversAPrefixAndTruncates) {
  // Lay down a known state, then for every byte offset of the segment:
  // tear there, recover, and demand (a) no error, (b) the recovered log
  // is an exact prefix of the full one, (c) the file was physically
  // truncated to a record boundary so a second recovery is clean.
  MemVfs Golden(1);
  std::vector<core::LogEntry> Log;
  for (uint64_t I = 1; I <= 4; ++I)
    Log.push_back(makeEntry(2, 10 + I, I));
  {
    NodeStore S(Golden, "n1");
    ASSERT_FALSE(S.open().Error.has_value());
    ASSERT_TRUE(S.persistState(2, NodeId(1), Log, /*DirtyFrom=*/1));
    ASSERT_TRUE(S.sync());
  }
  std::string Path = "n1/" + segmentName(1);
  std::string Full;
  ASSERT_TRUE(Golden.readFile(Path, Full));

  for (size_t Cut = SegmentHeaderBytes; Cut <= Full.size(); ++Cut) {
    MemVfs V(1);
    ASSERT_TRUE(V.append(Path, Full.substr(0, Cut)));
    ASSERT_TRUE(V.sync(Path));
    NodeStore S(V, "n1");
    RecoveredState RS = S.open();
    ASSERT_FALSE(RS.Error.has_value()) << "cut=" << Cut;
    ASSERT_LE(RS.Log.size(), Log.size()) << "cut=" << Cut;
    for (size_t I = 0; I != RS.Log.size(); ++I)
      EXPECT_EQ(RS.Log[I], Log[I]) << "cut=" << Cut;
    EXPECT_EQ(RS.TailCorruptionDetected, V.fileSize(Path) != Cut)
        << "cut=" << Cut;
    // Second opening sees a clean file: no further corruption reported.
    NodeStore S2(V, "n1");
    RecoveredState RS2 = S2.open();
    ASSERT_FALSE(RS2.Error.has_value());
    EXPECT_FALSE(RS2.TailCorruptionDetected) << "cut=" << Cut;
    EXPECT_EQ(RS2.Log.size(), RS.Log.size());
  }
}

TEST(NodeStoreTest, BitFlippedTailIsDetectedAndCutNeverLoaded) {
  MemVfs V(1);
  std::vector<core::LogEntry> Log{makeEntry(2, 11, 1), makeEntry(2, 12, 2),
                                  makeEntry(2, 13, 3)};
  {
    NodeStore S(V, "n1");
    ASSERT_FALSE(S.open().Error.has_value());
    ASSERT_TRUE(S.persistState(2, NodeId(1), Log, /*DirtyFrom=*/1));
    ASSERT_TRUE(S.sync());
  }
  std::string Path = "n1/" + segmentName(1);
  // Locate the second Append record and flip a bit inside its payload;
  // everything from it onward must be cut, the slot-1 prefix kept.
  std::string Bytes;
  ASSERT_TRUE(V.readFile(Path, Bytes));
  SegmentScan Scan = scanSegment(Bytes);
  uint64_t FlipAt = 0;
  for (const WalRecord &R : Scan.Records)
    if (R.Type == RecordType::Append && R.Index == 2)
      FlipAt = R.EndOffset - 3;
  ASSERT_GT(FlipAt, 0u);
  ASSERT_TRUE(V.flipBit(Path, FlipAt, 4));
  NodeStore S(V, "n1");
  RecoveredState RS = S.open();
  ASSERT_FALSE(RS.Error.has_value());
  EXPECT_TRUE(RS.TailCorruptionDetected);
  EXPECT_GT(RS.TruncatedBytes, 0u);
  ASSERT_EQ(RS.Log.size(), 1u); // Corrupt append and successors lost.
  EXPECT_EQ(RS.Log[0], Log[0]);
  EXPECT_EQ(S.stats().TornTailsDetected, 1u);
}

TEST(NodeStoreTest, SegmentRotationSpansRecovery) {
  MemVfs V(1);
  StoreOptions Opts;
  Opts.SegmentBytes = 128; // Rotate constantly.
  Opts.SnapshotEveryBytes = 1 << 30; // Never snapshot.
  std::vector<core::LogEntry> Log;
  {
    NodeStore S(V, "n1", Opts);
    ASSERT_FALSE(S.open().Error.has_value());
    for (uint64_t I = 1; I <= 40; ++I) {
      Log.push_back(makeEntry(2, I, I));
      ASSERT_TRUE(S.persistState(2, NodeId(1), Log, /*DirtyFrom=*/I));
      ASSERT_TRUE(S.sync());
    }
    EXPECT_GT(S.segmentSeq(), 2u);
    EXPECT_GT(S.stats().SegmentsCreated, 2u);
  }
  EXPECT_GT(V.list("n1/wal-").size(), 2u);
  NodeStore S2(V, "n1", Opts);
  RecoveredState RS = S2.open();
  ASSERT_FALSE(RS.Error.has_value());
  EXPECT_GT(RS.SegmentsScanned, 2u);
  ASSERT_EQ(RS.Log.size(), 40u);
  for (size_t I = 0; I != 40; ++I)
    EXPECT_EQ(RS.Log[I], Log[I]);
}

TEST(NodeStoreTest, SnapshotCompactsThePrefixAndRecoveryUsesIt) {
  MemVfs V(1);
  StoreOptions Opts;
  Opts.SegmentBytes = 256;
  Opts.SnapshotEveryBytes = 512;
  std::vector<core::LogEntry> Log;
  {
    NodeStore S(V, "n1", Opts);
    ASSERT_FALSE(S.open().Error.has_value());
    for (uint64_t I = 1; I <= 60; ++I) {
      Log.push_back(makeEntry(2, I, I));
      ASSERT_TRUE(S.persistState(2, NodeId(1), Log, /*DirtyFrom=*/I));
      S.noteCommit(I / 2);
      ASSERT_TRUE(S.sync());
    }
    EXPECT_GT(S.stats().Snapshots, 0u);
    EXPECT_GT(S.stats().SegmentsDeleted, 0u);
  }
  // A stray temp file from an interrupted snapshot must be ignored.
  ASSERT_TRUE(V.append("n1/snap.tmp", "garbage"));
  NodeStore S2(V, "n1", Opts);
  RecoveredState RS = S2.open();
  ASSERT_FALSE(RS.Error.has_value());
  EXPECT_TRUE(RS.FromSnapshot);
  ASSERT_EQ(RS.Log.size(), 60u);
  for (size_t I = 0; I != 60; ++I)
    EXPECT_EQ(RS.Log[I], Log[I]);
  EXPECT_EQ(RS.CommitIndex, 30u);
}

TEST(NodeStoreTest, CorruptSnapshotWithCompactedWalRefusesToGuess) {
  MemVfs V(1);
  StoreOptions Opts;
  Opts.SegmentBytes = 256;
  Opts.SnapshotEveryBytes = 512;
  {
    NodeStore S(V, "n1", Opts);
    ASSERT_FALSE(S.open().Error.has_value());
    std::vector<core::LogEntry> Log;
    for (uint64_t I = 1; I <= 60; ++I) {
      Log.push_back(makeEntry(2, I, I));
      ASSERT_TRUE(S.persistState(2, NodeId(1), Log, /*DirtyFrom=*/I));
      ASSERT_TRUE(S.sync());
    }
    ASSERT_GT(S.stats().Snapshots, 0u);
    ASSERT_GT(S.stats().SegmentsDeleted, 0u);
  }
  // Corrupt every snapshot: with segment 1 compacted away there is no
  // honest way to rebuild state, and the store must say so rather than
  // load a corrupt or stale view.
  for (const std::string &P : V.list("n1/snap-"))
    ASSERT_TRUE(V.flipBit(P, 30, 2));
  NodeStore S2(V, "n1", Opts);
  RecoveredState RS = S2.open();
  ASSERT_TRUE(RS.Error.has_value());
  EXPECT_TRUE(RS.Log.empty());
}

TEST(NodeStoreTest, PersistSyncCommitAllocatesAtMostOncePerCycle) {
  // The store's write path frames records in place into a reused
  // buffer and appends to a cached segment path, so a steady-state
  // persist + sync + noteCommit cycle allocates nothing; what remains
  // is the MemVfs file's amortized growth, segment rotation and
  // snapshots, all rare.
  MemVfs V(1);
  NodeStore S(V, "n1");
  ASSERT_FALSE(S.open().Error.has_value());
  constexpr size_t Cycles = 2000;
  std::vector<core::LogEntry> Log;
  Log.reserve(Cycles);
  uint64_t Allocs = 0;
  for (size_t I = 1; I <= Cycles; ++I) {
    Time Term = 1 + I / 500;
    Log.push_back(makeEntry(Term, 7, I));
    uint64_t Before = HeapAllocs.load(std::memory_order_relaxed);
    ASSERT_TRUE(S.persistState(Term, NodeId(1), Log, I));
    ASSERT_TRUE(S.sync());
    S.noteCommit(I);
    Allocs += HeapAllocs.load(std::memory_order_relaxed) - Before;
  }
  EXPECT_GT(S.stats().Snapshots, 0u);
  EXPECT_GT(S.stats().SegmentsCreated, S.stats().Snapshots + 1);
  double PerCycle = static_cast<double>(Allocs) / Cycles;
  RecordProperty("allocs_per_cycle", std::to_string(PerCycle));
  EXPECT_LE(PerCycle, 1.0) << Allocs << " allocations in " << Cycles
                           << " cycles";
}

TEST(NodeStoreTest, CrashDropsUnsyncedRecordsOnly) {
  MemVfsFaults F;
  F.LoseUnsyncedOnCrash = true;
  MemVfs V(9, F);
  NodeStore S(V, "n1");
  S.setCrashHook([&V] { V.crashDir("n1/"); });
  ASSERT_FALSE(S.open().Error.has_value());
  std::vector<core::LogEntry> Log{makeEntry(2, 1, 1)};
  ASSERT_TRUE(S.persistState(2, NodeId(1), Log, /*DirtyFrom=*/1));
  ASSERT_TRUE(S.sync());
  // The second batch is appended but never synced; the crash eats it.
  Log.push_back(makeEntry(2, 2, 2));
  ASSERT_TRUE(S.persistState(2, NodeId(1), Log, /*DirtyFrom=*/2));
  S.crash();
  EXPECT_FALSE(S.isOpen());
  RecoveredState RS = S.open();
  ASSERT_FALSE(RS.Error.has_value());
  EXPECT_EQ(RS.Term, 2u);
  ASSERT_EQ(RS.Log.size(), 1u);
  EXPECT_EQ(RS.Log[0].Method, 1u);
}

//===----------------------------------------------------------------------===//
// RaftCore integration
//===----------------------------------------------------------------------===//

TEST(StoreCoreTest, InstallDurableStateSetsTheDurableFields) {
  std::unique_ptr<ReconfigScheme> Scheme = makeScheme(SchemeKind::RaftSingleNode);
  Config Conf(NodeSet{1, 2, 3});
  core::RaftCore Core(1, *Scheme, Conf, core::CoreOptions(), 1);
  std::vector<core::LogEntry> Log{makeEntry(3, 1, 1), makeEntry(4, 2, 2)};
  Core.installDurableState(4, NodeId(2), Log, 1);
  EXPECT_EQ(Core.term(), 4u);
  EXPECT_EQ(Core.votedFor(), std::optional<NodeId>(2));
  EXPECT_EQ(Core.logSize(), 2u);
  EXPECT_EQ(Core.commitIndex(), 1u);
  // The commit floor is clamped to the recovered log.
  core::RaftCore Core2(1, *Scheme, Conf, core::CoreOptions(), 1);
  Core2.installDurableState(4, std::nullopt, Log, 99);
  EXPECT_EQ(Core2.commitIndex(), 2u);
}

TEST(StoreCoreTest, PersistFromCoreRoundTripsThroughRecovery) {
  // Drive a real single-node core to leadership, commit entries through
  // it, persist via the store, and recover into a fresh core.
  std::unique_ptr<ReconfigScheme> Scheme = makeScheme(SchemeKind::RaftSingleNode);
  Config Conf(NodeSet{1});
  core::RaftCore Core(1, *Scheme, Conf, core::CoreOptions(), 7);
  MemVfs V(1);
  NodeStore S(V, "n1");
  ASSERT_FALSE(S.open().Error.has_value());

  Core.start();
  Core.onTimer(core::TimerId::Election, Core.electionGen(), 1000);
  ASSERT_TRUE(Core.isLeader());
  core::Effects Out;
  ASSERT_TRUE(Core.submit(41, 1, Out));
  ASSERT_TRUE(Core.submit(42, 2, Out));
  ASSERT_TRUE(S.persistFrom(Core, /*DirtyFrom=*/1));
  S.noteCommit(Core.commitIndex());
  ASSERT_TRUE(S.sync());

  NodeStore S2(V, "n1");
  RecoveredState RS = S2.open();
  ASSERT_FALSE(RS.Error.has_value());
  EXPECT_EQ(RS.Term, Core.term());
  EXPECT_EQ(RS.Vote, Core.votedFor());
  ASSERT_EQ(RS.Log.size(), Core.logSize());
  for (size_t I = 0; I != RS.Log.size(); ++I)
    EXPECT_EQ(RS.Log[I], Core.log()[I]);
  EXPECT_EQ(RS.CommitIndex, Core.commitIndex());

  core::RaftCore Fresh(1, *Scheme, Conf, core::CoreOptions(), 8);
  Fresh.installDurableState(RS.Term, RS.Vote, RS.Log, RS.CommitIndex);
  EXPECT_EQ(Fresh.term(), Core.term());
  EXPECT_EQ(Fresh.logSize(), Core.logSize());
}

namespace {

/// The WAL bytes the store wrote before it took a dirty-from index: it
/// kept a full mirror of the durable log and diffed every persist
/// against it (longest common prefix, Truncate if the mirror ran past
/// it, Appends from it, TermVote on change). The store must still
/// write exactly these bytes.
struct MirrorDiffWriter {
  std::string Bytes = segmentHeader(1);
  Time Term = 0;
  std::optional<NodeId> Vote;
  std::vector<core::LogEntry> Log;
  size_t Commit = 0;

  void persist(const core::RaftCore &Core) {
    const std::vector<core::LogEntry> &New = Core.log();
    size_t Common = 0;
    while (Common < std::min(Log.size(), New.size()) &&
           Log[Common] == New[Common])
      ++Common;
    if (Log.size() > Common)
      frameTruncate(Bytes, Common);
    for (size_t I = Common; I < New.size(); ++I)
      frameAppend(Bytes, I + 1, New[I]);
    Log = New;
    if (Core.term() != Term || Core.votedFor() != Vote) {
      frameTermVote(Bytes, Core.term(), Core.votedFor());
      Term = Core.term();
      Vote = Core.votedFor();
    }
  }
  void noteCommit(size_t Index) {
    if (Index > Commit)
      frameCommit(Bytes, Commit = Index);
  }
};

/// Persists through the shipping host path and the mirror-diff writer
/// side by side.
struct DualHost : core::HostBase<NodeStore> {
  MirrorDiffWriter &Ref;
  void persist(size_t DirtyFrom) const {
    HostBase::persist(DirtyFrom);
    Ref.persist(Core);
  }
  void commitAdvanced(size_t Index) const {
    HostBase::commitAdvanced(Index);
    Ref.noteCommit(Index);
  }
  void send(core::Msg &&) const {}
  void setTimer(core::TimerId, uint64_t, uint64_t) const {}
  void cancelTimer(core::TimerId) const {}
};

core::Msg appendFrom(NodeId Leader, Time Term, size_t PrevIndex, Time PrevTerm,
                     std::vector<core::LogEntry> Entries, size_t Commit) {
  core::Msg M;
  M.K = core::Msg::Kind::AppendEntries;
  M.From = Leader;
  M.To = 1;
  M.Term = Term;
  M.PrevIndex = PrevIndex;
  M.PrevTerm = PrevTerm;
  M.Entries = std::move(Entries);
  M.LeaderCommit = Commit;
  return M;
}

} // namespace

TEST(StoreCoreTest, SameLengthConflictWritesTheMirrorDiffBytes) {
  // A follower's uncommitted suffix is overwritten by a new leader's
  // entries of the same length: the core's dirty-from index must make
  // the store write the Truncate and the Appends the mirror diff wrote,
  // byte for byte, and recovery must rebuild the core's log.
  std::unique_ptr<ReconfigScheme> Scheme =
      makeScheme(SchemeKind::RaftSingleNode);
  core::RaftCore Core(1, *Scheme, Config(NodeSet{1, 2, 3}),
                      core::CoreOptions(), 5);
  MemVfs V(1);
  NodeStore S(V, "n1");
  ASSERT_FALSE(S.open().Error.has_value());
  core::HostHooks Hooks;
  MirrorDiffWriter Ref;
  DualHost H{{Core, Hooks, &S}, Ref};
  auto Feed = [&](const core::Msg &M) {
    core::Effects Effs = Core.onMessage(M, /*NowUs=*/0);
    core::dispatchEffects(Effs, H);
  };

  Core.start();
  Feed(appendFrom(2, 1, 0, 0,
                  {makeEntry(1, 1, 1), makeEntry(1, 2, 2), makeEntry(1, 3, 3)},
                  1));
  // Leader 3 of term 2 rewrites slots 2..3; the log keeps its length.
  Feed(appendFrom(3, 2, 1, 1, {makeEntry(2, 8, 8), makeEntry(2, 9, 9)}, 1));
  ASSERT_EQ(Core.logSize(), 3u);
  EXPECT_EQ(Core.log()[2].Method, 9u);
  // A later rewrite that also grows the log, then a pure append.
  Feed(appendFrom(2, 3, 2, 2, {makeEntry(3, 4, 4), makeEntry(3, 5, 5)}, 2));
  Feed(appendFrom(2, 3, 4, 3, {makeEntry(3, 6, 6)}, 4));
  ASSERT_EQ(Core.logSize(), 5u);

  std::string Bytes;
  ASSERT_TRUE(V.readFile("n1/" + segmentName(1), Bytes));
  EXPECT_EQ(Bytes, Ref.Bytes);
  size_t Truncates = 0;
  for (const WalRecord &R : scanSegment(Bytes).Records)
    Truncates += R.Type == RecordType::Truncate;
  EXPECT_EQ(Truncates, 2u);

  std::vector<core::LogEntry> Before = Core.log();
  Core.crash();
  S.crash();
  EXPECT_TRUE(S.recoverInto(Core, /*CheckAgainstCore=*/true).empty());
  EXPECT_EQ(Core.log(), Before);
  EXPECT_EQ(Core.term(), 3u);
}

//===----------------------------------------------------------------------===//
// Differential: store-backed sim == idealized in-memory sim
//===----------------------------------------------------------------------===//

TEST(StoreDifferentialTest, FaultFreeStoreMatchesIdealizedPersistence) {
  // With the store on but every disk fault off, each chaos run must be
  // byte-identical to the idealized in-memory run of the same seed: the
  // store consumes no virtual time and no cluster randomness, so the
  // schedule — and therefore the history, trace, and ledger — cannot
  // move. This is the differential test that pins the store's
  // transparency.
  for (chaos::Scenario S :
       {chaos::Scenario::Mixed, chaos::Scenario::CrashMidReconfig}) {
    for (uint64_t Seed : {uint64_t(11), uint64_t(12)}) {
      chaos::ChaosRunOptions Ideal;
      Ideal.Nemesis.Kind = S;
      Ideal.Workload.NumOps = 30;
      chaos::ChaosRunResult A = runChaosScenario(Ideal, Seed);

      chaos::ChaosRunOptions Durable = Ideal;
      Durable.DurableStore = true;
      Durable.StoreFaults = store::MemVfsFaults(); // All faults off.
      chaos::ChaosRunResult B = runChaosScenario(Durable, Seed);

      EXPECT_TRUE(A.passed()) << A.summary();
      EXPECT_TRUE(B.passed()) << B.summary();
      EXPECT_EQ(A.HistoryText, B.HistoryText);
      EXPECT_EQ(A.NemesisTrace, B.NemesisTrace);
      EXPECT_EQ(A.CommittedEntries, B.CommittedEntries);
      EXPECT_EQ(A.Violations, B.Violations);
      EXPECT_GT(B.Store.Syncs, 0u); // The store really ran.
    }
  }
}

//===----------------------------------------------------------------------===//
// Chaos: kill with a torn WAL tail, recover from disk
//===----------------------------------------------------------------------===//

TEST(StoreChaosTest, DiskFaultsScenarioSurvivesTornTailRecovery) {
  // Seed-pinned end-to-end durability: the disk-faults nemesis crashes
  // nodes (losing/tearing their un-fsynced WAL suffix, sometimes with a
  // garbage tail) and restarts them from disk, and every safety check —
  // committed-ledger durability, per-key linearizability, election
  // safety, convergence — must still hold. The aggregate assertions
  // prove the faults actually fired.
  uint64_t Recoveries = 0, TornTails = 0;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    chaos::ChaosRunOptions Opts;
    Opts.Nemesis.Kind = chaos::Scenario::DiskFaults;
    chaos::ChaosRunResult R = runChaosScenario(Opts, Seed);
    EXPECT_TRUE(R.passed()) << R.summary() << "\n"
                            << [&] {
                                 std::string All;
                                 for (const std::string &V : R.Violations)
                                   All += "  " + V + "\n";
                                 return All;
                               }()
                            << "nemesis trace:\n"
                            << R.NemesisTrace;
    EXPECT_TRUE(R.DurableStore);
    Recoveries += R.Store.Recoveries;
    TornTails += R.Store.TornTailsDetected;
  }
  EXPECT_GT(Recoveries, 0u);
  EXPECT_GT(TornTails, 0u);
}

TEST(StoreChaosTest, DiskFaultsRunsAreSeedDeterministic) {
  chaos::ChaosRunOptions Opts;
  Opts.Nemesis.Kind = chaos::Scenario::DiskFaults;
  Opts.Workload.NumOps = 30;
  chaos::ChaosRunResult A = runChaosScenario(Opts, 21);
  chaos::ChaosRunResult B = runChaosScenario(Opts, 21);
  EXPECT_EQ(A.HistoryText, B.HistoryText);
  EXPECT_EQ(A.NemesisTrace, B.NemesisTrace);
  EXPECT_EQ(A.Store.Syncs, B.Store.Syncs);
  EXPECT_EQ(A.Store.TornTailsDetected, B.Store.TornTailsDetected);
  EXPECT_EQ(A.Store.TruncatedBytes, B.Store.TruncatedBytes);
  EXPECT_EQ(A.Violations, B.Violations);
}

//===----------------------------------------------------------------------===//
// rt runtime: store-backed crash/restart on real threads
//===----------------------------------------------------------------------===//

TEST(StoreRtTest, StoreBackedRtClusterSurvivesCrashRestart) {
  rt::RtClusterOptions Opts;
  Opts.NumNodes = 3;
  Opts.Seed = 5;
  Opts.DurableStore = true;
  Opts.StoreFaults = chaos::ChaosRunOptions::defaultStoreFaults();
  rt::RtCluster C(Opts);
  C.start();
  NodeId Leader = C.waitForLeader(5000);
  ASSERT_NE(Leader, InvalidNodeId);
  for (MethodId M = 1; M <= 3; ++M)
    EXPECT_TRUE(C.submitAndWait(M, 3000));

  // RtNode::run returns on stop without draining its inbox, so a
  // Restart still queued behind the final commit could be dropped. Wait
  // for the victim's worker to act on each control item instead.
  NodeId Victim = Leader == 3 ? 2 : 3;
  auto WaitCrashed = [&](bool Crashed) {
    auto Until = std::chrono::steady_clock::now() + std::chrono::seconds(3);
    while (C.nodeStatus(Victim).Crashed != Crashed &&
           std::chrono::steady_clock::now() < Until)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return C.nodeStatus(Victim).Crashed == Crashed;
  };
  C.crash(Victim);
  EXPECT_TRUE(WaitCrashed(true));
  EXPECT_TRUE(C.submitAndWait(4, 3000));
  C.restart(Victim);
  EXPECT_TRUE(WaitCrashed(false));
  EXPECT_TRUE(C.submitAndWait(5, 3000));

  C.stop();
  std::vector<std::string> Violations = C.checkFinalAgreement();
  EXPECT_TRUE(Violations.empty()) << [&] {
    std::string All;
    for (const std::string &V : Violations)
      All += V + "\n";
    return All;
  }();
  EXPECT_GE(C.storeStats().Recoveries, 4u); // 3 initial opens + restart.
  EXPECT_GT(C.storeStats().Syncs, 0u);
}
