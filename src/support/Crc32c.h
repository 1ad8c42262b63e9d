//===- support/Crc32c.h - CRC-32C (Castagnoli) checksums ------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Slicing-by-8 software CRC-32C (Castagnoli polynomial 0x1EDC6F41,
/// reflected 0x82F63B78) — the checksum guarding every WAL record and
/// snapshot frame in src/store. Chosen over plain CRC-32 for its better
/// burst-error detection; the value for "123456789" is the standard
/// check word 0xE3069283, pinned by a test so the on-disk format cannot
/// silently drift.
///
/// Eight 256-entry tables, built once, let the main loop fold 8 input
/// bytes per step; the bytes are read one at a time, so the loop makes
/// no alignment or endianness assumption. The bytewise loop over table
/// 0 finishes the tail. There is one code path: no hardware CRC
/// instruction and no runtime dispatch.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_SUPPORT_CRC32C_H
#define ADORE_SUPPORT_CRC32C_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace adore {

namespace detail {

using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

/// Table K maps a byte to the CRC of that byte followed by K zero bytes,
/// so table 0 is the classic bytewise table.
inline const Crc32cTables &crc32cTables() {
  static const Crc32cTables Tables = [] {
    Crc32cTables T{};
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? 0x82F63B78u ^ (C >> 1) : C >> 1;
      T[0][I] = C;
    }
    for (size_t K = 1; K != 8; ++K)
      for (uint32_t I = 0; I != 256; ++I)
        T[K][I] = T[0][T[K - 1][I] & 0xFF] ^ (T[K - 1][I] >> 8);
    return T;
  }();
  return Tables;
}

/// Little-endian u32 from four byte loads.
inline uint32_t loadU32le(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 | static_cast<uint32_t>(P[3]) << 24;
}

} // namespace detail

/// CRC-32C over \p Len bytes, continuing from \p Seed (pass 0 to start).
inline uint32_t crc32c(const void *Data, size_t Len, uint32_t Seed = 0) {
  const detail::Crc32cTables &T = detail::crc32cTables();
  const auto *P = static_cast<const uint8_t *>(Data);
  uint32_t C = ~Seed;
  for (; Len >= 8; P += 8, Len -= 8) {
    uint32_t Lo = C ^ detail::loadU32le(P);
    uint32_t Hi = detail::loadU32le(P + 4);
    C = T[7][Lo & 0xFF] ^ T[6][(Lo >> 8) & 0xFF] ^ T[5][(Lo >> 16) & 0xFF] ^
        T[4][Lo >> 24] ^ T[3][Hi & 0xFF] ^ T[2][(Hi >> 8) & 0xFF] ^
        T[1][(Hi >> 16) & 0xFF] ^ T[0][Hi >> 24];
  }
  for (; Len != 0; ++P, --Len)
    C = T[0][(C ^ *P) & 0xFF] ^ (C >> 8);
  return ~C;
}

inline uint32_t crc32c(const std::string &Bytes, uint32_t Seed = 0) {
  return crc32c(Bytes.data(), Bytes.size(), Seed);
}

} // namespace adore

#endif // ADORE_SUPPORT_CRC32C_H
