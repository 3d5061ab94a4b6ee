#include "xmlq/base/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define XMLQ_CRC32_HW 1
#endif

namespace xmlq {
namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected CRC-32C

/// 8 slicing tables, generated at compile time. kTables[0] is the classic
/// byte-at-a-time table; kTables[k][b] advances a byte `b` that sits k bytes
/// ahead of the current position.
constexpr std::array<std::array<uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    tables[0][b] = crc;
  }
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = tables[0][b];
    for (size_t k = 1; k < 8; ++k) {
      crc = (crc >> 8) ^ tables[0][crc & 0xFF];
      tables[k][b] = crc;
    }
  }
  return tables;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kTables = MakeTables();

#ifdef XMLQ_CRC32_HW

// ---- GF(2) machinery for recombining interleaved streams ----------------
//
// Appending n zero bytes to a message multiplies its CRC by x^(8n) in
// GF(2)[x]/P — a linear operator on the 32 crc bits. The hardware path
// precomputes that operator for its two interleave block sizes as 4x256
// lookup tables. Same construction as zlib's crc32_combine.

uint32_t Gf2Times(const uint32_t mat[32], uint32_t vec) {
  uint32_t out = 0;
  for (int i = 0; vec != 0; ++i, vec >>= 1) {
    if (vec & 1) out ^= mat[i];
  }
  return out;
}

void Gf2Square(uint32_t dst[32], const uint32_t src[32]) {
  for (int i = 0; i < 32; ++i) dst[i] = Gf2Times(src, src[i]);
}

struct ShiftTable {
  uint32_t t[4][256];

  /// The operator applied to a crc value: four byte-indexed lookups.
  uint32_t Apply(uint32_t crc) const {
    return t[0][crc & 0xFF] ^ t[1][(crc >> 8) & 0xFF] ^
           t[2][(crc >> 16) & 0xFF] ^ t[3][crc >> 24];
  }
};

/// Builds the "append 2^log2_bytes zero bytes" operator.
ShiftTable MakeShift(int log2_bytes) {
  // Operator for one zero *bit*: crc' = (crc >> 1) ^ (crc & 1 ? P : 0).
  uint32_t even[32], odd[32];
  odd[0] = kPoly;
  for (int i = 1; i < 32; ++i) odd[i] = uint32_t{1} << (i - 1);
  // Square log2_bytes + 3 times: 2^(log2_bytes + 3) bits.
  uint32_t* cur = odd;
  uint32_t* next = even;
  for (int s = 0; s < log2_bytes + 3; ++s) {
    Gf2Square(next, cur);
    std::swap(cur, next);
  }
  ShiftTable table;
  for (uint32_t b = 0; b < 256; ++b) {
    for (int j = 0; j < 4; ++j) {
      table.t[j][b] = Gf2Times(cur, b << (8 * j));
    }
  }
  return table;
}

constexpr int kLongLog2 = 13, kShortLog2 = 9;  // 8 KiB / 512 B blocks
constexpr size_t kLong = size_t{1} << kLongLog2;
constexpr size_t kShort = size_t{1} << kShortLog2;

uint64_t Load64(const unsigned char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

/// Three crc32q streams over `stride`-byte lanes, merged via `shift`.
/// The crc32 instruction family is exposed through builtins so only this
/// function needs the sse4.2 target, not the whole translation unit.
__attribute__((target("sse4.2"))) uint32_t Hw3Way(const unsigned char* p,
                                                  size_t stride,
                                                  const ShiftTable& shift,
                                                  uint32_t crc) {
  uint64_t c0 = crc, c1 = 0, c2 = 0;
  for (size_t i = 0; i < stride; i += 8) {
    c0 = __builtin_ia32_crc32di(c0, Load64(p + i));
    c1 = __builtin_ia32_crc32di(c1, Load64(p + stride + i));
    c2 = __builtin_ia32_crc32di(c2, Load64(p + 2 * stride + i));
  }
  crc = shift.Apply(static_cast<uint32_t>(c0)) ^ static_cast<uint32_t>(c1);
  crc = shift.Apply(crc) ^ static_cast<uint32_t>(c2);
  return crc;
}

__attribute__((target("sse4.2"))) uint32_t HwCrc(const unsigned char* p,
                                                 size_t size, uint32_t crc) {
  static const ShiftTable long_shift = MakeShift(kLongLog2);
  static const ShiftTable short_shift = MakeShift(kShortLog2);
  while (size != 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = __builtin_ia32_crc32qi(crc, *p++);
    --size;
  }
  while (size >= 3 * kLong) {
    crc = Hw3Way(p, kLong, long_shift, crc);
    p += 3 * kLong;
    size -= 3 * kLong;
  }
  while (size >= 3 * kShort) {
    crc = Hw3Way(p, kShort, short_shift, crc);
    p += 3 * kShort;
    size -= 3 * kShort;
  }
  uint64_t wide = crc;
  while (size >= 8) {
    wide = __builtin_ia32_crc32di(wide, Load64(p));
    p += 8;
    size -= 8;
  }
  crc = static_cast<uint32_t>(wide);
  while (size-- > 0) crc = __builtin_ia32_crc32qi(crc, *p++);
  return crc;
}

#endif  // XMLQ_CRC32_HW

}  // namespace

namespace internal {

uint32_t Crc32Software(const void* data, size_t size, uint32_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  while (size >= 8) {
    const uint32_t lo = crc ^ (static_cast<uint32_t>(p[0]) |
                               static_cast<uint32_t>(p[1]) << 8 |
                               static_cast<uint32_t>(p[2]) << 16 |
                               static_cast<uint32_t>(p[3]) << 24);
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
          kTables[0][p[7]];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p++) & 0xFF];
  }
  return ~crc;
}

bool Crc32HardwareAvailable() {
#ifdef XMLQ_CRC32_HW
  static const bool available = __builtin_cpu_supports("sse4.2");
  return available;
#else
  return false;
#endif
}

}  // namespace internal

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
#ifdef XMLQ_CRC32_HW
  if (internal::Crc32HardwareAvailable()) {
    return ~HwCrc(static_cast<const unsigned char*>(data), size, ~seed);
  }
#endif
  return internal::Crc32Software(data, size, seed);
}

}  // namespace xmlq
