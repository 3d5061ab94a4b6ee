#ifndef XMLQ_BASE_CRC32_H_
#define XMLQ_BASE_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace xmlq {

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78) over `size` bytes —
/// the storage-checksum standard (iSCSI, ext4, LevelDB) because x86 has a
/// dedicated instruction for it. On SSE4.2 hardware this runs three
/// interleaved crc32 streams (recombined with precomputed shift tables) at
/// roughly 15 GB/s, so checksumming a snapshot costs a fraction of the open;
/// elsewhere it falls back to slicing-by-8 (~1 byte/cycle). Chain blocks by
/// passing the previous result as `seed` (an empty range returns `seed`
/// unchanged).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

namespace internal {

/// The portable slicing-by-8 path, exposed so tests can pin the hardware
/// path to it bit-for-bit.
uint32_t Crc32Software(const void* data, size_t size, uint32_t seed = 0);

/// True when Crc32 dispatches to the SSE4.2 instruction path.
bool Crc32HardwareAvailable();

}  // namespace internal

}  // namespace xmlq

#endif  // XMLQ_BASE_CRC32_H_
