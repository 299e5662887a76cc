#ifndef QSE_UTIL_CRC32_H_
#define QSE_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace qse {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over a byte buffer — the
/// per-record integrity check of the durability subsystem's WAL and
/// snapshot files.  A torn write, bit flip or lying length prefix must be
/// detected BEFORE any decoded field is trusted; a 32-bit CRC catches all
/// single-burst errors up to 32 bits and any single-bit flip, which covers
/// the failure modes a local filesystem actually produces (partial
/// sector, cosmic-ray flip), at a cost the mutation path never notices
/// next to the write() syscall beside it.
///
/// `seed` chains incremental computation: Crc32(b, n2, Crc32(a, n1))
/// equals the CRC of the concatenation.  The default seed is the
/// standard initial value.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

}  // namespace qse

#endif  // QSE_UTIL_CRC32_H_
