// CRC-32C (Castagnoli) checksums for the snapshot format.
//
// CRC-32C is the storage-industry default (iSCSI, ext4, RocksDB block
// checksums): better error-detection spread than CRC-32/zlib and hardware
// acceleration on modern CPUs. This is a portable slicing-by-8 table
// implementation with no ISA-specific path. It is off the query path but
// not off set-up: every snapshot write hashes all it writes, and every
// engine open or reload with a result cache fingerprints the whole index.

#ifndef WCSD_UTIL_CHECKSUM_H_
#define WCSD_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace wcsd {

/// CRC-32C of `size` bytes at `data`. Chain blocks by passing the previous
/// result as `seed` (an empty range returns the seed unchanged).
uint32_t Crc32c(const void* data, size_t size, uint32_t seed = 0);

}  // namespace wcsd

#endif  // WCSD_UTIL_CHECKSUM_H_
