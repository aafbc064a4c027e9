// On-disk byte-order contract for every WCSD binary format.
//
// All serialized formats (snapshots, shard manifests, delta logs, the wire
// protocol) write fixed-width little-endian fields: files
// produced on any supported host are readable on any other. Rather than
// byte-swapping on big-endian hosts — which would forbid the zero-copy mmap
// path this contract exists for — serializers refuse to run there with a
// clean Status. No supported
// production target is big-endian; the guard documents the assumption
// instead of silently corrupting data if one ever appears.

#ifndef WCSD_UTIL_ENDIAN_H_
#define WCSD_UTIL_ENDIAN_H_

#include <bit>

#include "util/status.h"

namespace wcsd {

/// True on hosts whose native byte order matches the on-disk format.
inline constexpr bool kLittleEndianHost =
    std::endian::native == std::endian::little;

/// OK on little-endian hosts; Unimplemented otherwise. Serializers and
/// deserializers call this before touching bytes.
inline Status CheckSerializationByteOrder() {
  if constexpr (kLittleEndianHost) {
    return Status::OK();
  } else {
    return Status::Unimplemented(
        "WCSD binary formats are little-endian; big-endian hosts are "
        "unsupported");
  }
}

}  // namespace wcsd

#endif  // WCSD_UTIL_ENDIAN_H_
