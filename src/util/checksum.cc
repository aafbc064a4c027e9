#include "util/checksum.h"

#include <array>

namespace wcsd {

namespace {

// Slicing-by-8 tables for the reflected CRC-32C polynomial 0x1EDC6F41:
// kTables[0] is the classic bytewise table, and kTables[k][b] advances the
// CRC of byte b through k more zero bytes.
using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32cTables MakeCrc32cTables() {
  Crc32cTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Crc32cTables kTables = MakeCrc32cTables();

}  // namespace

uint32_t Crc32c(const void* data, size_t size, uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (; size >= 8; bytes += 8, size -= 8) {
    // The next 8 bytes as a little-endian word, whatever the host's order.
    const uint32_t lo = crc ^ (uint32_t{bytes[0]} | uint32_t{bytes[1]} << 8 |
                               uint32_t{bytes[2]} << 16 |
                               uint32_t{bytes[3]} << 24);
    const uint32_t hi = uint32_t{bytes[4]} | uint32_t{bytes[5]} << 8 |
                        uint32_t{bytes[6]} << 16 | uint32_t{bytes[7]} << 24;
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = kTables[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace wcsd
