#include "io/checksum.hpp"

#include <array>

namespace san {
namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables for the reflected IEEE polynomial: tables[0] is the
/// classic byte-at-a-time table, and tables[j][b] is the CRC contribution
/// of byte b followed by j zero bytes, so eight lookups fold eight input
/// bytes at once. Same polynomial and same values as the byte-wise loop; a
/// shard snapshot checksums megabytes per fleet, where the byte-wise table
/// walk costs about five times as long.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t j = 1; j < 8; ++j)
    for (std::size_t i = 0; i < 256; ++i)
      t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFFu];
  return t;
}

constexpr Tables kTables = make_tables();

}  // namespace

void Crc32::update(const void* data, std::size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = state_;
  for (; len >= 8; len -= 8, p += 8) {
    // Assembled byte by byte so the result does not depend on host byte
    // order; compilers fuse it into one load on little-endian targets.
    c ^= static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
    c = kTables[7][c & 0xFFu] ^ kTables[6][(c >> 8) & 0xFFu] ^
        kTables[5][(c >> 16) & 0xFFu] ^ kTables[4][c >> 24] ^
        kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
        kTables[0][p[7]];
  }
  for (; len > 0; --len, ++p) c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  state_ = c;
}

std::uint32_t crc32(const void* data, std::size_t len) {
  Crc32 c;
  c.update(data, len);
  return c.value();
}

}  // namespace san
