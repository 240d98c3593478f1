// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Guards the checkpoint wave files: a wave's trailing CRC covers every
// preceding byte, so a torn write, a bit flip, or a truncated tail is
// detected before any record is parsed. The checksum is computed by
// WaveBuilder::finish on the thread that builds the wave -- for periodic
// waves that is the server's ingress thread, inside submit(), so every
// request due behind the wave waits for it -- and again by decode_wave
// on every restore path. Slice-by-8: eight table lookups per 8 input
// bytes instead of one lookup per byte, with the same results
// (tests/test_offload.cc checks it against the bit-at-a-time definition).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace uniloc::offload {

namespace detail {
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the classic bytewise table; tables[k][i] is the CRC
/// state after byte i is followed by k zero bytes, which lets one step
/// fold eight input bytes at once.
inline constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}
inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// Little-endian u32 from 4 bytes; compilers fold it into one load.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}
}  // namespace detail

/// CRC-32 of `n` bytes. `seed` chains partial updates:
/// crc32(b, n) == crc32(b + k, n - k, crc32(b, k)).
inline std::uint32_t crc32(const std::uint8_t* data, std::size_t n,
                           std::uint32_t seed = 0) {
  const detail::Crc32Tables& t = detail::kCrc32Tables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    const std::uint32_t lo = detail::load_le32(data) ^ c;
    const std::uint32_t hi = detail::load_le32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace uniloc::offload
