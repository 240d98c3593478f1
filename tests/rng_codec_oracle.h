// Format oracle for the RNG engine snapshot codec (stats/rng_codec.h).
//
// This is the codec's original implementation, kept test-side: it gets
// at a std::mt19937_64's state through the engine's standard textual
// stream representation (the 312 state words, then the read position)
// and re-encodes the tokens as a u32 count plus little-endian u64s. The
// production codec copies the words straight out of stats::Mt19937_64;
// the oracle pins that both produce the same bytes and that each side
// restores the other's snapshots.
#pragma once

#include <cstdint>
#include <random>
#include <sstream>
#include <vector>

#include "offload/bytes.h"

namespace uniloc::testing_util {

inline void oracle_snapshot_engine(const std::mt19937_64& engine,
                                   offload::ByteWriter& w) {
  std::ostringstream os;
  os << engine;
  std::istringstream is(os.str());
  std::vector<std::uint64_t> tokens;
  std::uint64_t t;
  while (is >> t) tokens.push_back(t);
  w.put_u32(static_cast<std::uint32_t>(tokens.size()));
  for (const std::uint64_t token : tokens) w.put_u64(token);
}

inline bool oracle_restore_engine(std::mt19937_64& engine,
                                  offload::ByteReader& r) {
  constexpr std::size_t kTokens = std::mt19937_64::state_size + 1;
  std::uint32_t count;
  if (!r.get_u32(count) || count != kTokens) return false;
  std::ostringstream os;
  std::uint64_t last = 0;
  for (std::size_t i = 0; i < kTokens; ++i) {
    std::uint64_t token;
    if (!r.get_u64(token)) return false;
    if (i > 0) os << ' ';
    os << token;
    last = token;
  }
  if (last > std::mt19937_64::state_size) return false;
  std::istringstream is(os.str());
  std::mt19937_64 restored;
  is >> restored;
  if (is.fail()) return false;
  engine = restored;
  return true;
}

}  // namespace uniloc::testing_util
