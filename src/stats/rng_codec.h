// Binary snapshot codec for the Mt19937_64 engines hoisted into the
// filters.
//
// The encoding is a u32 token count followed by that many little-endian
// u64 tokens: the 312 state words, then the read position -- the token
// list of the standard engine's textual stream representation, stored
// fixed-width (~2.5 KB per engine instead of ~7 KB of ASCII). The words
// are copied straight out of the engine (stats/mt19937_64.h); the test
// suite keeps the iostream-token encoding as the format oracle. Restore
// validates before it touches the engine: the token count must be
// exactly state_size + 1 and the position token must not index past the
// state array, so a bit-flipped or truncated snapshot is rejected
// instead of leaving the engine reading out of bounds.
#pragma once

#include <cstdint>

#include "offload/bytes.h"
#include "stats/mt19937_64.h"

namespace uniloc::stats {

inline constexpr std::uint32_t kEngineTokens = Mt19937_64::state_size + 1;

inline void snapshot_engine(const Mt19937_64& engine, offload::ByteWriter& w) {
  w.put_u32(kEngineTokens);
  for (const std::uint64_t word : engine.state()) w.put_u64(word);
  w.put_u64(engine.position());
}

inline bool restore_engine(Mt19937_64& engine, offload::ByteReader& r) {
  std::uint32_t count;
  if (!r.get_u32(count) || count != kEngineTokens) return false;
  Mt19937_64::State words{};
  for (std::uint64_t& word : words) {
    if (!r.get_u64(word)) return false;
  }
  std::uint64_t position;
  if (!r.get_u64(position)) return false;
  // A past-the-end position would make the next draw index out of bounds
  // inside the engine (checked on the u64, before any narrowing).
  return position <= Mt19937_64::state_size &&
         engine.set_state(words, static_cast<std::size_t>(position));
}

}  // namespace uniloc::stats
