// Shared per-epoch state for the fast epoch pipeline.
//
// Several stages of one epoch query the same fingerprint database with the
// same sensor scan and differ only in how many candidates they keep: the
// WiFi scheme takes the top 15, the fusion scheme the top 15, the error
// model's rssi_dist_sd feature the top 3. The EpochContext lets them share
// one candidate evaluation per (epoch, database) -- see
// FingerprintDatabase::k_nearest_memo for the bit-exactness argument.
//
// One EpochContext lives inside each session's core::EpochScratch and is
// threaded to the schemes by Uniloc::update_fast through
// LocalizationScheme::set_epoch_context. The test oracle
// (tests/reference_pipeline.h) never installs a context, so it keeps
// recomputing from scratch -- the differential suite compares exactly
// that pair.
#pragma once

#include <cstddef>
#include <cstdint>

#include "schemes/fingerprint_db.h"

namespace uniloc::schemes {

struct EpochContext {
  /// Bumped once per update_fast epoch; memos from earlier epochs (or an
  /// earlier walk -- reset() does not clear the context) are invalid.
  std::uint64_t tag{0};

  /// One memo per distinct database queried during an epoch. The standard
  /// ensemble touches two (WiFi + cellular); slots beyond that cover
  /// user-integrated schemes with their own databases.
  static constexpr std::size_t kMemoSlots = 4;
  ScanMemo memos[kMemoSlots];

  /// The memo slot owned by `db`, claiming a free slot on first sight.
  /// Returns nullptr when more distinct databases than slots are in play;
  /// callers then fall back to their private unmemoized scratch.
  ScanMemo* memo_for(const FingerprintDatabase* db) {
    for (ScanMemo& m : memos) {
      if (m.db == db) return &m;
      if (m.db == nullptr) {
        m.db = db;
        return &m;
      }
    }
    return nullptr;
  }

  std::uint64_t cache_hits() const {
    std::uint64_t total = 0;
    for (const ScanMemo& m : memos) total += m.scratch.cache_hits;
    return total;
  }
  std::uint64_t cache_misses() const {
    std::uint64_t total = 0;
    for (const ScanMemo& m : memos) total += m.scratch.cache_misses;
    return total;
  }

  /// Heap capacity held by the memos (perf.scratch_bytes accounting).
  std::size_t bytes() const {
    std::size_t b = 0;
    for (const ScanMemo& m : memos) {
      b += m.all.capacity() * sizeof(Match);
      b += m.scratch.col.capacity() * sizeof(int);
      b += m.scratch.stamp.capacity() * sizeof(std::uint32_t);
      b += (m.scratch.lane_sum2.capacity() + m.scratch.lane_shared.capacity() +
            m.scratch.col_skip.capacity()) *
           sizeof(double);
    }
    return b;
  }
};

}  // namespace uniloc::schemes
