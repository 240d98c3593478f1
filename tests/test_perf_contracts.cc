// Performance contracts of the fast epoch pipeline.
//
// Two families of guarantees, enforced rather than documented:
//
//   1. Allocation contracts. The test binary replaces global operator
//      new/delete with a counting hook; after a warmup walk segment has
//      grown every scratch buffer to steady capacity, one call of
//      Uniloc::update_fast must perform ZERO heap allocations -- same for
//      a steady-state ParticleFilter predict/reweight/resample cycle and
//      for one RNG engine snapshot into a reserved ByteWriter. The
//      hook is compiled out under ASan/TSan/MSan (the sanitizer runtimes
//      own the allocator there); those configurations skip the counting
//      tests and keep the cache-semantics tests.
//
//   2. Likelihood-cache semantics. Cached k-nearest answers are bitwise
//      equal to the exact reference; blend_reading invalidates the cache
//      (stale tables must never serve); invalidated queries fall back to
//      the exact path and are counted as misses; a rebuilt cache serves
//      hits again.
#include <gtest/gtest.h>

#include <execinfo.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <vector>

#include "core/epoch_scratch.h"
#include "core/runner.h"
#include "core/trainer.h"
#include "filter/particle_filter.h"
#include "offload/bytes.h"
#include "rng_codec_oracle.h"
#include "schemes/fingerprint_db.h"
#include "sim/builders.h"
#include "sim/walker.h"
#include "stats/rng_codec.h"
#include "stats/simd.h"
#include "testing_util.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define UNILOC_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define UNILOC_ALLOC_COUNTING 0
#else
#define UNILOC_ALLOC_COUNTING 1
#endif
#else
#define UNILOC_ALLOC_COUNTING 1
#endif

#if UNILOC_ALLOC_COUNTING

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

// Debug aid: with UNILOC_ALLOC_TRAP=1 in the environment, the first
// steady-state allocation dumps a backtrace and aborts, turning an
// "N allocation(s) in epoch E" failure into an actionable stack
// (symbolize the offsets with addr2line -e <binary>).
std::atomic<bool> g_trap{false};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (g_trap.load(std::memory_order_relaxed)) {
      void* frames[64];
      const int n = backtrace(frames, 64);
      backtrace_symbols_fd(frames, n, 2);
      std::abort();
    }
  }
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // UNILOC_ALLOC_COUNTING

namespace uniloc {
namespace {

#if UNILOC_ALLOC_COUNTING
std::uint64_t begin_counting() {
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  return 0;
}

std::uint64_t end_counting() {
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed);
}
#endif

const core::TrainedModels& test_models() {
  return testing_util::standard_models(100);
}

#if UNILOC_ALLOC_COUNTING

TEST(PerfContracts, UpdateFastIsAllocationFreeAfterWarmup) {
  // The office venue is fully indoor: GPS stays duty-cycled off and the
  // scheme availability pattern stabilizes within a handful of epochs, so
  // every buffer hits steady capacity during the warmup prefix.
  core::Deployment d = core::make_deployment(
      sim::office_place(42), core::DeploymentOptions{.seed = 42});
  core::Uniloc uniloc = core::make_uniloc(d, test_models());
  core::EpochScratch scratch;

  sim::Walker walker(d.place.get(), d.radio.get(), 0, sim::WalkConfig{});
  uniloc.reset({walker.start_position(), walker.start_heading()});

  std::vector<std::uint64_t> allocs_per_epoch;
  allocs_per_epoch.reserve(1 << 14);
  constexpr std::size_t kWarmupEpochs = 25;
  while (!walker.done()) {
    const sim::SensorFrame frame = walker.step(uniloc.gps_enabled());
    if (std::getenv("UNILOC_ALLOC_TRAP") != nullptr &&
        allocs_per_epoch.size() >= kWarmupEpochs) {
      g_trap.store(true, std::memory_order_relaxed);
    }
    begin_counting();
    uniloc.update_fast(frame, scratch);
    allocs_per_epoch.push_back(end_counting());
  }

  ASSERT_GT(allocs_per_epoch.size(), 2 * kWarmupEpochs)
      << "walk too short to measure a steady state";
  for (std::size_t e = kWarmupEpochs; e < allocs_per_epoch.size(); ++e) {
    EXPECT_EQ(allocs_per_epoch[e], 0u)
        << allocs_per_epoch[e] << " allocation(s) in steady-state epoch "
        << e;
  }
  // The zero above must come from reuse, not from an empty arena.
  EXPECT_GT(scratch.bytes(), 0u);
}

TEST(PerfContracts, ReferenceUpdateAllocatesProvingTheHookWorks) {
  // Guard against a silently-disabled hook: the reference pipeline
  // allocates its decision vectors every epoch, and the counter must see
  // that.
  core::Deployment d = core::make_deployment(
      sim::office_place(42), core::DeploymentOptions{.seed = 42});
  core::Uniloc uniloc = core::make_uniloc(d, test_models());

  sim::Walker walker(d.place.get(), d.radio.get(), 0, sim::WalkConfig{});
  uniloc.reset({walker.start_position(), walker.start_heading()});

  std::uint64_t total = 0;
  for (int e = 0; e < 30 && !walker.done(); ++e) {
    const sim::SensorFrame frame = walker.step(uniloc.gps_enabled());
    begin_counting();
    const core::EpochDecision dec = uniloc.update(frame);
    total += end_counting();
    ASSERT_FALSE(dec.outputs.empty());
  }
  EXPECT_GT(total, 0u);
}

TEST(PerfContracts, ParticleFilterCycleIsAllocationFreeInSteadyState) {
  filter::ParticleFilter pf(300, /*seed=*/99);
  pf.init({5.0, 5.0}, 0.3, 0.8, 0.08, 0.07);

  const auto cycle = [&pf] {
    pf.predict(0.7, 0.01, 0.12, 0.035);
    pf.reweight([](const filter::Particle& p) {
      return p.pos.x > 0.0 ? 1.0 : 0.5;
    });
    pf.resample();
  };
  // Warmup: let the resampling pick/gather scratch reach capacity.
  for (int i = 0; i < 3; ++i) cycle();

  begin_counting();
  for (int i = 0; i < 50; ++i) cycle();
  const std::uint64_t allocs = end_counting();
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(pf.storage_bytes(), 0u);
}

TEST(PerfContracts, EngineSnapshotIsAllocationFree) {
  // Every checkpoint wave snapshots two engines per session on the
  // thread that builds the wave. The codec copies the state words into
  // the writer; with the writer's capacity reserved that is zero heap
  // allocations (the iostream round trip it replaced made several).
  stats::Mt19937_64 engine(3);
  for (int i = 0; i < 100; ++i) engine();
  constexpr std::size_t kBytes = 4 + 8 * stats::kEngineTokens;
  offload::ByteWriter w;
  w.reserve(2 * kBytes);

  begin_counting();
  stats::snapshot_engine(engine, w);
  const std::uint64_t allocs = end_counting();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(w.size(), kBytes);

  // Hook proof: the test-side iostream oracle, same writer, same state.
  std::mt19937_64 ref(3);
  ref.discard(100);
  begin_counting();
  testing_util::oracle_snapshot_engine(ref, w);
  const std::uint64_t oracle_allocs = end_counting();
  EXPECT_GE(oracle_allocs, 4u);
  ASSERT_EQ(w.size(), 2 * kBytes);
  EXPECT_TRUE(std::equal(w.bytes().begin(), w.bytes().begin() + kBytes,
                         w.bytes().begin() + kBytes));
}

#else  // !UNILOC_ALLOC_COUNTING

TEST(PerfContracts, AllocationCountingSkippedUnderSanitizers) {
  GTEST_SKIP() << "operator new hook disabled under sanitizers";
}

#endif  // UNILOC_ALLOC_COUNTING

// ------------------------------------------------- likelihood cache

std::vector<sim::ApReading> scan_from_fingerprint(
    const schemes::FingerprintDatabase& db, std::size_t index) {
  std::vector<sim::ApReading> scan;
  for (const auto& [id, rssi] : db.fingerprints()[index].rssi) {
    scan.push_back({id, rssi + 1.5});  // offset: not an exact hit
  }
  return scan;
}

TEST(PerfContracts, CachedMatchesAreBitwiseEqualToReference) {
  core::Deployment d = core::make_deployment(
      sim::office_place(42), core::DeploymentOptions{.seed = 42});
  schemes::FingerprintDatabase& db = *d.wifi_db;
  ASSERT_TRUE(db.likelihood_cache_ready())
      << "make_deployment must prebuild the likelihood cache";
  EXPECT_GT(db.likelihood_cache_bytes(), 0u);

  schemes::ScanScratch scratch;
  std::vector<schemes::Match> cached;
  for (std::size_t i = 0; i < db.size(); i += 7) {
    const std::vector<sim::ApReading> scan = scan_from_fingerprint(db, i);
    const std::vector<schemes::Match> ref = db.k_nearest(scan, 20);
    db.k_nearest_into(scan, 20, scratch, cached);
    ASSERT_EQ(ref.size(), cached.size()) << "query " << i;
    for (std::size_t m = 0; m < ref.size(); ++m) {
      EXPECT_EQ(ref[m].index, cached[m].index) << "query " << i;
      EXPECT_EQ(ref[m].distance, cached[m].distance) << "query " << i;
    }
  }
  EXPECT_GT(scratch.cache_hits, 0u);
  EXPECT_EQ(scratch.cache_misses, 0u);
}

TEST(PerfContracts, BlendReadingInvalidatesTheCache) {
  core::Deployment d = core::make_deployment(
      sim::office_place(42), core::DeploymentOptions{.seed = 42});
  schemes::FingerprintDatabase& db = *d.wifi_db;
  ASSERT_TRUE(db.likelihood_cache_ready());

  const std::vector<sim::ApReading> scan = scan_from_fingerprint(db, 0);
  schemes::ScanScratch scratch;
  std::vector<schemes::Match> got;

  db.k_nearest_into(scan, 5, scratch, got);
  EXPECT_EQ(scratch.cache_hits, 1u);

  // Crowdsourced maintenance touches a fingerprint: the precomputed
  // tables are stale now and must not serve.
  const int some_id = db.fingerprints()[0].rssi.begin()->first;
  db.blend_reading(0, some_id, -40.0, 0.5);
  EXPECT_FALSE(db.likelihood_cache_ready());

  // The fallback answers exactly like the post-blend reference and is
  // accounted as a miss.
  db.k_nearest_into(scan, 5, scratch, got);
  EXPECT_EQ(scratch.cache_misses, 1u);
  const std::vector<schemes::Match> ref = db.k_nearest(scan, 5);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t m = 0; m < ref.size(); ++m) {
    EXPECT_EQ(ref[m].index, got[m].index);
    EXPECT_EQ(ref[m].distance, got[m].distance);
  }

  // Rebuilding restores cached service with the blended values baked in.
  db.prebuild_likelihood_cache();
  ASSERT_TRUE(db.likelihood_cache_ready());
  db.k_nearest_into(scan, 5, scratch, got);
  EXPECT_EQ(scratch.cache_hits, 2u);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t m = 0; m < ref.size(); ++m) {
    EXPECT_EQ(ref[m].index, got[m].index);
    EXPECT_EQ(ref[m].distance, got[m].distance);
  }
}

TEST(PerfContracts, BlendReadingInvalidatesTheSharedBatchTables) {
  // The SIMD batch-scoring path reads the column-major mirrors that
  // prebuild_likelihood_cache derives from the fingerprints. A deployment
  // mutation (crowdsourced blend) must invalidate them along with the
  // row-major tables: the next vector query falls back to the exact
  // reference path and never serves a stale column.
  core::Deployment d = core::make_deployment(
      sim::office_place(42), core::DeploymentOptions{.seed = 42});
  schemes::FingerprintDatabase& db = *d.wifi_db;
  ASSERT_TRUE(db.likelihood_cache_ready());

  const stats::ScopedSimd on(true);
  const std::vector<sim::ApReading> scan = scan_from_fingerprint(db, 2);
  schemes::ScanScratch scratch;
  std::vector<double> got;
  db.all_distances_into(scan, scratch, got);
  EXPECT_EQ(scratch.cache_hits, 1u);

  const int some_id = db.fingerprints()[2].rssi.begin()->first;
  db.blend_reading(2, some_id, -35.0, 0.5);
  ASSERT_FALSE(db.likelihood_cache_ready());

  db.all_distances_into(scan, scratch, got);
  EXPECT_EQ(scratch.cache_misses, 1u);
  const std::vector<double> ref = db.all_distances(scan);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i], got[i]) << "fingerprint " << i;
  }

  // A rebuilt cache serves the blended values from the vector path.
  db.prebuild_likelihood_cache();
  db.all_distances_into(scan, scratch, got);
  EXPECT_EQ(scratch.cache_hits, 2u);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i], got[i]) << "fingerprint " << i;
  }
}

TEST(PerfContracts, AllDistancesIntoMatchesReference) {
  core::Deployment d = core::make_deployment(
      sim::office_place(42), core::DeploymentOptions{.seed = 42});
  const schemes::FingerprintDatabase& db = *d.wifi_db;

  const std::vector<sim::ApReading> scan = scan_from_fingerprint(db, 3);
  const std::vector<double> ref = db.all_distances(scan);
  schemes::ScanScratch scratch;
  std::vector<double> got;
  db.all_distances_into(scan, scratch, got);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i], got[i]) << "fingerprint " << i;
  }
}

// ------------------------------------- cross-session isolation audit

TEST(PerfContracts, InterleavedSessionsMatchSoloRunsBitwise) {
  // Cross-session leakage regression: sessions share a deployment's
  // read-only tables (likelihood cache + column-major SIMD mirrors, env
  // index, walkway graph) while all mutable matching state (ScanScratch,
  // ScanMemo, EpochContext) lives in the per-session scratch arena.
  // Interleaving two sessions epoch by epoch must therefore reproduce
  // each session's solo stream bit for bit -- if any shared table were
  // secretly mutable per query (or a memo keyed only on a reusable heap
  // address could cross sessions), this comparison would diverge.
  // Campus: the two walkers need distinct walkways (0 and 1) so their
  // streams genuinely differ.
  core::Deployment d = core::make_deployment(
      sim::campus(42), core::DeploymentOptions{.seed = 42});

  struct Lane {
    sim::Walker walker;
    core::Uniloc uniloc;
    core::EpochScratch scratch;
    bool gps{true};
    std::vector<geo::Vec2> fixes;
  };
  const auto make_lane = [&](int walker_id, std::uint64_t seed) {
    // Direct aggregate-init on the heap: Lane's members need not be
    // movable (guaranteed elision into the members).
    return std::unique_ptr<Lane>(
        new Lane{sim::Walker(d.place.get(), d.radio.get(), walker_id,
                             sim::WalkConfig{}),
                 core::make_uniloc(d, test_models(), {}, false, seed),
                 core::EpochScratch{}, true, {}});
  };
  const auto step = [](Lane& lane) {
    if (lane.walker.done()) return false;
    const sim::SensorFrame f = lane.walker.step(lane.gps);
    const core::EpochDecision dec = lane.uniloc.update_fast(f, lane.scratch);
    lane.gps = lane.uniloc.gps_enabled();
    lane.fixes.push_back(dec.uniloc2);
    return true;
  };

  // Solo passes.
  auto solo_a = make_lane(0, 7);
  auto solo_b = make_lane(1, 8);
  solo_a->uniloc.reset(
      {solo_a->walker.start_position(), solo_a->walker.start_heading()});
  solo_b->uniloc.reset(
      {solo_b->walker.start_position(), solo_b->walker.start_heading()});
  while (step(*solo_a)) {
  }
  while (step(*solo_b)) {
  }

  // Interleaved pass: A, B, A, B, ... against the same live deployment.
  auto il_a = make_lane(0, 7);
  auto il_b = make_lane(1, 8);
  il_a->uniloc.reset(
      {il_a->walker.start_position(), il_a->walker.start_heading()});
  il_b->uniloc.reset(
      {il_b->walker.start_position(), il_b->walker.start_heading()});
  bool more = true;
  while (more) {
    more = false;
    more |= step(*il_a);
    more |= step(*il_b);
  }

  ASSERT_EQ(il_a->fixes.size(), solo_a->fixes.size());
  ASSERT_EQ(il_b->fixes.size(), solo_b->fixes.size());
  for (std::size_t e = 0; e < solo_a->fixes.size(); ++e) {
    EXPECT_EQ(il_a->fixes[e].x, solo_a->fixes[e].x) << "A epoch " << e;
    EXPECT_EQ(il_a->fixes[e].y, solo_a->fixes[e].y) << "A epoch " << e;
  }
  for (std::size_t e = 0; e < solo_b->fixes.size(); ++e) {
    EXPECT_EQ(il_b->fixes[e].x, solo_b->fixes[e].x) << "B epoch " << e;
    EXPECT_EQ(il_b->fixes[e].y, solo_b->fixes[e].y) << "B epoch " << e;
  }
}

}  // namespace
}  // namespace uniloc
