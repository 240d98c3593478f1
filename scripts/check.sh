#!/usr/bin/env bash
# Tier-1 gate: configure, build everything, run the full test suite.
#
#   scripts/check.sh                 # default RelWithDebInfo build/
#   BUILD_DIR=build-asan CMAKE_ARGS="-DUNILOC_SANITIZE=address" \
#     scripts/check.sh               # sanitized tree in its own dir
#
# Every ctest call passes --no-tests=error: a -R/-L filter that matches
# nothing (a renamed or deleted suite) must fail the gate, not print
# "No tests were found!!!" and exit 0.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"

cmake -B "$BUILD_DIR" -S . ${CMAKE_ARGS:-}
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --no-tests=error --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# Property-test quick gate: rerun the generative chaos sweeps at a fixed
# 64 cases per engine so the gate's depth does not silently drift with
# the in-tree defaults. Replays tests/corpus/reproducers.jsonl first; on
# a violation the engine prints a greppable `UNILOC_REPRO seed=...` line
# and the shrunk minimal spec.
UNILOC_PROPTEST_CASES=64 \
  ctest --no-tests=error --test-dir "$BUILD_DIR" -L '^proptest$' --output-on-failure -j "$JOBS"

# SIMD differential gate: the vectorization-aware kernel tier (det_exp /
# det_log / det_sincos accuracy, vector kernel == scalar oracle at every
# lane-tail size, denormal and +-inf inputs, the 10k-particle systematic
# resampling distribution check) reruns explicitly so a vectorization
# regression fails greppably, not buried in the full-suite run above.
ctest --no-tests=error --test-dir "$BUILD_DIR" -L '^simd$' --output-on-failure -j "$JOBS"

# Scalar-fallback gate: the whole suite again in a -DUNILOC_NO_SIMD=ON
# tree (vector kernels compiled out, no -fopenmp-simd). Golden traces and
# differential expectations are shared with the native build, so this
# gate proves the scalar and vectorized pipelines are bit-identical, not
# merely both self-consistent. Set NOSIMD=0 to skip.
if [[ "${NOSIMD:-1}" != "0" ]]; then
  NOSIMD_DIR="${NOSIMD_DIR:-build-nosimd}"
  cmake -B "$NOSIMD_DIR" -S . -DUNILOC_NO_SIMD=ON
  cmake --build "$NOSIMD_DIR" -j "$JOBS"
  ctest --no-tests=error --test-dir "$NOSIMD_DIR" --output-on-failure -j "$JOBS"
fi

# Tier-2 gate A: the src/svc concurrency suite must be clean under
# ThreadSanitizer (worker pool, session strands, server instrumentation).
# Only the suites gated below are built in the sanitized tree; the `svc`
# ctest label selects exactly test_svc. Set TSAN=0 to skip (e.g. no
# libtsan).
if [[ "${TSAN:-1}" != "0" ]]; then
  TSAN_DIR="${TSAN_DIR:-build-tsan}"
  cmake -B "$TSAN_DIR" -S . -DUNILOC_SANITIZE=thread
  cmake --build "$TSAN_DIR" -j "$JOBS" \
    --target test_svc test_shard test_differential test_obs
  ctest --no-tests=error --test-dir "$TSAN_DIR" -L '^svc$' --output-on-failure -j "$JOBS"
  # Fleet gate: the shard suite routes, migrates and rebalances across
  # per-shard worker pools while a control thread checkpoints the fleet
  # -- the router's route table and buffers are exactly where TSan finds
  # lost-frame races.
  ctest --no-tests=error --test-dir "$TSAN_DIR" -L '^shard$' --output-on-failure -j "$JOBS"
  # Observability gate: the lock-free metrics (atomic counters/gauges),
  # the span tracer, and the flight recorder are all recorded from worker
  # threads concurrently -- the `obs` label's concurrency tests must be
  # clean under TSan too.
  ctest --no-tests=error --test-dir "$TSAN_DIR" -L '^obs$' --output-on-failure -j "$JOBS"
  # Epoch-pipeline gate: the differential seed sweeps drive the service
  # at workers=4 (against the oracle-checked workers=0 stream), so TSan
  # checks that per-session epoch scratch (including the shared scan
  # memos) really is confined to its session strand.
  ctest --no-tests=error --test-dir "$TSAN_DIR" -R '^diff\.' --output-on-failure -j "$JOBS"
  # Property-test concurrency gate: the generated-world sweep spawns
  # workers>0 and fleet passes for a quarter of its cases -- TSan watches
  # the same pools/strands the svc gate covers, but under generated fault
  # schedules and membership churn instead of hand-picked ones.
  cmake --build "$TSAN_DIR" -j "$JOBS" --target test_proptest
  UNILOC_PROPTEST_CASES=32 ctest --no-tests=error --test-dir "$TSAN_DIR" \
    -R '^proptest\.ChaosSweep' --output-on-failure -j "$JOBS"
fi

# Tier-2 gate B: the fault-injection path (svc + chaos labels: the
# concurrency suite, the chaos suite, and the golden-trace replays) must
# be clean under AddressSanitizer + UndefinedBehaviorSanitizer -- the
# FaultyLink juggles promise/future lifetimes and cached reply buffers
# across retries, exactly where ASan finds use-after-move/free bugs.
# Set ASAN=0 to skip (e.g. no libasan).
if [[ "${ASAN:-1}" != "0" ]]; then
  ASAN_DIR="${ASAN_DIR:-build-asan}"
  cmake -B "$ASAN_DIR" -S . "-DUNILOC_SANITIZE=address;undefined"
  cmake --build "$ASAN_DIR" -j "$JOBS" \
    --target test_svc test_fault test_golden test_differential
  ctest --no-tests=error --test-dir "$ASAN_DIR" -L 'svc|chaos' --output-on-failure -j "$JOBS"
  # Epoch-pipeline gate: the served-pipeline-vs-oracle differential
  # (tests/reference_pipeline.cc is compiled into test_differential) must
  # stay clean under ASan/UBSan -- the zero-allocation arena reuses
  # buffers across epochs and sessions, exactly where stale-pointer bugs
  # would hide.
  ctest --no-tests=error --test-dir "$ASAN_DIR" -R '^diff\.' --output-on-failure -j "$JOBS"
  # Crash-recovery gate: the checkpoint suite (snapshot codec round
  # trips, kProcessCrash chaos, truncated/bit-flipped snapshot fuzz)
  # must be clean under ASan+UBSan -- restore() is the server's hostile
  # deserialization boundary, exactly where OOB reads would hide.
  cmake --build "$ASAN_DIR" -j "$JOBS" --target test_checkpoint
  ctest --no-tests=error --test-dir "$ASAN_DIR" -L '^checkpoint$' --output-on-failure -j "$JOBS"
  # Fleet gates: the whole shard suite under ASan (kMigrate adoption and
  # checkpoint splitting are hostile-input boundaries), then the
  # shard-crash chaos tests rerun by name -- the zero-session-loss claim
  # (kill 1 of N shards, every session resurrects from its checkpoint,
  # bit-identical) must fail loudly and greppably here.
  cmake --build "$ASAN_DIR" -j "$JOBS" --target test_shard
  ctest --no-tests=error --test-dir "$ASAN_DIR" -L '^shard$' --output-on-failure -j "$JOBS"
  ctest --no-tests=error --test-dir "$ASAN_DIR" -R 'shard\..*Crash' --output-on-failure -j "$JOBS"
  # Chaos-with-tracing gate: the chaos suite includes fault.trace_*
  # tests that run scripted disasters with the span tracer attached and
  # assert zero span leaks (spans opened == spans closed) -- every epoch
  # abandoned to a drop, blackout, crash or backpressure must still
  # close its span tree. They ran under ASan in the `chaos` label above;
  # rerun them by name so a leak fails loudly and greppably here.
  ctest --no-tests=error --test-dir "$ASAN_DIR" -R '\.trace_' --output-on-failure -j "$JOBS"
  # Property-test deep gate: 512 generated cases per engine under
  # ASan+UBSan. The generator reaches configurations no hand-written
  # suite pins (burst arrival x blackout x crash/restore x churn), and
  # the oracle's differential passes replay every frame through the
  # FaultyLink retry path -- the densest traffic the codec and reply
  # buffers ever see. A failure shrinks, prints UNILOC_REPRO, and
  # appends the minimal spec to tests/corpus/reproducers.jsonl.
  cmake --build "$ASAN_DIR" -j "$JOBS" --target test_proptest
  UNILOC_PROPTEST_CASES=512 ctest --no-tests=error --test-dir "$ASAN_DIR" \
    -L '^proptest$' --output-on-failure -j "$JOBS"
  # SIMD-kernel gate: the vector kernels read SoA arrays through raw
  # pointers with hand-managed lane tails -- exactly where an
  # off-by-one past the last lane would hide. The kernel tier reruns
  # under ASan+UBSan (which also checks the bit_cast exponent tricks in
  # stats/vecmath.h for UB).
  cmake --build "$ASAN_DIR" -j "$JOBS" --target test_simd_kernels
  ctest --no-tests=error --test-dir "$ASAN_DIR" -L '^simd$' --output-on-failure -j "$JOBS"
  # Decoder-fuzz gate: the delta suite is the wave-chain hostile-input
  # boundary -- the wave decoder's bit-flip/truncation fuzz, the
  # quantized (v2) particle codec fuzz, the torn-publish fault
  # injection, and collapse_chain over damaged chains all rerun under
  # ASan+UBSan, exactly where an OOB read in a length-prefixed parser
  # would hide.
  cmake --build "$ASAN_DIR" -j "$JOBS" --target test_delta
  ctest --no-tests=error --test-dir "$ASAN_DIR" -L '^delta$' --output-on-failure -j "$JOBS"
fi

# City-scale smoke: the soak bench at 2k walkers (the full 100k run
# lives in EXPERIMENTS.md) -- arrival, churn, rotating traffic, delta
# waves through the async group committer, and a cold restore_chain of
# the directory it wrote. Exits nonzero if the restore loses a session.
# Set SOAK=0 to skip.
if [[ "${SOAK:-1}" != "0" ]]; then
  # cwd = the build tree so the smoke's BENCH_soak.json does not clobber
  # the committed full-scale report at the repo root.
  (cd "$BUILD_DIR" && UNILOC_SOAK_WALKERS=2000 UNILOC_SOAK_ROUNDS=6 \
    bench/soak)
fi
