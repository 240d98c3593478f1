// Micro-benchmarks (google-benchmark) for UniLoc's hot operations:
// error prediction, confidence, BMA weighting, fingerprint matching,
// particle-filter update, posterior mixing. These are the numbers behind
// Table V's "light-weight computation" claim -- everything UniLoc adds is
// simple linear calculation.
#include <benchmark/benchmark.h>

#include "core/confidence.h"
#include "core/deployment.h"
#include "core/epoch_scratch.h"
#include "core/map_matching.h"
#include "core/posterior_fusion.h"
#include "core/runner.h"
#include "core/trainer.h"
#include "filter/particle_filter.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "schemes/fingerprint_db.h"
#include "schemes/horus_scheme.h"
#include "sim/floorplan.h"
#include "stats/gaussian.h"
#include "stats/regression.h"

using namespace uniloc;

namespace {

const core::Deployment& office() {
  static core::Deployment d = core::make_deployment(
      sim::office_place(42), core::DeploymentOptions{.seed = 42});
  return d;
}

const core::TrainedModels& models() {
  static core::TrainedModels m = core::train_standard_models(42, 200);
  return m;
}

std::vector<sim::ApReading> sample_scan() {
  stats::Rng rng(7);
  return office().radio->wifi_scan({20.0, 8.0}, rng);
}

void BM_ErrorPrediction(benchmark::State& state) {
  const core::ErrorModel& m =
      models().for_family(schemes::SchemeFamily::kWifiFingerprint);
  const std::vector<double> x{4.5, 2.1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.predict(x, true));
  }
}
BENCHMARK(BM_ErrorPrediction);

void BM_Confidence(benchmark::State& state) {
  const stats::Gaussian g{4.2, 2.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::confidence(g, 5.0));
  }
}
BENCHMARK(BM_Confidence);

void BM_BmaWeights(benchmark::State& state) {
  const std::vector<double> confs{0.9, 0.4, 0.2, 0.95, 0.85};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::bma_weights(confs));
  }
}
BENCHMARK(BM_BmaWeights);

void BM_FingerprintMatch(benchmark::State& state) {
  const auto scan = sample_scan();
  const schemes::FingerprintDatabase& db = *office().wifi_db;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.k_nearest(scan, 3));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(db.size()));
}
BENCHMARK(BM_FingerprintMatch);

void BM_FingerprintMatchCached(benchmark::State& state) {
  // Same query through the precomputed likelihood cache + reused scratch
  // (the fast path's matcher). Bit-identical to BM_FingerprintMatch's
  // results; the delta is the caching.
  const auto scan = sample_scan();
  const schemes::FingerprintDatabase& db = *office().wifi_db;
  schemes::ScanScratch scratch;
  std::vector<schemes::Match> out;
  for (auto _ : state) {
    db.k_nearest_into(scan, 3, scratch, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(db.size()));
}
BENCHMARK(BM_FingerprintMatchCached);

void BM_ParticleFilterStep(benchmark::State& state) {
  filter::ParticleFilter pf(300, stats::Rng(3));
  pf.init({10.0, 5.0}, 0.0, 1.0, 0.1, 0.05);
  for (auto _ : state) {
    pf.predict(0.7, 0.01, 0.1, 0.03);
    pf.reweight([](const filter::Particle& p) {
      return p.pos.x > 0.0 ? 1.0 : 0.1;
    });
    pf.resample();
    benchmark::DoNotOptimize(pf.mean());
  }
}
BENCHMARK(BM_ParticleFilterStep);

void BM_OlsFit(benchmark::State& state) {
  stats::Rng rng(5);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    const double a = rng.uniform(0.0, 50.0), b = rng.uniform(0.0, 10.0);
    x.push_back({a, b});
    y.push_back(0.5 + 0.2 * a - 0.1 * b + rng.normal(0.0, 1.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::fit_ols(x, y));
  }
}
BENCHMARK(BM_OlsFit);

void BM_PosteriorMix(benchmark::State& state) {
  std::vector<schemes::Posterior> posts;
  stats::Rng rng(11);
  for (int n = 0; n < 5; ++n) {
    schemes::Posterior p;
    for (int i = 0; i < 300; ++i) {
      p.support.push_back({{rng.uniform(0.0, 50.0), rng.uniform(0.0, 20.0)},
                           rng.uniform(0.0, 1.0)});
    }
    p.normalize();
    posts.push_back(std::move(p));
  }
  const std::vector<double> w{0.3, 0.25, 0.2, 0.15, 0.1};
  for (auto _ : state) {
    geo::Vec2 fused{};
    for (std::size_t i = 0; i < posts.size(); ++i) {
      fused += posts[i].mean() * w[i];
    }
    benchmark::DoNotOptimize(fused);
  }
}
BENCHMARK(BM_PosteriorMix);

void BM_HorusMatch(benchmark::State& state) {
  const auto scan = sample_scan();
  schemes::HorusScheme horus(office().wifi_db.get(), {});
  sim::SensorFrame frame;
  frame.wifi = scan;
  schemes::SchemeOutput out;
  for (auto _ : state) {
    horus.update_into(frame, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_HorusMatch);

void BM_MapMatcherUpdate(benchmark::State& state) {
  core::MapMatcher matcher(office().place.get());
  double x = 5.0;
  for (auto _ : state) {
    x += 0.7;
    if (x > 50.0) x = 5.0;
    benchmark::DoNotOptimize(matcher.update({x, 2.0}));
  }
}
BENCHMARK(BM_MapMatcherUpdate);

void BM_PosteriorGridFusion(benchmark::State& state) {
  const geo::Grid grid(office().place->bounds(), 3.0);
  stats::Rng rng(13);
  std::vector<schemes::SchemeOutput> outs(5);
  for (auto& o : outs) {
    o.available = true;
    o.estimate = {rng.uniform(0.0, 50.0), rng.uniform(0.0, 20.0)};
    o.posterior = schemes::Posterior::gaussian(o.estimate, 4.0);
  }
  const std::vector<double> w{0.3, 0.25, 0.2, 0.15, 0.1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fuse_posteriors(grid, outs, w));
  }
}
BENCHMARK(BM_PosteriorGridFusion);

// --- full Uniloc::update_fast epoch, replaying recorded frames --------
//
// Three variants quantify the telemetry subsystem's overhead contract:
// never-attached (baseline), attach_metrics(nullptr) (the null-object
// detach path -- must stay within a couple percent of baseline), and
// attached to a live registry (clock reads + histogram inserts).

struct ReplayFixture {
  std::vector<sim::SensorFrame> frames;
  geo::Vec2 start_pos{};
  double start_heading{0.0};
};

const ReplayFixture& replay_frames() {
  static const ReplayFixture fx = [] {
    ReplayFixture r;
    sim::WalkConfig wc;
    wc.seed = 99;
    sim::Walker walker(office().place.get(), office().radio.get(), 0, wc);
    r.start_pos = walker.start_position();
    r.start_heading = walker.start_heading();
    while (!walker.done()) r.frames.push_back(walker.step(true));
    return r;
  }();
  return fx;
}

/// Replay `fx` through `uniloc` epoch after epoch, restarting the walk
/// (untimed) whenever the frames run out.
void replay_epochs(benchmark::State& state, core::Uniloc& uniloc,
                   const ReplayFixture& fx) {
  core::EpochScratch scratch;
  uniloc.reset({fx.start_pos, fx.start_heading});
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(&uniloc.update_fast(fx.frames[i], scratch));
    if (++i == fx.frames.size()) {
      i = 0;
      state.PauseTiming();
      uniloc.reset({fx.start_pos, fx.start_heading});
      state.ResumeTiming();
    }
  }
}

enum class Instr { kNone, kNullRegistry, kRegistry };

void run_uniloc_update(benchmark::State& state, Instr instr) {
  core::Uniloc uniloc = core::make_uniloc(office(), models());
  obs::MetricsRegistry registry;
  if (instr == Instr::kNullRegistry) uniloc.attach_metrics(nullptr);
  if (instr == Instr::kRegistry) uniloc.attach_metrics(&registry);
  replay_epochs(state, uniloc, replay_frames());
}

void BM_UnilocUpdate(benchmark::State& state) {
  run_uniloc_update(state, Instr::kNone);
}
BENCHMARK(BM_UnilocUpdate)->Unit(benchmark::kMicrosecond);

void BM_UnilocUpdateNullRegistry(benchmark::State& state) {
  run_uniloc_update(state, Instr::kNullRegistry);
}
BENCHMARK(BM_UnilocUpdateNullRegistry)->Unit(benchmark::kMicrosecond);

void BM_UnilocUpdateRegistry(benchmark::State& state) {
  run_uniloc_update(state, Instr::kRegistry);
}
BENCHMARK(BM_UnilocUpdateRegistry)->Unit(benchmark::kMicrosecond);

// --- span tracing overhead --------------------------------------------
//
// The tracing contract mirrors the metrics one: a detached tracer
// (attach_tracer(nullptr)) must cost exactly one untaken branch per
// instrumentation point -- BM_UnilocUpdateDetachedTracer must be
// indistinguishable from BM_UnilocUpdate -- and an attached tracer pays
// clock reads + id allocation + sink emission, bounded below 5% of the
// epoch (the NullSpanSink isolates tracer cost from I/O).

void BM_SpanBeginEnd(benchmark::State& state) {
  obs::NullSpanSink sink;
  obs::SpanTracer tracer(&sink);
  for (auto _ : state) {
    const obs::SpanHandle h = tracer.begin("bench.span", "core");
    tracer.end(h);
  }
}
BENCHMARK(BM_SpanBeginEnd);

void run_uniloc_update_traced(benchmark::State& state, bool attached) {
  core::Uniloc uniloc = core::make_uniloc(office(), models());
  obs::NullSpanSink sink;
  obs::SpanTracer tracer(&sink);
  uniloc.attach_tracer(attached ? &tracer : nullptr);
  replay_epochs(state, uniloc, replay_frames());
}

void BM_UnilocUpdateDetachedTracer(benchmark::State& state) {
  run_uniloc_update_traced(state, /*attached=*/false);
}
BENCHMARK(BM_UnilocUpdateDetachedTracer)->Unit(benchmark::kMicrosecond);

void BM_UnilocUpdateTracer(benchmark::State& state) {
  run_uniloc_update_traced(state, /*attached=*/true);
}
BENCHMARK(BM_UnilocUpdateTracer)->Unit(benchmark::kMicrosecond);

// --- the campus: the paper's primary venue and the fast path's regime ---
//
// Hundreds of fingerprints and eight long walkways make RSSI matching and
// the per-particle environment lookups the dominant epoch costs -- exactly
// what the likelihood cache, the shared epoch memo and the walkway-
// candidate index remove.

const core::Deployment& campus_deployment() {
  static core::Deployment d = core::make_deployment(
      sim::campus(42), core::DeploymentOptions{.seed = 42});
  return d;
}

const ReplayFixture& campus_frames() {
  static const ReplayFixture fx = [] {
    ReplayFixture r;
    sim::WalkConfig wc;
    wc.seed = 99;
    sim::Walker walker(campus_deployment().place.get(),
                       campus_deployment().radio.get(), 0, wc);
    r.start_pos = walker.start_position();
    r.start_heading = walker.start_heading();
    while (!walker.done()) r.frames.push_back(walker.step(true));
    return r;
  }();
  return fx;
}

void BM_UnilocUpdateCampus(benchmark::State& state) {
  core::Uniloc uniloc = core::make_uniloc(campus_deployment(), models());
  replay_epochs(state, uniloc, campus_frames());
}
BENCHMARK(BM_UnilocUpdateCampus)->Unit(benchmark::kMicrosecond);

void BM_WallCrossingQuery(benchmark::State& state) {
  static sim::Place campus = [] {
    sim::Place p = sim::campus(42);
    sim::deploy_walls(p, sim::hub_aware_wall_options(p));
    return p;
  }();
  stats::Rng rng(17);
  for (auto _ : state) {
    const geo::Vec2 a{rng.uniform(0.0, 100.0), rng.uniform(0.0, 60.0)};
    benchmark::DoNotOptimize(
        campus.crosses_wall(a, a + geo::Vec2{0.7, 0.1}));
  }
}
BENCHMARK(BM_WallCrossingQuery);

}  // namespace

BENCHMARK_MAIN();
