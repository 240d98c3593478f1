// Differential harness: the served pipeline vs the reference oracle,
// bit for bit.
//
// The production epoch pipeline (Uniloc::update_fast + scheme
// update_into + the fingerprint likelihood cache + the per-epoch shared
// candidate memo + the SoA particle filter) claims to compute exactly
// what the textbook composition of its stages computes: same RNG stream,
// same floating-point summation orders, same decisions. The textbook
// composition lives test-side in tests/reference_pipeline.h (allocating
// containers, no shared epoch memo, every evaluation recomputed). These
// tests hold the served pipeline to it with tolerance-free comparisons
// -- EXPECT_EQ on doubles, never EXPECT_NEAR:
//
//   * every one of the eight campus paths, fault-free, core level;
//   * a 32-seed sweep on the office venue;
//   * the served stream: every epoch a workers=0 server ran, fault-free
//     and under seeded chaos (drops, corruption, a blackout), replayed
//     per session through the oracle;
//   * workers=4 servers and sharded fleets against that workers=0
//     stream.
//
// If an optimization ever reorders an FP sum or consumes one extra RNG
// draw, the first diverging epoch is reported here, not as a mysterious
// accuracy regression three benches later.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/epoch_scratch.h"
#include "core/runner.h"
#include "core/trainer.h"
#include "fault/crash.h"
#include "fault/link.h"
#include "fault/plan.h"
#include "reference_pipeline.h"
#include "shard/router.h"
#include "sim/builders.h"
#include "sim/walker.h"
#include "svc/epoch_codec.h"
#include "svc/loadgen.h"
#include "svc/server.h"
#include "svc/wire.h"
#include "testing_util.h"

namespace uniloc {
namespace {

const core::TrainedModels& test_models() { return testing_util::standard_models(100); }

const core::Deployment& campus_deployment() {
  static const core::Deployment d = core::make_deployment(
      sim::campus(42), core::DeploymentOptions{.seed = 42});
  return d;
}

const core::Deployment& office_deployment() {
  return testing_util::office_deployment();
}

/// Bitwise double equality, treating NaN == NaN.
bool same(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

void expect_same(double a, double b, const std::string& what) {
  EXPECT_TRUE(same(a, b)) << what << ": " << a << " vs " << b;
}

/// Every consumer-visible field of two decisions, tolerance-free. Scheme
/// payloads are compared only where the scheme is available: consumers
/// gate on `available` (DESIGN.md section 11). Reports the first
/// differing field and returns false.
bool expect_same_decision(const core::EpochDecision& want,
                          const core::EpochDecision& got,
                          const std::string& at) {
  const auto fail = [&at](const std::string& what) {
    ADD_FAILURE() << at << ": " << what << " differs";
    return false;
  };
  if (want.indoor != got.indoor) return fail("indoor");
  if (want.selected != got.selected) return fail("selected");
  if (want.gps_enable_next != got.gps_enable_next) return fail("gps");
  if (!same(want.tau, got.tau)) return fail("tau");
  if (!same(want.uniloc1.x, got.uniloc1.x) ||
      !same(want.uniloc1.y, got.uniloc1.y)) {
    return fail("uniloc1");
  }
  if (!same(want.uniloc2.x, got.uniloc2.x) ||
      !same(want.uniloc2.y, got.uniloc2.y)) {
    return fail("uniloc2");
  }
  if (want.outputs.size() != got.outputs.size()) return fail("scheme count");
  for (std::size_t i = 0; i < want.outputs.size(); ++i) {
    const std::string si = "scheme " + std::to_string(i) + " ";
    const schemes::SchemeOutput& w = want.outputs[i];
    const schemes::SchemeOutput& g = got.outputs[i];
    if (w.available != g.available) return fail(si + "available");
    if (!same(want.confidence[i], got.confidence[i])) {
      return fail(si + "confidence");
    }
    if (!same(want.weight[i], got.weight[i])) return fail(si + "weight");
    if (!w.available) continue;
    if (!same(w.estimate.x, g.estimate.x) ||
        !same(w.estimate.y, g.estimate.y)) {
      return fail(si + "estimate");
    }
    if (w.posterior.support.size() != g.posterior.support.size()) {
      return fail(si + "posterior size");
    }
    for (std::size_t k = 0; k < w.posterior.support.size(); ++k) {
      const schemes::WeightedPoint& a = w.posterior.support[k];
      const schemes::WeightedPoint& b = g.posterior.support[k];
      if (!same(a.pos.x, b.pos.x) || !same(a.pos.y, b.pos.y) ||
          !same(a.weight, b.weight)) {
        return fail(si + "posterior point " + std::to_string(k));
      }
    }
    if (!same(want.predicted_error[i].mean, got.predicted_error[i].mean) ||
        !same(want.predicted_error[i].sd, got.predicted_error[i].sd)) {
      return fail(si + "predicted error");
    }
  }
  return true;
}

/// One walk driven through update_fast and the oracle in lockstep, both
/// built as core::make_uniloc's default ensemble (seed 7).
void run_differential_walk(const core::Deployment& d, std::size_t walkway,
                           std::uint64_t walk_seed,
                           const std::string& label) {
  sim::WalkConfig wc;
  wc.seed = walk_seed;
  sim::Walker walker(d.place.get(), d.radio.get(), walkway, wc);
  const schemes::StartCondition start{walker.start_position(),
                                      walker.start_heading()};
  core::Uniloc served = core::make_uniloc(d, test_models());
  testing_util::ReferencePipeline oracle(d, test_models(), /*seed=*/7);
  ASSERT_EQ(served.scheme_names(), oracle.scheme_names()) << label;
  served.reset(start);
  oracle.reset(start);
  core::EpochScratch scratch;
  std::size_t epoch = 0;
  while (!walker.done()) {
    ASSERT_EQ(served.gps_enabled(), oracle.gps_enabled()) << label;
    const sim::SensorFrame frame = walker.step(served.gps_enabled());
    const core::EpochDecision want = oracle.update(frame);
    const core::EpochDecision& got = served.update_fast(frame, scratch);
    if (!expect_same_decision(want, got,
                              label + " epoch " + std::to_string(epoch))) {
      return;
    }
    ++epoch;
  }
  EXPECT_GT(epoch, 0u) << label;
}

TEST(DifferentialCore, AllEightCampusPathsBitIdentical) {
  const core::Deployment& d = campus_deployment();
  ASSERT_EQ(d.place->walkways().size(), 8u)
      << "campus venue is expected to carry the paper's eight daily paths";
  for (std::size_t w = 0; w < d.place->walkways().size(); ++w) {
    run_differential_walk(d, w, /*walk_seed=*/1000 + w,
                          "campus path " + std::to_string(w));
  }
}

TEST(DifferentialCore, SeedSweepBitIdentical) {
  const core::Deployment& d = office_deployment();
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    run_differential_walk(d, seed % d.place->walkways().size(), 7'000 + seed,
                          "office seed " + std::to_string(seed));
  }
}

// ---------------------------------------------------------------- service

/// Every suite factory derives the session's ensemble seed the same way;
/// the oracle replays a session with the seed its factory used.
constexpr std::uint64_t kSeedBase = 7;

svc::UnilocFactory factory_for(const core::Deployment& d) {
  return [&d](std::uint64_t sid) {
    return std::make_unique<core::Uniloc>(core::make_uniloc(
        d, test_models(), {}, false, /*seed=*/kSeedBase + sid));
  };
}

/// A workers=0 server that records what it served, in server order: each
/// session (re)opened by an accepted kHello, and each kEpoch frame the
/// server ran -- the frames its on_epoch hook fired for -- parsed back
/// into the sensor frame the session's ensemble consumed, next to the
/// decision it served. Rejected frames (corrupt, unknown session) leave
/// no event; a duplicated frame the server ran twice leaves two.
class RecordingServer final : public svc::Endpoint {
 public:
  struct Event {
    std::uint64_t session_id{0};
    std::optional<svc::HelloPayload> hello;  ///< Set: session (re)opened.
    sim::SensorFrame frame;
    core::EpochDecision decision;
  };

  explicit RecordingServer(const core::Deployment& d) {
    svc::ServerConfig cfg;
    cfg.workers = 0;
    cfg.on_epoch = [this](std::uint64_t, const core::EpochDecision& dec) {
      served_.push_back(dec);
    };
    server_ = std::make_unique<svc::LocalizationServer>(cfg, factory_for(d),
                                                        nullptr);
  }

  std::future<std::vector<std::uint8_t>> submit(
      std::vector<std::uint8_t> request) override {
    const svc::DecodeResult req = svc::decode_frame(request);
    const std::size_t served_before = served_.size();
    std::vector<std::uint8_t> reply = server_->submit(std::move(request)).get();
    if (req.frame.has_value()) {
      const svc::Frame& f = *req.frame;
      const svc::DecodeResult rep = svc::decode_frame(reply);
      const bool ok = rep.frame.has_value() &&
                      rep.frame->type == svc::FrameType::kReply;
      if (f.type == svc::FrameType::kHello && ok) {
        events_.push_back({f.session_id, svc::parse_hello(f.payload), {}, {}});
      } else if (f.type == svc::FrameType::kEpoch &&
                 served_.size() == served_before + 1) {
        events_.push_back({f.session_id, std::nullopt,
                           svc::parse_epoch(f.payload)->frame,
                           served_.back()});
      }
    }
    std::promise<std::vector<std::uint8_t>> done;
    done.set_value(std::move(reply));
    return done.get_future();
  }

  const std::vector<Event>& events() const { return events_; }

 private:
  std::vector<core::EpochDecision> served_;
  std::vector<Event> events_;
  std::unique_ptr<svc::LocalizationServer> server_;
};

/// Replay each recorded session through a fresh oracle built with that
/// session's factory seed: every served decision must come back bit for
/// bit.
void expect_served_stream_matches_oracle(const RecordingServer& rec,
                                         const core::Deployment& d,
                                         const std::string& label) {
  std::map<std::uint64_t, std::unique_ptr<testing_util::ReferencePipeline>>
      oracle;
  std::size_t epochs = 0;
  for (const RecordingServer::Event& ev : rec.events()) {
    const std::string at = label + " session " +
                           std::to_string(ev.session_id) + " served epoch " +
                           std::to_string(epochs);
    if (ev.hello.has_value()) {
      auto p = std::make_unique<testing_util::ReferencePipeline>(
          d, test_models(), kSeedBase + ev.session_id);
      p->reset({ev.hello->start, ev.hello->heading});
      oracle[ev.session_id] = std::move(p);
      continue;
    }
    const auto it = oracle.find(ev.session_id);
    ASSERT_NE(it, oracle.end()) << at << ": epoch before any hello";
    if (!expect_same_decision(it->second->update(ev.frame), ev.decision, at)) {
      return;
    }
    ++epochs;
  }
  EXPECT_GT(epochs, 0u) << label;
}

svc::LoadGenConfig load_cfg_for(const fault::FaultPlan* plan,
                                std::uint64_t seed) {
  svc::LoadGenConfig lg;
  lg.walkers = 8;  // round-robin: one per campus path
  lg.max_epochs_per_walker = 24;
  lg.seed = seed;
  lg.resilience.retry.max_retries = 1;
  lg.resilience.probe_period = 2;
  lg.resilience.record_timeline = true;
  if (plan != nullptr) {
    // The chaos schedule is a pure function of (seed, session, send
    // index), so it hits the same frames whether `s` is one server or a
    // whole fleet behind a router.
    lg.make_link = [plan](svc::Endpoint& s, std::uint64_t sid) {
      return std::make_unique<fault::FaultyLink>(
          std::make_unique<svc::DirectLink>(&s), plan, sid);
    };
  }
  return lg;
}

svc::LoadReport run_load_scenario(const core::Deployment& d,
                                  const fault::FaultPlan* plan, int workers,
                                  std::uint64_t seed) {
  svc::ServerConfig cfg;
  cfg.workers = workers;
  svc::LocalizationServer server(cfg, factory_for(d), nullptr);
  return run_load(server, d, load_cfg_for(plan, seed), nullptr);
}

/// The workers=0 run of a scenario, with its served stream checked
/// against the oracle.
svc::LoadReport run_oracle_checked(const core::Deployment& d,
                                   const svc::LoadGenConfig& lg,
                                   const std::string& label) {
  RecordingServer rec(d);
  svc::LoadReport report = run_load(rec, d, lg, nullptr);
  expect_served_stream_matches_oracle(rec, d, label);
  return report;
}

/// Same walkers, same link chaos, but the endpoint is a ShardRouter over
/// `shards` deterministic (workers=0) servers. `wrench` optionally throws
/// fleet-side chaos (migrations, shard crashes) between rounds.
svc::LoadReport run_fleet_scenario(
    const core::Deployment& d, const fault::FaultPlan* plan,
    std::size_t shards, std::uint64_t seed,
    const std::function<void(shard::ShardRouter&, std::size_t)>& wrench = {}) {
  shard::RouterConfig cfg;
  cfg.shards = shards;
  cfg.server.workers = 0;
  shard::ShardRouter router(cfg, factory_for(d), nullptr);
  svc::LoadGenConfig lg = load_cfg_for(plan, seed);
  if (wrench) {
    lg.on_round = [&](std::size_t round) { wrench(router, round); };
  }
  return run_load(router, d, lg, nullptr);
}

void expect_identical_reports(const svc::LoadReport& want,
                              const svc::LoadReport& got,
                              const std::string& label) {
  ASSERT_EQ(want.walkers.size(), got.walkers.size()) << label;
  EXPECT_EQ(want.total_epochs, got.total_epochs) << label;
  for (std::size_t w = 0; w < want.walkers.size(); ++w) {
    const svc::WalkerOutcome& r = want.walkers[w];
    const svc::WalkerOutcome& f = got.walkers[w];
    const std::string at = label + " walker " + std::to_string(w);
    EXPECT_EQ(r.session_id, f.session_id) << at;
    EXPECT_EQ(r.walkway, f.walkway) << at;
    EXPECT_EQ(r.epochs_accepted, f.epochs_accepted) << at;
    EXPECT_EQ(r.local_epochs, f.local_epochs) << at;
    EXPECT_EQ(r.rehellos, f.rehellos) << at;
    ASSERT_EQ(r.timeline.size(), f.timeline.size()) << at;
    for (std::size_t e = 0; e < r.timeline.size(); ++e) {
      const svc::EpochEvent& re = r.timeline[e];
      const svc::EpochEvent& fe = f.timeline[e];
      const std::string ep = at + " epoch " + std::to_string(e);
      EXPECT_EQ(re.epoch, fe.epoch) << ep;
      EXPECT_EQ(re.source, fe.source) << ep;
      EXPECT_EQ(re.attempts, fe.attempts) << ep;
      EXPECT_EQ(re.degraded_after, fe.degraded_after) << ep;
      EXPECT_EQ(re.rehello, fe.rehello) << ep;
      expect_same(re.estimate.x, fe.estimate.x, ep + " x");
      expect_same(re.estimate.y, fe.estimate.y, ep + " y");
      expect_same(re.error_m, fe.error_m, ep + " err");
    }
  }
}

/// The golden chaos plan (tests/golden/trace_chaos.jsonl): drops,
/// corruption, link delay and a blackout that forces fallback entry and
/// exit.
fault::FaultPlan golden_chaos_plan() {
  fault::FaultRates rates;
  rates.drop = 0.10;
  rates.corrupt = 0.05;
  rates.base_delay_us = 20'000;
  fault::FaultPlan plan(5, rates);
  plan.add_blackout(6, 9);
  return plan;
}

TEST(DifferentialSvc, FaultFreeCampusServiceBitIdentical) {
  const core::Deployment& d = campus_deployment();
  run_oracle_checked(d, load_cfg_for(nullptr, 2024), "clean");
}

TEST(DifferentialSvc, ChaosCampusServiceBitIdenticalAtWorkers0And4) {
  const core::Deployment& d = campus_deployment();
  const fault::FaultPlan plan = golden_chaos_plan();
  const svc::LoadReport served0 =
      run_oracle_checked(d, load_cfg_for(&plan, 2024), "chaos workers=0");
  const svc::LoadReport served4 =
      run_load_scenario(d, &plan, /*workers=*/4, 2024);
  expect_identical_reports(served0, served4, "chaos workers=4");
}

TEST(DifferentialSvc, ChaosSeedSweepBitIdentical) {
  // Smaller venue, more seeds: the fault schedule, retry timing, and
  // fallback transitions all re-randomize per seed.
  const core::Deployment& d = office_deployment();
  fault::FaultRates rates;
  rates.drop = 0.15;
  rates.corrupt = 0.05;
  fault::FaultPlan plan(11, rates);
  for (std::uint64_t seed = 100; seed < 132; ++seed) {
    const std::string label = "seed " + std::to_string(seed);
    const svc::LoadReport served0 =
        run_oracle_checked(d, load_cfg_for(&plan, seed), label);
    const svc::LoadReport served4 =
        run_load_scenario(d, &plan, /*workers=*/4, seed);
    expect_identical_reports(served0, served4, label + " workers=4");
  }
}

TEST(DifferentialSvc, GoldenSeedSweepServedStreamMatchesOracle) {
  // The golden fixtures pin two scenarios deeply; this sweep covers many
  // shallowly: the golden office deployment and loadgen shape, 32 seeds,
  // fault-free and under the golden chaos plan.
  const core::Deployment& d = office_deployment();
  const fault::FaultPlan chaos = golden_chaos_plan();
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    for (const fault::FaultPlan* plan :
         std::initializer_list<const fault::FaultPlan*>{nullptr, &chaos}) {
      svc::LoadGenConfig lg = load_cfg_for(plan, seed);
      lg.walkers = 2;
      lg.max_epochs_per_walker = 8;
      run_oracle_checked(d, lg,
                         "seed " + std::to_string(seed) +
                             (plan != nullptr ? " chaos" : " clean"));
    }
  }
}

// ------------------------------------------------------------------ fleet
//
// The sharded fleet (src/shard) claims wire transparency: a ShardRouter
// over N workers=0 servers serves the exact epoch stream of one server,
// through live migrations and whole-shard crashes. Held to bit-for-bit
// here, against the workers=0 single-server stream.

TEST(DifferentialShard, FaultFreeFleetWithMigrationChurnBitIdentical) {
  const core::Deployment& d = campus_deployment();
  const svc::LoadReport ref =
      run_load_scenario(d, nullptr, /*workers=*/0, 2024);
  // Every session hops one shard over every round: ~23 migrations per
  // walker over the run, none of them visible in a single reply bit.
  const svc::LoadReport fleet = run_fleet_scenario(
      d, nullptr, /*shards=*/3, 2024,
      [](shard::ShardRouter& r, std::size_t) {
        for (std::uint64_t sid = 1; sid <= 8; ++sid) {
          r.migrate(sid, (r.shard_of(sid) + 1) % r.shard_count());
        }
      });
  expect_identical_reports(ref, fleet, "fleet churn");
}

TEST(DifferentialShard, ChaosSeedSweepFleetBitIdentical) {
  // The acceptance sweep: 32 seeds, link chaos on, a migration rotation
  // every round -- fleet vs single server, tolerance-free.
  const core::Deployment& d = office_deployment();
  fault::FaultRates rates;
  rates.drop = 0.15;
  rates.corrupt = 0.05;
  fault::FaultPlan plan(11, rates);
  for (std::uint64_t seed = 100; seed < 132; ++seed) {
    const svc::LoadReport ref =
        run_load_scenario(d, &plan, /*workers=*/0, seed);
    const svc::LoadReport fleet = run_fleet_scenario(
        d, &plan, /*shards=*/3, seed,
        [](shard::ShardRouter& r, std::size_t round) {
          // Rotate a different third of the fleet each round.
          for (std::uint64_t sid = 1 + round % 3; sid <= 8; sid += 3) {
            r.migrate(sid, (r.shard_of(sid) + 1) % r.shard_count());
          }
        });
    expect_identical_reports(ref, fleet, "fleet seed " + std::to_string(seed));
  }
}

TEST(DifferentialShard, ShardCrashRecoveryBitIdenticalUnderLinkChaos) {
  // Shard crashes and link chaos together: checkpoints every round, two
  // scripted whole-shard losses, every session resurrected from its
  // checkpoint on a survivor -- and the client-visible stream still
  // matches a run where neither the fleet nor the faults existed... the
  // faults do exist client-side, so the reference runs the same link
  // plan against one server.
  const core::Deployment& d = campus_deployment();
  fault::FaultRates rates;
  rates.drop = 0.10;
  rates.corrupt = 0.05;
  fault::FaultPlan link_plan(5, rates);

  const svc::LoadReport ref =
      run_load_scenario(d, &link_plan, /*workers=*/0, 3030);

  fault::FaultPlan crash_plan(0, {});
  crash_plan.script_crash(5);
  crash_plan.script_crash(13);
  shard::RouterConfig cfg;
  cfg.shards = 4;
  cfg.server.workers = 0;
  shard::ShardRouter router(cfg, factory_for(d), nullptr);
  fault::ShardCrashInjector injector(&router, &crash_plan, /*revive=*/true);
  svc::LoadGenConfig lg = load_cfg_for(&link_plan, 3030);
  lg.on_round = [&](std::size_t round) { injector.on_round(round); };
  const svc::LoadReport fleet = run_load(router, d, lg, nullptr);

  EXPECT_EQ(injector.crashes(), 2u);
  expect_identical_reports(ref, fleet, "crash chaos fleet");
}

}  // namespace
}  // namespace uniloc
