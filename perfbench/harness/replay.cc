// replay_core: closed-loop, single-threaded replay of the recorded campus
// walks through core::Uniloc::update_fast -- the epoch pipeline every fix
// pays, with no svc layer in front of it. One ensemble and one
// EpochScratch per walk; the 32 ensembles stay hot in cache.
#include <algorithm>
#include <memory>

#include "common.h"
#include "core/epoch_scratch.h"
#include "core/runner.h"

namespace perfbench {

namespace {

struct Ensemble {
  std::unique_ptr<core::Uniloc> uniloc;
  core::EpochScratch scratch;
  /// Reference outputs from the set-up pass: every timed replay of the
  /// walk must reproduce them bit for bit.
  std::vector<geo::Vec2> fix;
  std::vector<bool> gps_next;
};

struct Session {
  std::vector<Ensemble> ensembles;
  double fix_error_mean_m{0.0};
  double gps_on_share{0.0};
};

/// Build one ensemble per walk and run the untimed reference pass, which
/// also grows every scratch buffer to steady capacity.
Session start_sessions(const World& world, SpeedProbe& probe) {
  Session s;
  s.ensembles.resize(world.walks.size());
  double err_sum = 0.0;
  std::size_t fixes = 0, gps_on = 0;
  for (std::size_t w = 0; w < world.walks.size(); ++w) {
    const Walk& walk = world.walks[w];
    Ensemble& e = s.ensembles[w];
    e.uniloc = std::make_unique<core::Uniloc>(core::make_uniloc(
        world.deployment, world.models, {}, false, ensemble_seed(w)));
    e.uniloc->reset({walk.start_pos, walk.start_heading});
    for (const sim::SensorFrame& frame : walk.frames) {
      const core::EpochDecision& d = e.uniloc->update_fast(frame, e.scratch);
      e.fix.push_back(d.uniloc2);
      e.gps_next.push_back(d.gps_enable_next);
      err_sum += geo::distance(d.uniloc2, frame.truth_pos);
      gps_on += d.gps_enable_next ? 1 : 0;
      ++fixes;
    }
    for (int b = 0; b < kProbeBurstsPerPoint; ++b) probe.burst();
  }
  s.fix_error_mean_m = err_sum / static_cast<double>(fixes);
  s.gps_on_share = static_cast<double>(gps_on) / static_cast<double>(fixes);
  return s;
}

/// One measurement window: one full round over every walk, so every
/// window does exactly the same work. Raw figures, plus the machine's
/// slowdown over the round.
struct Window {
  double rate{0.0};
  double cpu_per_fix{0.0};
  double p50{0.0}, p90{0.0}, p99{0.0};
  double slowdown{1.0};
};

struct Timed {
  std::vector<Window> windows;
  std::vector<double> first_fix_us;  ///< At reference speed.
  std::vector<double> first_fix_raw_us;
  std::uint64_t fixes{0};
  std::uint64_t mismatches{0};
};

/// Replay every walk from its start, round after round, for `seconds`.
Timed replay(Session& s, const World& world, double seconds) {
  Timed t;
  SpeedProbe probe;
  std::vector<double> lat, first;
  lat.reserve(16384);
  const double end = wall_us() + seconds * 1e6;
  for (;;) {
    const double t0 = wall_us();
    const double cpu0 = thread_cpu_us();
    const std::uint64_t bursts0 = probe.bursts();
    const double busy0 = probe.busy_us();
    double probe_cpu = 0.0, probe_wall = 0.0;
    lat.clear();
    first.clear();
    for (std::size_t w = 0; w < world.walks.size(); ++w) {
      const Walk& walk = world.walks[w];
      Ensemble& e = s.ensembles[w];
      const double open = wall_us();
      e.uniloc->reset({walk.start_pos, walk.start_heading});
      for (std::size_t f = 0; f < walk.frames.size(); ++f) {
        const double f0 = wall_us();
        const core::EpochDecision& d =
            e.uniloc->update_fast(walk.frames[f], e.scratch);
        const double f1 = wall_us();
        lat.push_back(f1 - f0);
        if (f == 0) first.push_back(f1 - open);
        ++t.fixes;
        if (d.uniloc2.x != e.fix[f].x || d.uniloc2.y != e.fix[f].y ||
            d.gps_enable_next != e.gps_next[f]) {
          ++t.mismatches;
        }
      }
      const double c0 = thread_cpu_us();
      const double w0 = wall_us();
      for (int b = 0; b < kProbeBurstsPerPoint; ++b) probe.burst();
      probe_wall += wall_us() - w0;
      probe_cpu += thread_cpu_us() - c0;
    }
    const double n = static_cast<double>(lat.size());
    Window win;
    win.slowdown = slowdown(bursts0, busy0, probe.bursts(), probe.busy_us());
    win.rate = n / ((wall_us() - t0 - probe_wall) / 1e6);
    win.cpu_per_fix = (thread_cpu_us() - cpu0 - probe_cpu) / n;
    win.p50 = quantile(lat, 0.50).value;
    win.p90 = quantile(lat, 0.90).value;
    win.p99 = quantile(lat, 0.99).value;
    t.windows.push_back(win);
    for (double us : first) {
      t.first_fix_raw_us.push_back(us);
      t.first_fix_us.push_back(at_reference(us, win.slowdown));
    }
    if (wall_us() >= end) return t;
  }
}

/// Timings at reference speed (metrics) and as measured (counts "raw.*").
void report(const Timed& t, Result& res) {
  std::vector<double> rate, cpu, p50, p90, p99, slow;
  std::vector<double> raw_rate, raw_cpu, raw_p50;
  for (const Window& w : t.windows) {
    rate.push_back(w.rate * std::pow(w.slowdown, SpeedProbe::kExponent));
    cpu.push_back(at_reference(w.cpu_per_fix, w.slowdown));
    p50.push_back(at_reference(w.p50, w.slowdown));
    p90.push_back(at_reference(w.p90, w.slowdown));
    p99.push_back(at_reference(w.p99, w.slowdown));
    slow.push_back(w.slowdown);
    raw_rate.push_back(w.rate);
    raw_cpu.push_back(w.cpu_per_fix);
    raw_p50.push_back(w.p50);
  }
  res.set("fixes_per_s", "fixes/s", quantile(rate, 0.5));
  res.set("cpu_us_per_fix", "us", quantile(cpu, 0.5));
  res.set("fix_latency_p50_us", "us", quantile(p50, 0.5));
  res.set("fix_latency_p90_us", "us", quantile(p90, 0.5));
  res.set("fix_latency_p99_us", "us", quantile(p99, 0.5));
  res.set("first_fix_latency_p50_us", "us", quantile(t.first_fix_us, 0.5));
  res.counts["windows"] = static_cast<double>(t.windows.size());
  res.counts["machine.slowdown"] = quantile(slow, 0.5).value;
  res.counts["raw.fixes_per_s"] = quantile(raw_rate, 0.5).value;
  res.counts["raw.cpu_us_per_fix"] = quantile(raw_cpu, 0.5).value;
  res.counts["raw.fix_latency_p50_us"] = quantile(raw_p50, 0.5).value;
  res.counts["raw.first_fix_latency_p50_us"] =
      quantile(t.first_fix_raw_us, 0.5).value;
}

}  // namespace

Result run_replay_core(const Args& args) {
  Result res;
  res.workload = "replay_core";
  res.seed = args.seed;
  res.trace = args.trace;

  // Set-up, repeated: setup_s is the median of the repetitions. The last
  // repetition's world and sessions are the ones measured.
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  std::unique_ptr<Session> session;
  double sessions_s = 0.0;
  for (int r = 0; r < args.setup_repeats; ++r) {
    session.reset();
    world.reset();
    SpeedProbe probe;
    const double t0 = wall_us();
    world = std::make_unique<World>(build_world(args.seed, probe));
    const double t1 = wall_us();
    session = std::make_unique<Session>(start_sessions(*world, probe));
    const double t2 = wall_us();
    // The probe's own bursts are not set-up work.
    const double probe_s = probe.busy_us() / 1e6;
    sessions_s = (t2 - t1) / 1e6;
    setup_s.push_back(at_reference(
        (t2 - t0) / 1e6 - probe_s, slowdown(0, 0.0, probe.bursts(),
                                            probe.busy_us())));
  }

  std::size_t frames = 0;
  double wire = 0.0;
  for (const Walk& walk : world->walks) {
    frames += walk.frames.size();
    for (std::size_t b : walk.wire_bytes) wire += static_cast<double>(b);
  }
  res.counts["frames_per_round"] = static_cast<double>(frames);

  const Timed t = replay(*session, *world, args.seconds);
  res.attempted = t.fixes;
  res.failed = t.mismatches;
  res.counts["epoch.sent"] = static_cast<double>(t.fixes);
  res.counts["epoch.served"] = static_cast<double>(t.fixes - t.mismatches);
  res.counts["epoch.failed"] = static_cast<double>(t.mismatches);
  res.check("replay_matches_reference_pass", t.mismatches == 0);

  if (!args.trace) {
    report(t, res);
    res.set("setup_s", "s", quantile(setup_s, 0.5));
    res.set("fix_served_share", "share",
            static_cast<double>(t.fixes - t.mismatches) /
                static_cast<double>(t.fixes));
    res.set("fix_error_mean_m", "m", session->fix_error_mean_m);
    res.set("uplink_bytes_per_fix", "B", wire / static_cast<double>(frames));
    res.set("rss_peak_mib", "MiB", peak_rss_mib());
  } else {
    res.set("setup.train_s", "s", world->train_s);
    res.set("setup.deploy_s", "s", world->deploy_s);
    res.set("setup.record_s", "s", world->record_s);
    res.set("setup.sessions_s", "s", sessions_s);
    res.set("offload.reduce_us", "us", mean(world->reduce_us));
    res.set("core.gps_on_share", "share", session->gps_on_share);
    // The traced counterpart of the replay is the outside-in stage
    // replica; its overhead over update_fast is trace.overhead_share.
    probe_stages(*world, std::min(args.seconds, kStageProbeS), res);
    probe_parse(*world, res);
    // The svc and open-loop layers are not exercised by this workload.
    set_unexercised(res, {{"svc.session_kib", "KiB"},
                          {"svc.submit_epoch_us", "us"},
                          {"svc.submit_hello_us", "us"},
                          {"svc.submit_bye_us", "us"},
                          {"svc.backpressure_share", "share"},
                          {"svc.wave_us", "us"},
                          {"svc.wave_max_us", "us"},
                          {"svc.wave_bytes_per_session", "B"},
                          {"svc.wave_sync_fallbacks", "count"},
                          {"loadgen.late_p99_us", "us"},
                          {"loadgen.observe_delay_us", "us"},
                          {"loadgen.cpu_share", "share"}});
  }
  return res;
}

}  // namespace perfbench
