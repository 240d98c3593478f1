// serve_churn: open-loop traffic of short sessions, with periodic
// checkpoint waves, against svc::LocalizationServer, deployed the way
// uniloc_cli serve-sim runs it (nproc - 1 workers, MetricsRegistry +
// SloMonitor attached, span tracer and flight recorder off, fast path on,
// no simulated network sleeps).
//
// All traffic is generated during set-up from the recorded walks and the
// seed; the timed window only replays it. One generator thread sends
// every request at its due time, polls the returned futures out of order
// and times each reply from its due time, so a stall in the program also
// charges the requests queued behind it. Only the delay the generator
// itself adds (its own lag: a descheduled vCPU, its bookkeeping) is taken
// out. The generator's core is reserved for it (it busy-polls), which is
// why the server gets nproc - 1 workers.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common.h"
#include "core/runner.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "offload/payload.h"
#include "stats/rng.h"
#include "svc/committer.h"
#include "svc/epoch_codec.h"
#include "svc/server.h"
#include "svc/wire.h"

namespace perfbench {

namespace {

// --- workload shape --------------------------------------------------

/// serve_churn: offered fixes per second per worker, in sessions of
/// kChurnEpochs epochs spaced kChurnPeriodS apart (hello, the first epoch
/// right after its ack, ..., bye after the last reply).
constexpr double kChurnRatePerWorker = 2048.0 / 3.0;
constexpr std::size_t kChurnEpochs = 10;
constexpr double kChurnPeriodS = 0.08;
/// Traffic that starts before the measured window, so live sessions reach
/// their steady count -- and the chain its first keyframe and delta --
/// before anything is counted.
constexpr double kChurnPrerollS = 2.0;
/// checkpoint_wave_now() cadence: a wave takes 25-40 ms on the ingress
/// thread, so a 1 s cadence delays ~3% of fixes -- p99 lands inside the
/// stall, p90 stays clear of it. A wave's duration varies by +-25% from
/// one wave to the next, so the churn percentiles pool every wave of the
/// window (see per_window) instead of taking one window's.
constexpr double kWaveCadenceS = 1.0;
/// One wave per measurement window.
constexpr double kChurnWindowS = kWaveCadenceS;

/// The generator is invalid (not the program slow) when its own lag --
/// send time minus the later of due time and the end of its previous
/// call into the program -- exceeds this at the 90th percentile: a
/// generator that cannot keep up lags on most sends, while a descheduled
/// vCPU only delays a few.
constexpr double kMaxOwnLagP90Us = 1000.0;

/// A measurement window counts as quiet when the hypervisor stole at most
/// this share of the vCPUs' time in it (/proc/stat; 10 ms resolution).
constexpr double kMaxStealShare = 0.01;
/// In a stretch of heavy steal most windows are not quiet, and the few
/// that are cannot carry the latency tail. The pass is then repeated --
/// the same traffic again -- until half a pass's worth of windows were
/// quiet, for at most kMaxPasses passes and while a new pass can start
/// within kPassBudgetS of the first (a run must end within 180 s).
constexpr std::size_t kMaxPasses = 4;
constexpr double kPassBudgetS = 100.0;

/// The wait for the ingress thread (hellos, waves) slows by the ingress
/// CPU's slowdown to this power. A per-window log-log fit over 56 quiet
/// windows of three runs, controlling for the server CPUs' slowdown, gave
/// 1.17 for p99 and 1.32 for the p99 of the ingress wait alone; the
/// workers' part follows SpeedProbe::kExponent (0.82 for p50).
constexpr double kIngressExponent = 1.25;

/// The generator times a speed-probe burst only when the next send is due
/// at least this far ahead.
constexpr double kGeneratorProbeSlackUs = 5.0 * SpeedProbe::kReferenceBurstUs;

/// Output check: fixes must lie within the venue's bounds grown by this.
constexpr double kBoundsMarginM = 1.0;

/// Sessions per run whose served fixes are recomputed directly through
/// core::Uniloc and compared bit for bit.
constexpr std::size_t kVerifiedSessions = 8;

// --- schedule ----------------------------------------------------------

enum class Kind : std::uint8_t { kHello, kEpoch, kWave };

struct Event {
  double due_us{0.0};  ///< Relative to the window start (pre-roll < 0).
  Kind kind{Kind::kEpoch};
  std::uint32_t session{0};  ///< Index into Plan::sessions.
  std::uint32_t epoch{0};    ///< Epoch index within the session.
};

struct PlannedSession {
  std::uint64_t id{0};
  std::size_t walk{0};
  std::size_t join{0};     ///< First frame this session sends.
  std::size_t epochs{0};
  double hello_due_us{0.0};
  std::size_t replies{0};  ///< Seen so far (runtime state).
};

struct Plan {
  double seconds{0.0};   ///< Counted traffic is due in [0, seconds).
  double window_s{0.0};
  std::vector<PlannedSession> sessions;
  std::vector<Event> events;  ///< Sorted by due time.
};

std::size_t frame_of(const World& w, const PlannedSession& s,
                     std::size_t epoch) {
  return (s.join + epoch) % w.walks[s.walk].frames.size();
}

/// Pick a join frame so `need` frames fit before the walk ends.
std::size_t pick_join(const Walk& walk, std::size_t need, stats::Rng& rng) {
  const std::size_t len = walk.frames.size();
  if (len <= need) return 0;  // wraps around; not reached at the shipped rates
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(len - need)));
}

Plan plan_churn(const World& w, const Args& args, double rate) {
  Plan p;
  p.seconds = args.seconds;
  p.window_s = kChurnWindowS;
  stats::Rng rng(stats::hash_combine(args.seed, 0xC4021));
  const double session_rate = rate / static_cast<double>(kChurnEpochs);
  const double start = -kChurnPrerollS * 1e6;
  const double gap = 1e6 / session_rate;
  const double period = kChurnPeriodS * 1e6;
  for (std::size_t i = 0;; ++i) {
    const double hello =
        start + (static_cast<double>(i) + rng.uniform(-0.45, 0.45)) * gap;
    if (hello >= args.seconds * 1e6) break;
    PlannedSession s;
    s.id = 1 + i;
    s.walk = rng.uniform_int(0, static_cast<int>(w.walks.size()) - 1);
    s.join = pick_join(w.walks[s.walk], kChurnEpochs, rng);
    s.epochs = kChurnEpochs;
    s.hello_due_us = hello;
    const auto idx = static_cast<std::uint32_t>(p.sessions.size());
    p.sessions.push_back(s);
    p.events.push_back({hello, Kind::kHello, idx, 0});
    for (std::size_t e = 0; e < kChurnEpochs; ++e) {
      // The first epoch goes out as soon as the hello is acknowledged.
      const double jitter = e == 0 ? 0.0 : rng.uniform(-0.2, 0.2) * period;
      p.events.push_back({hello + static_cast<double>(e) * period + jitter,
                          Kind::kEpoch, idx, static_cast<std::uint32_t>(e)});
    }
  }
  for (double t = (0.5 * kWaveCadenceS - kChurnPrerollS) * 1e6;
       t < args.seconds * 1e6; t += kWaveCadenceS * 1e6) {
    p.events.push_back({t, Kind::kWave, 0, 0});
  }
  std::stable_sort(p.events.begin(), p.events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.due_us != b.due_us) return a.due_us < b.due_us;
                     return a.kind < b.kind;  // a hello before its epoch 0
                   });
  return p;
}

// --- server --------------------------------------------------------------

/// One deployed server plus what it needs alive. The committer is declared
/// before the server: the server's last wave may still be queued in it
/// when the server shuts down.
struct Deployed {
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::SloMonitor> slo;
  std::unique_ptr<svc::GroupCommitter> committer;
  std::unique_ptr<svc::LocalizationServer> server;
  std::string checkpoint_dir;

  ~Deployed() {
    if (server != nullptr) server->shutdown();
    if (committer != nullptr) committer->flush();
    server.reset();
    committer.reset();
    if (!checkpoint_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(checkpoint_dir, ec);
    }
  }
};

std::unique_ptr<Deployed> deploy(const World& world,
                                 const std::string& checkpoint_dir) {
  auto dep = std::make_unique<Deployed>();
  dep->slo = std::make_unique<obs::SloMonitor>(obs::SloConfig{},
                                               &dep->registry);
  svc::ServerConfig cfg;
  cfg.workers = serve_workers();
  cfg.simulated_network = std::chrono::microseconds(0);
  cfg.use_fast_path = true;
  cfg.slo = dep->slo.get();
  std::filesystem::remove_all(checkpoint_dir);
  std::filesystem::create_directories(checkpoint_dir);
  dep->checkpoint_dir = checkpoint_dir;
  dep->committer = std::make_unique<svc::GroupCommitter>();
  cfg.checkpoint_dir = checkpoint_dir;
  cfg.snapshot_quantize = true;
  cfg.committer = dep->committer.get();
  const World* w = &world;
  svc::UnilocFactory factory = [w](std::uint64_t sid) {
    return std::make_unique<core::Uniloc>(core::make_uniloc(
        w->deployment, w->models, {}, false, ensemble_seed(sid)));
  };
  dep->server = std::make_unique<svc::LocalizationServer>(
      cfg, std::move(factory), &dep->registry);
  return dep;
}

std::vector<std::uint8_t> hello_frame(const World& world,
                                      const PlannedSession& s) {
  svc::HelloPayload hello;
  join_pose(world.walks[s.walk], s.join, hello.start, hello.heading);
  svc::Frame f;
  f.type = svc::FrameType::kHello;
  f.session_id = s.id;
  f.payload = svc::encode_hello(hello);
  return svc::encode_frame(f);
}

std::vector<std::uint8_t> bye_frame(std::uint64_t id) {
  svc::Frame f;
  f.type = svc::FrameType::kBye;
  f.session_id = id;
  return svc::encode_frame(f);
}

/// An empty kReply to `id` (hello / bye acknowledgement).
bool is_ack(const std::vector<std::uint8_t>& bytes, std::uint64_t id) {
  const svc::DecodeResult d = svc::decode_frame(bytes);
  return d.frame.has_value() && d.frame->type == svc::FrameType::kReply &&
         d.frame->session_id == id && d.frame->payload.empty();
}

// --- one timed pass ----------------------------------------------------------

struct Outcome {
  enum class Status : std::uint8_t { kServed, kBackpressure, kError, kBad };
  Status status{Status::kBad};
  svc::EpochReply reply;
};

/// Resource snapshot at a window boundary.
struct Snap {
  double process_cpu_us{0.0};
  double generator_cpu_us{0.0};
  double generator_in_program_us{0.0};
  std::uint64_t served{0};
  std::uint64_t probe_bursts{0};
  double probe_busy_us{0.0};
  std::uint64_t gen_probe_bursts{0};
  double gen_probe_busy_us{0.0};
  double steal_us{0.0};
};

/// The speed probe for the server's CPUs: a thread on the worker CPUs
/// running one kernel burst per millisecond (~1% of one CPU).
class ServerSpeedProbe {
 public:
  explicit ServerSpeedProbe(const CpuPlacement& cpus)
      : thread_([this, &cpus] {
          cpus.enter_server();
          SpeedProbe probe;
          while (!stop_.load(std::memory_order_relaxed)) {
            probe.burst();
            {
              std::lock_guard<std::mutex> lock(mu_);
              bursts_ = probe.bursts();
              busy_us_ = probe.busy_us();
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}
  ~ServerSpeedProbe() {
    stop_.store(true);
    thread_.join();
  }
  ServerSpeedProbe(const ServerSpeedProbe&) = delete;
  ServerSpeedProbe& operator=(const ServerSpeedProbe&) = delete;

  void read(std::uint64_t& bursts, double& busy_us) const {
    std::lock_guard<std::mutex> lock(mu_);
    bursts = bursts_;
    busy_us = busy_us_;
  }

 private:
  mutable std::mutex mu_;
  std::uint64_t bursts_{0};
  double busy_us_{0.0};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the state it uses exists
};

struct Pass {
  // Per counted epoch (due inside the measured window).
  std::vector<double> due_us, latency_us, late_us;
  /// The part of latency_us spent waiting for the ingress thread: due
  /// time to the end of the program call that held the send back.
  std::vector<double> ingress_us;
  /// The latency of each session's first epoch, which is due with its
  /// hello (and first_fix_ingress_us its ingress part).
  std::vector<double> first_fix_us, first_fix_ingress_us;
  std::vector<double> first_fix_due_us;
  std::vector<double> own_lag_us, observe_delay_us;
  std::uint64_t epochs_sent{0}, epochs_served{0}, epochs_failed{0};
  std::uint64_t backpressure{0}, bad_replies{0};
  std::uint64_t hellos_sent{0}, hellos_acked{0};
  std::uint64_t byes_sent{0}, byes_acked{0};
  /// Integer micrometres, so the sum does not depend on the order the
  /// replies arrive in and the mean is bit-identical across runs.
  std::uint64_t error_sum_um{0};
  std::uint64_t gps_on{0};
  double wire_bytes{0.0};
  double span_us{0.0};  ///< Window start to the last counted reply.
  std::vector<Snap> snaps;  ///< At every window boundary.
  // Traced-only layer timings.
  std::vector<double> submit_epoch_us, submit_hello_us, submit_bye_us;
  std::vector<double> wave_us;
  double rss_base_mib{0.0};  ///< RSS before the first session opened.
  std::vector<double> session_kib;  ///< RSS growth per live session.
  svc::LocalizationServer::CheckpointStats ckpt{};
  // Fixes of the verified sessions: (session index, epoch) -> reply.
  std::vector<std::vector<std::optional<svc::EpochReply>>> verified;
  std::vector<std::uint32_t> verified_sessions;
};

Outcome classify(const std::vector<std::uint8_t>& bytes, std::uint64_t id,
                 const geo::BBox& bounds) {
  Outcome o;
  const svc::DecodeResult d = svc::decode_frame(bytes);
  if (!d.frame.has_value() || d.frame->session_id != id) return o;
  if (d.frame->type == svc::FrameType::kError) {
    o.status = svc::error_code(*d.frame) == svc::ErrorCode::kBackpressure
                   ? Outcome::Status::kBackpressure
                   : Outcome::Status::kError;
    return o;
  }
  if (d.frame->type != svc::FrameType::kReply) return o;
  const std::optional<svc::EpochReply> r =
      svc::parse_epoch_reply(d.frame->payload);
  if (!r.has_value()) return o;
  const geo::Vec2 fix = r->downlink.decoded();
  const bool inside = std::isfinite(fix.x) && std::isfinite(fix.y) &&
                      fix.x >= bounds.min.x - kBoundsMarginM &&
                      fix.x <= bounds.max.x + kBoundsMarginM &&
                      fix.y >= bounds.min.y - kBoundsMarginM &&
                      fix.y <= bounds.max.y + kBoundsMarginM;
  if (!inside) return o;
  o.status = Outcome::Status::kServed;
  o.reply = *r;
  return o;
}

void keep_verified(Pass& pass, std::uint32_t session, std::uint32_t epoch,
                   const Outcome& o) {
  if (o.status != Outcome::Status::kServed) return;
  for (std::size_t v = 0; v < pass.verified_sessions.size(); ++v) {
    if (pass.verified_sessions[v] == session) pass.verified[v][epoch] = o.reply;
  }
}

struct InFlight {
  std::future<std::vector<std::uint8_t>> reply;
  double due_abs{0.0};
  double own_lag{0.0};     ///< Send delay the generator itself added.
  double ingress{0.0};     ///< Send delay a prior program call caused.
  double sent_after{0.0};  ///< When submit() returned.
  std::uint32_t session{0};
  std::uint32_t epoch{0};
};

/// Run the planned traffic. `start` is the absolute wall time of due 0.
void drive(const World& world, Plan& plan, svc::LocalizationServer& server,
           const ServerSpeedProbe& probe, Pass& pass, bool traced,
           double start) {
  const geo::BBox bounds = world.deployment.place->bounds();
  std::vector<InFlight> inflight;
  inflight.reserve(1024);
  double gen_cpu_in_program = 0.0;
  double last_program_end = 0.0;
  double last_poll = wall_us();
  double last_obs = start;
  const double end = start + plan.seconds * 1e6;
  const double window_us = plan.window_s * 1e6;
  const auto windows = static_cast<std::size_t>(
      std::floor(plan.seconds / plan.window_s + 1e-9));
  double next_snap = start;
  SpeedProbe gen_probe;

  const auto in_window = [&](double due_abs) {
    return due_abs >= start && due_abs < end;
  };
  // Time a call into the program on this thread (CPU + wall).
  struct Call {
    double wall0, cpu0;
  };
  const auto begin_call = [] { return Call{wall_us(), thread_cpu_us()}; };
  const auto end_call = [&](const Call& c) {
    const double now = wall_us();
    gen_cpu_in_program += thread_cpu_us() - c.cpu0;
    last_program_end = now;
    return now - c.wall0;
  };

  const auto send_bye = [&](PlannedSession& s) {
    const Call c = begin_call();
    std::future<std::vector<std::uint8_t>> f = server.submit(bye_frame(s.id));
    const double us = end_call(c);
    if (traced) pass.submit_bye_us.push_back(us);
    ++pass.byes_sent;
    pass.byes_acked += is_ack(f.get(), s.id) ? 1 : 0;
  };

  const auto poll = [&] {
    const double pass_start = wall_us();
    for (std::size_t i = 0; i < inflight.size();) {
      InFlight& f = inflight[i];
      if (f.reply.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const double t_obs = wall_us();
      PlannedSession& s = plan.sessions[f.session];
      const Outcome o = classify(f.reply.get(), s.id, bounds);
      ++s.replies;
      const bool counted = in_window(f.due_abs);
      // The reply completed after the previous poll found it not ready
      // and no later than t_obs. The gap between the two is time the
      // generator was away (another call into the program, or its vCPU
      // descheduled), not the reply's, so latencies are taken to the
      // earlier end; observe_delay_us reports the gap.
      const double seen = std::max(last_poll, f.sent_after);
      if (counted) {
        pass.observe_delay_us.push_back(t_obs - seen);
        last_obs = std::max(last_obs, t_obs);
        switch (o.status) {
          case Outcome::Status::kServed: {
            ++pass.epochs_served;
            pass.latency_us.push_back(seen - f.due_abs - f.own_lag);
            pass.ingress_us.push_back(f.ingress);
            pass.due_us.push_back(f.due_abs - start);
            const geo::Vec2 fix = o.reply.downlink.decoded();
            const std::size_t frame = frame_of(world, s, f.epoch);
            pass.error_sum_um += static_cast<std::uint64_t>(std::llround(
                1e6 * geo::distance(
                          fix, world.walks[s.walk].frames[frame].truth_pos)));
            pass.gps_on += o.reply.gps_enable_next ? 1 : 0;
            break;
          }
          case Outcome::Status::kBackpressure:
            ++pass.backpressure;
            ++pass.epochs_failed;
            break;
          case Outcome::Status::kError:
            ++pass.epochs_failed;
            break;
          case Outcome::Status::kBad:
            ++pass.bad_replies;
            ++pass.epochs_failed;
            break;
        }
        if (f.epoch == 0 && in_window(start + s.hello_due_us)) {
          pass.first_fix_us.push_back(seen - f.due_abs - f.own_lag);
          pass.first_fix_ingress_us.push_back(f.ingress);
          pass.first_fix_due_us.push_back(s.hello_due_us);
        }
      }
      keep_verified(pass, f.session, f.epoch, o);
      if (s.replies == s.epochs) send_bye(s);
      inflight[i] = std::move(inflight.back());
      inflight.pop_back();
    }
    last_poll = pass_start;
  };

  std::size_t next = 0;
  while (next < plan.events.size() || !inflight.empty()) {
    const double now = wall_us();
    if (now >= next_snap && pass.snaps.size() <= windows) {
      Snap snap{process_cpu_us(), thread_cpu_us(), gen_cpu_in_program,
                pass.epochs_served};
      probe.read(snap.probe_bursts, snap.probe_busy_us);
      snap.gen_probe_bursts = gen_probe.bursts();
      snap.gen_probe_busy_us = gen_probe.busy_us();
      snap.steal_us = steal_us();
      pass.snaps.push_back(snap);
      next_snap += window_us;
    }
    if (next < plan.events.size() &&
        now >= start + plan.events[next].due_us) {
      const Event& ev = plan.events[next++];
      const double due_abs = start + ev.due_us;
      const bool counted = in_window(due_abs);
      const double own_lag = now - std::max(due_abs, last_program_end);
      const double ingress = std::max(0.0, last_program_end - due_abs);
      if (counted) pass.own_lag_us.push_back(own_lag);
      PlannedSession& s = plan.sessions[ev.session];
      switch (ev.kind) {
        case Kind::kHello: {
          const std::vector<std::uint8_t> frame = hello_frame(world, s);
          const Call c = begin_call();
          std::future<std::vector<std::uint8_t>> f = server.submit(frame);
          const double us = end_call(c);
          if (traced) pass.submit_hello_us.push_back(us);
          ++pass.hellos_sent;
          pass.hellos_acked += is_ack(f.get(), s.id) ? 1 : 0;
          break;
        }
        case Kind::kEpoch: {
          const std::size_t frame = frame_of(world, s, ev.epoch);
          std::vector<std::uint8_t> bytes =
              address(world.walks[s.walk], frame, s.id);
          const Call c = begin_call();
          InFlight f;
          f.reply = server.submit(std::move(bytes));
          const double us = end_call(c);
          f.due_abs = due_abs;
          f.sent_after = last_program_end;
          f.own_lag = own_lag;
          f.ingress = ingress;
          f.session = ev.session;
          f.epoch = ev.epoch;
          if (counted) {
            if (traced) pass.submit_epoch_us.push_back(us);
            pass.late_us.push_back(c.wall0 - due_abs);
            ++pass.epochs_sent;
            pass.wire_bytes += static_cast<double>(
                world.walks[s.walk].wire_bytes[frame]);
          }
          inflight.push_back(std::move(f));
          break;
        }
        case Kind::kWave: {
          const std::size_t live = server.live_sessions();
          if (traced && live > 0) {
            pass.session_kib.push_back((rss_mib() - pass.rss_base_mib) *
                                       1024.0 / static_cast<double>(live));
          }
          const Call c = begin_call();
          server.checkpoint_wave_now();
          const double us = end_call(c);
          if (traced) pass.wave_us.push_back(us);
          break;
        }
      }
    }
    poll();
    // Idle with nothing in flight: time the ingress CPU's speed, where no
    // reply can wait on it and no send falls due before it ends.
    if (inflight.empty() && next < plan.events.size() &&
        start + plan.events[next].due_us - wall_us() > kGeneratorProbeSlackUs) {
      gen_probe.burst();
    }
  }
  pass.span_us = last_obs - start;
}

/// CPU the program spent per served fix between snapshots a and b: the
/// process's CPU minus the generator's own (its time inside submit() and
/// checkpoint_wave_now() is the server's ingress work and stays in).
double cpu_per_fix(const Snap& a, const Snap& b) {
  const double generator_own =
      (b.generator_cpu_us - a.generator_cpu_us) -
      (b.generator_in_program_us - a.generator_in_program_us);
  return ((b.process_cpu_us - a.process_cpu_us) - generator_own) /
         static_cast<double>(b.served - a.served);
}

/// Share of the generator thread's time spent outside the program.
double generator_share(const Pass& p) {
  const Snap& a = p.snaps.front();
  const Snap& b = p.snaps.back();
  return ((b.generator_cpu_us - a.generator_cpu_us) -
          (b.generator_in_program_us - a.generator_in_program_us)) /
         (p.span_us > 0.0 ? p.span_us : 1.0);
}

struct Windowed {
  Estimate cpu, p50, p90, p99, first_fix;  ///< At reference speed.
  /// The same figures as measured, before scaling.
  double raw_cpu{0.0}, raw_p50{0.0}, raw_p90{0.0}, raw_p99{0.0},
      raw_first_fix{0.0};
  double slowdown{1.0}, ingress_slowdown{1.0};
  std::size_t windows{0}, used{0};
};

/// Whether each window of pass `p` is quiet: the hypervisor stole at
/// most kMaxStealShare of the vCPUs' time in it. A vCPU descheduled for
/// milliseconds stalls whatever runs on it; that is the host's latency,
/// not the program's, and in a busy hour it hits most windows (measured:
/// window p99 of 0.4-0.7 ms without steal, 2-19 ms with 20-120 ms stolen).
std::vector<bool> quiet_windows(const Pass& p, double window_us) {
  const double limit = kMaxStealShare * window_us *
                       static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  std::vector<bool> quiet;
  for (std::size_t w = 0; w + 1 < p.snaps.size(); ++w) {
    quiet.push_back(p.snaps[w + 1].steal_us - p.snaps[w].steal_us <= limit);
  }
  return quiet;
}

std::size_t count_quiet(const std::vector<Pass>& passes, double window_us) {
  std::size_t n = 0;
  for (const Pass& p : passes) {
    for (bool q : quiet_windows(p, window_us)) n += q ? 1 : 0;
  }
  return n;
}

/// CPU per fix (by wall-time window) and latency percentiles (by due-time
/// window) at reference speed over the quiet windows of every pass. If
/// fewer than four are quiet, the four least stolen stand in. CPU per fix
/// is the median over windows. The tail is the waves, one per window and
/// each a different length, so the percentiles pool the windows' fixes
/// (and first fixes) instead of taking one window's. Each part of a
/// latency scales with the slowdown of the CPU it ran on: the wait for
/// the ingress thread (hellos, waves) with the generator CPU's, the rest
/// -- and CPU per fix -- with the server CPUs'.
Windowed per_window(const Plan& plan, const std::vector<Pass>& passes) {
  Windowed out;
  const double window_us = plan.window_s * 1e6;
  std::vector<std::vector<bool>> use;
  std::vector<std::pair<double, std::pair<std::size_t, std::size_t>>> steal;
  std::size_t quiet = 0;
  for (std::size_t k = 0; k < passes.size(); ++k) {
    const Pass& p = passes[k];
    use.push_back(quiet_windows(p, window_us));
    for (std::size_t w = 0; w < use.back().size(); ++w) {
      quiet += use.back()[w] ? 1 : 0;
      steal.push_back({p.snaps[w + 1].steal_us - p.snaps[w].steal_us, {k, w}});
    }
  }
  std::stable_sort(steal.begin(), steal.end());
  for (std::size_t i = 0; quiet < 4 && i < steal.size(); ++i) {
    auto [k, w] = steal[i].second;
    if (!use[k][w]) {
      use[k][w] = true;
      ++quiet;
    }
  }

  std::vector<double> server_all, ingress_all;
  std::vector<double> cpu, raw_cpu, pooled, raw_pooled, first, raw_first;
  for (std::size_t k = 0; k < passes.size(); ++k) {
    const Pass& p = passes[k];
    const std::size_t windows = use[k].size();
    std::vector<double> server(windows), ingress(windows);
    for (std::size_t w = 0; w < windows; ++w) {
      const Snap& a = p.snaps[w];
      const Snap& b = p.snaps[w + 1];
      server[w] = slowdown(a.probe_bursts, a.probe_busy_us, b.probe_bursts,
                           b.probe_busy_us);
      ingress[w] = slowdown(a.gen_probe_bursts, a.gen_probe_busy_us,
                            b.gen_probe_bursts, b.gen_probe_busy_us);
    }
    server_all.insert(server_all.end(), server.begin(), server.end());
    ingress_all.insert(ingress_all.end(), ingress.begin(), ingress.end());
    const auto scaled = [&](double latency, double ingress_part,
                            std::size_t w) {
      return at_reference(ingress_part, ingress[w], kIngressExponent) +
             at_reference(latency - ingress_part, server[w]);
    };
    for (std::size_t i = 0; i < p.latency_us.size(); ++i) {
      const auto w = static_cast<std::size_t>(p.due_us[i] / window_us);
      if (w >= windows || !use[k][w]) continue;
      pooled.push_back(scaled(p.latency_us[i], p.ingress_us[i], w));
      raw_pooled.push_back(p.latency_us[i]);
    }
    for (std::size_t w = 0; w < windows; ++w) {
      if (!use[k][w] || p.snaps[w + 1].served == p.snaps[w].served) continue;
      ++out.used;
      raw_cpu.push_back(cpu_per_fix(p.snaps[w], p.snaps[w + 1]));
      cpu.push_back(at_reference(raw_cpu.back(), server[w]));
    }
    for (std::size_t i = 0; i < p.first_fix_due_us.size(); ++i) {
      const auto w =
          static_cast<std::size_t>(p.first_fix_due_us[i] / window_us);
      if (w < windows && use[k][w]) {
        first.push_back(
            scaled(p.first_fix_us[i], p.first_fix_ingress_us[i], w));
        raw_first.push_back(p.first_fix_us[i]);
      }
    }
    out.windows += windows;
  }
  out.cpu = quantile(cpu, 0.5);
  out.p50 = quantile(pooled, 0.50);
  out.p90 = quantile(pooled, 0.90);
  out.p99 = quantile(pooled, 0.99);
  out.first_fix = quantile(first, 0.5);
  out.raw_cpu = quantile(raw_cpu, 0.5).value;
  out.raw_p50 = quantile(raw_pooled, 0.50).value;
  out.raw_p90 = quantile(raw_pooled, 0.90).value;
  out.raw_p99 = quantile(raw_pooled, 0.99).value;
  out.raw_first_fix = quantile(raw_first, 0.5).value;
  out.slowdown = quantile(server_all, 0.5).value;
  out.ingress_slowdown = quantile(ingress_all, 0.5).value;
  return out;
}

/// Recompute the verified sessions' fixes through core::Uniloc directly
/// and compare them with what the server replied, bit for bit.
bool verify_sessions(const World& world, const Plan& plan, const Pass& pass) {
  bool ok = true;
  for (std::size_t v = 0; v < pass.verified_sessions.size(); ++v) {
    const PlannedSession& s = plan.sessions[pass.verified_sessions[v]];
    core::Uniloc u = core::make_uniloc(world.deployment, world.models, {},
                                       false, ensemble_seed(s.id));
    core::EpochScratch scratch;
    geo::Vec2 pos;
    double heading = 0.0;
    join_pose(world.walks[s.walk], s.join, pos, heading);
    // The server starts the session from the hello's quantized pose.
    const std::optional<svc::HelloPayload> hello =
        svc::parse_hello(svc::encode_hello({pos, heading}));
    u.reset({hello->start, hello->heading});
    for (std::size_t e = 0; e < pass.verified[v].size(); ++e) {
      // The server localizes from the decoded request, as sent.
      const svc::DecodeResult frame = svc::decode_frame(
          world.walks[s.walk].request[frame_of(world, s, e)]);
      const std::optional<svc::EpochRequest> req =
          svc::parse_epoch(frame.frame->payload);
      const core::EpochDecision& d = u.update_fast(req->frame, scratch);
      const std::optional<svc::EpochReply>& got = pass.verified[v][e];
      if (!got.has_value()) continue;  // not served: counted as failed
      const geo::Vec2 want = offload::DownlinkFrame::encode(d.uniloc2).decoded();
      const geo::Vec2 have = got->downlink.decoded();
      ok = ok && want.x == have.x && want.y == have.y &&
           d.gps_enable_next == got->gps_enable_next;
    }
  }
  return ok;
}

/// One complete pass: deploy, drive the traffic, verify. `sessions_s`
/// receives the wall time from deploy to traffic start (server start).
Pass run_pass(const World& world, Plan plan, const Args& args, bool traced,
              double& sessions_s, Result& res) {
  Pass pass;
  stats::Rng pick(stats::hash_combine(args.seed, 0x7E51F));
  for (std::size_t v = 0; v < kVerifiedSessions; ++v) {
    const auto si = static_cast<std::uint32_t>(pick.uniform_int(
        0, static_cast<int>(plan.sessions.size()) - 1));
    pass.verified_sessions.push_back(si);
    pass.verified.emplace_back(plan.sessions[si].epochs);
  }
  const std::string dir = args.tmpdir + "/chain-" + args.workload;
  const double t0 = wall_us();
  const CpuPlacement cpus;
  cpus.enter_server();
  std::unique_ptr<Deployed> dep = deploy(world, dir);
  cpus.enter_generator();
  const ServerSpeedProbe probe(cpus);
  pass.rss_base_mib = rss_mib();
  sessions_s = (wall_us() - t0) / 1e6;

  // Due 0 lies the pre-roll (whose events have negative due times) plus a
  // short lead after set-up.
  drive(world, plan, *dep->server, probe, pass, traced,
        wall_us() + kChurnPrerollS * 1e6 + 20'000.0);

  dep->committer->flush();
  pass.ckpt = dep->server->checkpoint_stats();
  res.check("served_fixes_match_direct_core", verify_sessions(world, plan,
                                                              pass));
  return pass;
}

double share(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Add one pass's frame accounting to the result and check it: every
/// reply well formed, sent = served + failed, every hello and bye
/// acknowledged, and the generator on schedule.
void account(const Pass& p, Result& res) {
  res.attempted += p.epochs_sent;
  res.failed += p.epochs_failed;
  const auto add = [&res](const char* name, std::uint64_t n) {
    res.counts[name] += static_cast<double>(n);
  };
  add("epoch.sent", p.epochs_sent);
  add("epoch.served", p.epochs_served);
  add("epoch.failed", p.epochs_failed);
  add("epoch.backpressure", p.backpressure);
  add("hello.sent", p.hellos_sent);
  add("hello.acked", p.hellos_acked);
  add("bye.sent", p.byes_sent);
  add("bye.acked", p.byes_acked);
  res.check("every_reply_well_formed", p.bad_replies == 0);
  res.check("epoch_sent_eq_served_plus_failed",
            p.epochs_sent == p.epochs_served + p.epochs_failed);
  res.check("every_hello_acked", p.hellos_sent == p.hellos_acked);
  res.check("every_bye_acked", p.byes_sent == p.byes_acked);
  const double lag_p90 = quantile(p.own_lag_us, 0.90).value;
  res.counts["loadgen.own_lag_p90_us"] =
      std::max(res.counts["loadgen.own_lag_p90_us"], lag_p90);
  res.check("generator_kept_schedule", lag_p90 <= kMaxOwnLagP90Us);
}

}  // namespace

Result run_serve_churn(const Args& args) {
  Result res;
  res.workload = "serve_churn";
  res.seed = args.seed;
  res.trace = args.trace;
  const double rate = kChurnRatePerWorker * serve_workers();
  res.counts["workers"] = serve_workers();
  res.counts["offered_fixes_per_s"] = rate;

  // Set-up repetitions: world + plan; setup_s is the median, plus the
  // server start. There is no warm population: the sessions are the
  // traffic.
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  std::unique_ptr<Plan> plan;
  for (int r = 0; r < args.setup_repeats; ++r) {
    plan.reset();
    world.reset();
    SpeedProbe probe;
    const double t0 = wall_us();
    world = std::make_unique<World>(build_world(args.seed, probe));
    plan = std::make_unique<Plan>(plan_churn(*world, args, rate));
    setup_s.push_back(at_reference(
        (wall_us() - t0 - probe.busy_us()) / 1e6,
        slowdown(0, 0.0, probe.bursts(), probe.busy_us())));
  }

  // The untraced passes. A traced run needs only one, for the overhead
  // comparison; its figures are per layer and carry no bound.
  const double run_start = wall_us();
  const double window_us = plan->window_s * 1e6;
  const auto windows_per_pass = static_cast<std::size_t>(
      std::floor(plan->seconds / plan->window_s + 1e-9));
  std::vector<Pass> passes;
  double sessions_s = 0.0;
  // Peak RSS as of the first pass: later passes keep earlier passes'
  // records in memory, which is the benchmark's, not the program's.
  double rss_peak = 0.0;
  for (;;) {
    const double pass_start = wall_us();
    double s = 0.0;
    passes.push_back(run_pass(*world, *plan, args, /*traced=*/false, s, res));
    if (passes.size() == 1) {
      sessions_s = s;
      rss_peak = peak_rss_mib();
    }
    account(passes.back(), res);
    const double pass_us = wall_us() - pass_start;
    if (args.trace || passes.size() >= kMaxPasses ||
        2 * count_quiet(passes, window_us) >= windows_per_pass ||
        wall_us() + pass_us > run_start + kPassBudgetS * 1e6) {
      break;
    }
  }
  for (double& s : setup_s) s += sessions_s;
  const Pass& pass = passes.front();

  const Windowed w = per_window(*plan, passes);
  res.counts["passes"] = static_cast<double>(passes.size());
  res.counts["windows"] = static_cast<double>(w.windows);
  res.counts["windows_quiet"] = static_cast<double>(
      count_quiet(passes, window_us));
  res.counts["windows_used"] = static_cast<double>(w.used);
  res.counts["machine.slowdown"] = w.slowdown;
  res.counts["machine.ingress_slowdown"] = w.ingress_slowdown;
  res.counts["raw.cpu_us_per_fix"] = w.raw_cpu;
  res.counts["raw.fix_latency_p50_us"] = w.raw_p50;
  res.counts["raw.fix_latency_p90_us"] = w.raw_p90;
  res.counts["raw.fix_latency_p99_us"] = w.raw_p99;
  res.counts["raw.first_fix_latency_p50_us"] = w.raw_first_fix;
  if (!args.trace) {
    double served = 0.0, sent = 0.0, span_s = 0.0;
    for (const Pass& p : passes) {
      served += static_cast<double>(p.epochs_served);
      sent += static_cast<double>(p.epochs_sent);
      span_s += p.span_us / 1e6;
    }
    res.set("setup_s", "s", quantile(setup_s, 0.5));
    res.set("fixes_per_s", "fixes/s", served / span_s);
    res.set("fix_latency_p50_us", "us", w.p50);
    res.set("fix_latency_p90_us", "us", w.p90);
    res.set("fix_latency_p99_us", "us", w.p99);
    res.set("first_fix_latency_p50_us", "us", w.first_fix);
    res.set("cpu_us_per_fix", "us", w.cpu);
    res.set("fix_served_share", "share", share(served, sent));
    // Every pass sends the same traffic; the output guards are the first
    // pass's.
    res.set("fix_error_mean_m", "m",
            static_cast<double>(pass.error_sum_um) / 1e6 /
                static_cast<double>(pass.epochs_served));
    res.set("uplink_bytes_per_fix", "B",
            pass.wire_bytes / static_cast<double>(pass.epochs_sent));
    res.set("rss_peak_mib", "MiB", rss_peak);
    return res;
  }

  // Traced run: the same traffic again with every public call timed.
  double traced_sessions_s = 0.0;
  const Pass tp = run_pass(*world, *plan, args, /*traced=*/true,
                           traced_sessions_s, res);
  account(tp, res);
  res.set("svc.submit_epoch_us", "us", mean(tp.submit_epoch_us));
  res.set("svc.submit_hello_us", "us", mean(tp.submit_hello_us));
  res.set("svc.submit_bye_us", "us", mean(tp.submit_bye_us));
  res.set("svc.session_kib", "KiB", quantile(tp.session_kib, 0.5));
  res.set("svc.backpressure_share", "share",
          share(static_cast<double>(tp.backpressure),
                static_cast<double>(tp.epochs_sent)));
  const double records = static_cast<double>(tp.ckpt.keyframe_records +
                                             tp.ckpt.delta_records);
  res.set("svc.wave_us", "us", mean(tp.wave_us));
  res.set("svc.wave_max_us", "us",
          *std::max_element(tp.wave_us.begin(), tp.wave_us.end()));
  res.set("svc.wave_bytes_per_session", "B",
          share(static_cast<double>(tp.ckpt.keyframe_bytes +
                                    tp.ckpt.delta_bytes),
                records));
  res.set("svc.wave_sync_fallbacks", "count",
          static_cast<double>(tp.ckpt.sync_fallbacks));
  res.set("core.gps_on_share", "share",
          share(static_cast<double>(tp.gps_on),
                static_cast<double>(tp.epochs_served)));
  res.set("loadgen.late_p99_us", "us", quantile(tp.late_us, 0.99));
  res.set("loadgen.observe_delay_us", "us",
          quantile(tp.observe_delay_us, 0.99));
  res.set("loadgen.cpu_share", "share", generator_share(tp));
  res.set("setup.train_s", "s", world->train_s);
  res.set("setup.deploy_s", "s", world->deploy_s);
  res.set("setup.record_s", "s", world->record_s);
  res.set("setup.sessions_s", "s", sessions_s);
  res.set("offload.reduce_us", "us", mean(world->reduce_us));
  probe_stages(*world, std::min(args.seconds, kStageProbeS), res);
  probe_parse(*world, res);
  // probe_stages reports the stage replica's overhead over update_fast;
  // for this workload the comparison is the traced pass against the
  // untraced one.
  res.set("trace.overhead_share", "share",
          cpu_per_fix(tp.snaps.front(), tp.snaps.back()) /
                  cpu_per_fix(pass.snaps.front(), pass.snaps.back()) -
              1.0);
  return res;
}

}  // namespace perfbench
