#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "offload/session.h"
#include "sim/builders.h"
#include "sim/walker.h"
#include "stats/rng.h"
#include "svc/epoch_codec.h"
#include "svc/wire.h"

namespace perfbench {

namespace {

double clock_us(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

/// Offset of the session id inside an encoded frame header
/// (u32 length, u32 magic, u8 version, u8 type).
constexpr std::size_t kSessionIdOffset = 10;

void put_json_number(std::FILE* f, double v) {
  if (!std::isfinite(v)) {
    std::fputs("null", f);
  } else {
    std::fprintf(f, "%.17g", v);
  }
}

}  // namespace

double wall_us() { return clock_us(CLOCK_MONOTONIC); }
double thread_cpu_us() { return clock_us(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_us() { return clock_us(CLOCK_PROCESS_CPUTIME_ID); }

double steal_us() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field = 0.0, steal = 0.0;
  stat >> cpu;  // "cpu": user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && stat >> field; ++i) steal = field;
  return steal * 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double rss_mib() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void SpeedProbe::burst() {
  // Independent exp/sqrt evaluations over an 8 KiB slice of a 64 KiB
  // buffer: throughput-bound floating point with memory traffic, like the
  // particle filters. (A register-only dependent chain does not notice a
  // busy sibling hyperthread; this kernel does.) The slice is read once
  // before the clock starts, so the timed loop runs from L1 whatever the
  // program left in the caches: a program with a larger footprint must
  // not make the probe, and so the machine, look slower.
  constexpr std::size_t kBuffer = 8192, kSlice = 1024;
  if (buffer_.empty()) buffer_.assign(kBuffer, 1.0);
  double warm = 0.0;
  for (std::size_t i = next_; i < next_ + kSlice; i += 8) warm += buffer_[i];
  const double t0 = thread_cpu_us();
  double acc = warm * 1e-300;
  for (std::size_t i = next_; i < next_ + kSlice; ++i) {
    acc += std::exp(-buffer_[i] * 1e-3) *
           std::sqrt(buffer_[i] + static_cast<double>(i));
    buffer_[i] = acc * 1e-12 + 1.0;
  }
  next_ = (next_ + kSlice) % kBuffer;
  busy_us_ += thread_cpu_us() - t0;
  ++bursts_;
}

double slowdown(std::uint64_t bursts0, double busy0, std::uint64_t bursts1,
                double busy1) {
  if (bursts1 <= bursts0) return 1.0;
  return (busy1 - busy0) / static_cast<double>(bursts1 - bursts0) /
         SpeedProbe::kReferenceBurstUs;
}

Estimate quantile(std::vector<double> xs, double q) {
  Estimate e;
  e.n = xs.size();
  if (xs.empty()) return e;
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  const auto clamp_rank = [&](double r) {
    return static_cast<std::size_t>(
        std::clamp(r, 0.0, n - 1.0));
  };
  // Nearest rank: the smallest sample with at least q of the data at or
  // below it.
  const std::size_t k = clamp_rank(std::ceil(q * n) - 1.0);
  // Normal approximation to the binomial count of samples below the
  // true quantile, +-1.96 sd, as ranks around k.
  const double half = 1.96 * std::sqrt(n * q * (1.0 - q));
  const std::size_t lo = std::min(k, clamp_rank(std::floor(k - half)));
  const std::size_t hi = std::max(k, clamp_rank(std::ceil(k + half)));
  e.value = xs[k];
  e.lo = xs[lo];
  e.hi = xs[hi];
  return e;
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

void Result::set(const std::string& name, const std::string& unit,
                 double value) {
  set(name, unit, Estimate{value, value, value, 1});
}

void Result::set(const std::string& name, const std::string& unit,
                 Estimate est) {
  metrics[name] = Metric{unit, est};
}

void Result::check_intervals() {
  bool ok = true;
  for (const auto& [name, m] : metrics) {
    const bool bracket = m.est.lo <= m.est.value && m.est.value <= m.est.hi;
    if (!bracket) {
      std::fprintf(stderr,
                   "perfbench: interval of %s does not bracket its point: "
                   "lo %.6g value %.6g hi %.6g\n",
                   name.c_str(), m.est.lo, m.est.value, m.est.hi);
    }
    ok = ok && bracket && std::isfinite(m.est.value);
  }
  check("intervals_bracket_point", ok);
}

bool Result::correct() const {
  for (const auto& [name, ok] : checks) {
    if (!ok) return false;
  }
  return attempted > 0;
}

void Result::print() const {
  std::FILE* f = stdout;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, ",
               workload.c_str(), static_cast<unsigned long long>(seed),
               trace ? 1 : 0);
  std::fprintf(f, "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
               correct() ? "true" : "false",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  std::fputs("\"checks\": {", f);
  bool first = true;
  for (const auto& [name, ok] : checks) {
    std::fprintf(f, "%s\"%s\": %s", first ? "" : ", ", name.c_str(),
                 ok ? "true" : "false");
    first = false;
  }
  std::fputs("}, \"counts\": {", f);
  first = true;
  for (const auto& [name, v] : counts) {
    std::fprintf(f, "%s\"%s\": ", first ? "" : ", ", name.c_str());
    put_json_number(f, v);
    first = false;
  }
  std::fputs("}, \"metrics\": {", f);
  first = true;
  for (const auto& [name, m] : metrics) {
    std::fprintf(f, "%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    put_json_number(f, m.est.value);
    std::fprintf(f, ", \"unit\": \"%s\", \"lo\": ", m.unit.c_str());
    put_json_number(f, m.est.lo);
    std::fputs(", \"hi\": ", f);
    put_json_number(f, m.est.hi);
    std::fprintf(f, ", \"n\": %zu}", m.est.n);
    first = false;
  }
  std::fputs("}}\n", f);
  std::fflush(f);
}

void set_unexercised(
    Result& res,
    std::initializer_list<std::pair<const char*, const char*>> name_units) {
  for (const auto& [name, unit] : name_units) res.set(name, unit, 0.0);
}

World build_world(std::uint64_t seed, SpeedProbe& probe) {
  const auto sample = [&probe] {
    for (int b = 0; b < kProbeBurstsPerPoint; ++b) probe.burst();
  };
  World w;
  sample();
  double t0 = wall_us();
  w.models = core::train_standard_models(/*seed=*/42, /*target_samples=*/300);
  w.train_s = (wall_us() - t0) / 1e6;
  sample();

  t0 = wall_us();
  w.deployment = core::make_deployment(sim::campus(42),
                                       core::DeploymentOptions{.seed = 42});
  // Worker threads query the shared Place; build its lazy wall index
  // while still single-threaded, as svc::run_load does.
  w.deployment.place->prebuild_wall_index();
  w.deploy_s = (wall_us() - t0) / 1e6;
  sample();

  t0 = wall_us();
  const core::Deployment& d = w.deployment;
  const std::size_t paths = d.place->walkways().size();
  for (std::size_t p = 0; p < paths; ++p) {
    for (std::size_t r = 0; r < kWalkSeedsPerPath; ++r) {
      Walk walk;
      walk.path = p;
      walk.walk_seed = stats::hash_combine(seed, p * 16 + r);
      sim::WalkConfig wc;
      wc.seed = walk.walk_seed;
      sim::Walker walker(d.place.get(), d.radio.get(), p, wc);
      walk.start_pos = walker.start_position();
      walk.start_heading = walker.start_heading();
      offload::PhoneAgent phone;
      phone.reset(walk.start_heading);
      while (!walker.done()) {
        sim::SensorFrame frame = walker.step(/*gps_enabled=*/true);
        const double r0 = wall_us();
        const offload::UplinkFrame uplink = phone.reduce(frame);
        w.reduce_us.push_back(wall_us() - r0);
        svc::Frame request;
        request.type = svc::FrameType::kEpoch;
        request.session_id = 0;
        request.payload = svc::encode_epoch(uplink, frame);
        walk.request.push_back(svc::encode_frame(request));
        walk.wire_bytes.push_back(svc::epoch_wire_bytes(uplink));
        walk.frames.push_back(std::move(frame));
      }
      w.walks.push_back(std::move(walk));
      sample();
    }
  }
  w.record_s = (wall_us() - t0) / 1e6;
  return w;
}

void join_pose(const Walk& walk, std::size_t join, geo::Vec2& pos,
               double& heading) {
  if (join == 0) {
    pos = walk.start_pos;
    heading = walk.start_heading;
  } else {
    pos = walk.frames[join - 1].truth_pos;
    heading = walk.frames[join - 1].truth_heading;
  }
}

std::vector<std::uint8_t> address(const Walk& walk, std::size_t frame,
                                  std::uint64_t session_id) {
  std::vector<std::uint8_t> bytes = walk.request[frame];
  for (std::size_t b = 0; b < 8; ++b) {
    bytes[kSessionIdOffset + b] =
        static_cast<std::uint8_t>(session_id >> (8 * b));
  }
  return bytes;
}

namespace {

/// The CPUs this process may run on (what `nproc` counts), captured before
/// any thread is pinned.
const cpu_set_t& allowed_cpus() {
  static const cpu_set_t set = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    if (sched_getaffinity(0, sizeof(s), &s) != 0) CPU_SET(0, &s);
    return s;
  }();
  return set;
}

}  // namespace

int serve_workers() {
  return std::max(1, CPU_COUNT(&allowed_cpus()) - 1);
}

CpuPlacement::CpuPlacement() {
  const cpu_set_t& all = allowed_cpus();
  if (CPU_COUNT(&all) < 2) return;
  CPU_ZERO(&generator_);
  CPU_ZERO(&server_);
  bool first = true;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &all)) continue;
    CPU_SET(c, first ? &generator_ : &server_);
    first = false;
  }
  split_ = true;
}

CpuPlacement::~CpuPlacement() {
  sched_setaffinity(0, sizeof(cpu_set_t), &allowed_cpus());
}

void CpuPlacement::enter_server() const {
  if (split_) sched_setaffinity(0, sizeof(cpu_set_t), &server_);
}

void CpuPlacement::enter_generator() const {
  if (split_) sched_setaffinity(0, sizeof(cpu_set_t), &generator_);
}

}  // namespace perfbench
