// Shared pieces of the benchmark harness: clocks, resource probes,
// order statistics with their intervals, the result record, and the
// seeded set-up (trained models, campus deployment, recorded walks).
//
// Everything here talks to the program only through its public headers.
#pragma once

#include <sched.h>

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "core/trainer.h"
#include "geo/vec2.h"
#include "sim/sensor_frame.h"

namespace perfbench {

using namespace uniloc;

// ------------------------------------------------------------ clocks

/// Monotonic wall time in microseconds since an arbitrary origin.
double wall_us();
/// CPU time of the calling thread / of the whole process, microseconds.
double thread_cpu_us();
double process_cpu_us();
/// Time the hypervisor has run something else on this machine's vCPUs
/// instead of them ("steal" in /proc/stat), summed over all vCPUs, in
/// microseconds (10 ms resolution).
double steal_us();
/// Current and peak resident set size of this process, MiB.
double rss_mib();
double peak_rss_mib();

// ------------------------------------------------------------ machine speed

/// The benchmark's yardstick for how fast this machine runs right now.
///
/// On a shared VM the same code runs 20-40% slower for seconds at a time
/// (other tenants, clock changes), which no amount of repetition averages
/// away. A fixed floating-point kernel -- part of the benchmark, never of
/// the program -- is timed in short bursts interleaved with the workload;
/// its slowdown tracks the workload's (NOTES.md). Timings are reported at
/// the reference speed: at_reference(raw, slowdown).
class SpeedProbe {
 public:
  /// Wall time of one burst when the machine runs at reference speed.
  static constexpr double kReferenceBurstUs = 12.0;
  /// The workloads slow by slowdown^kExponent when the kernel slows by
  /// `slowdown` (log-log fits over measurement windows: 0.68-0.77 for
  /// replay_core, 0.79-0.89 for the server's workers; NOTES.md).
  static constexpr double kExponent = 0.8;

  /// Run one burst of the kernel and account the CPU time it took (CPU,
  /// not wall, time: a burst that waits for its CPU is not slower).
  void burst();
  /// Bursts and their total CPU time since construction.
  std::uint64_t bursts() const { return bursts_; }
  double busy_us() const { return busy_us_; }

 private:
  std::uint64_t bursts_{0};
  double busy_us_{0.0};
  std::vector<double> buffer_;
  std::size_t next_{0};
};

/// Factor by which the kernel ran slower than at reference speed between
/// two probe readings (1.0 = reference; 1.25 = 25% slower).
double slowdown(std::uint64_t bursts0, double busy0, std::uint64_t bursts1,
                double busy1);

/// A time measured while the kernel ran `slowdown` times slower, scaled
/// to the reference speed (rates scale by the inverse). `exponent` is how
/// the timed work responds to the kernel's slowdown.
inline double at_reference(double raw, double slowdown,
                           double exponent = SpeedProbe::kExponent) {
  return raw / std::pow(slowdown, exponent);
}

// ------------------------------------------------------------ statistics

/// A point estimate with a distribution-free interval around it.
struct Estimate {
  double value{0.0};
  double lo{0.0};
  double hi{0.0};
  std::size_t n{0};
};

/// Nearest-rank q-quantile (q in [0, 1]) of `xs` with the order-statistic
/// ~95% confidence interval for that quantile. The interval's ranks are
/// taken around the point's own rank, so lo <= value <= hi holds by
/// construction; Result::check_intervals verifies it anyway.
Estimate quantile(std::vector<double> xs, double q);
double mean(const std::vector<double>& xs);

// ------------------------------------------------------------ result

struct Metric {
  std::string unit;
  Estimate est;
};

/// One run's record, printed as a single JSON line by print().
struct Result {
  std::string workload;
  std::uint64_t seed{0};
  bool trace{false};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  /// Output-check and self-check outcomes, by name; any false makes the
  /// run incorrect.
  std::map<std::string, bool> checks;
  /// Free-form counters (frames sent / served / failed per type, ...).
  std::map<std::string, double> counts;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, const std::string& unit, double value);
  void set(const std::string& name, const std::string& unit, Estimate est);
  void check(const std::string& name, bool ok) {
    auto it = checks.find(name);
    checks[name] = ok && (it == checks.end() || it->second);
  }
  /// The interval self-check: every reported [lo, hi] brackets its point.
  void check_intervals();
  bool correct() const;
  void print() const;
};

/// Report layers a workload does not exercise as 0 (NOTES.md lists
/// which layers each workload drives).
void set_unexercised(
    Result& res,
    std::initializer_list<std::pair<const char*, const char*>> name_units);

// ------------------------------------------------------------ set-up

/// One recorded campus walk, reduced and encoded the way a phone sends it.
struct Walk {
  std::size_t path{0};
  std::uint64_t walk_seed{0};
  geo::Vec2 start_pos;
  double start_heading{0.0};
  std::vector<sim::SensorFrame> frames;
  /// Encoded kEpoch frame per sensor frame, session id 0 (patched in by
  /// the generator at send time).
  std::vector<std::vector<std::uint8_t>> request;
  /// epoch_wire_bytes of each frame's uplink.
  std::vector<std::size_t> wire_bytes;
};

struct World {
  core::TrainedModels models;
  core::Deployment deployment;
  std::vector<Walk> walks;
  // Set-up phase wall times (seconds) and the phone-side reduce cost.
  double train_s{0.0};
  double deploy_s{0.0};
  double record_s{0.0};
  std::vector<double> reduce_us;
};

/// Walk seeds per path of the recorded campus walks (8 paths x 4). Fewer
/// walks let the output guards (fix_error_mean_m) swing with the seed:
/// one diverging walk moves a 16-walk mean by ~10%.
inline constexpr std::size_t kWalkSeedsPerPath = 4;

/// Train the standard error models, deploy the campus, and record
/// kWalkSeedsPerPath walks on every path with walk seeds derived from
/// `seed`. Every frame is recorded with GPS on (the bench/epoch_pipeline
/// convention) and reduced by an offload::PhoneAgent. `probe` gets a few
/// bursts between the phases, so the set-up can be scaled to reference
/// speed.
World build_world(std::uint64_t seed, SpeedProbe& probe);

/// Speed-probe bursts taken at each sampling point of a timed phase.
inline constexpr int kProbeBurstsPerPoint = 8;

/// Session `session_id`'s hello start: the true pose just before frame
/// `join` of `walk` (the walk start for join == 0).
void join_pose(const Walk& walk, std::size_t join, geo::Vec2& pos,
               double& heading);

/// Copy of `walk.request[frame]` addressed to `session_id`.
std::vector<std::uint8_t> address(const Walk& walk, std::size_t frame,
                                  std::uint64_t session_id);

/// Seed of a session's ensemble, as uniloc_cli serve-sim derives it.
inline std::uint64_t ensemble_seed(std::uint64_t session_id) {
  return 7 + session_id;
}

/// Number of worker threads a deployment on this machine runs
/// (nproc - 1, at least 1), as uniloc_cli serve-sim is deployed.
int serve_workers();

/// Keeps the load generator and the server off each other's CPUs: the
/// generator thread gets the first allowed CPU to itself, and every
/// thread the server starts inherits the remaining ones. Without this a
/// worker woken by submit() can preempt the busy-polling generator and
/// delay the requests due behind it, which would be charged to the
/// program. Restores the calling thread's full CPU set when destroyed.
class CpuPlacement {
 public:
  CpuPlacement();
  ~CpuPlacement();
  CpuPlacement(const CpuPlacement&) = delete;
  CpuPlacement& operator=(const CpuPlacement&) = delete;

  /// Calling thread onto the server CPUs (before creating the server).
  void enter_server() const;
  /// Calling thread onto the generator CPU.
  void enter_generator() const;

 private:
  bool split_{false};
  cpu_set_t generator_{};
  cpu_set_t server_{};
};

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Set-up repetitions whose median is setup_s.
  int setup_repeats{3};
  /// Scratch directory for files the program writes (checkpoint chains).
  std::string tmpdir{".bench_build/tmp"};
};

// Workload entry points (replay.cc, serve.cc); stage probe (stages.cc).
Result run_replay_core(const Args& args);
Result run_serve_churn(const Args& args);

/// Wall-time budget of the stage probe in a traced run.
inline constexpr double kStageProbeS = 4.0;

/// Outside-in stage attribution of the epoch pipeline on `world`'s walks,
/// for about `seconds`: fills the core.* and schemes.* layer metrics.
void probe_stages(const World& world, double seconds, Result& out);
/// svc::parse_epoch over the recorded payloads: svc.parse_epoch_us.
void probe_parse(const World& world, Result& out);

}  // namespace perfbench
