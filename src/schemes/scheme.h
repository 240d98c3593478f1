// The localization-scheme abstraction.
//
// UniLoc treats every scheme as a black box that turns the current
// SensorFrame into (a) a point estimate, and (b) a posterior
// P(l = l_i | M_n, s_t) over locations -- the quantity the locally-weighted
// BMA of Eq. 3 mixes. A scheme that cannot localize this epoch reports
// available = false and is excluded from the ensemble (its confidence is
// treated as zero, paper Sec. IV-A).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "geo/bbox.h"
#include "geo/grid.h"
#include "geo/vec2.h"
#include "sim/sensor_frame.h"

namespace uniloc::obs {
class MetricsRegistry;
}  // namespace uniloc::obs

namespace uniloc::offload {
class ByteWriter;
class ByteReader;
}  // namespace uniloc::offload

namespace uniloc::schemes {

struct EpochContext;  // schemes/epoch_context.h

/// Codec selection for scheme snapshots, threaded from the checkpoint
/// format version (svc/checkpoint.h). `quantize` selects the fixed-point
/// particle codec (format v2); `venue` supplies its position grid and
/// must be identical between the snapshot and any later re-snapshot of
/// the restored state (the server passes the session's Place bounds,
/// which are immutable for a session's lifetime). The default context
/// selects the lossless f64 codec (format v1) -- the only one permitted
/// for live migration and crash/restore bit-identity.
struct SnapshotContext {
  bool quantize{false};
  geo::BBox venue;
};

/// Families group schemes by the sensor data they consume; every family
/// shares one error-model feature set (paper Table I).
enum class SchemeFamily {
  kGps,
  kWifiFingerprint,
  kCellFingerprint,
  kMotionPdr,
  kFusion,
  kOther,  ///< User-integrated schemes (see examples/custom_scheme.cpp).
};

const char* family_name(SchemeFamily f);

/// Discrete posterior over candidate locations, kept sparse: only cells
/// with non-negligible mass are stored. Weights are normalized to sum to 1.
struct WeightedPoint {
  geo::Vec2 pos;
  double weight{0.0};
};

struct Posterior {
  std::vector<WeightedPoint> support;

  bool empty() const { return support.empty(); }

  /// Normalize weights in place (no-op on empty support).
  void normalize();

  /// Posterior expectation E[l] -- what Eq. 4 evaluates per axis.
  geo::Vec2 mean() const;

  /// RMS distance of support from the mean (posterior spread).
  double spread() const;

  /// Rasterize onto a grid (cell mass = sum of contained support mass).
  std::vector<double> to_grid(const geo::Grid& grid) const;

  /// A single-point posterior.
  static Posterior point(geo::Vec2 p);

  /// Gaussian-kernel posterior around `center` with scale `sigma`,
  /// sampled on a (2r+1)^2 stencil with spacing sigma/2.
  static Posterior gaussian(geo::Vec2 center, double sigma, int r = 3);

  /// gaussian() into a caller-owned posterior: identical support sequence
  /// and weights, but the support buffer's capacity is reused (the fast
  /// epoch path rebuilds the GPS posterior every epoch).
  static void gaussian_into(geo::Vec2 center, double sigma, int r,
                            Posterior& out);
};

/// Scheme-reported auxiliary observables. These mirror what a real
/// scheme exposes in its public output; UniLoc's feature extractors may
/// read them but never require scheme internals. A scheme fills the
/// fields it reports and leaves the rest empty.
struct Observables {
  std::optional<double> hdop;              ///< GPS receiver HDOP.
  std::optional<double> num_satellites;    ///< GPS satellites in the fix.
  std::optional<double> num_transmitters;  ///< Fingerprinting: scan size.
  std::optional<double> top_distance;      ///< RADAR: best RSSI distance.
  std::optional<double> top3_distance_sd;  ///< RADAR: top-3 distance SD.
  std::optional<double> dist_since_landmark;  ///< PDR walking model (m).
  std::optional<double> particle_spread;      ///< PDR cloud spread (m).
  std::optional<double> map_log_likelihood;   ///< Horus MAP log-likelihood.

  void clear() { *this = Observables{}; }
};

struct SchemeOutput {
  bool available{false};
  geo::Vec2 estimate;        ///< Point estimate in the local map frame.
  Posterior posterior;       ///< P(l | M_n, s_t); empty if unavailable.
  Observables observables;
};

/// Known starting state for dead-reckoning style schemes (the paper starts
/// every trace at a known point, as do Travi-Navi and [7]).
struct StartCondition {
  geo::Vec2 pos;
  double heading{0.0};
};

class LocalizationScheme {
 public:
  virtual ~LocalizationScheme() = default;

  virtual std::string name() const = 0;
  virtual SchemeFamily family() const = 0;

  /// Prepare for a new walk starting at `start`.
  virtual void reset(const StartCondition& start) = 0;

  /// Consume one epoch of sensor data and localize into `out` -- the one
  /// localize method a scheme implements. `out` is a slot the pipeline
  /// reuses every epoch (so capacities persist and a steady-state epoch
  /// can localize without allocating). Set `out.available`; when true,
  /// also write the estimate, the posterior and the observables the
  /// scheme reports. When false the rest of `out` may keep an earlier
  /// epoch's payload: every consumer gates on `available` first
  /// (DESIGN.md section 11).
  virtual void update_into(const sim::SensorFrame& frame,
                           SchemeOutput& out) = 0;

  /// update_into on a fresh output: the convenience form for offline
  /// training, benches and tests. Returns an empty output when the scheme
  /// is unavailable this epoch.
  SchemeOutput update(const sim::SensorFrame& frame);

  /// Install the shared per-epoch state (nullptr detaches).
  /// Uniloc::update_fast calls this before each epoch's localize round so
  /// schemes querying the same sensor scan can share one candidate
  /// evaluation (schemes/epoch_context.h). The context must outlive the
  /// scheme's use of it -- it lives in the session's EpochScratch, whose
  /// lifetime rules (DESIGN.md section 11) already require exactly that.
  /// Without a context a scheme recomputes every evaluation itself,
  /// bit-identically. Default: the scheme keeps no shared state.
  virtual void set_epoch_context(EpochContext* ctx) { (void)ctx; }

  /// Attach internal-stage latency instrumentation to `registry`
  /// (nullptr detaches). Default: the scheme has no internal stages worth
  /// timing; Uniloc already times the whole localize call per scheme.
  virtual void attach_metrics(obs::MetricsRegistry* registry) {
    (void)registry;
  }

  /// Serialize the scheme's persistent mutable state (everything reset()
  /// initializes and update_into() evolves) for a session checkpoint.
  /// This is the one snapshot pair a scheme author implements. The default covers
  /// stateless schemes: nothing written, restore succeeds. Stateful
  /// schemes override both; restore_from must consume exactly the bytes
  /// snapshot_into wrote under the same `ctx` (the caller length-prefixes
  /// each scheme payload and verifies the framing), reject malformed
  /// input by returning false, and leave the scheme usable either way.
  /// Only schemes holding particle state need read `ctx` (to honor
  /// `ctx.quantize`); the rest serialize identically under every context.
  virtual void snapshot_into(offload::ByteWriter& w,
                             const SnapshotContext& ctx) const {
    (void)w;
    (void)ctx;
  }
  virtual bool restore_from(offload::ByteReader& r,
                            const SnapshotContext& ctx) {
    (void)r;
    (void)ctx;
    return true;
  }

  /// Likelihood-cache query outcomes of this scheme's unshared queries
  /// (those made without an epoch memo). Zero for schemes that do no
  /// RSSI matching. The counters live in per-scheme scratch, so
  /// concurrent sessions (which own disjoint scheme instances) never
  /// contend.
  virtual std::uint64_t cache_hits() const { return 0; }
  virtual std::uint64_t cache_misses() const { return 0; }
};

using SchemePtr = std::unique_ptr<LocalizationScheme>;

}  // namespace uniloc::schemes
