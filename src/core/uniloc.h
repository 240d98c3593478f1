// The UniLoc framework (paper Sec. IV).
//
// Registered schemes run in parallel on each SensorFrame. For every
// available scheme the framework extracts the family's features, predicts
// the localization error Y ~ N(mu, sigma_eps) with the offline-trained
// error model, and converts it to a confidence c = P(Y <= tau) against the
// adaptive threshold tau (the mean predicted error of available schemes).
//
//   UniLoc1  selects the highest-confidence scheme's estimate.
//   UniLoc2  locally-weighted BMA: mixes the schemes' location posteriors
//            with weights w_n = c_n / sum c_i and reports the posterior
//            expectation per axis (Eq. 3-5).
//
// Energy: the GPS duty-cycle controller keeps GPS off indoors and, when
// outdoors, only enables it when its (constant, feature-free) predicted
// error is the smallest among all schemes -- so the decision needs no GPS
// power at all.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/error_model.h"
#include "core/features.h"
#include "core/iodetector.h"
#include "filter/location_predictor.h"
#include "schemes/scheme.h"

namespace uniloc::obs {
class Counter;
class Histogram;
class MetricsRegistry;
class SpanTracer;
}  // namespace uniloc::obs

namespace uniloc::core {

struct EpochScratch;  // core/epoch_scratch.h

struct UnilocConfig {
  /// 0 => adaptive tau (paper default); otherwise a fixed threshold in
  /// meters (ablation bench).
  double fixed_tau_m = 0.0;
  /// Exponent applied to confidences before normalizing into BMA weights.
  /// The paper's Table II reports tiny regression residuals (sigma_eps as
  /// low as 0.26 m for the motion model), which make its Eq. 2 confidence
  /// nearly a step function of (tau - mu); our simulator's residuals are
  /// several meters, flattening the same formula. The exponent restores
  /// the paper's effective weight sharpness; 1.0 recovers the literal
  /// Eq. 5. See bench/ablation_sharpness.
  double confidence_sharpness = 4.0;
  /// Enable the GPS duty-cycle controller.
  bool gps_duty_cycle = true;
  /// Infrastructure handles for feature extraction (may be null; the
  /// corresponding features then fall back to conservative defaults).
  const sim::Place* place = nullptr;
  const schemes::FingerprintDatabase* wifi_db = nullptr;
  const schemes::FingerprintDatabase* cell_db = nullptr;
};

/// Everything UniLoc decided in one epoch. Vectors are index-aligned with
/// the registered scheme list.
struct EpochDecision {
  std::vector<schemes::SchemeOutput> outputs;
  std::vector<stats::Gaussian> predicted_error;  ///< Valid where available.
  std::vector<double> confidence;                ///< 0 where unavailable.
  std::vector<double> weight;                    ///< BMA weights (Eq. 5).
  double tau{0.0};
  bool indoor{true};
  int selected{-1};         ///< UniLoc1's scheme index (-1: nothing ran).
  geo::Vec2 uniloc1;        ///< Best-scheme estimate.
  geo::Vec2 uniloc2;        ///< Locally-weighted BMA estimate.
  bool gps_enable_next{true};  ///< Duty-cycling decision for next epoch.
};

class Uniloc {
 public:
  explicit Uniloc(UnilocConfig cfg);

  /// Register a scheme with its offline-trained error model.
  /// Integration cost of a new scheme is exactly this call (the paper's
  /// "general" design feature). Returns the scheme's index.
  std::size_t add_scheme(schemes::SchemePtr scheme, ErrorModel model);

  std::size_t num_schemes() const { return entries_.size(); }
  std::vector<std::string> scheme_names() const;
  const schemes::LocalizationScheme& scheme(std::size_t i) const {
    return *entries_[i].scheme;
  }

  /// Prepare all schemes for a walk starting at `start`.
  void reset(const schemes::StartCondition& start);

  /// Run one epoch: localize with every scheme, predict errors, combine.
  /// Every intermediate lives in `scratch`, so a steady-state epoch
  /// performs zero heap allocations (tests/test_perf_contracts.cc). Every
  /// consumer-visible field of the returned decision is bit-identical to
  /// the test oracle's (tests/reference_pipeline.h, which recomputes
  /// every shared candidate evaluation; tests/test_differential.cc);
  /// unavailable scheme outputs may carry stale posterior/observable
  /// payloads, which consumers never read (they gate on `available`;
  /// DESIGN.md section 11). The reference is valid until the next
  /// update_fast call on the same scratch.
  const EpochDecision& update_fast(const sim::SensorFrame& frame,
                                   EpochScratch& scratch);

  /// Sum of the registered schemes' likelihood-cache counters (the
  /// feature-stage counters live in EpochScratch).
  std::uint64_t scheme_cache_hits() const;
  std::uint64_t scheme_cache_misses() const;

  /// The duty-cycling decision computed by the previous epoch (true
  /// before the first epoch: the controller cannot rule GPS out yet).
  bool gps_enabled() const { return gps_enable_; }

  /// Serialize all persistent mutable state -- the duty-cycle flag, the
  /// location predictor, and every scheme's state (name-tagged and
  /// length-prefixed) -- for a session checkpoint (svc/checkpoint.h).
  /// `quantize` selects the fixed-point particle codec (checkpoint
  /// format v2), with the venue grid taken from this framework's Place
  /// bounds (schemes::SnapshotContext); false is the lossless f64 codec
  /// (v1). The flag must match between snapshot and restore -- the
  /// checkpoint header's version byte carries it across the file
  /// boundary.
  void snapshot_into(offload::ByteWriter& w, bool quantize) const;
  /// Restore into a framework built with the same configuration, scheme
  /// list and seeds as the snapshotted one (the service rebuilds it via
  /// the session factory first). Validates the scheme names and payload
  /// framing; returns false (state unspecified but safe) on mismatch or
  /// malformed input.
  bool restore_from(offload::ByteReader& r, bool quantize);

  /// Attach latency/throughput instrumentation to `registry` (nullptr
  /// detaches, the default state). Histograms resolved once here, never
  /// on the hot path: `uniloc.update_us`, `uniloc.fuse_us`, and
  /// `scheme.<name>.localize_us` per registered scheme; the epoch count
  /// lands in the `uniloc.epochs` counter. Cascades to the schemes'
  /// internal stages (particle filters). Schemes added after this call
  /// are instrumented on registration.
  void attach_metrics(obs::MetricsRegistry* registry);

  /// Attach causal span tracing (obs/span.h; nullptr detaches, the
  /// default state). Each epoch emits one `scheme.<name>` span per
  /// registered scheme around its localize and one `core.fuse` span
  /// around the fusion stage, parented to the caller's ambient
  /// TraceContext (the server's svc.locate span, or the runner's epoch
  /// root). Detached cost is a branch per instrumentation point.
  void attach_tracer(obs::SpanTracer* tracer) { tracer_ = tracer; }

 private:
  struct Entry {
    schemes::SchemePtr scheme;
    ErrorModel model;
    obs::Histogram* localize_us{nullptr};
    std::string span_name;  ///< "scheme.<name>", cached for span begin().
  };

  FeatureContext make_context(bool indoor) const;
  void instrument_entry(Entry& e);

  UnilocConfig cfg_;
  std::vector<Entry> entries_;
  IoDetector io_detector_;
  filter::LocationPredictor predictor_;
  bool gps_enable_{true};
  obs::MetricsRegistry* registry_{nullptr};
  obs::SpanTracer* tracer_{nullptr};
  obs::Histogram* update_us_{nullptr};
  obs::Histogram* fuse_us_{nullptr};
  obs::Counter* epochs_{nullptr};
};

}  // namespace uniloc::core
