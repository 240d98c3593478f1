// Error-model feature extraction (paper Table I).
//
// Every scheme family has a fixed feature set computed from *sensor data
// and public infrastructure metadata only* -- never from scheme internals.
// That is the property that makes one offline-trained model transfer to
// new places: the implicit influence factors (AP deployment, interference,
// corridor geometry...) act through the sensor readings, and the features
// quantify the readings.
//
//   WiFi / cellular fingerprinting:
//     beta1  fingerprint spatial density around the (predicted) location
//     beta2  RSSI-distance deviation of the top-3 candidates
//     (number of audible APs is also computed; the paper -- and our
//      regression -- finds it insignificant)
//   Motion PDR:
//     beta1  distance walked since the last recognized landmark
//     beta2  corridor width at the (predicted) location
//   Fusion: motion features + WiFi fingerprint density (beta3)
//   GPS:    none (constant error model -- which is exactly what allows
//           predicting GPS error with the radio switched off)
#pragma once

#include <string>
#include <vector>

#include "geo/vec2.h"
#include "schemes/epoch_context.h"
#include "schemes/fingerprint_db.h"
#include "schemes/scheme.h"
#include "sim/place.h"
#include "sim/sensor_frame.h"

namespace uniloc::core {

/// Shared per-epoch context for feature computation. `predicted_location`
/// is ground truth during training and the HMM prediction online.
struct FeatureContext {
  geo::Vec2 predicted_location;
  bool indoor{true};
  const sim::Place* place{nullptr};
  const schemes::FingerprintDatabase* wifi_db{nullptr};
  const schemes::FingerprintDatabase* cell_db{nullptr};
};

/// Names of the regression features for a family, in extraction order.
std::vector<std::string> feature_names(schemes::SchemeFamily family);

/// Reusable buffers for extract_features_into. One per session: the
/// ScanScratch members hold the likelihood-cache working state for the
/// WiFi and cellular databases respectively (DESIGN.md section 11).
struct FeatureScratch {
  schemes::ScanScratch wifi;
  schemes::ScanScratch cell;
  std::vector<schemes::Match> matches;
  std::vector<double> top3;
  std::vector<std::size_t> knn;
  /// Shared epoch state (schemes/epoch_context.h), set by
  /// Uniloc::update_fast each epoch; null (the default, and always null
  /// during offline training) recomputes every RSSI match itself.
  schemes::EpochContext* epoch_ctx{nullptr};
};

/// Extract the feature vector for one scheme's error model into a
/// caller-owned vector, allocation-free once `scratch`/`x` reach steady
/// capacity. `output` provides the scheme's public observables (e.g. the
/// PDR distance-since-landmark counter, which a deployed PDR necessarily
/// exposes since it is part of its walking model).
void extract_features_into(schemes::SchemeFamily family,
                           const sim::SensorFrame& frame,
                           const schemes::SchemeOutput& output,
                           const FeatureContext& ctx, FeatureScratch& scratch,
                           std::vector<double>& x);

/// extract_features_into with fresh buffers (offline training, tests).
std::vector<double> extract_features(schemes::SchemeFamily family,
                                     const sim::SensorFrame& frame,
                                     const schemes::SchemeOutput& output,
                                     const FeatureContext& ctx);

/// Candidate features the paper examined but found insignificant
/// (Sec. III-B): used by the Table II appropriateness analysis.
std::vector<std::string> candidate_feature_names(schemes::SchemeFamily family);
std::vector<double> extract_candidate_features(
    schemes::SchemeFamily family, const sim::SensorFrame& frame,
    const schemes::SchemeOutput& output, const FeatureContext& ctx);

}  // namespace uniloc::core
