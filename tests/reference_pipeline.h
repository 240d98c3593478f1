// The reference epoch pipeline: the test oracle for Uniloc::update_fast.
//
// Composes the eight stages of a UniLoc epoch from public parts only --
// make_standard_schemes, TrainedModels::for_family, IoDetector,
// LocationPredictor, extract_features, adaptive_tau, confidence and
// bma_weights -- with allocating containers and a fresh SchemeOutput per
// scheme per epoch. It installs no schemes::EpochContext, so every
// candidate evaluation the production pipeline shares through the
// per-epoch memo is recomputed here by the stage that needs it. Built
// with the same deployment, models and seed as core::make_uniloc, it
// must reproduce every consumer-visible field of update_fast's decision
// bit for bit (tests/test_differential.cc).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "core/iodetector.h"
#include "core/trainer.h"
#include "core/uniloc.h"
#include "filter/location_predictor.h"
#include "schemes/scheme.h"
#include "sim/sensor_frame.h"

namespace uniloc::testing_util {

class ReferencePipeline {
 public:
  /// The ensemble core::make_uniloc(d, models, cfg, false, seed) builds.
  /// `d` and `models` must outlive the pipeline.
  ReferencePipeline(const core::Deployment& d,
                    const core::TrainedModels& models, std::uint64_t seed,
                    core::UnilocConfig cfg = {});

  void reset(const schemes::StartCondition& start);

  /// One epoch, stage by stage (the numbering of Uniloc::update_fast).
  core::EpochDecision update(const sim::SensorFrame& frame);

  bool gps_enabled() const { return gps_enable_; }
  std::vector<std::string> scheme_names() const;

 private:
  core::UnilocConfig cfg_;
  std::vector<schemes::SchemePtr> schemes_;
  std::vector<const core::ErrorModel*> models_;
  core::IoDetector io_detector_;
  filter::LocationPredictor predictor_;
  bool gps_enable_{true};
};

}  // namespace uniloc::testing_util
