#include "reference_pipeline.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/confidence.h"
#include "core/features.h"

namespace uniloc::testing_util {

ReferencePipeline::ReferencePipeline(const core::Deployment& d,
                                     const core::TrainedModels& models,
                                     std::uint64_t seed,
                                     core::UnilocConfig cfg)
    : cfg_(cfg),
      schemes_(core::make_standard_schemes(d, /*calibrate_offset=*/false,
                                           seed)) {
  cfg_.place = d.place.get();
  cfg_.wifi_db = d.wifi_db.get();
  cfg_.cell_db = d.cell_db.get();
  for (const schemes::SchemePtr& s : schemes_) {
    models_.push_back(&models.for_family(s->family()));
  }
}

std::vector<std::string> ReferencePipeline::scheme_names() const {
  std::vector<std::string> names;
  for (const schemes::SchemePtr& s : schemes_) names.push_back(s->name());
  return names;
}

void ReferencePipeline::reset(const schemes::StartCondition& start) {
  for (const schemes::SchemePtr& s : schemes_) s->reset(start);
  predictor_.reset();
  predictor_.observe(start.pos);
  gps_enable_ = true;
}

core::EpochDecision ReferencePipeline::update(const sim::SensorFrame& frame) {
  core::EpochDecision d;
  const std::size_t n = schemes_.size();
  d.outputs.resize(n);
  d.predicted_error.assign(n, stats::Gaussian{0.0, 1.0});
  d.confidence.assign(n, 0.0);
  d.weight.assign(n, 0.0);

  // 1. Every scheme localizes into a fresh output; a non-finite output is
  //    treated as unavailable.
  for (std::size_t i = 0; i < n; ++i) {
    schemes::SchemeOutput out = schemes_[i]->update(frame);
    if (out.available) {
      bool finite =
          std::isfinite(out.estimate.x) && std::isfinite(out.estimate.y);
      for (const schemes::WeightedPoint& wp : out.posterior.support) {
        finite = finite && std::isfinite(wp.pos.x) &&
                 std::isfinite(wp.pos.y) && std::isfinite(wp.weight) &&
                 wp.weight >= 0.0;
      }
      if (!finite) out = schemes::SchemeOutput{};
    }
    d.outputs[i] = std::move(out);
  }

  // 2. Environment classification and feature context.
  d.indoor = io_detector_.is_indoor(frame);
  core::FeatureContext ctx;
  ctx.indoor = d.indoor;
  ctx.place = cfg_.place;
  ctx.wifi_db = cfg_.wifi_db;
  ctx.cell_db = cfg_.cell_db;
  ctx.predicted_location = predictor_.predict().value_or(geo::Vec2{});

  // 3. Error prediction per available scheme.
  std::vector<stats::Gaussian> available;
  for (std::size_t i = 0; i < n; ++i) {
    if (!d.outputs[i].available) continue;
    const std::vector<double> x =
        core::extract_features(schemes_[i]->family(), frame, d.outputs[i],
                               ctx);
    d.predicted_error[i] = models_[i]->predict(x, d.indoor);
    available.push_back(d.predicted_error[i]);
  }

  // 4. Adaptive threshold and confidences.
  d.tau = cfg_.fixed_tau_m > 0.0 ? cfg_.fixed_tau_m
                                 : core::adaptive_tau(available);
  for (std::size_t i = 0; i < n; ++i) {
    if (d.outputs[i].available) {
      d.confidence[i] = core::confidence(d.predicted_error[i], d.tau);
    }
  }

  // 5. UniLoc1: the highest-confidence scheme.
  d.selected = -1;
  double best_c = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (d.outputs[i].available && d.confidence[i] > best_c) {
      best_c = d.confidence[i];
      d.selected = static_cast<int>(i);
    }
  }

  // 6. UniLoc2: locally-weighted BMA over sharpened confidences.
  std::vector<double> sharpened(n);
  for (std::size_t i = 0; i < n; ++i) {
    sharpened[i] = std::pow(d.confidence[i], cfg_.confidence_sharpness);
  }
  d.weight = core::bma_weights(sharpened);
  geo::Vec2 fused{};
  double mass = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (d.weight[i] <= 0.0) continue;
    const geo::Vec2 m = d.outputs[i].posterior.empty()
                            ? d.outputs[i].estimate
                            : d.outputs[i].posterior.mean();
    fused += m * d.weight[i];
    mass += d.weight[i];
  }
  const geo::Vec2 fallback = predictor_.predict().value_or(geo::Vec2{});
  d.uniloc2 = mass > 0.0 ? fused : fallback;
  d.uniloc1 = d.selected >= 0
                  ? d.outputs[static_cast<std::size_t>(d.selected)].estimate
                  : fallback;

  // 7. Advance the location predictor with the fused result.
  predictor_.observe(d.uniloc2);

  // 8. GPS duty cycling for the next epoch.
  d.gps_enable_next = true;
  if (cfg_.gps_duty_cycle) {
    if (d.indoor) {
      d.gps_enable_next = false;
    } else {
      double gps_mu = std::numeric_limits<double>::infinity();
      double best_other = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        if (schemes_[i]->family() == schemes::SchemeFamily::kGps) {
          gps_mu = models_[i]->predict({}, /*indoor=*/false).mean;
        } else if (d.outputs[i].available) {
          best_other = std::min(best_other, d.predicted_error[i].mean);
        }
      }
      d.gps_enable_next = gps_mu <= best_other;
    }
  }
  gps_enable_ = d.gps_enable_next;
  return d;
}

}  // namespace uniloc::testing_util
