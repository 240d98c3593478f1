// Outside-in stage attribution of the epoch pipeline.
//
// Uniloc::update_fast is one call; to see where an epoch's time goes the
// probe runs, next to each real ensemble, a replica of the pipeline
// assembled from the same public parts -- the five schemes' update_into
// sharing one schemes::EpochContext whose tag is bumped every epoch,
// extract_features_into, ErrorModel::predict, adaptive_tau / confidence /
// bma_weights_into, IoDetector and LocationPredictor -- and times each
// stage. Both run the same frames, interleaved frame by frame, so machine
// noise hits them alike. The replica's fused fix is compared with the
// real one every epoch (core.replica_match_share): 1.0 means the
// attributed stages are the computation update_fast actually performs.
#include <cctype>
#include <cmath>
#include <limits>
#include <memory>

#include "common.h"
#include "core/confidence.h"
#include "core/epoch_scratch.h"
#include "core/features.h"
#include "core/iodetector.h"
#include "core/runner.h"
#include "filter/location_predictor.h"
#include "schemes/epoch_context.h"
#include "svc/epoch_codec.h"
#include "svc/wire.h"

namespace perfbench {

namespace {

/// Stage totals in microseconds.
struct StageTimes {
  std::vector<double> scheme;  ///< Per scheme, in registration order.
  double features{0.0};
  double predict{0.0};
  double fuse{0.0};
  double rest{0.0};  ///< IoDetector, LocationPredictor, finiteness, GPS duty.
};

class Replica {
 public:
  Replica(const core::Deployment& d, const core::TrainedModels& models,
          std::uint64_t seed)
      : schemes_(core::make_standard_schemes(d, false, seed)) {
    for (const schemes::SchemePtr& s : schemes_) {
      models_.push_back(&models.for_family(s->family()));
    }
    const std::size_t n = schemes_.size();
    outputs_.resize(n);
    predicted_.resize(n);
    confidence_.resize(n);
    x_.resize(n);
    ctx_.place = d.place.get();
    ctx_.wifi_db = d.wifi_db.get();
    ctx_.cell_db = d.cell_db.get();
  }

  std::size_t size() const { return schemes_.size(); }
  std::string name(std::size_t i) const { return schemes_[i]->name(); }

  void reset(const schemes::StartCondition& start) {
    for (const schemes::SchemePtr& s : schemes_) s->reset(start);
    predictor_.reset();
    predictor_.observe(start.pos);
  }

  /// One epoch, stage by stage, mirroring Uniloc::update_fast.
  geo::Vec2 step(const sim::SensorFrame& frame, StageTimes& t) {
    const std::size_t n = schemes_.size();
    ++epoch_ctx_.tag;
    features_.epoch_ctx = &epoch_ctx_;
    for (const schemes::SchemePtr& s : schemes_) {
      s->set_epoch_context(&epoch_ctx_);
    }

    double t0 = wall_us();
    for (std::size_t i = 0; i < n; ++i) {
      schemes_[i]->update_into(frame, outputs_[i]);
      const double t1 = wall_us();
      t.scheme[i] += t1 - t0;
      t0 = t1;
    }

    for (std::size_t i = 0; i < n; ++i) {
      schemes::SchemeOutput& out = outputs_[i];
      if (!out.available) continue;
      bool finite =
          std::isfinite(out.estimate.x) && std::isfinite(out.estimate.y);
      for (const schemes::WeightedPoint& wp : out.posterior.support) {
        finite = finite && std::isfinite(wp.pos.x) &&
                 std::isfinite(wp.pos.y) && std::isfinite(wp.weight) &&
                 wp.weight >= 0.0;
      }
      if (!finite) {
        out.available = false;
        out.estimate = geo::Vec2{};
        out.posterior.support.clear();
        out.observables.clear();
      }
    }
    const bool indoor = io_.is_indoor(frame);
    ctx_.indoor = indoor;
    ctx_.predicted_location = predictor_.predict().value_or(geo::Vec2{});
    double t1 = wall_us();
    t.rest += t1 - t0;

    t0 = t1;
    for (std::size_t i = 0; i < n; ++i) {
      if (!outputs_[i].available) continue;
      core::extract_features_into(schemes_[i]->family(), frame, outputs_[i],
                                  ctx_, features_, x_[i]);
    }
    t1 = wall_us();
    t.features += t1 - t0;

    t0 = t1;
    available_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      predicted_[i] = stats::Gaussian{0.0, 1.0};
      if (!outputs_[i].available) continue;
      predicted_[i] = models_[i]->predict(x_[i], indoor);
      available_.push_back(predicted_[i]);
    }
    t1 = wall_us();
    t.predict += t1 - t0;

    t0 = t1;
    const double tau = cfg_.fixed_tau_m > 0.0
                           ? cfg_.fixed_tau_m
                           : core::adaptive_tau(available_);
    for (std::size_t i = 0; i < n; ++i) {
      confidence_[i] = outputs_[i].available
                           ? core::confidence(predicted_[i], tau)
                           : 0.0;
    }
    int selected = -1;
    double best_c = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (outputs_[i].available && confidence_[i] > best_c) {
        best_c = confidence_[i];
        selected = static_cast<int>(i);
      }
    }
    sharpened_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      sharpened_[i] = std::pow(confidence_[i], cfg_.confidence_sharpness);
    }
    core::bma_weights_into(sharpened_, weight_);
    geo::Vec2 fused{};
    double mass = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (weight_[i] <= 0.0) continue;
      const geo::Vec2 m = outputs_[i].posterior.empty()
                              ? outputs_[i].estimate
                              : outputs_[i].posterior.mean();
      fused += m * weight_[i];
      mass += weight_[i];
    }
    t1 = wall_us();
    t.fuse += t1 - t0;

    t0 = t1;
    const geo::Vec2 fallback = predictor_.predict().value_or(geo::Vec2{});
    const geo::Vec2 uniloc2 = mass > 0.0 ? fused : fallback;
    predictor_.observe(uniloc2);
    gps_next_ = true;
    if (cfg_.gps_duty_cycle) {
      if (indoor) {
        gps_next_ = false;
      } else {
        double gps_mu = std::numeric_limits<double>::infinity();
        double best_other = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < n; ++i) {
          if (schemes_[i]->family() == schemes::SchemeFamily::kGps) {
            gps_mu = models_[i]->predict({}, false).mean;
          } else if (outputs_[i].available) {
            best_other = std::min(best_other, predicted_[i].mean);
          }
        }
        gps_next_ = gps_mu <= best_other;
      }
    }
    (void)selected;  // UniLoc1's pick: computed for parity, not reported.
    t.rest += wall_us() - t0;
    return uniloc2;
  }

 private:
  core::UnilocConfig cfg_{};  // make_uniloc's defaults
  std::vector<schemes::SchemePtr> schemes_;
  std::vector<const core::ErrorModel*> models_;
  core::IoDetector io_;
  filter::LocationPredictor predictor_;
  schemes::EpochContext epoch_ctx_;
  core::FeatureScratch features_;
  core::FeatureContext ctx_;
  std::vector<schemes::SchemeOutput> outputs_;
  std::vector<stats::Gaussian> predicted_, available_;
  std::vector<double> confidence_, sharpened_, weight_;
  std::vector<std::vector<double>> x_;
  bool gps_next_{true};
};

}  // namespace

void probe_stages(const World& world, double seconds, Result& out) {
  const std::size_t walks = world.walks.size();
  std::vector<std::unique_ptr<core::Uniloc>> real;
  std::vector<std::unique_ptr<core::EpochScratch>> scratch;
  std::vector<std::unique_ptr<Replica>> replica;
  for (std::size_t w = 0; w < walks; ++w) {
    real.push_back(std::make_unique<core::Uniloc>(core::make_uniloc(
        world.deployment, world.models, {}, false, ensemble_seed(w))));
    scratch.push_back(std::make_unique<core::EpochScratch>());
    replica.push_back(std::make_unique<Replica>(
        world.deployment, world.models, ensemble_seed(w)));
  }

  StageTimes t;
  t.scheme.assign(replica.front()->size(), 0.0);
  double update_fast_total = 0.0;
  std::uint64_t epochs = 0, matches = 0;
  // One untimed round grows every buffer; then timed rounds until the
  // budget is spent (at least one).
  const double end = wall_us() + seconds * 1e6;
  for (int round = 0;; ++round) {
    const bool timed = round > 0;
    StageTimes discard;
    discard.scheme.assign(t.scheme.size(), 0.0);
    StageTimes& sink = timed ? t : discard;
    for (std::size_t w = 0; w < walks; ++w) {
      const Walk& walk = world.walks[w];
      real[w]->reset({walk.start_pos, walk.start_heading});
      replica[w]->reset({walk.start_pos, walk.start_heading});
      for (const sim::SensorFrame& frame : walk.frames) {
        const double t0 = wall_us();
        const core::EpochDecision& d = real[w]->update_fast(frame, *scratch[w]);
        const double us = wall_us() - t0;
        const geo::Vec2 fix = replica[w]->step(frame, sink);
        if (!timed) continue;
        update_fast_total += us;
        ++epochs;
        matches += (fix.x == d.uniloc2.x && fix.y == d.uniloc2.y) ? 1 : 0;
      }
    }
    if (timed && wall_us() >= end) break;
  }

  const double n = static_cast<double>(epochs);
  const double update_fast_us = update_fast_total / n;
  double attributed = 0.0;
  for (std::size_t i = 0; i < t.scheme.size(); ++i) {
    const double us = t.scheme[i] / n;
    attributed += us;
    std::string key = replica.front()->name(i);
    for (char& c : key) c = static_cast<char>(std::tolower(c));
    out.set("schemes." + key + ".localize_us", "us", us);
  }
  attributed += (t.features + t.predict + t.fuse) / n;
  const double rest_us = t.rest / n;
  out.set("core.update_fast_us", "us", update_fast_us);
  out.set("core.features_us", "us", t.features / n);
  out.set("core.predict_us", "us", t.predict / n);
  out.set("core.fuse_us", "us", t.fuse / n);
  out.set("core.rest_us", "us", rest_us);
  out.set("core.attribution_share", "share", attributed / update_fast_us);
  out.set("core.replica_match_share", "share",
          static_cast<double>(matches) / n);
  // The stage times attribute the replica's computation; they describe
  // update_fast only while the two agree on every epoch.
  out.check("stage_replica_matches_update_fast", matches == epochs);
  out.set("trace.overhead_share", "share",
          (attributed + rest_us) / update_fast_us - 1.0);

  std::uint64_t hits = 0, misses = 0;
  double scratch_bytes = 0.0;
  for (std::size_t w = 0; w < walks; ++w) {
    hits += real[w]->scheme_cache_hits() + scratch[w]->cache_hits();
    misses += real[w]->scheme_cache_misses() + scratch[w]->cache_misses();
    scratch_bytes += static_cast<double>(scratch[w]->bytes());
  }
  out.set("schemes.memo_hit_share", "share",
          hits + misses > 0 ? static_cast<double>(hits) /
                                  static_cast<double>(hits + misses)
                            : 0.0);
  out.set("core.scratch_kib", "KiB",
          scratch_bytes / static_cast<double>(walks) / 1024.0);
  out.counts["stage_probe.epochs"] = n;
}

void probe_parse(const World& world, Result& out) {
  double total = 0.0;
  std::size_t n = 0;
  bool ok = true;
  for (const Walk& walk : world.walks) {
    for (const std::vector<std::uint8_t>& request : walk.request) {
      const svc::DecodeResult frame = svc::decode_frame(request);
      ok = ok && frame.frame.has_value();
      if (!frame.frame.has_value()) continue;
      const double t0 = wall_us();
      const std::optional<svc::EpochRequest> parsed =
          svc::parse_epoch(frame.frame->payload);
      total += wall_us() - t0;
      ok = ok && parsed.has_value();
      ++n;
    }
  }
  out.check("recorded_payloads_parse", ok);
  out.set("svc.parse_epoch_us", "us", total / static_cast<double>(n));
}

}  // namespace perfbench
