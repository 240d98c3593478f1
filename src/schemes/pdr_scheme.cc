#include "schemes/pdr_scheme.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/gaussian.h"
#include "stats/vecmath.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace uniloc::schemes {

PdrScheme::PdrScheme(const sim::Place* place, PdrOptions opts)
    : place_(place), opts_(opts), pf_(opts.num_particles, opts.seed) {}

void PdrScheme::reset(const StartCondition& start) {
  frontend_.reset(start.heading);
  // Reseed in place: the filter's SoA arrays, scratch buffers and attached
  // instruments all survive the reset (the old filter-reassignment hack
  // dropped them and had to re-attach).
  pf_.reseed(opts_.seed);
  pf_.init(start.pos, start.heading, /*pos_sd=*/0.8,
           /*heading_sd=*/0.08, /*scale_sd=*/0.07);
  dist_since_landmark_ = 0.0;
  started_ = true;
}

void PdrScheme::attach_metrics(obs::MetricsRegistry* registry) {
  registry_ = registry;
  // name() is virtual, so the fusion subclass lands under its own prefix.
  pf_.attach_metrics(registry, "scheme." + name() + ".pf");
  if (registry == nullptr) {
    map_us_ = nullptr;
    extra_us_ = nullptr;
    output_us_ = nullptr;
    return;
  }
  const std::string prefix = "scheme." + name() + ".stage.";
  map_us_ = &registry->histogram(prefix + "map_us");
  extra_us_ = &registry->histogram(prefix + "extra_us");
  output_us_ = &registry->histogram(prefix + "output_us");
}

void PdrScheme::apply_map_constraint() {
  if (!opts_.use_map || place_ == nullptr) return;
  // Pin the env index once for the whole pass -- per-particle
  // corridor_safe_fast/environment_at_fast calls each pay an atomic
  // shared_ptr copy, and this lambda runs ~300x2 times per epoch.
  const sim::Place::EnvView env_view = place_->env_view();
  pf_.reweight([this, &env_view](const filter::Particle& p) {
    // Corridor-safe cells: the full environment computation below is
    // guaranteed to land in the `beyond <= 0` branch and return exactly
    // 1.0 (see Place::corridor_safe_fast), so skip the walkway
    // projections -- the dominant cost of this constraint -- without
    // changing any weight.
    if (env_view.corridor_safe(p.pos)) return 1.0;
    const sim::LocalEnvironment env = env_view.environment(p.pos);
    const double beyond =
        std::max(0.0, env.distance_to_walkway - env.corridor_width_m / 2.0);
    if (beyond <= 0.0) return 1.0;
    const double z = beyond / opts_.map_slack_m;
    // det_exp keeps the whole particle-weight pipeline off libm, so the
    // traces reproduce bit for bit on any IEEE-754 platform, not just
    // against this machine's libm (DESIGN.md section 16).
    return stats::det_exp(-0.5 * z * z);
  });
}

void PdrScheme::apply_landmarks(const sim::SensorFrame& frame) {
  if (!opts_.use_landmarks || frame.landmarks.empty()) return;
  for (const sim::LandmarkObservation& lm : frame.landmarks) {
    // If the whole cloud has diverged far from the recognized landmark,
    // reweighting cannot pull it back (every likelihood underflows);
    // re-anchor the filter at the landmark instead -- the UnLoc-style
    // hard calibration.
    double closest = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < pf_.size(); ++i) {
      closest = std::min(closest, geo::distance(pf_.pos(i), lm.map_pos));
    }
    if (closest > 3.0 * opts_.landmark_sd_m) {
      const double heading = pf_.mean_heading();
      pf_.init(lm.map_pos, heading, opts_.landmark_sd_m,
               /*heading_sd=*/0.15, /*scale_sd=*/0.07);
    } else {
      pf_.reweight([&](const filter::Particle& p) {
        const double d = geo::distance(p.pos, lm.map_pos);
        return stats::normal_pdf(d / opts_.landmark_sd_m) + 1e-6;
      });
    }
  }
  dist_since_landmark_ = 0.0;
}

void PdrScheme::apply_wall_constraint(const std::vector<geo::Vec2>& before) {
  if (!opts_.use_walls || place_ == nullptr || place_->walls().empty()) {
    return;
  }
  pf_.reweight_indexed([&](std::size_t i, const filter::Particle& p) {
    return place_->crosses_wall(before[i], p.pos) ? 1e-9 : 1.0;
  });
}

void PdrScheme::make_output_into(SchemeOutput& out) const {
  obs::ScopedTimer timer(output_us_);
  out.available = started_;
  if (!started_) return;
  out.estimate = pf_.mean();
  out.posterior.support.clear();
  for (std::size_t i = 0; i < pf_.size(); ++i) {
    out.posterior.support.push_back({pf_.pos(i), pf_.weight(i)});
  }
  out.posterior.normalize();
  out.observables.dist_since_landmark = dist_since_landmark_;
  out.observables.particle_spread = pf_.spread();
}

void PdrScheme::step_epoch(const sim::SensorFrame& frame) {
  const StepInference inf = frontend_.process(frame.imu);
  std::vector<geo::Vec2>& before = before_;
  before.clear();
  if (opts_.use_walls && inf.steps > 0) {
    before.reserve(pf_.size());
    for (std::size_t i = 0; i < pf_.size(); ++i) before.push_back(pf_.pos(i));
  }
  for (int s = 0; s < inf.steps; ++s) {
    pf_.predict(inf.step_length_m,
                inf.dheading_rad / static_cast<double>(inf.steps),
                opts_.step_len_sd, opts_.heading_sd);
    dist_since_landmark_ += inf.step_length_m;
  }
  if (!before.empty()) apply_wall_constraint(before);
  {
    obs::ScopedTimer t(map_us_);
    apply_map_constraint();
  }
  {
    obs::ScopedTimer t(extra_us_);
    extra_reweight(frame);
  }
  apply_landmarks(frame);
  pf_.resample();
}

void PdrScheme::update_into(const sim::SensorFrame& frame, SchemeOutput& out) {
  if (!started_) {
    out.available = false;
    return;
  }
  step_epoch(frame);
  make_output_into(out);
}

void PdrScheme::snapshot_into(offload::ByteWriter& w,
                              const SnapshotContext& ctx) const {
  frontend_.snapshot_into(w);
  // The particle filter is the only quantizable state: the frontend and
  // the two scalars below are a handful of bytes, while the filter is
  // ~12 KB of f64 arrays that compress 4x on the fixed-point grid.
  if (ctx.quantize) {
    pf_.snapshot_into_quantized(w, ctx.venue);
  } else {
    pf_.snapshot_into(w);
  }
  w.put_f64(dist_since_landmark_);
  w.put_bool(started_);
}

bool PdrScheme::restore_from(offload::ByteReader& r,
                             const SnapshotContext& ctx) {
  if (!frontend_.restore_from(r)) return false;
  if (!(ctx.quantize ? pf_.restore_from_quantized(r) : pf_.restore_from(r))) {
    return false;
  }
  double dist;
  bool started;
  if (!r.get_f64(dist) || !r.get_bool(started)) return false;
  dist_since_landmark_ = dist;
  started_ = started;
  return true;
}

}  // namespace uniloc::schemes
