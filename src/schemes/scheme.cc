#include "schemes/scheme.h"

#include <cmath>

#include "stats/gaussian.h"

namespace uniloc::schemes {

const char* family_name(SchemeFamily f) {
  switch (f) {
    case SchemeFamily::kGps: return "gps";
    case SchemeFamily::kWifiFingerprint: return "wifi_fp";
    case SchemeFamily::kCellFingerprint: return "cell_fp";
    case SchemeFamily::kMotionPdr: return "motion_pdr";
    case SchemeFamily::kFusion: return "fusion";
    case SchemeFamily::kOther: return "other";
  }
  return "unknown";
}

void Posterior::normalize() {
  double total = 0.0;
  for (const WeightedPoint& p : support) total += p.weight;
  if (total <= 0.0) {
    if (!support.empty()) {
      const double u = 1.0 / static_cast<double>(support.size());
      for (WeightedPoint& p : support) p.weight = u;
    }
    return;
  }
  for (WeightedPoint& p : support) p.weight /= total;
}

geo::Vec2 Posterior::mean() const {
  geo::Vec2 m;
  double total = 0.0;
  for (const WeightedPoint& p : support) {
    m += p.pos * p.weight;
    total += p.weight;
  }
  return total > 0.0 ? m / total : geo::Vec2{};
}

double Posterior::spread() const {
  const geo::Vec2 m = mean();
  double s = 0.0, total = 0.0;
  for (const WeightedPoint& p : support) {
    s += geo::distance2(p.pos, m) * p.weight;
    total += p.weight;
  }
  return total > 0.0 ? std::sqrt(s / total) : 0.0;
}

std::vector<double> Posterior::to_grid(const geo::Grid& grid) const {
  std::vector<double> mass(grid.num_cells(), 0.0);
  for (const WeightedPoint& p : support) {
    mass[grid.flat_of(p.pos)] += p.weight;
  }
  return mass;
}

SchemeOutput LocalizationScheme::update(const sim::SensorFrame& frame) {
  SchemeOutput out;
  update_into(frame, out);
  if (!out.available) return {};
  return out;
}

Posterior Posterior::point(geo::Vec2 p) {
  Posterior post;
  post.support.push_back({p, 1.0});
  return post;
}

Posterior Posterior::gaussian(geo::Vec2 center, double sigma, int r) {
  Posterior post;
  gaussian_into(center, sigma, r, post);
  return post;
}

void Posterior::gaussian_into(geo::Vec2 center, double sigma, int r,
                              Posterior& out) {
  out.support.clear();
  const double spacing = sigma / 2.0;
  for (int iy = -r; iy <= r; ++iy) {
    for (int ix = -r; ix <= r; ++ix) {
      const geo::Vec2 p{center.x + ix * spacing, center.y + iy * spacing};
      const double d = geo::distance(p, center);
      out.support.push_back({p, stats::normal_pdf(d / sigma)});
    }
  }
  out.normalize();
}

}  // namespace uniloc::schemes
