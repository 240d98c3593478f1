// Univariate Gaussian distribution helpers.
//
// UniLoc models each scheme's predicted localization error as
// Y_t ~ N(mu_t, sigma_eps) and computes the confidence
// c_t = P(Y_t <= tau) (paper Eq. 2) via the Gaussian CDF.
#pragma once

#include <cassert>

#include "stats/vecmath.h"

namespace uniloc::stats {

/// Standard normal probability density. Inline and built on det_exp so
/// the scalar code paths, the SIMD kernels and the UNILOC_NO_SIMD
/// fallback build all evaluate the identical operation sequence
/// (DESIGN.md section 16).
inline double normal_pdf(double x) {
  constexpr double inv_sqrt_2pi = 0.3989422804014327;
  return inv_sqrt_2pi * det_exp(-0.5 * x * x);
}

/// Density of the standard normal at sqrt(x2), taking the SQUARED
/// argument. Hot kernels that compute a Euclidean distance only to feed
/// it here (the fusion candidate reweight) pass (dx*dx + dy*dy) / sd^2
/// directly and skip both the sqrt and its re-squaring -- one vsqrtpd
/// and one vdivpd per lane, the two divider-port ops the rest of the
/// kernel has to wait on.
inline double normal_pdf_sq(double x2) {
  constexpr double inv_sqrt_2pi = 0.3989422804014327;
  return inv_sqrt_2pi * det_exp(-0.5 * x2);
}

/// Probability density of N(mean, sd) at x.
inline double normal_pdf(double x, double mean, double sd) {
  assert(sd > 0.0);
  return normal_pdf((x - mean) / sd) / sd;
}

/// Standard normal cumulative distribution function.
double normal_cdf(double x);

/// CDF of N(mean, sd) at x. sd must be > 0.
double normal_cdf(double x, double mean, double sd);

/// Inverse standard normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9). p must be in (0, 1).
double normal_quantile(double p);

/// A Gaussian distribution value object.
struct Gaussian {
  double mean{0.0};
  double sd{1.0};

  double pdf(double x) const { return normal_pdf(x, mean, sd); }
  double cdf(double x) const { return normal_cdf(x, mean, sd); }
};

}  // namespace uniloc::stats
