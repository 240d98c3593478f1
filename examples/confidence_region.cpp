// Confidence regions from the full fused posterior.
//
// UniLoc2's point estimate is the mixture expectation, but applications
// like geofencing or emergency dispatch want "where is the user with 90%
// probability?". This example rasterizes the schemes' posteriors onto the
// place grid with the epoch's BMA weights (Eq. 3 in its literal discrete
// form) and reports MAP cell, entropy and the 90% confidence radius as
// the walker moves from deep indoors to open space.
#include <cstdio>

#include "core/epoch_scratch.h"
#include "core/posterior_fusion.h"
#include "core/runner.h"
#include "sim/walker.h"

using namespace uniloc;

namespace {

/// Smallest radius around the expectation holding >= `target` mass.
double confidence_radius(const core::FusedPosterior& post, double target) {
  const geo::Vec2 center = post.expectation();
  for (double r = 1.0; r < 200.0; r += 1.0) {
    if (post.mass_within(center, r) >= target) return r;
  }
  return 200.0;
}

}  // namespace

int main() {
  const core::TrainedModels models = core::train_standard_models(42, 300);
  core::Deployment campus = core::make_deployment(sim::campus());
  core::Uniloc uniloc = core::make_uniloc(campus, models);

  const geo::Grid grid(campus.place->bounds(), 3.0);
  std::printf("posterior grid: %dx%d cells of 3 m\n\n", grid.nx(), grid.ny());
  std::printf("%6s %-11s %9s %9s %9s %8s\n", "t(s)", "segment", "err(m)",
              "90%% rad", "entropy", "schemes");

  sim::WalkConfig wc;
  wc.seed = 404;
  sim::Walker walker(campus.place.get(), campus.radio.get(), 0, wc);
  uniloc.reset({walker.start_position(), walker.start_heading()});

  core::EpochScratch scratch;
  int epoch = 0;
  while (!walker.done()) {
    const sim::SensorFrame frame = walker.step(uniloc.gps_enabled());
    const core::EpochDecision& dec = uniloc.update_fast(frame, scratch);
    if (++epoch % 60 != 0) continue;

    const core::FusedPosterior post =
        core::fuse_posteriors(grid, dec.outputs, dec.weight);
    int active = 0;
    for (double w : dec.weight) active += w > 0.01 ? 1 : 0;
    std::printf("%6.1f %-11s %8.1fm %8.0fm %9.2f %8d\n", frame.t,
                sim::segment_name(frame.truth_env),
                geo::distance(post.expectation(), frame.truth_pos),
                confidence_radius(post, 0.9), post.entropy(), active);
  }
  std::printf("\nthe confidence radius widens exactly where individual "
              "schemes disagree (open space) and tightens where the "
              "ensemble is unanimous (office corridors).\n");
  return 0;
}
