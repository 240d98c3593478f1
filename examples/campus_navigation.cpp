// Campus navigation: live positioning along a daily path with a
// turn-by-turn style progress readout -- the workload the paper's
// introduction motivates (walking from the lab to a restaurant across
// office, corridor, basement, car park and open space).
//
// Demonstrates: per-epoch EpochDecision introspection (which scheme
// UniLoc trusts where), GPS duty-cycling in action, and remaining-
// distance estimation from the fused position.
#include <cstdio>

#include "core/epoch_scratch.h"
#include "core/runner.h"
#include "sim/walker.h"
#include "stats/descriptive.h"

using namespace uniloc;

int main() {
  const core::TrainedModels models = core::train_standard_models(42, 300);
  core::Deployment campus = core::make_deployment(sim::campus());
  core::Uniloc uniloc = core::make_uniloc(campus, models);

  const std::size_t path = 0;  // Path 1: lab -> restaurant
  const sim::Walkway& way = campus.place->walkways()[path];
  std::printf("navigating %s (%.0f m)\n\n", way.name.c_str(),
              way.line.length());

  sim::WalkConfig wc;
  wc.seed = 321;
  sim::Walker walker(campus.place.get(), campus.radio.get(), path, wc);
  uniloc.reset({walker.start_position(), walker.start_heading()});

  core::EpochScratch scratch;
  int epoch = 0;
  sim::SegmentType last_env = sim::SegmentType::kOffice;
  std::vector<double> errors;
  while (!walker.done()) {
    const sim::SensorFrame frame = walker.step(uniloc.gps_enabled());
    const core::EpochDecision& dec = uniloc.update_fast(frame, scratch);
    ++epoch;
    errors.push_back(geo::distance(dec.uniloc2, frame.truth_pos));

    // Announce environment changes like a navigation app would.
    if (frame.truth_env != last_env) {
      std::printf(">> entering %s (detected %s)\n",
                  sim::segment_name(frame.truth_env),
                  dec.indoor ? "indoor" : "outdoor");
      last_env = frame.truth_env;
    }
    if (epoch % 80 == 0) {
      // Remaining distance from the fused position.
      const geo::Projection proj = way.line.project(dec.uniloc2);
      const char* trusted =
          dec.selected >= 0
              ? uniloc.scheme_names()[static_cast<std::size_t>(dec.selected)]
                    .c_str()
              : "none";
      std::printf("   t=%5.1fs  %5.0f m to go | trusting %-8s | GPS %s | "
                  "err %4.1f m\n",
                  frame.t, way.line.length() - proj.arclen, trusted,
                  frame.gps_enabled ? "ON " : "off", errors.back());
    }
  }
  std::printf("\narrived after %d steps; mean positioning error %.2f m "
              "(p90 %.2f m)\n",
              epoch, stats::mean(errors), stats::percentile(errors, 90.0));
  return 0;
}
