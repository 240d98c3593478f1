// Ablation: HMM map matching (MapCraft-style [47]) on top of UniLoc2.
//
// The fused estimate can float off the walkable paths; snapping it onto
// the walkway graph with walking-continuity transitions removes the
// off-path error component.
#include <cstdio>

#include "bench_util.h"
#include "core/epoch_scratch.h"
#include "core/map_matching.h"

using namespace uniloc;

int main() {
  obs::BenchReport bench_report = bench::make_report("ablation_map_matching");
  const core::TrainedModels& models = bench::standard_models();
  core::Deployment campus = core::make_deployment(sim::campus());

  std::printf("Ablation -- map matching on top of UniLoc2 (Paths 1-3)\n\n");
  io::Table t({"path", "UniLoc2 mean (m)", "+map matching (m)",
               "UniLoc2 p90 (m)", "+map matching p90 (m)"});

  for (std::size_t path : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
    core::Uniloc uniloc = core::make_uniloc(campus, models, {}, false,
                                            500 + path);
    bench::instrument(uniloc, campus);
    core::MapMatcher matcher(campus.place.get());

    sim::WalkConfig wc;
    wc.seed = 2024 + path;
    sim::Walker walker(campus.place.get(), campus.radio.get(), path, wc);
    uniloc.reset({walker.start_position(), walker.start_heading()});
    core::EpochScratch scratch;
    matcher.reset();

    std::vector<double> raw, matched;
    while (!walker.done()) {
      const sim::SensorFrame f = walker.step(uniloc.gps_enabled());
      const core::EpochDecision& d = uniloc.update_fast(f, scratch);
      raw.push_back(geo::distance(d.uniloc2, f.truth_pos));
      matched.push_back(
          geo::distance(matcher.update(d.uniloc2), f.truth_pos));
    }
    t.add_row({campus.place->walkways()[path].name,
               io::Table::num(stats::mean(raw)),
               io::Table::num(stats::mean(matched)),
               io::Table::num(stats::percentile(raw, 90.0)),
               io::Table::num(stats::percentile(matched, 90.0))});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\nMap matching is a drop-in post-processor over the fused "
              "stream (%zu HMM states for the whole campus).\n",
              core::MapMatcher(campus.place.get()).num_states());

  bench::report_json(bench_report);
  return 0;
}
