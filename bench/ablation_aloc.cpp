// Ablation: UniLoc vs the A-Loc baseline ([28]).
//
// A-Loc picks the cheapest scheme that meets an accuracy requirement; it
// saves energy but (a) never combines outputs and (b) an aggressive
// requirement forces it onto expensive schemes. The paper's two
// differences (Sec. VI) are exactly what this bench quantifies: accuracy
// (UniLoc2 combines, A-Loc selects) and the energy/accuracy trade-off.
#include <cstdio>

#include "bench_util.h"
#include "core/epoch_scratch.h"
#include "core/aloc_baseline.h"
#include "sim/walker.h"

using namespace uniloc;

int main() {
  obs::BenchReport bench_report = bench::make_report("ablation_aloc");
  const core::TrainedModels& models = bench::standard_models();
  core::Deployment campus = core::make_deployment(sim::campus());

  std::printf("Ablation -- UniLoc vs A-Loc [28] on Path 1\n\n");
  io::Table t({"policy", "mean err (m)", "p90 (m)", "avg sensor power (mW)"});

  for (double req : {5.0, 10.0, 20.0}) {
    const core::ALocSelector aloc(core::standard_scheme_costs(), req);
    core::Uniloc uniloc = core::make_uniloc(campus, models);
    bench::instrument(uniloc, campus);

    sim::WalkConfig wc;
    wc.seed = 2024;
    sim::Walker walker(campus.place.get(), campus.radio.get(), 0, wc);
    uniloc.reset({walker.start_position(), walker.start_heading()});
    core::EpochScratch scratch;

    std::vector<double> errs;
    double power_sum = 0.0;
    std::size_t epochs = 0;
    while (!walker.done()) {
      // A-Loc drives its own duty cycling: it only samples the sensor of
      // the scheme it selected; for comparability we let all sensors run
      // and account the selected scheme's marginal power.
      const sim::SensorFrame f = walker.step(true);
      const core::EpochDecision& d = uniloc.update_fast(f, scratch);
      const int pick = aloc.select(d.outputs, d.predicted_error);
      ++epochs;
      if (pick >= 0) {
        errs.push_back(geo::distance(
            d.outputs[static_cast<std::size_t>(pick)].estimate, f.truth_pos));
        power_sum +=
            core::standard_scheme_costs()[static_cast<std::size_t>(pick)]
                .power_mw;
      }
    }
    t.add_row({"A-Loc, req " + io::Table::num(req, 0) + " m",
               io::Table::num(stats::mean(errs)),
               io::Table::num(stats::percentile(errs, 90.0)),
               io::Table::num(power_sum / static_cast<double>(epochs), 1)});
  }

  // UniLoc2 for reference (runs everything; sensors ~104 mW marginal with
  // duty-cycled GPS, see Table IV).
  core::Uniloc uniloc = core::make_uniloc(campus, models);
  bench::instrument(uniloc, campus);
  core::RunOptions opts;
  opts.walk.seed = 2024;
  const core::RunResult run = core::run_walk(uniloc, campus, 0, opts);
  t.add_row({"UniLoc2 (all schemes)",
             io::Table::num(stats::mean(run.uniloc2_errors())),
             io::Table::num(stats::percentile(run.uniloc2_errors(), 90.0)),
             "~100 (Table IV)"});
  std::printf("%s", t.to_string().c_str());
  std::printf("\nA-Loc trades accuracy for energy by selection; UniLoc "
              "spends slightly more power to combine everything and wins "
              "on accuracy (paper Sec. VI).\n");

  bench::report_json(bench_report);
  return 0;
}
