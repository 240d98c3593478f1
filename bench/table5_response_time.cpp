// Table V: average response time of one location estimate, decomposed
// into phone-side sensing/pre-processing, uplink, server-side scheme
// execution (parallel => max over schemes), error prediction, BMA, and
// downlink.
//
// Server compute is *measured* on this machine from the pipeline the
// service runs: one campus walk through Uniloc::update_fast with its
// stage histograms attached -- `scheme.<name>.localize_us` per scheme,
// `uniloc.fuse_us` for confidences + BMA, and `uniloc.update_us` for the
// whole epoch. Feature extraction and error prediction are the remainder
// of the epoch once the schemes and fusion are taken out; that remainder
// is ensemble-wide (it also holds the I/O detector, the location
// predictor and the GPS duty-cycle decision), not per scheme. Network
// latencies are constants (see energy/latency_model.h). Paper shape:
// transmissions dominate (~73% of the total); the computation UniLoc
// adds on top of the schemes is a few milliseconds.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "core/epoch_scratch.h"
#include "energy/latency_model.h"

using namespace uniloc;

int main() {
  obs::BenchReport bench_report = bench::make_report("table5_response_time");
  const core::TrainedModels& models = bench::standard_models();
  core::Deployment campus = core::make_deployment(sim::campus());
  core::Uniloc uniloc = core::make_uniloc(campus, models, {}, false, 5);
  obs::MetricsRegistry& registry = obs::default_registry();
  uniloc.attach_metrics(&registry);

  // GPS stays on every epoch so its execution time is measured too (the
  // duty-cycle controller would keep it off indoors).
  sim::WalkConfig wc;
  wc.seed = 77;
  sim::Walker walker(campus.place.get(), campus.radio.get(), 0, wc);
  uniloc.reset({walker.start_position(), walker.start_heading()});
  core::EpochScratch scratch;
  std::size_t epochs = 0;
  while (!walker.done()) {
    uniloc.update_fast(walker.step(true), scratch);
    ++epochs;
  }
  uniloc.attach_metrics(nullptr);

  const auto mean_ms = [&registry](const std::string& name) {
    return registry.histogram(name).mean() / 1000.0;
  };
  std::vector<energy::SchemeCompute> computes;
  double schemes_ms = 0.0;
  for (const std::string& name : uniloc.scheme_names()) {
    const double ms = mean_ms("scheme." + name + ".localize_us");
    computes.push_back({name, ms, 0.0});
    schemes_ms += ms;
  }
  const double fuse_ms = mean_ms("uniloc.fuse_us");
  const double remainder_ms =
      std::max(0.0, mean_ms("uniloc.update_us") - schemes_ms - fuse_ms);
  // The ensemble-wide remainder and the fusion stage together are the
  // computation UniLoc adds on top of the schemes.
  const energy::ResponseTimeReport report =
      energy::make_report(std::move(computes), remainder_ms + fuse_ms);

  std::printf("Table V -- average response time for one location estimate "
              "(measured over %zu epochs of Uniloc::update_fast)\n\n",
              epochs);
  io::Table t({"component", "time (ms)"});
  t.add_row({"phone: sensing + pre-processing",
             io::Table::num(report.phone_ms, 1)});
  t.add_row({"uplink", io::Table::num(report.uplink_ms, 1)});
  for (const energy::SchemeCompute& s : report.schemes) {
    t.add_row({"server: " + s.name + " execution",
               io::Table::num(s.server_ms, 3)});
  }
  t.add_row({"server: features + error prediction (ensemble-wide)*",
             io::Table::num(remainder_ms, 3)});
  t.add_row({"server: confidences + BMA", io::Table::num(fuse_ms, 3)});
  t.add_row({"server total (parallel schemes)",
             io::Table::num(report.server_ms(), 2)});
  t.add_row({"downlink", io::Table::num(report.downlink_ms, 1)});
  t.add_row({"TOTAL", io::Table::num(report.total_ms(), 1)});
  std::printf("%s", t.to_string().c_str());

  std::printf("\n* the remainder of uniloc.update_us after the schemes and "
              "fusion: it covers every scheme's features and prediction "
              "plus the I/O detector, location predictor and GPS duty "
              "decision, and is not split per scheme.\n");
  std::printf("\nTransmissions are %.0f%% of the response time "
              "(paper: 73%%); the computation UniLoc adds (features + error "
              "prediction + BMA) is %.2f ms (paper: ~6.1 ms).\n",
              100.0 * report.transmission_fraction(), report.bma_ms);

  bench_report.add_scalar("phone_ms", report.phone_ms);
  bench_report.add_scalar("uplink_ms", report.uplink_ms);
  bench_report.add_scalar("downlink_ms", report.downlink_ms);
  bench_report.add_scalar("server_ms", report.server_ms());
  bench_report.add_scalar("bma_ms", fuse_ms);
  bench_report.add_scalar("error_prediction_ms", remainder_ms);
  bench_report.add_scalar("total_ms", report.total_ms());
  bench_report.add_scalar("transmission_fraction",
                          report.transmission_fraction());
  for (const energy::SchemeCompute& s : report.schemes) {
    bench_report.add_scalar("server_ms." + s.name, s.server_ms);
  }
  bench::report_json(bench_report);
  return 0;
}
