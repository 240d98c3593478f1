#include "core/runner.h"

#include <limits>
#include <optional>
#include <stdexcept>

#include "core/epoch_scratch.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace uniloc::core {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The per-scheme vectors of an EpochRecord are documented (and consumed
/// by the trace sink, the usage accessors, and every bench) as
/// index-aligned with RunResult::scheme_names; catch any drift at the
/// point of recording rather than as a corrupt table downstream.
void check_scheme_alignment(const EpochRecord& rec, std::size_t n) {
  if (rec.scheme_available.size() != n || rec.scheme_err.size() != n ||
      rec.predicted_mu.size() != n || rec.confidence.size() != n ||
      rec.weight.size() != n) {
    throw std::logic_error(
        "run_walk: EpochRecord scheme vectors are not index-aligned with "
        "scheme_names");
  }
}

obs::TraceEvent make_trace_event(const RunResult& result,
                                 const EpochRecord& rec,
                                 const EpochDecision& dec) {
  obs::TraceEvent ev;
  ev.epoch = result.epochs.size();
  ev.t = rec.t;
  ev.indoor = dec.indoor;
  ev.tau = dec.tau;
  ev.uniloc1_choice = rec.uniloc1_choice;
  ev.oracle_choice = rec.oracle_choice;
  ev.gps_was_enabled = rec.gps_was_enabled;
  ev.gps_enable_next = dec.gps_enable_next;
  ev.uniloc1_x = dec.uniloc1.x;
  ev.uniloc1_y = dec.uniloc1.y;
  ev.uniloc2_x = dec.uniloc2.x;
  ev.uniloc2_y = dec.uniloc2.y;
  ev.has_truth = true;
  ev.truth_x = rec.truth.x;
  ev.truth_y = rec.truth.y;
  ev.uniloc1_err = rec.uniloc1_err;
  ev.uniloc2_err = rec.uniloc2_err;
  ev.schemes.reserve(result.scheme_names.size());
  for (std::size_t i = 0; i < result.scheme_names.size(); ++i) {
    obs::SchemeTrace st;
    st.name = result.scheme_names[i];
    st.available = rec.scheme_available[i];
    if (st.available) {
      st.predicted_mu = dec.predicted_error[i].mean;
      st.predicted_sigma = dec.predicted_error[i].sd;
    }
    st.confidence = rec.confidence[i];
    st.weight = rec.weight[i];
    st.error_m = rec.scheme_err[i];
    ev.schemes.push_back(std::move(st));
  }
  return ev;
}
}  // namespace

std::vector<double> RunResult::scheme_errors(std::size_t i) const {
  std::vector<double> out;
  for (const EpochRecord& e : epochs) {
    if (i < e.scheme_err.size() && !std::isnan(e.scheme_err[i])) {
      out.push_back(e.scheme_err[i]);
    }
  }
  return out;
}

std::vector<double> RunResult::uniloc1_errors() const {
  std::vector<double> out;
  out.reserve(epochs.size());
  for (const EpochRecord& e : epochs) out.push_back(e.uniloc1_err);
  return out;
}

std::vector<double> RunResult::uniloc2_errors() const {
  std::vector<double> out;
  out.reserve(epochs.size());
  for (const EpochRecord& e : epochs) out.push_back(e.uniloc2_err);
  return out;
}

std::vector<double> RunResult::oracle_errors() const {
  std::vector<double> out;
  out.reserve(epochs.size());
  for (const EpochRecord& e : epochs) out.push_back(e.oracle_err);
  return out;
}

std::vector<double> RunResult::uniloc1_usage() const {
  std::vector<double> usage(scheme_names.size(), 0.0);
  if (epochs.empty()) return usage;
  for (const EpochRecord& e : epochs) {
    if (e.uniloc1_choice >= 0) {
      usage[static_cast<std::size_t>(e.uniloc1_choice)] += 1.0;
    }
  }
  for (double& u : usage) u /= static_cast<double>(epochs.size());
  return usage;
}

std::vector<double> RunResult::oracle_usage() const {
  std::vector<double> usage(scheme_names.size(), 0.0);
  if (epochs.empty()) return usage;
  for (const EpochRecord& e : epochs) {
    if (e.oracle_choice >= 0) {
      usage[static_cast<std::size_t>(e.oracle_choice)] += 1.0;
    }
  }
  for (double& u : usage) u /= static_cast<double>(epochs.size());
  return usage;
}

double RunResult::gps_duty_fraction() const {
  if (epochs.empty()) return 0.0;
  double on = 0.0;
  for (const EpochRecord& e : epochs) on += e.gps_was_enabled ? 1.0 : 0.0;
  return on / static_cast<double>(epochs.size());
}

void RunResult::append(const RunResult& other) {
  if (scheme_names.empty()) scheme_names = other.scheme_names;
  epochs.insert(epochs.end(), other.epochs.begin(), other.epochs.end());
}

Uniloc make_uniloc(const Deployment& d, const TrainedModels& models,
                   UnilocConfig cfg, bool calibrate_offset,
                   std::uint64_t seed) {
  cfg.place = d.place.get();
  cfg.wifi_db = d.wifi_db.get();
  cfg.cell_db = d.cell_db.get();
  Uniloc u(cfg);
  for (schemes::SchemePtr& s : make_standard_schemes(d, calibrate_offset,
                                                     seed)) {
    const schemes::SchemeFamily family = s->family();
    u.add_scheme(std::move(s), models.for_family(family));
  }
  return u;
}

RunResult run_walk(Uniloc& uniloc, const Deployment& d,
                   std::size_t walkway_index, const RunOptions& opts) {
  RunResult result;
  result.scheme_names = uniloc.scheme_names();

  sim::Walker walker(d.place.get(), d.radio.get(), walkway_index, opts.walk);
  uniloc.reset({walker.start_position(), walker.start_heading()});
  uniloc.attach_tracer(opts.tracer);

  EpochScratch scratch;
  int step_idx = 0;
  while (!walker.done()) {
    const bool gps_on = opts.use_gps_duty_cycle ? uniloc.gps_enabled() : true;
    const sim::SensorFrame frame = walker.step(gps_on);
    obs::ScopedSpan epoch_span(opts.tracer, "core.epoch", "core");
    std::optional<obs::TraceScope> epoch_scope;
    if (opts.tracer != nullptr) {
      epoch_scope.emplace(
          obs::TraceContext{epoch_span.trace(), epoch_span.id(), 0});
    }
    const EpochDecision& dec = uniloc.update_fast(frame, scratch);
    epoch_scope.reset();
    epoch_span.finish();
    ++step_idx;
    if (step_idx % opts.record_every != 0) continue;

    EpochRecord rec;
    rec.t = frame.t;
    rec.arclen = frame.truth_arclen;
    rec.truth = frame.truth_pos;
    rec.env = frame.truth_env;
    rec.indoor_truth = sim::is_indoor(frame.truth_env);
    rec.indoor_detected = dec.indoor;
    rec.gps_was_enabled = gps_on;
    rec.wifi_count = frame.wifi.size();
    rec.cell_count = frame.cell.size();

    const std::size_t n = dec.outputs.size();
    rec.scheme_available.resize(n);
    rec.scheme_err.assign(n, kNaN);
    rec.predicted_mu.assign(n, kNaN);
    rec.confidence = dec.confidence;
    rec.weight = dec.weight;
    for (std::size_t i = 0; i < n; ++i) {
      rec.scheme_available[i] = dec.outputs[i].available;
      if (dec.outputs[i].available) {
        rec.scheme_err[i] =
            geo::distance(dec.outputs[i].estimate, frame.truth_pos);
        rec.predicted_mu[i] = dec.predicted_error[i].mean;
      }
    }

    rec.uniloc1_err = geo::distance(dec.uniloc1, frame.truth_pos);
    rec.uniloc2_err = geo::distance(dec.uniloc2, frame.truth_pos);
    rec.uniloc1_choice = dec.selected;
    rec.oracle_choice = oracle_choice(dec.outputs, frame.truth_pos);
    rec.oracle_err =
        rec.oracle_choice >= 0
            ? rec.scheme_err[static_cast<std::size_t>(rec.oracle_choice)]
            : rec.uniloc2_err;
    if (opts.global_bma != nullptr) {
      rec.global_bma_err =
          geo::distance(opts.global_bma->combine(dec.outputs), frame.truth_pos);
    }
    check_scheme_alignment(rec, result.scheme_names.size());
    if (opts.trace != nullptr) {
      opts.trace->on_epoch(make_trace_event(result, rec, dec));
    }
    result.epochs.push_back(std::move(rec));
  }
  if (opts.trace != nullptr) opts.trace->flush();
  uniloc.attach_tracer(nullptr);  // the tracer only outlives the walk
  return result;
}

}  // namespace uniloc::core
