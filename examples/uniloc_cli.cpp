// uniloc_cli: record / replay sensor traces from the command line.
//
//   uniloc_cli venues
//   uniloc_cli record <venue> <walkway-index> <seed> <out.trace>
//   uniloc_cli replay <venue> <trace-file> [--cold-start]
//                     [--trace <out.jsonl>] [--metrics]
//
//   uniloc_cli serve-sim [--venue <name>] [--walkers N] [--workers W]
//                        [--shards K] [--epochs E] [--seed S]
//                        [--faults <plan>] [--metrics] [--statusz]
//                        [--trace-spans <file>] [--flight <file>]
//
// `record` walks a venue and saves the full sensor stream (dataset
// collection). `replay` runs UniLoc offline over a saved trace and prints
// accuracy -- identical inputs for every algorithm variant you evaluate.
// `serve-sim` stands up the src/svc multi-session LocalizationServer
// in-process and drives it with N simulated phones over the venue's
// walkways (the svc wire protocol end to end), printing throughput,
// latency percentiles, per-walker accuracy, and wire traffic. With
// --shards K (K > 1) the endpoint is instead a shard::ShardRouter over K
// in-process shards: consistent-hash session placement, per-round fleet
// checkpoints, and live rebalancing (DESIGN.md section 14); --statusz
// then dumps every shard via the kStatus admin frame (session id =
// shard index).
// With --faults every phone's link goes through a fault::FaultyLink; the
// plan is comma-separated key=value pairs, e.g.
//   --faults drop=0.02,corrupt=0.01,dup=0.01,delay_ms=50,blackout=10:20
// (rates are per-request probabilities; `blackout=a:b` takes the link
// down for send indices [a, b) and may repeat; `seed` defaults to the
// load seed). Phones retry with backoff and fall back to local PDR
// dead-reckoning during outages -- same machinery as tests/test_fault.cc.
// With --cold-start the recorded start position is withheld and UniLoc
// bootstraps it from the first WiFi scans (Zee-style).
// With --trace every epoch's full decision (scheme availability,
// predicted error, confidence, weights, UniLoc1's pick, GPS duty) is
// streamed as one JSON object per line. With --metrics the per-stage
// latency histograms are printed when the replay finishes.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "core/cold_start.h"
#include "core/epoch_scratch.h"
#include "core/runner.h"
#include "fault/link.h"
#include "fault/plan.h"
#include "io/table.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "shard/router.h"
#include "sim/trace_io.h"
#include "stats/descriptive.h"
#include "svc/checkpoint.h"
#include "svc/committer.h"
#include "svc/loadgen.h"
#include "svc/server.h"

using namespace uniloc;

namespace {

const char* kVenues[] = {"campus", "office", "open_space", "mall"};

sim::Place venue_by_name(const std::string& name, std::uint64_t seed) {
  if (name == "campus") return sim::campus(seed);
  if (name == "office") return sim::office_place(seed);
  if (name == "open_space") return sim::open_space_place(seed);
  if (name == "mall") return sim::mall_place(seed);
  throw std::runtime_error("unknown venue: " + name);
}

int cmd_venues() {
  std::printf("venue       walkways  length(m)\n");
  for (const char* name : kVenues) {
    const sim::Place p = venue_by_name(name, 42);
    std::printf("%-11s %8zu %10.0f\n", name, p.walkways().size(),
                p.total_walkway_length());
  }
  return 0;
}

int cmd_record(const std::string& venue, std::size_t walkway,
               std::uint64_t seed, const std::string& out) {
  core::Deployment d = core::make_deployment(
      venue_by_name(venue, 42), core::DeploymentOptions{.seed = 42});
  sim::WalkConfig wc;
  wc.seed = seed;
  sim::Walker walker(d.place.get(), d.radio.get(), walkway, wc);

  sim::Trace trace;
  trace.venue = venue;
  trace.step_period_s = wc.gait.step_period_s;
  trace.start_pos = walker.start_position();
  trace.start_heading = walker.start_heading();
  while (!walker.done()) trace.frames.push_back(walker.step(true));
  sim::write_trace(trace, out);
  std::printf("recorded %zu frames (%.0f m walk) to %s\n",
              trace.frames.size(),
              d.place->walkways()[walkway].line.length(), out.c_str());
  return 0;
}

struct ReplayOptions {
  bool cold_start{false};
  std::string trace_out;  ///< Empty: no JSONL tracing.
  bool metrics{false};
};

/// One replay epoch -> trace event (the recorded trace carries truth, so
/// per-scheme errors and the oracle pick are filled in).
obs::TraceEvent make_trace_event(const core::Uniloc& uniloc,
                                 const core::EpochDecision& dec,
                                 const sim::SensorFrame& frame,
                                 std::uint64_t epoch, double t,
                                 bool gps_was_enabled) {
  obs::TraceEvent ev;
  ev.epoch = epoch;
  ev.t = t;
  ev.indoor = dec.indoor;
  ev.tau = dec.tau;
  ev.uniloc1_choice = dec.selected;
  ev.gps_was_enabled = gps_was_enabled;
  ev.gps_enable_next = dec.gps_enable_next;
  ev.uniloc1_x = dec.uniloc1.x;
  ev.uniloc1_y = dec.uniloc1.y;
  ev.uniloc2_x = dec.uniloc2.x;
  ev.uniloc2_y = dec.uniloc2.y;
  ev.has_truth = true;
  ev.truth_x = frame.truth_pos.x;
  ev.truth_y = frame.truth_pos.y;
  ev.uniloc1_err = geo::distance(dec.uniloc1, frame.truth_pos);
  ev.uniloc2_err = geo::distance(dec.uniloc2, frame.truth_pos);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < dec.outputs.size(); ++i) {
    obs::SchemeTrace st;
    st.name = uniloc.scheme(i).name();
    st.available = dec.outputs[i].available;
    st.confidence = dec.confidence[i];
    st.weight = dec.weight[i];
    if (st.available) {
      st.predicted_mu = dec.predicted_error[i].mean;
      st.predicted_sigma = dec.predicted_error[i].sd;
      st.error_m = geo::distance(dec.outputs[i].estimate, frame.truth_pos);
      if (st.error_m < best) {
        best = st.error_m;
        ev.oracle_choice = static_cast<int>(i);
      }
    }
    ev.schemes.push_back(std::move(st));
  }
  return ev;
}

int cmd_replay(const std::string& venue, const std::string& path,
               const ReplayOptions& ropts) {
  const sim::Trace trace = sim::read_trace(path);
  if (trace.venue != venue) {
    std::fprintf(stderr, "warning: trace was recorded in '%s'\n",
                 trace.venue.c_str());
  }
  // Open the trace output first so a bad path fails before the slow
  // model training.
  std::unique_ptr<obs::JsonlTraceSink> sink;
  if (!ropts.trace_out.empty()) {
    sink = std::make_unique<obs::JsonlTraceSink>(ropts.trace_out);
  }
  std::printf("training error models...\n");
  const core::TrainedModels models = core::train_standard_models(42, 300);
  core::Deployment d = core::make_deployment(
      venue_by_name(venue, 42), core::DeploymentOptions{.seed = 42});
  core::Uniloc uniloc = core::make_uniloc(d, models);

  obs::MetricsRegistry registry;
  if (ropts.metrics) {
    uniloc.attach_metrics(&registry);
    if (d.wifi_db) d.wifi_db->attach_metrics(&registry, "fpdb.wifi");
    if (d.cell_db) d.cell_db->attach_metrics(&registry, "fpdb.cell");
  }
  std::size_t first_frame = 0;
  if (ropts.cold_start) {
    core::ColdStartLocator locator(d.wifi_db.get());
    std::optional<schemes::StartCondition> start;
    while (first_frame < trace.frames.size() && !start.has_value()) {
      start = locator.observe(trace.frames[first_frame++]);
    }
    if (!start.has_value()) {
      std::fprintf(stderr, "cold start failed: no usable WiFi scans\n");
      return 1;
    }
    std::printf("cold start after %zu frames: (%.1f, %.1f), true start "
                "(%.1f, %.1f) -> %.1f m off\n",
                first_frame, start->pos.x, start->pos.y, trace.start_pos.x,
                trace.start_pos.y,
                geo::distance(start->pos, trace.start_pos));
    uniloc.reset(*start);
  } else {
    uniloc.reset({trace.start_pos, trace.start_heading});
  }

  core::EpochScratch scratch;
  std::vector<double> u1, u2;
  for (std::size_t i = first_frame; i < trace.frames.size(); ++i) {
    const bool gps_was_enabled = uniloc.gps_enabled();
    const core::EpochDecision& dec =
        uniloc.update_fast(trace.frames[i], scratch);
    u1.push_back(geo::distance(dec.uniloc1, trace.frames[i].truth_pos));
    u2.push_back(geo::distance(dec.uniloc2, trace.frames[i].truth_pos));
    if (sink) {
      sink->on_epoch(make_trace_event(
          uniloc, dec, trace.frames[i], u1.size() - 1,
          static_cast<double>(i) * trace.step_period_s, gps_was_enabled));
    }
  }
  std::printf("replayed %zu frames: UniLoc1 mean %.2f m (p90 %.2f), "
              "UniLoc2 mean %.2f m (p90 %.2f)\n",
              u1.size(), stats::mean(u1), stats::percentile(u1, 90.0),
              stats::mean(u2), stats::percentile(u2, 90.0));
  if (sink) {
    sink->flush();
    std::printf("wrote %zu trace events to %s\n", sink->events_written(),
                ropts.trace_out.c_str());
  }
  if (ropts.metrics) {
    std::printf("\nper-stage metrics:\n%s",
                registry.to_table().to_string().c_str());
  }
  return 0;
}

struct ServeSimOptions {
  std::string venue{"campus"};
  std::size_t walkers{8};
  int workers{2};
  /// 1 = one LocalizationServer (the classic path). >1 = a ShardRouter
  /// over this many in-process shards, each with its own `workers`-thread
  /// pool, rebalanced once per round.
  std::size_t shards{1};
  std::size_t epochs{50};  ///< Per walker; 0 = full paths.
  std::uint64_t seed{2024};
  std::string faults;  ///< Empty: perfect wire.
  /// Empty: no checkpointing. Otherwise the server persists a wave
  /// chain into <dir> (quantized keyframe + delta waves, published
  /// atomically by an async group committer), restores from any chain
  /// already there at startup, and flushes a final wave when the run
  /// drains.
  std::string checkpoint_dir;
  bool metrics{false};
  /// Query the server's kStatus admin frame when the run drains and
  /// print both the JSON and the Prometheus renderings.
  bool statusz{false};
  std::string trace_spans;  ///< Empty: no span tracing. Else JSONL path.
  std::string flight_out;   ///< Empty: no flight recorder. Else JSONL path.
};

/// Parse a `--faults` spec ("drop=0.02,delay_ms=50,blackout=10:20,...")
/// into a FaultPlan. Throws std::runtime_error on unknown keys.
fault::FaultPlan parse_fault_plan(const std::string& spec,
                                  std::uint64_t default_seed) {
  fault::FaultRates rates;
  std::uint64_t seed = default_seed;
  std::vector<std::pair<std::size_t, std::size_t>> blackouts;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("--faults item needs key=value: " + item);
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    if (key == "drop") {
      rates.drop = std::stod(val);
    } else if (key == "dup" || key == "duplicate") {
      rates.duplicate = std::stod(val);
    } else if (key == "reorder") {
      rates.reorder = std::stod(val);
    } else if (key == "corrupt") {
      rates.corrupt = std::stod(val);
    } else if (key == "delay_ms") {
      rates.base_delay_us =
          static_cast<std::uint64_t>(std::stod(val) * 1000.0);
    } else if (key == "jitter_ms") {
      rates.jitter_delay_us =
          static_cast<std::uint64_t>(std::stod(val) * 1000.0);
    } else if (key == "seed") {
      seed = std::stoull(val);
    } else if (key == "blackout") {
      const std::size_t colon = val.find(':');
      if (colon == std::string::npos) {
        throw std::runtime_error("blackout needs from:to, got " + val);
      }
      blackouts.emplace_back(std::stoul(val.substr(0, colon)),
                             std::stoul(val.substr(colon + 1)));
    } else {
      throw std::runtime_error("unknown --faults key: " + key);
    }
  }
  fault::FaultPlan plan(seed, rates);
  for (const auto& [from, to] : blackouts) plan.add_blackout(from, to);
  return plan;
}

int cmd_serve_sim(const ServeSimOptions& sopts) {
  std::printf("training error models...\n");
  const core::TrainedModels models = core::train_standard_models(42, 300);
  core::Deployment d = core::make_deployment(
      venue_by_name(sopts.venue, 42), core::DeploymentOptions{.seed = 42});

  obs::MetricsRegistry registry;
  svc::ServerConfig cfg;
  cfg.workers = sopts.workers;

  // Observability sidecars: span tracing to JSONL (feed the file to
  // scripts/trace2chrome.py), a per-session flight recorder dumped when
  // the run drains, and an SLO monitor rendered by the status dumps.
  std::unique_ptr<obs::JsonlSpanSink> span_sink;
  std::unique_ptr<obs::SpanTracer> tracer;
  if (!sopts.trace_spans.empty()) {
    span_sink = std::make_unique<obs::JsonlSpanSink>(sopts.trace_spans);
    tracer = std::make_unique<obs::SpanTracer>(span_sink.get());
    cfg.tracer = tracer.get();
  }
  std::unique_ptr<obs::FlightRecorder> flight;
  if (!sopts.flight_out.empty()) {
    flight = std::make_unique<obs::FlightRecorder>();
    cfg.flight = flight.get();
  }
  obs::SloMonitor slo({}, &registry);
  cfg.slo = &slo;
  const bool sharded = sopts.shards > 1;
  // The committer outlives the server (declared first): the server's
  // final wave may still sit in its queue when the server destructs.
  std::unique_ptr<svc::GroupCommitter> committer;
  if (!sopts.checkpoint_dir.empty() && !sharded) {
    committer = std::make_unique<svc::GroupCommitter>();
    cfg.checkpoint_period_us = 1'000'000;  // wall-clock second
    cfg.checkpoint_dir = sopts.checkpoint_dir;
    cfg.snapshot_quantize = true;  // v2 waves: the durable-chain codec
    cfg.committer = committer.get();
  }
  svc::UnilocFactory factory = [&](std::uint64_t sid) {
    return std::make_unique<core::Uniloc>(
        core::make_uniloc(d, models, {}, false, 7 + sid));
  };
  std::unique_ptr<svc::LocalizationServer> server;
  std::unique_ptr<shard::ShardRouter> router;
  svc::Endpoint* endpoint = nullptr;
  if (sharded) {
    if (!sopts.checkpoint_dir.empty()) {
      std::printf("note: --checkpoint-dir is per-server; the fleet keeps "
                  "in-RAM shard checkpoints (checkpoint_all) instead\n");
    }
    shard::RouterConfig rc;
    rc.shards = sopts.shards;
    rc.server = cfg;
    router = std::make_unique<shard::ShardRouter>(std::move(rc), factory,
                                                  &registry);
    endpoint = router.get();
  } else {
    server = std::make_unique<svc::LocalizationServer>(cfg, factory,
                                                       &registry);
    endpoint = server.get();
    if (!sopts.checkpoint_dir.empty()) {
      // Crash recovery: resume whatever chain a previous run left here.
      const svc::LocalizationServer::ChainRestoreResult r =
          server->restore_chain();
      if (r.ok) {
        std::printf("restored %zu sessions from the wave chain in %s "
                    "(seq %llu, %zu deltas, %zu waves rejected)\n",
                    server->live_sessions(), sopts.checkpoint_dir.c_str(),
                    static_cast<unsigned long long>(r.seq),
                    r.deltas_applied, r.waves_rejected);
      }
    }
  }

  if (sharded) {
    std::printf("serving %zu walkers on '%s' across %zu shards x %d "
                "workers%s...\n",
                sopts.walkers, sopts.venue.c_str(), sopts.shards,
                sopts.workers, sopts.faults.empty() ? "" : " (faulty wire)");
  } else {
    std::printf("serving %zu walkers on '%s' with %d workers%s...\n",
                sopts.walkers, sopts.venue.c_str(), sopts.workers,
                sopts.faults.empty() ? "" : " (faulty wire)");
  }
  svc::LoadGenConfig lg;
  lg.walkers = sopts.walkers;
  lg.max_epochs_per_walker = sopts.epochs;
  lg.seed = sopts.seed;
  lg.tracer = tracer.get();
  lg.flight = flight.get();
  std::optional<fault::FaultPlan> plan;
  if (!sopts.faults.empty()) {
    plan = parse_fault_plan(sopts.faults, sopts.seed);
    lg.make_link = [&plan, &registry, &tracer](svc::Endpoint& s,
                                               std::uint64_t sid) {
      return std::make_unique<fault::FaultyLink>(
          std::make_unique<svc::DirectLink>(&s), &*plan, sid, &registry,
          tracer.get());
    };
  }
  if (sharded) {
    // Fleet housekeeping between rounds: keep every shard's recovery
    // checkpoint fresh and let the rebalancer chase hot shards.
    lg.on_round = [&router](std::size_t) {
      router->checkpoint_all();
      router->rebalance();
    };
  }
  const svc::LoadReport report = svc::run_load(*endpoint, d, lg, &registry);
  if (!sopts.checkpoint_dir.empty() && !sharded) {
    // One final wave so the chain reflects the drained end state, then
    // drain the committer before reporting.
    server->checkpoint_wave_now();
    committer->flush();
    const svc::LocalizationServer::CheckpointStats cs =
        server->checkpoint_stats();
    std::printf("wrote %llu waves (%llu keyframes, %llu delta records, "
                "%llu publish failures) to %s\n",
                static_cast<unsigned long long>(cs.waves),
                static_cast<unsigned long long>(cs.keyframes),
                static_cast<unsigned long long>(cs.delta_records),
                static_cast<unsigned long long>(cs.publish_failures),
                sopts.checkpoint_dir.c_str());
  }
  if (sopts.statusz) {
    // Live introspection through the wire protocol itself: the same
    // kStatus frame an operator's admin socket would submit. On a fleet
    // the frame's session id names the shard, so each shard dumps its
    // own health.
    const std::size_t targets = sharded ? sopts.shards : 1;
    for (std::size_t k = 0; k < targets; ++k) {
      for (const svc::StatusFormat fmt :
           {svc::StatusFormat::kJson, svc::StatusFormat::kPrometheus}) {
        svc::Frame req;
        req.type = svc::FrameType::kStatus;
        req.session_id = k;
        req.payload = svc::encode_status_request(fmt);
        const std::vector<std::uint8_t> bytes =
            endpoint->submit(svc::encode_frame(req)).get();
        const svc::DecodeResult decoded = svc::decode_frame(bytes);
        if (decoded.frame.has_value() &&
            decoded.frame->type == svc::FrameType::kReply) {
          if (sharded) {
            std::printf("\n--- statusz shard %zu (%s) ---\n%.*s\n", k,
                        fmt == svc::StatusFormat::kJson ? "json"
                                                        : "prometheus",
                        static_cast<int>(decoded.frame->payload.size()),
                        reinterpret_cast<const char*>(
                            decoded.frame->payload.data()));
          } else {
            std::printf(
                "\n--- statusz (%s) ---\n%.*s\n",
                fmt == svc::StatusFormat::kJson ? "json" : "prometheus",
                static_cast<int>(decoded.frame->payload.size()),
                reinterpret_cast<const char*>(decoded.frame->payload.data()));
          }
        } else {
          std::fprintf(stderr, "statusz query failed\n");
        }
      }
    }
  }
  if (server != nullptr) server->shutdown();
  if (router != nullptr) router->shutdown();
  if (flight != nullptr) {
    if (flight->dump_to_file(sopts.flight_out)) {
      std::printf("wrote flight recorder (%llu events, %zu sessions) to "
                  "%s\n",
                  static_cast<unsigned long long>(flight->total_recorded()),
                  flight->session_ids().size(), sopts.flight_out.c_str());
    } else {
      std::fprintf(stderr, "warning: flight dump to %s failed\n",
                   sopts.flight_out.c_str());
    }
  }
  if (tracer != nullptr) {
    tracer->flush();
    std::printf("wrote %zu spans to %s (opened %llu, closed %llu)\n",
                span_sink->spans_written(), sopts.trace_spans.c_str(),
                static_cast<unsigned long long>(tracer->spans_opened()),
                static_cast<unsigned long long>(tracer->spans_closed()));
  }

  const bool chaos = plan.has_value();
  io::Table t = chaos
                    ? io::Table({"session", "walkway", "epochs", "local",
                                 "retries", "mean err (m)", "rejected"})
                    : io::Table({"session", "walkway", "epochs",
                                 "mean err (m)", "rejected"});
  for (const svc::WalkerOutcome& w : report.walkers) {
    if (chaos) {
      t.add_row({std::to_string(w.session_id), std::to_string(w.walkway),
                 std::to_string(w.epochs_accepted),
                 std::to_string(w.local_epochs), std::to_string(w.retries),
                 io::Table::num(w.mean_error_m),
                 std::to_string(w.backpressure + w.errors)});
    } else {
      t.add_row({std::to_string(w.session_id), std::to_string(w.walkway),
                 std::to_string(w.epochs_accepted),
                 io::Table::num(w.mean_error_m),
                 std::to_string(w.backpressure + w.errors)});
    }
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("%zu epochs in %.2f s: %.1f epochs/s, latency p50 %.1f ms "
              "p95 %.1f ms\n",
              report.total_epochs, report.wall_s, report.throughput_eps(),
              stats::percentile(report.latencies_us, 50.0) / 1000.0,
              stats::percentile(report.latencies_us, 95.0) / 1000.0);
  std::printf("wire traffic: uplink %.1f B/epoch, downlink %.1f B/epoch\n",
              report.traffic.uplink_bytes_per_epoch(),
              report.traffic.downlink_bytes_per_epoch());
  if (sharded) {
    std::printf("fleet: %llu migrations (%llu failed), %llu rebalance "
                "passes, %llu frames buffered mid-migration\n",
                static_cast<unsigned long long>(
                    registry.counter("shard.migrations").value()),
                static_cast<unsigned long long>(
                    registry.counter("shard.migration_failures").value()),
                static_cast<unsigned long long>(
                    registry.counter("shard.rebalances").value()),
                static_cast<unsigned long long>(
                    registry.counter("shard.buffered_frames").value()));
  }
  if (chaos) {
    std::printf("degradation: %zu retries, %zu timeouts, %zu local epochs, "
                "%zu B retransmitted\n",
                report.retries_total, report.timeouts_total,
                report.local_epochs_total,
                report.traffic.retransmitted_bytes);
  }
  if (sopts.metrics) {
    std::printf("\nservice metrics:\n%s",
                registry.to_table().to_string().c_str());
  }
  // With faults on, recovered errors (e.g. corrupted frames the server
  // rejected and the phone retransmitted) are the expected outcome.
  return (chaos || report.error_total == 0) ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  uniloc_cli venues\n"
               "  uniloc_cli record <venue> <walkway> <seed> <out.trace>\n"
               "  uniloc_cli replay <venue> <trace> [--cold-start]\n"
               "                    [--trace <out.jsonl>] [--metrics]\n"
               "  uniloc_cli serve-sim [--venue <name>] [--walkers N]\n"
               "                    [--workers W] [--shards K] [--epochs E]\n"
               "                    [--seed S] [--faults <plan>]\n"
               "                    [--checkpoint-dir <dir>]\n"
               "                    [--metrics] [--statusz]\n"
               "                    [--trace-spans <out.jsonl>]\n"
               "                    [--flight <out.jsonl>]\n"
               "      <plan>: drop=P,dup=P,reorder=P,corrupt=P,delay_ms=D,\n"
               "              jitter_ms=J,seed=S,blackout=a:b[,...]\n"
               "      --shards: K > 1 serves the fleet path -- a\n"
               "              ShardRouter over K in-process shards\n"
               "              (consistent-hash placement, per-round\n"
               "              checkpoints + rebalancing); statusz then\n"
               "              dumps every shard\n"
               "      --checkpoint-dir: persist a delta wave chain into\n"
               "              <dir> every second (quantized keyframe +\n"
               "              delta waves, async group commit), restore\n"
               "              any chain found there at startup, and flush\n"
               "              a final wave when the run drains\n"
               "      --statusz: print the server's kStatus dump (JSON and\n"
               "              Prometheus text) when the run drains\n"
               "      --trace-spans: stream causal spans as JSONL (convert\n"
               "              with scripts/trace2chrome.py)\n"
               "      --flight: dump the per-session flight recorder as\n"
               "              JSONL when the run drains\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    if (cmd == "venues") return cmd_venues();
    if (cmd == "record" && argc == 6) {
      return cmd_record(argv[2], std::stoul(argv[3]), std::stoull(argv[4]),
                        argv[5]);
    }
    if (cmd == "replay" && argc >= 4) {
      ReplayOptions ropts;
      for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--cold-start") {
          ropts.cold_start = true;
        } else if (arg == "--trace" && i + 1 < argc) {
          ropts.trace_out = argv[++i];
        } else if (arg == "--metrics") {
          ropts.metrics = true;
        } else {
          return usage();
        }
      }
      return cmd_replay(argv[2], argv[3], ropts);
    }
    if (cmd == "serve-sim") {
      ServeSimOptions sopts;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--venue" && i + 1 < argc) {
          sopts.venue = argv[++i];
        } else if (arg == "--walkers" && i + 1 < argc) {
          sopts.walkers = std::stoul(argv[++i]);
        } else if (arg == "--workers" && i + 1 < argc) {
          sopts.workers = std::stoi(argv[++i]);
        } else if (arg == "--shards" && i + 1 < argc) {
          sopts.shards = std::stoul(argv[++i]);
          if (sopts.shards == 0) sopts.shards = 1;
        } else if (arg == "--epochs" && i + 1 < argc) {
          sopts.epochs = std::stoul(argv[++i]);
        } else if (arg == "--seed" && i + 1 < argc) {
          sopts.seed = std::stoull(argv[++i]);
        } else if (arg == "--faults" && i + 1 < argc) {
          sopts.faults = argv[++i];
        } else if (arg == "--checkpoint-dir" && i + 1 < argc) {
          sopts.checkpoint_dir = argv[++i];
        } else if (arg == "--metrics") {
          sopts.metrics = true;
        } else if (arg == "--statusz") {
          sopts.statusz = true;
        } else if (arg == "--trace-spans" && i + 1 < argc) {
          sopts.trace_spans = argv[++i];
        } else if (arg == "--flight" && i + 1 < argc) {
          sopts.flight_out = argv[++i];
        } else {
          return usage();
        }
      }
      return cmd_serve_sim(sopts);
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
