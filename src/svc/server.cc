#include "svc/server.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timer.h"
#include "offload/bytes.h"
#include "offload/payload.h"
#include "svc/checkpoint.h"
#include "svc/delta.h"
#include "svc/epoch_codec.h"

namespace uniloc::svc {

namespace {

/// Refuses the retired knobs before any member (the worker pool
/// included) is built.
ServerConfig checked(ServerConfig cfg) {
  if (!cfg.use_fast_path || cfg.simulated_network.count() != 0) {
    throw std::invalid_argument(
        "ServerConfig: use_fast_path and simulated_network are retired; "
        "only their defaults (true, 0) are accepted");
  }
  return cfg;
}

}  // namespace

LocalizationServer::LocalizationServer(ServerConfig cfg,
                                       UnilocFactory factory,
                                       obs::MetricsRegistry* registry)
    : cfg_(checked(std::move(cfg))),
      factory_(std::move(factory)),
      registry_(registry),
      sessions_(cfg_.stripes),
      pool_(ThreadPool::Config{cfg_.workers, cfg_.pool_queue_capacity}) {
  if (registry != nullptr) {
    // Instruments are resolved once here, before any worker can observe;
    // the registry map itself is never touched from a worker thread.
    ins_.live_sessions = &registry->gauge("svc.live_sessions");
    ins_.queue_depth = &registry->gauge("svc.queue_depth");
    ins_.accepted = &registry->counter("svc.accepted");
    ins_.rejected = &registry->counter("svc.rejected");
    ins_.evicted = &registry->counter("svc.evicted");
    ins_.malformed = &registry->counter("svc.malformed");
    ins_.status_requests = &registry->counter("svc.status_requests");
    ins_.request_us = &registry->histogram("svc.request_us");
    ins_.parse_us = &registry->histogram("svc.parse_us");
    ins_.locate_us = &registry->histogram("svc.locate_us");
    ins_.perf_cache_hits = &registry->counter("perf.cache_hits");
    ins_.perf_cache_misses = &registry->counter("perf.cache_misses");
    ins_.perf_scratch_bytes = &registry->gauge("perf.scratch_bytes");
  }
}

LocalizationServer::~LocalizationServer() { shutdown(); }

std::uint64_t LocalizationServer::now_us() const {
  if (cfg_.now_us) return cfg_.now_us();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Counters and gauges are internally atomic (obs/metrics.h), so the
// count_* paths are lock-free; ins_.mu protects only the histograms.
void LocalizationServer::count_malformed() {
  if (ins_.malformed != nullptr) ins_.malformed->inc();
}

void LocalizationServer::count_accepted() {
  if (ins_.accepted != nullptr) ins_.accepted->inc();
  if (ins_.queue_depth != nullptr) {
    ins_.queue_depth->set(static_cast<double>(pool_.queue_depth()));
  }
}

void LocalizationServer::note_live_sessions() {
  if (ins_.live_sessions != nullptr) {
    ins_.live_sessions->set(static_cast<double>(sessions_.size()));
  }
}

std::future<std::vector<std::uint8_t>> LocalizationServer::reply_now(
    const Frame& reply) {
  std::promise<std::vector<std::uint8_t>> promise;
  promise.set_value(encode_frame(reply));
  return promise.get_future();
}

std::future<std::vector<std::uint8_t>> LocalizationServer::submit(
    std::vector<std::uint8_t> request) {
  bool scan_now = false;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (stopping_) {
      return reply_now(make_error_frame(0, ErrorCode::kShuttingDown));
    }
    if (++accepted_since_scan_ >= cfg_.evict_scan_period) {
      accepted_since_scan_ = 0;
      scan_now = true;
    }
  }
  if (scan_now) evict_idle();
  if (cfg_.checkpoint_period_us > 0 && !cfg_.checkpoint_dir.empty()) {
    maybe_checkpoint();
  }

  DecodeResult decoded = decode_frame(request);
  if (!decoded.frame.has_value()) {
    count_malformed();
    return reply_now(make_error_frame(0, ErrorCode::kMalformed));
  }

  Frame frame = std::move(*decoded.frame);
  const Promise promise =
      std::make_shared<std::promise<std::vector<std::uint8_t>>>();
  std::future<std::vector<std::uint8_t>> future = promise->get_future();

  switch (frame.type) {
    case FrameType::kHello:
      handle_hello(frame, promise);
      break;
    case FrameType::kEpoch:
      handle_epoch(std::move(frame), promise);
      break;
    case FrameType::kBye:
      handle_bye(frame, promise);
      break;
    case FrameType::kStatus:
      handle_status(frame, promise);
      break;
    case FrameType::kMigrate:
      handle_migrate(frame, promise);
      break;
    case FrameType::kReply:
    case FrameType::kError:
      // Server-to-client types arriving at the server are client bugs.
      count_malformed();
      promise->set_value(
          encode_frame(make_error_frame(frame.session_id,
                                        ErrorCode::kMalformed)));
      break;
  }
  return future;
}

void LocalizationServer::handle_hello(const Frame& frame,
                                      const Promise& promise) {
  const std::optional<HelloPayload> hello = parse_hello(frame.payload);
  if (!hello.has_value()) {
    count_malformed();
    promise->set_value(encode_frame(
        make_error_frame(frame.session_id, ErrorCode::kMalformed)));
    return;
  }
  // A live id is refused before the factory builds a whole ensemble on
  // this (single) ingress thread; create() stays the final arbiter.
  SessionPtr session;
  if (sessions_.find(frame.session_id) == nullptr) {
    std::unique_ptr<core::Uniloc> uniloc = factory_(frame.session_id);
    uniloc->reset({hello->start, hello->heading});
    session = sessions_.create(frame.session_id, std::move(uniloc), now_us());
  }
  if (session == nullptr) {
    if (ins_.rejected != nullptr) ins_.rejected->inc();
    promise->set_value(encode_frame(
        make_error_frame(frame.session_id, ErrorCode::kSessionExists)));
    return;
  }
  // Session-held ensembles emit core-layer spans (per-scheme localize,
  // fusion) into the server's tracer.
  session->uniloc().attach_tracer(cfg_.tracer);
  if (cfg_.flight != nullptr) {
    obs::FlightEvent ev;
    ev.session_id = frame.session_id;
    ev.kind = obs::FlightKind::kHello;
    cfg_.flight->record(ev);
  }
  count_accepted();
  note_live_sessions();
  Frame reply;
  reply.type = FrameType::kReply;
  reply.session_id = frame.session_id;
  promise->set_value(encode_frame(reply));
}

void LocalizationServer::handle_epoch(Frame frame, const Promise& promise) {
  const SessionPtr session = sessions_.find(frame.session_id);
  if (session == nullptr) {
    if (ins_.rejected != nullptr) ins_.rejected->inc();
    promise->set_value(encode_frame(
        make_error_frame(frame.session_id, ErrorCode::kUnknownSession)));
    return;
  }

  const obs::Stopwatch accepted_at;
  const std::uint64_t session_id = frame.session_id;

  // Open the epoch's span tree on the submitting thread: the root
  // adopts the caller's ambient context (the client/link span when one
  // is set), the queue-wait child runs until the strand picks the task
  // up in run_epoch. Handles are values, so they cross to the worker
  // inside the lambda.
  obs::SpanHandle root, queue_wait;
  if (cfg_.tracer != nullptr) {
    root = cfg_.tracer->begin("svc.epoch", "svc", 0, 0, session_id);
    queue_wait = cfg_.tracer->begin("svc.queue_wait", "svc", root.trace_id,
                                    root.span_id, session_id);
  }

  auto payload =
      std::make_shared<std::vector<std::uint8_t>>(std::move(frame.payload));
  Session* raw = session.get();
  const Session::Enqueue verdict = session->enqueue(
      [this, raw, payload, session_id, promise, accepted_at, root,
       queue_wait] {
        run_epoch(*raw, *payload, session_id, promise, accepted_at, root,
                  queue_wait);
      },
      cfg_.inbox_capacity, now_us());

  if (verdict == Session::Enqueue::kBackpressure ||
      verdict == Session::Enqueue::kClosed) {
    // kClosed: extracted for migration after the lookup above; the
    // client's re-hello finds the session's new home.
    const bool closed = verdict == Session::Enqueue::kClosed;
    const char* why = closed ? "closed" : "backpressure";
    if (cfg_.tracer != nullptr) {
      cfg_.tracer->end(queue_wait, why);
      cfg_.tracer->end(root, why);
    }
    if (ins_.rejected != nullptr) ins_.rejected->inc();
    if (cfg_.flight != nullptr && !closed) {
      obs::FlightEvent ev;
      ev.session_id = session_id;
      ev.epoch = raw->epochs_served();
      ev.kind = obs::FlightKind::kBackpressure;
      cfg_.flight->record(ev);
    }
    promise->set_value(encode_frame(make_error_frame(
        session_id,
        closed ? ErrorCode::kUnknownSession : ErrorCode::kBackpressure)));
    return;
  }
  count_accepted();
  if (verdict == Session::Enqueue::kStartDrain &&
      !pool_.post([session] { session->drain(); })) {
    // Pool is stopping: drain inline so no promise is left dangling.
    session->drain();
  }
}

void LocalizationServer::handle_bye(const Frame& frame,
                                    const Promise& promise) {
  if (!sessions_.erase(frame.session_id)) {
    if (ins_.rejected != nullptr) ins_.rejected->inc();
    promise->set_value(encode_frame(
        make_error_frame(frame.session_id, ErrorCode::kUnknownSession)));
    return;
  }
  count_accepted();
  note_live_sessions();
  Frame reply;
  reply.type = FrameType::kReply;
  reply.session_id = frame.session_id;
  promise->set_value(encode_frame(reply));
}

void LocalizationServer::run_epoch(Session& session,
                                   const std::vector<std::uint8_t>& payload,
                                   std::uint64_t session_id,
                                   const Promise& promise,
                                   obs::Stopwatch accepted_at,
                                   obs::SpanHandle root,
                                   obs::SpanHandle queue_wait) {
  obs::SpanTracer* tracer = cfg_.tracer;
  if (tracer != nullptr) tracer->end(queue_wait);

  obs::Stopwatch stage;
  obs::SpanHandle decode_span;
  if (tracer != nullptr) {
    decode_span = tracer->begin("svc.decode", "svc", root.trace_id,
                                root.span_id, session_id);
  }
  const std::optional<EpochRequest> req = parse_epoch(payload);
  const double parse_us = stage.elapsed_us();
  if (!req.has_value()) {
    if (tracer != nullptr) {
      tracer->end(decode_span, "malformed");
      tracer->end(root, "malformed");
    }
    count_malformed();
    if (cfg_.slo != nullptr) {
      cfg_.slo->observe(accepted_at.elapsed_us(), true);
    }
    if (cfg_.flight != nullptr) {
      obs::FlightEvent ev;
      ev.session_id = session_id;
      ev.epoch = session.epochs_served();
      ev.kind = obs::FlightKind::kError;
      cfg_.flight->record(ev);
    }
    promise->set_value(encode_frame(
        make_error_frame(session_id, ErrorCode::kMalformed)));
    return;
  }
  if (tracer != nullptr) tracer->end(decode_span);

  stage.restart();
  // We are on the session strand here, so the scratch arena and the perf
  // cursor are single-writer even with workers > 0.
  const core::EpochDecision* decision_ptr;
  {
    obs::SpanHandle locate_span;
    std::optional<obs::TraceScope> scope;
    if (tracer != nullptr) {
      locate_span = tracer->begin("svc.locate", "svc", root.trace_id,
                                  root.span_id, session_id);
      // Core-layer spans (per-scheme localize, fusion) adopt this
      // ambient context inside update_fast().
      scope.emplace(obs::TraceContext{root.trace_id, locate_span.span_id,
                                      session_id});
    }
    decision_ptr =
        &session.uniloc().update_fast(req->frame, session.scratch());
    if (tracer != nullptr) tracer->end(locate_span);
  }
  const core::EpochDecision& decision = *decision_ptr;
  const double locate_us = stage.elapsed_us();

  const std::uint64_t hits =
      session.uniloc().scheme_cache_hits() + session.scratch().cache_hits();
  const std::uint64_t misses = session.uniloc().scheme_cache_misses() +
                               session.scratch().cache_misses();
  Session::PerfCursor& cursor = session.perf_cursor();
  const std::uint64_t hits_delta = hits - cursor.cache_hits;
  const std::uint64_t misses_delta = misses - cursor.cache_misses;
  cursor.cache_hits = hits;
  cursor.cache_misses = misses;
  const std::uint64_t scratch_bytes = session.scratch().bytes();

  obs::SpanHandle encode_span;
  if (tracer != nullptr) {
    encode_span = tracer->begin("svc.encode", "svc", root.trace_id,
                                root.span_id, session_id);
  }
  Frame reply;
  reply.type = FrameType::kReply;
  reply.session_id = session_id;
  EpochReply epoch_reply;
  epoch_reply.downlink = offload::DownlinkFrame::encode(decision.uniloc2);
  epoch_reply.gps_enable_next = decision.gps_enable_next;
  reply.payload = encode_epoch_reply(epoch_reply);
  promise->set_value(encode_frame(reply));
  if (tracer != nullptr) {
    tracer->end(encode_span);
    tracer->end(root);
  }

  const double request_us = accepted_at.elapsed_us();
  if (cfg_.slo != nullptr) cfg_.slo->observe(request_us, false);
  if (cfg_.flight != nullptr) {
    obs::FlightEvent ev;
    ev.session_id = session_id;
    ev.epoch = session.epochs_served();
    ev.kind = obs::FlightKind::kServerEpoch;
    ev.a = decision.selected;
    ev.b = decision.indoor ? 1 : 0;
    ev.x = decision.tau;
    cfg_.flight->record(ev);
  }

  if (cfg_.on_epoch) cfg_.on_epoch(session_id, decision);

  if (ins_.perf_cache_hits != nullptr && hits_delta > 0) {
    ins_.perf_cache_hits->inc(hits_delta);
  }
  if (ins_.perf_cache_misses != nullptr && misses_delta > 0) {
    ins_.perf_cache_misses->inc(misses_delta);
  }
  if (ins_.perf_scratch_bytes != nullptr) {
    ins_.perf_scratch_bytes->set(static_cast<double>(scratch_bytes));
  }

  std::lock_guard<std::mutex> lock(ins_.mu);
  if (ins_.parse_us != nullptr) ins_.parse_us->observe(parse_us);
  if (ins_.locate_us != nullptr) ins_.locate_us->observe(locate_us);
  if (ins_.request_us != nullptr) ins_.request_us->observe(request_us);
}

void LocalizationServer::handle_status(const Frame& frame,
                                       const Promise& promise) {
  const std::optional<StatusFormat> format =
      parse_status_request(frame.payload);
  if (!format.has_value()) {
    count_malformed();
    promise->set_value(encode_frame(
        make_error_frame(frame.session_id, ErrorCode::kMalformed)));
    return;
  }
  if (ins_.status_requests != nullptr) ins_.status_requests->inc();
  const ServerStatus st = status();
  const std::string text = *format == StatusFormat::kJson
                               ? status_json(st, registry_, cfg_.slo)
                               : status_prometheus(st, registry_, cfg_.slo);
  Frame reply;
  reply.type = FrameType::kReply;
  reply.session_id = frame.session_id;
  reply.payload.assign(text.begin(), text.end());
  promise->set_value(encode_frame(reply));
}

ServerStatus LocalizationServer::status() {
  ServerStatus st;
  st.now_us = now_us();
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    st.stopping = stopping_;
  }
  st.workers = pool_.workers();
  st.pool_queue_depth = pool_.queue_depth();
  st.pool_active_workers = pool_.active_workers();
  st.pool_tasks_run = pool_.tasks_run();
  st.pool_task_exceptions = pool_.task_exceptions();
  for (const SessionPtr& s : sessions_.all()) {
    SessionStatus ss;
    ss.id = s->id();
    const std::uint64_t last = s->last_active_us();
    ss.age_us = st.now_us > last ? st.now_us - last : 0;
    ss.epochs_served = s->epochs_served();
    ss.queue_depth = s->queue_depth();
    st.sessions.push_back(ss);
  }
  st.live_sessions = st.sessions.size();
  return st;
}

void LocalizationServer::maybe_checkpoint() {
  const std::uint64_t now = now_us();
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (now < last_checkpoint_us_ + cfg_.checkpoint_period_us) return;
    last_checkpoint_us_ = now;
  }
  checkpoint_wave_now();
}

void LocalizationServer::checkpoint_wave_now() {
  bool keyframe;
  {
    std::lock_guard<std::mutex> lock(chain_mu_);
    keyframe = force_keyframe_ ||
               waves_since_keyframe_ + 1 >= std::max<std::size_t>(
                                                1, cfg_.keyframe_interval);
  }
  std::vector<std::uint8_t> bytes = snapshot_wave(keyframe);
  std::uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(chain_mu_);
    seq = wave_seq_;
  }
  const std::string dir = cfg_.checkpoint_dir;
  // On success a keyframe makes every older wave reclaimable; on failure
  // the chain must re-anchor (the next delta would otherwise link onto a
  // wave that may not be durable).
  auto settle = [this, dir, seq, keyframe](bool ok) {
    std::size_t pruned = 0;
    if (ok && keyframe) pruned = prune_wave_files(dir, seq);
    (void)pruned;
    if (!ok) {
      std::lock_guard<std::mutex> lock(chain_mu_);
      force_keyframe_ = true;
      ++ckpt_stats_.publish_failures;
    }
  };
  if (cfg_.committer != nullptr) {
    GroupCommitter::Request req;
    req.dir = dir;
    req.name = wave_file_name(seq);
    req.bytes = std::move(bytes);
    req.done = settle;
    if (cfg_.committer->enqueue(std::move(req))) return;
    // Committer backpressure: a checkpoint is never silently dropped --
    // fall back to the synchronous path (req is untouched on rejection)
    // and record the stall.
    {
      std::lock_guard<std::mutex> lock(chain_mu_);
      ++ckpt_stats_.sync_fallbacks;
    }
    settle(write_wave_file(dir, seq, req.bytes));
    return;
  }
  settle(write_wave_file(dir, seq, bytes));
}

std::vector<std::uint8_t> LocalizationServer::snapshot_wave(bool keyframe) {
  WaveHeader h;
  h.kind = keyframe ? kWaveKeyframe : kWaveDelta;
  h.payload_version =
      cfg_.snapshot_quantize ? kSnapshotVersionQuantized : kSnapshotVersion;
  std::size_t reserve_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(chain_mu_);
    h.seq = ++wave_seq_;
    h.parent_seq = keyframe ? 0 : h.seq - 1;
    reserve_bytes = last_wave_bytes_;
  }
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    h.accepted_since_scan = static_cast<std::uint64_t>(accepted_since_scan_);
  }
  const std::vector<SessionPtr> sessions = sessions_.all();  // id-sorted
  std::vector<std::uint64_t> members;
  members.reserve(sessions.size());
  for (const SessionPtr& s : sessions) members.push_back(s->id());
  WaveBuilder builder(h, members, reserve_bytes);
  std::uint64_t records = 0;
  for (const SessionPtr& s : sessions) {
    // The dirty check races benignly with live traffic: a session that
    // turns dirty after the check stays dirty and is caught by the next
    // wave; one that looks dirty but didn't change just costs bytes.
    if (!keyframe && !s->dirty()) continue;
    s->run_exclusive([&] {
      write_session_record(builder.next_record(), *s, cfg_.snapshot_quantize);
      // Inside the exclusive section: the clean mark covers exactly the
      // state this wave serialized.
      s->mark_clean();
    });
    ++records;
  }
  std::vector<std::uint8_t> bytes = builder.finish();
  {
    std::lock_guard<std::mutex> lock(chain_mu_);
    last_wave_bytes_ = bytes.size();
    ++ckpt_stats_.waves;
    if (keyframe) {
      ++ckpt_stats_.keyframes;
      ckpt_stats_.keyframe_records += records;
      ckpt_stats_.keyframe_bytes += bytes.size();
      waves_since_keyframe_ = 0;
      force_keyframe_ = false;
    } else {
      ckpt_stats_.delta_records += records;
      ckpt_stats_.delta_bytes += bytes.size();
      ++waves_since_keyframe_;
    }
  }
  return bytes;
}

LocalizationServer::ChainRestoreResult LocalizationServer::restore_chain() {
  ChainRestoreResult out;
  if (cfg_.checkpoint_dir.empty()) return out;
  const ChainCollapse collapsed =
      collapse_chain(load_wave_files(cfg_.checkpoint_dir));
  out.deltas_applied = collapsed.deltas_applied;
  out.waves_rejected = collapsed.waves_rejected;
  if (!collapsed.ok) return out;
  out.ok = restore(collapsed.snapshot);
  out.seq = collapsed.seq;
  if (out.ok) {
    std::lock_guard<std::mutex> lock(chain_mu_);
    // Continue the sequence past every file on disk (including rejected
    // tail waves, whose seqs must not be reused) and re-anchor: restored
    // sessions all start dirty, and the next wave keyframes them.
    wave_seq_ = std::max(wave_seq_, collapsed.seq + collapsed.waves_rejected);
    force_keyframe_ = true;
  }
  return out;
}

LocalizationServer::CheckpointStats LocalizationServer::checkpoint_stats()
    const {
  std::lock_guard<std::mutex> lock(chain_mu_);
  return ckpt_stats_;
}

std::vector<std::uint8_t> LocalizationServer::snapshot() {
  offload::ByteWriter w;
  write_snapshot_header(w);
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    w.put_u64(static_cast<std::uint64_t>(accepted_since_scan_));
  }
  const std::vector<SessionPtr> sessions = sessions_.all();
  w.put_u32(static_cast<std::uint32_t>(sessions.size()));
  for (const SessionPtr& s : sessions) {
    // Serialize while *holding* the strand, not after a transient idle()
    // check: with live traffic a worker could start the next epoch
    // between the check and the read. run_exclusive claims the strand
    // like a drain would, so the session's state is frozen at an epoch
    // boundary for exactly the duration of its record.
    s->run_exclusive(
        [&] { write_session_record(w, *s, /*quantize=*/false); });
  }
  return w.take();
}

bool LocalizationServer::restore(const std::vector<std::uint8_t>& snapshot) {
  offload::ByteReader r(snapshot.data(), snapshot.size());
  std::uint8_t version;
  if (!check_snapshot_header(r, version)) return false;
  const bool quantized = version == kSnapshotVersionQuantized;
  std::uint64_t accepted_since_scan;
  std::uint32_t count;
  if (!r.get_u64(accepted_since_scan) || !r.get_u32(count) ||
      count > kMaxSnapshotSessions) {
    return false;
  }

  // The restore replaces the whole population; a failure partway leaves
  // an empty server (the caller's recovery story is "retry or re-hello"),
  // never a half-restored mix of old and new sessions.
  sessions_.clear();
  bool ok = true;
  for (std::uint32_t i = 0; i < count && ok; ++i) {
    SessionRecordHeader rec;
    // A duplicate id (kSessionExists) means a corrupt snapshot too.
    ok = read_session_record_header(r, rec) &&
         !install_session(r, rec, quantized).has_value();
  }
  if (ok && r.remaining() != 0) ok = false;
  if (!ok) {
    sessions_.clear();
    note_live_sessions();
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    accepted_since_scan_ = static_cast<std::size_t>(accepted_since_scan);
  }
  if (cfg_.flight != nullptr) {
    for (const SessionPtr& s : sessions_.all()) {
      obs::FlightEvent ev;
      ev.session_id = s->id();
      ev.epoch = s->epochs_served();
      ev.kind = obs::FlightKind::kRestore;
      cfg_.flight->record(ev);
    }
  }
  note_live_sessions();
  return true;
}

std::optional<std::vector<std::uint8_t>> LocalizationServer::extract_session(
    std::uint64_t id) {
  const SessionPtr session = sessions_.find(id);
  if (session == nullptr) return std::nullopt;
  // Pin first: between here and the erase below, a TTL scan must not
  // evict the session out from under the serialization (the
  // eviction-vs-migration race the shard tests pin). Then close: the
  // router may still hand this server an epoch it routed before the
  // migration began, and that epoch must be either in the payload
  // (accepted before the close) or refused (kUnknownSession) -- never run
  // on the source after its state has left.
  session->set_pinned(true);
  session->close();
  offload::ByteWriter w;
  write_snapshot_header(w);
  bool erased = false;
  session->run_exclusive([&] {
    write_session_record(w, *session, /*quantize=*/false);
    erased = sessions_.erase(id);
  });
  // A concurrent kBye ended the session first: there is nothing to move.
  if (!erased) return std::nullopt;
  note_live_sessions();
  std::vector<std::uint8_t> payload = w.take();
  if (cfg_.flight != nullptr) {
    obs::FlightEvent ev;
    ev.session_id = id;
    ev.epoch = session->epochs_served();
    ev.kind = obs::FlightKind::kMigrateOut;
    ev.a = static_cast<std::int64_t>(payload.size());
    cfg_.flight->record(ev);
  }
  return payload;
}

std::optional<ErrorCode> LocalizationServer::adopt_session(
    const std::vector<std::uint8_t>& payload, std::uint64_t expected_id) {
  offload::ByteReader r(payload.data(), payload.size());
  // Live migration always ships the lossless v1 codec, but recovery from
  // a quantized delta chain splits a v2 snapshot into kMigrate payloads,
  // so adoption accepts either version.
  std::uint8_t version;
  if (!check_snapshot_header(r, version)) return ErrorCode::kMalformed;
  const bool quantized = version == kSnapshotVersionQuantized;
  SessionRecordHeader rec;
  if (!read_session_record_header(r, rec)) return ErrorCode::kMalformed;
  // The record's embedded id must match the frame's routing id (a payload
  // smuggling a different session under a routed id is hostile input),
  // and the record must be the payload's last byte.
  if (rec.id != expected_id || rec.payload_len != r.remaining()) {
    return ErrorCode::kMalformed;
  }
  if (const std::optional<ErrorCode> err = install_session(r, rec, quantized)) {
    return err;
  }
  note_live_sessions();
  if (cfg_.flight != nullptr) {
    obs::FlightEvent ev;
    ev.session_id = rec.id;
    ev.epoch = rec.epochs_served;
    ev.kind = obs::FlightKind::kMigrateIn;
    ev.a = static_cast<std::int64_t>(payload.size());
    cfg_.flight->record(ev);
  }
  return std::nullopt;
}

std::optional<ErrorCode> LocalizationServer::install_session(
    offload::ByteReader& r, const SessionRecordHeader& rec, bool quantized) {
  // Rebuild through the factory (same per-session seeds as the hello
  // path); restore_from then overwrites every field reset() would have
  // initialized, so no reset() call is needed -- or wanted, since it
  // would consume RNG draws the original session never made.
  std::unique_ptr<core::Uniloc> uniloc = factory_(rec.id);
  uniloc->attach_tracer(cfg_.tracer);
  const std::size_t before = r.pos();
  if (!uniloc->restore_from(r, quantized) ||
      r.pos() - before != rec.payload_len) {
    return ErrorCode::kMalformed;
  }
  const SessionPtr session = sessions_.create(rec.id, std::move(uniloc), 0);
  if (session == nullptr) return ErrorCode::kSessionExists;
  session->restore_bookkeeping(rec.last_active_us,
                               static_cast<std::size_t>(rec.epochs_served));
  return std::nullopt;
}

void LocalizationServer::handle_migrate(const Frame& frame,
                                        const Promise& promise) {
  const std::optional<ErrorCode> err =
      adopt_session(frame.payload, frame.session_id);
  if (err.has_value()) {
    if (*err == ErrorCode::kMalformed) {
      count_malformed();
    } else if (ins_.rejected != nullptr) {
      ins_.rejected->inc();
    }
    promise->set_value(
        encode_frame(make_error_frame(frame.session_id, *err)));
    return;
  }
  count_accepted();
  Frame reply;
  reply.type = FrameType::kReply;
  reply.session_id = frame.session_id;
  promise->set_value(encode_frame(reply));
}

void LocalizationServer::crash() {
  sessions_.clear();
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    accepted_since_scan_ = 0;
    last_checkpoint_us_ = 0;
  }
  note_live_sessions();
}

std::size_t LocalizationServer::evict_idle() {
  std::vector<std::uint64_t> evicted_ids;
  const std::size_t evicted = sessions_.evict_idle(
      now_us(), static_cast<std::uint64_t>(cfg_.idle_ttl_s * 1e6),
      cfg_.on_evict ? &evicted_ids : nullptr);
  if (evicted > 0) {
    {
      std::lock_guard<std::mutex> lock(ins_.mu);
      if (ins_.evicted != nullptr) ins_.evicted->inc(evicted);
    }
    note_live_sessions();
    // Propagate departures to placement layers (e.g. the shard router's
    // affinity overrides) after the stripe locks are released.
    for (const std::uint64_t id : evicted_ids) cfg_.on_evict(id);
  }
  return evicted;
}

void LocalizationServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  pool_.shutdown();
}

}  // namespace uniloc::svc
