// LocalizationServer: the multi-tenant localization service.
//
// submit(bytes) -> future<bytes> is the entire surface: one encoded
// svc::Frame in, one encoded reply frame out. kHello opens a session
// (the factory builds its core::Uniloc), kEpoch runs one localization
// epoch on the session's strand, kBye closes it. Malformed input of any
// kind -- bad magic, wrong version, truncated frame, corrupt payload --
// produces a kError reply (and a metrics increment), never a crash.
//
// Threading model:
//   * submit() may be called from any one client thread at a time (the
//     simulated deployments have a single ingress); frame decoding and
//     session routing happen on that thread, epoch execution happens on
//     the pool.
//   * Per-session execution is serialized by the session strand; distinct
//     sessions run concurrently across workers.
//   * workers == 0 is the deterministic inline mode: every submit()
//     completes synchronously on the caller's thread, and a run with a
//     fixed seed is bit-reproducible (unit tests, replays).
//
// Instrumentation (all via src/obs, guarded by one stats mutex so worker
// threads can record concurrently):
//   gauges    svc.live_sessions, svc.queue_depth
//   counters  svc.accepted, svc.rejected, svc.evicted, svc.malformed
//   histograms svc.request_us (accept -> reply, queue wait included),
//              svc.parse_us, svc.locate_us (per stage).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/uniloc.h"
#include "obs/span.h"
#include "obs/timer.h"
#include "svc/checkpoint.h"
#include "svc/committer.h"
#include "svc/endpoint.h"
#include "svc/session_manager.h"
#include "svc/statusz.h"
#include "svc/thread_pool.h"
#include "svc/wire.h"

namespace uniloc::obs {
class Counter;
class FlightRecorder;
class Gauge;
class Histogram;
class MetricsRegistry;
class SloMonitor;
}  // namespace uniloc::obs

namespace uniloc::svc {

/// Builds the per-session ensemble. Called on the submitting thread when
/// a kHello arrives; use `session_id` to derive per-session seeds.
using UnilocFactory =
    std::function<std::unique_ptr<core::Uniloc>(std::uint64_t session_id)>;

struct ServerConfig {
  /// 0 = inline deterministic mode (no threads).
  int workers{0};
  std::size_t stripes{8};
  /// Pending epochs per session beyond the running one; the bound that
  /// turns overload into explicit kBackpressure replies.
  std::size_t inbox_capacity{8};
  std::size_t pool_queue_capacity{4096};
  double idle_ttl_s{300.0};
  /// Sessions are TTL-scanned every this many accepted frames (plus on
  /// every explicit evict_idle() call).
  std::size_t evict_scan_period{256};
  /// Retired knobs, kept only because the repository benchmark harness
  /// (perfbench/harness/serve.cc) assigns their defaults; they go once it
  /// stops assigning them. The server never reads them: every epoch runs
  /// core::Uniloc::update_fast against the session's scratch arena, and
  /// no worker ever sleeps. The constructor refuses any value other than
  /// the default with std::invalid_argument.
  std::chrono::microseconds simulated_network{0};
  bool use_fast_path{true};
  /// Injectable clock (microseconds, monotonic) for deterministic TTL
  /// tests; defaults to steady_clock. sim::VirtualClock::now_fn() plugs
  /// in here.
  std::function<std::uint64_t()> now_us;
  /// Observation hook: called with every successfully served epoch's full
  /// decision, after the reply is sent. With workers > 0 it runs on the
  /// worker threads and must be thread-safe; intended for invariant
  /// checks and tracing in the deterministic workers == 0 mode.
  std::function<void(std::uint64_t session_id,
                     const core::EpochDecision& decision)>
      on_epoch;
  /// Periodic checkpointing: when > 0 and `checkpoint_dir` is set,
  /// submit() writes a checkpoint wave (checkpoint_wave_now) whenever at
  /// least this many microseconds (by `now_us`) have passed since the
  /// last one. Waves serialize each session with its strand held and
  /// change nothing a later epoch reads, so enabling checkpoints leaves
  /// the served epoch stream bit-identical.
  std::uint64_t checkpoint_period_us{0};
  /// Durable delta-chain checkpointing (svc/delta.h): the directory the
  /// periodic waves (keyframe + dirty-session deltas) are written to.
  /// Pair with restore_chain() at startup.
  std::string checkpoint_dir;
  /// Every Nth wave is a full keyframe (bounds both recovery length and
  /// how long a departed session's bytes linger in the chain). Waves in
  /// between serialize only sessions whose strand ran since the last
  /// wave.
  std::size_t keyframe_interval{16};
  /// Encode chain waves with the quantized particle codec (checkpoint
  /// format v2, ~4x smaller; filter/particle_filter.h documents the
  /// error budget). Never applies to snapshot()/extract_session, which
  /// stay lossless -- migration and crash/restore bit-identity depend
  /// on it.
  bool snapshot_quantize{false};
  /// Async group commit (svc/committer.h). Non-null offloads wave file
  /// I/O (write, fsync, rename, dir fsync) to the committer's thread;
  /// on committer backpressure the wave falls back to a synchronous
  /// publish rather than being dropped. Null publishes synchronously.
  /// Not owned; must outlive the server.
  GroupCommitter* committer{nullptr};
  /// Called (on the evicting thread) with each session id dropped by a
  /// TTL scan, so placement layers can forget the session -- the shard
  /// router's affinity override map otherwise grows without bound.
  std::function<void(std::uint64_t session_id)> on_evict;
  /// Causal span tracing (obs/span.h). Null = disabled; the detached
  /// cost on the epoch path is a branch per instrumentation point. One
  /// span tree per served epoch: svc.epoch > {svc.queue_wait,
  /// svc.decode, svc.locate > core spans, svc.encode}.
  obs::SpanTracer* tracer{nullptr};
  /// Per-session flight recorder; every served epoch records its scheme
  /// decision, every malformed epoch an error event. Null = off.
  obs::FlightRecorder* flight{nullptr};
  /// SLO monitor observing every epoch outcome (request latency, error
  /// flag). Null = off. Also rendered by kStatus / statusz dumps.
  obs::SloMonitor* slo{nullptr};
};

class LocalizationServer : public Endpoint {
 public:
  LocalizationServer(ServerConfig cfg, UnilocFactory factory,
                     obs::MetricsRegistry* registry = nullptr);
  ~LocalizationServer() override;

  LocalizationServer(const LocalizationServer&) = delete;
  LocalizationServer& operator=(const LocalizationServer&) = delete;

  /// Process one encoded frame. The future always yields an encoded reply
  /// frame (kReply or kError) -- errors travel in-band, like on a socket.
  std::future<std::vector<std::uint8_t>> submit(
      std::vector<std::uint8_t> request) override;

  /// TTL-scan now. Returns sessions evicted.
  std::size_t evict_idle();

  /// Serialize every live session into a versioned snapshot
  /// (svc/checkpoint.h). Each session is serialized with its strand held
  /// (Session::run_exclusive), so its payload is a consistent post-epoch
  /// state; no session state is mutated, so a run with snapshots
  /// interleaved is bit-identical to one without.
  std::vector<std::uint8_t> snapshot();

  /// Replace the entire session population with the snapshot's. Sessions
  /// are rebuilt through the factory (same per-session seeds as the hello
  /// path) and their serialized state restored on top. Returns false --
  /// with ALL sessions dropped -- on a malformed, truncated, corrupted or
  /// version-mismatched snapshot; never crashes on hostile input.
  /// Accepts both payload versions (the v2 quantized codec is what
  /// collapse_chain emits for quantized chains).
  bool restore(const std::vector<std::uint8_t>& snapshot);

  /// Serialize one checkpoint wave (svc/delta.h) and advance the wave
  /// sequence. A keyframe wave carries every live session; a delta wave
  /// only those whose strand ran since they were last serialized (their
  /// dirty mark), plus the full membership list so departures collapse
  /// away. Sessions are quiesced one at a time exactly like snapshot();
  /// each serialized session is marked clean inside its exclusive
  /// section. Payload codec follows cfg.snapshot_quantize.
  std::vector<std::uint8_t> snapshot_wave(bool keyframe);

  /// Outcome of a delta-chain recovery.
  struct ChainRestoreResult {
    bool ok{false};               ///< A valid keyframe restored.
    std::size_t deltas_applied{0};
    std::size_t waves_rejected{0};  ///< Damaged/unlinked waves skipped.
    std::uint64_t seq{0};           ///< Last applied wave.
  };

  /// Recover the session population from the wave chain in
  /// cfg.checkpoint_dir: newest valid keyframe + the longest contiguous
  /// valid run of deltas after it (torn or corrupt waves are rejected as
  /// units and reported). On success the next periodic wave is forced to
  /// be a keyframe, re-anchoring the chain.
  ChainRestoreResult restore_chain();

  /// Cumulative delta-chain persistence counters (soak bench, statusz).
  struct CheckpointStats {
    std::uint64_t waves{0};
    std::uint64_t keyframes{0};
    std::uint64_t keyframe_records{0};
    std::uint64_t delta_records{0};
    std::uint64_t keyframe_bytes{0};
    std::uint64_t delta_bytes{0};
    std::uint64_t publish_failures{0};
    /// Waves published synchronously because the committer queue was
    /// full (explicit backpressure, never a silent drop).
    std::uint64_t sync_fallbacks{0};
  };
  CheckpointStats checkpoint_stats() const;

  /// Serialize + publish one wave into cfg.checkpoint_dir right now
  /// (async via the committer when configured, else synchronously),
  /// regardless of the checkpoint period. Clean-shutdown flush: the
  /// periodic path only fires on the next submit, so a server that goes
  /// quiet would otherwise leave its last epochs off the chain.
  void checkpoint_wave_now();

  /// Remove one session for migration: pin it against TTL eviction and
  /// close it (Session::close), then -- with its strand held -- serialize
  /// it as a standalone kMigrate payload (snapshot header + one session
  /// record) and erase it from this server. Every epoch the session
  /// accepted before the close is in the payload; every frame after it
  /// gets kUnknownSession, the client's re-hello signal. nullopt when the
  /// id is not live here.
  std::optional<std::vector<std::uint8_t>> extract_session(std::uint64_t id);

  /// Install a session from a kMigrate payload produced by
  /// extract_session (or by the shard-recovery checkpoint splitter). The
  /// record's session id must equal `expected_id` (the frame's routing
  /// id). Returns nullopt on success, else the error to reply with:
  /// kMalformed for any framing/codec violation, kSessionExists when the
  /// id is already live here. On failure no session state changes.
  std::optional<ErrorCode> adopt_session(
      const std::vector<std::uint8_t>& payload, std::uint64_t expected_id);

  /// Simulate a process crash: all in-RAM session state is lost (the
  /// object survives so callers holding references keep working, as a
  /// restarted process would reuse the same address). Pair with
  /// restore() to model crash recovery from the last checkpoint.
  void crash();

  /// Stop intake, drain in-flight epochs, join workers. Idempotent.
  void shutdown();

  std::size_t live_sessions() const { return sessions_.size(); }
  const ServerConfig& config() const { return cfg_; }

  /// Point-in-time health snapshot (sessions sorted by id). The same
  /// data the kStatus frame serves; exposed for the CLI's --statusz.
  ServerStatus status();

 private:
  /// mu guards only the histograms (multi-field observe is not atomic);
  /// counters and gauges are internally atomic and recorded lock-free.
  struct Instruments {
    std::mutex mu;
    obs::Gauge* live_sessions{nullptr};
    obs::Gauge* queue_depth{nullptr};
    obs::Counter* accepted{nullptr};
    obs::Counter* rejected{nullptr};
    obs::Counter* evicted{nullptr};
    obs::Counter* malformed{nullptr};
    obs::Counter* status_requests{nullptr};
    obs::Histogram* request_us{nullptr};
    obs::Histogram* parse_us{nullptr};
    obs::Histogram* locate_us{nullptr};
    // Epoch pipeline health: likelihood-cache outcomes aggregated across
    // sessions, and the arena footprint of the most recently served
    // session.
    obs::Counter* perf_cache_hits{nullptr};
    obs::Counter* perf_cache_misses{nullptr};
    obs::Gauge* perf_scratch_bytes{nullptr};
  };

  using Promise = std::shared_ptr<std::promise<std::vector<std::uint8_t>>>;

  std::uint64_t now_us() const;
  void count_malformed();
  void count_accepted();
  void note_live_sessions();
  std::future<std::vector<std::uint8_t>> reply_now(const Frame& reply);

  void handle_hello(const Frame& frame, const Promise& promise);
  void handle_epoch(Frame frame, const Promise& promise);
  void handle_bye(const Frame& frame, const Promise& promise);
  void handle_status(const Frame& frame, const Promise& promise);
  void handle_migrate(const Frame& frame, const Promise& promise);
  /// Runs on a worker (or inline): parse payload, run the epoch, reply.
  /// `accepted_at` was started when submit() accepted the frame, so
  /// svc.request_us includes the queue wait. `root`/`queue_wait` are the
  /// epoch's open spans (zero handles when tracing is detached): the
  /// queue-wait span closes on entry, children hang off `root`.
  void run_epoch(Session& session, const std::vector<std::uint8_t>& payload,
                 std::uint64_t session_id, const Promise& promise,
                 obs::Stopwatch accepted_at, obs::SpanHandle root,
                 obs::SpanHandle queue_wait);
  /// Write a periodic wave when the checkpoint period elapsed.
  void maybe_checkpoint();
  /// Rebuild one session from the record `r` is positioned at (its
  /// header already read into `rec`): factory, restore_from with the
  /// framing check, create, restore_bookkeeping. The shared tail of
  /// restore() and adopt_session(). nullopt on success, else kMalformed
  /// (codec or framing violation) or kSessionExists (id already live).
  std::optional<ErrorCode> install_session(offload::ByteReader& r,
                                           const SessionRecordHeader& rec,
                                           bool quantized);

  ServerConfig cfg_;
  UnilocFactory factory_;
  obs::MetricsRegistry* registry_{nullptr};  ///< For statusz dumps.
  SessionManager sessions_;
  ThreadPool pool_;
  Instruments ins_;
  std::mutex lifecycle_mu_;  ///< Guards stopping_ + accepted_count_.
  bool stopping_{false};
  std::size_t accepted_since_scan_{0};
  std::uint64_t last_checkpoint_us_{0};
  /// Delta-chain state (guarded by chain_mu_; serialization itself runs
  /// outside the lock -- waves are produced by one thread at a time, the
  /// submit path's maybe_checkpoint or an explicit snapshot_wave call).
  mutable std::mutex chain_mu_;
  std::uint64_t wave_seq_{0};
  std::size_t waves_since_keyframe_{0};
  std::size_t last_wave_bytes_{0};  ///< Reserve hint for the next wave.
  /// Start keyframed; also re-set after a chain restore or a publish
  /// failure so the chain re-anchors instead of chaining onto a wave
  /// that may not be durable.
  bool force_keyframe_{true};
  CheckpointStats ckpt_stats_{};
};

}  // namespace uniloc::svc
