// ShardRouter: N in-process LocalizationServers behind one Endpoint.
//
// The fleet layer (DESIGN.md section 14). Placement is consistent
// hashing on session id (shard/hash_ring.h) plus an override table for
// sessions that no longer live on their ring shard (migrated or
// resurrected after a shard crash). The router is wire-transparent:
// clients speak the exact same frames as against a single server, so
// run_load / FaultyLink / the differential harness drive a fleet
// unmodified, and a fleet run at workers=0 per shard is bit-identical
// to the single-server run with the same seeds.
//
// Live migration protocol (one session, shard A -> shard B):
//
//   ROUTING --mark migrating--> BUFFERING: new frames for the session
//     park in the router (promise retained), nothing reaches A or B.
//   A.extract_session: pin against TTL eviction, close the session
//     (later enqueues get kUnknownSession), then with the strand held
//     serialize it as one snapshot-codec record and erase it from A.
//   B <- kMigrate frame: B validates the payload at its hostile-input
//     boundary and rebuilds the session (factory + restore_from, same
//     discipline as checkpoint restore).
//     * ack   -> override[sid] = B
//     * error -> re-adopt the payload on A (rollback; the session is
//       never lost, the move just didn't happen).
//   REPLAYING: buffered frames are submitted to the final home in
//     arrival order; new frames keep buffering until the backlog is
//     empty, then the session returns to ROUTING.
//
// Whole-shard crash recovery: checkpoint_all() keeps each shard's last
// snapshot; crash_shard(k) drops k from the ring (its sessions' frames
// get kUnknownSession -> clients re-hello onto survivors);
// recover_shard(k) splits k's last checkpoint into single-session
// kMigrate payloads and adopts each onto its ring owner among the
// survivors -- zero sessions lost, every one resumes from its
// checkpointed state.
//
// Rebalancing: rebalance() reads each shard's svc.live_sessions /
// svc.queue_depth gauges (per-shard registries owned by the router) and
// the shared SloMonitor, and migrates the lowest-id sessions off the
// hottest shard onto the coldest until the gap halves (bounded by
// RebalancePolicy::max_moves).
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "shard/hash_ring.h"
#include "svc/endpoint.h"
#include "svc/server.h"

namespace uniloc::obs {
class Counter;
class MetricsRegistry;
}  // namespace uniloc::obs

namespace uniloc::shard {

/// When and how hard rebalance() acts. Sessions are counted per shard;
/// `hot_factor` is relative to the fleet mean.
struct RebalancePolicy {
  double hot_factor{1.5};
  /// Never move unless the hottest shard holds at least this many more
  /// sessions than the coldest (hysteresis against ping-pong).
  std::size_t min_gap{2};
  /// Migrations per rebalance() call.
  std::size_t max_moves{4};
};

struct RouterConfig {
  std::size_t shards{4};
  std::size_t vnodes_per_shard{64};
  /// Perturbs the ring layout; same seed => same placement (replays).
  std::uint64_t seed{0};
  /// Template applied to every shard's LocalizationServer.
  svc::ServerConfig server;
  /// Optional per-shard adjustment of the template (e.g. distinct
  /// checkpoint directories) before the shard is constructed. The
  /// router chains its own `on_evict` hook after whatever this sets:
  /// eviction must erase the session's routing override or the table
  /// grows without bound.
  std::function<void(std::size_t shard, svc::ServerConfig& cfg)> tune;
  RebalancePolicy rebalance;
  /// Test seam: called between extract and adopt of every migration,
  /// while the session exists on no shard and the router buffers its
  /// frames. The eviction/“concurrent uplink” races are pinned here.
  std::function<void(std::uint64_t session_id, std::size_t from,
                     std::size_t to)>
      on_migration_extracted;
};

class ShardRouter : public svc::Endpoint {
 public:
  /// `registry` (optional) takes the router's own shard.* instruments;
  /// each shard gets its own private registry for the svc.* family.
  ShardRouter(RouterConfig cfg, svc::UnilocFactory factory,
              obs::MetricsRegistry* registry = nullptr);
  ~ShardRouter() override;

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Route one encoded frame to its owning shard. kStatus frames are
  /// admin: their session_id names a shard index instead of a session.
  std::future<std::vector<std::uint8_t>> submit(
      std::vector<std::uint8_t> request) override;

  /// Move one live session onto shard `to` (see protocol above). False
  /// when the session is unknown, already moving, or either end is dead;
  /// true when the session ends up on `to` (including the no-op case).
  bool migrate(std::uint64_t session_id, std::size_t to);

  /// One rebalancing pass; returns sessions migrated (0 = balanced).
  std::size_t rebalance();

  /// Snapshot every alive shard (quiescing its sessions) and retain the
  /// bytes as that shard's recovery checkpoint.
  void checkpoint_all();

  /// Kill shard k: membership, overrides and in-RAM sessions are gone.
  /// Frames routed to its sessions yield kUnknownSession until the
  /// client re-hellos (onto a survivor) or recover_shard() resurrects
  /// the population. No-op on an already-dead shard.
  void crash_shard(std::size_t k);

  /// Resurrect shard k's sessions from its last checkpoint onto the
  /// surviving shards. Returns sessions recovered. Sessions whose id is
  /// already live somewhere (the client re-helloed first) are skipped --
  /// the live state is newer than the checkpoint.
  std::size_t recover_shard(std::size_t k);

  /// Bring shard k back (empty) as a migration/placement target. Its
  /// recovered sessions stay where they were resurrected (overrides
  /// keep routing them) until rebalance() or migrate() moves them.
  void revive_shard(std::size_t k);

  std::size_t shard_count() const { return servers_.size(); }
  bool alive(std::size_t k) const;
  svc::LocalizationServer& server(std::size_t k) { return *servers_[k]; }
  obs::MetricsRegistry& shard_registry(std::size_t k) {
    return *registries_[k];
  }
  /// Last checkpoint_all() snapshot of shard k (empty before the first).
  const std::vector<std::uint8_t>& last_checkpoint(std::size_t k) const {
    return checkpoints_[k];
  }
  /// Routing-override entries currently held. Bounded by the live
  /// population: evictions and kBye erase their entries (regression
  /// hook for the unbounded-overrides bug).
  std::size_t override_count() const {
    std::lock_guard<std::mutex> lock(route_mu_);
    return overrides_.size();
  }

  /// The shard a frame for `session_id` would be routed to right now.
  std::size_t shard_of(std::uint64_t session_id) const;
  /// Fleet-wide live session count.
  std::size_t live_sessions() const;

  void shutdown();

 private:
  struct BufferedFrame {
    std::vector<std::uint8_t> request;
    std::shared_ptr<std::promise<std::vector<std::uint8_t>>> promise;
  };

  std::future<std::vector<std::uint8_t>> reply_error(std::uint64_t sid,
                                                     svc::ErrorCode code);
  /// Current home under route_mu_ (override wins over the ring).
  std::size_t home_of_locked(std::uint64_t session_id) const;
  /// Replay a migrating session's parked frames against its final home,
  /// then clear the migrating mark (loops until no new frames parked).
  void drain_buffer(std::uint64_t session_id, std::size_t home);
  /// Adopt one standalone payload on shard k via the kMigrate path.
  std::optional<svc::ErrorCode> adopt_on(
      std::size_t k, std::uint64_t session_id,
      const std::vector<std::uint8_t>& payload);

  RouterConfig cfg_;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries_;
  std::vector<std::unique_ptr<svc::LocalizationServer>> servers_;
  std::vector<std::vector<std::uint8_t>> checkpoints_;

  /// Guards ring_, overrides_, migrating_, buffers_, alive_.
  mutable std::mutex route_mu_;
  HashRing ring_;
  std::map<std::uint64_t, std::size_t> overrides_;
  std::set<std::uint64_t> migrating_;
  std::map<std::uint64_t, std::vector<BufferedFrame>> buffers_;
  std::vector<bool> alive_;

  // Router-level instruments (shard.*), null when no registry.
  obs::Counter* migrations_{nullptr};
  obs::Counter* migration_failures_{nullptr};
  obs::Counter* rebalances_{nullptr};
  obs::Counter* crashes_{nullptr};
  obs::Counter* recovered_sessions_{nullptr};
  obs::Counter* buffered_frames_{nullptr};
};

}  // namespace uniloc::shard
