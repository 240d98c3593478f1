// Phone/server offloading session.
//
// Wires the pieces together the way the deployed system would run them:
// the phone side reduces the sensor frame to an UplinkFrame (running the
// PDR front-end locally, exactly the split of Sec. IV-C); the server side
// hands the payloads to UniLoc and replies with the fused coordinate.
// Byte counters on both directions feed the energy and response-time
// models with measured traffic instead of constants.
#pragma once

#include <cstddef>

#include "core/epoch_scratch.h"
#include "core/uniloc.h"
#include "offload/payload.h"
#include "sim/walker.h"

namespace uniloc::obs {
class Histogram;
class MetricsRegistry;
}  // namespace uniloc::obs

namespace uniloc::offload {

struct TrafficStats {
  /// Every byte that crossed the uplink, retransmissions included --
  /// this is what the radio (and the energy model) pays for.
  std::size_t uplink_bytes{0};
  std::size_t downlink_bytes{0};
  std::size_t epochs{0};
  /// Subset of uplink_bytes that was a resend of an already-transmitted
  /// frame (client retries after a timeout or a rejected request).
  std::size_t retransmitted_bytes{0};
  std::size_t retransmits{0};  ///< Resent frames.

  double uplink_bytes_per_epoch() const {
    return epochs > 0 ? static_cast<double>(uplink_bytes) /
                            static_cast<double>(epochs)
                      : 0.0;
  }

  double downlink_bytes_per_epoch() const {
    return epochs > 0 ? static_cast<double>(downlink_bytes) /
                            static_cast<double>(epochs)
                      : 0.0;
  }
};

/// Phone side: reduces raw frames to wire payloads. Owns the PDR
/// front-end (raw 50 Hz IMU never leaves the device).
class PhoneAgent {
 public:
  PhoneAgent() = default;

  void reset(double initial_heading);

  /// Reduce one sensor frame to its uplink payload.
  UplinkFrame reduce(const sim::SensorFrame& frame);

  /// Time reduce() into `offload.encode_us` (null detaches).
  void attach_metrics(obs::MetricsRegistry* registry);

 private:
  schemes::PdrFrontend frontend_;
  obs::Histogram* encode_us_{nullptr};
};

/// Server side: feeds the frame to UniLoc and encodes the reply.
/// (UniLoc's schemes consume the full SensorFrame here; the payloads are
/// the accounting boundary -- see DESIGN.md on this simplification.)
class ServerAgent {
 public:
  explicit ServerAgent(core::Uniloc* uniloc) : uniloc_(uniloc) {}

  DownlinkFrame handle(const sim::SensorFrame& frame,
                       core::EpochDecision* decision_out = nullptr);

  /// Time handle() (UniLoc update + reply encode) into
  /// `offload.serve_us` (null detaches).
  void attach_metrics(obs::MetricsRegistry* registry);

 private:
  core::Uniloc* uniloc_;
  core::EpochScratch scratch_;  ///< The epoch arena of uniloc_'s walk.
  obs::Histogram* serve_us_{nullptr};
};

/// Run a full offloaded walk and account the traffic. With a registry,
/// both agents are instrumented and the wire volume lands in the
/// `offload.uplink_bytes` / `offload.downlink_bytes` counters.
TrafficStats run_offloaded_walk(core::Uniloc& uniloc, sim::Walker& walker,
                                obs::MetricsRegistry* registry = nullptr);

}  // namespace uniloc::offload
