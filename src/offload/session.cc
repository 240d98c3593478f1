#include "offload/session.h"

#include "obs/metrics.h"
#include "obs/timer.h"

namespace uniloc::offload {

void PhoneAgent::reset(double initial_heading) {
  frontend_.reset(initial_heading);
}

void PhoneAgent::attach_metrics(obs::MetricsRegistry* registry) {
  encode_us_ = registry != nullptr
                   ? &registry->histogram("offload.encode_us")
                   : nullptr;
}

UplinkFrame PhoneAgent::reduce(const sim::SensorFrame& frame) {
  obs::ScopedTimer timer(encode_us_);
  UplinkFrame up;
  // IMU -> 4-byte walking model (the phone-side computation).
  const schemes::StepInference inf = frontend_.process(frame.imu);
  if (inf.steps > 0) {
    up.step = StepPayload::encode(
        inf.heading_rad, inf.step_length_m * static_cast<double>(inf.steps));
  }
  if (!frame.wifi.empty()) up.wifi = ScanPayload::encode(frame.wifi);
  if (!frame.cell.empty()) up.cell = ScanPayload::encode(frame.cell);
  if (frame.gps.has_value()) up.gps = GpsPayload::encode(*frame.gps);
  return up;
}

void ServerAgent::attach_metrics(obs::MetricsRegistry* registry) {
  serve_us_ = registry != nullptr
                  ? &registry->histogram("offload.serve_us")
                  : nullptr;
}

DownlinkFrame ServerAgent::handle(const sim::SensorFrame& frame,
                                  core::EpochDecision* decision_out) {
  obs::ScopedTimer timer(serve_us_);
  const core::EpochDecision& d = uniloc_->update_fast(frame, scratch_);
  if (decision_out != nullptr) *decision_out = d;
  return DownlinkFrame::encode(d.uniloc2);
}

TrafficStats run_offloaded_walk(core::Uniloc& uniloc, sim::Walker& walker,
                                obs::MetricsRegistry* registry) {
  PhoneAgent phone;
  ServerAgent server(&uniloc);
  phone.attach_metrics(registry);
  server.attach_metrics(registry);
  obs::Counter* up_bytes =
      registry != nullptr ? &registry->counter("offload.uplink_bytes")
                          : nullptr;
  obs::Counter* down_bytes =
      registry != nullptr ? &registry->counter("offload.downlink_bytes")
                          : nullptr;
  phone.reset(walker.start_heading());
  uniloc.reset({walker.start_position(), walker.start_heading()});

  TrafficStats stats;
  while (!walker.done()) {
    const sim::SensorFrame frame = walker.step(uniloc.gps_enabled());
    const UplinkFrame up = phone.reduce(frame);
    stats.uplink_bytes += up.bytes();
    server.handle(frame);
    stats.downlink_bytes += DownlinkFrame::kBytes;
    ++stats.epochs;
    if (up_bytes != nullptr) up_bytes->inc(up.bytes());
    if (down_bytes != nullptr) down_bytes->inc(DownlinkFrame::kBytes);
  }
  return stats;
}

}  // namespace uniloc::offload
