#include "schemes/gps_scheme.h"

namespace uniloc::schemes {

GpsScheme::GpsScheme(geo::LocalFrame frame) : frame_(frame) {}

void GpsScheme::reset(const StartCondition&) {}

void GpsScheme::update_into(const sim::SensorFrame& frame, SchemeOutput& out) {
  out.available = false;
  if (!frame.gps.has_value()) return;  // stale payload; gated by available

  const geo::Vec2 local = frame_.to_local(frame.gps->pos);
  out.available = true;
  out.estimate = local;
  // The posterior spread reflects the receiver's own confidence (HDOP
  // scales the nominal accuracy). UERE ~ 5 m is a typical user-equivalent
  // range error for smartphone receivers.
  const double sigma = std::max(3.0, 5.0 * frame.gps->hdop + 8.0);
  Posterior::gaussian_into(local, sigma, 3, out.posterior);
  out.observables.hdop = frame.gps->hdop;
  out.observables.num_satellites =
      static_cast<double>(frame.gps->num_satellites);
}

}  // namespace uniloc::schemes
