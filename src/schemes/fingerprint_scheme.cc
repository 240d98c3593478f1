#include "schemes/fingerprint_scheme.h"

#include <cmath>

#include "schemes/epoch_context.h"
#include "stats/descriptive.h"

namespace uniloc::schemes {

FingerprintScheme::FingerprintScheme(const FingerprintDatabase* db,
                                     Options opts)
    : db_(db), opts_(opts) {}

std::string FingerprintScheme::name() const {
  return db_->source() == FingerprintDatabase::Source::kWifi ? "WiFi"
                                                             : "Cellular";
}

SchemeFamily FingerprintScheme::family() const {
  return db_->source() == FingerprintDatabase::Source::kWifi
             ? SchemeFamily::kWifiFingerprint
             : SchemeFamily::kCellFingerprint;
}

void FingerprintScheme::reset(const StartCondition&) {
  if (opts_.calibrate_offset) calibrator_ = OffsetCalibrator();
}

void FingerprintScheme::update_into(const sim::SensorFrame& frame,
                                    SchemeOutput& out) {
  out.available = false;
  const std::vector<sim::ApReading>& raw =
      db_->source() == FingerprintDatabase::Source::kWifi ? frame.wifi
                                                          : frame.cell;
  if (raw.size() < opts_.min_transmitters || db_->empty()) return;

  const std::vector<sim::ApReading>* scan = &raw;
  if (opts_.calibrate_offset) {
    // Calibration allocates internally (it copies the scan and runs an
    // exact NN query); deployments that enable it trade the zero-alloc
    // guarantee for device-offset robustness.
    scan_buf_.assign(raw.begin(), raw.end());
    scan_buf_ = calibrator_.calibrate(std::move(scan_buf_), *db_);
    scan = &scan_buf_;
  }

  // The raw scan is the one other stages (fusion, the rssi_dist_sd
  // feature) query this epoch, so its candidate evaluation is shared
  // through the epoch context; a calibrated scan is private to this
  // scheme and keeps its private scratch.
  ScanMemo* memo = (epoch_ctx_ != nullptr && scan == &raw)
                       ? epoch_ctx_->memo_for(db_)
                       : nullptr;
  if (memo != nullptr) {
    db_->k_nearest_memo(*scan, opts_.top_k, epoch_ctx_->tag, *memo, matches_);
  } else {
    db_->k_nearest_into(*scan, opts_.top_k, scan_scratch_, matches_);
  }
  if (matches_.empty()) return;

  out.available = true;
  out.estimate = db_->fingerprints()[matches_[0].index].pos;

  // Softmax posterior over the top-K candidates, relative to the best
  // distance so the temperature acts on the *gap* between candidates.
  const double best = matches_[0].distance;
  out.posterior.support.clear();
  for (const Match& m : matches_) {
    const double w =
        std::exp(-(m.distance - best) / opts_.softmax_scale_db);
    out.posterior.support.push_back({db_->fingerprints()[m.index].pos, w});
  }
  out.posterior.normalize();

  // Public observables mirroring what a deployed RADAR exposes.
  out.observables.num_transmitters = static_cast<double>(scan->size());
  top3_.clear();
  for (std::size_t i = 0; i < matches_.size() && i < 3; ++i) {
    top3_.push_back(matches_[i].distance);
  }
  out.observables.top_distance = best;
  out.observables.top3_distance_sd =
      top3_.size() >= 2 ? stats::stddev(top3_) : 0.0;
}

}  // namespace uniloc::schemes
