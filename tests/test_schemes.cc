#include <gtest/gtest.h>

#include "core/deployment.h"
#include "schemes/fingerprint_scheme.h"
#include "schemes/fusion_scheme.h"
#include "schemes/gps_scheme.h"
#include "schemes/pdr_scheme.h"
#include "sim/walker.h"

namespace uniloc::schemes {
namespace {

// Shared office deployment for scheme-level tests.
class SchemeTest : public ::testing::Test {
 protected:
  SchemeTest()
      : deployment_(core::make_deployment(
            sim::office_place(42), core::DeploymentOptions{.seed = 42})) {}

  sim::Walker make_walker(std::uint64_t seed = 1) {
    sim::WalkConfig cfg;
    cfg.seed = seed;
    return sim::Walker(deployment_.place.get(), deployment_.radio.get(), 0,
                       cfg);
  }

  /// Run a scheme over a full walk and return its mean error and the
  /// fraction of epochs it was available.
  std::pair<double, double> run(LocalizationScheme& scheme,
                                std::uint64_t seed = 1,
                                bool gps_on = true) {
    sim::Walker walker = make_walker(seed);
    scheme.reset({walker.start_position(), walker.start_heading()});
    double err_sum = 0.0;
    int avail = 0, total = 0;
    while (!walker.done()) {
      const sim::SensorFrame f = walker.step(gps_on);
      const SchemeOutput out = scheme.update(f);
      ++total;
      if (out.available) {
        ++avail;
        err_sum += geo::distance(out.estimate, f.truth_pos);
      }
    }
    return {avail > 0 ? err_sum / avail : -1.0,
            static_cast<double>(avail) / total};
  }

  core::Deployment deployment_;
};

// ----------------------------------------------------------------- scheme

TEST(Posterior, NormalizeSumsToOne) {
  Posterior p;
  p.support = {{{0.0, 0.0}, 2.0}, {{1.0, 0.0}, 6.0}};
  p.normalize();
  EXPECT_NEAR(p.support[0].weight + p.support[1].weight, 1.0, 1e-12);
  EXPECT_NEAR(p.support[1].weight, 0.75, 1e-12);
}

TEST(Posterior, NormalizeZeroWeightsBecomesUniform) {
  Posterior p;
  p.support = {{{0.0, 0.0}, 0.0}, {{1.0, 0.0}, 0.0}};
  p.normalize();
  EXPECT_NEAR(p.support[0].weight, 0.5, 1e-12);
}

TEST(Posterior, MeanIsWeightedCentroid) {
  Posterior p;
  p.support = {{{0.0, 0.0}, 1.0}, {{4.0, 0.0}, 3.0}};
  const geo::Vec2 m = p.mean();
  EXPECT_NEAR(m.x, 3.0, 1e-12);
}

TEST(Posterior, SpreadZeroForPoint) {
  EXPECT_DOUBLE_EQ(Posterior::point({2.0, 3.0}).spread(), 0.0);
}

TEST(Posterior, GaussianCenteredAndNormalized) {
  const Posterior p = Posterior::gaussian({5.0, 5.0}, 3.0);
  const geo::Vec2 m = p.mean();
  EXPECT_NEAR(m.x, 5.0, 1e-9);
  EXPECT_NEAR(m.y, 5.0, 1e-9);
  double total = 0.0;
  for (const WeightedPoint& wp : p.support) total += wp.weight;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(p.spread(), 3.0, 1.5);
}

TEST(Posterior, ToGridConservesMass) {
  const Posterior p = Posterior::gaussian({5.0, 5.0}, 2.0);
  geo::Grid grid(geo::BBox{{-10.0, -10.0}, {20.0, 20.0}}, 1.0);
  const std::vector<double> mass = p.to_grid(grid);
  double total = 0.0;
  for (double m : mass) total += m;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SchemeFamily, Names) {
  EXPECT_STREQ(family_name(SchemeFamily::kGps), "gps");
  EXPECT_STREQ(family_name(SchemeFamily::kFusion), "fusion");
}

// -------------------------------------------------------------------- GPS

TEST_F(SchemeTest, GpsUnavailableWithoutFix) {
  GpsScheme gps(deployment_.place->frame());
  gps.reset({{0.0, 0.0}, 0.0});
  sim::SensorFrame frame;  // no gps fix
  EXPECT_FALSE(gps.update(frame).available);
}

TEST_F(SchemeTest, GpsConvertsToLocalFrame) {
  GpsScheme gps(deployment_.place->frame());
  gps.reset({{0.0, 0.0}, 0.0});
  sim::SensorFrame frame;
  sim::GpsFix fix;
  fix.pos = deployment_.place->frame().to_geo({30.0, 40.0});
  fix.hdop = 1.0;
  fix.num_satellites = 9;
  frame.gps = fix;
  const SchemeOutput out = gps.update(frame);
  ASSERT_TRUE(out.available);
  EXPECT_NEAR(out.estimate.x, 30.0, 1e-6);
  EXPECT_NEAR(out.estimate.y, 40.0, 1e-6);
  EXPECT_DOUBLE_EQ(out.observables.hdop.value(), 1.0);
  EXPECT_DOUBLE_EQ(out.observables.num_satellites.value(), 9.0);
  // Posterior centered at the fix.
  EXPECT_LT(geo::distance(out.posterior.mean(), out.estimate), 0.5);
}

// --------------------------------------------------------- fingerprinting

TEST_F(SchemeTest, WifiAccurateInOffice) {
  FingerprintScheme::Options opts;
  opts.softmax_scale_db = 3.0;
  FingerprintScheme wifi(deployment_.wifi_db.get(), opts);
  const auto [err, avail] = run(wifi);
  EXPECT_GT(avail, 0.95);
  EXPECT_LT(err, 8.0);
  EXPECT_GT(err, 0.3);
}

TEST_F(SchemeTest, WifiUnavailableOnEmptyScan) {
  FingerprintScheme wifi(deployment_.wifi_db.get(), {});
  wifi.reset({{0.0, 0.0}, 0.0});
  sim::SensorFrame frame;  // empty scans
  EXPECT_FALSE(wifi.update(frame).available);
}

TEST_F(SchemeTest, WifiRespectsMinTransmitters) {
  FingerprintScheme::Options opts;
  opts.min_transmitters = 3;
  FingerprintScheme wifi(deployment_.wifi_db.get(), opts);
  wifi.reset({{0.0, 0.0}, 0.0});
  sim::SensorFrame frame;
  frame.wifi = {{1, -60.0}, {2, -70.0}};  // only two APs
  EXPECT_FALSE(wifi.update(frame).available);
}

TEST_F(SchemeTest, WifiReportsObservables) {
  FingerprintScheme wifi(deployment_.wifi_db.get(), {});
  sim::Walker walker = make_walker(2);
  wifi.reset({walker.start_position(), walker.start_heading()});
  walker.step();
  const sim::SensorFrame f = walker.step();
  const SchemeOutput out = wifi.update(f);
  ASSERT_TRUE(out.available);
  EXPECT_GT(out.observables.num_transmitters.value(), 0.0);
  EXPECT_GE(out.observables.top_distance.value(), 0.0);
  EXPECT_GE(out.observables.top3_distance_sd.value(), 0.0);
}

TEST_F(SchemeTest, CellularCoarserThanWifi) {
  FingerprintScheme wifi(deployment_.wifi_db.get(), {});
  FingerprintScheme cell(deployment_.cell_db.get(), {});
  EXPECT_EQ(wifi.name(), "WiFi");
  EXPECT_EQ(cell.name(), "Cellular");
  EXPECT_EQ(cell.family(), SchemeFamily::kCellFingerprint);
  const auto [wifi_err, wa] = run(wifi, 3);
  const auto [cell_err, ca] = run(cell, 3);
  EXPECT_GT(ca, 0.95);  // cellular available everywhere
  EXPECT_GT(cell_err, wifi_err);  // but coarser
}

TEST_F(SchemeTest, DeviceOffsetHurtsAndCalibrationRecovers) {
  auto run_with = [&](bool calibrate) {
    FingerprintScheme::Options opts;
    opts.calibrate_offset = calibrate;
    opts.softmax_scale_db = 3.0;
    FingerprintScheme wifi(deployment_.wifi_db.get(), opts);
    sim::WalkConfig cfg;
    cfg.seed = 4;
    cfg.device = sim::lg_g3();
    sim::Walker walker(deployment_.place.get(), deployment_.radio.get(), 0,
                       cfg);
    wifi.reset({walker.start_position(), walker.start_heading()});
    double err = 0.0;
    int n = 0;
    while (!walker.done()) {
      const sim::SensorFrame f = walker.step(false);
      const SchemeOutput out = wifi.update(f);
      if (out.available) {
        err += geo::distance(out.estimate, f.truth_pos);
        ++n;
      }
    }
    return err / n;
  };
  const double raw = run_with(false);
  const double calibrated = run_with(true);
  EXPECT_LT(calibrated, raw);
}

// -------------------------------------------------------------------- PDR

TEST_F(SchemeTest, PdrAlwaysAvailableAfterReset) {
  PdrScheme pdr(deployment_.place.get(), PdrOptions{});
  const auto [err, avail] = run(pdr, 5);
  EXPECT_DOUBLE_EQ(avail, 1.0);
  EXPECT_GT(err, 0.2);
  EXPECT_LT(err, 15.0);
}

TEST_F(SchemeTest, PdrNotStartedIsUnavailable) {
  PdrScheme pdr(deployment_.place.get(), PdrOptions{});
  sim::SensorFrame frame;
  EXPECT_FALSE(pdr.update(frame).available);
}

TEST_F(SchemeTest, PdrTracksDistanceSinceLandmark) {
  PdrScheme pdr(deployment_.place.get(), PdrOptions{});
  sim::Walker walker = make_walker(6);
  pdr.reset({walker.start_position(), walker.start_heading()});
  double prev = 0.0;
  bool saw_reset = false;
  while (!walker.done()) {
    const sim::SensorFrame f = walker.step();
    const SchemeOutput out = pdr.update(f);
    const double d = out.observables.dist_since_landmark.value();
    if (d < prev - 1.0) saw_reset = true;
    prev = d;
  }
  EXPECT_TRUE(saw_reset);  // landmarks must reset the counter
}

TEST_F(SchemeTest, MapConstraintImprovesPdr) {
  PdrOptions with_map;
  PdrOptions without_map;
  without_map.use_map = false;
  without_map.use_landmarks = false;
  PdrScheme constrained(deployment_.place.get(), with_map);
  PdrScheme unconstrained(deployment_.place.get(), without_map);
  const auto [err_map, a1] = run(constrained, 7);
  const auto [err_free, a2] = run(unconstrained, 7);
  EXPECT_LT(err_map, err_free);
}

TEST_F(SchemeTest, PdrPosteriorIsParticleCloud) {
  PdrScheme pdr(deployment_.place.get(), PdrOptions{});
  sim::Walker walker = make_walker(8);
  pdr.reset({walker.start_position(), walker.start_heading()});
  const sim::SensorFrame f = walker.step();
  const SchemeOutput out = pdr.update(f);
  ASSERT_TRUE(out.available);
  EXPECT_EQ(out.posterior.support.size(), PdrOptions{}.num_particles);
}

// ----------------------------------------------------------------- fusion

TEST_F(SchemeTest, FusionBeatsPlainPdrIndoors) {
  FusionOptions fo;
  FusionScheme fusion(deployment_.place.get(), deployment_.wifi_db.get(), fo);
  PdrScheme pdr(deployment_.place.get(), PdrOptions{});
  double fusion_sum = 0.0, pdr_sum = 0.0;
  for (std::uint64_t seed : {10u, 11u, 12u}) {
    fusion_sum += run(fusion, seed).first;
    pdr_sum += run(pdr, seed).first;
  }
  EXPECT_LT(fusion_sum, pdr_sum);
}

TEST_F(SchemeTest, FusionFamilyAndName) {
  FusionScheme fusion(deployment_.place.get(), deployment_.wifi_db.get(),
                      FusionOptions{});
  EXPECT_EQ(fusion.name(), "Fusion");
  EXPECT_EQ(fusion.family(), SchemeFamily::kFusion);
}

// ------------------------------------------------------------ calibration

TEST(OffsetCalibrator, LearnsConstantOffset) {
  // Build a tiny database and feed scans shifted by a constant.
  FingerprintDatabase db;
  // Use the public build path via a synthetic place is heavy; instead
  // exercise calibrate() against an empty db (no-op) and rely on the
  // scheme-level test above for end-to-end behaviour.
  OffsetCalibrator cal;
  std::vector<sim::ApReading> scan{{1, -60.0}};
  const auto out = cal.calibrate(scan, db);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].rssi_dbm, -60.0);  // empty db: unchanged
  EXPECT_DOUBLE_EQ(cal.offset_db(), 0.0);
}

}  // namespace
}  // namespace uniloc::schemes
