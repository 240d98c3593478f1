#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/confidence.h"
#include "core/error_model.h"
#include "core/features.h"
#include "core/iodetector.h"

namespace uniloc::core {
namespace {

// ------------------------------------------------------------- confidence

TEST(Confidence, HalfAtThreshold) {
  EXPECT_NEAR(confidence({5.0, 2.0}, 5.0), 0.5, 1e-12);
}

TEST(Confidence, HighWhenPredictedErrorSmall) {
  EXPECT_GT(confidence({1.0, 1.0}, 10.0), 0.99);
  EXPECT_LT(confidence({20.0, 1.0}, 10.0), 0.01);
}

TEST(Confidence, MonotoneInThreshold) {
  double prev = 0.0;
  for (double tau = 0.0; tau <= 20.0; tau += 0.5) {
    const double c = confidence({8.0, 3.0}, tau);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(Confidence, UncertaintyFlattensTheCurve) {
  // Far below the threshold a tighter prediction is MORE confident...
  EXPECT_GT(confidence({2.0, 0.5}, 8.0), confidence({2.0, 5.0}, 8.0));
  // ...and far above the threshold it is LESS confident.
  EXPECT_LT(confidence({20.0, 0.5}, 8.0), confidence({20.0, 5.0}, 8.0));
}

TEST(AdaptiveTau, MeanOfPredictions) {
  EXPECT_DOUBLE_EQ(adaptive_tau({{2.0, 1.0}, {4.0, 1.0}, {6.0, 1.0}}), 4.0);
  EXPECT_DOUBLE_EQ(adaptive_tau({}), 0.0);
}

TEST(BmaWeights, NormalizedAndProportional) {
  const std::vector<double> w = bma_weights({1.0, 3.0});
  EXPECT_NEAR(w[0], 0.25, 1e-12);
  EXPECT_NEAR(w[1], 0.75, 1e-12);
}

TEST(BmaWeights, ZeroConfidenceIsExcluded) {
  const std::vector<double> w = bma_weights({0.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(w[0], 0.0);
  EXPECT_NEAR(w[1], 0.5, 1e-12);
}

TEST(BmaWeights, AllZeroStaysZero) {
  const std::vector<double> w = bma_weights({0.0, 0.0});
  EXPECT_DOUBLE_EQ(w[0], 0.0);
  EXPECT_DOUBLE_EQ(w[1], 0.0);
}

// ------------------------------------------------------------ error model

TEST(ErrorModel, ConstantIgnoresFeatures) {
  const ErrorModel m = ErrorModel::constant(13.5, 9.4);
  EXPECT_TRUE(m.is_constant());
  const stats::Gaussian g1 = m.predict({}, true);
  const std::vector<double> x{100.0};
  const stats::Gaussian g2 = m.predict(x, false);
  EXPECT_DOUBLE_EQ(g1.mean, 13.5);
  EXPECT_DOUBLE_EQ(g2.mean, 13.5);
  EXPECT_DOUBLE_EQ(g1.sd, 9.4);
}

stats::LinearModel fake_model(double b0, std::vector<double> betas,
                              double sd) {
  stats::LinearModel m;
  m.has_intercept = true;
  m.coefficients.push_back({"(intercept)", b0, 0.0, 0.0, 0.0});
  for (std::size_t i = 0; i < betas.size(); ++i) {
    m.coefficients.push_back({"x" + std::to_string(i), betas[i], 0.0, 0.0,
                              0.0});
  }
  m.residual_sd = sd;
  return m;
}

TEST(ErrorModel, FittedSelectsEnvironment) {
  const ErrorModel m = ErrorModel::fitted(fake_model(1.0, {1.0}, 0.5),
                                          fake_model(10.0, {2.0}, 3.0));
  const std::vector<double> x{2.0};
  EXPECT_DOUBLE_EQ(m.predict(x, true).mean, 3.0);    // 1 + 1*2
  EXPECT_DOUBLE_EQ(m.predict(x, false).mean, 14.0);  // 10 + 2*2
  EXPECT_DOUBLE_EQ(m.predict(x, true).sd, 0.5);
}

TEST(ErrorModel, PredictionClampedNonNegative) {
  const ErrorModel m =
      ErrorModel::fitted_single(fake_model(-5.0, {0.1}, 1.0));
  const std::vector<double> x{1.0};
  EXPECT_GE(m.predict(x, true).mean, 0.1);
}

TEST(ErrorModel, ExtraFeaturesIgnored) {
  // Fusion passes 3 features; the aliased motion-outdoor model uses 2.
  const ErrorModel m =
      ErrorModel::fitted_single(fake_model(1.0, {1.0, 1.0}, 1.0));
  const std::vector<double> x{2.0, 3.0, 99.0};
  EXPECT_DOUBLE_EQ(m.predict(x, false).mean, 6.0);  // third ignored
}

TEST(ErrorModel, SetOutdoorModelAliases) {
  ErrorModel m = ErrorModel::fitted(fake_model(1.0, {1.0}, 1.0),
                                    fake_model(2.0, {1.0}, 1.0));
  m.set_outdoor_model(fake_model(50.0, {0.0}, 1.0));
  const std::vector<double> x{0.0};
  EXPECT_DOUBLE_EQ(m.predict(x, false).mean, 50.0);
  EXPECT_DOUBLE_EQ(m.predict(x, true).mean, 1.0);
}

// -------------------------------------------------------------- features

TEST(Features, NamesMatchExtractionArity) {
  using SF = schemes::SchemeFamily;
  for (SF f : {SF::kGps, SF::kWifiFingerprint, SF::kCellFingerprint,
               SF::kMotionPdr, SF::kFusion, SF::kOther}) {
    sim::SensorFrame frame;
    schemes::SchemeOutput out;
    FeatureContext ctx;
    EXPECT_EQ(extract_features(f, frame, out, ctx).size(),
              feature_names(f).size());
    EXPECT_EQ(extract_candidate_features(f, frame, out, ctx).size(),
              candidate_feature_names(f).size());
  }
}

TEST(Features, GpsHasNoFeatures) {
  EXPECT_TRUE(feature_names(schemes::SchemeFamily::kGps).empty());
}

TEST(Features, CandidateSupersetOfModelFeatures) {
  using SF = schemes::SchemeFamily;
  for (SF f : {SF::kWifiFingerprint, SF::kMotionPdr, SF::kFusion}) {
    const auto base = feature_names(f);
    const auto cand = candidate_feature_names(f);
    ASSERT_GE(cand.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(cand[i], base[i]);
    }
  }
}

TEST(Features, MotionReadsObservables) {
  sim::SensorFrame frame;
  schemes::SchemeOutput out;
  out.observables.dist_since_landmark = 42.0;
  FeatureContext ctx;
  const auto x =
      extract_features(schemes::SchemeFamily::kMotionPdr, frame, out, ctx);
  EXPECT_DOUBLE_EQ(x[0], 42.0);
}

TEST(Features, MissingDatabaseGivesConservativeDensity) {
  sim::SensorFrame frame;
  schemes::SchemeOutput out;
  FeatureContext ctx;  // null dbs
  const auto x = extract_features(schemes::SchemeFamily::kWifiFingerprint,
                                  frame, out, ctx);
  EXPECT_DOUBLE_EQ(x[0], 50.0);  // "very sparse"
}

// ------------------------------------------------------------- iodetector

sim::SensorFrame ambient_frame(double lux, double mag_sd, double cell_rssi) {
  sim::SensorFrame f;
  f.ambient.light_lux = lux;
  f.ambient.mag_field_sd_ut = mag_sd;
  f.cell = {{1, cell_rssi}};
  return f;
}

TEST(IoDetector, ClassifiesClearCases) {
  const IoDetector d;
  EXPECT_TRUE(d.is_indoor(ambient_frame(300.0, 5.0, -95.0)));
  EXPECT_FALSE(d.is_indoor(ambient_frame(12000.0, 0.7, -60.0)));
}

TEST(IoDetector, MajorityVoteOnMixedSignals) {
  const IoDetector d;
  // Bright but magnetically noisy with weak cellular: 2 of 3 indoor votes.
  EXPECT_TRUE(d.is_indoor(ambient_frame(12000.0, 5.0, -95.0)));
}

TEST(IoDetector, WorksWithoutCellular) {
  const IoDetector d;
  sim::SensorFrame f;
  f.ambient.light_lux = 100.0;
  f.ambient.mag_field_sd_ut = 6.0;
  EXPECT_TRUE(d.is_indoor(f));
}

TEST(IoDetector, ScoreSignConsistentWithClassification) {
  const IoDetector d;
  const sim::SensorFrame f = ambient_frame(200.0, 4.0, -90.0);
  EXPECT_EQ(d.is_indoor(f), d.indoor_score(f) > 0.0);
}

// -------------------------------------------------------------- baselines

schemes::SchemeOutput output_at(geo::Vec2 p, bool available = true) {
  schemes::SchemeOutput o;
  o.available = available;
  o.estimate = p;
  o.posterior = schemes::Posterior::point(p);
  return o;
}

TEST(Oracle, PicksMinimumError) {
  const std::vector<schemes::SchemeOutput> outs{
      output_at({0.0, 10.0}), output_at({0.0, 1.0}), output_at({5.0, 0.0})};
  EXPECT_EQ(oracle_choice(outs, {0.0, 0.0}), 1);
}

TEST(Oracle, SkipsUnavailable) {
  const std::vector<schemes::SchemeOutput> outs{
      output_at({0.0, 0.1}, false), output_at({0.0, 5.0})};
  EXPECT_EQ(oracle_choice(outs, {0.0, 0.0}), 1);
}

TEST(Oracle, NoneAvailable) {
  const std::vector<schemes::SchemeOutput> outs{output_at({0.0, 0.0}, false)};
  EXPECT_EQ(oracle_choice(outs, {0.0, 0.0}), -1);
}

TEST(GlobalBma, WeightsInverseToTrainingError) {
  const GlobalWeightBma bma({2.0, 4.0});
  EXPECT_NEAR(bma.weights()[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(bma.weights()[1], 1.0 / 3.0, 1e-12);
}

TEST(GlobalBma, CombineUsesFixedWeights) {
  const GlobalWeightBma bma({1.0, 1.0});
  const std::vector<schemes::SchemeOutput> outs{output_at({0.0, 0.0}),
                                                output_at({4.0, 0.0})};
  EXPECT_NEAR(bma.combine(outs).x, 2.0, 1e-12);
}

TEST(GlobalBma, RenormalizesOverAvailable) {
  const GlobalWeightBma bma({1.0, 1.0});
  const std::vector<schemes::SchemeOutput> outs{
      output_at({0.0, 0.0}, false), output_at({4.0, 0.0})};
  EXPECT_NEAR(bma.combine(outs).x, 4.0, 1e-12);
}

TEST(GlobalBma, RejectsNonPositiveErrors) {
  EXPECT_THROW(GlobalWeightBma({1.0, 0.0}), std::invalid_argument);
}

}  // namespace
}  // namespace uniloc::core
