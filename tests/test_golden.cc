// Golden-trace regression tests.
//
// A fault-free run and a seeded-chaos run are rendered to a canonical
// JSONL trace (one line per epoch per session: source, attempts, fix,
// error) and diffed field-by-field against fixtures checked into
// tests/golden/. Any change to the walker simulation, the wire protocol,
// the retry/fallback state machine, or the fault schedule shows up as a
// one-line diff with the epoch that moved.
//
// To regenerate after an intentional behavior change:
//
//   UNILOC_UPDATE_GOLDEN=1 ./tests/test_golden
//
// then review the fixture diff like any other code change.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.h"
#include "core/trainer.h"
#include "fault/link.h"
#include "fault/plan.h"
#include "svc/loadgen.h"
#include "svc/server.h"
#include "testing_util.h"

#ifndef UNILOC_GOLDEN_DIR
#define UNILOC_GOLDEN_DIR "tests/golden"
#endif

namespace uniloc {
namespace {

const core::TrainedModels& test_models() {
  return testing_util::standard_models(100);
}

struct GoldenFixture {
  const core::Deployment& office = testing_util::office_deployment();

  svc::UnilocFactory factory() {
    return [this](std::uint64_t sid) {
      return std::make_unique<core::Uniloc>(core::make_uniloc(
          office, test_models(), {}, false, /*seed=*/7 + sid));
    };
  }
};

const char* source_name(svc::EpochEvent::Source s) {
  switch (s) {
    case svc::EpochEvent::Source::kServer:
      return "server";
    case svc::EpochEvent::Source::kLocal:
      return "local";
    case svc::EpochEvent::Source::kSkipped:
      return "skipped";
  }
  return "?";
}

/// Canonical rendering: quantized to 0.1 mm, stable field order.
std::vector<std::string> render_trace(const svc::LoadReport& report) {
  std::vector<std::string> lines;
  for (const svc::WalkerOutcome& w : report.walkers) {
    for (const svc::EpochEvent& ev : w.timeline) {
      char buf[256];
      std::snprintf(
          buf, sizeof(buf),
          "{\"session\":%llu,\"epoch\":%zu,\"source\":\"%s\","
          "\"attempts\":%zu,\"degraded\":%d,\"rehello\":%d,"
          "\"x\":%.4f,\"y\":%.4f,\"err\":%.4f}",
          static_cast<unsigned long long>(w.session_id), ev.epoch,
          source_name(ev.source), ev.attempts, ev.degraded_after ? 1 : 0,
          ev.rehello ? 1 : 0, ev.estimate.x, ev.estimate.y, ev.error_m);
      lines.emplace_back(buf);
    }
  }
  return lines;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

void check_against_golden(const std::vector<std::string>& lines,
                          const std::string& name) {
  const std::string path = std::string(UNILOC_GOLDEN_DIR) + "/" + name;
  if (std::getenv("UNILOC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    for (const std::string& line : lines) out << line << "\n";
    GTEST_SKIP() << "regenerated " << path;
  }
  const std::vector<std::string> golden = read_lines(path);
  ASSERT_FALSE(golden.empty())
      << path << " missing or empty; run with UNILOC_UPDATE_GOLDEN=1";
  ASSERT_EQ(lines.size(), golden.size()) << "trace length changed";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], golden[i]) << name << " line " << (i + 1);
  }
}

svc::LoadReport run_scenario(GoldenFixture& fx, const fault::FaultPlan* plan,
                             std::size_t walkers, std::size_t epochs) {
  svc::LocalizationServer server(svc::ServerConfig{}, fx.factory(), nullptr);
  svc::LoadGenConfig lg;
  lg.walkers = walkers;
  lg.max_epochs_per_walker = epochs;
  lg.resilience.retry.max_retries = 1;
  lg.resilience.probe_period = 2;
  lg.resilience.record_timeline = true;
  if (plan != nullptr) {
    lg.make_link = [plan](svc::Endpoint& s, std::uint64_t sid) {
      return std::make_unique<fault::FaultyLink>(
          std::make_unique<svc::DirectLink>(&s), plan, sid);
    };
  }
  return run_load(server, fx.office, lg, nullptr);
}

TEST(Golden, FaultFreeTraceMatchesFixture) {
  GoldenFixture fx;
  const svc::LoadReport report =
      run_scenario(fx, nullptr, /*walkers=*/1, /*epochs=*/10);
  ASSERT_EQ(report.total_epochs, 10u);
  check_against_golden(render_trace(report), "trace_clean.jsonl");
}

TEST(Golden, SeededChaosTraceMatchesFixture) {
  GoldenFixture fx;
  fault::FaultRates rates;
  rates.drop = 0.10;
  rates.corrupt = 0.05;
  rates.base_delay_us = 20'000;
  fault::FaultPlan plan(5, rates);
  plan.add_blackout(6, 9);  // short outage: fallback entry + exit on tape
  const svc::LoadReport report =
      run_scenario(fx, &plan, /*walkers=*/2, /*epochs=*/12);
  check_against_golden(render_trace(report), "trace_chaos.jsonl");
}

// The served stream's agreement with the reference oracle, over 32 seeds
// of this fixture's shape, is diff.DifferentialSvc.GoldenSeedSweep*
// (tests/test_differential.cc).

}  // namespace
}  // namespace uniloc
