// What-if engine tests: cross-family smoke (the sweep runs on every
// topology family's canonical migration), bit-reproducibility (same seed →
// byte-identical report at any thread count), unsafe-future detection under
// aggressive demand knobs, the cooperative stop contract (a stop before
// the sweep, and one that lands during the margin search), and errors
// raised on worker threads reaching the caller.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "klotski/json/json.h"
#include "klotski/obs/metrics.h"
#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/topo/builder.h"
#include "klotski/whatif/whatif.h"

namespace klotski {
namespace {

core::Plan plan_family(migration::MigrationCase mig) {
  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(mig.task, pipeline::CheckerConfig{});
  auto planner = pipeline::make_planner("astar");
  core::Plan plan = planner->plan(mig.task, *bundle.checker,
                                  core::PlannerOptions{});
  EXPECT_TRUE(plan.found) << plan.failure;
  return plan;
}

whatif::CaseFactory family_factory(topo::TopologyFamily family) {
  return [family] {
    return pipeline::build_family_experiment(family, topo::PresetId::kA,
                                             topo::PresetScale::kReduced);
  };
}

class WhatIfFamily
    : public ::testing::TestWithParam<topo::TopologyFamily> {};

TEST_P(WhatIfFamily, SmokeSweepCompletesAndReportsEveryPhase) {
  const whatif::CaseFactory factory = family_factory(GetParam());
  const core::Plan plan = plan_family(factory());

  whatif::WhatIfParams params;
  params.trajectories = 12;
  params.seed = 7;
  const whatif::WhatIfReport report =
      whatif::run_whatif(factory, plan, params);

  EXPECT_EQ(report.trajectories, 12);
  EXPECT_EQ(report.trajectories_run, 12);
  EXPECT_FALSE(report.stopped);
  EXPECT_EQ(report.phases.size(), plan.phases().size());
  EXPECT_GE(report.safe_fraction, 0.0);
  EXPECT_LE(report.safe_fraction, 1.0);
  EXPECT_DOUBLE_EQ(
      report.safe_fraction,
      static_cast<double>(report.trajectories_run - report.unsafe) / 12.0);
  // Every trajectory reaches phase 0 (or broke there), so the first row
  // saw all of them.
  ASSERT_FALSE(report.phases.empty());
  EXPECT_EQ(report.phases[0].evaluated, 12);
  EXPECT_GE(report.safe_growth_margin, 0.0);
  EXPECT_LE(report.safe_growth_margin, params.margin_max);

  const json::Value doc = whatif::report_to_json(report, params);
  EXPECT_EQ(doc.get_string("schema", ""), "klotski.whatif.v1");
  EXPECT_EQ(doc.get_int("trajectories_run", -1), 12);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, WhatIfFamily,
                         ::testing::Values(topo::TopologyFamily::kClos,
                                           topo::TopologyFamily::kFlat,
                                           topo::TopologyFamily::kReconf),
                         [](const auto& info) {
                           return topo::to_string(info.param);
                         });

TEST(WhatIf, SameSeedSameReportBytes) {
  const whatif::CaseFactory factory =
      family_factory(topo::TopologyFamily::kClos);
  const core::Plan plan = plan_family(factory());

  whatif::WhatIfParams params;
  params.trajectories = 16;
  params.seed = 42;
  const std::string first = whatif::report_text(
      whatif::run_whatif(factory, plan, params), params);
  const std::string second = whatif::report_text(
      whatif::run_whatif(factory, plan, params), params);
  EXPECT_EQ(first, second);
}

TEST(WhatIf, ReportIsInvariantToThreadCount) {
  const whatif::CaseFactory factory =
      family_factory(topo::TopologyFamily::kClos);
  const core::Plan plan = plan_family(factory());

  whatif::WhatIfParams params;
  params.trajectories = 24;
  params.seed = 3;
  params.threads = 1;
  const std::string serial = whatif::report_text(
      whatif::run_whatif(factory, plan, params), params);
  params.threads = 4;
  const std::string parallel = whatif::report_text(
      whatif::run_whatif(factory, plan, params), params);
  EXPECT_EQ(serial, parallel);
}

TEST(WhatIf, AggressiveDemandKnobsSurfaceUnsafeFutures) {
  const whatif::CaseFactory factory =
      family_factory(topo::TopologyFamily::kClos);
  const core::Plan plan = plan_family(factory());

  // A plan that is fine under its own forecast must look unsafe when the
  // sampled futures run far hotter than anything it was planned against.
  whatif::WhatIfParams params;
  params.trajectories = 40;
  params.growth_max = 0.05;
  params.surge_factor_max = 3.0;
  params.bias_factor_max = 2.5;
  const whatif::WhatIfReport report =
      whatif::run_whatif(factory, plan, params);

  EXPECT_GT(report.unsafe, 0);
  EXPECT_LT(report.safe_fraction, 1.0);
  EXPECT_GE(report.first_break_phase, 0);
  EXPECT_GT(report.first_break_multiplier, 1.0);
  long long histogram_total = 0;
  for (const long long count : report.break_histogram) {
    histogram_total += count;
  }
  EXPECT_EQ(histogram_total, report.unsafe);
  long long per_phase_unsafe = 0;
  for (const whatif::PhaseStats& row : report.phases) {
    per_phase_unsafe += row.unsafe;
  }
  EXPECT_EQ(per_phase_unsafe, report.unsafe);
}

TEST(WhatIf, SafePlanEarnsAMarginAboveOne) {
  const whatif::CaseFactory factory =
      family_factory(topo::TopologyFamily::kClos);
  const core::Plan plan = plan_family(factory());

  whatif::WhatIfParams params;
  params.trajectories = 8;
  const whatif::WhatIfReport report =
      whatif::run_whatif(factory, plan, params);
  // The canonical preset-A plan passes its audit with headroom, so the
  // bisection must find a tolerated multiplier strictly above 1.
  EXPECT_GT(report.safe_growth_margin, 1.0);
}

TEST(WhatIf, StopFlagReportsPartialSweepAsStopped) {
  const whatif::CaseFactory factory =
      family_factory(topo::TopologyFamily::kClos);
  const core::Plan plan = plan_family(factory());

  whatif::WhatIfParams params;
  params.trajectories = 10;
  std::atomic<bool> stop{true};
  const whatif::WhatIfReport report =
      whatif::run_whatif(factory, plan, params, &stop);
  EXPECT_TRUE(report.stopped);
  EXPECT_EQ(report.trajectories_run, 0);
  const json::Value doc = whatif::report_to_json(report, params);
  EXPECT_TRUE(doc.get_bool("stopped", false));
}

TEST(WhatIf, StopDuringMarginSearchSkipsIt) {
  const whatif::CaseFactory factory =
      family_factory(topo::TopologyFamily::kClos);
  const core::Plan plan = plan_family(factory());

  // Every trajectory finishes first (one worker walks its one chunk before
  // the margin states); the stop lands during a margin search long enough
  // that it could not finish on its own.
  whatif::WhatIfParams params;
  params.trajectories = 4;
  params.margin_iterations = 200000;
  const bool metrics_were_on = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Counter& finished =
      obs::Registry::global().counter("whatif.trajectories");
  const long long before = finished.value();
  std::atomic<bool> stop{false};
  std::thread watcher([&] {
    while (finished.value() - before < params.trajectories) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true);
  });
  const auto start = std::chrono::steady_clock::now();
  const whatif::WhatIfReport report =
      whatif::run_whatif(factory, plan, params, &stop);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  watcher.join();
  obs::set_metrics_enabled(metrics_were_on);

  EXPECT_TRUE(report.stopped);
  EXPECT_EQ(report.trajectories_run, params.trajectories);
  EXPECT_EQ(report.safe_growth_margin, 1.0);
  EXPECT_FALSE(report.margin_saturated);
  // 5 states x 200,002 checks would take minutes; the stop cut it short.
  EXPECT_LT(seconds, 30.0);
}

TEST(WhatIf, RejectsBadParams) {
  const whatif::CaseFactory factory =
      family_factory(topo::TopologyFamily::kClos);
  const core::Plan plan = plan_family(factory());

  whatif::WhatIfParams params;
  params.trajectories = 0;
  EXPECT_THROW(whatif::run_whatif(factory, plan, params),
               std::invalid_argument);
  params.trajectories = 4;
  params.surge_factor_min = -0.5;
  EXPECT_THROW(whatif::run_whatif(factory, plan, params),
               std::invalid_argument);
  params.surge_factor_min = 0.8;
  params.margin_max = 0.5;
  EXPECT_THROW(whatif::run_whatif(factory, plan, params),
               std::invalid_argument);
}

TEST(WhatIf, OutOfRangeMarginThrowsAtEveryThreadCount) {
  const whatif::CaseFactory factory =
      family_factory(topo::TopologyFamily::kClos);
  const core::Plan plan = plan_family(factory());

  // Scaling the base volumes by 1e12 leaves the router's exact load range,
  // so the margin search's first check throws. On worker threads too, the
  // sweep must raise it to the caller (not terminate), with the message a
  // one-thread sweep raises.
  whatif::WhatIfParams params;
  params.trajectories = 4;
  params.margin_max = 1e12;
  std::string first_message;
  for (const int threads : {1, 2, 4}) {
    params.threads = threads;
    try {
      (void)whatif::run_whatif(factory, plan, params);
      ADD_FAILURE() << "no exception at threads=" << threads;
    } catch (const std::invalid_argument& e) {
      if (threads == 1) first_message = e.what();
      EXPECT_EQ(e.what(), first_message) << "threads=" << threads;
    }
  }
  EXPECT_NE(first_message.find("exact load range"), std::string::npos)
      << first_message;
}

}  // namespace
}  // namespace klotski
