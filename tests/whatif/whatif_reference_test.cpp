// The what-if engine against a test-local reference.
//
// run_whatif walks trajectory chunks phase by phase, swaps only demand
// volumes between checks, and runs the margin search as one bisection per
// plan state. The reference here is the plain definition: one trajectory
// at a time through every phase, each check under a freshly copied demand
// set, and one serial bisection of "every state is safe at m". Reports
// must match byte for byte across families, presets, a plan that is
// already unsafe at x1 (the [0, 1] bracket), a plan whose middle phase
// breaks the port constraints, a saturated margin, one and sixteen
// bisection steps, and 1, 2 and 4 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "klotski/constraints/demand_checker.h"
#include "klotski/constraints/port_checker.h"
#include "klotski/core/state_evaluator.h"
#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/sim/fault_script.h"
#include "klotski/traffic/forecast.h"
#include "klotski/util/hash.h"
#include "klotski/util/rng.h"
#include "klotski/whatif/whatif.h"

namespace klotski {
namespace {

// The sampling salts of the engine: trajectory i's future is part of the
// report's contract, so the reference derives it the same way.
constexpr std::uint64_t kTrajectorySalt = 0x57A7'1F00'D001ULL;
constexpr std::uint64_t kGrowthSalt = 0x6807'7801ULL;

struct RefValidator {
  migration::MigrationCase mig;
  pipeline::CheckerBundle bundle;
  constraints::DemandChecker* demand_checker = nullptr;
  std::unique_ptr<core::StateEvaluator> evaluator;

  RefValidator(const whatif::CaseFactory& factory,
               const pipeline::CheckerConfig& config)
      : mig(factory()) {
    bundle = pipeline::make_standard_checker(mig.task, config);
    demand_checker = dynamic_cast<constraints::DemandChecker*>(
        &bundle.checker->checker(bundle.checker->size() - 1));
    evaluator = std::make_unique<core::StateEvaluator>(
        mig.task, *bundle.checker, /*use_cache=*/false);
  }
};

traffic::Forecaster ref_future(const whatif::WhatIfParams& params, int index,
                               const migration::MigrationTask& task,
                               int num_phases) {
  const std::uint64_t seed = util::hash_combine(
      util::hash_combine(params.seed, kTrajectorySalt),
      static_cast<std::uint64_t>(index));
  util::Rng growth_rng(util::hash_combine(seed, kGrowthSalt));
  const double growth =
      growth_rng.uniform_real(params.growth_min, params.growth_max);
  sim::FaultScriptParams sp;
  sp.horizon = std::max(8, num_phases + 2);
  sp.expected_phases = std::max(1, num_phases);
  sp.circuit_degrades = 0;
  sp.circuit_failures = 0;
  sp.switch_drains = 0;
  sp.step_failures = 0;
  sp.demand_events = params.surges;
  sp.forecast_errors = params.forecast_errors;
  sp.surge_factor_min = params.surge_factor_min;
  sp.surge_factor_max = params.surge_factor_max;
  sp.bias_factor_min = params.bias_factor_min;
  sp.bias_factor_max = params.bias_factor_max;
  const sim::FaultScript script = sim::make_fault_script(seed, task, sp);
  traffic::Forecaster forecaster(task.demands, growth);
  for (const traffic::SurgeEvent& s : script.surges) forecaster.add_surge(s);
  for (const traffic::ForecastBias& b : script.biases) forecaster.add_bias(b);
  return forecaster;
}

whatif::TrajectoryOutcome ref_trajectory(const whatif::WhatIfParams& params,
                                         int index, RefValidator& v,
                                         const std::vector<core::Phase>& phases) {
  migration::MigrationTask& task = v.mig.task;
  const double theta = params.checker.demand.max_utilization;
  const double base_volume = traffic::total_volume(task.demands);
  const traffic::Forecaster future =
      ref_future(params, index, task, static_cast<int>(phases.size()));
  whatif::TrajectoryOutcome out;
  out.completed = true;
  out.safe = true;
  out.min_headroom = theta;
  core::CountVector done(static_cast<std::size_t>(task.num_action_types()),
                         0);
  for (std::size_t p = 0; p < phases.size(); ++p) {
    traffic::DemandSet demands =
        future.forecast_at_step(static_cast<int>(p) + 1);
    const double volume = traffic::total_volume(demands);
    v.demand_checker->set_demands(std::move(demands));
    done[static_cast<std::size_t>(phases[p].type)] +=
        static_cast<std::int32_t>(phases[p].block_indices.size());
    const bool ok = v.evaluator->feasible(done);
    const double util = v.demand_checker->last_max_utilization();
    out.phase_utilization.push_back(util);
    if (!ok) {
      out.safe = false;
      out.first_break_phase = static_cast<int>(p);
      out.break_utilization = util;
      out.break_multiplier = base_volume > 0.0 ? volume / base_volume : 0.0;
      out.unroutable = util <= theta;
      if (!out.unroutable) {
        out.min_headroom = std::min(out.min_headroom, theta - util);
      }
      break;
    }
    out.min_headroom = std::min(out.min_headroom, theta - util);
  }
  return out;
}

bool ref_plan_safe_at(RefValidator& v, const std::vector<core::Phase>& phases,
                      const traffic::DemandSet& base, double multiplier) {
  v.demand_checker->set_demands(traffic::scaled(base, multiplier));
  core::CountVector done(
      static_cast<std::size_t>(v.mig.task.num_action_types()), 0);
  if (!v.evaluator->feasible(done)) return false;
  for (const core::Phase& phase : phases) {
    done[static_cast<std::size_t>(phase.type)] +=
        static_cast<std::int32_t>(phase.block_indices.size());
    if (!v.evaluator->feasible(done)) return false;
  }
  return true;
}

/// Trajectory-major sweep and serial conjunction bisection, on one thread.
whatif::WhatIfReport reference_whatif(const whatif::CaseFactory& factory,
                                      const core::Plan& plan,
                                      const whatif::WhatIfParams& params) {
  const std::vector<core::Phase> phases = plan.phases();
  RefValidator v(factory, params.checker);
  std::vector<whatif::TrajectoryOutcome> outcomes;
  for (int i = 0; i < params.trajectories; ++i) {
    outcomes.push_back(ref_trajectory(params, i, v, phases));
  }

  whatif::WhatIfReport report;
  report.trajectories = params.trajectories;
  report.seed = params.seed;
  report.break_histogram.assign(std::max<std::size_t>(phases.size(), 1), 0);
  const double theta = params.checker.demand.max_utilization;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    whatif::PhaseStats row;
    row.phase = static_cast<int>(p);
    row.action =
        v.mig.task.action_types[static_cast<std::size_t>(phases[p].type)]
            .label;
    row.blocks = static_cast<int>(phases[p].block_indices.size());
    row.min_headroom = theta;
    report.phases.push_back(std::move(row));
  }
  for (const whatif::TrajectoryOutcome& t : outcomes) {
    ++report.trajectories_run;
    for (std::size_t p = 0; p < t.phase_utilization.size(); ++p) {
      whatif::PhaseStats& row = report.phases[p];
      ++row.evaluated;
      const bool broke_here =
          !t.safe && t.first_break_phase == static_cast<int>(p);
      if (!(broke_here && t.unroutable)) {
        row.worst_utilization =
            std::max(row.worst_utilization, t.phase_utilization[p]);
        row.min_headroom =
            std::min(row.min_headroom, theta - t.phase_utilization[p]);
      }
      if (broke_here) ++row.unsafe;
    }
    if (!t.safe) {
      ++report.unsafe;
      if (t.unroutable) ++report.unroutable;
      ++report.break_histogram[static_cast<std::size_t>(
          std::max(0, t.first_break_phase))];
      if (report.first_break_phase < 0 ||
          t.break_multiplier < report.first_break_multiplier) {
        report.first_break_phase = t.first_break_phase;
        report.first_break_multiplier = t.break_multiplier;
      }
    }
  }
  report.safe_fraction =
      static_cast<double>(report.trajectories_run - report.unsafe) /
      static_cast<double>(report.trajectories_run);

  RefValidator m(factory, params.checker);
  const traffic::DemandSet base = m.mig.task.demands;
  if (ref_plan_safe_at(m, phases, base, params.margin_max)) {
    report.safe_growth_margin = params.margin_max;
    report.margin_saturated = true;
    return report;
  }
  double lo = 1.0;
  double hi = params.margin_max;
  if (!ref_plan_safe_at(m, phases, base, 1.0)) {
    lo = 0.0;
    hi = 1.0;
  }
  for (int i = 0; i < params.margin_iterations; ++i) {
    const double mid = (lo + hi) / 2.0;
    if (ref_plan_safe_at(m, phases, base, mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  report.safe_growth_margin = lo;
  return report;
}

whatif::CaseFactory case_factory(topo::TopologyFamily family,
                                 topo::PresetId preset) {
  return [family, preset] {
    return pipeline::build_family_experiment(family, preset,
                                             topo::PresetScale::kReduced);
  };
}

core::Plan plan_for(const whatif::CaseFactory& factory) {
  migration::MigrationCase mig = factory();
  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(mig.task, pipeline::CheckerConfig{});
  core::Plan plan = pipeline::make_planner("astar")->plan(
      mig.task, *bundle.checker, core::PlannerOptions{});
  EXPECT_TRUE(plan.found) << plan.failure;
  return plan;
}

/// Reference report bytes against the engine's at 1, 2 and 4 threads.
void expect_matches_reference(const whatif::CaseFactory& factory,
                              whatif::WhatIfParams params) {
  const core::Plan plan = plan_for(factory);
  ASSERT_TRUE(plan.found);
  const std::string want =
      whatif::report_text(reference_whatif(factory, plan, params), params);
  for (const int threads : {1, 2, 4}) {
    params.threads = threads;
    EXPECT_EQ(want, whatif::report_text(
                        whatif::run_whatif(factory, plan, params), params))
        << "threads " << threads;
  }
}

whatif::WhatIfParams sweep(std::uint64_t seed, int trajectories) {
  whatif::WhatIfParams params;
  params.seed = seed;
  params.trajectories = trajectories;
  return params;
}

TEST(WhatIfReference, ClosPresetsMatch) {
  for (const topo::PresetId preset :
       {topo::PresetId::kA, topo::PresetId::kB, topo::PresetId::kC}) {
    SCOPED_TRACE("preset " + std::to_string(static_cast<int>(preset)));
    expect_matches_reference(
        case_factory(topo::TopologyFamily::kClos, preset), sweep(11, 20));
  }
}

TEST(WhatIfReference, FlatAndReconfMatch) {
  for (const topo::TopologyFamily family :
       {topo::TopologyFamily::kFlat, topo::TopologyFamily::kReconf}) {
    SCOPED_TRACE(topo::to_string(family));
    expect_matches_reference(case_factory(family, topo::PresetId::kA),
                             sweep(12, 20));
  }
}

TEST(WhatIfReference, HotFuturesWithWcmpAndFunnelingMatch) {
  whatif::WhatIfParams params = sweep(13, 24);
  params.growth_max = 0.05;
  params.surge_factor_max = 3.0;
  params.bias_factor_max = 2.5;
  params.checker.routing = traffic::SplitMode::kCapacityWeighted;
  params.checker.demand.funneling_margin = 0.1;
  expect_matches_reference(
      case_factory(topo::TopologyFamily::kClos, topo::PresetId::kB), params);
}

TEST(WhatIfReference, PlanUnsafeAtOneBisectsBelowOne) {
  // Validated against a tighter theta than it was planned with, the plan
  // fails at x1, so the margin search brackets [0, 1].
  whatif::WhatIfParams params = sweep(14, 12);
  params.checker.demand.max_utilization = 0.3;
  expect_matches_reference(
      case_factory(topo::TopologyFamily::kFlat, topo::PresetId::kA), params);
}

TEST(WhatIfReference, SaturatedMarginMatches) {
  whatif::WhatIfParams params = sweep(15, 8);
  params.margin_max = 1.2;
  expect_matches_reference(
      case_factory(topo::TopologyFamily::kClos, topo::PresetId::kA), params);
}

TEST(WhatIfReference, StructuralBreakMidPlanMatches) {
  // A walk that takes one block of type 0, then every block of type 1,
  // then the rest: its second phase breaks the port constraints, so the
  // demand checker never runs there and each break keeps its own
  // trajectory's previous utilization. Some trajectories break over theta
  // in the first phase, so a utilization left over from another trajectory
  // would misclassify the port breaks.
  const whatif::CaseFactory factory =
      case_factory(topo::TopologyFamily::kClos, topo::PresetId::kB);
  migration::MigrationCase mig = factory();
  ASSERT_EQ(mig.task.num_action_types(), 2);
  core::Plan plan;
  plan.found = true;
  plan.actions.push_back(core::PlannedAction{0, 0});
  for (std::size_t b = 0; b < mig.task.blocks[1].size(); ++b) {
    plan.actions.push_back(
        core::PlannedAction{1, static_cast<std::int32_t>(b)});
    mig.task.blocks[1][b].apply(*mig.task.topo);
  }
  for (std::size_t b = 1; b < mig.task.blocks[0].size(); ++b) {
    plan.actions.push_back(
        core::PlannedAction{0, static_cast<std::int32_t>(b)});
  }
  mig.task.blocks[0][0].apply(*mig.task.topo);
  ASSERT_FALSE(constraints::PortChecker().check(*mig.task.topo).satisfied);

  const whatif::WhatIfParams params = sweep(17, 12);
  const whatif::WhatIfReport want = reference_whatif(factory, plan, params);
  EXPECT_GT(want.unroutable, 0);
  EXPECT_LT(want.unroutable, want.unsafe);
  for (const int threads : {1, 2, 4}) {
    whatif::WhatIfParams threaded = params;
    threaded.threads = threads;
    EXPECT_EQ(whatif::report_text(want, params),
              whatif::report_text(whatif::run_whatif(factory, plan, threaded),
                                  params))
        << "threads " << threads;
  }
}

TEST(WhatIfReference, OneAndSixteenBisectionStepsMatch) {
  for (const int iterations : {1, 16}) {
    SCOPED_TRACE("margin_iterations " + std::to_string(iterations));
    whatif::WhatIfParams params = sweep(16, 10);
    params.margin_iterations = iterations;
    expect_matches_reference(
        case_factory(topo::TopologyFamily::kReconf, topo::PresetId::kA),
        params);
  }
}

}  // namespace
}  // namespace klotski
