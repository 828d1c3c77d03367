// ParallelEvaluator correctness: batch verdicts must match serial
// evaluation, and planners running with num_threads = 4 must return plans
// identical to the serial search (DP additionally keeps identical stats,
// since its batches contain exactly the states the lazy path evaluates).
#include <gtest/gtest.h>

#include <algorithm>

#include "../test_helpers.h"
#include "klotski/core/parallel_evaluator.h"
#include "klotski/core/state_evaluator.h"
#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/util/rng.h"

namespace klotski::core {
namespace {

migration::MigrationCase preset_case(topo::PresetId id) {
  return migration::build_hgrid_migration(
      topo::preset_params(id, topo::PresetScale::kReduced), {});
}

TEST(ParallelEvaluator, BatchVerdictsMatchSerial) {
  migration::MigrationCase parallel_case = preset_case(topo::PresetId::kA);
  migration::MigrationCase serial_case = preset_case(topo::PresetId::kA);
  pipeline::CheckerConfig config;

  pipeline::CheckerBundle parallel_bundle =
      pipeline::make_standard_checker(parallel_case.task, config);
  StateEvaluator shared(parallel_case.task, *parallel_bundle.checker, true);
  ParallelEvaluator pe(shared, pipeline::make_standard_checker_factory(config),
                       4);
  ASSERT_TRUE(pe.parallel());

  pipeline::CheckerBundle serial_bundle =
      pipeline::make_standard_checker(serial_case.task, config);
  StateEvaluator serial(serial_case.task, *serial_bundle.checker, false);

  // Distinct random states across several batches (repeats across batches
  // exercise the shared-cache filter).
  util::Rng rng(5);
  const CountVector& target = shared.target();
  for (int round = 0; round < 6; ++round) {
    std::vector<CountVector> batch;
    for (int i = 0; i < 9; ++i) {
      CountVector v(target.size());
      for (std::size_t t = 0; t < v.size(); ++t) {
        v[t] = static_cast<std::int32_t>(rng.uniform_int(0, target[t]));
      }
      if (std::find(batch.begin(), batch.end(), v) == batch.end()) {
        batch.push_back(std::move(v));
      }
    }
    const auto& verdicts = pe.evaluate_batch(batch);
    ASSERT_EQ(verdicts.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(verdicts[i] != 0, serial.feasible(batch[i]))
          << "round " << round << " entry " << i;
    }
  }
  // Each distinct state was evaluated once and stored; repeats across
  // batches were served from the shared cache without stat movement.
  EXPECT_EQ(static_cast<long long>(shared.cache().size()),
            shared.sat_checks());
  EXPECT_LE(shared.sat_checks(), serial.sat_checks());
}

// The family sits in the padding after the preset id, so the parameter
// stays 16 bytes. The instantiations below read from static tables, whose
// padding is zero, so the bytes gtest prints into each test name are the
// same on every build.
struct PresetParam {
  topo::PresetId id;
  topo::TopologyFamily family;
  const char* name;
};

constexpr PresetParam kPresetsAToC[] = {
    {topo::PresetId::kA, topo::TopologyFamily::kClos, "A"},
    {topo::PresetId::kB, topo::TopologyFamily::kClos, "B"},
    {topo::PresetId::kC, topo::TopologyFamily::kClos, "C"},
};

constexpr PresetParam kAllFamiliesC[] = {
    {topo::PresetId::kC, topo::TopologyFamily::kClos, "clos_C"},
    {topo::PresetId::kC, topo::TopologyFamily::kFlat, "flat_C"},
    {topo::PresetId::kC, topo::TopologyFamily::kReconf, "reconf_C"},
};

migration::MigrationCase param_case(const PresetParam& param) {
  if (param.family == topo::TopologyFamily::kClos) return preset_case(param.id);
  return pipeline::build_family_experiment(param.family, param.id,
                                           topo::PresetScale::kReduced);
}

class ParallelPlannerDeterminism
    : public ::testing::TestWithParam<PresetParam> {};

TEST_P(ParallelPlannerDeterminism, DpPlanAndStatsAreBitIdentical) {
  migration::MigrationCase serial_case = param_case(GetParam());
  migration::MigrationCase parallel_case = param_case(GetParam());
  pipeline::CheckerConfig config;

  PlannerOptions serial_options;
  serial_options.deadline_seconds = 300.0;
  PlannerOptions parallel_options = serial_options;
  parallel_options.num_threads = 4;
  parallel_options.checker_factory =
      pipeline::make_standard_checker_factory(config);

  pipeline::CheckerBundle serial_bundle =
      pipeline::make_standard_checker(serial_case.task, config);
  const Plan serial = pipeline::make_planner("dp")->plan(
      serial_case.task, *serial_bundle.checker, serial_options);

  pipeline::CheckerBundle parallel_bundle =
      pipeline::make_standard_checker(parallel_case.task, config);
  const Plan parallel = pipeline::make_planner("dp")->plan(
      parallel_case.task, *parallel_bundle.checker, parallel_options);

  ASSERT_EQ(serial.found, parallel.found) << parallel.failure;
  EXPECT_EQ(serial.cost, parallel.cost);
  ASSERT_EQ(serial.actions.size(), parallel.actions.size());
  for (std::size_t i = 0; i < serial.actions.size(); ++i) {
    EXPECT_EQ(serial.actions[i].type, parallel.actions[i].type);
    EXPECT_EQ(serial.actions[i].block_index, parallel.actions[i].block_index);
  }
  // The DP batch contains exactly the states the serial lazy path would
  // have evaluated, so even the bookkeeping is identical.
  EXPECT_EQ(serial.stats.sat_checks, parallel.stats.sat_checks);
  EXPECT_EQ(serial.stats.cache_hits, parallel.stats.cache_hits);
  EXPECT_EQ(serial.stats.visited_states, parallel.stats.visited_states);
  EXPECT_EQ(serial.stats.generated_states, parallel.stats.generated_states);
}

TEST_P(ParallelPlannerDeterminism, AStarPlanIsIdentical) {
  migration::MigrationCase serial_case = param_case(GetParam());
  migration::MigrationCase parallel_case = param_case(GetParam());
  pipeline::CheckerConfig config;

  PlannerOptions serial_options;
  serial_options.deadline_seconds = 300.0;
  PlannerOptions parallel_options = serial_options;
  parallel_options.num_threads = 4;
  parallel_options.checker_factory =
      pipeline::make_standard_checker_factory(config);

  pipeline::CheckerBundle serial_bundle =
      pipeline::make_standard_checker(serial_case.task, config);
  const Plan serial = pipeline::make_planner("astar")->plan(
      serial_case.task, *serial_bundle.checker, serial_options);

  pipeline::CheckerBundle parallel_bundle =
      pipeline::make_standard_checker(parallel_case.task, config);
  const Plan parallel = pipeline::make_planner("astar")->plan(
      parallel_case.task, *parallel_bundle.checker, parallel_options);

  ASSERT_EQ(serial.found, parallel.found) << parallel.failure;
  EXPECT_EQ(serial.cost, parallel.cost);
  ASSERT_EQ(serial.actions.size(), parallel.actions.size());
  for (std::size_t i = 0; i < serial.actions.size(); ++i) {
    EXPECT_EQ(serial.actions[i].type, parallel.actions[i].type);
    EXPECT_EQ(serial.actions[i].block_index, parallel.actions[i].block_index);
  }
  // A* prefetch is speculative, so sat-check counts may differ — but the
  // search order, and therefore the number of expansions, must not.
  EXPECT_EQ(serial.stats.visited_states, parallel.stats.visited_states);
}

TEST_P(ParallelPlannerDeterminism, DpMatchesAtOneTwoAndFourThreads) {
  // The level-ordered DP runs one loop at every thread count: each level's
  // predecessor checks form one batch, split into contiguous chunks across
  // the workers. Plans and every logical stat must not move with the
  // thread count.
  pipeline::CheckerConfig config;
  Plan reference;
  for (const int threads : {1, 2, 4}) {
    migration::MigrationCase mig = param_case(GetParam());
    PlannerOptions options;
    options.deadline_seconds = 300.0;
    options.num_threads = threads;
    options.checker_factory = pipeline::make_standard_checker_factory(config);
    pipeline::CheckerBundle bundle =
        pipeline::make_standard_checker(mig.task, config);
    const Plan plan =
        pipeline::make_planner("dp")->plan(mig.task, *bundle.checker, options);
    ASSERT_TRUE(plan.found) << threads << " threads: " << plan.failure;
    if (threads == 1) {
      reference = plan;
      continue;
    }
    EXPECT_EQ(reference.cost, plan.cost) << threads << " threads";
    ASSERT_EQ(reference.actions.size(), plan.actions.size());
    for (std::size_t i = 0; i < plan.actions.size(); ++i) {
      EXPECT_EQ(reference.actions[i].type, plan.actions[i].type);
      EXPECT_EQ(reference.actions[i].block_index, plan.actions[i].block_index);
    }
    const PlannerStats& want = reference.stats;
    const PlannerStats& got = plan.stats;
    EXPECT_EQ(want.visited_states, got.visited_states) << threads;
    EXPECT_EQ(want.generated_states, got.generated_states) << threads;
    EXPECT_EQ(want.sat_checks, got.sat_checks) << threads;
    EXPECT_EQ(want.cache_hits, got.cache_hits) << threads;
    EXPECT_EQ(want.evaluations, got.evaluations) << threads;
    EXPECT_EQ(want.delta_applies, got.delta_applies) << threads;
    EXPECT_EQ(want.full_replays, got.full_replays) << threads;
  }
}

TEST(LevelDp, EvaluatesOnlyThePredecessorsATypeChangeNeeds) {
  // At theta 0.6 some states of these lattices cannot be reached at all, so
  // the DP checks fewer states than it visits: a state is checked only when
  // a type change out of it follows a finite-cost entry. The pinned counts
  // hold at any thread count.
  struct Expect {
    topo::TopologyFamily family;
    long long sat_checks;
    double cost;
  };
  for (const Expect& e : {Expect{topo::TopologyFamily::kReconf, 11, 3.0},
                          Expect{topo::TopologyFamily::kFlat, 15, 5.0}}) {
    for (const int threads : {1, 4}) {
      migration::MigrationCase mig = pipeline::build_family_experiment(
          e.family, topo::PresetId::kA, topo::PresetScale::kReduced);
      pipeline::CheckerConfig config;
      config.demand.max_utilization = 0.6;
      PlannerOptions options;
      options.num_threads = threads;
      options.checker_factory = pipeline::make_standard_checker_factory(config);
      pipeline::CheckerBundle bundle =
          pipeline::make_standard_checker(mig.task, config);
      const Plan plan = pipeline::make_planner("dp")->plan(
          mig.task, *bundle.checker, options);
      const std::string where =
          topo::to_string(e.family) + " at " + std::to_string(threads);
      ASSERT_TRUE(plan.found) << where << ": " << plan.failure;
      EXPECT_EQ(e.cost, plan.cost) << where;
      EXPECT_EQ(15, plan.stats.visited_states) << where;
      EXPECT_EQ(24, plan.stats.generated_states) << where;
      EXPECT_EQ(e.sat_checks, plan.stats.sat_checks) << where;
      EXPECT_EQ(e.sat_checks, plan.stats.evaluations) << where;
    }
  }
}

TEST(LevelDp, LevelsWiderThanOneBatchCheckEveryState) {
  // Four action types of ten blocks each, every state safe: 11^4 states,
  // and the middle levels hold more states than one batch. The DP checks
  // the origin, the target and every state in between exactly once.
  topo::Topology topo;
  const topo::SwitchId hub =
      topo.add_switch(topo::SwitchRole::kSsw, topo::Generation::kV1, {}, 64,
                      topo::ElementState::kActive, "hub");
  migration::MigrationTask task;
  task.name = "star";
  task.topo = &topo;
  for (int t = 0; t < 4; ++t) {
    migration::ActionType type;
    type.id = t;
    type.label = "drain-" + std::to_string(t);
    task.action_types.push_back(type);
    task.blocks.emplace_back();
    for (int b = 0; b < 10; ++b) {
      const topo::SwitchId leaf = topo.add_switch(
          topo::SwitchRole::kFsw, topo::Generation::kV1, {}, 4,
          topo::ElementState::kActive,
          "leaf" + std::to_string(t) + "-" + std::to_string(b));
      migration::OperationBlock block;
      block.id = b;
      block.type = t;
      block.label = "drain-" + std::to_string(t) + "-" + std::to_string(b);
      block.ops.push_back(migration::ElementOp{
          migration::ElementOp::Kind::kCircuit,
          topo.add_circuit(hub, leaf, 1.0, topo::ElementState::kActive),
          topo::ElementState::kDrained});
      task.blocks.back().push_back(std::move(block));
    }
  }
  task.original_state = topo::TopologyState::capture(topo);
  for (const auto& blocks : task.blocks) {
    for (const migration::OperationBlock& block : blocks) block.apply(topo);
  }
  task.target_state = topo::TopologyState::capture(topo);
  task.reset_to_original();
  ASSERT_EQ("", task.validate());

  const CheckerFactory factory = [](migration::MigrationTask&) {
    return std::make_shared<constraints::CompositeChecker>();
  };
  constraints::CompositeChecker checker;
  Plan reference;
  for (const int threads : {1, 4}) {
    PlannerOptions options;
    options.num_threads = threads;
    options.checker_factory = factory;
    const Plan plan = pipeline::make_planner("dp")->plan(task, checker, options);
    ASSERT_TRUE(plan.found) << plan.failure;
    EXPECT_EQ(4.0, plan.cost) << threads;
    EXPECT_EQ(11 * 11 * 11 * 11, plan.stats.sat_checks) << threads;
    EXPECT_EQ(11 * 11 * 11 * 11 - 1, plan.stats.visited_states) << threads;
    if (threads == 1) {
      reference = plan;
      continue;
    }
    ASSERT_EQ(reference.actions.size(), plan.actions.size());
    for (std::size_t i = 0; i < plan.actions.size(); ++i) {
      EXPECT_EQ(reference.actions[i].type, plan.actions[i].type);
      EXPECT_EQ(reference.actions[i].block_index, plan.actions[i].block_index);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PresetsAToC, ParallelPlannerDeterminism,
    ::testing::ValuesIn(kPresetsAToC),
    [](const ::testing::TestParamInfo<PresetParam>& info) {
      return std::string(info.param.name);
    });

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ParallelPlannerDeterminism,
    ::testing::ValuesIn(kAllFamiliesC),
    [](const ::testing::TestParamInfo<PresetParam>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace klotski::core
