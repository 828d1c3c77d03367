#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "../test_helpers.h"
#include "klotski/migration/family_tasks.h"
#include "klotski/pipeline/audit.h"
#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/experiments.h"

namespace klotski::migration {
namespace {

using klotski::testing::small_flat_case;
using klotski::testing::small_reconf_case;

// ---------------------------------------------------------------------------
// Invariants shared by both family task builders (mirrors the Clos-builder
// invariant suite in task_builder_test.cpp).

class FamilyTaskInvariants : public ::testing::TestWithParam<const char*> {
 protected:
  MigrationCase build() const {
    return std::string(GetParam()) == "flat" ? small_flat_case()
                                             : small_reconf_case();
  }
};

TEST_P(FamilyTaskInvariants, TaskValidates) {
  MigrationCase mig = build();
  EXPECT_EQ(mig.task.validate(), "");
}

TEST_P(FamilyTaskInvariants, OriginalStateIsCurrentState) {
  MigrationCase mig = build();
  EXPECT_TRUE(mig.task.original_state ==
              topo::TopologyState::capture(*mig.task.topo));
}

TEST_P(FamilyTaskInvariants, TargetDiffersFromOriginal) {
  MigrationCase mig = build();
  EXPECT_FALSE(mig.task.original_state == mig.task.target_state);
}

TEST_P(FamilyTaskInvariants, BlockLabelsAreUnique) {
  MigrationCase mig = build();
  std::set<std::string> labels;
  for (const auto& blocks : mig.task.blocks) {
    for (const OperationBlock& block : blocks) {
      EXPECT_TRUE(labels.insert(block.label).second)
          << "duplicate label " << block.label;
    }
  }
}

TEST_P(FamilyTaskInvariants, PortBudgetsAdmitOriginalAndTarget) {
  MigrationCase mig = build();
  topo::Topology& topo = *mig.task.topo;
  mig.task.original_state.restore(topo);
  EXPECT_EQ(topo.validate(), "");
  mig.task.target_state.restore(topo);
  EXPECT_EQ(topo.validate(), "");
  mig.task.reset_to_original();
}

INSTANTIATE_TEST_SUITE_P(BothFamilies, FamilyTaskInvariants,
                         ::testing::Values("flat", "reconf"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// ---------------------------------------------------------------------------
// Flat partial forklift specifics

TEST(FlatMigration, UpgradedSetIsIndependent) {
  MigrationCase mig = small_flat_case();
  const topo::Topology& topo = *mig.task.topo;
  // Drained switches (type-0 blocks) must form an independent set: no
  // circuit of the original graph joins two of them, so every V2 mirror's
  // neighbors stay active through the whole migration.
  std::set<std::int32_t> drained;
  for (const OperationBlock& block : mig.task.blocks[0]) {
    for (const ElementOp& op : block.ops) {
      if (op.kind == ElementOp::Kind::kSwitch) drained.insert(op.id);
    }
  }
  EXPECT_FALSE(drained.empty());
  for (const std::int32_t sw : drained) {
    for (const topo::CircuitId cid :
         topo.incident(static_cast<topo::SwitchId>(sw))) {
      const topo::Circuit& c = topo.circuit(cid);
      const topo::SwitchId other =
          c.other(static_cast<topo::SwitchId>(sw));
      if (topo.sw(other).gen == topo::Generation::kV1) {
        EXPECT_EQ(drained.count(static_cast<std::int32_t>(other)), 0u)
            << "adjacent upgrades " << topo.sw(c.a).name << " and "
            << topo.sw(c.b).name;
      }
    }
  }
}

TEST(FlatMigration, TargetCapacityIncreases) {
  MigrationCase mig = small_flat_case();
  const double before = mig.task.topo->active_capacity_tbps();
  mig.task.target_state.restore(*mig.task.topo);
  const double after = mig.task.topo->active_capacity_tbps();
  mig.task.reset_to_original();
  EXPECT_GT(after, before);
}

TEST(FlatMigration, MirrorsPreserveDegree) {
  MigrationCase mig = small_flat_case();
  topo::Topology& topo = *mig.task.topo;
  for (const topo::Switch& s : topo.switches()) {
    if (s.gen != topo::Generation::kV2) continue;
    const std::string v1_name = s.name.substr(0, s.name.size() - 2);
    const topo::SwitchId twin = topo.find_switch(v1_name);
    ASSERT_NE(twin, topo::kInvalidSwitch) << v1_name;
    EXPECT_EQ(topo.incident(s.id).size(), topo.incident(twin).size());
  }
}

TEST(FlatMigration, RejectsBadFraction) {
  FlatMigrationParams p;
  p.upgrade_fraction = 0.0;
  EXPECT_THROW(build_flat_migration({}, p), std::invalid_argument);
  p.upgrade_fraction = 1.5;
  EXPECT_THROW(build_flat_migration({}, p), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Reconf rewire specifics

TEST(ReconfMigration, CircuitOnlyBlocks) {
  MigrationCase mig = small_reconf_case();
  for (const auto& blocks : mig.task.blocks) {
    for (const OperationBlock& block : blocks) {
      EXPECT_EQ(block.switch_count(), 0) << block.label;
      EXPECT_GT(block.circuit_count(), 0) << block.label;
    }
  }
}

TEST(ReconfMigration, TargetRewiresWithoutTouchingSharedStrides) {
  MigrationCase mig = small_reconf_case();
  topo::Topology& topo = *mig.task.topo;
  const topo::Region& region = *mig.region;
  mig.task.target_state.restore(topo);
  for (const topo::MeshStrideCircuits& group : region.mesh_strides) {
    const topo::ElementState want =
        group.shared || group.gen == topo::Generation::kV2
            ? topo::ElementState::kActive
            : topo::ElementState::kAbsent;
    for (const topo::CircuitId cid : group.circuits) {
      EXPECT_EQ(topo.circuit(cid).state, want)
          << "stride " << group.stride;
    }
  }
  mig.task.reset_to_original();
}

TEST(ReconfMigration, RejectsIdenticalPatterns) {
  topo::ReconfParams p;
  p.v2_strides = p.v1_strides;
  EXPECT_THROW(build_reconf_migration(p, {}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Feasibility: the optimal planners find (and agree on) plans for the
// canonical family experiments — the calibration check that mesh demands
// forbid bulk drains without making the task unsolvable.

struct FamilyPreset {
  topo::TopologyFamily family;
  topo::PresetId preset;
};

// A static table has zeroed padding, so the parameter bytes gtest prints
// into each test name are the same on every build.
constexpr FamilyPreset kFamilyPresets[] = {
    {topo::TopologyFamily::kFlat, topo::PresetId::kA},
    {topo::TopologyFamily::kFlat, topo::PresetId::kB},
    {topo::TopologyFamily::kReconf, topo::PresetId::kA},
    {topo::TopologyFamily::kReconf, topo::PresetId::kB},
};

class FamilyFeasibility : public ::testing::TestWithParam<FamilyPreset> {};

TEST_P(FamilyFeasibility, OptimalPlannersAgreeAndPassAudit) {
  MigrationCase mig = pipeline::build_family_experiment(
      GetParam().family, GetParam().preset, topo::PresetScale::kReduced);
  MigrationTask& task = mig.task;

  auto run = [&](const char* name) {
    pipeline::CheckerBundle bundle = pipeline::make_standard_checker(task, {});
    core::PlannerOptions options;
    options.deadline_seconds = 120;
    return pipeline::make_planner(name)->plan(task, *bundle.checker, options);
  };

  const core::Plan astar = run("astar");
  const core::Plan dp = run("dp");
  ASSERT_TRUE(astar.found) << astar.failure;
  ASSERT_TRUE(dp.found) << dp.failure;
  EXPECT_DOUBLE_EQ(astar.cost, dp.cost);

  for (const core::Plan* plan : {&astar, &dp}) {
    pipeline::CheckerBundle bundle = pipeline::make_standard_checker(task, {});
    EXPECT_TRUE(pipeline::audit_plan(task, *bundle.checker, *plan).ok)
        << plan->planner;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamilyGrid, FamilyFeasibility, ::testing::ValuesIn(kFamilyPresets),
    [](const auto& info) {
      return topo::to_string(info.param.family) + "_" +
             topo::to_string(info.param.preset);
    });

// The mesh demand calibration must actually bite: draining every operated
// element at once (the no-plan-at-all strawman) violates the safety
// constraints, otherwise the planning problem is trivial.
TEST(FamilyCalibration, BulkDrainViolatesConstraints) {
  for (const char* which : {"flat", "reconf"}) {
    MigrationCase mig = std::string(which) == "flat" ? small_flat_case()
                                                     : small_reconf_case();
    MigrationTask& task = mig.task;
    pipeline::CheckerBundle bundle = pipeline::make_standard_checker(task, {});
    for (const OperationBlock& block : task.blocks[0]) {
      block.apply(*task.topo);
    }
    EXPECT_FALSE(bundle.checker->check(*task.topo).satisfied)
        << which << ": draining all V1 at once should be unsafe";
    task.reset_to_original();
  }
}

}  // namespace
}  // namespace klotski::migration
