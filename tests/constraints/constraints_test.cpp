#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "../test_helpers.h"
#include "klotski/constraints/composite.h"
#include "klotski/constraints/demand_checker.h"
#include "klotski/constraints/port_checker.h"
#include "klotski/constraints/space_power_checker.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/util/rng.h"

namespace klotski::constraints {
namespace {

using klotski::testing::Diamond;

// ---------------------------------------------------------------------------
// Port checker

TEST(PortChecker, PassesWithinBudget) {
  Diamond d;
  PortChecker checker;
  EXPECT_TRUE(checker.check(d.topo).satisfied);
}

TEST(PortChecker, FailsOnOverflowAndNamesTheSwitch) {
  Diamond d;
  d.topo.sw(d.s).max_ports = 1;  // s has two circuits
  PortChecker checker;
  const Verdict v = checker.check(d.topo);
  EXPECT_FALSE(v.satisfied);
  EXPECT_NE(v.violation.find("s"), std::string::npos);
}

TEST(PortChecker, AbsentSwitchesAreNotChecked) {
  Diamond d;
  d.topo.sw(d.s).max_ports = 1;
  d.topo.sw(d.s).state = topo::ElementState::kAbsent;
  PortChecker checker;
  EXPECT_TRUE(checker.check(d.topo).satisfied);
}

TEST(PortChecker, StagedCircuitsDoNotOccupyPorts) {
  Diamond d;
  d.topo.sw(d.s).max_ports = 2;
  // A staged (absent) extra circuit must not count.
  d.topo.add_circuit(d.s, d.t, 1.0, topo::ElementState::kAbsent);
  PortChecker checker;
  EXPECT_TRUE(checker.check(d.topo).satisfied);
}

/// The port verdict by its definition: scan every present switch in id
/// order and report the first one over budget.
Verdict port_verdict_by_scan(const topo::Topology& topo) {
  for (const topo::Switch& s : topo.switches()) {
    if (!s.present()) continue;
    const int occupied = topo.occupied_ports(s.id);
    if (occupied > s.max_ports) {
      return Verdict::fail("switch " + s.name + " needs " +
                           std::to_string(occupied) + " ports but has " +
                           std::to_string(s.max_ports));
    }
  }
  return Verdict::ok();
}

TEST(PortChecker, NamesTheLowestIdViolator) {
  Diamond d;
  d.topo.sw(d.m1).max_ports = 1;
  d.topo.sw(d.t).max_ports = 1;
  PortChecker checker;
  EXPECT_EQ(checker.check(d.topo).violation,
            "switch m1 needs 2 ports but has 1");
  d.topo.set_circuit_state(d.c_sm1, topo::ElementState::kAbsent);
  EXPECT_EQ(checker.check(d.topo).violation, "switch t needs 2 ports but has 1");
}

TEST(PortChecker, IncrementalCountsMatchRescanAcrossJournalWrap) {
  // One checker follows a random walk of element-state changes through the
  // journal; the reference rescans the topology every time. A few switches
  // get budgets just under their degree, so the verdict and the violator it
  // names keep changing.
  migration::MigrationCase mig = pipeline::build_experiment(
      pipeline::ExperimentId::kB, topo::PresetScale::kReduced);
  topo::Topology& topo = *mig.task.topo;
  util::Rng rng(20261017);
  for (const topo::Switch& s : topo.switches()) {
    const auto degree = static_cast<std::int64_t>(topo.incident(s.id).size());
    const std::int64_t slack = rng.uniform_int(0, 7) == 0
                                   ? -rng.uniform_int(1, 2)
                                   : 0;
    topo.sw(s.id).max_ports =
        static_cast<std::int32_t>(std::max<std::int64_t>(1, degree + slack));
  }
  topo.bump_state_version();

  const topo::ElementState states[] = {topo::ElementState::kActive,
                                       topo::ElementState::kDrained,
                                       topo::ElementState::kAbsent};
  // Every call journals exactly one change: the element moves to one of
  // the two states it is not in.
  auto random_change = [&] {
    const auto pick = [&](topo::ElementState current) {
      const auto i = static_cast<int>(current);
      return states[(i + rng.uniform_int(1, 2)) % 3];
    };
    if (rng.uniform_int(0, 3) == 0) {
      const auto s = static_cast<topo::SwitchId>(rng.uniform_int(
          0, static_cast<std::int64_t>(topo.num_switches()) - 1));
      topo.set_switch_state(s, pick(topo.sw(s).state));
    } else {
      const auto c = static_cast<topo::CircuitId>(rng.uniform_int(
          0, static_cast<std::int64_t>(topo.num_circuits()) - 1));
      topo.set_circuit_state(c, pick(topo.circuit(c).state));
    }
  };

  PortChecker incremental;
  std::set<std::string> verdicts;
  for (int step = 0; step < 400; ++step) {
    // Mostly a few changes per check; twice a burst longer than the
    // journal (8192 entries), which forces the rescan fallback mid-walk.
    const int changes = step == 150 || step == 300
                            ? 9000
                            : static_cast<int>(rng.uniform_int(1, 6));
    for (int i = 0; i < changes; ++i) random_change();
    const Verdict got = incremental.check(topo);
    const Verdict want = port_verdict_by_scan(topo);
    ASSERT_EQ(want.satisfied, got.satisfied) << "step " << step;
    EXPECT_EQ(want.violation, got.violation) << "step " << step;
    verdicts.insert(got.violation);
  }
  EXPECT_GE(verdicts.size(), 5u);
  EXPECT_TRUE(verdicts.count(""));  // some states pass
}

// ---------------------------------------------------------------------------
// Demand checker

TEST(DemandChecker, PassesUnderThreshold) {
  Diamond d;
  traffic::EcmpRouter router(d.topo);
  DemandChecker checker(router, {d.demand(1.0)}, {.max_utilization = 0.75});
  // 0.5 load on 1.0 capacity = 50% < 75%.
  EXPECT_TRUE(checker.check(d.topo).satisfied);
  EXPECT_NEAR(checker.last_max_utilization(), 0.5, 1e-9);
}

TEST(DemandChecker, FailsOverThreshold) {
  Diamond d;
  traffic::EcmpRouter router(d.topo);
  DemandChecker checker(router, {d.demand(1.8)}, {.max_utilization = 0.75});
  const Verdict v = checker.check(d.topo);
  EXPECT_FALSE(v.satisfied);
  EXPECT_NE(v.violation.find("theta"), std::string::npos);
}

TEST(DemandChecker, FailsOnDisconnection) {
  Diamond d;
  d.topo.sw(d.m1).state = topo::ElementState::kAbsent;
  d.topo.sw(d.m2).state = topo::ElementState::kAbsent;
  traffic::EcmpRouter router(d.topo);
  DemandChecker checker(router, {d.demand(0.1)}, {});
  const Verdict v = checker.check(d.topo);
  EXPECT_FALSE(v.satisfied);
  EXPECT_NE(v.violation.find("no path"), std::string::npos);
}

TEST(DemandChecker, AggregatesAcrossDemands) {
  Diamond d;
  traffic::EcmpRouter router(d.topo);
  // Two demands of 0.8 each: per-branch load = 0.8 > 0.75.
  DemandChecker checker(router, {d.demand(0.8), d.demand(0.8)},
                        {.max_utilization = 0.75});
  EXPECT_FALSE(checker.check(d.topo).satisfied);
}

TEST(DemandChecker, ThetaMonotonicity) {
  Diamond d;
  traffic::EcmpRouter router(d.topo);
  DemandChecker checker(router, {d.demand(1.2)}, {});
  checker.set_max_utilization(0.55);
  EXPECT_FALSE(checker.check(d.topo).satisfied);  // 60% > 55%
  checker.set_max_utilization(0.65);
  EXPECT_TRUE(checker.check(d.topo).satisfied);   // 60% < 65%
}

TEST(DemandChecker, FunnelingMarginTightensNearDrains) {
  Diamond d;
  traffic::EcmpRouter router(d.topo);
  // Drain one branch: the other carries 0.7 (70%).
  d.topo.circuit(d.c_sm2).state = topo::ElementState::kDrained;
  d.topo.circuit(d.c_m2t).state = topo::ElementState::kDrained;

  DemandCheckerParams strict;
  strict.max_utilization = 0.75;
  strict.funneling_margin = 0.0;
  DemandChecker no_margin(router, {d.demand(0.7)}, strict);
  EXPECT_TRUE(no_margin.check(d.topo).satisfied);

  strict.funneling_margin = 0.2;  // 0.7 * 1.2 = 84% > 75%
  DemandChecker with_margin(router, {d.demand(0.7)}, strict);
  EXPECT_FALSE(with_margin.check(d.topo).satisfied);
}

TEST(DemandChecker, SetDemandsReplacesLoad) {
  Diamond d;
  traffic::EcmpRouter router(d.topo);
  DemandChecker checker(router, {d.demand(1.8)}, {});
  EXPECT_FALSE(checker.check(d.topo).satisfied);
  checker.set_demands({d.demand(0.2)});
  EXPECT_TRUE(checker.check(d.topo).satisfied);
}

// ---------------------------------------------------------------------------
// Space/power checker

topo::Topology grid_topology(int switches_in_grid, int grid = 0) {
  topo::Topology t;
  for (int i = 0; i < switches_in_grid; ++i) {
    topo::Location loc;
    loc.grid = static_cast<std::int16_t>(grid);
    t.add_switch(topo::SwitchRole::kFadu, topo::Generation::kV1, loc, 8,
                 topo::ElementState::kActive, "f" + std::to_string(i));
  }
  return t;
}

TEST(SpacePowerChecker, GridCapEnforced) {
  topo::Topology t = grid_topology(4);
  SpacePowerChecker ok(SpacePowerParams{.max_present_per_grid = 4});
  EXPECT_TRUE(ok.check(t).satisfied);
  SpacePowerChecker tight(SpacePowerParams{.max_present_per_grid = 3});
  EXPECT_FALSE(tight.check(t).satisfied);
}

TEST(SpacePowerChecker, AbsentSwitchesDoNotCount) {
  topo::Topology t = grid_topology(4);
  t.sw(0).state = topo::ElementState::kAbsent;
  SpacePowerChecker tight(SpacePowerParams{.max_present_per_grid = 3});
  EXPECT_TRUE(tight.check(t).satisfied);
}

TEST(SpacePowerChecker, ZeroDisablesCap) {
  topo::Topology t = grid_topology(100);
  SpacePowerChecker disabled(SpacePowerParams{});
  EXPECT_TRUE(disabled.check(t).satisfied);
}

TEST(SpacePowerChecker, PlaneCapCountsSsws) {
  topo::Topology t;
  for (int i = 0; i < 3; ++i) {
    topo::Location loc;
    loc.dc = 0;
    loc.plane = 1;
    t.add_switch(topo::SwitchRole::kSsw, topo::Generation::kV1, loc, 8,
                 topo::ElementState::kActive, "s" + std::to_string(i));
  }
  SpacePowerChecker tight(SpacePowerParams{.max_present_per_plane = 2});
  EXPECT_FALSE(tight.check(t).satisfied);
  SpacePowerChecker ok(SpacePowerParams{.max_present_per_plane = 3});
  EXPECT_TRUE(ok.check(t).satisfied);
}

// ---------------------------------------------------------------------------
// Composite

class FlagChecker : public Checker {
 public:
  FlagChecker(bool pass, int* calls) : pass_(pass), calls_(calls) {}
  Verdict check(const topo::Topology&) override {
    ++*calls_;
    return pass_ ? Verdict::ok() : Verdict::fail("flag");
  }
  std::string name() const override { return "flag"; }

 private:
  bool pass_;
  int* calls_;
};

TEST(Composite, ShortCircuitsOnFirstFailure) {
  Diamond d;
  int first_calls = 0, second_calls = 0;
  CompositeChecker composite;
  composite.add(std::make_unique<FlagChecker>(false, &first_calls));
  composite.add(std::make_unique<FlagChecker>(true, &second_calls));
  EXPECT_FALSE(composite.check(d.topo).satisfied);
  EXPECT_EQ(first_calls, 1);
  EXPECT_EQ(second_calls, 0);
}

TEST(Composite, CountsChecks) {
  Diamond d;
  CompositeChecker composite;
  composite.check(d.topo);
  composite.check(d.topo);
  EXPECT_EQ(composite.checks_performed(), 2);
  composite.reset_counter();
  EXPECT_EQ(composite.checks_performed(), 0);
}

TEST(Composite, EmptyCompositeAlwaysSatisfied) {
  Diamond d;
  CompositeChecker composite;
  EXPECT_TRUE(composite.check(d.topo).satisfied);
}

}  // namespace
}  // namespace klotski::constraints
