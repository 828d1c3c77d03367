// Randomized equivalence suite for the incremental demand verdict.
//
// DemandChecker keeps per-circuit utilizations and per-block maxima and,
// after a bound assignment, re-reads only the circuits whose exact totals
// changed.
// These walks hold it to the verdict of a full scan from scratch — a fresh
// router with no history and every circuit visited in id order — after
// every step: the same verdict, the same violation message, and the same
// last_max_utilization, bit for bit. The walks move over the task's block
// lattice as the planners' delta materialization does, and mix in a theta
// change (including theta equal to the current peak, a tie), an unroutable
// state followed by recovery, and a rebind to scaled demands. A second
// checker with a funneling margin rides the same walk on the plain-scan
// fallback. Each family runs with a serial router and with two router
// workers, whose jobs diff in parallel.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "klotski/constraints/demand_checker.h"
#include "klotski/obs/metrics.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/util/rng.h"
#include "klotski/util/string_util.h"

namespace klotski::constraints {
namespace {

constexpr int kSteps = 160;

struct Expected {
  bool ok = true;
  std::string violation;
  double max_util = 0.0;
};

/// The demand verdict by its definition: route from scratch, then scan
/// every circuit in id order and report the first one over theta.
Expected full_scan(const topo::Topology& topo,
                   const traffic::DemandSet& demands,
                   const DemandCheckerParams& params) {
  Expected out;
  traffic::EcmpRouter fresh(topo);
  traffic::LoadVector loads;
  std::string failed;
  if (!fresh.assign_all(demands, loads, &failed)) {
    out.ok = false;
    out.violation = "demand " + failed + " has no path in this topology";
    return out;
  }
  std::vector<std::uint8_t> funneled(topo.num_switches(), 0);
  for (const topo::Circuit& c : topo.circuits()) {
    if (c.state != topo::ElementState::kActive) {
      funneled[static_cast<std::size_t>(c.a)] = 1;
      funneled[static_cast<std::size_t>(c.b)] = 1;
    }
  }
  for (const topo::Circuit& c : topo.circuits()) {
    const auto slot = static_cast<std::size_t>(c.id) * 2;
    const double load = std::max(loads[slot], loads[slot + 1]);
    if (load <= 0.0) continue;
    double util = load / c.capacity_tbps;
    if (params.funneling_margin > 0.0 &&
        (funneled[static_cast<std::size_t>(c.a)] ||
         funneled[static_cast<std::size_t>(c.b)])) {
      util *= 1.0 + params.funneling_margin;
    }
    out.max_util = std::max(out.max_util, util);
    if (util > params.max_utilization) {
      out.ok = false;
      out.violation =
          "circuit " + std::to_string(c.id) + " (" + topo.sw(c.a).name +
          " - " + topo.sw(c.b).name + ") at " +
          util::format_double(util * 100.0, 1) + "% > theta " +
          util::format_double(params.max_utilization * 100.0, 1) + "%";
      return out;
    }
  }
  return out;
}

void expect_same(DemandChecker& checker, const topo::Topology& topo,
                 const std::string& where) {
  const Verdict got = checker.check(topo);
  const Expected want = full_scan(topo, checker.demands(), checker.params());
  ASSERT_EQ(want.ok, got.satisfied) << where << ": " << got.violation;
  EXPECT_EQ(want.violation, got.violation) << where;
  EXPECT_EQ(want.max_util, checker.last_max_utilization()) << where;
}

struct WalkStats {
  long long incremental_scans = 0;
  int over_theta = 0;  // checks failed by a circuit over theta
  int unroutable = 0;  // checks failed by a demand without a path
};

WalkStats run_walk(migration::MigrationCase mig, std::uint64_t seed,
                   int router_workers) {
  migration::MigrationTask& task = mig.task;
  topo::Topology& topo = *task.topo;
  WalkStats stats;

  traffic::EcmpRouter router(topo);
  router.set_num_workers(router_workers);
  DemandChecker checker(router, task.demands, {});
  traffic::EcmpRouter funnel_router(topo);
  DemandChecker funnel(funnel_router, task.demands,
                       {.max_utilization = 0.75, .funneling_margin = 0.2});

  obs::Counter& incremental =
      obs::Registry::global().counter("checker.demand.incremental_scans");
  const bool metrics_were_on = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const long long incremental_before = incremental.value();

  // Thetas around the origin's peak, so the walk fails and passes.
  expect_same(checker, topo, "origin");
  const double peak = checker.last_max_utilization();
  const std::vector<double> thetas = {0.9 * peak, peak, 1.02 * peak,
                                      1.2 * peak};

  const std::vector<std::int32_t> target = task.actions_per_type();
  std::vector<std::int32_t> counts(target.size(), 0);
  const std::vector<topo::SwitchId> cut = task.demands.front().targets;
  std::vector<topo::ElementState> saved;
  util::Rng rng(seed);
  for (int step = 0; step < kSteps; ++step) {
    const std::string where = "step " + std::to_string(step);
    if (step % 23 == 4) {
      checker.set_max_utilization(thetas[rng.index(thetas.size())]);
    }
    if (step == 100) {
      // Rebind to heavier demands; the next check rebuilds from scratch.
      checker.set_demands(traffic::scaled(checker.demands(), 1.05));
      funnel.set_demands(traffic::scaled(funnel.demands(), 1.05));
    }
    if (step % 50 == 30) {
      // Unroutable: the first demand loses its targets. The next step
      // puts them back and the walk must recover.
      saved.clear();
      for (const topo::SwitchId s : cut) {
        saved.push_back(topo.sw(s).state);
        topo.set_switch_state(s, topo::ElementState::kDrained);
      }
    } else if (step % 50 == 31) {
      for (std::size_t i = 0; i < cut.size(); ++i) {
        topo.set_switch_state(cut[i], saved[i]);
      }
    } else {
      const auto moves = rng.uniform_int(1, 3);
      for (std::int64_t m = 0; m < moves; ++m) {
        const auto t = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(target.size()) - 1));
        const bool apply =
            counts[t] == 0 ||
            (counts[t] < target[t] && rng.uniform_int(0, 1) == 0);
        if (apply) {
          if (counts[t] == target[t]) continue;
          task.blocks[t][static_cast<std::size_t>(counts[t]++)].apply(topo);
        } else {
          task.blocks[t][static_cast<std::size_t>(--counts[t])].unapply(
              topo, task.original_state);
        }
      }
    }
    expect_same(checker, topo, where);
    expect_same(funnel, topo, where + " (funneling)");
    if (::testing::Test::HasFatalFailure()) break;
    const Expected want =
        full_scan(topo, checker.demands(), checker.params());
    if (!want.ok) {
      ++(want.violation.rfind("demand ", 0) == 0 ? stats.unroutable
                                                 : stats.over_theta);
    }
  }
  stats.incremental_scans = incremental.value() - incremental_before;
  obs::set_metrics_enabled(metrics_were_on);
  return stats;
}

void run_family(migration::MigrationCase (*build)(), std::uint64_t seed) {
  for (const int workers : {0, 2}) {
    SCOPED_TRACE("router workers " + std::to_string(workers));
    const WalkStats stats = run_walk(build(), seed, workers);
    // The walk must reach every path it is meant to cover.
    EXPECT_GT(stats.incremental_scans, kSteps / 2);
    EXPECT_GT(stats.over_theta, 0);
    EXPECT_GT(stats.unroutable, 0);
  }
}

TEST(DemandIncremental, BlockWalkMatchesFullScanClos) {
  run_family(
      [] {
        return pipeline::build_experiment(pipeline::ExperimentId::kB,
                                          topo::PresetScale::kReduced);
      },
      20261101);
}

TEST(DemandIncremental, BlockWalkMatchesFullScanFlat) {
  run_family(
      [] {
        return pipeline::build_family_experiment(topo::TopologyFamily::kFlat,
                                                 topo::PresetId::kC,
                                                 topo::PresetScale::kReduced);
      },
      20261102);
}

TEST(DemandIncremental, BlockWalkMatchesFullScanReconf) {
  run_family(
      [] {
        return pipeline::build_family_experiment(topo::TopologyFamily::kReconf,
                                                 topo::PresetId::kC,
                                                 topo::PresetScale::kReduced);
      },
      20261103);
}

}  // namespace
}  // namespace klotski::constraints
