// Randomized equivalence suite for volume-only rebinds.
//
// DemandChecker::set_volumes keeps the router's routing and re-propagates
// the new volumes over every group the topology left alone, walking the
// group's stored runs instead of a BFS. These walks hold it to a checker
// built from scratch on the same demands after every step: the same
// verdict, the same violation message, and the same bits of
// last_max_utilization. The walks move over the task's block lattice and,
// between moves, change volumes: uniform growth, per-demand surges, a
// demand dropping to zero and coming back, and volumes so small that their
// shares underflow to zero, which changes the set of switches that emit
// and so forces the re-propagation to fall back to a recompute. Each family
// runs under ECMP and WCMP, with a serial router and with two router
// workers; a second checker with a funneling margin rides the same walk.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "klotski/constraints/demand_checker.h"
#include "klotski/obs/metrics.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/util/rng.h"

namespace klotski::constraints {
namespace {

constexpr int kSteps = 120;

/// Checks `checker` against a checker built from scratch on its demands.
void expect_fresh(DemandChecker& checker, traffic::SplitMode mode,
                  const topo::Topology& topo, const std::string& where) {
  const Verdict got = checker.check(topo);
  traffic::EcmpRouter fresh_router(topo, mode);
  DemandChecker fresh(fresh_router, checker.demands(), checker.params());
  const Verdict want = fresh.check(topo);
  ASSERT_EQ(want.satisfied, got.satisfied) << where << ": " << got.violation;
  EXPECT_EQ(want.violation, got.violation) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fresh.last_max_utilization()),
            std::bit_cast<std::uint64_t>(checker.last_max_utilization()))
      << where;
}

struct Counts {
  long long repropagations = 0;
  long long fallbacks = 0;
  int failures = 0;
};

Counts run_walk(migration::MigrationCase mig, traffic::SplitMode mode,
                int router_workers, std::uint64_t seed) {
  migration::MigrationTask& task = mig.task;
  topo::Topology& topo = *task.topo;
  const traffic::DemandSet base = task.demands;

  traffic::EcmpRouter router(topo, mode);
  router.set_num_workers(router_workers);
  DemandChecker checker(router, base, {});
  traffic::EcmpRouter funnel_router(topo, mode);
  funnel_router.set_num_workers(router_workers);
  DemandChecker funnel(funnel_router, base,
                       {.max_utilization = 0.75, .funneling_margin = 0.2});

  obs::Counter& repropagations =
      obs::Registry::global().counter("router.volume_repropagations");
  obs::Counter& fallbacks =
      obs::Registry::global().counter("router.volume_fallbacks");
  const bool metrics_were_on = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const long long repropagations_before = repropagations.value();
  const long long fallbacks_before = fallbacks.value();

  // Theta at the origin's peak, so growth and surges fail some steps.
  expect_fresh(checker, mode, topo, "origin");
  const double peak = checker.last_max_utilization();
  checker.set_max_utilization(1.05 * peak);
  funnel.set_max_utilization(1.05 * peak);

  Counts counts;
  const std::vector<std::int32_t> target = task.actions_per_type();
  std::vector<std::int32_t> done(target.size(), 0);
  std::vector<double> volumes(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    volumes[i] = base[i].volume_tbps;
  }
  util::Rng rng(seed);
  const auto pick = [&] {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(base.size()) - 1));
  };
  for (int step = 0; step < kSteps; ++step) {
    const std::string where = "step " + std::to_string(step);
    // Move the topology on most steps; volume-only checks of one state
    // are what the what-if engine does between moves.
    if (step % 3 != 2) {
      const auto t = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(target.size()) - 1));
      if (done[t] < target[t] && (done[t] == 0 || rng.uniform_int(0, 1) == 0)) {
        task.blocks[t][static_cast<std::size_t>(done[t]++)].apply(topo);
      } else if (done[t] > 0) {
        task.blocks[t][static_cast<std::size_t>(--done[t])].unapply(
            topo, task.original_state);
      }
    }
    switch (step % 6) {
      case 0:  // uniform growth
        for (double& v : volumes) v *= 1.01;
        break;
      case 1:  // per-demand surges
        for (int k = 0; k < 3; ++k) volumes[pick()] *= rng.uniform_real(0.5, 1.6);
        break;
      case 2:  // a demand drops to zero
        volumes[pick()] = 0.0;
        break;
      case 3:  // volumes whose shares underflow to zero
        volumes[pick()] = 5e-324;
        volumes[pick()] = 1e-320;
        break;
      case 4:  // every zero or tiny demand comes back
        for (std::size_t i = 0; i < volumes.size(); ++i) {
          if (volumes[i] < 1e-300) volumes[i] = base[i].volume_tbps;
        }
        break;
      default:  // back to the base volumes
        for (std::size_t i = 0; i < volumes.size(); ++i) {
          volumes[i] = base[i].volume_tbps;
        }
        break;
    }
    checker.set_volumes(volumes);
    funnel.set_volumes(volumes);
    expect_fresh(checker, mode, topo, where);
    expect_fresh(funnel, mode, topo, where + " (funneling)");
    if (::testing::Test::HasFatalFailure()) break;
    if (!checker.check(topo).satisfied) ++counts.failures;
  }
  counts.repropagations = repropagations.value() - repropagations_before;
  counts.fallbacks = fallbacks.value() - fallbacks_before;
  obs::set_metrics_enabled(metrics_were_on);
  return counts;
}

void run_family(migration::MigrationCase (*build)(), std::uint64_t seed) {
  for (const traffic::SplitMode mode :
       {traffic::SplitMode::kEqualSplit, traffic::SplitMode::kCapacityWeighted}) {
    for (const int workers : {0, 2}) {
      SCOPED_TRACE(std::string(mode == traffic::SplitMode::kEqualSplit
                                   ? "ecmp"
                                   : "wcmp") +
                   ", router workers " + std::to_string(workers));
      const Counts counts = run_walk(build(), mode, workers, seed);
      // The walk must reach every path it is meant to cover.
      EXPECT_GT(counts.repropagations, kSteps);
      EXPECT_GT(counts.fallbacks, 0);
      EXPECT_GT(counts.failures, 0);
    }
  }
}

TEST(VolumeRebind, BlockWalkMatchesFreshCheckerClos) {
  run_family(
      [] {
        return pipeline::build_experiment(pipeline::ExperimentId::kB,
                                          topo::PresetScale::kReduced);
      },
      20261201);
}

TEST(VolumeRebind, BlockWalkMatchesFreshCheckerFlat) {
  run_family(
      [] {
        return pipeline::build_family_experiment(topo::TopologyFamily::kFlat,
                                                 topo::PresetId::kC,
                                                 topo::PresetScale::kReduced);
      },
      20261202);
}

TEST(VolumeRebind, BlockWalkMatchesFreshCheckerReconf) {
  run_family(
      [] {
        return pipeline::build_family_experiment(topo::TopologyFamily::kReconf,
                                                 topo::PresetId::kC,
                                                 topo::PresetScale::kReduced);
      },
      20261203);
}

TEST(VolumeRebind, SizeMismatchIsRejected) {
  migration::MigrationCase mig = pipeline::build_experiment(
      pipeline::ExperimentId::kA, topo::PresetScale::kReduced);
  traffic::EcmpRouter router(*mig.task.topo);
  DemandChecker checker(router, mig.task.demands, {});
  EXPECT_THROW(checker.set_volumes({1.0}), std::invalid_argument);
}

TEST(VolumeRebind, OutOfRangeVolumesUnbindTheRouter) {
  migration::MigrationCase mig = pipeline::build_experiment(
      pipeline::ExperimentId::kA, topo::PresetScale::kReduced);
  const topo::Topology& topo = *mig.task.topo;
  traffic::EcmpRouter router(topo);
  DemandChecker checker(router, mig.task.demands, {});
  ASSERT_TRUE(checker.check(topo).satisfied);
  std::vector<double> volumes(mig.task.demands.size(), 0x1p28);
  EXPECT_THROW(checker.set_volumes(volumes), std::invalid_argument);
  EXPECT_FALSE(router.bound_to(checker.demands()));
  // Back in range, the checker works again and matches a fresh one.
  for (std::size_t i = 0; i < volumes.size(); ++i) {
    volumes[i] = mig.task.demands[i].volume_tbps * 1.1;
  }
  checker.set_volumes(volumes);
  expect_fresh(checker, traffic::SplitMode::kEqualSplit, topo, "recovered");
}

}  // namespace
}  // namespace klotski::constraints
