// Randomized equivalence suite for the flat-path ECMP engine.
//
// The incremental router (epoch-stamped scratch, word-packed liveness,
// journal-driven dirty screening, sparse group caches) and the intra-check
// parallel mode both promise *bit-identical* results to a from-scratch
// evaluation. These tests drive a Table-3 preset through hundreds of random
// drain / undrain / add / remove mutations and hold them to that promise:
//  * after every mutation, the bound incremental router must produce exactly
//    the load vector of a freshly constructed router with no caches;
//  * routers with 2 and 4 workers must match the serial router exactly —
//    loads, failure identity, and the logical group_recomputes/group_reuses
//    counters (which are defined to be invariant under num_workers);
//  * block-shaped walks that apply and unapply real task blocks, as the
//    planners' delta materialization does, must match a fresh router after
//    every step while the carried-set screen reuses groups;
//  * hand-built cases pin the edges of that screen: a zero-volume demand's
//    path is still watched, a distance snapshot left stale by a reuse stays
//    safe to screen against, and a switch that comes up is attached to the
//    snapshot only when no carried switch gains it as a next hop.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "klotski/pipeline/experiments.h"
#include "klotski/topo/topology.h"
#include "klotski/traffic/ecmp.h"
#include "klotski/util/rng.h"

namespace klotski {
namespace {

constexpr int kSteps = 200;

/// One random element-state mutation through the versioned setters, plus an
/// occasional bump_state_version() to force the journal-floor (full rescan)
/// fallback paths.
void mutate(topo::Topology& topo, util::Rng& rng, int step) {
  const topo::ElementState states[] = {topo::ElementState::kActive,
                                       topo::ElementState::kDrained,
                                       topo::ElementState::kAbsent};
  const auto state = states[rng.uniform_int(0, 2)];
  if (rng.uniform_int(0, 1) == 0) {
    const auto s = static_cast<topo::SwitchId>(
        rng.uniform_int(0, static_cast<std::int64_t>(topo.num_switches()) - 1));
    topo.set_switch_state(s, state);
  } else {
    const auto c = static_cast<topo::CircuitId>(
        rng.uniform_int(0, static_cast<std::int64_t>(topo.num_circuits()) - 1));
    topo.set_circuit_state(c, state);
  }
  if (step % 20 == 19) topo.bump_state_version();
}

struct AssignResult {
  bool ok = false;
  std::string failed;
  traffic::LoadVector loads;
};

AssignResult run_assign(traffic::EcmpRouter& router,
                        const traffic::DemandSet& demands) {
  AssignResult r;
  r.ok = router.assign_all(demands, r.loads, &r.failed);
  return r;
}

/// Holds the bound router to bit-identical loads (or the same failure)
/// against a from-scratch router on the topology's current state.
void expect_matches_fresh(const topo::Topology& topo,
                          traffic::EcmpRouter& incremental,
                          const traffic::DemandSet& demands,
                          const std::string& where) {
  const AssignResult got = run_assign(incremental, demands);
  traffic::EcmpRouter fresh(topo);
  const AssignResult want = run_assign(fresh, demands);
  ASSERT_EQ(want.ok, got.ok) << where;
  if (!want.ok) {
    EXPECT_EQ(want.failed, got.failed) << where;
    return;
  }
  ASSERT_EQ(want.loads.size(), got.loads.size()) << where;
  for (std::size_t i = 0; i < want.loads.size(); ++i) {
    ASSERT_EQ(want.loads[i], got.loads[i]) << where << " slot " << i;
  }
}

/// Drives a migration case through kSteps random mutations, holding the
/// bound incremental router to bit-identical loads against a from-scratch
/// router after every step. Shared by the per-family tests below.
void run_fresh_router_equivalence(migration::MigrationCase mig,
                                  std::uint64_t seed) {
  topo::Topology& topo = *mig.task.topo;
  const traffic::DemandSet& demands = mig.task.demands;
  ASSERT_FALSE(demands.empty());

  traffic::EcmpRouter incremental(topo);
  incremental.bind_demands(demands);

  util::Rng rng(seed);
  for (int step = 0; step < kSteps; ++step) {
    mutate(topo, rng, step);

    const AssignResult got = run_assign(incremental, demands);
    // The reference has no history: every group is computed from scratch.
    traffic::EcmpRouter fresh(topo);
    const AssignResult want = run_assign(fresh, demands);

    ASSERT_EQ(want.ok, got.ok) << "step " << step;
    if (!want.ok) {
      EXPECT_EQ(want.failed, got.failed) << "step " << step;
      continue;
    }
    ASSERT_EQ(want.loads.size(), got.loads.size());
    for (std::size_t i = 0; i < want.loads.size(); ++i) {
      // EXPECT_EQ, not NEAR: the incremental engine re-sums cached sparse
      // contributions in the exact order a dense recompute would use.
      ASSERT_EQ(want.loads[i], got.loads[i])
          << "step " << step << " slot " << i;
    }

    // Touched-circuit fast path: after a successful bound assign_all the
    // touched list must cover every loaded circuit, so the restricted
    // utilization scan is exact.
    ASSERT_TRUE(incremental.touched_valid());
    const traffic::WorstCircuit full = traffic::worst_circuit(topo, got.loads);
    const traffic::WorstCircuit fast =
        traffic::worst_circuit(topo, got.loads, incremental.touched_circuits());
    EXPECT_EQ(full.circuit, fast.circuit) << "step " << step;
    EXPECT_EQ(full.utilization, fast.utilization) << "step " << step;
    EXPECT_EQ(traffic::max_utilization(topo, got.loads),
              traffic::max_utilization(topo, got.loads,
                                       incremental.touched_circuits()))
        << "step " << step;
  }
}

TEST(EcmpEquivalence, RandomizedMutationsMatchFreshRouter) {
  run_fresh_router_equivalence(
      pipeline::build_experiment(pipeline::ExperimentId::kB,
                                 topo::PresetScale::kReduced),
      20260806);
}

TEST(EcmpEquivalence, RandomizedMutationsMatchFreshRouterFlat) {
  run_fresh_router_equivalence(
      pipeline::build_family_experiment(topo::TopologyFamily::kFlat,
                                        topo::PresetId::kB,
                                        topo::PresetScale::kReduced),
      20260810);
}

TEST(EcmpEquivalence, RandomizedMutationsMatchFreshRouterReconf) {
  run_fresh_router_equivalence(
      pipeline::build_family_experiment(topo::TopologyFamily::kReconf,
                                        topo::PresetId::kB,
                                        topo::PresetScale::kReduced),
      20260811);
}

/// A random walk over the task's block lattice: each move applies the next
/// block of a random action type or unapplies its last applied one, the
/// transitions StateEvaluator's delta materialization makes between
/// neighbouring states. One to three moves separate two checks, the way A*
/// hops between frontier states. Returns the router's group reuses.
long long run_block_walk(migration::MigrationCase mig, std::uint64_t seed) {
  migration::MigrationTask& task = mig.task;
  topo::Topology& topo = *task.topo;
  const traffic::DemandSet& demands = task.demands;
  EXPECT_FALSE(demands.empty());

  traffic::EcmpRouter incremental(topo);
  incremental.bind_demands(demands);
  const std::vector<std::int32_t> target = task.actions_per_type();
  std::vector<std::int32_t> counts(target.size(), 0);

  util::Rng rng(seed);
  for (int step = 0; step < kSteps; ++step) {
    const auto moves = rng.uniform_int(1, 3);
    for (std::int64_t m = 0; m < moves; ++m) {
      const auto t = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(target.size()) - 1));
      const bool apply = counts[t] == 0 ||
                         (counts[t] < target[t] && rng.uniform_int(0, 1) == 0);
      if (apply) {
        if (counts[t] == target[t]) continue;
        task.blocks[t][static_cast<std::size_t>(counts[t]++)].apply(topo);
      } else {
        task.blocks[t][static_cast<std::size_t>(--counts[t])].unapply(
            topo, task.original_state);
      }
    }
    expect_matches_fresh(topo, incremental, demands,
                         "step " + std::to_string(step));
    if (::testing::Test::HasFatalFailure()) break;
  }
  return incremental.group_reuses();
}

TEST(EcmpEquivalence, BlockWalkMatchesFreshRouter) {
  const long long reuses = run_block_walk(
      pipeline::build_experiment(pipeline::ExperimentId::kB,
                                 topo::PresetScale::kReduced),
      20261017);
  // The carried-set screen must actually pay off on Clos, where a block
  // touches only a few of the demands' DAGs.
  EXPECT_GT(reuses, 0);
}

TEST(EcmpEquivalence, BlockWalkMatchesFreshRouterFlat) {
  run_block_walk(pipeline::build_family_experiment(topo::TopologyFamily::kFlat,
                                                   topo::PresetId::kC,
                                                   topo::PresetScale::kReduced),
                 20261018);
}

TEST(EcmpEquivalence, BlockWalkMatchesFreshRouterReconf) {
  run_block_walk(
      pipeline::build_family_experiment(topo::TopologyFamily::kReconf,
                                        topo::PresetId::kC,
                                        topo::PresetScale::kReduced),
      20261019);
}

/// A small hand-built graph: `node` adds an FSW, `link` a 10 Tbps circuit.
struct Graph {
  topo::Topology topo;

  topo::SwitchId node(const std::string& name) {
    return topo.add_switch(topo::SwitchRole::kFsw, topo::Generation::kV1, {},
                           16, topo::ElementState::kActive, name);
  }
  topo::CircuitId link(topo::SwitchId a, topo::SwitchId b,
                       topo::ElementState state = topo::ElementState::kActive) {
    return topo.add_circuit(a, b, 10.0, state);
  }
};

traffic::Demand demand(const std::string& name, topo::SwitchId source,
                       topo::SwitchId target, double volume) {
  traffic::Demand d;
  d.name = name;
  d.sources = {source};
  d.targets = {target};
  d.volume_tbps = volume;
  return d;
}

TEST(EcmpEquivalence, ZeroVolumeDemandWhosePathIsCutStillFails) {
  // s - a - t carries no volume, so propagation puts no load on it; the
  // demand still needs a path, so cutting a - t must fail the check.
  Graph g;
  const topo::SwitchId s = g.node("s");
  const topo::SwitchId a = g.node("a");
  const topo::SwitchId t = g.node("t");
  const topo::SwitchId u = g.node("u");
  g.link(s, a);
  const topo::CircuitId at = g.link(a, t);
  g.link(u, t);
  const traffic::DemandSet demands = {demand("idle", s, t, 0.0),
                                      demand("busy", u, t, 1.0)};
  traffic::EcmpRouter router(g.topo);
  router.bind_demands(demands);
  expect_matches_fresh(g.topo, router, demands, "before the cut");

  g.topo.set_circuit_state(at, topo::ElementState::kDrained);
  traffic::LoadVector loads;
  std::string failed;
  EXPECT_FALSE(router.assign_all(demands, loads, &failed));
  EXPECT_EQ("idle", failed);
  expect_matches_fresh(g.topo, router, demands, "after the cut");
}

TEST(EcmpEquivalence, UndrainAcrossStaleDistanceSnapshotMatchesFreshRouter) {
  // Carried: s1 -> s0 -> t (s0 at distance 1, s1 at 2). Off the carried
  // DAG: t - y - x - s0, so y sits at distance 1 and x at 2.
  Graph g;
  const topo::SwitchId t = g.node("t");
  const topo::SwitchId s0 = g.node("s0");
  const topo::SwitchId s1 = g.node("s1");
  const topo::SwitchId y = g.node("y");
  const topo::SwitchId x = g.node("x");
  g.link(s0, t);
  g.link(s1, s0);
  const topo::CircuitId ty = g.link(t, y);
  g.link(y, x);
  g.link(x, s0);
  const topo::CircuitId y_s0 = g.link(y, s0, topo::ElementState::kDrained);
  const topo::CircuitId y_s1 = g.link(y, s1, topo::ElementState::kDrained);
  const traffic::DemandSet demands = {demand("near", s0, t, 1.0),
                                      demand("far", s1, t, 2.0)};
  traffic::EcmpRouter router(g.topo);
  router.bind_demands(demands);
  expect_matches_fresh(g.topo, router, demands, "initial");
  long long reuses = router.group_reuses();

  // Draining t - y strands y at true distance 3 (y - x - s0 - t) while the
  // snapshot keeps 1: y is not carried, so the group is reused.
  g.topo.set_circuit_state(ty, topo::ElementState::kDrained);
  expect_matches_fresh(g.topo, router, demands, "drain t-y");
  EXPECT_EQ(++reuses, router.group_reuses());

  // y - s0 joins two snapshot distance-1 switches: a same-level chord by
  // the snapshot, though it shortcuts y to distance 2. Still reused.
  g.topo.set_circuit_state(y_s0, topo::ElementState::kActive);
  expect_matches_fresh(g.topo, router, demands, "undrain y-s0");
  EXPECT_EQ(++reuses, router.group_reuses());

  // y - s1 has carried s1 as its farther endpoint by the stale snapshot:
  // the group is recomputed, and the fresh snapshot is exact again.
  g.topo.set_circuit_state(y_s1, topo::ElementState::kActive);
  expect_matches_fresh(g.topo, router, demands, "undrain y-s1");
  EXPECT_EQ(reuses, router.group_reuses());

  // Undrain t - y: y returns to distance 1 and becomes s1's second next
  // hop (s1 - y - t), which the recompute must pick up.
  g.topo.set_circuit_state(ty, topo::ElementState::kActive);
  expect_matches_fresh(g.topo, router, demands, "undrain t-y");
}

TEST(EcmpEquivalence, NewSwitchBesideTheCarriedDagIsAttachedNotRecomputed) {
  // Carried: s -> m -> t. Staged switches x and y come up later.
  Graph g;
  const topo::SwitchId t = g.node("t");
  const topo::SwitchId m = g.node("m");
  const topo::SwitchId s = g.node("s");
  const topo::SwitchId y = g.node("y");
  const topo::SwitchId x = g.node("x");
  g.link(s, m);
  g.link(m, t);
  g.link(y, t);
  g.link(y, m);
  g.link(x, t);
  g.link(x, s);
  g.topo.sw(y).state = topo::ElementState::kAbsent;
  g.topo.sw(x).state = topo::ElementState::kAbsent;
  g.topo.bump_state_version();
  const traffic::DemandSet demands = {demand("s-t", s, t, 1.0)};
  traffic::EcmpRouter router(g.topo);
  router.bind_demands(demands);
  expect_matches_fresh(g.topo, router, demands, "initial");
  long long reuses = router.group_reuses();

  // y joins t (distance 0) and m (1): it attaches at distance 1, a
  // same-level neighbor of m, and no carried switch gains a next hop.
  g.topo.set_switch_state(y, topo::ElementState::kActive);
  expect_matches_fresh(g.topo, router, demands, "y up");
  EXPECT_EQ(++reuses, router.group_reuses());

  // x joins t (0) and s (2): carried s would gain x as a second next hop,
  // so the group is recomputed and s splits its volume over m and x.
  g.topo.set_switch_state(x, topo::ElementState::kActive);
  expect_matches_fresh(g.topo, router, demands, "x up");
  EXPECT_EQ(reuses, router.group_reuses());
}

TEST(EcmpEquivalence, SwitchJoiningWithUnreachedNeighborsIsRecomputed) {
  // Carried: s -> a5 -> ... -> a1 -> t, s at distance 6. The island
  // n - w (and z, linked later) has no path to t until staged x comes up
  // and joins t to n: the island becomes reachable in one batch, which the
  // screen cannot attach switch by switch.
  Graph g;
  const topo::SwitchId t = g.node("t");
  topo::SwitchId prev = t;
  for (int i = 1; i <= 5; ++i) {
    const topo::SwitchId a = g.node("a" + std::to_string(i));
    g.link(a, prev);
    prev = a;
  }
  const topo::SwitchId s = g.node("s");
  g.link(s, prev);
  const topo::SwitchId x = g.node("x");
  const topo::SwitchId n = g.node("n");
  const topo::SwitchId w = g.node("w");
  const topo::SwitchId z = g.node("z");
  g.link(x, t);
  g.link(x, n);
  g.link(n, w);
  const topo::CircuitId zw = g.link(z, w, topo::ElementState::kDrained);
  const topo::CircuitId zs = g.link(z, s, topo::ElementState::kDrained);
  g.topo.sw(x).state = topo::ElementState::kAbsent;
  g.topo.bump_state_version();
  const traffic::DemandSet demands = {demand("s-t", s, t, 1.0)};
  traffic::EcmpRouter router(g.topo);
  router.bind_demands(demands);
  expect_matches_fresh(g.topo, router, demands, "initial");
  long long reuses = router.group_reuses();

  // x up: x's neighbor n is unreached too, so the group is recomputed and
  // the snapshot learns n at 2 and w at 3.
  g.topo.set_switch_state(x, topo::ElementState::kActive);
  expect_matches_fresh(g.topo, router, demands, "x up");
  EXPECT_EQ(reuses, router.group_reuses());

  // z - w: z attaches at 4, off the carried DAG.
  g.topo.set_circuit_state(zw, topo::ElementState::kActive);
  expect_matches_fresh(g.topo, router, demands, "undrain z-w");
  EXPECT_EQ(++reuses, router.group_reuses());

  // z - s: s (6) now reaches t through z in 5 hops; its next hop changes.
  g.topo.set_circuit_state(zs, topo::ElementState::kActive);
  expect_matches_fresh(g.topo, router, demands, "undrain z-s");
  EXPECT_EQ(reuses, router.group_reuses());
}

/// Serial-vs-workers bit-identity over kSteps random mutations; shared by
/// the per-family EcmpParallel* tests (tier1.sh runs exactly those under
/// TSan via gtest_filter=EcmpParallel*).
void run_workers_match_serial(migration::MigrationCase mig,
                              std::uint64_t seed) {
  topo::Topology& topo = *mig.task.topo;
  const traffic::DemandSet& demands = mig.task.demands;

  traffic::EcmpRouter serial(topo);
  serial.bind_demands(demands);
  traffic::EcmpRouter two(topo);
  two.set_num_workers(2);
  two.bind_demands(demands);
  traffic::EcmpRouter four(topo);
  four.set_num_workers(4);
  four.bind_demands(demands);
  EXPECT_EQ(0, serial.num_workers());
  EXPECT_EQ(2, two.num_workers());
  EXPECT_EQ(4, four.num_workers());

  util::Rng rng(seed);
  for (int step = 0; step < kSteps; ++step) {
    mutate(topo, rng, step);

    const AssignResult want = run_assign(serial, demands);
    for (traffic::EcmpRouter* parallel : {&two, &four}) {
      const AssignResult got = run_assign(*parallel, demands);
      ASSERT_EQ(want.ok, got.ok) << "step " << step;
      EXPECT_EQ(want.failed, got.failed) << "step " << step;
      ASSERT_EQ(want.loads.size(), got.loads.size());
      for (std::size_t i = 0; i < want.loads.size(); ++i) {
        ASSERT_EQ(want.loads[i], got.loads[i])
            << "step " << step << " slot " << i;
      }
      // Logical counters replay the serial accounting even when the pool
      // physically recomputed groups past the first failure.
      EXPECT_EQ(serial.group_recomputes(), parallel->group_recomputes())
          << "step " << step;
      EXPECT_EQ(serial.group_reuses(), parallel->group_reuses())
          << "step " << step;
    }
  }
}

TEST(EcmpParallelEquivalence, WorkersMatchSerialBitForBit) {
  run_workers_match_serial(
      pipeline::build_experiment(pipeline::ExperimentId::kB,
                                 topo::PresetScale::kReduced),
      777);
}

TEST(EcmpParallelEquivalence, WorkersMatchSerialBitForBitFlat) {
  run_workers_match_serial(
      pipeline::build_family_experiment(topo::TopologyFamily::kFlat,
                                        topo::PresetId::kB,
                                        topo::PresetScale::kReduced),
      778);
}

TEST(EcmpParallelEquivalence, WorkersMatchSerialBitForBitReconf) {
  run_workers_match_serial(
      pipeline::build_family_experiment(topo::TopologyFamily::kReconf,
                                        topo::PresetId::kB,
                                        topo::PresetScale::kReduced),
      779);
}

TEST(EcmpParallelEquivalence, WorkerPoolResizeAndReuse) {
  migration::MigrationCase mig = pipeline::build_experiment(
      pipeline::ExperimentId::kB, topo::PresetScale::kReduced);
  topo::Topology& topo = *mig.task.topo;
  const traffic::DemandSet& demands = mig.task.demands;

  traffic::EcmpRouter serial(topo);
  serial.bind_demands(demands);
  traffic::EcmpRouter resized(topo);
  resized.bind_demands(demands);

  util::Rng rng(42);
  for (int step = 0; step < 60; ++step) {
    // Shrinking back to serial mid-stream must not disturb the caches.
    resized.set_num_workers(step % 3 == 0 ? 1 : (step % 3 == 1 ? 2 : 3));
    mutate(topo, rng, step);
    const AssignResult want = run_assign(serial, demands);
    const AssignResult got = run_assign(resized, demands);
    ASSERT_EQ(want.ok, got.ok) << "step " << step;
    EXPECT_EQ(want.failed, got.failed) << "step " << step;
    for (std::size_t i = 0; i < want.loads.size(); ++i) {
      ASSERT_EQ(want.loads[i], got.loads[i])
          << "step " << step << " slot " << i;
    }
    EXPECT_EQ(serial.group_recomputes(), resized.group_recomputes());
    EXPECT_EQ(serial.group_reuses(), resized.group_reuses());
  }
}

}  // namespace
}  // namespace klotski
