// robustness: the chaos sweep and the what-if engine.
//
// The work unit is one chunk of each, from seed-derived offsets:
//   chaos   run_chaos_sweep at 4 threads over kChaosChunk reduced preset-B
//           seeds (warm repair and the kill/resume self-test on), then
//           kLatencySeedsPerChunk single seeds through run_chaos_seed,
//           timed one by one (chaos_seed_p90_ms);
//   whatif  run_whatif at 4 threads over the full-scale D plan, one sweep of
//           kWhatifTrajectories trajectories.
// work_s is the median unit time; the untraced pass runs units until
// --seconds have elapsed. The traced pass runs a tenth of that with the obs
// registry and tracer on, then untraced 1-thread slices for the thread
// scaling, then times the planning layers on the chaos case.
//
// The full-D plan is input preparation (one A* run), outside both set-up
// and measurement. A seed that violates an invariant or fails the resume
// check is a failed operation; a seed that stops safely because its
// migration became infeasible is counted as chaos.incomplete.
#include <functional>
#include <iostream>

#include "common.h"
#include "klotski/obs/metrics.h"
#include "klotski/obs/trace.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/sim/chaos.h"
#include "klotski/whatif/whatif.h"

namespace perfbench {

using namespace klotski;

namespace {

// Set-ups are timed in batches spread over the run: before the work and
// after every unit (~40 batches of 3 at --seconds 20, ~0.5 s in all). A
// shared host's speed switches between states that last seconds, so
// set-ups timed back to back all land in one state and their median
// follows it; spread out, they sample the run's mix of states, as the
// units do.
constexpr int kSetupsPerBatch = 3;
constexpr int kThreads = 4;
constexpr int kChaosChunk = 64;
constexpr int kLatencySeedsPerChunk = 16;
constexpr int kWhatifTrajectories = 64;
constexpr int kWhatifGateTrajectories = 8;
// Plans of the chaos case timed on TimedChecker stacks (a few ms each).
constexpr int kTimedPlans = 16;

sim::ChaosParams chaos_params() {
  sim::ChaosParams params;
  params.preset = topo::PresetId::kB;
  params.scale = topo::PresetScale::kReduced;
  params.warm_repair = true;
  params.checkpoint_self_test = true;
  return params;
}

whatif::WhatIfParams whatif_params(std::uint64_t seed, int trajectories,
                                   int threads) {
  whatif::WhatIfParams params;
  params.trajectories = trajectories;
  params.seed = seed;
  params.threads = threads;
  return params;
}

migration::MigrationCase full_d() {
  return pipeline::build_experiment(pipeline::ExperimentId::kD,
                                    topo::PresetScale::kFull);
}

migration::MigrationCase chaos_case() {
  const sim::ChaosParams params = chaos_params();
  return pipeline::build_family_experiment(params.family, params.preset,
                                           params.scale);
}

/// What the units of one pass did.
struct Tally {
  std::vector<double> unit_s;
  long long seeds = 0;         // swept seeds
  double sweep_s = 0.0;        // time inside run_chaos_sweep
  long long trajectories = 0;
  double whatif_s = 0.0;       // time inside run_whatif
  long long incomplete = 0;
  long long rounds = 0;
  long long warm_attempts = 0, warm_wins = 0;
  std::vector<double> round_ms;
  std::vector<double> seed_ms;  // single-seed latencies

  void add(Outcome& out, const sim::ChaosVerdict& v) {
    out.operation(v.invariants_ok && v.resume_ok,
                  "chaos seed " + std::to_string(v.seed) + ": " + v.failure);
    if (v.invariants_ok && v.resume_ok && !v.completed) ++incomplete;
    rounds += static_cast<long long>(v.rounds.size());
    warm_attempts += v.warm_attempts;
    warm_wins += v.warm_wins;
    for (const pipeline::ReplanRound& r : v.rounds) {
      round_ms.push_back(r.seconds * 1e3);
    }
  }
};

/// Runs units at `threads` until `budget_s` has passed (at least
/// `min_units`), with `between` run untimed after each. Chaos seeds and
/// whatif sweep seeds advance through `chaos_seed` and `whatif_seed`.
Tally units_for(Outcome& out, const core::Plan& plan, std::uint64_t& chaos_seed,
                std::uint64_t& whatif_seed, double budget_s, int threads,
                int min_units, const std::function<void()>& between = {}) {
  const sim::ChaosParams params = chaos_params();
  Tally t;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point unit_start = Clock::now();
    const sim::ChaosSweepResult sweep =
        sim::run_chaos_sweep(chaos_seed, kChaosChunk, threads, params);
    t.sweep_s += seconds_since(unit_start);
    chaos_seed += kChaosChunk;
    t.seeds += kChaosChunk;
    for (const sim::ChaosVerdict& v : sweep.verdicts) t.add(out, v);
    for (int i = 0; i < kLatencySeedsPerChunk; ++i) {
      const Clock::time_point seed_start = Clock::now();
      const sim::ChaosVerdict v = sim::run_chaos_seed(chaos_seed++, params);
      t.seed_ms.push_back(seconds_since(seed_start) * 1e3);
      t.add(out, v);
    }
    const Clock::time_point sweep_start = Clock::now();
    const whatif::WhatIfReport report = whatif::run_whatif(
        full_d, plan, whatif_params(whatif_seed++, kWhatifTrajectories, threads));
    t.whatif_s += seconds_since(sweep_start);
    out.operation(report.trajectories_run == kWhatifTrajectories && !report.stopped,
                  "whatif sweep stopped early");
    t.trajectories += report.trajectories_run;
    t.unit_s.push_back(seconds_since(unit_start));
    if (between) between();
  } while (static_cast<int>(t.unit_s.size()) < min_units ||
           seconds_since(start) < budget_s);
  return t;
}

}  // namespace

void run_robustness(const Options& options, Outcome& out) {
  // Set-up: the full-D case and its checker stack.
  std::vector<double> setup_s;
  auto setup_batch = [&] {
    for (int rep = 0; rep < kSetupsPerBatch; ++rep) {
      const Clock::time_point start = Clock::now();
      migration::MigrationCase c = full_d();
      { pipeline::CheckerBundle b = pipeline::make_standard_checker(c.task); }
      setup_s.push_back(seconds_since(start));
    }
  };
  setup_batch();
  migration::MigrationCase d = full_d();
  pipeline::CheckerBundle bundle = pipeline::make_standard_checker(d.task);
  const core::Plan plan =
      pipeline::make_planner("astar")->plan(d.task, *bundle.checker, {});
  out.operation(plan.found, "full-D plan for the whatif sweeps");
  if (!plan.found) return;

  // Untraced pass.
  std::uint64_t chaos_seed = (options.seed % 1000) * 10'000;
  std::uint64_t whatif_seed = options.seed * 1'000'003;
  const std::uint64_t first_chaos_seed = chaos_seed;
  const std::uint64_t first_whatif_seed = whatif_seed;
  const Tally tally = units_for(out, plan, chaos_seed, whatif_seed,
                                options.seconds, kThreads, 1, setup_batch);
  out.end_to_end("setup_s", median(setup_s), "s");
  out.end_to_end("work_s", median(tally.unit_s), "s");
  out.end_to_end("peak_rss_mb",
                 static_cast<double>(proc_status_field(0, "VmHWM")) / 1024.0,
                 "MB");

  // Whatif reports are byte-identical across thread counts.
  const whatif::WhatIfParams gate_serial =
      whatif_params(whatif_seed, kWhatifGateTrajectories, 1);
  const whatif::WhatIfParams gate_threaded =
      whatif_params(whatif_seed, kWhatifGateTrajectories, kThreads);
  out.gate(whatif::report_text(whatif::run_whatif(full_d, plan, gate_serial),
                               gate_serial) ==
               whatif::report_text(whatif::run_whatif(full_d, plan, gate_threaded),
                                   gate_threaded),
           "whatif report differs between 1 and 4 threads");

  const double seeds_per_s = static_cast<double>(tally.seeds) / tally.sweep_s;
  const double traj_per_s = static_cast<double>(tally.trajectories) / tally.whatif_s;
  out.detail("chaos_seeds_per_s", seeds_per_s, "1/s");
  out.detail("chaos_seed_p90_ms", quantile(tally.seed_ms, 0.9), "ms");
  out.detail("whatif_traj_per_s", traj_per_s, "1/s");
  std::cout << "robustness: " << tally.unit_s.size() << " units, "
            << tally.seeds << " swept and " << tally.seed_ms.size()
            << " single chaos seeds (" << tally.incomplete << " incomplete), "
            << tally.trajectories << " whatif trajectories\n";

  if (!options.trace) return;

  // Traced pass: obs counters and spans on for a tenth of --seconds (at
  // least two units), over the same seeds as the untraced pass began with.
  obs::Registry::global().reset_values();
  obs::Tracer::global().clear();
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  std::uint64_t traced_chaos_seed = first_chaos_seed;
  std::uint64_t traced_whatif_seed = first_whatif_seed;
  const Tally traced = units_for(out, plan, traced_chaos_seed, traced_whatif_seed,
                                 options.seconds * 0.1, kThreads, 2);
  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);
  const ObsTotals traced_obs = ObsTotals::global();
  std::vector<double> traj_ms;
  double margin_us = 0, sweep_us = 0;
  for (const obs::Tracer::Event& e : obs::Tracer::global().events()) {
    if (e.name == "whatif/trajectory") traj_ms.push_back(static_cast<double>(e.dur_us) / 1e3);
    if (e.name == "whatif/margin_search") margin_us += static_cast<double>(e.dur_us);
    if (e.name == "whatif/sweep") sweep_us += static_cast<double>(e.dur_us);
  }
  obs::Tracer::global().clear();

  // Untraced 1-thread slices for the thread scaling.
  std::uint64_t serial_chaos_seed = first_chaos_seed;
  std::uint64_t serial_whatif_seed = first_whatif_seed;
  const Tally serial = units_for(out, plan, serial_chaos_seed, serial_whatif_seed,
                                 options.seconds * 0.1, 1, 1);

  // The planning layers, on the case every chaos seed plans first.
  PlanSplit split;
  std::vector<double> build_ms, init_ms;
  for (int i = 0; i < kTimedPlans; ++i) {
    Clock::time_point start = Clock::now();
    migration::MigrationCase c = chaos_case();
    build_ms.push_back(seconds_since(start) * 1e3);
    start = Clock::now();
    { pipeline::CheckerBundle b = pipeline::make_standard_checker(c.task); }
    init_ms.push_back(seconds_since(start) * 1e3);
    const CasePlan timed = plan_case(c.task, chaos_params().planner, 1, &split);
    const CasePlan plain = plan_case(c.task, chaos_params().planner, 1);
    out.operation(timed.plan.found, "chaos case plan (found/audit)");
    out.gate(timed.bytes == plain.bytes,
             "chaos case plan differs on the timed checker stack");
  }
  report_shared_layers(out, split, traced_obs,
                       static_cast<double>(traced.unit_s.size()),
                       median(build_ms), median(init_ms),
                       median(traced.unit_s) - median(tally.unit_s));

  out.detail("pipeline.replan_rounds", static_cast<double>(tally.rounds), "count");
  out.detail("pipeline.replan_round_p50_ms", median(tally.round_ms), "ms");
  out.detail("pipeline.warm_win_ratio",
             tally.warm_attempts > 0 ? static_cast<double>(tally.warm_wins) /
                                           static_cast<double>(tally.warm_attempts)
                                     : 0.0,
             "ratio");
  out.detail("chaos.incomplete", static_cast<double>(tally.incomplete), "count");
  out.detail("whatif.traj_ms_p50", median(traj_ms), "ms");
  out.detail("whatif.margin_search_share", sweep_us > 0 ? margin_us / sweep_us : 0.0,
             "ratio");
  out.detail("sweep.parallel_speedup.chaos",
             seeds_per_s / (static_cast<double>(serial.seeds) / serial.sweep_s),
             "ratio");
  out.detail("sweep.parallel_speedup.whatif",
             traj_per_s /
                 (static_cast<double>(serial.trajectories) / serial.whatif_s),
             "ratio");
}

}  // namespace perfbench
