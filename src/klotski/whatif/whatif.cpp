#include "klotski/whatif/whatif.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "klotski/constraints/demand_checker.h"
#include "klotski/core/state_evaluator.h"
#include "klotski/obs/metrics.h"
#include "klotski/obs/trace.h"
#include "klotski/sim/fault_script.h"
#include "klotski/traffic/forecast.h"
#include "klotski/util/hash.h"
#include "klotski/util/rng.h"
#include "klotski/util/thread_budget.h"

namespace klotski::whatif {

namespace {

/// Salt separating the what-if trajectory seed stream from every other
/// consumer of the base seed (chaos scripts, traffic generators).
constexpr std::uint64_t kTrajectorySalt = 0x57A7'1F00'D001ULL;
constexpr std::uint64_t kGrowthSalt = 0x6807'7801ULL;

/// One worker's validation context: its own case (trajectories materialize
/// phases onto the topology), checker stack and evaluator. The verdict
/// cache stays off — it is keyed on count vectors only, which is unsound
/// when the demand volumes change under the same counts, exactly what every
/// check here does.
struct Validator {
  migration::MigrationCase mig;
  pipeline::CheckerBundle bundle;
  constraints::DemandChecker* demand_checker = nullptr;
  std::unique_ptr<core::StateEvaluator> evaluator;
  std::vector<double> volumes;  // the volumes safe() checks under

  Validator(const CaseFactory& factory, const pipeline::CheckerConfig& config)
      : mig(factory()) {
    bundle = pipeline::make_standard_checker(mig.task, config);
    demand_checker = dynamic_cast<constraints::DemandChecker*>(
        &bundle.checker->checker(bundle.checker->size() - 1));
    if (demand_checker == nullptr) {
      throw std::logic_error(
          "whatif: standard checker stack has no demand checker");
    }
    evaluator = std::make_unique<core::StateEvaluator>(
        mig.task, *bundle.checker, /*use_cache=*/false);
  }

  /// Whether the state after `done` is safe under `volumes`. Only the
  /// volumes change between checks of one state, so the router re-routes
  /// just the groups the last state move touched.
  bool safe(const core::CountVector& done) {
    demand_checker->set_volumes(volumes);
    return evaluator->feasible(done);
  }

  /// Whether every checker ahead of the demand checker accepts the
  /// topology; when one rejects it, the demand checker did not run.
  bool structural_ok() {
    for (std::size_t i = 0; i + 1 < bundle.checker->size(); ++i) {
      if (!bundle.checker->checker(i).check(*mig.task.topo).satisfied) {
        return false;
      }
    }
    return true;
  }
};

bool stop_requested(const std::atomic<bool>* stop) {
  return stop != nullptr && stop->load(std::memory_order_relaxed);
}

/// The count vector after the first `num_phases` phases of the plan.
core::CountVector counts_after(const migration::MigrationTask& task,
                               const std::vector<core::Phase>& phases,
                               std::size_t num_phases) {
  core::CountVector done(static_cast<std::size_t>(task.num_action_types()),
                         0);
  for (std::size_t p = 0; p < num_phases; ++p) {
    done[static_cast<std::size_t>(phases[p].type)] +=
        static_cast<std::int32_t>(phases[p].block_indices.size());
  }
  return done;
}

/// The sampled future of trajectory `index`: a Forecaster over the task's
/// base demands with per-trajectory growth, surge windows and forecast-error
/// windows. Pure function of (params.seed, index, task shape).
traffic::Forecaster sample_future(
    const WhatIfParams& params, int index,
    const migration::MigrationTask& task,
    const std::shared_ptr<const traffic::DemandSet>& base, int num_phases) {
  const std::uint64_t seed = util::hash_combine(
      util::hash_combine(params.seed, kTrajectorySalt),
      static_cast<std::uint64_t>(index));

  util::Rng growth_rng(util::hash_combine(seed, kGrowthSalt));
  const double growth =
      growth_rng.uniform_real(params.growth_min, params.growth_max);

  sim::FaultScriptParams script_params;
  script_params.horizon = std::max(8, num_phases + 2);
  script_params.expected_phases = std::max(1, num_phases);
  // Demand events only: the what-if question is about traffic futures, not
  // element faults (those are the chaos engine's jurisdiction).
  script_params.circuit_degrades = 0;
  script_params.circuit_failures = 0;
  script_params.switch_drains = 0;
  script_params.step_failures = 0;
  script_params.demand_events = params.surges;
  script_params.forecast_errors = params.forecast_errors;
  script_params.surge_factor_min = params.surge_factor_min;
  script_params.surge_factor_max = params.surge_factor_max;
  script_params.bias_factor_min = params.bias_factor_min;
  script_params.bias_factor_max = params.bias_factor_max;
  const sim::FaultScript script =
      sim::make_fault_script(seed, task, script_params);

  traffic::Forecaster forecaster(base, growth);
  for (const traffic::SurgeEvent& surge : script.surges) {
    forecaster.add_surge(surge);
  }
  for (const traffic::ForecastBias& bias : script.biases) {
    forecaster.add_bias(bias);
  }
  return forecaster;
}

/// Validates trajectories [first, last) against every plan phase, phase
/// by phase: the state after phase p is materialized once, then checked
/// under the demand volumes of step p + 1 of each trajectory still safe
/// (step 0 is the original network under the base demands, already
/// validated by the plan's audit). A trajectory stops at its first
/// violation — where execution would halt and hand off to the replanning
/// loop. Each outcome is what validating its trajectory alone yields. A
/// stop request leaves the trajectories still running incomplete.
void run_chunk(const WhatIfParams& params, int first, int last, Validator& v,
               const std::vector<core::Phase>& phases,
               const std::shared_ptr<const traffic::DemandSet>& base,
               std::vector<TrajectoryOutcome>& outcomes,
               const std::atomic<bool>* stop) {
  obs::Span span("whatif/trajectory");
  static obs::Counter& trajectories_counter =
      obs::Registry::global().counter("whatif.trajectories");
  const double theta = params.checker.demand.max_utilization;
  const double base_volume = traffic::total_volume(*base);

  struct Running {
    int index;
    traffic::Forecaster future;
  };
  std::vector<Running> running;
  running.reserve(static_cast<std::size_t>(last - first));
  for (int i = first; i < last; ++i) {
    running.push_back(Running{
        i, sample_future(params, i, v.mig.task, base,
                         static_cast<int>(phases.size()))});
    TrajectoryOutcome& out = outcomes[static_cast<std::size_t>(i)];
    out.completed = true;
    out.safe = true;
    out.min_headroom = theta;
    out.phase_utilization.reserve(phases.size());
  }

  core::CountVector done = counts_after(v.mig.task, phases, 0);
  for (std::size_t p = 0; p < phases.size() && !running.empty(); ++p) {
    const int step = static_cast<int>(p) + 1;
    done[static_cast<std::size_t>(phases[p].type)] +=
        static_cast<std::int32_t>(phases[p].block_indices.size());
    std::size_t kept = 0;
    for (std::size_t k = 0; k < running.size(); ++k) {
      if (stop_requested(stop)) {
        for (const Running& r : running) {
          outcomes[static_cast<std::size_t>(r.index)].completed = false;
        }
        return;
      }
      TrajectoryOutcome& out =
          outcomes[static_cast<std::size_t>(running[k].index)];
      running[k].future.forecast_volumes_at_step(step, v.volumes);
      double volume = 0.0;
      for (const double x : v.volumes) volume += x;
      const bool ok = v.safe(done);
      // A state the structural checkers reject never reaches the demand
      // checker, so its utilization stays the one this trajectory's
      // previous phase left (0 before the first).
      const double util =
          ok || v.structural_ok()
              ? v.demand_checker->last_max_utilization()
              : (out.phase_utilization.empty()
                     ? 0.0
                     : out.phase_utilization.back());
      out.phase_utilization.push_back(util);
      if (ok) {
        out.min_headroom = std::min(out.min_headroom, theta - util);
        if (kept != k) running[kept] = std::move(running[k]);
        ++kept;
        continue;
      }
      out.safe = false;
      out.first_break_phase = static_cast<int>(p);
      out.break_utilization = util;
      out.break_multiplier = base_volume > 0.0 ? volume / base_volume : 0.0;
      // The demand checker scans utilization only after every demand
      // routed; a failure that never exceeded theta is a no-path demand.
      out.unroutable = util <= theta;
      if (!out.unroutable) {
        out.min_headroom = std::min(out.min_headroom, theta - util);
      }
      trajectories_counter.inc();
    }
    running.erase(running.begin() + static_cast<std::ptrdiff_t>(kept),
                  running.end());
  }
  trajectories_counter.inc(static_cast<long long>(running.size()));
}

/// One state's share of the safe-growth-margin search.
struct MarginState {
  bool completed = false;
  bool saturated = false;   // safe at margin_max
  bool safe_at_one = true;  // safe at multiplier 1
  double margin = 0.0;      // bisection result in the state's own bracket
};

/// The margin search for the state after `counts`: P(margin_max), then
/// P(1), then the fixed-iteration bisection in [1, margin_max] when safe
/// at 1 and in [0, 1] otherwise. A stop request leaves it incomplete.
void search_state(const WhatIfParams& params, const core::CountVector& counts,
                  Validator& v, MarginState& out,
                  const std::atomic<bool>* stop) {
  obs::Span span("whatif/margin_search");
  const traffic::DemandSet& base = v.mig.task.demands;
  const auto safe_at = [&](double multiplier) {
    v.volumes.resize(base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      v.volumes[i] = base[i].volume_tbps * multiplier;
    }
    return v.safe(counts);
  };
  if (safe_at(params.margin_max)) {
    out.saturated = true;
    out.completed = true;
    return;
  }
  out.safe_at_one = safe_at(1.0);
  double lo = out.safe_at_one ? 1.0 : 0.0;
  double hi = out.safe_at_one ? params.margin_max : 1.0;
  for (int i = 0; i < params.margin_iterations; ++i) {
    if (stop_requested(stop)) return;
    const double mid = (lo + hi) / 2.0;
    if (safe_at(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  out.margin = lo;
  out.completed = true;
}

/// The largest uniform demand multiplier (within margin_max) the whole plan
/// tolerates, from the per-state searches. It equals the serial search
/// that bisects "every state is safe at m" (origin and every phase), with
/// the same brackets and the same fixed (lo + hi) / 2 sequence.
///
/// Why. Let P_s(m) be "state s is safe with every base volume scaled by
/// m" (volumes are non-negative). Every check in it is monotone in m: the
/// scaled volumes, per-source injections and shares, exact totals,
/// utilization and its (1 + funneling) inflation never decrease as m grows,
/// routability does not depend on m, and the theta compare turns false
/// once and stays false. So each P_s is a down-set, and the serial
/// predicate is P = AND_s P_s.
///  1. Brackets. P(max) = AND_s P_s(max) and P(1) = AND_s P_s(1), so the
///     saturation verdict and the choice between [1, max] and [0, 1] are
///     the serial ones.
///  2. In a bisection, mid lies in [lo, hi], lo never decreases and hi
///     never increases. If Q implies R pointwise, bisect(Q) <= bisect(R):
///     where their paths first part, Q(mid) is false and R(mid) true, so
///     Q ends at most at mid and R at least at mid. Hence bisect(P) <=
///     min_s bisect(P_s) = r*, reached by some state s*. Conversely, P
///     and P_{s*} take the same path: when P_{s*}(mid) is false so is P;
///     when it is true, r* >= mid, and a state s with P_s(mid) false is
///     false from mid on, so its result r_s >= r* >= mid is no point where
///     P_s holds and must be the initial lo, equal to mid. Then P's lo
///     stays at that initial lo for good, so bisect(P) = r_s >= r* >=
///     bisect(P).
///  3. A state safe at 1 is safe on all of [0, 1], and a state safe at max
///     on all of [1, max]; in that bracket its bisection is the always-true
///     one, which by 2 is >= every other result. Leaving such states out
///     of the minimum changes nothing.
void fold_margin(const std::vector<MarginState>& states,
                 const WhatIfParams& params, WhatIfReport& report) {
  const bool saturated =
      std::all_of(states.begin(), states.end(),
                  [](const MarginState& s) { return s.saturated; });
  if (saturated) {
    report.safe_growth_margin = params.margin_max;
    report.margin_saturated = true;
    return;
  }
  const bool below_one =
      std::any_of(states.begin(), states.end(),
                  [](const MarginState& s) { return !s.safe_at_one; });
  double margin = params.margin_max;
  for (const MarginState& s : states) {
    if (!s.saturated && s.safe_at_one != below_one) {
      margin = std::min(margin, s.margin);
    }
  }
  report.safe_growth_margin = margin;
  report.margin_saturated = false;
}

void validate_params(const WhatIfParams& params) {
  if (params.trajectories < 1) {
    throw std::invalid_argument("whatif: trajectories must be >= 1");
  }
  if (params.growth_min < -1.0 || params.growth_max < params.growth_min) {
    throw std::invalid_argument("whatif: bad growth range");
  }
  if (params.surges < 0 || params.forecast_errors < 0) {
    throw std::invalid_argument("whatif: event counts must be >= 0");
  }
  if (params.surge_factor_min <= 0.0 ||
      params.surge_factor_max < params.surge_factor_min) {
    throw std::invalid_argument("whatif: bad surge factor range");
  }
  if (params.bias_factor_min <= 0.0 ||
      params.bias_factor_max < params.bias_factor_min) {
    throw std::invalid_argument("whatif: bad bias factor range");
  }
  if (params.margin_iterations < 1 || params.margin_max < 1.0) {
    throw std::invalid_argument("whatif: bad margin search knobs");
  }
}

}  // namespace

WhatIfReport run_whatif(const CaseFactory& factory, const core::Plan& plan,
                        const WhatIfParams& params,
                        const std::atomic<bool>* stop) {
  validate_params(params);
  obs::Span sweep_span("whatif/sweep");
  obs::Registry::global().counter("whatif.runs").inc();

  const std::vector<core::Phase> phases = plan.phases();
  const int num_trajectories = params.trajectories;
  const int num_states = static_cast<int>(phases.size()) + 1;
  std::vector<TrajectoryOutcome> outcomes(
      static_cast<std::size_t>(num_trajectories));
  std::vector<MarginState> states(static_cast<std::size_t>(num_states));
  std::vector<std::string> labels(phases.size());

  // One pool claims every work item from a shared counter: the trajectory
  // chunks first, then the margin search's states (the origin and the
  // state after each phase). Results are stored by index; per-worker
  // state (case, checker stack, evaluator) is fully private, so the
  // report is a pure function of the seed.
  const util::ThreadBudget budget = util::split_thread_budget(
      params.threads, params.checker.router_threads,
      num_trajectories + num_states);
  pipeline::CheckerConfig worker_config = params.checker;
  worker_config.router_threads = budget.inner;
  // A chunk pays one BFS per phase move, so chunks are as large as load
  // balance allows: two per worker, with the margin states filling gaps.
  const int chunks_wanted = budget.outer > 1 ? 2 * budget.outer : 1;
  const int chunk = (num_trajectories + chunks_wanted - 1) / chunks_wanted;
  const int num_chunks = (num_trajectories + chunk - 1) / chunk;

  // A throwing item (e.g. volumes scaled out of the router's exact range)
  // stops further claims; items already claimed run to their end. Every
  // item below the lowest one that threw was claimed before it, so that
  // one is the exception a one-thread sweep raises, rethrown after the join.
  std::atomic<int> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;
  int error_item = 0;
  const auto worker = [&](bool record_labels) {
    int item = -1;  // the validator's construction
    try {
      Validator v(factory, worker_config);
      const migration::MigrationTask& task = v.mig.task;
      if (record_labels) {
        for (std::size_t p = 0; p < phases.size(); ++p) {
          labels[p] = task.action_types[static_cast<std::size_t>(
                                            phases[p].type)]
                          .label;
        }
      }
      const auto base =
          std::make_shared<const traffic::DemandSet>(task.demands);
      for (;;) {
        if (stop_requested(stop) || failed.load()) return;
        item = next.fetch_add(1);
        if (item < num_chunks) {
          run_chunk(params, item * chunk,
                    std::min(num_trajectories, (item + 1) * chunk), v, phases,
                    base, outcomes, stop);
        } else if (item < num_chunks + num_states) {
          const auto s = static_cast<std::size_t>(item - num_chunks);
          search_state(params, counts_after(task, phases, s), v, states[s],
                       stop);
        } else {
          return;
        }
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (error == nullptr || item < error_item) {
        error = std::current_exception();
        error_item = item;
      }
      failed.store(true);
    }
  };
  // The calling thread is worker 0.
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(budget.outer - 1));
  for (int i = 1; i < budget.outer; ++i) workers.emplace_back(worker, false);
  worker(true);
  for (std::thread& w : workers) w.join();
  if (error != nullptr) std::rethrow_exception(error);

  // Serial aggregation in index order: every fold over doubles happens in
  // the same sequence at any thread count.
  WhatIfReport report;
  report.trajectories = num_trajectories;
  report.seed = params.seed;
  report.break_histogram.assign(std::max<std::size_t>(phases.size(), 1), 0);
  const double theta = params.checker.demand.max_utilization;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    PhaseStats row;
    row.phase = static_cast<int>(p);
    row.action = labels[p];
    row.blocks = static_cast<int>(phases[p].block_indices.size());
    row.worst_utilization = 0.0;
    row.min_headroom = theta;
    report.phases.push_back(std::move(row));
  }
  for (const TrajectoryOutcome& t : outcomes) {
    if (!t.completed) {
      report.stopped = true;
      continue;
    }
    ++report.trajectories_run;
    for (std::size_t p = 0; p < t.phase_utilization.size(); ++p) {
      PhaseStats& row = report.phases[p];
      ++row.evaluated;
      const bool broke_here =
          !t.safe && t.first_break_phase == static_cast<int>(p);
      // An unroutable break reports utilization 0, which says nothing
      // about headroom; keep it out of the worst-case fold.
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
      report.trajectories_run > 0
          ? static_cast<double>(report.trajectories_run - report.unsafe) /
                static_cast<double>(report.trajectories_run)
          : 1.0;
  obs::Registry::global().counter("whatif.unsafe").inc(report.unsafe);
  if (report.unroutable > 0) {
    obs::Registry::global()
        .counter("whatif.unroutable")
        .inc(report.unroutable);
  }

  // A stopped sweep skips the margin: its states may be unfinished.
  for (const MarginState& s : states) {
    if (!s.completed) report.stopped = true;
  }
  if (!report.stopped) fold_margin(states, params, report);
  return report;
}

json::Value report_to_json(const WhatIfReport& report,
                           const WhatIfParams& params) {
  json::Object doc;
  doc["schema"] = "klotski.whatif.v1";
  doc["trajectories"] = report.trajectories;
  doc["trajectories_run"] = report.trajectories_run;
  doc["seed"] = static_cast<std::int64_t>(report.seed);
  if (report.stopped) doc["stopped"] = true;

  json::Object sampling;
  sampling["theta"] = params.checker.demand.max_utilization;
  sampling["growth_min"] = params.growth_min;
  sampling["growth_max"] = params.growth_max;
  sampling["surges"] = params.surges;
  sampling["forecast_errors"] = params.forecast_errors;
  sampling["surge_factor_min"] = params.surge_factor_min;
  sampling["surge_factor_max"] = params.surge_factor_max;
  sampling["bias_factor_min"] = params.bias_factor_min;
  sampling["bias_factor_max"] = params.bias_factor_max;
  doc["sampling"] = json::Value(std::move(sampling));

  doc["safe_fraction"] = report.safe_fraction;
  doc["unsafe"] = report.unsafe;
  doc["unroutable"] = report.unroutable;
  if (report.first_break_phase >= 0) {
    json::Object first_break;
    first_break["phase"] = report.first_break_phase;
    first_break["multiplier"] = report.first_break_multiplier;
    doc["first_break"] = json::Value(std::move(first_break));
  }
  json::Array histogram;
  for (std::size_t p = 0; p < report.break_histogram.size(); ++p) {
    if (report.break_histogram[p] == 0) continue;
    json::Object bin;
    bin["phase"] = static_cast<std::int64_t>(p);
    bin["count"] = static_cast<std::int64_t>(report.break_histogram[p]);
    histogram.push_back(json::Value(std::move(bin)));
  }
  doc["break_histogram"] = std::move(histogram);

  json::Array phase_rows;
  for (const PhaseStats& row : report.phases) {
    json::Object out;
    out["phase"] = row.phase;
    out["action"] = row.action;
    out["blocks"] = row.blocks;
    out["evaluated"] = static_cast<std::int64_t>(row.evaluated);
    out["unsafe"] = static_cast<std::int64_t>(row.unsafe);
    out["worst_utilization"] = row.worst_utilization;
    out["min_headroom"] = row.min_headroom;
    phase_rows.push_back(json::Value(std::move(out)));
  }
  doc["phases"] = std::move(phase_rows);

  doc["safe_growth_margin"] = report.safe_growth_margin;
  doc["margin_saturated"] = report.margin_saturated;
  return json::Value(std::move(doc));
}

std::string report_text(const WhatIfReport& report,
                        const WhatIfParams& params) {
  return json::dump(report_to_json(report, params), 2) + "\n";
}

}  // namespace klotski::whatif
