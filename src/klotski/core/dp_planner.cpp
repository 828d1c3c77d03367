#include "klotski/core/dp_planner.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "klotski/core/cost_model.h"
#include "klotski/core/parallel_evaluator.h"
#include "klotski/core/state_evaluator.h"
#include "klotski/obs/trace.h"
#include "klotski/util/timer.h"

namespace klotski::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A level's checks run in batches of at most this many states, so the
/// deadline is read between batches: a level of a full-scale lattice can
/// hold thousands of checks.
constexpr std::size_t kMaxBatchStates = 512;

/// The first state of a level in flat order (component 0 least
/// significant): the level's total packed into the lowest components.
void first_in_level(std::int32_t level, const CountVector& target,
                    CountVector& counts) {
  for (std::size_t a = 0; a < counts.size(); ++a) {
    counts[a] = std::min(level, target[a]);
    level -= counts[a];
  }
}

/// Steps `counts` to the next state of its level in flat order; returns
/// false after the last one. The next larger mixed-radix number with the
/// same digit sum raises the lowest digit that has room and has some mass
/// below it, then packs the remaining lower mass as low as possible.
bool next_in_level(const CountVector& target, CountVector& counts) {
  std::int32_t below = 0;
  for (std::size_t a = 0; a < counts.size(); ++a) {
    if (below > 0 && counts[a] < target[a]) {
      ++counts[a];
      std::int32_t rest = below - 1;
      for (std::size_t b = 0; b < a; ++b) {
        counts[b] = std::min(rest, target[b]);
        rest -= counts[b];
      }
      return true;
    }
    below += counts[a];
  }
  return false;
}

}  // namespace

Plan DpPlanner::plan(migration::MigrationTask& task,
                     constraints::CompositeChecker& checker,
                     const PlannerOptions& options) {
  util::Stopwatch stopwatch;
  obs::Span span("plan/dp");
  const util::Deadline deadline =
      options.deadline_seconds > 0.0
          ? util::Deadline::after_seconds(options.deadline_seconds)
          : util::Deadline::unlimited();

  Plan plan;
  plan.planner = name();

  StateEvaluator evaluator(task, checker, options.use_satisfiability_cache);
  const CountVector& target = evaluator.target();
  const auto num_types = static_cast<std::int32_t>(target.size());
  const CostModel cost(options.alpha, options.type_weights);

  // Warm start: adopt the shared verdict cache before the first evaluation
  // (the DP sweep visits every lattice cell regardless, so the arena-seed
  // half of WarmStart does not apply — only the carried verdicts do).
  if (options.warm != nullptr && options.use_satisfiability_cache &&
      options.warm->sat_cache != nullptr) {
    plan.provenance.sat_carried =
        static_cast<long long>(options.warm->sat_cache->size());
    // An empty shared cache is a harvest vehicle, not a warm start.
    if (plan.provenance.sat_carried > 0) plan.provenance.warm_start = true;
    evaluator.adopt_cache(options.warm->sat_cache);
  }

  // The DP table is dense and pre-sized, so the memory budget only governs
  // the satisfiability cache here; the A* planner owns open-list eviction.
  plan.provenance.mem_budget_mb = options.mem_budget_mb;
  if (options.sat_cache_max_entries > 0) {
    evaluator.set_cache_capacity(options.sat_cache_max_entries);
  } else if (options.mem_budget_mb > 0.0) {
    const auto budget_bytes = static_cast<std::size_t>(
        options.mem_budget_mb * 1024.0 * 1024.0);
    evaluator.set_cache_capacity(std::max<std::size_t>(
        1024, budget_bytes / (8 * (sizeof(std::int32_t) *
                                       static_cast<std::size_t>(num_types) +
                                   16))));
  }

  auto finish = [&](Plan&& p) {
    task.reset_to_original();
    p.stats.sat_checks = evaluator.sat_checks();
    p.stats.cache_hits = evaluator.cache_hits();
    p.stats.evaluations = evaluator.evaluations();
    p.stats.delta_applies = evaluator.delta_applies();
    p.stats.full_replays = evaluator.full_replays();
    p.stats.wall_seconds = stopwatch.elapsed_seconds();
    publish_planner_metrics(name(), p.stats, &p.provenance);
    return std::move(p);
  };

  // Boundary semantics (Eq. 4-6): constraints hold at the original state,
  // at every action-type change, and at the target.
  const CountVector origin(static_cast<std::size_t>(num_types), 0);
  if (!evaluator.feasible(origin)) {
    plan.failure = "original topology violates constraints";
    return finish(std::move(plan));
  }
  if (origin == target) {
    plan.found = true;
    return finish(std::move(plan));
  }
  if (!evaluator.feasible(target)) {
    plan.failure = "target topology violates constraints";
    return finish(std::move(plan));
  }

  // Mixed-radix layout: flat index = sum(v_i * stride_i).
  // Unlike A*, the DP table is dense (num_states * |A| doubles), so cap the
  // state count to keep the table within a few hundred MB.
  const long long state_limit =
      std::min<long long>(options.max_states, 20'000'000);
  std::vector<long long> strides(static_cast<std::size_t>(num_types));
  long long num_states = 1;
  for (std::int32_t a = 0; a < num_types; ++a) {
    strides[static_cast<std::size_t>(a)] = num_states;
    num_states *= target[static_cast<std::size_t>(a)] + 1;
    if (num_states > state_limit) {
      plan.failure = "state space too large";
      return finish(std::move(plan));
    }
  }

  // f and the backtracking array g (Algorithm 1); parent = last action type
  // of the optimal predecessor, -2 = unset, -1 = the origin. A state is
  // *traversable* even when its topology violates constraints — it may sit
  // in the middle of a parallel same-type run — but an action-type change
  // may only happen at a state whose topology is safe.
  std::vector<double> f(static_cast<std::size_t>(num_states * num_types),
                        kInf);
  std::vector<std::int8_t> parent(
      static_cast<std::size_t>(num_states * num_types), -2);
  // 0 = infeasible, 1 = feasible, 2 = not yet evaluated.
  std::vector<std::uint8_t> safe(static_cast<std::size_t>(num_states), 2);
  safe[0] = 1;  // the origin was checked above

  // Level-ordered sweep. Level L holds the states with sum(V) == L; every
  // predecessor V - e_a of a level-L state sits on level L - 1, so once
  // level L - 1 is final, the predecessors level L will ask about are known
  // up front: a type change after P needs P safe, so P is checked when it
  // is not the origin and some finite-cost entry f(P, a') exists with
  // a' != a for an action a that leads from P into the lattice; the sweep
  // checks no other state. Each level evaluates them in ascending flat
  // order, in batches of up to kMaxBatchStates (worker w takes a contiguous
  // chunk, so its router sees neighbouring states), then fills the level's
  // f/parent entries, which read only level L - 1 and so do not depend on
  // the order within the level. Verdicts, sat-check counts and the plan are
  // therefore identical at every thread count.
  ParallelEvaluator batch_eval(evaluator, options.checker_factory,
                               options.num_threads);
  StateBatch batch(static_cast<std::size_t>(num_types));
  std::vector<long long> batch_pidx;
  const auto flat_index = [&](const CountVector& v) {
    long long idx = 0;
    for (std::size_t a = 0; a < v.size(); ++a) idx += v[a] * strides[a];
    return idx;
  };
  // Whether some type change out of P (see above) will consult its safety.
  const auto needs_check = [&](const CountVector& p, long long pidx) {
    for (std::int32_t a = 0; a < num_types; ++a) {
      const auto ai = static_cast<std::size_t>(a);
      if (p[ai] == target[ai]) continue;
      for (std::int32_t ap = 0; ap < num_types; ++ap) {
        if (ap != a &&
            f[static_cast<std::size_t>(pidx * num_types + ap)] != kInf) {
          return true;
        }
      }
    }
    return false;
  };

  std::int32_t top_level = 0;
  for (const std::int32_t t : target) top_level += t;
  CountVector counts(static_cast<std::size_t>(num_types), 0);
  for (std::int32_t level = 1; level <= top_level; ++level) {
    // Predecessor checks: level 1's only predecessor is the origin.
    bool more = level >= 2;
    if (more) first_in_level(level - 1, target, counts);
    while (more) {
      if (deadline.expired()) {
        plan.failure = "timeout";
        return finish(std::move(plan));
      }
      batch.clear();
      batch_pidx.clear();
      do {
        const long long pidx = flat_index(counts);
        if (needs_check(counts, pidx)) {
          batch.push(counts.data(), StateHasher::hash(counts));
          batch_pidx.push_back(pidx);
        }
        more = next_in_level(target, counts);
      } while (more && batch.size() < kMaxBatchStates);
      if (batch.empty()) continue;
      const auto& verdicts = batch_eval.evaluate_batch(batch);
      for (std::size_t k = 0; k < batch_pidx.size(); ++k) {
        safe[static_cast<std::size_t>(batch_pidx[k])] = verdicts[k] ? 1 : 0;
      }
    }

    first_in_level(level, target, counts);
    do {
      if ((plan.stats.visited_states & 127) == 127 && deadline.expired()) {
        plan.failure = "timeout";
        return finish(std::move(plan));
      }
      ++plan.stats.visited_states;
      const long long idx = flat_index(counts);

      for (std::int32_t a = 0; a < num_types; ++a) {
        if (counts[static_cast<std::size_t>(a)] == 0) continue;
        const long long pidx = idx - strides[static_cast<std::size_t>(a)];
        ++plan.stats.generated_states;

        double best = kInf;
        std::int8_t best_parent = -2;
        if (pidx == 0) {
          // Predecessor is the origin (safe); the first action costs 1.
          best = cost.transition_cost(-1, a);
          best_parent = -1;
        } else {
          for (std::int32_t ap = 0; ap < num_types; ++ap) {
            const double pf =
                f[static_cast<std::size_t>(pidx * num_types + ap)];
            if (pf == kInf) continue;
            // Type change: the predecessor topology must be safe (the
            // level batch above evaluated every such predecessor).
            if (ap != a && safe[static_cast<std::size_t>(pidx)] != 1) continue;
            const double candidate = pf + cost.transition_cost(ap, a);
            if (candidate < best) {
              best = candidate;
              best_parent = static_cast<std::int8_t>(ap);
            }
          }
        }
        if (best < kInf) {
          f[static_cast<std::size_t>(idx * num_types + a)] = best;
          parent[static_cast<std::size_t>(idx * num_types + a)] = best_parent;
        }
      }
    } while (next_in_level(target, counts));
  }

  // Goal: cheapest f(target, a); the target topology itself was verified
  // safe above.
  const long long tidx = num_states - 1;
  std::int32_t best_last = -1;
  double best_cost = kInf;
  for (std::int32_t a = 0; a < num_types; ++a) {
    const double c = f[static_cast<std::size_t>(tidx * num_types + a)];
    if (c < best_cost) {
      best_cost = c;
      best_last = a;
    }
  }
  if (best_last == -1) {
    plan.failure = "no feasible action sequence exists";
    return finish(std::move(plan));
  }

  plan.found = true;
  plan.cost = best_cost;

  // Rebuild the action sequence backwards via the parent array.
  CountVector cursor = target;
  long long idx = tidx;
  std::int32_t last = best_last;
  std::vector<PlannedAction> reversed;
  while (idx != 0) {
    reversed.push_back(
        PlannedAction{last, cursor[static_cast<std::size_t>(last)] - 1});
    const std::int8_t prev =
        parent[static_cast<std::size_t>(idx * num_types + last)];
    idx -= strides[static_cast<std::size_t>(last)];
    --cursor[static_cast<std::size_t>(last)];
    last = prev;  // -1 when we have just consumed the first action
  }
  plan.actions.assign(reversed.rbegin(), reversed.rend());
  return finish(std::move(plan));
}

}  // namespace klotski::core
