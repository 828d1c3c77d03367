#include "klotski/constraints/demand_checker.h"

#include <algorithm>

#include "klotski/obs/metrics.h"
#include "klotski/util/string_util.h"

namespace klotski::constraints {

DemandChecker::DemandChecker(traffic::EcmpRouter& router,
                             traffic::DemandSet demands,
                             DemandCheckerParams params)
    : router_(router), demands_(std::move(demands)), params_(params) {
  router_.bind_demands(demands_);
}

Verdict DemandChecker::check(const topo::Topology& topo) {
  if (memo_valid_ && memo_topo_ == &topo &&
      memo_version_ == topo.state_version()) {
    static obs::Counter& memo_hits =
        obs::Registry::global().counter("checker.demand.memo_hits");
    memo_hits.inc();
    last_max_utilization_ = memo_util_;
    return memo_verdict_;
  }
  Verdict verdict = evaluate(topo);
  memo_valid_ = true;
  memo_topo_ = &topo;
  memo_version_ = topo.state_version();
  memo_verdict_ = verdict;
  memo_util_ = last_max_utilization_;
  return verdict;
}

Verdict DemandChecker::evaluate(const topo::Topology& topo) {
  // Zero the load vector. After a successful bound assignment only the
  // circuits it touched hold load, so clearing those is enough; any other
  // previous outcome (or a resized topology) clears all 2|C| slots.
  if (loads_dirty_valid_ && loads_.size() == topo.num_circuits() * 2) {
    for (const topo::CircuitId c : loads_dirty_) {
      loads_[static_cast<std::size_t>(c) * 2] = 0.0;
      loads_[static_cast<std::size_t>(c) * 2 + 1] = 0.0;
    }
  } else {
    loads_.assign(topo.num_circuits() * 2, 0.0);
  }
  loads_dirty_valid_ = false;
  last_max_utilization_ = 0.0;

  std::string failed_demand;
  if (!router_.assign_all(demands_, loads_, &failed_demand)) {
    return Verdict::fail("demand " + failed_demand +
                         " has no path in this topology");
  }
  if (router_.touched_valid()) {
    loads_dirty_ = router_.touched_circuits();
    loads_dirty_valid_ = true;
  }

  // Funneling inflation: a circuit whose endpoint switch also terminates
  // drained or absent circuits absorbs the traffic its siblings shed during
  // the asynchronous drain transient.
  if (params_.funneling_margin > 0.0) {
    funneled_.assign(topo.num_switches(), 0);
    for (const topo::Circuit& c : topo.circuits()) {
      if (c.state != topo::ElementState::kActive) {
        if (c.a < static_cast<topo::SwitchId>(funneled_.size())) {
          funneled_[static_cast<std::size_t>(c.a)] = 1;
        }
        if (c.b < static_cast<topo::SwitchId>(funneled_.size())) {
          funneled_[static_cast<std::size_t>(c.b)] = 1;
        }
      }
    }
  }

  // Utilization scan. loads_ was zeroed above, so after a bound assign_all
  // the router's touched-circuit list (ascending ids) covers every circuit
  // with non-zero load — visiting only those is verdict-identical to the
  // full scan, including which over-theta circuit is reported first. Manual
  // or unbound load vectors fall back to scanning every circuit.
  static obs::Counter& touched_scans =
      obs::Registry::global().counter("checker.demand.touched_scans");
  static obs::Counter& full_scans =
      obs::Registry::global().counter("checker.demand.full_scans");
  const bool use_touched = router_.touched_valid();
  (use_touched ? touched_scans : full_scans).inc();
  const std::size_t scan_count =
      use_touched ? router_.touched_circuits().size() : topo.num_circuits();
  for (std::size_t i = 0; i < scan_count; ++i) {
    const topo::Circuit& c = topo.circuit(
        use_touched ? router_.touched_circuits()[i]
                    : static_cast<topo::CircuitId>(i));
    const double load = std::max(loads_[static_cast<std::size_t>(c.id) * 2],
                                 loads_[static_cast<std::size_t>(c.id) * 2 + 1]);
    if (load <= 0.0) continue;
    double util = load / c.capacity_tbps;
    if (params_.funneling_margin > 0.0 &&
        (funneled_[static_cast<std::size_t>(c.a)] ||
         funneled_[static_cast<std::size_t>(c.b)])) {
      util *= 1.0 + params_.funneling_margin;
    }
    last_max_utilization_ = std::max(last_max_utilization_, util);
    if (util > params_.max_utilization) {
      return Verdict::fail(
          "circuit " + std::to_string(c.id) + " (" + topo.sw(c.a).name +
          " - " + topo.sw(c.b).name + ") at " +
          util::format_double(util * 100.0, 1) + "% > theta " +
          util::format_double(params_.max_utilization * 100.0, 1) + "%");
    }
  }
  return Verdict::ok();
}

}  // namespace klotski::constraints
