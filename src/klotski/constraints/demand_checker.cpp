#include "klotski/constraints/demand_checker.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "klotski/obs/metrics.h"
#include "klotski/util/string_util.h"

namespace klotski::constraints {

DemandChecker::DemandChecker(traffic::EcmpRouter& router,
                             traffic::DemandSet demands,
                             DemandCheckerParams params)
    : router_(router), demands_(std::move(demands)), params_(params) {
  router_.bind_demands(demands_);
}

void DemandChecker::set_volumes(const std::vector<double>& volumes) {
  if (volumes.size() != demands_.size()) {
    throw std::invalid_argument("DemandChecker::set_volumes: " +
                                std::to_string(volumes.size()) +
                                " volumes for " +
                                std::to_string(demands_.size()) + " demands");
  }
  for (std::size_t i = 0; i < volumes.size(); ++i) {
    demands_[i].volume_tbps = volumes[i];
  }
  memo_valid_ = false;
  router_.rebind_volumes(demands_);
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

namespace {

constexpr double kUnloaded = -std::numeric_limits<double>::infinity();

/// A circuit's utilization from the larger of its directional loads;
/// kUnloaded when it carries nothing, so no block max ever reports it.
double utilization(const topo::Circuit& c, double load) {
  return load > 0.0 ? load / c.capacity_tbps : kUnloaded;
}

}  // namespace

Verdict DemandChecker::evaluate(const topo::Topology& topo) {
  last_max_utilization_ = 0.0;
  static obs::Counter& incremental_scans =
      obs::Registry::global().counter("checker.demand.incremental_scans");
  static obs::Counter& touched_scans =
      obs::Registry::global().counter("checker.demand.touched_scans");
  static obs::Counter& full_scans =
      obs::Registry::global().counter("checker.demand.full_scans");

  std::string failed_demand;
  const bool bound = router_.bound_to(demands_);
  bool routed = false;
  if (bound) {
    routed = router_.assign_bound(&failed_demand);
  } else {
    // Another checker rebound the router: route into a private vector.
    loads_.assign(topo.num_circuits() * 2, 0.0);
    routed = router_.assign_all(demands_, loads_, &failed_demand);
  }
  if (!routed) {
    synced_ = false;
    return Verdict::fail("demand " + failed_demand +
                         " has no path in this topology");
  }

  if (!bound) {
    synced_ = false;
    full_scans.inc();
    return scan(topo, nullptr, [&](topo::CircuitId c) {
      const auto slot = static_cast<std::size_t>(c) * 2;
      return std::max(loads_[slot], loads_[slot + 1]);
    });
  }
  if (params_.funneling_margin > 0.0) {
    synced_ = false;
    touched_scans.inc();
    return scan(topo, &router_.touched_circuits(),
                [&](topo::CircuitId c) { return router_.circuit_load(c); });
  }

  (sync_utils(topo) ? incremental_scans : touched_scans).inc();

  // The largest block max is the max over every loaded circuit. When it is
  // over theta, the first block over theta holds the lowest-id circuit over
  // theta: the first violation the ascending scan would report. Every
  // circuit before it is at most theta, so its utilization is also the
  // scan's running max at that point.
  const double theta = params_.max_utilization;
  const auto first_over = std::find_if(block_max_.begin(), block_max_.end(),
                                       [&](double m) { return m > theta; });
  if (first_over == block_max_.end()) {
    const auto peak = std::max_element(block_max_.begin(), block_max_.end());
    last_max_utilization_ =
        peak == block_max_.end() ? 0.0 : std::max(0.0, *peak);
    return Verdict::ok();
  }
  std::size_t c = static_cast<std::size_t>(first_over - block_max_.begin())
                  << kBlockShift;
  while (!(util_[c] > theta)) ++c;
  last_max_utilization_ = std::max(0.0, util_[c]);
  return over_theta(topo, topo.circuit(static_cast<topo::CircuitId>(c)),
                    util_[c]);
}

bool DemandChecker::sync_utils(const topo::Topology& topo) {
  const auto util_of = [&](topo::CircuitId id) {
    return utilization(topo.circuit(id), router_.circuit_load(id));
  };
  const bool incremental = synced_ &&
                           router_.totals_generation() ==
                               synced_generation_ + 1 &&
                           !router_.totals_rebuilt() &&
                           util_.size() == topo.num_circuits();
  synced_ = true;
  synced_generation_ = router_.totals_generation();
  if (incremental) {
    // A block's max only needs a rescan when its max circuit went down.
    router_.for_each_changed_circuit([&](topo::CircuitId id) {
      const auto c = static_cast<std::size_t>(id);
      const double before = util_[c];
      const double after = util_of(id);
      util_[c] = after;
      double& block = block_max_[c >> kBlockShift];
      if (after >= block) {
        block = after;
      } else if (before == block &&
                 (stale_blocks_.empty() ||
                  stale_blocks_.back() != c >> kBlockShift)) {
        // Circuits come ascending, so one block's entries are adjacent.
        stale_blocks_.push_back(static_cast<std::uint32_t>(c >> kBlockShift));
      }
    });
    for (const std::uint32_t b : stale_blocks_) rescan_block(b);
    stale_blocks_.clear();
    return true;
  }
  util_.assign(topo.num_circuits(), kUnloaded);
  router_.for_each_loaded_circuit([&](topo::CircuitId id) {
    util_[static_cast<std::size_t>(id)] = util_of(id);
  });
  block_max_.resize((util_.size() + kBlockSize - 1) >> kBlockShift);
  for (std::size_t b = 0; b < block_max_.size(); ++b) rescan_block(b);
  return false;
}

void DemandChecker::rescan_block(std::size_t b) {
  const std::size_t begin = b << kBlockShift;
  const std::size_t end = std::min(begin + kBlockSize, util_.size());
  block_max_[b] = *std::max_element(util_.begin() + static_cast<std::ptrdiff_t>(begin),
                                    util_.begin() + static_cast<std::ptrdiff_t>(end));
}

template <typename LoadFn>
Verdict DemandChecker::scan(const topo::Topology& topo,
                            const std::vector<topo::CircuitId>* circuits,
                            LoadFn load) {
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

  // `circuits`, when given, is ascending and covers every loaded circuit,
  // so visiting only those reports the same first over-theta circuit.
  const std::size_t count =
      circuits != nullptr ? circuits->size() : topo.num_circuits();
  for (std::size_t i = 0; i < count; ++i) {
    const topo::Circuit& c = topo.circuit(
        circuits != nullptr ? (*circuits)[i] : static_cast<topo::CircuitId>(i));
    double util = utilization(c, load(c.id));
    if (util == kUnloaded) continue;
    if (params_.funneling_margin > 0.0 &&
        (funneled_[static_cast<std::size_t>(c.a)] ||
         funneled_[static_cast<std::size_t>(c.b)])) {
      util *= 1.0 + params_.funneling_margin;
    }
    last_max_utilization_ = std::max(last_max_utilization_, util);
    if (util > params_.max_utilization) return over_theta(topo, c, util);
  }
  return Verdict::ok();
}

Verdict DemandChecker::over_theta(const topo::Topology& topo,
                                  const topo::Circuit& c, double util) const {
  return Verdict::fail(
      "circuit " + std::to_string(c.id) + " (" + topo.sw(c.a).name + " - " +
      topo.sw(c.b).name + ") at " + util::format_double(util * 100.0, 1) +
      "% > theta " + util::format_double(params_.max_utilization * 100.0, 1) +
      "%");
}

}  // namespace klotski::constraints
