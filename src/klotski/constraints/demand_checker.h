// Demand constraints (Eq. 4-5): every demand must have a path from source to
// target in the intermediate topology, and the utilization of every circuit
// — aggregated over all demands under ECMP — must stay below the bound
// theta, so the network can survive failures and absorb traffic spikes.
//
// The optional funneling margin models the transient congestion of §2.2 /
// §7.2: circuits adjacent to a switch that neighbors drained equipment see
// their load inflated by (1 + margin), approximating the window in which
// sibling circuits have drained but this one has not yet.
//
// The checker binds its demand set to the router (EcmpRouter::bind_demands)
// so repeated checks reuse per-target-set routing caches, and memoizes its
// last verdict keyed on the topology's state version: re-checking an
// unchanged topology is O(1). The memo is dropped whenever theta or the
// demand set changes. set_volumes swaps in new volumes over the same demands
// without dropping the router's routing, the what-if engine's hot path.
//
// The verdict is incremental too. The checker keeps every circuit's
// utilization, and the max of each block of 64 circuits, synced to the
// router's exact totals: after a bound assignment it re-reads only the
// circuits the router reports changed (rescanning a block only when its
// max went down), then finds the lowest-id circuit over theta in the first
// block over theta. The state holds utilizations, not verdicts, so a theta
// change needs no rescan. A router rebuild (first check, failure, rebind)
// rebuilds it from the loaded circuits; an unbound router, or a funneling
// margin, falls back to the plain scan. Verdicts, messages and
// last_max_utilization are identical on every path.
#pragma once

#include <cstdint>
#include <vector>

#include "klotski/constraints/checker.h"
#include "klotski/traffic/ecmp.h"

namespace klotski::constraints {

struct DemandCheckerParams {
  /// Maximum utilization rate theta (default 75%, §6.1).
  double max_utilization = 0.75;
  /// Funneling inflation for circuits incident to a switch that also has
  /// drained/absent circuits (0 disables).
  double funneling_margin = 0.0;
};

class DemandChecker : public Checker {
 public:
  /// The router must outlive the checker and be bound to the same topology
  /// object that check() will be called with. Construction (re)binds the
  /// demand set to the router; constructing another checker on the same
  /// router rebinds it, which stays correct but forfeits the routing cache
  /// for this checker's set.
  DemandChecker(traffic::EcmpRouter& router, traffic::DemandSet demands,
                DemandCheckerParams params = {});

  Verdict check(const topo::Topology& topo) override;
  std::string name() const override { return "demands"; }

  void set_demands(traffic::DemandSet demands) {
    demands_ = std::move(demands);
    router_.bind_demands(demands_);
    memo_valid_ = false;
  }
  /// Replaces only the demand volumes, one per demand in order: the router
  /// keeps its routing and the next check re-propagates the new volumes
  /// (EcmpRouter::rebind_volumes). Verdicts are exactly those of
  /// set_demands with the same set. Throws std::invalid_argument on a size
  /// mismatch, or when the volumes are out of the router's exact range.
  void set_volumes(const std::vector<double>& volumes);
  const traffic::DemandSet& demands() const { return demands_; }
  const DemandCheckerParams& params() const { return params_; }
  void set_max_utilization(double theta) {
    params_.max_utilization = theta;
    memo_valid_ = false;
  }

  /// Peak utilization seen by the most recent check (diagnostics).
  double last_max_utilization() const { return last_max_utilization_; }

 private:
  Verdict evaluate(const topo::Topology& topo);
  /// The plain scan in ascending circuit order: `circuits` (all of them
  /// when null), `load(c)` giving the larger of c's directional loads.
  template <typename LoadFn>
  Verdict scan(const topo::Topology& topo,
               const std::vector<topo::CircuitId>* circuits, LoadFn load);
  /// Brings util_ and block_max_ up to the router's current totals;
  /// returns false when that took a rebuild rather than an update.
  bool sync_utils(const topo::Topology& topo);
  void rescan_block(std::size_t b);
  Verdict over_theta(const topo::Topology& topo, const topo::Circuit& c,
                     double util) const;

  traffic::EcmpRouter& router_;
  traffic::DemandSet demands_;
  DemandCheckerParams params_;
  traffic::LoadVector loads_;           // unbound-router scratch only
  std::vector<std::uint8_t> funneled_;  // scratch (per-switch)
  double last_max_utilization_ = 0.0;

  /// Per-circuit utilization (-inf for an unloaded circuit) and the max of
  /// each block of kBlockSize consecutive circuits. Valid at router
  /// generation synced_generation_ when synced_.
  static constexpr std::size_t kBlockShift = 6;
  static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockShift;
  std::vector<double> util_;
  std::vector<double> block_max_;
  std::vector<std::uint32_t> stale_blocks_;  // sync scratch
  bool synced_ = false;
  std::uint64_t synced_generation_ = 0;

  // Last verdict, keyed on (topology identity, state version). Sound by the
  // purity contract in checker.h.
  bool memo_valid_ = false;
  const topo::Topology* memo_topo_ = nullptr;
  std::uint64_t memo_version_ = 0;
  Verdict memo_verdict_;
  double memo_util_ = 0.0;
};

}  // namespace klotski::constraints
