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
// demand set changes. The utilization scan walks the router's ascending
// touched-circuit list when it is valid (only circuits actually carrying
// bound load), falling back to every circuit otherwise — verdicts are
// identical either way, including which violation is reported first.
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

  traffic::EcmpRouter& router_;
  traffic::DemandSet demands_;
  DemandCheckerParams params_;
  traffic::LoadVector loads_;           // scratch
  /// Circuits holding load in loads_ after the last successful bound
  /// assignment (the next check zeroes only these); invalid otherwise.
  std::vector<topo::CircuitId> loads_dirty_;
  bool loads_dirty_valid_ = false;
  std::vector<std::uint8_t> funneled_;  // scratch (per-switch)
  double last_max_utilization_ = 0.0;

  // Last verdict, keyed on (topology identity, state version). Sound by the
  // purity contract in checker.h.
  bool memo_valid_ = false;
  const topo::Topology* memo_topo_ = nullptr;
  std::uint64_t memo_version_ = 0;
  Verdict memo_verdict_;
  double memo_util_ = 0.0;
};

}  // namespace klotski::constraints
