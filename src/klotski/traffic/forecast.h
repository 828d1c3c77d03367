// Demand forecasting (§7.1): migrations last weeks to months, so traffic
// grows organically during the plan and can spike unexpectedly (§7.2,
// "unexpected traffic surge"). The forecaster produces the demand set
// expected at a future migration step; the pipeline re-plans whenever the
// forecast moves enough to matter.
//
// Composition rule (load-bearing; do not "simplify"): overlapping windows
// compose multiplicatively, in a pinned operation order. at_step folds
// growth^step and every active surge factor into ONE per-demand factor
// (insertion order) and applies it with a single multiply; forecast_at_step
// takes that output and applies each active bias as its OWN multiply, in
// bias insertion order — ((value * b1) * b2), never value * (b1 * b2).
// Floating-point association is part of the contract: seeded chaos and
// what-if sweeps assert byte-identical trajectories, so refactoring the
// rounding sequence (e.g. folding biases into one factor) is a behavior
// change even though it is algebraically neutral. Zero-length windows
// (start_step == end_step) are valid and never active; [start, end) with
// end < start is rejected at add time.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "klotski/traffic/demand.h"

namespace klotski::traffic {

/// A temporary demand multiplier on one demand kind over [start, end) steps
/// — e.g. the warm-storage backup placement change from §7.2.
struct SurgeEvent {
  std::string name;
  DemandKind kind = DemandKind::kEgress;
  int start_step = 0;
  int end_step = 0;   // exclusive
  double factor = 1.0;
};

/// A forecast *error*: while active, the demand sets the forecaster hands to
/// the planner (forecast_at_step) over/under-estimate reality (at_step) by
/// `factor` on one demand kind. Models the §7.2 scenario where the plan was
/// made against a forecast that turned out wrong; consumers that validate
/// executed states must use at_step, which is always ground truth.
struct ForecastBias {
  std::string name;
  DemandKind kind = DemandKind::kEgress;
  int start_step = 0;
  int end_step = 0;   // exclusive
  double factor = 1.0;
};

class Forecaster {
 public:
  /// `growth_per_step` is compound organic growth per migration step
  /// (e.g. 0.002 for ~0.2% per step).
  Forecaster(DemandSet base, double growth_per_step);
  /// Shares `base` (never modified) instead of copying it, so many
  /// forecasters over one demand set cost one copy of it.
  Forecaster(std::shared_ptr<const DemandSet> base, double growth_per_step);

  void add_surge(SurgeEvent event);
  void add_bias(ForecastBias bias);

  /// Actual demand set at a migration step (step 0 == base). Ground truth:
  /// surges are real events and apply here; biases do not.
  DemandSet at_step(int step) const;

  /// What the forecasting pipeline *predicts* for `step`: at_step with the
  /// active ForecastBias factors applied sequentially in insertion order
  /// (see the composition rule above). Equal to at_step when no bias is
  /// active at that step.
  DemandSet forecast_at_step(int step) const;

  /// The volumes of forecast_at_step(step), one per base demand in order,
  /// written into `out` without copying the demand set; bit-equal to it.
  void forecast_volumes_at_step(int step, std::vector<double>& out) const;

  /// True when at least one bias is active at `step`, i.e. forecast_at_step
  /// and at_step disagree.
  bool biased_at(int step) const;

  /// Largest per-demand relative change between two steps; the pipeline
  /// re-plans when this exceeds its threshold.
  double max_relative_change(int from_step, int to_step) const;

  double growth_per_step() const { return growth_; }
  const DemandSet& base() const { return *base_; }

 private:
  /// at_step's factor for one demand: `growth` (growth^step) times every
  /// active surge factor, in insertion order.
  double actual_factor(const Demand& d, int step, double growth) const;
  /// forecast_at_step's volume of one demand from its at_step volume.
  double apply_biases(const Demand& d, int step, double volume) const;

  std::shared_ptr<const DemandSet> base_;
  double growth_;
  std::vector<SurgeEvent> surges_;
  std::vector<ForecastBias> biases_;
};

}  // namespace klotski::traffic
