#include "klotski/traffic/forecast.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace klotski::traffic {

Forecaster::Forecaster(DemandSet base, double growth_per_step)
    : Forecaster(std::make_shared<const DemandSet>(std::move(base)),
                 growth_per_step) {}

Forecaster::Forecaster(std::shared_ptr<const DemandSet> base,
                       double growth_per_step)
    : base_(std::move(base)), growth_(growth_per_step) {
  if (growth_ < -1.0) {
    throw std::invalid_argument("Forecaster: growth_per_step < -100%");
  }
}

void Forecaster::add_surge(SurgeEvent event) {
  if (event.end_step < event.start_step) {
    throw std::invalid_argument("Forecaster: surge ends before it starts");
  }
  surges_.push_back(std::move(event));
}

void Forecaster::add_bias(ForecastBias bias) {
  if (bias.end_step < bias.start_step) {
    throw std::invalid_argument("Forecaster: bias ends before it starts");
  }
  if (bias.factor <= 0.0) {
    throw std::invalid_argument("Forecaster: bias factor must be positive");
  }
  biases_.push_back(std::move(bias));
}

double Forecaster::actual_factor(const Demand& d, int step,
                                 double growth) const {
  double factor = growth;
  for (const SurgeEvent& surge : surges_) {
    if (d.kind == surge.kind && step >= surge.start_step &&
        step < surge.end_step) {
      factor *= surge.factor;
    }
  }
  return factor;
}

double Forecaster::apply_biases(const Demand& d, int step,
                                double volume) const {
  for (const ForecastBias& bias : biases_) {
    if (d.kind == bias.kind && step >= bias.start_step &&
        step < bias.end_step) {
      volume *= bias.factor;
    }
  }
  return volume;
}

DemandSet Forecaster::at_step(int step) const {
  DemandSet out = *base_;
  const double growth = std::pow(1.0 + growth_, step);
  for (Demand& d : out) d.volume_tbps *= actual_factor(d, step, growth);
  return out;
}

DemandSet Forecaster::forecast_at_step(int step) const {
  DemandSet out = at_step(step);
  for (Demand& d : out) d.volume_tbps = apply_biases(d, step, d.volume_tbps);
  return out;
}

void Forecaster::forecast_volumes_at_step(int step,
                                          std::vector<double>& out) const {
  const double growth = std::pow(1.0 + growth_, step);
  out.resize(base_->size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Demand& d = (*base_)[i];
    out[i] = apply_biases(
        d, step, d.volume_tbps * actual_factor(d, step, growth));
  }
}

bool Forecaster::biased_at(int step) const {
  for (const ForecastBias& bias : biases_) {
    if (step >= bias.start_step && step < bias.end_step &&
        bias.factor != 1.0) {
      return true;
    }
  }
  return false;
}

double Forecaster::max_relative_change(int from_step, int to_step) const {
  const DemandSet a = at_step(from_step);
  const DemandSet b = at_step(to_step);
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].volume_tbps <= 0.0) continue;
    const double change =
        std::abs(b[i].volume_tbps - a[i].volume_tbps) / a[i].volume_tbps;
    worst = std::max(worst, change);
  }
  return worst;
}

}  // namespace klotski::traffic
