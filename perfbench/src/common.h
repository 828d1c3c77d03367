// Shared pieces of the end-to-end benchmark: the run's options, the result
// record every workload fills, sample statistics, process probes, and the
// constraint-checker decorator that gives the per-layer split from outside
// the program.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "klotski/constraints/checker.h"
#include "klotski/constraints/composite.h"
#include "klotski/core/planner.h"
#include "klotski/json/json.h"
#include "klotski/migration/task.h"
#include "klotski/pipeline/edp.h"
#include "klotski/traffic/ecmp.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: the untraced pass only (end-to-end metrics). true: the untraced
  /// pass, then the traced pass (per-layer metrics and tracing overhead).
  bool trace = false;
  /// klotski_served binary (serve-mix).
  std::string served;
  /// Scratch directory inside the checkout for daemon endpoint files/logs.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The metrics of BENCHMARK.json, by name and unit. Every workload reports
/// every one of them, each measured on its own work (README "Metrics");
/// main() refuses to print a result line that differs from these lists.
struct MetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricSpec> kEndToEndSpec;
extern const std::vector<MetricSpec> kPerLayerSpec;

/// What one workload run reports. Operations are counted per workload:
/// a plan case, a served request, a chaos seed or a whatif sweep.
class Outcome {
 public:
  void end_to_end(const std::string& name, double value,
                  const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  /// A workload-specific figure: printed in the report, not in the result
  /// line (whose metrics every workload shares).
  void detail(const std::string& name, double value, const std::string& unit);

  /// A correctness gate; a false `ok` marks the whole run incorrect.
  void gate(bool ok, const std::string& what);
  /// One operation: attempted, and failed unless `ok`.
  void operation(bool ok, const std::string& what);

  bool correct() const { return errors_.empty(); }
  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  const std::vector<Metric>& end_to_end_metrics() const { return e2e_; }
  const std::vector<Metric>& layer_metrics() const { return layers_; }
  const std::vector<Metric>& details() const { return details_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> layers_;
  std::vector<Metric> details_;
  std::vector<std::string> errors_;
  long long attempted_ = 0;
  long long failed_ = 0;
};

/// Sample statistics. quantile() interpolates linearly between order
/// statistics; both return 0 for an empty sample.
double median(std::vector<double> values);
double quantile(std::vector<double> values, double q);

/// Fields of /proc/<pid>/status in the file's own unit (kB for Vm*),
/// or -1 when unreadable. pid 0 reads this process.
long long proc_status_field(int pid, const std::string& field);

/// A plan's exported JSON with stats.wall_seconds zeroed: the bytes every
/// determinism gate compares (wall time is the one field that may differ).
std::string without_wall(klotski::json::Value plan_doc);

/// Busy time and call count of one constraint layer, shared by every
/// decorator that feeds it (ParallelEvaluator workers included).
struct LayerClock {
  std::atomic<long long> checks{0};
  std::atomic<long long> nanos{0};

  double seconds() const { return static_cast<double>(nanos.load()) * 1e-9; }
};

/// Decorator: forwards to the wrapped checker and charges its wall time to
/// a LayerClock. Verdicts pass through untouched.
class TimedChecker : public klotski::constraints::Checker {
 public:
  TimedChecker(klotski::constraints::CheckerPtr inner, LayerClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  klotski::constraints::Verdict check(
      const klotski::topo::Topology& topo) override;
  std::string name() const override { return inner_->name(); }

 private:
  klotski::constraints::CheckerPtr inner_;
  LayerClock& clock_;
};

/// The standard constraint stack (ports, then demands over an ECMP router)
/// with each checker wrapped in a TimedChecker. Mirrors
/// pipeline::make_standard_checker for the default checker config.
struct TimedStack {
  std::unique_ptr<klotski::traffic::EcmpRouter> router;
  std::unique_ptr<klotski::constraints::CompositeChecker> checker;
};

TimedStack make_timed_stack(klotski::migration::MigrationTask& task,
                            const klotski::pipeline::CheckerConfig& config,
                            LayerClock& port, LayerClock& demand);

/// Factory form for PlannerOptions::checker_factory (worker-private stacks
/// that charge the same clocks).
klotski::core::CheckerFactory make_timed_factory(
    const klotski::pipeline::CheckerConfig& config, LayerClock& port,
    LayerClock& demand);

/// The planner options pipeline::run_pipeline would use: with
/// num_threads > 1 the workers get private stacks whose router budget is
/// split from the (default, 1-thread) intra-check budget. With clocks, the
/// worker stacks are TimedStacks charging them.
klotski::core::PlannerOptions planner_options(
    int threads, const klotski::pipeline::CheckerConfig& config,
    LayerClock* port = nullptr, LayerClock* demand = nullptr);

/// The planning layers of plans the benchmark makes itself: plan, checker,
/// audit and export time, summed over the plans.
struct PlanSplit {
  int plans = 0;
  double plan_s = 0.0, audit_s = 0.0, export_s = 0.0;
  LayerClock port, demand;

  void add(const PlanSplit& other);
};

/// One plan, audited with an independent standard stack and exported as
/// klotski_plan does after planning. An unaudited plan counts as not found.
struct CasePlan {
  klotski::core::Plan plan;
  double plan_s = 0.0, audit_s = 0.0, export_s = 0.0;
  std::string bytes;  // exported plan, wall time zeroed
};

/// Plans `task` on the standard stack (`split` null) or on a TimedStack
/// whose clocks, and the plan, audit and export times, go to `split`.
CasePlan plan_case(klotski::migration::MigrationTask& task,
                   const std::string& planner, int threads,
                   PlanSplit* split = nullptr);

/// The obs counters and planner spans of a traced pass, read from a
/// Registry::to_json() document and a Tracer::to_json() document: the
/// in-process ones, or the files klotski_served --metrics-out/--trace-out
/// writes.
struct ObsTotals {
  long long planner_runs = 0, states_expanded = 0, evaluations = 0;
  long long sat_hits = 0, sat_misses = 0;
  long long group_recomputes = 0, group_reuses = 0, checks = 0;
  std::vector<double> plan_ms;  // plan/astar and plan/dp spans

  static ObsTotals from(const klotski::json::Value& metrics,
                        const klotski::json::Value& trace);
  void add(const ObsTotals& other);
  /// The global registry and tracer of this process.
  static ObsTotals global();
};

/// The per-layer metrics every workload shares (kPerLayerSpec). `units` is
/// how many work units the traced pass ran; `build_ms` and `router_init_ms`
/// are per built case; `overhead_s` is the traced minus the untraced work
/// unit time.
void report_shared_layers(Outcome& out, const PlanSplit& split,
                          const ObsTotals& obs, double units, double build_ms,
                          double router_init_ms, double overhead_s);

void run_plan_full(const Options& options, Outcome& out);
void run_serve_mix(const Options& options, Outcome& out);
void run_robustness(const Options& options, Outcome& out);

}  // namespace perfbench
