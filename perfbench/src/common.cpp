#include "common.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "klotski/constraints/demand_checker.h"
#include "klotski/constraints/port_checker.h"
#include "klotski/constraints/space_power_checker.h"
#include "klotski/obs/metrics.h"
#include "klotski/obs/trace.h"
#include "klotski/pipeline/audit.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/pipeline/plan_export.h"
#include "klotski/util/thread_budget.h"

namespace perfbench {

using namespace klotski;

const std::vector<MetricSpec> kEndToEndSpec = {
    {"setup_s", "s"},
    {"work_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayerSpec = {
    {"core.plan_ms_p50", "ms"},
    {"core.states_expanded", "count"},
    {"core.evaluations", "count"},
    {"core.sat_cache_hit_ratio", "ratio"},
    {"core.self_share", "ratio"},
    {"constraints.checks_per_unit", "count"},
    {"constraints.demand.share", "ratio"},
    {"constraints.demand.ms_per_check", "ms"},
    {"constraints.port.share", "ratio"},
    {"constraints.port.ms_per_check", "ms"},
    {"traffic.group_recomputes_per_unit", "count"},
    {"traffic.group_reuse_ratio", "ratio"},
    {"traffic.router_init_ms", "ms"},
    {"pipeline.build_ms", "ms"},
    {"pipeline.audit_ms", "ms"},
    {"json.export_ms", "ms"},
    {"trace.overhead_s", "s"},
};

void Outcome::end_to_end(const std::string& name, double value,
                         const std::string& unit) {
  e2e_.push_back({name, value, unit});
}

void Outcome::layer(const std::string& name, double value,
                    const std::string& unit) {
  layers_.push_back({name, value, unit});
}

void Outcome::detail(const std::string& name, double value,
                     const std::string& unit) {
  details_.push_back({name, value, unit});
}

void Outcome::gate(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

void Outcome::operation(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    errors_.push_back("operation failed: " + what);
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

long long proc_status_field(int pid, const std::string& field) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size() + 1, field + ":") != 0) continue;
    std::istringstream rest(line.substr(field.size() + 1));
    long long value = -1;
    rest >> value;
    return value;
  }
  return -1;
}

std::string without_wall(json::Value plan_doc) {
  if (json::Value* stats = plan_doc.as_object().find("stats")) {
    stats->as_object()["wall_seconds"] = 0.0;
  }
  return json::dump(plan_doc, 2) + "\n";
}

constraints::Verdict TimedChecker::check(const topo::Topology& topo) {
  const Clock::time_point start = Clock::now();
  constraints::Verdict verdict = inner_->check(topo);
  clock_.nanos.fetch_add(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count(),
      std::memory_order_relaxed);
  clock_.checks.fetch_add(1, std::memory_order_relaxed);
  return verdict;
}

TimedStack make_timed_stack(migration::MigrationTask& task,
                            const pipeline::CheckerConfig& config,
                            LayerClock& port, LayerClock& demand) {
  TimedStack stack;
  stack.router = std::make_unique<traffic::EcmpRouter>(*task.topo,
                                                       config.routing);
  stack.router->set_num_workers(config.router_threads);
  stack.checker = std::make_unique<constraints::CompositeChecker>();
  stack.checker->add(std::make_unique<TimedChecker>(
      std::make_unique<constraints::PortChecker>(), port));
  if (config.space_power.max_present_per_grid > 0 ||
      config.space_power.max_present_per_plane > 0) {
    stack.checker->add(
        std::make_unique<constraints::SpacePowerChecker>(config.space_power));
  }
  stack.checker->add(std::make_unique<TimedChecker>(
      std::make_unique<constraints::DemandChecker>(*stack.router, task.demands,
                                                   config.demand),
      demand));
  return stack;
}

core::CheckerFactory make_timed_factory(const pipeline::CheckerConfig& config,
                                        LayerClock& port, LayerClock& demand) {
  return [config, &port, &demand](migration::MigrationTask& task) {
    auto stack = std::make_shared<TimedStack>(
        make_timed_stack(task, config, port, demand));
    return std::shared_ptr<constraints::CompositeChecker>(stack,
                                                          stack->checker.get());
  };
}

core::PlannerOptions planner_options(int threads,
                                     const pipeline::CheckerConfig& config,
                                     LayerClock* port, LayerClock* demand) {
  core::PlannerOptions options;
  options.num_threads = threads;
  if (threads > 1) {
    pipeline::CheckerConfig worker = config;
    worker.router_threads =
        util::split_thread_budget(threads, config.router_threads).inner;
    options.checker_factory =
        port != nullptr ? make_timed_factory(worker, *port, *demand)
                        : pipeline::make_standard_checker_factory(worker);
  }
  return options;
}

void PlanSplit::add(const PlanSplit& other) {
  plans += other.plans;
  plan_s += other.plan_s;
  audit_s += other.audit_s;
  export_s += other.export_s;
  for (auto [into, from] : {std::pair{&port, &other.port},
                            std::pair{&demand, &other.demand}}) {
    into->checks += from->checks.load();
    into->nanos += from->nanos.load();
  }
}

CasePlan plan_case(migration::MigrationTask& task, const std::string& planner,
                   int threads, PlanSplit* split) {
  const pipeline::CheckerConfig config;
  LayerClock* port = split != nullptr ? &split->port : nullptr;
  LayerClock* demand = split != nullptr ? &split->demand : nullptr;
  pipeline::CheckerBundle bundle;
  TimedStack stack;
  constraints::CompositeChecker* checker = nullptr;
  if (split != nullptr) {
    stack = make_timed_stack(task, config, *port, *demand);
    checker = stack.checker.get();
  } else {
    bundle = pipeline::make_standard_checker(task, config);
    checker = bundle.checker.get();
  }
  const core::PlannerOptions options =
      planner_options(threads, config, port, demand);
  auto impl = pipeline::make_planner(planner);

  CasePlan run;
  Clock::time_point start = Clock::now();
  run.plan = impl->plan(task, *checker, options);
  run.plan_s = seconds_since(start);

  start = Clock::now();
  pipeline::CheckerBundle audit_bundle = pipeline::make_standard_checker(task);
  const bool audited =
      run.plan.found &&
      pipeline::audit_plan(task, *audit_bundle.checker, run.plan).ok;
  run.audit_s = seconds_since(start);
  if (!audited) run.plan.found = false;

  // Export is timed as klotski_plan pays it: the document and its text.
  start = Clock::now();
  json::Value doc = pipeline::plan_to_json(task, run.plan);
  const std::string text = json::dump(doc, 2);
  run.export_s = seconds_since(start);
  run.bytes = without_wall(std::move(doc));

  if (split != nullptr) {
    ++split->plans;
    split->plan_s += run.plan_s;
    split->audit_s += run.audit_s;
    split->export_s += run.export_s;
  }
  return run;
}

ObsTotals ObsTotals::from(const json::Value& metrics, const json::Value& trace) {
  const json::Value& c = metrics.at("counters");
  ObsTotals t;
  t.planner_runs = c.get_int("planner.runs", 0);
  t.states_expanded = c.get_int("planner.states_expanded", 0);
  t.evaluations = c.get_int("evaluator.evaluations", 0);
  t.sat_hits = c.get_int("evaluator.sat_cache_hits", 0);
  t.sat_misses = c.get_int("evaluator.sat_cache_misses", 0);
  t.group_recomputes = c.get_int("router.group_recomputes", 0);
  t.group_reuses = c.get_int("router.group_reuses", 0);
  t.checks = c.get_int("checker.composite.checks", 0);
  for (const json::Value& event : trace.at("traceEvents").as_array()) {
    const std::string& name = event.at("name").as_string();
    if (name == "plan/astar" || name == "plan/dp") {
      t.plan_ms.push_back(static_cast<double>(event.get_int("dur", 0)) / 1e3);
    }
  }
  return t;
}

void ObsTotals::add(const ObsTotals& other) {
  planner_runs += other.planner_runs;
  states_expanded += other.states_expanded;
  evaluations += other.evaluations;
  sat_hits += other.sat_hits;
  sat_misses += other.sat_misses;
  group_recomputes += other.group_recomputes;
  group_reuses += other.group_reuses;
  checks += other.checks;
  plan_ms.insert(plan_ms.end(), other.plan_ms.begin(), other.plan_ms.end());
}

ObsTotals ObsTotals::global() {
  return from(obs::Registry::global().to_json(),
              obs::Tracer::global().to_json());
}

namespace {

double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace

void report_shared_layers(Outcome& out, const PlanSplit& split,
                          const ObsTotals& obs, double units, double build_ms,
                          double router_init_ms, double overhead_s) {
  const auto runs = static_cast<double>(obs.planner_runs);
  const double plans = static_cast<double>(split.plans);
  const double port_s = split.port.seconds();
  const double demand_s = split.demand.seconds();
  out.layer("core.plan_ms_p50", median(obs.plan_ms), "ms");
  out.layer("core.states_expanded",
            ratio(static_cast<double>(obs.states_expanded), runs), "count");
  out.layer("core.evaluations", ratio(static_cast<double>(obs.evaluations), runs),
            "count");
  out.layer("core.sat_cache_hit_ratio",
            ratio(static_cast<double>(obs.sat_hits),
                  static_cast<double>(obs.sat_hits + obs.sat_misses)),
            "ratio");
  out.layer("core.self_share",
            ratio(split.plan_s - port_s - demand_s, split.plan_s), "ratio");
  out.layer("constraints.checks_per_unit",
            ratio(static_cast<double>(obs.checks), units), "count");
  out.layer("constraints.demand.share", ratio(demand_s, split.plan_s), "ratio");
  out.layer("constraints.demand.ms_per_check",
            ratio(demand_s * 1e3, static_cast<double>(split.demand.checks.load())),
            "ms");
  out.layer("constraints.port.share", ratio(port_s, split.plan_s), "ratio");
  out.layer("constraints.port.ms_per_check",
            ratio(port_s * 1e3, static_cast<double>(split.port.checks.load())),
            "ms");
  out.layer("traffic.group_recomputes_per_unit",
            ratio(static_cast<double>(obs.group_recomputes), units), "count");
  out.layer("traffic.group_reuse_ratio",
            ratio(static_cast<double>(obs.group_reuses),
                  static_cast<double>(obs.group_reuses + obs.group_recomputes)),
            "ratio");
  out.layer("traffic.router_init_ms", router_init_ms, "ms");
  out.layer("pipeline.build_ms", build_ms, "ms");
  out.layer("pipeline.audit_ms", ratio(split.audit_s * 1e3, plans), "ms");
  out.layer("json.export_ms", ratio(split.export_s * 1e3, plans), "ms");
  out.layer("trace.overhead_s", overhead_s, "s");
}

}  // namespace perfbench
