// plan-full: the offline planner on the paper-scale regions.
//
// Cases (Table 3 presets, full scale; the inputs are fixed, so the seed does
// not change them — the known optima are what the correctness gate checks):
//   d-astar      Clos D, HGRID V1->V2, A*, serial             (cost 4)
//   edmag-astar  E-DMAG on the 10,168-switch E topology, A*   (cost 4)
//   d-dp-t4      Clos D, DP at num_threads=4, router budget split the way
//                pipeline::run_pipeline splits it              (cost 4)
//
// The work unit is one round: the three cases back to back; work_s is the
// median over the rounds of the round's summed plan time. Untraced pass:
// as many whole rounds as fit in --seconds at the pace of the rounds so far
// (at least one), plus one serial DP run whose bytes d-dp-t4 must equal.
// Traced pass: one more round with TimedChecker-wrapped port and demand
// checkers and the obs registry and tracer on, plus DP at one thread, which
// is then both the thread-scaling figure and the serial run d-dp-t4 must
// equal.
#include <iostream>
#include <map>

#include "common.h"
#include "klotski/obs/metrics.h"
#include "klotski/obs/trace.h"
#include "klotski/pipeline/experiments.h"

namespace perfbench {

using namespace klotski;

namespace {

// Set-ups are timed in batches spread over the run: before the first case
// and after every case (4 batches, 60 set-ups, ~1.5 s in all with one
// round). A shared host's speed switches between states that last
// seconds, so set-ups timed back to back all land in one state and their
// median follows it; spread out, they sample the run's mix of states, as
// the plan times do.
constexpr int kSetupsPerBatch = 15;
constexpr double kOptimalCost = 4.0;

struct PlanCase {
  std::string name;
  pipeline::ExperimentId experiment;
  std::string planner;
  int threads;
};

const std::vector<PlanCase>& plan_cases() {
  static const std::vector<PlanCase> cases = {
      {"d-astar", pipeline::ExperimentId::kD, "astar", 1},
      {"edmag-astar", pipeline::ExperimentId::kEDmag, "astar", 1},
      {"d-dp-t4", pipeline::ExperimentId::kD, "dp", 4},
  };
  return cases;
}

struct Fixture {
  migration::MigrationCase d;
  migration::MigrationCase edmag;

  migration::MigrationTask& task(pipeline::ExperimentId id) {
    return id == pipeline::ExperimentId::kD ? d.task : edmag.task;
  }
};

bool plan_ok(const core::Plan& plan) {
  return plan.found && plan.cost == kOptimalCost;
}

/// One case of the traced pass: its plan, its own split and its own obs
/// counters (the registry and tracer are reset before it).
struct TracedCase {
  CasePlan run;
  PlanSplit split;
  ObsTotals obs;
};

void traced_case(migration::MigrationTask& task, const std::string& planner,
                 int threads, TracedCase& traced) {
  obs::Registry::global().reset_values();
  obs::Tracer::global().clear();
  traced.run = plan_case(task, planner, threads, &traced.split);
  traced.obs = ObsTotals::global();
}

/// The per-case split, printed with the workload's figures.
void report_case(Outcome& out, const std::string& label, const TracedCase& t) {
  const core::PlannerStats& stats = t.run.plan.stats;
  const double wall = t.run.plan_s;
  auto per_check_ms = [](const LayerClock& clock) {
    const long long checks = clock.checks.load();
    return checks > 0 ? clock.seconds() * 1e3 / static_cast<double>(checks)
                      : 0.0;
  };
  const LayerClock& demand = t.split.demand;
  const LayerClock& port = t.split.port;
  out.detail("constraints.demand.checks." + label,
             static_cast<double>(demand.checks.load()), "count");
  out.detail("constraints.demand.ms_per_check." + label, per_check_ms(demand),
             "ms");
  out.detail("constraints.demand.share." + label, demand.seconds() / wall,
             "ratio");
  out.detail("constraints.port.checks." + label,
             static_cast<double>(port.checks.load()), "count");
  out.detail("constraints.port.ms_per_check." + label, per_check_ms(port), "ms");
  out.detail("constraints.port.share." + label, port.seconds() / wall, "ratio");
  out.detail("traffic.group_recomputes." + label,
             static_cast<double>(t.obs.group_recomputes), "count");
  out.detail("core.self_s." + label, wall - port.seconds() - demand.seconds(),
             "s");
  out.detail("core.states_expanded." + label,
             static_cast<double>(stats.visited_states), "count");
  out.detail("core.evaluations." + label, static_cast<double>(stats.evaluations),
             "count");
  out.detail("pipeline.audit_s." + label, t.run.audit_s, "s");
  out.detail("pipeline.export_s." + label, t.run.export_s, "s");
}

}  // namespace

void run_plan_full(const Options& options, Outcome& out) {
  // Set-up: build both full-scale cases and their checker stacks.
  std::vector<double> setup_s, build_ms, init_ms;  // per case
  auto setup_batch = [&] {
    for (int rep = 0; rep < kSetupsPerBatch; ++rep) {
      const Clock::time_point setup_start = Clock::now();
      Clock::time_point start = Clock::now();
      migration::MigrationCase d = pipeline::build_experiment(
          pipeline::ExperimentId::kD, topo::PresetScale::kFull);
      migration::MigrationCase edmag = pipeline::build_experiment(
          pipeline::ExperimentId::kEDmag, topo::PresetScale::kFull);
      build_ms.push_back(seconds_since(start) * 1e3 / 2);
      start = Clock::now();
      { pipeline::CheckerBundle b = pipeline::make_standard_checker(d.task); }
      { pipeline::CheckerBundle b = pipeline::make_standard_checker(edmag.task); }
      init_ms.push_back(seconds_since(start) * 1e3 / 2);
      setup_s.push_back(seconds_since(setup_start));
    }
  };
  setup_batch();
  Fixture fixture;
  fixture.d = pipeline::build_experiment(pipeline::ExperimentId::kD,
                                         topo::PresetScale::kFull);
  fixture.edmag = pipeline::build_experiment(pipeline::ExperimentId::kEDmag,
                                             topo::PresetScale::kFull);
  std::cout << "plan-full: " << fixture.d.task.topo->num_switches()
            << "-switch D, " << fixture.edmag.task.topo->num_switches()
            << "-switch E-DMAG\n";

  // Untraced pass.
  std::map<std::string, std::vector<double>> plan_s;
  std::map<std::string, std::string> reference_bytes;
  std::vector<double> round_s;
  const Clock::time_point measure_start = Clock::now();
  do {
    double round = 0.0;
    for (const PlanCase& c : plan_cases()) {
      CasePlan run = plan_case(fixture.task(c.experiment), c.planner, c.threads);
      out.operation(plan_ok(run.plan),
                    c.name + " (found/cost/audit): " + run.plan.failure);
      plan_s[c.name].push_back(run.plan_s);
      round += run.plan_s;
      std::cout << "  round " << round_s.size() << " " << c.name << " "
                << run.plan_s << " s, cost " << run.plan.cost << "\n";
      const std::string& first =
          reference_bytes.emplace(c.name, run.bytes).first->second;
      out.gate(first == run.bytes, c.name + ": plan bytes changed between rounds");
      setup_batch();
    }
    round_s.push_back(round);
  } while (seconds_since(measure_start) *
               static_cast<double>(round_s.size() + 1) /
               static_cast<double>(round_s.size()) <=
           options.seconds);

  // The determinism gate for the threaded DP: one serial run's bytes. The
  // traced pass makes that run itself (d-dp below).
  if (!options.trace) {
    CasePlan dp_serial = plan_case(fixture.d.task, "dp", 1);
    out.operation(plan_ok(dp_serial.plan), "d-dp-t1 (found/cost/audit)");
    out.gate(dp_serial.bytes == reference_bytes["d-dp-t4"],
             "d-dp-t4 plan bytes differ from the 1-thread DP plan");
  }

  out.end_to_end("setup_s", median(setup_s), "s");
  out.end_to_end("work_s", median(round_s), "s");
  out.end_to_end("peak_rss_mb",
                 static_cast<double>(proc_status_field(0, "VmHWM")) / 1024.0,
                 "MB");
  for (const PlanCase& c : plan_cases()) {
    out.detail("plan_s." + c.name, median(plan_s[c.name]), "s");
  }

  if (!options.trace) return;

  // Traced pass.
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  std::map<std::string, TracedCase> traced;
  for (const PlanCase& c : plan_cases()) {
    traced_case(fixture.task(c.experiment), c.planner, c.threads, traced[c.name]);
  }
  traced_case(fixture.d.task, "dp", 1, traced["d-dp"]);
  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);
  obs::Tracer::global().clear();

  for (const auto& [name, t] : traced) {
    out.operation(plan_ok(t.run.plan), name + " traced (found/cost/audit)");
    const std::string& expect =
        name == "d-dp" ? reference_bytes["d-dp-t4"] : reference_bytes[name];
    out.gate(t.run.bytes == expect,
             name + ": traced plan bytes differ from the untraced plan");
  }

  // The shared per-layer metrics cover the traced round with DP at one
  // thread in place of d-dp-t4 (the same plan): checker time summed over 4
  // workers is not a share of wall time. The overhead is that of the round
  // as the untraced pass ran it.
  PlanSplit round_split;
  ObsTotals round_obs;
  for (const std::string label : {"d-astar", "edmag-astar", "d-dp"}) {
    round_split.add(traced[label].split);
    round_obs.add(traced[label].obs);
  }
  double traced_round_s = 0.0;
  for (const PlanCase& c : plan_cases()) traced_round_s += traced[c.name].run.plan_s;
  report_shared_layers(out, round_split, round_obs, 1.0, median(build_ms),
                       median(init_ms), traced_round_s - median(round_s));

  for (const std::string label : {"d-astar", "edmag-astar", "d-dp"}) {
    report_case(out, label, traced[label]);
  }
  out.detail("core.parallel_speedup.d-dp",
             traced["d-dp"].run.plan_s / traced["d-dp-t4"].run.plan_s, "ratio");
  for (const PlanCase& c : plan_cases()) {
    out.detail("trace.overhead_s." + c.name,
               traced[c.name].run.plan_s - median(plan_s[c.name]), "s");
  }
}

}  // namespace perfbench
