// perfbench — the Klotski end-to-end benchmark (see perfbench/README.md).
//
//   perfbench --workload plan-full|serve-mix|robustness --seed N
//             --seconds S --trace 0|1 --served PATH --work-dir DIR
//             [--git-sha SHA]
//
// Runs one workload, checks every output for correctness, prints each
// metric by name with its unit, and ends stdout with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (untraced pass); with
// --trace 1 the untraced pass is followed by a traced pass and the metrics
// are the per-layer ones, tracing overhead included. Every workload reports
// the same metric names (kEndToEndSpec, kPerLayerSpec, as in
// BENCHMARK.json); figures of one workload only are printed above the
// result line.
// Exit status: 0 correct, 1 a gate or operation failed or a metric is
// missing (no result line then), 2 usage error or a non-optimized build.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "common.h"
#include "klotski/json/json.h"

namespace {

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload plan-full|serve-mix|robustness"
               " --seed N --seconds S --trace 0|1 --served PATH"
               " --work-dir DIR [--git-sha SHA]\n";
  return 2;
}

void print_metrics(const std::string& title,
                   const std::vector<Metric>& metrics) {
  std::cout << title << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << klotski::json::dump(m.value)
              << " " << m.unit << "\n";
  }
}

/// Why `metrics` are not exactly `spec` (each name once, in its unit), or
/// "" when they are.
std::string spec_mismatch(const std::vector<Metric>& metrics,
                          const std::vector<MetricSpec>& spec) {
  std::map<std::string, std::string> units;
  for (const Metric& m : metrics) {
    if (!units.emplace(m.name, m.unit).second) return "metric " + m.name + " twice";
  }
  for (const MetricSpec& s : spec) {
    auto it = units.find(s.name);
    if (it == units.end()) return std::string("metric ") + s.name + " missing";
    if (it->second != s.unit) {
      return std::string("metric ") + s.name + " in " + it->second + ", not " +
             s.unit;
    }
    units.erase(it);
  }
  return units.empty() ? "" : "metric " + units.begin()->first + " not declared";
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::cerr << "perfbench: refusing to time a non-optimized build\n";
  return 2;
#endif
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage("unexpected argument " + key);
    if (i + 1 >= argc) return usage("missing value for " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "served", "work-dir"}) {
    if (!args.count(required)) {
      return usage(std::string("--") + required + " is required");
    }
  }

  Options options;
  options.workload = args["workload"];
  options.served = args["served"];
  options.work_dir = args["work-dir"];
  try {
    options.seed = std::stoull(args["seed"]);
    options.seconds = std::stod(args["seconds"]);
    options.trace = std::stoi(args["trace"]) != 0;
  } catch (const std::exception&) {
    return usage("--seed, --seconds and --trace take numbers");
  }
  if (options.seconds <= 0) return usage("--seconds must be positive");

  std::cout << "perfbench env: nproc=" << std::thread::hardware_concurrency()
            << " build_type=" << PERFBENCH_BUILD_TYPE
            << " compiler=\"" << __VERSION__ << "\""
            << " git_sha=" << (args.count("git-sha") ? args["git-sha"] : "unknown")
            << "\n";
  std::cout << "perfbench workload=" << options.workload
            << " seed=" << options.seed << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << "\n";

  Outcome out;
  try {
    if (options.workload == "plan-full") {
      run_plan_full(options, out);
    } else if (options.workload == "serve-mix") {
      run_serve_mix(options, out);
    } else if (options.workload == "robustness") {
      run_robustness(options, out);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  print_metrics("workload figures (" + options.workload + "):", out.details());
  print_metrics("end-to-end (untraced pass):", out.end_to_end_metrics());
  if (options.trace) print_metrics("per-layer (traced pass):", out.layer_metrics());
  for (const std::string& error : out.errors()) {
    std::cout << "FAILED: " << error << "\n";
  }

  const std::vector<Metric>& reported =
      options.trace ? out.layer_metrics() : out.end_to_end_metrics();
  const std::string mismatch =
      spec_mismatch(reported, options.trace ? kPerLayerSpec : kEndToEndSpec);
  if (!mismatch.empty()) {
    std::cerr << "perfbench: " << options.workload << ": " << mismatch << "\n";
    return 1;
  }
  klotski::json::Object metrics;
  for (const Metric& m : reported) {
    klotski::json::Object entry;
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    metrics[m.name] = klotski::json::Value(std::move(entry));
  }
  klotski::json::Object result;
  result["correct"] = out.correct();
  result["attempted"] = static_cast<std::int64_t>(out.attempted());
  result["failed"] = static_cast<std::int64_t>(out.failed());
  result["metrics"] = klotski::json::Value(std::move(metrics));
  std::cout << klotski::json::dump(klotski::json::Value(std::move(result)))
            << std::endl;
  return out.correct() ? 0 : 1;
}
