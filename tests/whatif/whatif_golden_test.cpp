// Golden what-if corpus: klotski_whatif over the committed golden plans
// (tests/golden/plan-*.json, reduced scale) must reproduce the committed
// klotski.whatif.v1 reports byte for byte. The knobs differ per case so
// the corpus covers WCMP, funneling, a short bisection, a plan unsafe at
// x1 and hot futures. The full-scale D report (whatif-d.json) is gated by
// scripts/tier1.sh through the CLI; regenerate both with
// scripts/regen_golden.sh.
#include <gtest/gtest.h>

#include <string>

#include "klotski/npd/npd_io.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/pipeline/plan_export.h"
#include "klotski/util/file.h"
#include "klotski/whatif/whatif.h"

namespace klotski {
namespace {

struct GoldenCase {
  topo::TopologyFamily family;
  topo::PresetId preset;
  const char* label;   // test-name suffix
  const char* plan;    // golden plan under tests/golden/
  const char* report;  // golden report under tests/golden/
  int seed;
  // Knobs that differ from the klotski_whatif defaults.
  bool wcmp;
  double funneling;
  double theta;
  int margin_iterations;
  double growth_max;
  double surge_factor_max;
};

// The same invocations as scripts/regen_golden.sh, 24 trajectories each.
constexpr GoldenCase kGoldenCases[] = {
    {topo::TopologyFamily::kClos, topo::PresetId::kA, "ClosA", "plan-a.json",
     "whatif-a.json", 1, false, 0.0, 0.75, 16, 0.004, 1.5},
    {topo::TopologyFamily::kClos, topo::PresetId::kB, "ClosB", "plan-b.json",
     "whatif-b.json", 2, true, 0.0, 0.75, 16, 0.004, 1.5},
    {topo::TopologyFamily::kClos, topo::PresetId::kC, "ClosC", "plan-c.json",
     "whatif-c.json", 3, false, 0.05, 0.75, 8, 0.004, 1.5},
    {topo::TopologyFamily::kFlat, topo::PresetId::kA, "FlatA",
     "plan-flat.json", "whatif-flat.json", 4, false, 0.0, 0.3, 16, 0.004,
     1.5},
    {topo::TopologyFamily::kReconf, topo::PresetId::kA, "ReconfA",
     "plan-reconf.json", "whatif-reconf.json", 5, false, 0.0, 0.75, 16, 0.02,
     2.5},
};

class GoldenWhatIf : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenWhatIf, ReportIsByteExact) {
  const GoldenCase& gc = GetParam();
  const std::string dir = std::string(KLOTSKI_SOURCE_DIR) + "/tests/golden/";
  // The document klotski_synth --scale=reduced writes, after the file
  // round trip.
  const npd::NpdDocument doc = npd::parse_npd(npd::dump_npd(
      pipeline::synth_document(gc.family, gc.preset,
                               topo::PresetScale::kReduced,
                               npd::default_migration(gc.family))));
  const whatif::CaseFactory factory = [&doc] { return npd::build_case(doc); };
  migration::MigrationCase reference = factory();
  const core::Plan plan = pipeline::plan_from_json(
      reference.task, json::parse(util::read_file(dir + gc.plan)));

  whatif::WhatIfParams params;
  params.trajectories = 24;
  params.seed = static_cast<std::uint64_t>(gc.seed);
  params.checker.demand.max_utilization = gc.theta;
  params.checker.demand.funneling_margin = gc.funneling;
  if (gc.wcmp) params.checker.routing = traffic::SplitMode::kCapacityWeighted;
  params.margin_iterations = gc.margin_iterations;
  params.growth_max = gc.growth_max;
  params.surge_factor_max = gc.surge_factor_max;
  for (const int threads : {1, 3}) {
    params.threads = threads;
    EXPECT_EQ(whatif::report_text(whatif::run_whatif(factory, plan, params),
                                  params),
              util::read_file(dir + gc.report))
        << "threads " << threads << ": report drifted from " << dir
        << gc.report
        << "\nIf the change is intentional, run scripts/regen_golden.sh and "
           "commit the updated corpus.";
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamilyPresets, GoldenWhatIf, ::testing::ValuesIn(kGoldenCases),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace klotski
