#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "klotski/traffic/forecast.h"

namespace klotski::traffic {
namespace {

DemandSet base_demands() {
  DemandSet demands(2);
  demands[0].name = "egress";
  demands[0].kind = DemandKind::kEgress;
  demands[0].volume_tbps = 10.0;
  demands[1].name = "ew";
  demands[1].kind = DemandKind::kEastWest;
  demands[1].volume_tbps = 4.0;
  return demands;
}

TEST(Forecast, StepZeroEqualsBase) {
  const Forecaster f(base_demands(), 0.05);
  const DemandSet at0 = f.at_step(0);
  EXPECT_DOUBLE_EQ(at0[0].volume_tbps, 10.0);
  EXPECT_DOUBLE_EQ(at0[1].volume_tbps, 4.0);
}

TEST(Forecast, CompoundGrowth) {
  const Forecaster f(base_demands(), 0.10);
  const DemandSet at3 = f.at_step(3);
  EXPECT_NEAR(at3[0].volume_tbps, 10.0 * std::pow(1.1, 3), 1e-9);
}

TEST(Forecast, NegativeGrowthShrinks) {
  const Forecaster f(base_demands(), -0.10);
  EXPECT_LT(f.at_step(2)[0].volume_tbps, 10.0);
}

TEST(Forecast, RejectsImpossibleGrowth) {
  EXPECT_THROW(Forecaster(base_demands(), -1.5), std::invalid_argument);
}

TEST(Forecast, SurgeAppliesOnlyToItsKindAndWindow) {
  Forecaster f(base_demands(), 0.0);
  SurgeEvent surge;
  surge.kind = DemandKind::kEastWest;
  surge.start_step = 2;
  surge.end_step = 4;
  surge.factor = 2.0;
  f.add_surge(surge);

  EXPECT_DOUBLE_EQ(f.at_step(1)[1].volume_tbps, 4.0);   // before
  EXPECT_DOUBLE_EQ(f.at_step(2)[1].volume_tbps, 8.0);   // inside
  EXPECT_DOUBLE_EQ(f.at_step(3)[1].volume_tbps, 8.0);   // inside
  EXPECT_DOUBLE_EQ(f.at_step(4)[1].volume_tbps, 4.0);   // end exclusive
  EXPECT_DOUBLE_EQ(f.at_step(2)[0].volume_tbps, 10.0);  // other kind
}

TEST(Forecast, OverlappingSurgesMultiply) {
  Forecaster f(base_demands(), 0.0);
  f.add_surge(SurgeEvent{"a", DemandKind::kEgress, 0, 5, 2.0});
  f.add_surge(SurgeEvent{"b", DemandKind::kEgress, 0, 5, 1.5});
  EXPECT_DOUBLE_EQ(f.at_step(1)[0].volume_tbps, 30.0);
}

TEST(Forecast, RejectsInvertedSurgeWindow) {
  Forecaster f(base_demands(), 0.0);
  EXPECT_THROW(f.add_surge(SurgeEvent{"bad", DemandKind::kEgress, 5, 2, 2.0}),
               std::invalid_argument);
}

TEST(Forecast, MaxRelativeChangeTracksGrowth) {
  const Forecaster f(base_demands(), 0.10);
  EXPECT_NEAR(f.max_relative_change(0, 1), 0.10, 1e-9);
  EXPECT_DOUBLE_EQ(f.max_relative_change(2, 2), 0.0);
}

TEST(Forecast, MaxRelativeChangeSeesSurges) {
  Forecaster f(base_demands(), 0.0);
  f.add_surge(SurgeEvent{"s", DemandKind::kEastWest, 1, 3, 1.6});
  EXPECT_NEAR(f.max_relative_change(0, 1), 0.6, 1e-9);
}

// --- composition-rule pins (forecast.h) -------------------------------
// These assert EXACT equality against expressions written in the pinned
// operation order. If a refactor folds factors differently, the doubles
// round differently and these fail — which is the point: seeded chaos and
// what-if sweeps depend on this association staying put.

TEST(Forecast, OverlappingBiasesComposeSequentiallyInInsertionOrder) {
  Forecaster f(base_demands(), 0.1);
  f.add_bias(ForecastBias{"b1", DemandKind::kEgress, 0, 5, 1.3});
  f.add_bias(ForecastBias{"b2", DemandKind::kEgress, 0, 5, 0.7});
  // at_step applies growth as one multiply; each bias is then its own
  // multiply, in insertion order.
  const double grown = 10.0 * std::pow(1.1, 2);
  EXPECT_EQ(f.forecast_at_step(2)[0].volume_tbps, (grown * 1.3) * 0.7);
  // Ground truth is untouched by biases.
  EXPECT_EQ(f.at_step(2)[0].volume_tbps, grown);
}

TEST(Forecast, BiasAndSurgeOnTheSameStepFoldSurgeFirst) {
  Forecaster f(base_demands(), 0.05);
  f.add_surge(SurgeEvent{"s", DemandKind::kEgress, 1, 3, 1.5});
  f.add_bias(ForecastBias{"b", DemandKind::kEgress, 1, 3, 1.2});
  // The surge folds into at_step's single per-demand factor
  // (growth * surge, one multiply onto the base); the bias multiplies the
  // result afterwards.
  const double actual = 10.0 * (std::pow(1.05, 2) * 1.5);
  EXPECT_EQ(f.at_step(2)[0].volume_tbps, actual);
  EXPECT_EQ(f.forecast_at_step(2)[0].volume_tbps, actual * 1.2);
  EXPECT_TRUE(f.biased_at(2));
  EXPECT_FALSE(f.biased_at(3));  // end exclusive
}

TEST(Forecast, VolumesAtStepAreBitEqualToForecastAtStep) {
  // Two forecasters sharing one base, with growth, overlapping surges and
  // overlapping biases on both kinds.
  const auto base = std::make_shared<const DemandSet>(base_demands());
  Forecaster f(base, 0.0037);
  f.add_surge(SurgeEvent{"s1", DemandKind::kEgress, 1, 4, 1.37});
  f.add_surge(SurgeEvent{"s2", DemandKind::kEgress, 2, 6, 0.91});
  f.add_surge(SurgeEvent{"s3", DemandKind::kEastWest, 0, 3, 1.13});
  f.add_bias(ForecastBias{"b1", DemandKind::kEgress, 2, 5, 1.17});
  f.add_bias(ForecastBias{"b2", DemandKind::kEgress, 3, 5, 0.83});
  f.add_bias(ForecastBias{"b3", DemandKind::kEastWest, 1, 2, 1.29});
  Forecaster other(base, -0.002);
  std::vector<double> volumes;
  for (int step = 0; step <= 7; ++step) {
    for (const Forecaster* forecaster : {&f, &other}) {
      forecaster->forecast_volumes_at_step(step, volumes);
      const DemandSet want = forecaster->forecast_at_step(step);
      ASSERT_EQ(volumes.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(volumes[i]),
                  std::bit_cast<std::uint64_t>(want[i].volume_tbps))
            << "step " << step << " demand " << i;
      }
    }
  }
  EXPECT_EQ(&f.base(), base.get());
}

TEST(Forecast, ZeroLengthWindowsAreValidAndNeverActive) {
  Forecaster f(base_demands(), 0.0);
  // start == end is an empty [start, end) window, not an error …
  f.add_surge(SurgeEvent{"s", DemandKind::kEgress, 2, 2, 5.0});
  f.add_bias(ForecastBias{"b", DemandKind::kEgress, 2, 2, 5.0});
  for (int step = 0; step <= 3; ++step) {
    EXPECT_EQ(f.at_step(step)[0].volume_tbps, 10.0) << "step " << step;
    EXPECT_EQ(f.forecast_at_step(step)[0].volume_tbps, 10.0)
        << "step " << step;
    EXPECT_FALSE(f.biased_at(step)) << "step " << step;
  }
  // … while an inverted window still is one.
  EXPECT_THROW(f.add_bias(ForecastBias{"bad", DemandKind::kEgress, 3, 2, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(f.add_bias(ForecastBias{"bad", DemandKind::kEgress, 0, 2, 0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace klotski::traffic
