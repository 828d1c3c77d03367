// Exact fixed-point load totals (FixedLoad, ecmp.h).
//
// The router's incremental totals are only bit-identical to a fresh
// evaluation because a total does not depend on the order its entries are
// added or removed in. These tests pin that: permuted sums give bit-equal
// doubles, an add followed by a subtract restores the exact prior state,
// hand-checked dyadic sums and the rounding of sub-resolution entries come
// out as documented, the double conversion is the correctly rounded one,
// and the range guard refuses demand sets that could overflow a total.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "../test_helpers.h"
#include "klotski/traffic/ecmp.h"
#include "klotski/util/rng.h"

namespace klotski::traffic {
namespace {

/// A load as ECMP shares look: a volume of a few Tbps split several ways,
/// with an occasional sub-resolution sliver.
double random_entry(util::Rng& rng) {
  if (rng.chance(0.05)) return std::ldexp(rng.uniform_real(1.0, 2.0), -60);
  return rng.uniform_real(0.0, 8.0) / static_cast<double>(rng.uniform_int(1, 48));
}

FixedLoad sum_fixed(const std::vector<double>& entries) {
  FixedLoad total = 0;
  for (const double e : entries) total += tbps_to_fixed(e);
  return total;
}

TEST(FixedLoad, PermutedSumsGiveBitEqualDoubles) {
  util::Rng rng(20261018);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> entries(static_cast<std::size_t>(rng.uniform_int(2, 300)));
    for (double& e : entries) e = random_entry(rng);
    const double want = fixed_to_tbps(sum_fixed(entries));
    for (int perm = 0; perm < 10; ++perm) {
      rng.shuffle(entries);
      const double got = fixed_to_tbps(sum_fixed(entries));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(want),
                std::bit_cast<std::uint64_t>(got))
          << "trial " << trial << " permutation " << perm;
    }
  }
}

TEST(FixedLoad, AddThenSubtractRestoresTheExactState) {
  util::Rng rng(7);
  std::vector<double> base(64);
  for (double& e : base) e = random_entry(rng);
  const FixedLoad before = sum_fixed(base);
  FixedLoad total = before;
  std::vector<double> extra(200);
  for (double& e : extra) e = random_entry(rng);
  for (const double e : extra) total += tbps_to_fixed(e);
  rng.shuffle(extra);
  for (const double e : extra) total -= tbps_to_fixed(e);
  EXPECT_TRUE(total == before);
  // The same holds for the diff form the router applies: total - old + new.
  for (std::size_t i = 0; i < base.size(); ++i) {
    const double replacement = random_entry(rng);
    total = total - tbps_to_fixed(base[i]) + tbps_to_fixed(replacement);
    total = total - tbps_to_fixed(replacement) + tbps_to_fixed(base[i]);
  }
  EXPECT_TRUE(total == before);
}

TEST(FixedLoad, HandCheckedDyadicSums) {
  // Dyadic values of 2^-48 Tbps or more convert exactly, so their sums are
  // the true sums.
  EXPECT_EQ(fixed_to_tbps(sum_fixed({0.5, 0.25, 0.125})), 0.875);
  EXPECT_EQ(fixed_to_tbps(sum_fixed({1.5, 2.5})), 4.0);
  // The total keeps all 76 significant bits of 2^27 + 2^-48; the double
  // rounds them once.
  EXPECT_TRUE(sum_fixed({0x1p26, 0x1p26, 0x1p-48}) ==
              ((FixedLoad{1} << 127) | (FixedLoad{1} << 52)));
  EXPECT_EQ(fixed_to_tbps(sum_fixed({0x1p26, 0x1p26, 0x1p-48})), 0x1p27);
  EXPECT_EQ(fixed_to_tbps(tbps_to_fixed(0x1p-48)), 0x1p-48);
  EXPECT_TRUE(tbps_to_fixed(0x1p-48) == FixedLoad{1} << 52);
  EXPECT_TRUE(tbps_to_fixed(1.0) == FixedLoad{1} << 100);
  EXPECT_TRUE(tbps_to_fixed(0.0) == 0);
  // Double rounding in a float sum: 0.1 + 0.2 != 0.3 in double arithmetic,
  // but the exact total of the two doubles rounds to the double nearest
  // their true sum, which is what a fixed-order float sum gives here too.
  EXPECT_EQ(fixed_to_tbps(sum_fixed({0.1, 0.2})), 0.1 + 0.2);
  // Sub-resolution entries round to the nearest unit on their own, ties to
  // even: 2^-101 is half a unit (rounds to 0), 3 * 2^-101 is one and a half
  // (rounds to 2), 2^-102 rounds to 0 and 3 * 2^-102 to 1.
  EXPECT_TRUE(tbps_to_fixed(0x1p-101) == 0);
  EXPECT_TRUE(tbps_to_fixed(0x1.8p-100) == 2);
  EXPECT_TRUE(tbps_to_fixed(0x1p-102) == 0);
  EXPECT_TRUE(tbps_to_fixed(0x1.8p-101) == 1);
  EXPECT_TRUE(tbps_to_fixed(std::numeric_limits<double>::denorm_min()) == 0);
}

TEST(FixedLoad, InputsOutsideTheRangeMapWithoutOverflow) {
  // Only nonsensical WCMP capacities can produce these; the mapping must
  // stay defined (the sanitizer build checks the shifts) and fixed.
  const FixedLoad max = ~FixedLoad{0};
  EXPECT_TRUE(tbps_to_fixed(-1.0) == 0);
  EXPECT_TRUE(tbps_to_fixed(-0.0) == 0);
  EXPECT_TRUE(tbps_to_fixed(std::numeric_limits<double>::quiet_NaN()) == 0);
  EXPECT_TRUE(tbps_to_fixed(std::numeric_limits<double>::infinity()) == max);
  EXPECT_TRUE(tbps_to_fixed(0x1p28) == max);
  EXPECT_TRUE(tbps_to_fixed(std::numeric_limits<double>::max()) == max);
  // The top of the range still converts exactly.
  const double top = std::nextafter(0x1p28, 0.0);
  EXPECT_EQ(fixed_to_tbps(tbps_to_fixed(top)), top);
}

TEST(FixedLoad, ExactEntriesRoundTrip) {
  util::Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = std::ldexp(rng.uniform_real(1.0, 2.0),
                                static_cast<int>(rng.uniform_int(-48, 26)));
    ASSERT_EQ(fixed_to_tbps(tbps_to_fixed(x)), x) << x;
  }
}

TEST(FixedLoad, ConversionToDoubleIsCorrectlyRounded) {
  // The library conversion of an unsigned 128-bit integer rounds to
  // nearest, ties to even; scaling by 2^-100 is exact.
  util::Rng rng(13);
  for (int i = 0; i < 20000; ++i) {
    FixedLoad v = (static_cast<FixedLoad>(rng.engine()()) << 64) |
                  rng.engine()();
    v >>= rng.uniform_int(0, 127);
    if (rng.chance(0.2)) {
      // A halfway case: 53 significant bits, then a lone 1, then zeros.
      const std::uint64_t m = (rng.engine()() >> 11) | (std::uint64_t{1} << 52);
      const int low = static_cast<int>(rng.uniform_int(0, 73));
      v = (static_cast<FixedLoad>(m) << (low + 1)) | (FixedLoad{1} << low);
    }
    ASSERT_EQ(fixed_to_tbps(v), static_cast<double>(v) * 0x1p-100) << i;
  }
}

TEST(FixedLoad, RangeGuardRefusesOverflowingDemandSets) {
  klotski::testing::Diamond d;
  EcmpRouter router(d.topo);
  LoadVector loads;

  const DemandSet fits = {d.demand(kMaxTotalVolumeTbps / 2),
                          d.demand(kMaxTotalVolumeTbps / 2)};
  EXPECT_NO_THROW(router.bind_demands(fits));
  ASSERT_TRUE(router.assign_all(fits, loads));
  EXPECT_EQ(loads[static_cast<std::size_t>(d.c_sm1) * 2],
            kMaxTotalVolumeTbps / 2);

  const DemandSet too_big = {d.demand(kMaxTotalVolumeTbps),
                             d.demand(kMaxTotalVolumeTbps)};
  EXPECT_THROW(router.bind_demands(too_big), std::invalid_argument);
  EXPECT_THROW(router.assign_all(too_big, loads), std::invalid_argument);
  EXPECT_THROW(router.assign(d.demand(2 * kMaxTotalVolumeTbps), loads),
               std::invalid_argument);
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    const DemandSet set = {d.demand(bad)};
    EXPECT_THROW(router.bind_demands(set), std::invalid_argument) << bad;
    EXPECT_THROW(router.assign(d.demand(bad), loads), std::invalid_argument)
        << bad;
  }
  // A refused rebind leaves the router unbound, not bound to a set that
  // may have been replaced at the same address.
  EXPECT_FALSE(router.bound_to(fits));
}

}  // namespace
}  // namespace klotski::traffic
