// Unit tests for the util substrate: strings, tables, statistics,
// deterministic RNG, and unit conversions.
#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace surfos::util {
namespace {

// --- strings -----------------------------------------------------------------

TEST(Strings, TrimRemovesBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("VR Gaming @28GHz"), "vr gaming @28ghz");
}

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWordsDropsEmptyTokens) {
  const auto words = split_words("  enhance   link\tnow\n");
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], "enhance");
  EXPECT_EQ(words[2], "now");
}

TEST(Strings, StartsWithAndContains) {
  EXPECT_TRUE(starts_with("surface-01", "surface"));
  EXPECT_FALSE(starts_with("s", "surface"));
  EXPECT_TRUE(contains("enable_sensing", "sensing"));
  EXPECT_TRUE(contains_ignore_case("VR Headset", "vr head"));
  EXPECT_FALSE(contains_ignore_case("VR Headset", "phone"));
}

TEST(Strings, JoinWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, FormatProducesPrintfOutput) {
  EXPECT_EQ(format("%s=%.2f", "snr", 12.345), "snr=12.35");
}

TEST(Strings, ParseDoubleStrict) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("3.5", v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(parse_double(" -2.25 ", v));
  EXPECT_DOUBLE_EQ(v, -2.25);
  EXPECT_FALSE(parse_double("3.5 GHz", v));
  EXPECT_FALSE(parse_double("", v));
  EXPECT_FALSE(parse_double("abc", v));
}

TEST(Strings, ParseUintStrict) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_uint("42", v));
  EXPECT_EQ(v, 42u);
  EXPECT_FALSE(parse_uint("-1", v));
  EXPECT_FALSE(parse_uint("4.5", v));
}

// --- table -------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  Table table({"name", "cost"});
  table.add_row({"AutoMS", "2"});
  table.add_row({"mmWall", "10000"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("mmWall"), std::string::npos);
  // All lines equally findable; header separator present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

// --- stats ---------------------------------------------------------------------

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
}

TEST(Stats, QuantileRejectsBadInput) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, 1.5), std::invalid_argument);
}

TEST(Stats, MeanBasic) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_THROW(mean({}), std::invalid_argument);
}

TEST(Stats, CdfAtThresholds) {
  const std::vector<double> samples{1.0, 2.0, 3.0, 4.0};
  const auto cdf = cdf_at(samples, {0.5, 2.0, 10.0});
  EXPECT_DOUBLE_EQ(cdf[0], 0.0);
  EXPECT_DOUBLE_EQ(cdf[1], 0.5);
  EXPECT_DOUBLE_EQ(cdf[2], 1.0);
}

TEST(Stats, EmpiricalCdfIsMonotone) {
  const auto cdf = empirical_cdf({3.0, 1.0, 2.0});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf.front().value, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LT(cdf[i - 1].fraction, cdf[i].fraction);
  }
}

// --- rng ------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BelowNeverReachesBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, NormalHasReasonableMoments) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.03);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.05);
}

TEST(Rng, SignIsBalanced) {
  Rng rng(13);
  int plus = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.sign() > 0) ++plus;
  }
  EXPECT_NEAR(plus, 5000, 300);
}

TEST(Rng, ForkIsIndependent) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(a(), child());
}

// --- units ---------------------------------------------------------------------

TEST(Units, DbRoundTrip) {
  EXPECT_NEAR(from_db(to_db(123.45)), 123.45, 1e-9);
  EXPECT_DOUBLE_EQ(to_db(10.0), 10.0);
  EXPECT_DOUBLE_EQ(to_db(100.0), 20.0);
}

TEST(Units, AmplitudeDb) {
  EXPECT_DOUBLE_EQ(amplitude_to_db(10.0), 20.0);
}

TEST(Units, DbmWatts) {
  EXPECT_DOUBLE_EQ(watts_to_dbm(1.0), 30.0);
  EXPECT_NEAR(dbm_to_watts(0.0), 1e-3, 1e-12);
  EXPECT_NEAR(dbm_to_watts(watts_to_dbm(0.02)), 0.02, 1e-12);
}

TEST(Units, AngleConversions) {
  EXPECT_NEAR(deg_to_rad(180.0), kPi, 1e-12);
  EXPECT_NEAR(rad_to_deg(kPi / 2.0), 90.0, 1e-12);
}

TEST(Units, WrapTwoPi) {
  EXPECT_NEAR(wrap_two_pi(2.0 * kTwoPi + 0.5), 0.5, 1e-12);
  EXPECT_NEAR(wrap_two_pi(-0.5), kTwoPi - 0.5, 1e-12);
  EXPECT_GE(wrap_two_pi(-1e-9), 0.0);
}

TEST(Units, WrapPi) {
  EXPECT_NEAR(wrap_pi(kPi + 0.25), -kPi + 0.25, 1e-12);
  EXPECT_NEAR(wrap_pi(-kPi - 0.25), kPi - 0.25, 1e-12);
  EXPECT_NEAR(wrap_pi(0.3), 0.3, 1e-12);
}

}  // namespace
}  // namespace surfos::util
