#include "src/common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace et {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.stderr_of_mean(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStatsTest, KnownSample) {
  // Sample {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, sample variance 32/7.
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_NEAR(s.stderr_of_mean(), std::sqrt(32.0 / 7.0) / std::sqrt(8.0),
              1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.37 + (i % 7);
    all.add(x);
    (i < 40 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.stddev(), all.stddev(), 1e-9);
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  RunningStats c;
  c.merge(a);
  EXPECT_DOUBLE_EQ(c.mean(), mean);
}

TEST(RunningStatsTest, NumericalStabilityLargeOffset) {
  // Welford should survive a large common offset.
  RunningStats s;
  for (double x : {1e9 + 4, 1e9 + 7, 1e9 + 13, 1e9 + 16}) s.add(x);
  EXPECT_NEAR(s.mean(), 1e9 + 10, 1e-3);
  EXPECT_NEAR(s.stddev(), std::sqrt(30.0), 1e-6);
}

}  // namespace
}  // namespace et
