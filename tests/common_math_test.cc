#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/math_util.h"

namespace himpact {
namespace {

TEST(CeilDivTest, ExactAndInexact) {
  EXPECT_EQ(CeilDiv(10, 5), 2u);
  EXPECT_EQ(CeilDiv(11, 5), 3u);
  EXPECT_EQ(CeilDiv(0, 5), 0u);
  EXPECT_EQ(CeilDiv(1, 1), 1u);
}

TEST(FloorLog2Test, PowersAndBetween) {
  EXPECT_EQ(FloorLog2(1), 0);
  EXPECT_EQ(FloorLog2(2), 1);
  EXPECT_EQ(FloorLog2(3), 1);
  EXPECT_EQ(FloorLog2(4), 2);
  EXPECT_EQ(FloorLog2(std::uint64_t{1} << 63), 63);
  EXPECT_EQ(FloorLog2((std::uint64_t{1} << 63) + 12345), 63);
}

TEST(CeilLog2Test, PowersAndBetween) {
  EXPECT_EQ(CeilLog2(1), 0);
  EXPECT_EQ(CeilLog2(2), 1);
  EXPECT_EQ(CeilLog2(3), 2);
  EXPECT_EQ(CeilLog2(4), 2);
  EXPECT_EQ(CeilLog2(5), 3);
  EXPECT_EQ(CeilLog2(std::uint64_t{1} << 62), 62);
}

TEST(LogOnePlusEpsTest, MatchesClosedForm) {
  EXPECT_NEAR(LogOnePlusEps(8.0, 1.0), 3.0, 1e-12);
  EXPECT_NEAR(LogOnePlusEps(1.0, 0.5), 0.0, 1e-12);
}

TEST(NumGeometricLevelsTest, CoversMaxValue) {
  for (const double eps : {0.01, 0.1, 0.5, 1.0}) {
    for (const std::uint64_t max : {1ull, 2ull, 100ull, 1000000ull}) {
      const int levels = NumGeometricLevels(max, eps);
      ASSERT_GE(levels, 1);
      // The top level must reach max.
      EXPECT_GE(std::pow(1.0 + eps, levels - 1), static_cast<double>(max))
          << "eps=" << eps << " max=" << max;
      // One fewer level must not suffice (unless max == 1).
      if (max > 1) {
        EXPECT_LT(std::pow(1.0 + eps, levels - 2), static_cast<double>(max));
      }
    }
  }
}

TEST(NumGeometricLevelsTest, GridFitsBoundsTheLevelCount) {
  EXPECT_TRUE(GeometricGridFits(1u << 20, 0.1));
  EXPECT_TRUE(GeometricGridFits(UINT64_MAX, 1e-4));
  EXPECT_TRUE(GeometricGridFits(1, 1e-300));  // one level covers [1, 1]
  EXPECT_FALSE(GeometricGridFits(1u << 20, 1e-9));
  EXPECT_FALSE(GeometricGridFits(2, 1e-300));  // 1 + eps == 1
  EXPECT_FALSE(GeometricGridFits(2, 0.0));
  EXPECT_FALSE(GeometricGridFits(2, -0.5));
  EXPECT_FALSE(GeometricGridFits(2, std::nan("")));
  // Where it fits, the grid is built and stays within the bound.
  const int levels = NumGeometricLevels(UINT64_MAX, 1e-4);
  EXPECT_GT(levels, 400000);
  EXPECT_LE(levels, kMaxGeometricLevels);
}

TEST(GeometricGridTest, PowersAreGeometric) {
  const GeometricGrid grid(1000, 0.25);
  ASSERT_GE(grid.num_levels(), 2);
  EXPECT_DOUBLE_EQ(grid.Power(0), 1.0);
  for (int i = 1; i < grid.num_levels(); ++i) {
    EXPECT_DOUBLE_EQ(grid.Power(i), grid.Power(i - 1) * 1.25);
  }
  EXPECT_GE(grid.Power(grid.num_levels() - 1), 1000.0);
}

TEST(GeometricGridTest, LevelFloorBrackets) {
  const GeometricGrid grid(1u << 20, 0.1);
  for (const double x : {1.0, 1.05, 2.0, 17.0, 1000.0, 1048576.0}) {
    const int level = grid.LevelFloor(x);
    ASSERT_GE(level, 0);
    EXPECT_LE(grid.Power(level), x);
    if (level + 1 < grid.num_levels()) {
      EXPECT_GT(grid.Power(level + 1), x);
    }
  }
}

TEST(GeometricGridTest, LevelFloorBelowOne) {
  const GeometricGrid grid(100, 0.5);
  EXPECT_EQ(grid.LevelFloor(0.0), -1);
  EXPECT_EQ(grid.LevelFloor(0.99), -1);
  EXPECT_EQ(grid.LevelFloor(1.0), 0);
}

// Property sweep: LevelFloor agrees with the definition on a dense set of
// points for many eps values.
class GridLevelProperty : public ::testing::TestWithParam<double> {};

TEST_P(GridLevelProperty, FloorMatchesDefinition) {
  const double eps = GetParam();
  const GeometricGrid grid(100000, eps);
  for (std::uint64_t v = 1; v <= 100000; v = v * 13 / 8 + 1) {
    const int level = grid.LevelFloor(static_cast<double>(v));
    ASSERT_GE(level, 0) << "v=" << v;
    EXPECT_LE(grid.Power(level), static_cast<double>(v));
    if (level + 1 < grid.num_levels()) {
      EXPECT_GT(grid.Power(level + 1), static_cast<double>(v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EpsSweep, GridLevelProperty,
                         ::testing::Values(0.01, 0.05, 0.1, 0.2, 0.5, 0.9));

}  // namespace
}  // namespace himpact
