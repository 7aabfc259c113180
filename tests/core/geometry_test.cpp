#include "core/geometry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <set>
#include <utility>
#include <vector>

#include "core/rng.h"

namespace agrarsec::core {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1, 2}, b{3, -1};
  EXPECT_EQ((a + b), (Vec2{4, 1}));
  EXPECT_EQ((a - b), (Vec2{-2, 3}));
  EXPECT_EQ((a * 2.0), (Vec2{2, 4}));
}

TEST(Vec2, NormAndDot) {
  const Vec2 a{3, 4};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm_sq(), 25.0);
  EXPECT_DOUBLE_EQ(a.dot({1, 1}), 7.0);
  EXPECT_DOUBLE_EQ(a.cross({1, 0}), -4.0);
}

TEST(Vec2, NormalizedZeroIsZero) {
  EXPECT_EQ(Vec2{}.normalized(), (Vec2{}));
}

TEST(Vec2, Rotated) {
  const Vec2 a{1, 0};
  const Vec2 r = a.rotated(std::numbers::pi / 2);
  EXPECT_NEAR(r.x, 0.0, 1e-12);
  EXPECT_NEAR(r.y, 1.0, 1e-12);
}

TEST(Vec3, DistanceIncludesHeight) {
  const Vec3 a{0, 0, 0}, b{0, 0, 5};
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
}

TEST(Angles, WrapAngle) {
  EXPECT_NEAR(wrap_angle(3 * std::numbers::pi), std::numbers::pi, 1e-12);
  EXPECT_NEAR(wrap_angle(-3 * std::numbers::pi), std::numbers::pi, 1e-12);
  EXPECT_NEAR(wrap_angle(0.5), 0.5, 1e-12);
}

TEST(Angles, AngularDistanceShortestWay) {
  EXPECT_NEAR(angular_distance(0.1, 2 * std::numbers::pi - 0.1), 0.2, 1e-9);
}

TEST(Aabb, ContainsAndClamp) {
  const Aabb box{{0, 0}, {10, 5}};
  EXPECT_TRUE(box.contains({5, 2}));
  EXPECT_FALSE(box.contains({11, 2}));
  EXPECT_EQ(box.clamp({12, -3}), (Vec2{10, 0}));
  EXPECT_DOUBLE_EQ(box.width(), 10.0);
  EXPECT_DOUBLE_EQ(box.height(), 5.0);
}

TEST(Circle, Contains) {
  const Circle c{{0, 0}, 2.0};
  EXPECT_TRUE(c.contains({1, 1}));
  EXPECT_FALSE(c.contains({2, 2}));
}

TEST(Segment, PointSegmentDistance) {
  EXPECT_DOUBLE_EQ(point_segment_distance({0, 1}, {-1, 0}, {1, 0}), 1.0);
  // Beyond the endpoint: distance to endpoint.
  EXPECT_DOUBLE_EQ(point_segment_distance({3, 0}, {-1, 0}, {1, 0}), 2.0);
  // Degenerate segment.
  EXPECT_DOUBLE_EQ(point_segment_distance({3, 4}, {0, 0}, {0, 0}), 5.0);
}

TEST(Segment, IntersectsCircle) {
  const Circle c{{0, 0}, 1.0};
  EXPECT_TRUE(segment_intersects_circle({-2, 0}, {2, 0}, c));
  EXPECT_FALSE(segment_intersects_circle({-2, 2}, {2, 2}, c));
  // Tangent (distance == radius) does not count as blocking.
  EXPECT_FALSE(segment_intersects_circle({-2, 1}, {2, 1}, c));
}

TEST(GridTraversal, VisitsStartAndEndCells) {
  std::vector<std::pair<std::int64_t, std::int64_t>> cells;
  traverse_grid({0.5, 0.5}, {3.5, 0.5}, 1.0, [&](std::int64_t x, std::int64_t y) {
    cells.emplace_back(x, y);
    return true;
  });
  ASSERT_FALSE(cells.empty());
  EXPECT_EQ(cells.front(), (std::pair<std::int64_t, std::int64_t>{0, 0}));
  EXPECT_EQ(cells.back(), (std::pair<std::int64_t, std::int64_t>{3, 0}));
  EXPECT_EQ(cells.size(), 4u);
}

TEST(GridTraversal, DiagonalVisitsContiguousCells) {
  std::vector<std::pair<std::int64_t, std::int64_t>> cells;
  traverse_grid({0.1, 0.1}, {2.9, 2.9}, 1.0, [&](std::int64_t x, std::int64_t y) {
    cells.emplace_back(x, y);
    return true;
  });
  // Each step moves one cell in x or y.
  for (std::size_t i = 1; i < cells.size(); ++i) {
    const auto dx = std::abs(cells[i].first - cells[i - 1].first);
    const auto dy = std::abs(cells[i].second - cells[i - 1].second);
    EXPECT_EQ(dx + dy, 1);
  }
  EXPECT_EQ(cells.front(), (std::pair<std::int64_t, std::int64_t>{0, 0}));
  EXPECT_EQ(cells.back(), (std::pair<std::int64_t, std::int64_t>{2, 2}));
}

TEST(GridTraversal, EarlyStop) {
  int visited = 0;
  traverse_grid({0.5, 0.5}, {10.5, 0.5}, 1.0, [&](std::int64_t, std::int64_t) {
    ++visited;
    return visited < 3;
  });
  EXPECT_EQ(visited, 3);
}

TEST(GridTraversal, SingleCell) {
  int visited = 0;
  traverse_grid({0.2, 0.2}, {0.8, 0.8}, 1.0, [&](std::int64_t x, std::int64_t y) {
    ++visited;
    EXPECT_EQ(x, 0);
    EXPECT_EQ(y, 0);
    return true;
  });
  EXPECT_EQ(visited, 1);
}

TEST(GridTraversal, NegativeCoordinates) {
  std::vector<std::pair<std::int64_t, std::int64_t>> cells;
  traverse_grid({-1.5, -0.5}, {1.5, -0.5}, 1.0, [&](std::int64_t x, std::int64_t y) {
    cells.emplace_back(x, y);
    return true;
  });
  EXPECT_EQ(cells.front(), (std::pair<std::int64_t, std::int64_t>{-2, -1}));
  EXPECT_EQ(cells.back(), (std::pair<std::int64_t, std::int64_t>{1, -1}));
}

using Cell = std::pair<std::int64_t, std::int64_t>;

/// Walks [a, b] and returns the visited cells, giving up after `cap`
/// visits so a runaway walk fails fast instead of spinning.
std::vector<Cell> walk(Vec2 a, Vec2 b, double cell, std::size_t cap) {
  std::vector<Cell> cells;
  traverse_grid(a, b, cell, [&](std::int64_t x, std::int64_t y) {
    cells.emplace_back(x, y);
    return cells.size() < cap;
  });
  return cells;
}

Cell cell_of(Vec2 p, double cell) {
  return {static_cast<std::int64_t>(std::floor(p.x / cell)),
          static_cast<std::int64_t>(std::floor(p.y / cell))};
}

// Regression: a planner smoothing probe ending exactly on a 10 m grid
// corner. The DDA's t = 1 tie stepped x past the end column and the walk
// ran on for ~1.26 million clamped cells.
TEST(GridTraversal, SegmentEndingOnGridCornerStopsAtEndCell) {
  const std::vector<Cell> cells = walk({370, 320}, {140, 380}, 10.0, 1000);
  EXPECT_LE(cells.size(), 30u);
  ASSERT_FALSE(cells.empty());
  EXPECT_EQ(cells.front(), (Cell{37, 32}));
  EXPECT_EQ(cells.back(), (Cell{14, 38}));
}

// A NaN endpoint has no cell; the walk must return rather than step an
// axis that can never reach its end.
TEST(GridTraversal, NonFiniteEndpointsVisitNothing) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(walk({nan, 5.0}, {20.0, 5.0}, 10.0, 10).empty());
  EXPECT_TRUE(walk({5.0, 5.0}, {5.0, nan}, 10.0, 10).empty());
}

// Endpoints snapped to grid corners and grid lines, 45-degree rays
// included: every walk starts in the start cell, ends in the end cell and
// is a 4-connected path of exactly |dcx| + |dcy| steps.
TEST(GridTraversal, SnappedEndpointsWalkExactlyToTheEndCell) {
  constexpr double kCell = 10.0;
  Rng rng{20261020};
  const auto snapped = [&]() -> Vec2 {
    const double gx = kCell * static_cast<double>(rng.next_below(61)) - 100.0;
    const double gy = kCell * static_cast<double>(rng.next_below(61)) - 100.0;
    switch (rng.next_below(3)) {
      case 0: return {gx, gy};                           // grid corner
      case 1: return {gx, rng.uniform(-100.0, 500.0)};   // vertical line
      default: return {rng.uniform(-100.0, 500.0), gy};  // horizontal line
    }
  };
  for (int n = 0; n < 100000; ++n) {
    const Vec2 a = snapped();
    Vec2 b = snapped();
    if (n % 4 == 0) {  // 45-degree ray, from a corner or a line point
      const double d = n % 8 == 0 ? kCell * static_cast<double>(rng.next_below(20) + 1)
                                  : rng.uniform(1.0, 200.0);
      b = a + Vec2{rng.next_below(2) == 0 ? d : -d, rng.next_below(2) == 0 ? d : -d};
    }
    const Cell start = cell_of(a, kCell), end = cell_of(b, kCell);
    const std::size_t expected = static_cast<std::size_t>(
        std::abs(end.first - start.first) + std::abs(end.second - start.second) + 1);
    const std::vector<Cell> cells = walk(a, b, kCell, expected + 1);
    ASSERT_EQ(cells.size(), expected)
        << "(" << a.x << "," << a.y << ") -> (" << b.x << "," << b.y << ")";
    EXPECT_EQ(cells.front(), start);
    EXPECT_EQ(cells.back(), end);
    for (std::size_t i = 1; i < cells.size(); ++i) {
      ASSERT_EQ(std::abs(cells[i].first - cells[i - 1].first) +
                    std::abs(cells[i].second - cells[i - 1].second),
                1);
    }
  }
}

}  // namespace
}  // namespace agrarsec::core
