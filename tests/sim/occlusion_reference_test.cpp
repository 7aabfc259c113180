// Terrain's line-of-sight kernel against an index-free oracle.
// occlusion_cause walks only the grid cells a ray crosses and keeps the
// lowest-index blocker; occlusion_cause_reference scans every obstacle in
// index order with the same predicate and no grid index at all. They must
// agree on every ray, including the cases where a cell-walk shortcut
// could miss a blocker: endpoints on cell corners and borders, rays
// running along grid lines, footprints that straddle or just touch cell
// borders, and both the forwarder's mast (2.5 m) and the drone's (45 m)
// viewpoints.
#include "sim/terrain.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/rng.h"

namespace agrarsec::sim {
namespace {

using Cause = Terrain::OcclusionCause;

constexpr double kCell = 10.0;  // Terrain's index cell size
constexpr double kMastAgl = 2.5;
constexpr double kDroneAgl = 45.0;

/// Resolves each ray per-ray, batched and through the reference; all
/// three must agree. Returns how many rays were blocked by an obstacle,
/// so callers can check the field actually exercises the obstacle path.
int expect_matches_reference(const Terrain& terrain, core::Vec2 from, double agl,
                             const std::vector<Terrain::LosTarget>& targets) {
  std::vector<Cause> batch;
  terrain.occlusion_cause_batch(from, agl, targets, batch);
  int obstacle_hits = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const Terrain::LosTarget& t = targets[i];
    const Cause expected =
        terrain.occlusion_cause_reference(from, agl, t.to_xy, t.to_agl);
    EXPECT_EQ(terrain.occlusion_cause(from, agl, t.to_xy, t.to_agl), expected)
        << "from (" << from.x << "," << from.y << ") agl " << agl << " to ("
        << t.to_xy.x << "," << t.to_xy.y << ") agl " << t.to_agl;
    EXPECT_EQ(batch[i], expected) << "batch ray " << i;
    if (expected != Cause::kNone && expected != Cause::kTerrain) ++obstacle_hits;
  }
  return obstacle_hits;
}

/// A point on the grid: a cell corner, a point on a vertical or a
/// horizontal cell border, or a free point, in [0, 200).
core::Vec2 grid_point(core::Rng& rng) {
  const double gx = kCell * static_cast<double>(rng.next_below(20));
  const double gy = kCell * static_cast<double>(rng.next_below(20));
  switch (rng.next_below(4)) {
    case 0: return {gx, gy};
    case 1: return {gx, rng.uniform(0.0, 200.0)};
    case 2: return {rng.uniform(0.0, 200.0), gy};
    default: return {rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)};
  }
}

/// Obstacles centred on or next to cell borders and corners: some cross
/// the border, some end exactly on it, some stop a hair short of it.
std::vector<Obstacle> border_obstacles(core::Rng& rng, std::size_t count) {
  std::vector<Obstacle> out;
  for (std::size_t i = 0; i < count; ++i) {
    Obstacle o;
    o.kind = static_cast<ObstacleKind>(rng.next_below(3));
    o.footprint.radius = rng.uniform(0.05, 2.0);
    o.height_m = rng.uniform(0.5, 20.0);
    const double gx = kCell * static_cast<double>(rng.next_below(21));
    const double gy = kCell * static_cast<double>(rng.next_below(21));
    const double r = o.footprint.radius;
    const double offsets[] = {0.0, r, -r, r + 1e-9, -r - 1e-9, 0.5 * r};
    const double ox = offsets[rng.next_below(6)];
    const double oy = rng.next_below(2) == 0 ? offsets[rng.next_below(6)]
                                             : rng.uniform(0.0, kCell);
    o.footprint.center = {gx + ox, gy + oy};
    out.push_back(o);
  }
  return out;
}

TEST(OcclusionReference, MatchesOverRandomizedGeneratedStands) {
  struct FieldSpec {
    double trees_per_ha;
    double boulders_per_ha;
    std::size_t hills;
    std::uint64_t seed;
  };
  const FieldSpec specs[] = {
      {400.0, 8.0, 6, 11},    // managed stand
      {1000.0, 40.0, 0, 12},  // thicket on flat ground
      {80.0, 30.0, 12, 13},   // sparse, hilly
  };
  for (const FieldSpec& spec : specs) {
    ForestConfig forest;
    forest.bounds = {{0, 0}, {200, 200}};
    forest.trees_per_hectare = spec.trees_per_ha;
    forest.boulders_per_hectare = spec.boulders_per_ha;
    forest.hill_count = spec.hills;
    core::Rng terrain_rng{spec.seed};
    const Terrain terrain = Terrain::generate(forest, terrain_rng);

    core::Rng rng{spec.seed * 31 + 7};
    int obstacle_hits = 0;
    for (int frame = 0; frame < 16; ++frame) {
      const core::Vec2 from = grid_point(rng);
      const double agl = frame % 2 == 0 ? kMastAgl : kDroneAgl;
      std::vector<Terrain::LosTarget> targets;
      for (int i = 0; i < 64; ++i) targets.push_back({grid_point(rng), rng.uniform(0.0, 2.5)});
      obstacle_hits += expect_matches_reference(terrain, from, agl, targets);
    }
    EXPECT_GT(obstacle_hits, 0) << "seed " << spec.seed;
  }
}

TEST(OcclusionReference, MatchesWithFootprintsOnCellBorders) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    core::Rng rng{seed};
    const Terrain terrain{{{0, 0}, {200, 200}}, border_obstacles(rng, 600),
                          {{{80, 120}, 6.0, 40.0}}};
    int obstacle_hits = 0;
    for (int frame = 0; frame < 16; ++frame) {
      const core::Vec2 from = grid_point(rng);
      const double agl = frame % 2 == 0 ? kMastAgl : kDroneAgl;
      std::vector<Terrain::LosTarget> targets;
      for (int i = 0; i < 64; ++i) targets.push_back({grid_point(rng), rng.uniform(0.0, 2.5)});
      obstacle_hits += expect_matches_reference(terrain, from, agl, targets);
    }
    EXPECT_GT(obstacle_hits, 0) << "seed " << seed;
  }
}

TEST(OcclusionReference, MatchesAlongGridLinesAndThroughCorners) {
  core::Rng rng{99};
  const Terrain terrain{{{0, 0}, {200, 200}}, border_obstacles(rng, 800), {}};
  int obstacle_hits = 0;
  for (int line = 0; line <= 20; ++line) {
    const double g = kCell * line;
    for (const double agl : {kMastAgl, kDroneAgl}) {
      // Along a vertical and a horizontal grid line, both directions.
      obstacle_hits += expect_matches_reference(
          terrain, {g, 0.0}, agl, {{{g, 200.0}, 1.5}, {{g, 95.0}, 0.5}});
      obstacle_hits += expect_matches_reference(
          terrain, {200.0, g}, agl, {{{0.0, g}, 1.5}, {{105.0, g}, 0.5}});
      // 45-degree rays through a run of cell corners, ending on corners.
      obstacle_hits += expect_matches_reference(
          terrain, {g, 0.0}, agl,
          {{{g + 100.0, 100.0}, 1.0}, {{g - 100.0, 100.0}, 1.0}, {{g + 30.0, 30.0}, 1.0}});
      // Corner to corner at other slopes (the planner's probe shape).
      obstacle_hits += expect_matches_reference(
          terrain, {g, 200.0 - g}, agl,
          {{{200.0 - g, g}, 1.0}, {{140.0, 180.0}, 1.0}, {{10.0, 40.0}, 1.0}});
    }
  }
  EXPECT_GT(obstacle_hits, 0);
}

}  // namespace
}  // namespace agrarsec::sim
