// Exhaustive equivalence of Terrain::occlusion_cause_batch against the
// per-ray occlusion_cause over randomized obstacle/hill fields and the
// degenerate rays the batch path's shortcuts could plausibly break:
// zero-length rays, from == to with differing heights, endpoints aligned
// on cell boundaries, and drone-altitude rays that exercise the
// hills-height-sum terrain-sampling skip. The contract is bit-for-bit:
// the batch entry point must return exactly what the per-ray entry point
// returns for every ray, in any bundle order.
#include "sim/terrain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "core/rng.h"

namespace agrarsec::sim {
namespace {

using Cause = Terrain::OcclusionCause;

/// Bundles `targets` from `from`/`agl`, resolves both ways, and requires
/// exact agreement per ray.
void expect_batch_matches(const Terrain& terrain, core::Vec2 from, double agl,
                          const std::vector<Terrain::LosTarget>& targets,
                          const char* label) {
  std::vector<Cause> batch;
  terrain.occlusion_cause_batch(from, agl, targets, batch);
  ASSERT_EQ(batch.size(), targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const Cause single =
        terrain.occlusion_cause(from, agl, targets[i].to_xy, targets[i].to_agl);
    EXPECT_EQ(batch[i], single)
        << label << ": ray " << i << " from (" << from.x << "," << from.y
        << ") agl " << agl << " to (" << targets[i].to_xy.x << ","
        << targets[i].to_xy.y << ") agl " << targets[i].to_agl;
  }
}

TEST(OcclusionBatchTest, MatchesPerRayOverRandomizedFields) {
  // Several stand densities, including obstacle-free (pure terrain) and
  // hill-free (pure obstacles): each generated field gets frames of
  // random rays from ground-mast and drone-altitude origins.
  struct FieldSpec {
    double trees_per_ha;
    double brush_per_ha;
    std::size_t hills;
    std::uint64_t seed;
  };
  const FieldSpec specs[] = {
      {400.0, 40.0, 6, 1},   // dense managed stand
      {80.0, 10.0, 6, 2},    // sparse
      {0.0, 0.0, 6, 3},      // terrain-only occlusion
      {400.0, 40.0, 0, 4},   // obstacle-only (flat ground)
      {1000.0, 120.0, 12, 5} // degenerate thicket
  };
  for (const FieldSpec& spec : specs) {
    ForestConfig forest;
    forest.bounds = {{0, 0}, {200, 200}};
    forest.trees_per_hectare = spec.trees_per_ha;
    forest.brush_per_hectare = spec.brush_per_ha;
    forest.boulders_per_hectare = spec.trees_per_ha > 0 ? 8.0 : 0.0;
    forest.hill_count = spec.hills;
    core::Rng terrain_rng{spec.seed};
    const Terrain terrain = Terrain::generate(forest, terrain_rng);

    core::Rng rng{spec.seed * 7919 + 13};
    for (int frame = 0; frame < 8; ++frame) {
      const core::Vec2 from{rng.uniform(5.0, 195.0), rng.uniform(5.0, 195.0)};
      const double agl = frame % 2 == 0 ? rng.uniform(1.0, 3.5)   // mast
                                        : rng.uniform(25.0, 60.0);  // drone
      std::vector<Terrain::LosTarget> targets;
      for (int i = 0; i < 48; ++i) {
        targets.push_back({{rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)},
                           rng.uniform(0.0, 2.5)});
      }
      expect_batch_matches(terrain, from, agl, targets, "random field");
    }
  }
}

TEST(OcclusionBatchTest, DegenerateRays) {
  ForestConfig forest;
  forest.bounds = {{0, 0}, {200, 200}};
  core::Rng terrain_rng{42};
  const Terrain terrain = Terrain::generate(forest, terrain_rng);

  const core::Vec2 from{55.0, 85.0};
  std::vector<Terrain::LosTarget> targets;
  // from == to, equal heights (planar length exactly zero).
  targets.push_back({from, 1.7});
  // from == to, differing heights (still zero planar length).
  targets.push_back({from, 40.0});
  targets.push_back({from, 0.0});
  // Sub-epsilon planar offset (the < 1e-9 early-out boundary).
  targets.push_back({{from.x + 1e-12, from.y}, 1.7});
  targets.push_back({{from.x, from.y + 1e-10}, 1.7});
  // Endpoints exactly on cell-size multiples (grid cell 10 m): axis-
  // aligned rays that ride cell boundaries the whole way.
  targets.push_back({{50.0, 85.0}, 1.7});
  targets.push_back({{150.0, 85.0}, 1.7});
  targets.push_back({{55.0, 200.0}, 1.7});
  targets.push_back({{60.0, 90.0}, 1.7});
  // Long diagonal corner-to-corner and out-of-frame-corner rays.
  targets.push_back({{0.0, 0.0}, 1.7});
  targets.push_back({{200.0, 200.0}, 0.5});
  targets.push_back({{200.0, 0.0}, 2.0});
  // Target at drone altitude (upward ray clears all hills -> sampling
  // skip) and at negative-ish ground hug.
  targets.push_back({{120.0, 40.0}, 55.0});
  targets.push_back({{120.0, 40.0}, 0.0});
  expect_batch_matches(terrain, from, 1.9, targets, "degenerate, mast origin");
  expect_batch_matches(terrain, from, 45.0, targets, "degenerate, drone origin");
  // Origin itself on a cell boundary.
  expect_batch_matches(terrain, {60.0, 90.0}, 2.2, targets,
                       "degenerate, boundary origin");
}

TEST(OcclusionBatchTest, BundleOrderDoesNotChangeResults) {
  // Shuffling the input bundle must permute the outputs identically
  // (out[i] always belongs to targets[i]).
  ForestConfig forest;
  forest.bounds = {{0, 0}, {200, 200}};
  core::Rng terrain_rng{7};
  const Terrain terrain = Terrain::generate(forest, terrain_rng);

  core::Rng rng{2024};
  const core::Vec2 from{100.0, 100.0};
  std::vector<Terrain::LosTarget> targets;
  for (int i = 0; i < 64; ++i) {
    targets.push_back({{rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)},
                       rng.uniform(0.5, 2.0)});
  }
  std::vector<Cause> base;
  terrain.occlusion_cause_batch(from, 2.5, targets, base);

  // Deterministic Fisher-Yates over indices, three different shuffles.
  std::vector<std::size_t> order(targets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = order.size(); i > 1; --i) {
      const std::size_t j =
          static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(i)));
      std::swap(order[i - 1], order[j]);
    }
    std::vector<Terrain::LosTarget> shuffled(targets.size());
    for (std::size_t i = 0; i < order.size(); ++i) shuffled[i] = targets[order[i]];
    std::vector<Cause> out;
    terrain.occlusion_cause_batch(from, 2.5, shuffled, out);
    ASSERT_EQ(out.size(), shuffled.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(out[i], base[order[i]]) << "round " << round << " slot " << i;
    }
  }
}

TEST(OcclusionBatchTest, SingleRayAndEmptyBundles) {
  ForestConfig forest;
  forest.bounds = {{0, 0}, {100, 100}};
  core::Rng terrain_rng{11};
  const Terrain terrain = Terrain::generate(forest, terrain_rng);

  std::vector<Terrain::LosTarget> empty;
  std::vector<Cause> out{Cause::kTree};  // stale contents must be cleared
  terrain.occlusion_cause_batch({10, 10}, 2.0, empty, out);
  EXPECT_TRUE(out.empty());

  std::vector<Terrain::LosTarget> one{{{90.0, 90.0}, 1.5}};
  terrain.occlusion_cause_batch({10, 10}, 2.0, one, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], terrain.occlusion_cause({10, 10}, 2.0, {90.0, 90.0}, 1.5));
}

// Line-of-sight queries keep no scratch, so threads may share one const
// Terrain: bundles resolved concurrently equal the serial answers (and
// the TSan pass in scripts/check.sh sees no race).
TEST(OcclusionBatchTest, ConcurrentBundlesOnOneTerrainMatchSerial) {
  ForestConfig forest;
  forest.bounds = {{0, 0}, {200, 200}};
  core::Rng terrain_rng{21};
  const Terrain terrain = Terrain::generate(forest, terrain_rng);

  constexpr int kThreads = 2;
  core::Rng rng{77};
  std::vector<core::Vec2> origins;
  std::vector<std::vector<Terrain::LosTarget>> bundles;
  for (int f = 0; f < 8 * kThreads; ++f) {
    origins.push_back({rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)});
    bundles.emplace_back();
    for (int i = 0; i < 48; ++i) {
      bundles.back().push_back({{rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)},
                                rng.uniform(0.5, 2.0)});
    }
  }
  std::vector<std::vector<Cause>> serial(bundles.size()), parallel(bundles.size());
  for (std::size_t f = 0; f < bundles.size(); ++f) {
    terrain.occlusion_cause_batch(origins[f], 2.5, bundles[f], serial[f]);
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t f = static_cast<std::size_t>(t); f < bundles.size(); f += kThreads) {
        terrain.occlusion_cause_batch(origins[f], 2.5, bundles[f], parallel[f]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(parallel, serial);
}

}  // namespace
}  // namespace agrarsec::sim
