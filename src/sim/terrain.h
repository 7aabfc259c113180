// Forest terrain: a smooth height field (sum of Gaussian hills) plus
// discrete obstacles (tree stems, boulders, brush). The central query is
// 3D line-of-sight, which is exactly what the paper's Figure 2 use case
// is about: terrain obstacles occlude the forwarder's ground-level view
// of people, while an elevated drone viewpoint clears them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/geometry.h"
#include "core/rng.h"

namespace agrarsec::sim {

enum class ObstacleKind : std::uint8_t { kTree = 0, kBoulder = 1, kBrush = 2 };

struct Obstacle {
  ObstacleKind kind = ObstacleKind::kTree;
  core::Circle footprint;
  double height_m = 0.0;  ///< occluding height above local ground
};

/// A smooth hill in the height field.
struct Hill {
  core::Vec2 center;
  double height_m = 0.0;
  double radius_m = 0.0;  ///< Gaussian sigma
};

struct ForestConfig {
  core::Aabb bounds{{0, 0}, {500, 500}};
  double trees_per_hectare = 400.0;  ///< typical managed Nordic forest
  double tree_radius_mean = 0.18;    ///< stem radius, metres
  double tree_height_mean = 16.0;
  double boulders_per_hectare = 8.0;
  double boulder_radius_mean = 1.1;
  double boulder_height_mean = 1.4;
  double brush_per_hectare = 40.0;
  double brush_radius_mean = 0.9;
  double brush_height_mean = 1.2;
  std::size_t hill_count = 6;
  double hill_height_max = 8.0;
  double hill_radius_mean = 60.0;
};

class Terrain {
 public:
  Terrain(core::Aabb bounds, std::vector<Obstacle> obstacles, std::vector<Hill> hills);

  /// Procedurally generates a forest stand.
  static Terrain generate(const ForestConfig& config, core::Rng& rng);

  [[nodiscard]] const core::Aabb& bounds() const { return bounds_; }
  [[nodiscard]] const std::vector<Obstacle>& obstacles() const { return obstacles_; }

  /// Ground elevation at a point.
  [[nodiscard]] double ground_height(core::Vec2 p) const;

  /// What (if anything) blocks the 3D sight line between two points given
  /// with heights *above ground* at their planar positions.
  enum class OcclusionCause : std::uint8_t {
    kNone = 0,
    kTree = 1,
    kBoulder = 2,
    kBrush = 3,
    kTerrain = 4,  ///< hill crest between the endpoints
  };
  [[nodiscard]] OcclusionCause occlusion_cause(core::Vec2 from_xy, double from_agl,
                                               core::Vec2 to_xy, double to_agl) const;

  /// One bundled sight line for occlusion_cause_batch: target planar
  /// position plus its height above local ground.
  struct LosTarget {
    core::Vec2 to_xy;
    double to_agl = 0.0;
  };

  /// Batched line-of-sight: resolves the occlusion cause of `count` rays
  /// that share one origin (a sensor frame) into out[i], each exactly
  /// equal to occlusion_cause(from_xy, from_agl, targets[i]...) — the
  /// equivalence test in tests/sim/occlusion_batch_test.cpp pins this
  /// bit-for-bit, degenerate rays included. The batch samples the
  /// origin's ground height once per bundle instead of once per ray.
  ///
  /// Every line-of-sight query (this, occlusion_cause, line_of_sight and
  /// occlusion_cause_reference) is stateless: it reads only data fixed at
  /// construction, so concurrent calls on one const Terrain are safe.
  void occlusion_cause_batch(core::Vec2 from_xy, double from_agl,
                             const LosTarget* targets, std::size_t count,
                             OcclusionCause* out) const;
  /// Vector convenience overload; resizes `out` to targets.size().
  void occlusion_cause_batch(core::Vec2 from_xy, double from_agl,
                             const std::vector<LosTarget>& targets,
                             std::vector<OcclusionCause>& out) const;

  /// 3D line-of-sight between two points given with heights *above ground*
  /// at their respective planar positions. Checks both obstacle occlusion
  /// and terrain (hill) occlusion.
  [[nodiscard]] bool line_of_sight(core::Vec2 from_xy, double from_agl,
                                   core::Vec2 to_xy, double to_agl) const {
    return occlusion_cause(from_xy, from_agl, to_xy, to_agl) == OcclusionCause::kNone;
  }

  /// Index-free reference for occlusion_cause: scans every obstacle in
  /// index order with the same blocking predicate, then the same terrain
  /// sampling. O(obstacles) per ray — the oracle of the line-of-sight
  /// parity tests and bench, not for the simulation's hot paths.
  [[nodiscard]] OcclusionCause occlusion_cause_reference(core::Vec2 from_xy,
                                                         double from_agl,
                                                         core::Vec2 to_xy,
                                                         double to_agl) const;

  /// True when the disc of `radius` at `p` overlaps an obstacle footprint
  /// (for machine/human placement and navigation).
  [[nodiscard]] bool blocked(core::Vec2 p, double radius) const;

  /// Obstacles whose footprint comes within `margin` (at most the 10 m
  /// cell size) of segment [a,b], in ascending obstacle-index order.
  [[nodiscard]] std::vector<const Obstacle*> obstacles_near_segment(
      core::Vec2 a, core::Vec2 b, double margin = 0.0) const;

  /// True when any obstacle footprint comes within `margin` of segment
  /// [a,b]. Same predicate as obstacles_near_segment but returns on the
  /// first hit without materialising the result — this is the planner's
  /// inner-loop query (path smoothing probes thousands of segments and
  /// only cares about clear/not-clear).
  [[nodiscard]] bool segment_blocked(core::Vec2 a, core::Vec2 b,
                                     double margin = 0.0) const;

  [[nodiscard]] std::size_t obstacle_count() const { return obstacles_.size(); }

 private:
  void build_index();
  /// One sight line with both endpoints' absolute heights resolved; dir
  /// is the planar unit direction (zero when len < 1e-9).
  struct Ray {
    core::Vec2 from;
    core::Vec2 to;
    core::Vec2 dir;
    double z_from = 0.0;
    double z_to = 0.0;
    double len = 0.0;
  };
  [[nodiscard]] Ray make_ray(core::Vec2 from_xy, double z_from, core::Vec2 to_xy,
                             double to_agl) const;
  /// The per-obstacle occlusion predicate, shared by the grid walk and
  /// the index-free reference.
  [[nodiscard]] bool obstacle_blocks(const Obstacle& o, const Ray& ray) const;
  /// Hill-crest occlusion: ground samples every 5 m along the ray.
  [[nodiscard]] OcclusionCause terrain_cause(const Ray& ray) const;
  /// Per-ray occlusion body with the origin's absolute height precomputed
  /// (z_from = ground_height(from_xy) + from_agl). Shared by the single
  /// and batched entry points so their results are identical by
  /// construction.
  [[nodiscard]] OcclusionCause occlusion_cause_from(core::Vec2 from_xy, double z_from,
                                                    core::Vec2 to_xy,
                                                    double to_agl) const;
  /// Dense-grid slot for a raw cell coordinate (the traverse_grid
  /// convention: floor(v / cell_size)); out-of-range coordinates clamp to
  /// the border. The grid covers every obstacle's padded box, so a clamped
  /// cell only widens a candidate set — the exact predicates keep results
  /// identical.
  [[nodiscard]] std::size_t cell_slot(std::int64_t cx, std::int64_t cy) const {
    cx = std::clamp<std::int64_t>(cx - min_cx_, 0, width_ - 1);
    cy = std::clamp<std::int64_t>(cy - min_cy_, 0, height_ - 1);
    return static_cast<std::size_t>(cy) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(cx);
  }

  core::Aabb bounds_;
  std::vector<Obstacle> obstacles_;
  std::vector<Hill> hills_;
  /// Upper bound on ground_height anywhere (sum of hill amplitudes):
  /// rays whose lowest endpoint clears it can skip terrain sampling
  /// entirely — exact, because the skipped test could never fire (the
  /// occlusion margin is 1e-9 m, orders of magnitude above the lerp's
  /// rounding error). This is what makes drone-altitude rays cheap.
  double hills_height_sum_ = 0.0;
  double cell_size_ = 10.0;

  // CSR cell index over a dense grid: obstacles are static after
  // construction, so cell membership lives in one flat array
  // (cell_items_[cell_start_[s] .. cell_start_[s+1]]) instead of a
  // hash map of vectors — the segment queries dominate the simulation
  // profile and become pure pointer arithmetic over contiguous memory.
  std::int64_t min_cx_ = 0;  ///< raw cell coordinate of grid column 0
  std::int64_t min_cy_ = 0;
  std::int64_t width_ = 1;
  std::int64_t height_ = 1;
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> cell_items_;
};

}  // namespace agrarsec::sim
