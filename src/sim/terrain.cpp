#include "sim/terrain.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace agrarsec::sim {

Terrain::Terrain(core::Aabb bounds, std::vector<Obstacle> obstacles,
                 std::vector<Hill> hills)
    : bounds_(bounds), obstacles_(std::move(obstacles)), hills_(std::move(hills)) {
  for (const Hill& hill : hills_) hills_height_sum_ += hill.height_m;
  build_index();
}

Terrain Terrain::generate(const ForestConfig& config, core::Rng& rng) {
  const double area_ha =
      config.bounds.width() * config.bounds.height() / 10000.0;

  std::vector<Obstacle> obstacles;
  auto scatter = [&](ObstacleKind kind, double per_ha, double radius_mean,
                     double height_mean) {
    const auto count = rng.poisson(per_ha * area_ha);
    for (std::uint64_t i = 0; i < count; ++i) {
      Obstacle o;
      o.kind = kind;
      o.footprint.center = {rng.uniform(config.bounds.min.x, config.bounds.max.x),
                            rng.uniform(config.bounds.min.y, config.bounds.max.y)};
      o.footprint.radius = std::max(0.05, rng.normal(radius_mean, radius_mean * 0.3));
      o.height_m = std::max(0.3, rng.normal(height_mean, height_mean * 0.25));
      obstacles.push_back(o);
    }
  };
  scatter(ObstacleKind::kTree, config.trees_per_hectare, config.tree_radius_mean,
          config.tree_height_mean);
  scatter(ObstacleKind::kBoulder, config.boulders_per_hectare,
          config.boulder_radius_mean, config.boulder_height_mean);
  scatter(ObstacleKind::kBrush, config.brush_per_hectare, config.brush_radius_mean,
          config.brush_height_mean);

  std::vector<Hill> hills;
  for (std::size_t i = 0; i < config.hill_count; ++i) {
    Hill h;
    h.center = {rng.uniform(config.bounds.min.x, config.bounds.max.x),
                rng.uniform(config.bounds.min.y, config.bounds.max.y)};
    h.height_m = rng.uniform(0.5, config.hill_height_max);
    h.radius_m = std::max(10.0, rng.normal(config.hill_radius_mean,
                                           config.hill_radius_mean * 0.3));
    hills.push_back(h);
  }

  return Terrain{config.bounds, std::move(obstacles), std::move(hills)};
}

void Terrain::build_index() {
  const auto cell_of = [this](double v) {
    return static_cast<std::int64_t>(std::floor(v / cell_size_));
  };
  // Each obstacle is registered in every cell its footprint's bounding
  // box, widened by kIndexPad, overlaps. The pad dwarfs the DDA's and the
  // cell division's rounding (~1e-12 m on a kilometre-scale site), so a
  // footprint that touches a cell within rounding is still listed there
  // and occlusion_cause_from can visit the crossed cells alone.
  constexpr double kIndexPad = 1e-6;
  struct CellBox {
    std::int64_t lo_x, lo_y, hi_x, hi_y;
  };
  const auto box_of = [&](const Obstacle& o) {
    const double reach = o.footprint.radius + kIndexPad;
    return CellBox{cell_of(o.footprint.center.x - reach),
                   cell_of(o.footprint.center.y - reach),
                   cell_of(o.footprint.center.x + reach),
                   cell_of(o.footprint.center.y + reach)};
  };

  // Grid extent: the worksite bounds, widened to any footprint that pokes
  // past them, so every obstacle has an in-range home cell.
  min_cx_ = cell_of(bounds_.min.x);
  min_cy_ = cell_of(bounds_.min.y);
  std::int64_t max_cx = cell_of(bounds_.max.x);
  std::int64_t max_cy = cell_of(bounds_.max.y);
  for (const Obstacle& o : obstacles_) {
    const CellBox box = box_of(o);
    min_cx_ = std::min(min_cx_, box.lo_x);
    min_cy_ = std::min(min_cy_, box.lo_y);
    max_cx = std::max(max_cx, box.hi_x);
    max_cy = std::max(max_cy, box.hi_y);
  }
  width_ = max_cx - min_cx_ + 1;
  height_ = max_cy - min_cy_ + 1;

  const std::size_t cell_count =
      static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  cell_start_.assign(cell_count + 1, 0);

  // Two-pass counting sort into the CSR arrays. Iterating obstacles in
  // index order in the fill pass leaves each cell's list ascending, which
  // the occlusion walk's lowest-index search relies on.
  const auto each_cell = [&](const Obstacle& o, const auto& fn) {
    const CellBox box = box_of(o);
    for (std::int64_t cy = box.lo_y; cy <= box.hi_y; ++cy) {
      for (std::int64_t cx = box.lo_x; cx <= box.hi_x; ++cx) {
        fn(cell_slot(cx, cy));
      }
    }
  };
  for (const Obstacle& o : obstacles_) {
    each_cell(o, [&](std::size_t s) { ++cell_start_[s + 1]; });
  }
  for (std::size_t s = 1; s <= cell_count; ++s) cell_start_[s] += cell_start_[s - 1];
  cell_items_.resize(cell_start_[cell_count]);
  std::vector<std::uint32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (std::uint32_t i = 0; i < obstacles_.size(); ++i) {
    each_cell(obstacles_[i], [&](std::size_t s) { cell_items_[cursor[s]++] = i; });
  }
}

double Terrain::ground_height(core::Vec2 p) const {
  double h = 0.0;
  for (const Hill& hill : hills_) {
    const double d2 = (p - hill.center).norm_sq();
    h += hill.height_m * std::exp(-d2 / (2.0 * hill.radius_m * hill.radius_m));
  }
  return h;
}

std::vector<const Obstacle*> Terrain::obstacles_near_segment(core::Vec2 a, core::Vec2 b,
                                                             double margin) const {
  // The 3x3 neighbourhood of each crossed cell covers footprints within a
  // cell of the segment, so any margin up to the cell size is found; the
  // exact distance predicate then decides.
  std::vector<std::uint32_t> candidates;
  core::traverse_grid(a, b, cell_size_, [&](std::int64_t cx, std::int64_t cy) {
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      for (std::int64_t dx = -1; dx <= 1; ++dx) {
        const std::size_t s = cell_slot(cx + dx, cy + dy);
        candidates.insert(candidates.end(), cell_items_.begin() + cell_start_[s],
                          cell_items_.begin() + cell_start_[s + 1]);
      }
    }
    return true;
  });
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());

  std::vector<const Obstacle*> out;
  for (std::uint32_t i : candidates) {
    const Obstacle& o = obstacles_[i];
    if (core::point_segment_distance(o.footprint.center, a, b) <=
        o.footprint.radius + margin) {
      out.push_back(&o);
    }
  }
  return out;
}

bool Terrain::segment_blocked(core::Vec2 a, core::Vec2 b, double margin) const {
  bool hit = false;
  core::traverse_grid(a, b, cell_size_, [&](std::int64_t cx, std::int64_t cy) {
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      for (std::int64_t dx = -1; dx <= 1; ++dx) {
        const std::size_t s = cell_slot(cx + dx, cy + dy);
        for (std::uint32_t k = cell_start_[s]; k < cell_start_[s + 1]; ++k) {
          const Obstacle& o = obstacles_[cell_items_[k]];
          if (core::point_segment_distance(o.footprint.center, a, b) <=
              o.footprint.radius + margin) {
            hit = true;
            return false;  // stop the traversal on the first blocker
          }
        }
      }
    }
    return true;
  });
  return hit;
}

namespace {

Terrain::OcclusionCause cause_of(ObstacleKind kind) {
  switch (kind) {
    case ObstacleKind::kTree: return Terrain::OcclusionCause::kTree;
    case ObstacleKind::kBoulder: return Terrain::OcclusionCause::kBoulder;
    case ObstacleKind::kBrush: return Terrain::OcclusionCause::kBrush;
  }
  return Terrain::OcclusionCause::kNone;
}

constexpr std::uint32_t kNoObstacle = std::numeric_limits<std::uint32_t>::max();

}  // namespace

Terrain::Ray Terrain::make_ray(core::Vec2 from_xy, double z_from, core::Vec2 to_xy,
                               double to_agl) const {
  Ray ray;
  ray.from = from_xy;
  ray.to = to_xy;
  ray.z_from = z_from;
  ray.z_to = ground_height(to_xy) + to_agl;
  ray.len = core::distance(from_xy, to_xy);
  if (ray.len >= 1e-9) ray.dir = (to_xy - from_xy) * (1.0 / ray.len);
  return ray;
}

bool Terrain::obstacle_blocks(const Obstacle& o, const Ray& ray) const {
  // An obstacle blocks the ray when the ray's height at the crossing
  // point is below the obstacle's top (ground + height).
  if (core::point_segment_distance(o.footprint.center, ray.from, ray.to) >
      o.footprint.radius) {
    return false;
  }
  const double t = std::clamp((o.footprint.center - ray.from).dot(ray.dir), 0.0, ray.len);
  // Skip obstacles essentially at an endpoint (the observer/target's own
  // immediate surroundings do not self-occlude).
  if (t < 0.5 || t > ray.len - 0.5) return false;
  const double ray_z = ray.z_from + (ray.z_to - ray.z_from) * (t / ray.len);
  const core::Vec2 at = ray.from + ray.dir * t;
  return ray_z < ground_height(at) + o.height_m;
}

Terrain::OcclusionCause Terrain::terrain_cause(const Ray& ray) const {
  // Sample the ground along the ray — unless the ray's lowest endpoint
  // already clears the summed hill amplitudes, in which case no sample
  // could come within 1e-9 of the ray (the lerp stays within a few ulps
  // of [min(z), max(z)], far inside that margin).
  if (std::min(ray.z_from, ray.z_to) >= hills_height_sum_) return OcclusionCause::kNone;
  constexpr double kSample = 5.0;
  const int samples = std::max(2, static_cast<int>(ray.len / kSample));
  for (int i = 1; i < samples; ++i) {
    const double t = static_cast<double>(i) / samples;
    const core::Vec2 at = ray.from + (ray.to - ray.from) * t;
    const double ray_z = ray.z_from + (ray.z_to - ray.z_from) * t;
    if (ray_z < ground_height(at) - 1e-9) return OcclusionCause::kTerrain;
  }
  return OcclusionCause::kNone;
}

Terrain::OcclusionCause Terrain::occlusion_cause_from(core::Vec2 from_xy,
                                                      double z_from,
                                                      core::Vec2 to_xy,
                                                      double to_agl) const {
  const Ray ray = make_ray(from_xy, z_from, to_xy, to_agl);
  if (ray.len < 1e-9) return OcclusionCause::kNone;

  // The answer is the lowest-index blocking obstacle. Only the cells the
  // ray crosses are visited: a blocker's footprint meets the segment, and
  // the padded registration (build_index) lists it in every cell that
  // meeting point can fall in. Each cell's list ascends, so a cell stops
  // at the first blocker or at the best index found so far.
  std::uint32_t best = kNoObstacle;
  core::traverse_grid(from_xy, to_xy, cell_size_, [&](std::int64_t cx, std::int64_t cy) {
    const std::size_t s = cell_slot(cx, cy);
    for (std::uint32_t k = cell_start_[s]; k < cell_start_[s + 1]; ++k) {
      const std::uint32_t i = cell_items_[k];
      if (i >= best) break;
      if (obstacle_blocks(obstacles_[i], ray)) {
        best = i;
        break;
      }
    }
    return true;
  });
  if (best != kNoObstacle) return cause_of(obstacles_[best].kind);
  return terrain_cause(ray);
}

Terrain::OcclusionCause Terrain::occlusion_cause(core::Vec2 from_xy, double from_agl,
                                                 core::Vec2 to_xy,
                                                 double to_agl) const {
  return occlusion_cause_from(from_xy, ground_height(from_xy) + from_agl, to_xy,
                              to_agl);
}

Terrain::OcclusionCause Terrain::occlusion_cause_reference(core::Vec2 from_xy,
                                                           double from_agl,
                                                           core::Vec2 to_xy,
                                                           double to_agl) const {
  const Ray ray = make_ray(from_xy, ground_height(from_xy) + from_agl, to_xy, to_agl);
  if (ray.len < 1e-9) return OcclusionCause::kNone;
  for (const Obstacle& o : obstacles_) {
    if (obstacle_blocks(o, ray)) return cause_of(o.kind);
  }
  return terrain_cause(ray);
}

void Terrain::occlusion_cause_batch(core::Vec2 from_xy, double from_agl,
                                    const LosTarget* targets, std::size_t count,
                                    OcclusionCause* out) const {
  if (count == 0) return;  // sensors often have no candidate in range
  // One origin ground sample serves the whole bundle (same expression as
  // the per-ray path, so z_from is bit-identical).
  const double z_from = ground_height(from_xy) + from_agl;
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = occlusion_cause_from(from_xy, z_from, targets[i].to_xy, targets[i].to_agl);
  }
}

void Terrain::occlusion_cause_batch(core::Vec2 from_xy, double from_agl,
                                    const std::vector<LosTarget>& targets,
                                    std::vector<OcclusionCause>& out) const {
  out.resize(targets.size());
  occlusion_cause_batch(from_xy, from_agl, targets.data(), targets.size(),
                        out.data());
}

bool Terrain::blocked(core::Vec2 p, double radius) const {
  const auto cx = static_cast<std::int64_t>(std::floor(p.x / cell_size_));
  const auto cy = static_cast<std::int64_t>(std::floor(p.y / cell_size_));
  for (std::int64_t dy = -1; dy <= 1; ++dy) {
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      const std::size_t s = cell_slot(cx + dx, cy + dy);
      for (std::uint32_t k = cell_start_[s]; k < cell_start_[s + 1]; ++k) {
        const Obstacle& o = obstacles_[cell_items_[k]];
        if (core::distance(o.footprint.center, p) < o.footprint.radius + radius) {
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace agrarsec::sim
