// Uniform-grid spatial index over moving 2D points. The worksite's hot
// loop needs three query shapes at fleet scale — "humans near this
// machine" (separation tracking, perception), "nearest live pile"
// (forwarder dispatch), and radius queries in general — and all of them
// were brute-force O(n) scans in the seed. The grid makes them O(local
// density) while staying *exact*: every query applies the same Euclidean
// distance predicate a brute-force scan would, so results are
// bit-identical to brute force (the parity tests enforce this).
//
// Determinism: query results are returned in ascending id order, which
// for monotonically allocated ids equals insertion order — the same order
// a brute-force scan over the backing vector visits. This keeps RNG
// consumption downstream (per-candidate detection rolls) unchanged.
//
// Thread-safety: the index has no internal synchronisation, but the const
// queries (query_radius with a caller-owned buffer, nearest, position,
// contains) keep no mutable scratch, so any number of threads may query
// concurrently while no mutation is in flight. A caller that queries
// from several threads must therefore split its work into a read phase
// (concurrent queries against the frozen grid) and a serial write phase
// (insert / update / remove).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/geometry.h"

namespace agrarsec::sim {

class SpatialIndex {
 public:
  /// `bounds` sizes the dense cell array; points outside the bounds are
  /// accepted and clamped into the border cells, so callers need not
  /// guarantee containment. `cell_size` trades memory for query locality;
  /// a good default is the dominant query radius.
  SpatialIndex(core::Aabb bounds, double cell_size);

  /// Inserts a point, or moves it if `id` is already present.
  void insert(std::uint64_t id, core::Vec2 position);

  /// Moves an existing point; inserts when absent (humans/machines move
  /// every step, so this is the hottest mutation).
  void update(std::uint64_t id, core::Vec2 position);

  /// Removes a point; no-op when absent (piles are removed on exhaustion).
  void remove(std::uint64_t id);

  [[nodiscard]] bool contains(std::uint64_t id) const {
    return entries_.find(id) != entries_.end();
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::optional<core::Vec2> position(std::uint64_t id) const;

  /// All ids with distance(position, center) <= radius, ascending id.
  [[nodiscard]] std::vector<std::uint64_t> query_radius(core::Vec2 center,
                                                        double radius) const;

  /// Allocation-free variant for per-step callers; `out` is cleared.
  void query_radius(core::Vec2 center, double radius,
                    std::vector<std::uint64_t>& out) const;

  /// Nearest point to `from` (ties broken towards the smaller id), or
  /// nullopt when the index is empty. Expanding-ring search; exact.
  [[nodiscard]] std::optional<std::uint64_t> nearest(core::Vec2 from) const;

 private:
  /// Cell payload: id + position inline, so queries never touch the hash
  /// map (one cache line per few candidates instead of a find per id).
  struct Item {
    std::uint64_t id = 0;
    core::Vec2 position;
  };
  struct Entry {
    std::size_t cell = 0;  ///< dense cell holding this id
    std::size_t slot = 0;  ///< index within the cell's item vector
  };

  [[nodiscard]] std::int64_t cell_x(double x) const;
  [[nodiscard]] std::int64_t cell_y(double y) const;
  [[nodiscard]] std::size_t cell_index(std::int64_t cx, std::int64_t cy) const {
    return static_cast<std::size_t>(cy) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(cx);
  }
  void place(std::uint64_t id, Entry& entry, core::Vec2 position);
  void unplace(const Entry& entry, std::uint64_t id);

  core::Aabb bounds_;
  double cell_size_;
  std::int64_t width_ = 1;   ///< cells per row
  std::int64_t height_ = 1;  ///< cells per column
  std::vector<std::vector<Item>> cells_;
  std::unordered_map<std::uint64_t, Entry> entries_;
};

}  // namespace agrarsec::sim
