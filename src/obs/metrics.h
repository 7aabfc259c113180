// Process-wide metrics registry: named counters, gauges and histograms
// with O(1) hot-path updates. Instruments carry one accumulator lane per
// shard so the fleet service's parallel session batches can update them
// without locks or atomics; reads merge lanes in ascending lane order, which makes every
// exported integer quantity invariant under the thread count (uint64
// addition commutes). Double-valued fields (gauge values, histogram
// sum/min/max) are exact for the integer-valued samples the simulator
// feeds them, and min/max are order-free; exports are therefore
// bit-identical across thread counts for everything the parity tests
// compare.
//
// Threading contract (the fleet service's batches follow it):
//  - instrument creation (Registry::counter/gauge/histogram) and
//    ensure_lanes() are serial-phase only;
//  - add(n, shard) may run concurrently as long as each shard index is
//    driven by at most one thread at a time (ThreadPool guarantees this);
//  - value()/merged reads are serial-phase only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace agrarsec::obs {

class Registry;

/// Instruments whose name starts with this prefix carry wall-clock-derived
/// values (step-duration histograms, timing gauges). They are machine- and
/// timing-dependent by nature, so Telemetry::deterministic_json() excludes
/// them from the deterministic export the parity tests compare; they still
/// appear in the full artifact (Telemetry::to_json()).
inline constexpr std::string_view kWallPrefix = "wall.";

/// Monotonic counter. Hot path is a single indexed uint64 add.
class Counter {
 public:
  void add(std::uint64_t n = 1, std::size_t shard = 0) { lanes_[shard].v += n; }

  /// Sum over lanes in ascending lane order (thread-count-invariant).
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Lane& lane : lanes_) total += lane.v;
    return total;
  }

 private:
  friend class Registry;
  /// Padded to a cache line so adjacent shard lanes never false-share.
  struct alignas(64) Lane {
    std::uint64_t v = 0;
  };
  explicit Counter(std::size_t lanes) : lanes_(lanes) {}
  std::vector<Lane> lanes_;
};

/// Point-in-time double value. Serial contexts only (no shard lanes): the
/// simulator's gauges are written from drain phases.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  friend class Registry;
  Gauge() = default;
  double value_ = 0.0;
};

/// Fixed-range histogram: x < lo counts as underflow, x >= hi as
/// overflow, otherwise bin = floor((x - lo) / (hi - lo) * bins) clamped to
/// the last bin.
class Histogram {
 public:
  void add(double x, std::size_t shard = 0);

  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] std::size_t bins() const { return bins_; }
  [[nodiscard]] double bin_low(std::size_t i) const {
    return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(bins_);
  }

  /// Merged (lane-order) reads.
  [[nodiscard]] std::uint64_t bin_count(std::size_t i) const;
  [[nodiscard]] std::uint64_t underflow() const;
  [[nodiscard]] std::uint64_t overflow() const;
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double min() const;  ///< +inf when empty
  [[nodiscard]] double max() const;  ///< -inf when empty

 private:
  friend class Registry;
  struct alignas(64) Lane {
    std::vector<std::uint64_t> counts;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };
  Histogram(double lo, double hi, std::size_t bins, std::size_t lanes);

  double lo_;
  double hi_;
  std::size_t bins_;
  std::vector<Lane> lanes_;
};

/// Name-keyed instrument store. Instruments live behind unique_ptr in a
/// sorted map, so handles are stable for the registry's lifetime and
/// exports iterate in name order (deterministic JSON).
class Registry {
 public:
  explicit Registry(std::size_t lanes = 1) : lanes_(lanes == 0 ? 1 : lanes) {}

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create. The returned reference stays valid for the registry's
  /// lifetime. For histogram(), the (lo, hi, bins) shape is fixed by the
  /// first caller; later callers get the existing instrument unchanged.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, double lo, double hi, std::size_t bins);

  /// Grows every instrument (and future ones) to at least `lanes` shard
  /// lanes. Serial-phase only; existing lane contents are preserved.
  void ensure_lanes(std::size_t lanes);
  [[nodiscard]] std::size_t lanes() const { return lanes_; }

  /// Deterministic snapshot: {"counters":{...},"gauges":{...},
  /// "histograms":{...}} with name-sorted keys and stable field order.
  /// Instruments whose name starts with `exclude_prefix` are omitted
  /// (empty prefix = include everything); the deterministic telemetry
  /// view passes kWallPrefix to keep wall-clock instruments out.
  [[nodiscard]] std::string to_json(std::string_view exclude_prefix = {}) const;

  template <typename Fn>
  void for_each_counter(Fn&& fn) const {
    for (const auto& [name, c] : counters_) fn(name, *c);
  }
  template <typename Fn>
  void for_each_gauge(Fn&& fn) const {
    for (const auto& [name, g] : gauges_) fn(name, *g);
  }
  template <typename Fn>
  void for_each_histogram(Fn&& fn) const {
    for (const auto& [name, h] : histograms_) fn(name, *h);
  }

  /// Lookup without creation (nullptr when absent).
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;

 private:
  std::size_t lanes_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace agrarsec::obs
