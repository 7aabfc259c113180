// Step-phase tracing: lightweight wall-clock spans around the worksite's
// step phases plus per-shard busy-time lanes fed by the fleet service's
// ThreadPool shard observer. Strictly observation-only — no value read
// from a timer ever feeds back into simulation state, so determinism is
// untouched.
// Timings are wall-clock and therefore machine-dependent; the telemetry
// exporter keeps them out of the deterministic view (they appear only in
// the full artifact / wall-clock annex).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace agrarsec::obs {

using PhaseId = std::size_t;

class Tracer {
 public:
  explicit Tracer(std::size_t shards = 1) : shard_busy_(shards == 0 ? 1 : shards) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Registers (get-or-create) a phase by name. Serial-phase only; cache
  /// the id, phase lookup is not for hot paths.
  PhaseId phase(std::string_view name);

  struct PhaseStats {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
  };

  void record(PhaseId id, std::uint64_t ns) {
    PhaseStats& s = stats_[id];
    ++s.calls;
    s.total_ns += ns;
    if (ns > s.max_ns) s.max_ns = ns;
  }

  /// RAII span: measures the enclosing scope into `id` at destruction.
  class Span {
   public:
    Span(Tracer& tracer, PhaseId id) noexcept
        : tracer_(&tracer), id_(id), start_ns_(now_ns()) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { tracer_->record(id_, now_ns() - start_ns_); }

   private:
    Tracer* tracer_;
    PhaseId id_;
    std::uint64_t start_ns_;
  };

  [[nodiscard]] Span scoped(PhaseId id) { return Span(*this, id); }

  /// Adds busy time to a shard lane. May be called concurrently from the
  /// pool's workers as long as each shard index has one writer at a time
  /// (the pool guarantees this); lanes are cache-line padded.
  void add_shard_busy(std::size_t shard, std::uint64_t ns) {
    if (shard < shard_busy_.size()) shard_busy_[shard].ns += ns;
  }

  /// Grows the shard lane set. Serial-phase only.
  void ensure_shards(std::size_t shards) {
    if (shards > shard_busy_.size()) shard_busy_.resize(shards);
  }

  [[nodiscard]] std::size_t phase_count() const { return names_.size(); }
  [[nodiscard]] const std::string& phase_name(PhaseId id) const { return names_[id]; }
  [[nodiscard]] const PhaseStats& stats(PhaseId id) const { return stats_[id]; }
  [[nodiscard]] std::size_t shard_count() const { return shard_busy_.size(); }
  [[nodiscard]] std::uint64_t shard_busy_ns(std::size_t shard) const {
    return shard_busy_[shard].ns;
  }

  /// Monotonic wall clock in nanoseconds (steady_clock).
  static std::uint64_t now_ns();

 private:
  struct alignas(64) BusyLane {
    std::uint64_t ns = 0;
  };
  std::vector<std::string> names_;
  std::vector<PhaseStats> stats_;
  std::vector<BusyLane> shard_busy_;
};

}  // namespace agrarsec::obs
