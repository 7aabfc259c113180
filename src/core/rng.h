// Deterministic RNG for the whole stack. All simulation randomness flows
// through SplitMix64-seeded xoshiro256**, so a worksite run is exactly
// reproducible from its seed — a prerequisite for the fault/attack
// injection experiments and for stable benchmarks.
#pragma once

#include <cstdint>
#include <vector>

namespace agrarsec::core {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box–Muller (cached second value).
  double normal();
  double normal(double mean, double stddev);

  /// Bernoulli trial.
  bool chance(double probability);

  /// Exponentially distributed value with the given mean (>0).
  double exponential(double mean);

  /// Poisson-distributed count (Knuth for small lambda, normal approx above).
  std::uint64_t poisson(double lambda);

  /// Random bytes (used by crypto tests and nonce generation in the sim).
  std::vector<std::uint8_t> bytes(std::size_t n);

  /// Derives an independent child stream; children with distinct labels
  /// never correlate with the parent or each other. Consumes one parent
  /// draw, so the child depends on *when* it was forked — use fork_stream
  /// when the child must be a pure function of its key.
  Rng fork(std::uint64_t label);

  /// Stateless fork-by-key: derives an independent stream from
  /// (seed, domain, key) alone, consuming no parent state. Two sites with
  /// the same seed hand an entity with the same id the same stream no
  /// matter what anything else drew first — the property the worksite's
  /// per-entity streams need (keyed by entity id, not by spawn order or
  /// population). `domain` separates stream families
  /// (machines vs humans vs hazards) that share a key space.
  [[nodiscard]] static Rng fork_stream(std::uint64_t seed, std::uint64_t domain,
                                       std::uint64_t key);

 private:
  std::uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace agrarsec::core
