// Ed25519 internals exposed for tests: scalar arithmetic modulo the group
// order L and the fixed-base multiplication paths. Not part of the public
// crypto API (see ed25519.h).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace agrarsec::crypto::detail {

/// 32-byte little-endian scalar or compressed point.
using Bytes32 = std::array<std::uint8_t, 32>;

/// x mod L for a 64-byte little-endian x.
[[nodiscard]] Bytes32 sc_reduce(std::span<const std::uint8_t, 64> x);

/// (a * b + c) mod L for 32-byte little-endian a, b, c (any value < 2^256).
[[nodiscard]] Bytes32 sc_muladd(const Bytes32& a, const Bytes32& b, const Bytes32& c);

/// Fixed-base comb dimensions: row i holds [1..8] * 256^i * B.
inline constexpr std::size_t kBaseCombRows = 32;
inline constexpr std::size_t kBaseCombCols = 8;

/// Encoding of comb entry [(col + 1) * 256^row]B.
[[nodiscard]] Bytes32 base_comb_entry(std::size_t row, std::size_t col);

/// Encoding of [s]B through the comb (requires s < 2^255).
[[nodiscard]] Bytes32 ge_scalarmult_base(const Bytes32& s);

/// Encoding of [s]B by table-free MSB-first double-and-add: the oracle the
/// comb is checked against.
[[nodiscard]] Bytes32 ge_scalarmult_base_generic(const Bytes32& s);

}  // namespace agrarsec::crypto::detail
