// Ed25519 internals: the fixed-width scalar arithmetic against a
// schoolbook bignum oracle, the fixed-base comb against plain
// double-and-add, and a pinned digest of seeded keys and signatures.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/bytes.h"
#include "core/rng.h"
#include "crypto/ed25519.h"
#include "crypto/ed25519_internal.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"

namespace agrarsec::crypto {
namespace {

using detail::Bytes32;

// --- Oracle: arbitrary-size unsigned integers as base-2^32 little-endian
// vectors, reduced mod L by binary long division (shift-and-subtract).
// Slow, allocation-heavy and obviously correct.
using Big = std::vector<std::uint32_t>;

Big big_from_bytes_le(std::span<const std::uint8_t> bytes) {
  Big out((bytes.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    out[i / 4] |= static_cast<std::uint32_t>(bytes[i]) << (8 * (i % 4));
  }
  while (out.size() > 1 && out.back() == 0) out.pop_back();
  return out;
}

Bytes32 big_to_bytes32_le(const Big& x) {
  Bytes32 out{};
  for (std::size_t i = 0; i < x.size() && i * 4 < 32; ++i) {
    for (std::size_t b = 0; b < 4 && i * 4 + b < 32; ++b) {
      out[i * 4 + b] = static_cast<std::uint8_t>(x[i] >> (8 * b));
    }
  }
  return out;
}

int big_cmp(const Big& a, const Big& b) {
  std::size_t na = a.size(), nb = b.size();
  while (na > 1 && a[na - 1] == 0) --na;
  while (nb > 1 && b[nb - 1] == 0) --nb;
  if (na != nb) return na < nb ? -1 : 1;
  for (std::size_t i = na; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

Big big_add(const Big& a, const Big& b) {
  Big out(std::max(a.size(), b.size()) + 1, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint64_t s = carry;
    if (i < a.size()) s += a[i];
    if (i < b.size()) s += b[i];
    out[i] = static_cast<std::uint32_t>(s);
    carry = s >> 32;
  }
  while (out.size() > 1 && out.back() == 0) out.pop_back();
  return out;
}

/// a - b; requires a >= b.
Big big_sub(const Big& a, const Big& b) {
  Big out(a.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t d = static_cast<std::int64_t>(a[i]) - borrow -
                     (i < b.size() ? static_cast<std::int64_t>(b[i]) : 0);
    if (d < 0) {
      d += std::int64_t{1} << 32;
      borrow = 1;
    } else {
      borrow = 0;
    }
    out[i] = static_cast<std::uint32_t>(d);
  }
  while (out.size() > 1 && out.back() == 0) out.pop_back();
  return out;
}

Big big_mul(const Big& a, const Big& b) {
  Big out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      std::uint64_t cur = out[i + j] + static_cast<std::uint64_t>(a[i]) * b[j] + carry;
      out[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + b.size();
    while (carry != 0) {
      std::uint64_t cur = out[k] + carry;
      out[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  while (out.size() > 1 && out.back() == 0) out.pop_back();
  return out;
}

Big big_shift_words(const Big& a, std::size_t words) {
  Big out(a.size() + words, 0);
  std::copy(a.begin(), a.end(), out.begin() + static_cast<std::ptrdiff_t>(words));
  return out;
}

// L little-endian.
constexpr std::uint8_t kLBytes[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                                      0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                                      0,    0,    0,    0,    0,    0,    0,    0,
                                      0,    0,    0,    0,    0,    0,    0,    0x10};

Big big_mod_l(Big x) {
  const Big l = big_from_bytes_le(kLBytes);
  while (big_cmp(x, l) >= 0) {
    std::size_t shift = x.size() > l.size() ? x.size() - l.size() : 0;
    Big shifted = big_shift_words(l, shift);
    while (shift > 0 && big_cmp(shifted, x) > 0) {
      --shift;
      shifted = big_shift_words(l, shift);
    }
    // Subtract the largest power-of-two multiple of the shifted L.
    Big multiple = shifted;
    Big doubled = big_add(multiple, multiple);
    while (big_cmp(doubled, x) <= 0) {
      multiple = doubled;
      doubled = big_add(multiple, multiple);
    }
    x = big_sub(x, multiple);
  }
  return x;
}

Bytes32 oracle_reduce(std::span<const std::uint8_t, 64> x) {
  return big_to_bytes32_le(big_mod_l(big_from_bytes_le(x)));
}

Bytes32 oracle_muladd(const Bytes32& a, const Bytes32& b, const Bytes32& c) {
  return big_to_bytes32_le(big_mod_l(
      big_add(big_mul(big_from_bytes_le(a), big_from_bytes_le(b)), big_from_bytes_le(c))));
}

using Wide = std::array<std::uint8_t, 64>;

/// Little-endian bytes of L + delta for a small signed delta.
Wide l_plus(int delta) {
  Wide out{};
  std::copy(std::begin(kLBytes), std::end(kLBytes), out.begin());
  int carry = delta;
  for (std::size_t i = 0; i < out.size() && carry != 0; ++i) {
    const int v = out[i] + carry;
    out[i] = static_cast<std::uint8_t>(v & 0xff);
    carry = v >> 8;  // arithmetic: -1 borrows
  }
  return out;
}

/// 2^bits, or 2^bits - 1 with `minus_one` (which needs bits % 8 == 0).
Wide power_of_two(std::size_t bits, bool minus_one) {
  Wide out{};
  if (minus_one) {
    std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(bits / 8), 0xff);
  } else {
    out[bits / 8] = static_cast<std::uint8_t>(1u << (bits % 8));
  }
  return out;
}

Bytes32 low_half(const Wide& w) {
  Bytes32 out;
  std::copy(w.begin(), w.begin() + 32, out.begin());
  return out;
}

TEST(Ed25519Scalar, MatchesBignumOracleOnEdgeValues) {
  const std::vector<Wide> edges = {
      Wide{},                            // 0
      l_plus(-1), l_plus(0), l_plus(1),  // L - 1, L, L + 1
      power_of_two(252, false),          // 2^252
      power_of_two(256, true),           // 2^256 - 1
      power_of_two(512, true),           // 2^512 - 1
  };
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(detail::sc_reduce(edges[i]), oracle_reduce(edges[i])) << "edge " << i;
    for (const Wide& other : edges) {
      const Bytes32 a = low_half(edges[i]);
      const Bytes32 b = low_half(other);
      EXPECT_EQ(detail::sc_muladd(a, b, a), oracle_muladd(a, b, a)) << "edge " << i;
      EXPECT_EQ(detail::sc_muladd(a, b, b), oracle_muladd(a, b, b)) << "edge " << i;
    }
  }
  EXPECT_EQ(detail::sc_reduce(l_plus(0)), Bytes32{});
  EXPECT_EQ(detail::sc_reduce(l_plus(1))[0], 1);
}

TEST(Ed25519Scalar, MatchesBignumOracleOnSeededRandomValues) {
  core::Rng rng(20240617);
  for (int n = 0; n < 10000; ++n) {
    Wide x;
    for (std::size_t i = 0; i < x.size(); i += 8) {
      const std::uint64_t v = rng.next_u64();
      for (std::size_t b = 0; b < 8; ++b) x[i + b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
    ASSERT_EQ(detail::sc_reduce(x), oracle_reduce(x)) << "value " << n;

    Bytes32 a = low_half(x);
    Bytes32 b;
    std::copy(x.begin() + 32, x.end(), b.begin());
    Bytes32 c = detail::sc_reduce(x);
    ASSERT_EQ(detail::sc_muladd(a, b, c), oracle_muladd(a, b, c)) << "value " << n;
  }
}

TEST(Ed25519Comb, EveryEntryMatchesDoubleAndAdd) {
  for (std::size_t row = 0; row < detail::kBaseCombRows; ++row) {
    for (std::size_t col = 0; col < detail::kBaseCombCols; ++col) {
      Bytes32 scalar{};  // (col + 1) * 256^row
      scalar[row] = static_cast<std::uint8_t>(col + 1);
      ASSERT_EQ(detail::base_comb_entry(row, col), detail::ge_scalarmult_base_generic(scalar))
          << "row " << row << " col " << col;
    }
  }
}

TEST(Ed25519Comb, ScalarMultBaseMatchesDoubleAndAdd) {
  std::vector<Bytes32> scalars = {Bytes32{}, low_half(l_plus(-1)), low_half(l_plus(0))};
  Bytes32 one{};
  one[0] = 1;
  scalars.push_back(one);
  Bytes32 top{};  // 2^255 - 1, the largest scalar the comb takes
  top.fill(0xff);
  top[31] = 0x7f;
  scalars.push_back(top);
  Bytes32 eights{};  // every radix-16 digit 8: the signed recoding's carry chain
  eights.fill(0x88);
  eights[31] = 0x78;
  scalars.push_back(eights);
  core::Rng rng(7);
  for (int n = 0; n < 200; ++n) {
    Bytes32 s;
    for (auto& byte : s) byte = static_cast<std::uint8_t>(rng.next_u64());
    s[31] &= 0x7f;
    scalars.push_back(s);
  }
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    EXPECT_EQ(detail::ge_scalarmult_base(scalars[i]),
              detail::ge_scalarmult_base_generic(scalars[i]))
        << "scalar " << i;
  }
}

TEST(Ed25519, SeededKeypairsAndSignaturesMatchPinnedDigest) {
  // Seeds and messages derive from SHA-512 of a counter. The digest was
  // taken from the earlier arbitrary-precision implementation; Ed25519 is
  // deterministic, so any arithmetic rewrite must reproduce it.
  Sha256 digest;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const std::uint8_t counter[4] = {
        static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8),
        static_cast<std::uint8_t>(i >> 16), static_cast<std::uint8_t>(i >> 24)};
    const auto h = Sha512::hash(counter);
    const auto kp = ed25519_keypair(std::span<const std::uint8_t>(h.data(), 32));
    const std::span<const std::uint8_t> message(h.data(), i % 65);
    const auto sig = ed25519_sign(kp, message);
    ASSERT_TRUE(ed25519_verify(kp.public_key, message, sig)) << "pair " << i;
    digest.update(kp.public_key);
    digest.update(sig);
  }
  EXPECT_EQ(core::to_hex(digest.finish()),
            "d2c52050ca094e0941b68360193d6e53ed36ba587584595aadfc57d389cab3ae");
}

}  // namespace
}  // namespace agrarsec::crypto
