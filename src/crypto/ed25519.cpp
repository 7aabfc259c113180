// Ed25519 (RFC 8032) over the field arithmetic in field25519.h, laid out
// like the ref10 reference implementation:
//
//  * Scalars mod L use four 64-bit limbs: Barrett reduction of 512-bit
//    values (sc_reduce) and a fused multiply-add (sc_muladd). Both are
//    fixed-length loops on the stack, with a masked final subtraction.
//  * Points use extended (X:Y:Z:T), projective (X:Y:Z), completed
//    ("p1p1"), cached (Y+X, Y-X, Z, 2dT) and affine-precomputed
//    (y+x, y-x, 2dxy) coordinates. Doubling is dbl-2008-hwcd (4M+4S to
//    extended form); additions are the a = -1 extended formulas.
//  * [s]B (key generation and signing) is a radix-16 signed-digit comb
//    over a 32x8 table of multiples of B, built once on first use.
//  * Verify computes [S]B + [k](-A) in one variable-time Straus pass over
//    sliding-window digits. Every input to it is public.
//
// Constant-time status: the paths that touch secret scalars (key
// generation, nonce and S computation in signing) take no branch and
// index no memory on secret data. Comb entries are chosen by masked
// selection over a whole table row, and the scalar code's final
// correction is masked. This is by construction; no timing tool checks
// it. Verify is variable-time on purpose.
#include "crypto/ed25519.h"

#include <cstring>
#include <stdexcept>

#include "crypto/ed25519_internal.h"
#include "crypto/field25519.h"
#include "crypto/sha512.h"

namespace agrarsec::crypto {

namespace {

using detail::Bytes32;
using detail::Fe;
using u128 = unsigned __int128;

// --- Field shorthands. Sums and differences are carried at once, so every
// operand of fe_mul and fe_sub stays below 2^52 per limb.

Fe add(const Fe& f, const Fe& g) {
  Fe h;
  detail::fe_add(h, f, g);
  detail::fe_carry(h);
  return h;
}

Fe sub(const Fe& f, const Fe& g) {
  Fe h;
  detail::fe_sub(h, f, g);
  detail::fe_carry(h);
  return h;
}

Fe mul(const Fe& f, const Fe& g) {
  Fe h;
  detail::fe_mul(h, f, g);
  return h;
}

Fe sq(const Fe& f) {
  Fe h;
  detail::fe_sq(h, f);
  return h;
}

Fe neg(const Fe& f) {
  Fe h;
  detail::fe_neg(h, f);
  return h;
}

// d = -121665/121666 mod p.
const Fe kD = {{0x34dca135978a3ULL, 0x1a8283b156ebdULL, 0x5e7a26001c029ULL,
                0x739c663a03cbbULL, 0x52036cee2b6ffULL}};
// 2*d
const Fe kD2 = {{0x69b9426b2f159ULL, 0x35050762add7aULL, 0x3cf44c0038052ULL,
                 0x6738cc7407977ULL, 0x2406d9dc56dffULL}};
// sqrt(-1) = 2^((p-1)/4)
const Fe kSqrtM1 = {{0x61b274a0ea0b0ULL, 0xd5a5fc8f189dULL, 0x7ef5e9cbd0c60ULL,
                     0x78595a6804c9eULL, 0x2b8324804fc1dULL}};

// --- Edwards points.

/// Projective: x = X/Z, y = Y/Z.
struct GeP2 {
  Fe x, y, z;
};

/// Extended: projective plus T = XY/Z.
struct GeP3 {
  Fe x, y, z, t;
};

/// Completed: x = X/Z, y = Y/T. Output of every addition and doubling.
struct GeP1P1 {
  Fe x, y, z, t;
};

/// Extended point pre-processed as the right operand of an addition.
struct GeCached {
  Fe yplusx, yminusx, z, t2d;
};

/// Affine point pre-processed for mixed addition (Z = 1): the comb table.
struct GePrecomp {
  Fe yplusx, yminusx, xy2d;
};

GeP3 ge_identity() {
  return GeP3{detail::fe_zero(), detail::fe_one(), detail::fe_one(), detail::fe_zero()};
}

/// Base point B = (x, 4/5) with x positive.
GeP3 ge_base() {
  const Fe bx = {{0x62d608f25d51aULL, 0x412a4b4f6592aULL, 0x75b7171a4b31dULL,
                  0x1ff60527118feULL, 0x216936d3cd6e5ULL}};
  const Fe by = {{0x6666666666658ULL, 0x4ccccccccccccULL, 0x1999999999999ULL,
                  0x3333333333333ULL, 0x6666666666666ULL}};
  return GeP3{bx, by, detail::fe_one(), mul(bx, by)};
}

GeP2 to_p2(const GeP1P1& p) { return GeP2{mul(p.x, p.t), mul(p.y, p.z), mul(p.z, p.t)}; }

GeP3 to_p3(const GeP1P1& p) {
  return GeP3{mul(p.x, p.t), mul(p.y, p.z), mul(p.z, p.t), mul(p.x, p.y)};
}

GeCached to_cached(const GeP3& p) {
  return GeCached{add(p.y, p.x), sub(p.y, p.x), p.z, mul(p.t, kD2)};
}

/// 2P, dbl-2008-hwcd for a = -1.
GeP1P1 ge_dbl(const GeP2& p) {
  const Fe xx = sq(p.x);
  const Fe yy = sq(p.y);
  const Fe zz = sq(p.z);
  const Fe zz2 = add(zz, zz);
  const Fe xy = sq(add(p.x, p.y));
  GeP1P1 r;
  r.y = add(yy, xx);
  r.z = sub(yy, xx);
  r.x = sub(xy, r.y);
  r.t = sub(zz2, r.z);
  return r;
}

GeP1P1 ge_dbl(const GeP3& p) { return ge_dbl(GeP2{p.x, p.y, p.z}); }

/// P + Q (add-2008-hwcd-3, unified and complete on this curve). With
/// `negate` it computes P - Q: -Q swaps Y+X with Y-X and negates 2dT.
GeP1P1 ge_add(const GeP3& p, const GeCached& q, bool negate = false) {
  const Fe a = mul(sub(p.y, p.x), negate ? q.yplusx : q.yminusx);
  const Fe b = mul(add(p.y, p.x), negate ? q.yminusx : q.yplusx);
  const Fe c = mul(q.t2d, p.t);
  const Fe zz = mul(p.z, q.z);
  const Fe d = add(zz, zz);
  GeP1P1 r;
  r.x = sub(b, a);
  r.y = add(b, a);
  r.z = negate ? sub(d, c) : add(d, c);
  r.t = negate ? add(d, c) : sub(d, c);
  return r;
}

/// P + Q for an affine Q (Z = 1), or P - Q with `negate`.
GeP1P1 ge_madd(const GeP3& p, const GePrecomp& q, bool negate = false) {
  const Fe a = mul(sub(p.y, p.x), negate ? q.yplusx : q.yminusx);
  const Fe b = mul(add(p.y, p.x), negate ? q.yminusx : q.yplusx);
  const Fe c = mul(q.xy2d, p.t);
  const Fe d = add(p.z, p.z);
  GeP1P1 r;
  r.x = sub(b, a);
  r.y = add(b, a);
  r.z = negate ? sub(d, c) : add(d, c);
  r.t = negate ? add(d, c) : sub(d, c);
  return r;
}

void ge_tobytes(std::uint8_t out[32], const GeP2& p) {
  Fe recip;
  detail::fe_invert(recip, p.z);
  const Fe x = mul(p.x, recip);
  const Fe y = mul(p.y, recip);
  detail::fe_tobytes(out, y);
  out[31] ^= static_cast<std::uint8_t>(detail::fe_is_negative(x) ? 0x80 : 0x00);
}

void ge_tobytes(std::uint8_t out[32], const GeP3& p) { ge_tobytes(out, GeP2{p.x, p.y, p.z}); }

GePrecomp to_precomp(const GeP3& p) {
  Fe recip;
  detail::fe_invert(recip, p.z);
  const Fe x = mul(p.x, recip);
  const Fe y = mul(p.y, recip);
  return GePrecomp{add(y, x), sub(y, x), mul(mul(x, y), kD2)};
}

/// Decompresses a point (RFC 8032 §5.1.3). Returns false for a
/// non-canonical y (y >= p), when no square root exists, and for x = 0
/// with the sign bit set.
bool ge_frombytes(GeP3& p, const std::uint8_t in[32]) {
  Fe y;
  detail::fe_frombytes(y, in);
  // fe_frombytes reduces y mod p; a canonical encoding re-encodes to
  // itself (bit 255 carries the sign of x).
  std::uint8_t canonical[32];
  detail::fe_tobytes(canonical, y);
  canonical[31] |= static_cast<std::uint8_t>(in[31] & 0x80);
  if (std::memcmp(canonical, in, 32) != 0) return false;
  const bool x_sign = (in[31] & 0x80) != 0;

  // x^2 = (y^2 - 1) / (d y^2 + 1)
  const Fe y2 = sq(y);
  const Fe u = sub(y2, detail::fe_one());
  const Fe v = add(mul(y2, kD), detail::fe_one());

  // Candidate root: x = u v^3 (u v^7)^((p-5)/8)
  const Fe v3 = mul(sq(v), v);
  const Fe v7 = mul(sq(v3), v);
  Fe t;
  detail::fe_pow22523(t, mul(u, v7));
  Fe x = mul(mul(t, v3), u);

  // Check v x^2 == u or v x^2 == -u.
  const Fe vx2 = mul(sq(x), v);
  if (!detail::fe_is_zero(sub(vx2, u))) {
    if (!detail::fe_is_zero(add(vx2, u))) return false;
    x = mul(x, kSqrtM1);
  }

  if (detail::fe_is_zero(x) && x_sign) return false;  // x = 0 with sign bit: invalid
  if (detail::fe_is_negative(x) != x_sign) x = neg(x);

  p = GeP3{x, y, detail::fe_one(), mul(x, y)};
  return true;
}

// --- Fixed-base comb.

struct BaseComb {
  GePrecomp row[detail::kBaseCombRows][detail::kBaseCombCols];
};

/// row[i][j] = [(j + 1) * 256^i]B, built once on first use (a
/// function-local static, so concurrent first calls are safe).
const BaseComb& base_comb() {
  static const BaseComb comb = [] {
    BaseComb c;
    GeP3 row_base = ge_base();
    for (auto& row : c.row) {
      const GeCached step = to_cached(row_base);
      GeP3 multiple = row_base;
      for (std::size_t j = 0; j < detail::kBaseCombCols; ++j) {
        row[j] = to_precomp(multiple);
        multiple = to_p3(ge_add(multiple, step));
      }
      for (int k = 0; k < 8; ++k) row_base = to_p3(ge_dbl(row_base));
    }
    return c;
  }();
  return comb;
}

/// 1 when b == c, else 0, without a branch.
std::uint64_t ct_equal(std::uint8_t b, std::uint8_t c) {
  return (static_cast<std::uint32_t>(b ^ c) - 1U) >> 31;
}

/// [digit] * row[0], digit in [-8, 8], by masked selection over the row.
GePrecomp comb_select(const GePrecomp (&row)[detail::kBaseCombCols], std::int8_t digit) {
  const std::uint64_t negative = static_cast<std::uint8_t>(digit) >> 7;
  const auto magnitude =
      static_cast<std::uint8_t>(digit - ((-static_cast<int>(negative) & digit) * 2));
  GePrecomp t{detail::fe_one(), detail::fe_one(), detail::fe_zero()};  // identity
  for (std::size_t j = 0; j < detail::kBaseCombCols; ++j) {
    const std::uint64_t hit = ct_equal(magnitude, static_cast<std::uint8_t>(j + 1));
    detail::fe_cmov(t.yplusx, row[j].yplusx, hit);
    detail::fe_cmov(t.yminusx, row[j].yminusx, hit);
    detail::fe_cmov(t.xy2d, row[j].xy2d, hit);
  }
  const GePrecomp minus{t.yminusx, t.yplusx, neg(t.xy2d)};
  detail::fe_cmov(t.yplusx, minus.yplusx, negative);
  detail::fe_cmov(t.yminusx, minus.yminusx, negative);
  detail::fe_cmov(t.xy2d, minus.xy2d, negative);
  return t;
}

/// [s]B for s < 2^255: s = sum e[i] 16^i with signed digits e[i] in
/// [-8, 8]. Odd digits are summed first and lifted by 16, then the even
/// digits are added; digit i comes from comb row i / 2.
GeP3 ge_scalarmult_base(const std::uint8_t s[32]) {
  std::int8_t e[64];
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<std::int8_t>(s[i] & 15);
    e[2 * i + 1] = static_cast<std::int8_t>(s[i] >> 4);
  }
  std::int8_t carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[i] = static_cast<std::int8_t>(e[i] + carry);
    carry = static_cast<std::int8_t>((e[i] + 8) >> 4);
    e[i] = static_cast<std::int8_t>(e[i] - carry * 16);
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);

  const BaseComb& comb = base_comb();
  GeP3 h = ge_identity();
  for (int i = 1; i < 64; i += 2) h = to_p3(ge_madd(h, comb_select(comb.row[i / 2], e[i])));
  GeP2 h2 = to_p2(ge_dbl(h));
  h2 = to_p2(ge_dbl(h2));
  h2 = to_p2(ge_dbl(h2));
  h = to_p3(ge_dbl(h2));
  for (int i = 0; i < 64; i += 2) h = to_p3(ge_madd(h, comb_select(comb.row[i / 2], e[i])));
  return h;
}

/// Sliding-window recoding (ref10 "slide"): r[i] is 0 or odd with
/// |r[i]| <= max_digit, and sum r[i] 2^i = a. Variable-time.
void slide(std::int8_t r[256], const std::uint8_t a[32], int max_digit) {
  for (int i = 0; i < 256; ++i) r[i] = static_cast<std::int8_t>(1 & (a[i >> 3] >> (i & 7)));
  for (int i = 0; i < 256; ++i) {
    if (r[i] == 0) continue;
    for (int b = 1; b <= 6 && i + b < 256; ++b) {
      if (r[i + b] == 0) continue;
      const int shifted = r[i + b] << b;
      if (r[i] + shifted <= max_digit) {
        r[i] = static_cast<std::int8_t>(r[i] + shifted);
        r[i + b] = 0;
      } else if (r[i] - shifted >= -max_digit) {
        r[i] = static_cast<std::int8_t>(r[i] - shifted);
        for (int k = i + b; k < 256; ++k) {
          if (r[k] == 0) {
            r[k] = 1;
            break;
          }
          r[k] = 0;
        }
      } else {
        break;
      }
    }
  }
}

/// [a]A + [b]B in one Straus pass, variable-time: A's odd multiples up to
/// 15A are built per call, B's (up to 7B) come from comb row 0.
GeP2 ge_double_scalarmult_vartime(const std::uint8_t a[32], const GeP3& point,
                                  const std::uint8_t b[32]) {
  std::int8_t a_digits[256];
  std::int8_t b_digits[256];
  slide(a_digits, a, 15);
  slide(b_digits, b, 7);

  GeCached odd[8];  // odd[j] = [2j + 1]A
  odd[0] = to_cached(point);
  const GeP3 twice = to_p3(ge_dbl(point));
  for (int j = 0; j < 7; ++j) odd[j + 1] = to_cached(to_p3(ge_add(twice, odd[j])));
  const auto& b_row = base_comb().row[0];  // b_row[j] = [j + 1]B

  int i = 255;
  while (i >= 0 && a_digits[i] == 0 && b_digits[i] == 0) --i;
  GeP2 r{detail::fe_zero(), detail::fe_one(), detail::fe_one()};
  for (; i >= 0; --i) {
    GeP1P1 t = ge_dbl(r);
    if (a_digits[i] != 0) {
      const int d = a_digits[i];
      t = ge_add(to_p3(t), odd[(d > 0 ? d : -d) / 2], d < 0);
    }
    if (b_digits[i] != 0) {
      const int d = b_digits[i];
      t = ge_madd(to_p3(t), b_row[(d > 0 ? d : -d) - 1], d < 0);
    }
    r = to_p2(t);
  }
  return r;
}

// --- Scalars modulo the group order L, four 64-bit limbs little-endian.

// L = 2^252 + 27742317777372353535851937790883648493.
constexpr std::uint64_t kL[4] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0,
                                 0x1000000000000000ULL};
// Barrett constant mu = floor(2^512 / L).
constexpr std::uint64_t kMu[5] = {0xed9ce5a30a2c131bULL, 0x2106215d086329a7ULL,
                                  0xffffffffffffffebULL, 0xffffffffffffffffULL, 0xf};

std::uint64_t load64_le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void store64_le(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// x mod L for x < 2^512, by Barrett reduction (HAC 14.42, base 2^64,
/// k = 4). The estimate q = floor(floor(x / 2^192) * mu / 2^320) equals
/// floor(x / L - e) with e < (2^512 / L - mu) + 2^192 / L < 0.23, so it
/// falls short by at most 1: x - qL lies in [0, 2L) and is computed mod
/// 2^320. One masked subtraction of L finishes.
Bytes32 sc_reduce_limbs(const std::uint64_t x[8]) {
  std::uint64_t q[10] = {};  // (x >> 192) * mu; q >> 320 is limbs 5..9
  for (int i = 0; i < 5; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 5; ++j) {
      const u128 t = static_cast<u128>(x[3 + i]) * kMu[j] + q[i + j] + carry;
      q[i + j] = static_cast<std::uint64_t>(t);
      carry = static_cast<std::uint64_t>(t >> 64);
    }
    q[i + 5] = carry;
  }
  const std::uint64_t* q3 = q + 5;

  std::uint64_t ql[5] = {};  // (q3 * L) mod 2^320
  for (int i = 0; i < 5; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 4 && i + j < 5; ++j) {
      const u128 t = static_cast<u128>(q3[i]) * kL[j] + ql[i + j] + carry;
      ql[i + j] = static_cast<std::uint64_t>(t);
      carry = static_cast<std::uint64_t>(t >> 64);
    }
    if (i == 0) ql[4] = carry;
  }

  std::uint64_t r[5];
  std::uint64_t borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 d = static_cast<u128>(x[i]) - ql[i] - borrow;
    r[i] = static_cast<std::uint64_t>(d);
    borrow = static_cast<std::uint64_t>(d >> 64) & 1;
  }

  std::uint64_t t[5];
  borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 d = static_cast<u128>(r[i]) - (i < 4 ? kL[i] : 0) - borrow;
    t[i] = static_cast<std::uint64_t>(d);
    borrow = static_cast<std::uint64_t>(d >> 64) & 1;
  }
  const std::uint64_t keep = 0 - borrow;  // r < L: keep r
  for (int i = 0; i < 5; ++i) r[i] = (r[i] & keep) | (t[i] & ~keep);

  Bytes32 out;
  for (int i = 0; i < 4; ++i) store64_le(out.data() + 8 * i, r[i]);
  return out;
}

/// s < L, by limb comparison (s is public).
bool scalar_is_canonical(std::span<const std::uint8_t> s) {
  for (int i = 3; i >= 0; --i) {
    const std::uint64_t limb = load64_le(s.data() + 8 * i);
    if (limb != kL[i]) return limb < kL[i];
  }
  return false;  // s == L
}

struct ExpandedKey {
  Bytes32 a;  // clamped scalar
  Bytes32 prefix;
};

ExpandedKey expand_seed(std::span<const std::uint8_t> seed) {
  const auto h = Sha512::hash(seed);
  ExpandedKey out{};
  std::memcpy(out.a.data(), h.data(), 32);
  std::memcpy(out.prefix.data(), h.data() + 32, 32);
  out.a[0] &= 248;
  out.a[31] &= 63;
  out.a[31] |= 64;
  return out;
}

}  // namespace

namespace detail {

Bytes32 sc_reduce(std::span<const std::uint8_t, 64> x) {
  std::uint64_t limbs[8];
  for (int i = 0; i < 8; ++i) limbs[i] = load64_le(x.data() + 8 * i);
  return sc_reduce_limbs(limbs);
}

Bytes32 sc_muladd(const Bytes32& a, const Bytes32& b, const Bytes32& c) {
  std::uint64_t al[4], bl[4];
  for (int i = 0; i < 4; ++i) {
    al[i] = load64_le(a.data() + 8 * i);
    bl[i] = load64_le(b.data() + 8 * i);
  }
  // a * b + c < 2^512 for a, b, c < 2^256.
  std::uint64_t x[8] = {};
  for (int i = 0; i < 4; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 t = static_cast<u128>(al[i]) * bl[j] + x[i + j] + carry;
      x[i + j] = static_cast<std::uint64_t>(t);
      carry = static_cast<std::uint64_t>(t >> 64);
    }
    x[i + 4] = carry;
  }
  std::uint64_t carry = 0;
  for (int i = 0; i < 8; ++i) {
    const u128 t = static_cast<u128>(x[i]) + (i < 4 ? load64_le(c.data() + 8 * i) : 0) + carry;
    x[i] = static_cast<std::uint64_t>(t);
    carry = static_cast<std::uint64_t>(t >> 64);
  }
  return sc_reduce_limbs(x);
}

Bytes32 base_comb_entry(std::size_t row, std::size_t col) {
  const GePrecomp& e = base_comb().row[row][col];
  // (y + x, y - x) -> (x, y), both affine.
  Fe x = sub(e.yplusx, e.yminusx);
  Fe y = add(e.yplusx, e.yminusx);
  Fe half;  // 1/2
  detail::fe_invert(half, add(detail::fe_one(), detail::fe_one()));
  x = mul(x, half);
  y = mul(y, half);
  Bytes32 out;
  ge_tobytes(out.data(), GeP2{x, y, detail::fe_one()});
  return out;
}

Bytes32 ge_scalarmult_base(const Bytes32& s) {
  Bytes32 out;
  ge_tobytes(out.data(), crypto::ge_scalarmult_base(s.data()));
  return out;
}

Bytes32 ge_scalarmult_base_generic(const Bytes32& s) {
  const GeCached base = to_cached(ge_base());
  GeP3 r = ge_identity();
  for (int i = 255; i >= 0; --i) {
    r = to_p3(ge_dbl(r));
    if ((s[static_cast<std::size_t>(i / 8)] >> (i & 7)) & 1) r = to_p3(ge_add(r, base));
  }
  Bytes32 out;
  ge_tobytes(out.data(), r);
  return out;
}

}  // namespace detail

Ed25519PublicKey ed25519_public_key(std::span<const std::uint8_t> seed) {
  if (seed.size() != kEd25519SeedSize) {
    throw std::invalid_argument("ed25519: seed must be 32 bytes");
  }
  const ExpandedKey key = expand_seed(seed);
  Ed25519PublicKey out{};
  ge_tobytes(out.data(), ge_scalarmult_base(key.a.data()));
  return out;
}

Ed25519KeyPair ed25519_keypair(std::span<const std::uint8_t> seed) {
  Ed25519KeyPair kp{};
  kp.public_key = ed25519_public_key(seed);  // throws on a bad seed size first
  std::memcpy(kp.seed.data(), seed.data(), kEd25519SeedSize);
  return kp;
}

Ed25519Signature ed25519_sign(const Ed25519KeyPair& keypair,
                              std::span<const std::uint8_t> message) {
  const ExpandedKey key = expand_seed(keypair.seed);

  // r = SHA512(prefix || M) mod L
  Sha512 h;
  h.update(key.prefix);
  h.update(message);
  const Bytes32 r = detail::sc_reduce(h.finish());

  // R = [r]B
  std::uint8_t r_bytes[32];
  ge_tobytes(r_bytes, ge_scalarmult_base(r.data()));

  // k = SHA512(R || A || M) mod L
  h.reset();
  h.update({r_bytes, 32});
  h.update(keypair.public_key);
  h.update(message);
  const Bytes32 k = detail::sc_reduce(h.finish());

  // S = (r + k * a) mod L
  const Bytes32 s = detail::sc_muladd(k, key.a, r);

  Ed25519Signature sig{};
  std::memcpy(sig.data(), r_bytes, 32);
  std::memcpy(sig.data() + 32, s.data(), 32);
  return sig;
}

bool ed25519_verify(std::span<const std::uint8_t> public_key,
                    std::span<const std::uint8_t> message,
                    std::span<const std::uint8_t> signature) {
  if (public_key.size() != kEd25519PublicKeySize ||
      signature.size() != kEd25519SignatureSize) {
    return false;
  }
  const std::span<const std::uint8_t> r_bytes = signature.subspan(0, 32);
  const std::span<const std::uint8_t> s_bytes = signature.subspan(32, 32);
  if (!scalar_is_canonical(s_bytes)) return false;

  GeP3 a_point;
  if (!ge_frombytes(a_point, public_key.data())) return false;
  const GeP3 minus_a{neg(a_point.x), a_point.y, a_point.z, neg(a_point.t)};

  // k = SHA512(R || A || M) mod L
  Sha512 h;
  h.update(r_bytes);
  h.update(public_key);
  h.update(message);
  const Bytes32 k = detail::sc_reduce(h.finish());

  // [S]B = R + [k]A  <=>  [k](-A) + [S]B = R.
  std::uint8_t check[32];
  ge_tobytes(check, ge_double_scalarmult_vartime(k.data(), minus_a, s_bytes.data()));
  return std::memcmp(check, r_bytes.data(), 32) == 0;
}

}  // namespace agrarsec::crypto
