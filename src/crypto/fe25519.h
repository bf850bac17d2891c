// Field arithmetic mod p = 2^255 - 19, shared by X25519 and Ed25519.
//
// Representation: 5 unsigned 51-bit limbs (radix 2^51), products via
// unsigned __int128. Mirrors the curve25519-donna-c64 layout.
//
// Algorithms:
//   fe_mul      schoolbook 5x5 limb product, the 2^255 wrap folded as ×19,
//               one carry chain.
//   fe_sq       dedicated squaring: 15 limb products instead of 25.
//   fe_invert   x^(p-2) by the standard addition chain (254 squarings and
//               11 multiplications).
//   fe_pow2523  x^((p-5)/8) by the same chain (251 squarings and
//               11 multiplications).
//
// Constant time: every routine here runs the same instruction sequence
// for every input (no data-dependent branch or memory index), including
// fe_cswap / fe_cmov and the byte comparisons behind fe_iszero /
// fe_isnegative / fe_equal. Callers branch on those three results only
// where the outcome is public (point decoding, encoding a public point).
// The known-answer tests (RFC 7748 / RFC 8032), the edge KATs against a
// big-integer oracle (tests/ed25519_edge_kat_test.cpp) and the Ed25519
// differential suite anchor correctness.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace apna::crypto {

/// One field element. Inputs to fe_mul / fe_sq may carry limbs up to 2^54
/// (outputs of fe_add / fe_sub / fe_mul stay below 2^52).
struct Fe {
  std::array<std::uint64_t, 5> v{};
};

namespace fe_detail {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

inline constexpr u64 kMask = (u64{1} << 51) - 1;

/// One pass of the carry chain: afterwards limbs fit in 51 bits + epsilon.
inline void carry_once(std::array<u64, 5>& h) {
  u64 c;
  c = h[0] >> 51; h[0] &= kMask; h[1] += c;
  c = h[1] >> 51; h[1] &= kMask; h[2] += c;
  c = h[2] >> 51; h[2] &= kMask; h[3] += c;
  c = h[3] >> 51; h[3] &= kMask; h[4] += c;
  c = h[4] >> 51; h[4] &= kMask; h[0] += c * 19;
}

/// Carries a 5-limb wide product (each limb < 2^115) into 51-bit limbs,
/// folding the 2^255 overflow back as ×19.
inline void carry_wide(std::array<u64, 5>& r, u128 t[5]) {
  u64 c;
  r[0] = (u64)t[0] & kMask; c = (u64)(t[0] >> 51);
  t[1] += c;
  r[1] = (u64)t[1] & kMask; c = (u64)(t[1] >> 51);
  t[2] += c;
  r[2] = (u64)t[2] & kMask; c = (u64)(t[2] >> 51);
  t[3] += c;
  r[3] = (u64)t[3] & kMask; c = (u64)(t[3] >> 51);
  t[4] += c;
  r[4] = (u64)t[4] & kMask; c = (u64)(t[4] >> 51);
  r[0] += c * 19;
  c = r[0] >> 51; r[0] &= kMask; r[1] += c;
}

/// h = h^(2^n): n dedicated squarings (15 limb products each).
inline void sq_in_place(std::array<u64, 5>& h, int n) {
  u128 t[5];
  for (int i = 0; i < n; ++i) {
    const u64 a0 = h[0], a1 = h[1], a2 = h[2], a3 = h[3], a4 = h[4];
    const u64 d0 = a0 * 2, d1 = a1 * 2, d2 = a2 * 2 * 19;
    const u64 d419 = a4 * 19, d4 = d419 * 2;
    t[0] = (u128)a0 * a0 + (u128)d4 * a1 + (u128)d2 * a3;
    t[1] = (u128)d0 * a1 + (u128)d4 * a2 + (u128)a3 * (a3 * 19);
    t[2] = (u128)d0 * a2 + (u128)a1 * a1 + (u128)d4 * a3;
    t[3] = (u128)d0 * a3 + (u128)d1 * a2 + (u128)a4 * d419;
    t[4] = (u128)d0 * a4 + (u128)d1 * a3 + (u128)a2 * a2;
    carry_wide(h, t);
  }
}

}  // namespace fe_detail

// The arithmetic the point formulas chain hundreds of times per scalar
// multiplication is defined inline so it compiles to straight-line code.

inline Fe fe_zero() { return Fe{}; }

inline Fe fe_one() {
  Fe r;
  r.v[0] = 1;
  return r;
}

inline Fe fe_add(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  fe_detail::carry_once(r.v);
  return r;
}

inline Fe fe_sub(const Fe& a, const Fe& b) {
  // Add 2p before subtracting so limbs stay non-negative.
  Fe r;
  r.v[0] = a.v[0] + 0xFFFFFFFFFFFDAULL - b.v[0];
  r.v[1] = a.v[1] + 0xFFFFFFFFFFFFEULL - b.v[1];
  r.v[2] = a.v[2] + 0xFFFFFFFFFFFFEULL - b.v[2];
  r.v[3] = a.v[3] + 0xFFFFFFFFFFFFEULL - b.v[3];
  r.v[4] = a.v[4] + 0xFFFFFFFFFFFFEULL - b.v[4];
  fe_detail::carry_once(r.v);
  return r;
}

inline Fe fe_neg(const Fe& a) { return fe_sub(fe_zero(), a); }

inline Fe fe_mul(const Fe& a, const Fe& b) {
  using fe_detail::u128;
  using fe_detail::u64;
  const u64 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const u64 b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  const u64 b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19, b4_19 = b4 * 19;

  u128 t[5];
  t[0] = (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 +
         (u128)a3 * b2_19 + (u128)a4 * b1_19;
  t[1] = (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 +
         (u128)a3 * b3_19 + (u128)a4 * b2_19;
  t[2] = (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 +
         (u128)a3 * b4_19 + (u128)a4 * b3_19;
  t[3] = (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 + (u128)a3 * b0 +
         (u128)a4 * b4_19;
  t[4] = (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 + (u128)a3 * b1 +
         (u128)a4 * b0;
  Fe r;
  fe_detail::carry_wide(r.v, t);
  return r;
}

inline Fe fe_sq(const Fe& a) {
  Fe r = a;
  fe_detail::sq_in_place(r.v, 1);
  return r;
}

/// Multiplication by a small constant (≤ 2^20), e.g. 121666.
Fe fe_mul_small(const Fe& a, std::uint64_t s);

/// Deserializes 32 little-endian bytes; the top bit is ignored (RFC 7748).
Fe fe_frombytes(const std::uint8_t in[32]);
/// Serializes to the unique canonical representative in [0, p).
void fe_tobytes(std::uint8_t out[32], const Fe& a);

/// x^(p-2) — multiplicative inverse (0 maps to 0).
Fe fe_invert(const Fe& x);
/// x^((p-5)/8) — used in square-root extraction for point decompression.
Fe fe_pow2523(const Fe& x);

bool fe_iszero(const Fe& a);
/// Parity bit (canonical form & 1); the "sign" in point compression.
bool fe_isnegative(const Fe& a);
bool fe_equal(const Fe& a, const Fe& b);

/// Constant-time conditional swap (swap iff bit == 1). Used by the ladder.
void fe_cswap(Fe& a, Fe& b, std::uint64_t bit);
/// Constant-time conditional move (a = b iff bit == 1). Used by the
/// fixed-base table lookup.
void fe_cmov(Fe& a, const Fe& b, std::uint64_t bit);

/// sqrt(-1) mod p = 2^((p-1)/4), computed once at startup.
const Fe& fe_sqrtm1();

}  // namespace apna::crypto
