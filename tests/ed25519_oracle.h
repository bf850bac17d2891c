// Reference Ed25519 for the differential tests: deliberately naive, slow
// and independent of the algorithms in src/crypto.
//
// Scalars and field products are checked against plain big-integer
// arithmetic (binary long division mod p or mod L). The point code is the
// straightforward extended-coordinate implementation: unified addition and
// full doubling on (X:Y:Z:T), a 4-bit fixed-window variable-base walk, a
// 64x15 table of full extended points for the fixed base, and inversion /
// square roots by square-and-multiply over the whole exponent. The only
// production routines it shares are the limb-level field primitives
// (fe_add/fe_sub/fe_mul/fe_sq/fe_frombytes/fe_tobytes), and those are
// themselves checked against the big-integer oracle here.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "crypto/ed25519.h"
#include "crypto/fe25519.h"
#include "crypto/sha2.h"
#include "util/bytes.h"

namespace apna::crypto::oracle {

using u64 = std::uint64_t;
using u128 = unsigned __int128;
using Bytes32 = std::array<std::uint8_t, 32>;

// ---- 512-bit integers, reduction by binary long division --------------------

struct U512 {
  u64 w[8] = {};
};

// p = 2^255 - 19 and L = 2^252 + 27742317777372353535851937790883648493.
inline constexpr u64 kP[4] = {0xffffffffffffffedULL, 0xffffffffffffffffULL,
                              0xffffffffffffffffULL, 0x7fffffffffffffffULL};
inline constexpr u64 kL[4] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL,
                              0x0000000000000000ULL, 0x1000000000000000ULL};

/// Compares x with m << (64*shift_words + shift_bits).
inline int u512_cmp_shifted(const U512& x, const u64 m[4], int shift_words,
                            int shift_bits) {
  u64 shifted[9] = {};
  for (int i = 0; i < 4; ++i) {
    shifted[shift_words + i] |= shift_bits ? (m[i] << shift_bits) : m[i];
    if (shift_bits && shift_words + i + 1 < 9)
      shifted[shift_words + i + 1] |= m[i] >> (64 - shift_bits);
  }
  for (int i = 8; i >= 0; --i) {
    const u64 xi = (i < 8) ? x.w[i] : 0;
    if (xi != shifted[i]) return xi < shifted[i] ? -1 : 1;
  }
  return 0;
}

inline void u512_sub_shifted(U512& x, const u64 m[4], int shift_words,
                             int shift_bits) {
  u64 shifted[8] = {};
  for (int i = 0; i < 4; ++i) {
    if (shift_words + i < 8)
      shifted[shift_words + i] |= shift_bits ? (m[i] << shift_bits) : m[i];
    if (shift_bits && shift_words + i + 1 < 8)
      shifted[shift_words + i + 1] |= m[i] >> (64 - shift_bits);
  }
  u64 borrow = 0;
  for (int i = 0; i < 8; ++i) {
    const u64 xi = x.w[i];
    const u64 t = xi - shifted[i];
    const u64 b1 = xi < shifted[i] ? 1 : 0;
    const u64 t2 = t - borrow;
    const u64 b2 = t < borrow ? 1 : 0;
    x.w[i] = t2;
    borrow = b1 | b2;
  }
}

/// x mod m for a modulus of bit length `mbits` (x up to 512 bits).
inline void u512_mod(U512& x, const u64 m[4], int mbits) {
  for (int shift = 512 - mbits; shift >= 0; --shift) {
    const int sw = shift / 64, sb = shift % 64;
    if (u512_cmp_shifted(x, m, sw, sb) >= 0) u512_sub_shifted(x, m, sw, sb);
  }
}

inline void u512_mod_l(U512& x) { u512_mod(x, kL, 253); }
inline void u512_mod_p(U512& x) { u512_mod(x, kP, 255); }

/// Product of the low 256 bits of a and b.
inline U512 u512_mul(const U512& a, const U512& b) {
  U512 x;
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 cur = (u128)a.w[i] * b.w[j] + x.w[i + j] + carry;
      x.w[i + j] = (u64)cur;
      carry = cur >> 64;
    }
    x.w[i + 4] += (u64)carry;
  }
  return x;
}

inline U512 u512_add(const U512& a, const U512& b) {
  U512 x;
  u128 carry = 0;
  for (int i = 0; i < 8; ++i) {
    const u128 cur = (u128)a.w[i] + b.w[i] + carry;
    x.w[i] = (u64)cur;
    carry = cur >> 64;
  }
  return x;
}

inline U512 u512_from_bytes(const std::uint8_t* le, std::size_t n) {
  std::uint8_t buf[64] = {};
  std::memcpy(buf, le, std::min<std::size_t>(n, 64));
  U512 x;
  for (int i = 0; i < 8; ++i) x.w[i] = load_le64(buf + 8 * i);
  return x;
}

inline Bytes32 u512_low_bytes(const U512& x) {
  Bytes32 out;
  for (int i = 0; i < 4; ++i) store_le64(out.data() + 8 * i, x.w[i]);
  return out;
}

// ---- Field oracle: values as integers mod p ---------------------------------

/// Σ v_i·2^(51 i) mod p — the integer a limb vector stands for (limbs of
/// any size up to 2^64).
inline U512 fe_value(const Fe& a) {
  U512 x;
  for (int i = 4; i >= 0; --i) {
    // x = x·2^51 + v_i
    u64 carry = 0;
    for (int k = 0; k < 8; ++k) {
      const u64 next = x.w[k] >> 13;
      x.w[k] = (x.w[k] << 51) | carry;
      carry = next;
    }
    U512 limb;
    limb.w[0] = a.v[i];
    x = u512_add(x, limb);
  }
  u512_mod_p(x);
  return x;
}

inline U512 fe_mul_value(const U512& a, const U512& b) {
  U512 x = u512_mul(a, b);
  u512_mod_p(x);
  return x;
}

/// x^e mod p, square-and-multiply over the integer representation.
inline U512 fe_pow_value(const U512& x, const std::uint8_t exponent_le[32]) {
  U512 result;
  result.w[0] = 1;
  for (int byte = 31; byte >= 0; --byte) {
    for (int bit = 7; bit >= 0; --bit) {
      result = fe_mul_value(result, result);
      if ((exponent_le[byte] >> bit) & 1) result = fe_mul_value(result, x);
    }
  }
  return result;
}

/// Builds the little-endian byte representation of 2^k - c (k < 256, small c).
inline void make_exponent(std::uint8_t out[32], int k, std::uint32_t c) {
  std::memset(out, 0, 32);
  out[k / 8] = static_cast<std::uint8_t>(1u << (k % 8));  // 2^k
  std::uint64_t borrow = c;
  for (int i = 0; i < 32 && borrow; ++i) {
    const std::uint64_t cur = out[i];
    const std::uint64_t sub = borrow & 0xff;
    if (cur >= sub) {
      out[i] = static_cast<std::uint8_t>(cur - sub);
      borrow >>= 8;
    } else {
      out[i] = static_cast<std::uint8_t>(cur + 256 - sub);
      borrow = (borrow >> 8) + 1;
    }
  }
}

/// Canonical bytes of a production field element, via the integer oracle.
inline Bytes32 fe_value_bytes(const Fe& a) {
  return u512_low_bytes(fe_value(a));
}

// ---- Field exponentiation on limbs (square-and-multiply) --------------------

/// x^e for a 256-bit little-endian exponent.
inline Fe fe_pow(const Fe& x, const std::uint8_t exponent_le[32]) {
  Fe result = fe_one();
  bool started = false;
  for (int byte = 31; byte >= 0; --byte) {
    for (int bit = 7; bit >= 0; --bit) {
      if (started) result = fe_sq(result);
      if ((exponent_le[byte] >> bit) & 1) {
        result = started ? fe_mul(result, x) : x;
        started = true;
      }
    }
  }
  return started ? result : fe_one();
}

inline Fe fe_invert_by_pow(const Fe& x) {
  std::uint8_t e[32];
  make_exponent(e, 255, 21);  // p - 2 = 2^255 - 21
  return fe_pow(x, e);
}

inline Fe fe_pow2523_by_pow(const Fe& x) {
  std::uint8_t e[32];
  make_exponent(e, 252, 3);  // (p - 5) / 8 = 2^252 - 3
  return fe_pow(x, e);
}

inline const Fe& fe_sqrtm1_by_pow() {
  static const Fe value = [] {
    std::uint8_t e[32];
    make_exponent(e, 253, 5);  // (p - 1) / 4 = 2^253 - 5
    return fe_pow(fe_add(fe_one(), fe_one()), e);
  }();
  return value;
}

// ---- Group: extended coordinates, unified formulas --------------------------

struct Ge {
  Fe x, y, z, t;
};

struct CurveConstants {
  Fe d;   // -121665 / 121666
  Fe d2;  // 2d
};

inline const CurveConstants& constants() {
  static const CurveConstants c = [] {
    CurveConstants out;
    const Fe num = fe_neg(fe_mul_small(fe_one(), 121665));
    const Fe den = fe_mul_small(fe_one(), 121666);
    out.d = fe_mul(num, fe_invert_by_pow(den));
    out.d2 = fe_add(out.d, out.d);
    return out;
  }();
  return c;
}

inline Ge ge_identity() { return Ge{fe_zero(), fe_one(), fe_one(), fe_zero()}; }

inline Ge ge_add(const Ge& p, const Ge& q) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), fe_sub(q.y, q.x));
  const Fe b = fe_mul(fe_add(p.y, p.x), fe_add(q.y, q.x));
  const Fe c = fe_mul(fe_mul(p.t, constants().d2), q.t);
  const Fe d = fe_add(fe_mul(p.z, q.z), fe_mul(p.z, q.z));
  const Fe e = fe_sub(b, a);
  const Fe f = fe_sub(d, c);
  const Fe g = fe_add(d, c);
  const Fe h = fe_add(b, a);
  return Ge{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

inline Ge ge_double(const Ge& p) {
  const Fe a = fe_sq(p.x);
  const Fe b = fe_sq(p.y);
  const Fe zz = fe_sq(p.z);
  const Fe c = fe_add(zz, zz);
  const Fe e = fe_sub(fe_sub(fe_sq(fe_add(p.x, p.y)), a), b);
  const Fe g = fe_sub(b, a);          // a=-1: G = D + B with D = -A
  const Fe f = fe_sub(g, c);
  const Fe h = fe_neg(fe_add(a, b));  // H = D - B
  return Ge{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

inline Ge ge_neg(const Ge& p) { return Ge{fe_neg(p.x), p.y, p.z, fe_neg(p.t)}; }

inline Bytes32 ge_tobytes(const Ge& p) {
  const Fe zinv = fe_invert_by_pow(p.z);
  const Fe x = fe_mul(p.x, zinv);
  const Fe y = fe_mul(p.y, zinv);
  Bytes32 out;
  fe_tobytes(out.data(), y);
  if (fe_isnegative(x)) out[31] ^= 0x80;
  return out;
}

/// Decompresses a point; returns false for non-curve encodings.
inline bool ge_frombytes(Ge& out, const std::uint8_t in[32]) {
  const bool sign = (in[31] & 0x80) != 0;
  const Fe y = fe_frombytes(in);
  const Fe y2 = fe_sq(y);
  const Fe u = fe_sub(y2, fe_one());                         // y^2 - 1
  const Fe v = fe_add(fe_mul(y2, constants().d), fe_one());  // d y^2 + 1

  // x = u v^3 (u v^7)^((p-5)/8)
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow2523_by_pow(fe_mul(u, v7)));

  const Fe vx2 = fe_mul(v, fe_sq(x));
  if (!fe_equal(vx2, u)) {
    if (!fe_equal(vx2, fe_neg(u))) return false;
    x = fe_mul(x, fe_sqrtm1_by_pow());
  }
  if (fe_iszero(x) && sign) return false;  // -0 is not a valid encoding
  if (fe_isnegative(x) != sign) x = fe_neg(x);

  out.x = x;
  out.y = y;
  out.z = fe_one();
  out.t = fe_mul(x, y);
  return true;
}

/// Variable-base scalar multiplication, 4-bit fixed window.
inline Ge ge_scalarmult(const Ge& p, const std::uint8_t scalar_le[32]) {
  Ge table[16];
  table[0] = ge_identity();
  table[1] = p;
  for (int i = 2; i < 16; ++i) table[i] = ge_add(table[i - 1], p);

  Ge r = ge_identity();
  bool started = false;
  for (int i = 63; i >= 0; --i) {
    const std::uint8_t byte = scalar_le[i / 2];
    const std::uint8_t nib = (i % 2 == 1) ? (byte >> 4) : (byte & 0xf);
    if (started) r = ge_double(ge_double(ge_double(ge_double(r))));
    if (nib != 0) {
      r = started ? ge_add(r, table[nib]) : table[nib];
      started = true;
    }
  }
  return started ? r : ge_identity();
}

inline const Ge& base_point() {
  static const Ge b = [] {
    // B.y = 4/5, x even (sign bit 0).
    const Fe y = fe_mul(fe_mul_small(fe_one(), 4),
                        fe_invert_by_pow(fe_mul_small(fe_one(), 5)));
    std::uint8_t enc[32];
    fe_tobytes(enc, y);
    Ge b_pt;
    (void)ge_frombytes(b_pt, enc);
    return b_pt;
  }();
  return b;
}

/// table.entry[i][j-1] = j·16^i·B, i in [0,64), j in [1,15].
struct BaseTable {
  Ge entry[64][15];
};

inline const BaseTable& base_table() {
  static const BaseTable t = [] {
    BaseTable bt;
    Ge power = base_point();  // 16^i·B
    for (int i = 0; i < 64; ++i) {
      bt.entry[i][0] = power;
      for (int j = 1; j < 15; ++j)
        bt.entry[i][j] = ge_add(bt.entry[i][j - 1], power);
      power = ge_double(ge_double(ge_double(ge_double(power))));
    }
    return bt;
  }();
  return t;
}

inline Ge ge_scalarmult_base(const std::uint8_t scalar_le[32]) {
  const BaseTable& bt = base_table();
  Ge r = ge_identity();
  bool started = false;
  for (int i = 0; i < 64; ++i) {
    const std::uint8_t byte = scalar_le[i / 2];
    const std::uint8_t nib = (i % 2 == 0) ? (byte & 0xf) : (byte >> 4);
    if (nib == 0) continue;
    const Ge& e = bt.entry[i][nib - 1];
    r = started ? ge_add(r, e) : e;
    started = true;
  }
  return started ? r : ge_identity();
}

// ---- Scalars mod L ---------------------------------------------------------

inline Bytes32 sc_reduce(const std::uint8_t wide[64]) {
  U512 x = u512_from_bytes(wide, 64);
  u512_mod_l(x);
  return u512_low_bytes(x);
}

/// (a·b + c) mod L.
inline Bytes32 sc_muladd(const std::uint8_t a[32], const std::uint8_t b[32],
                         const std::uint8_t c[32]) {
  U512 x = u512_add(u512_mul(u512_from_bytes(a, 32), u512_from_bytes(b, 32)),
                    u512_from_bytes(c, 32));
  u512_mod_l(x);
  return u512_low_bytes(x);
}

inline bool sc_is_canonical(const std::uint8_t s[32]) {
  for (int i = 3; i >= 0; --i) {
    const u64 w = load_le64(s + 8 * i);
    if (w != kL[i]) return w < kL[i];
  }
  return false;  // s == L
}

// ---- RFC 8032 on top of the above -----------------------------------------

inline std::array<std::uint8_t, 64> expand_seed(const Ed25519Seed& seed) {
  auto h = Sha512::hash(ByteSpan(seed.data(), seed.size()));
  h[0] &= 248;
  h[31] &= 127;
  h[31] |= 64;
  return h;
}

inline Bytes32 challenge(const std::uint8_t r[32], const std::uint8_t a[32],
                         ByteSpan msg) {
  Sha512 hk;
  hk.update(ByteSpan(r, 32));
  hk.update(ByteSpan(a, 32));
  hk.update(msg);
  const auto k_wide = hk.finish();
  return sc_reduce(k_wide.data());
}

inline Ed25519PublicKey public_key(const Ed25519Seed& seed) {
  const auto h = expand_seed(seed);
  return ge_tobytes(ge_scalarmult_base(h.data()));
}

inline Ed25519Signature sign(const Ed25519Seed& seed,
                             const Ed25519PublicKey& pub, ByteSpan msg) {
  const auto h = expand_seed(seed);
  Sha512 hr;
  hr.update(ByteSpan(h.data() + 32, 32));
  hr.update(msg);
  const auto r_wide = hr.finish();
  const Bytes32 r = sc_reduce(r_wide.data());
  const Bytes32 r_enc = ge_tobytes(ge_scalarmult_base(r.data()));
  const Bytes32 k = challenge(r_enc.data(), pub.data(), msg);
  const Bytes32 s = sc_muladd(k.data(), h.data(), r.data());
  Ed25519Signature sig;
  std::memcpy(sig.data(), r_enc.data(), 32);
  std::memcpy(sig.data() + 32, s.data(), 32);
  return sig;
}

/// encode([S]B − [k]A) == R, with the same rejects as RFC 8032 §5.1.7
/// (non-canonical S, undecodable A).
inline bool verify(const Ed25519PublicKey& pub, ByteSpan msg,
                   const Ed25519Signature& sig) {
  if (!sc_is_canonical(sig.data() + 32)) return false;
  Ge a;
  if (!ge_frombytes(a, pub.data())) return false;
  const Bytes32 k = challenge(sig.data(), pub.data(), msg);
  const Ge r_check = ge_add(ge_scalarmult_base(sig.data() + 32),
                            ge_scalarmult(ge_neg(a), k.data()));
  const Bytes32 r_enc = ge_tobytes(r_check);
  return std::memcmp(r_enc.data(), sig.data(), 32) == 0;
}

}  // namespace apna::crypto::oracle
