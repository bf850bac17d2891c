// Ed25519 over twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2.
//
// Point arithmetic follows ref10: additions and doublings produce a
// completed point (GeP1P1) that is converted to projective (3M) when only
// another doubling follows, or to extended (4M) when an addition follows;
// formulas are add-2008-hwcd-3 / dbl-2008-hwcd specialized to a = -1.
// Curve constants (d, 2d, base point) are derived at startup from first
// principles (d = -121665/121666, By = 4/5) instead of being transcribed,
// and validated by the RFC 8032 known-answer tests; the two base-point
// tables are built from them once per process with one batched inversion
// each.
#include "crypto/ed25519.h"

#include <cstring>
#include <vector>

#include "crypto/ed25519_internal.h"
#include "crypto/sha2.h"

namespace apna::crypto {

namespace ed25519_internal {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// ---- Curve constants (computed once) ---------------------------------------

struct CurveConstants {
  Fe d;    // -121665 / 121666
  Fe d2;   // 2d
};

const CurveConstants& constants() {
  static const CurveConstants c = [] {
    CurveConstants out;
    Fe num = fe_neg(fe_mul_small(fe_one(), 121665));
    Fe den = fe_mul_small(fe_one(), 121666);
    out.d = fe_mul(num, fe_invert(den));
    out.d2 = fe_add(out.d, out.d);
    return out;
  }();
  return c;
}

// ---- Point conversions and formulas ----------------------------------------

GeP2 p2_identity() { return GeP2{fe_zero(), fe_one(), fe_one()}; }
GeP3 p3_identity() { return GeP3{fe_zero(), fe_one(), fe_one(), fe_zero()}; }

GeP2 to_p2(const GeP1P1& p) {
  return GeP2{fe_mul(p.x, p.t), fe_mul(p.y, p.z), fe_mul(p.z, p.t)};
}

GeP3 to_p3(const GeP1P1& p) {
  return GeP3{fe_mul(p.x, p.t), fe_mul(p.y, p.z), fe_mul(p.z, p.t),
              fe_mul(p.x, p.y)};
}

GeCached to_cached(const GeP3& p) {
  return GeCached{fe_add(p.y, p.x), fe_sub(p.y, p.x), p.z,
                  fe_mul(p.t, constants().d2)};
}

/// 2p without T on the input: 4 squarings (dbl-2008-hwcd, a = -1).
GeP1P1 dbl(const GeP2& p) {
  const Fe xx = fe_sq(p.x);
  const Fe yy = fe_sq(p.y);
  const Fe zz = fe_sq(p.z);
  const Fe b = fe_add(zz, zz);
  const Fe xy2 = fe_sq(fe_add(p.x, p.y));
  GeP1P1 r;
  r.y = fe_add(yy, xx);
  r.z = fe_sub(yy, xx);
  r.x = fe_sub(xy2, r.y);  // 2XY
  r.t = fe_sub(b, r.z);
  return r;
}

GeP1P1 dbl(const GeP3& p) { return dbl(GeP2{p.x, p.y, p.z}); }

/// p + q (add-2008-hwcd-3, a = -1); `negate` subtracts q instead. Negating a
/// Niels point swaps y+x with y-x and flips the sign of its 2dT term.
GeP1P1 add(const GeP3& p, const GeCached& q, bool negate) {
  const Fe a = fe_mul(fe_add(p.y, p.x), negate ? q.yminusx : q.yplusx);
  const Fe b = fe_mul(fe_sub(p.y, p.x), negate ? q.yplusx : q.yminusx);
  const Fe c = fe_mul(q.t2d, p.t);
  const Fe zz = fe_mul(p.z, q.z);
  const Fe d = fe_add(zz, zz);
  GeP1P1 r;
  r.x = fe_sub(a, b);
  r.y = fe_add(a, b);
  r.z = negate ? fe_sub(d, c) : fe_add(d, c);
  r.t = negate ? fe_add(d, c) : fe_sub(d, c);
  return r;
}

/// Mixed addition with an affine Niels point (Z2 = 1): one fewer multiply.
GeP1P1 madd(const GeP3& p, const GePrecomp& q, bool negate) {
  const Fe a = fe_mul(fe_add(p.y, p.x), negate ? q.yminusx : q.yplusx);
  const Fe b = fe_mul(fe_sub(p.y, p.x), negate ? q.yplusx : q.yminusx);
  const Fe c = fe_mul(q.xy2d, p.t);
  const Fe d = fe_add(p.z, p.z);
  GeP1P1 r;
  r.x = fe_sub(a, b);
  r.y = fe_add(a, b);
  r.z = negate ? fe_sub(d, c) : fe_add(d, c);
  r.t = negate ? fe_add(d, c) : fe_sub(d, c);
  return r;
}

GeP3 dbl_p3(const GeP3& p) { return to_p3(dbl(p)); }

GeP3 neg_p3(const GeP3& p) { return GeP3{fe_neg(p.x), p.y, p.z, fe_neg(p.t)}; }

bool is_identity(const GeP3& p) {
  return fe_iszero(p.x) && fe_equal(p.y, p.z);
}

// ---- Base point and its tables ---------------------------------------------

const GeP3& base_point() {
  static const GeP3 b = [] {
    // B.y = 4/5, x even (sign bit 0): the standard encoding is LE(4/5).
    const Fe four = fe_mul_small(fe_one(), 4);
    const Fe five = fe_mul_small(fe_one(), 5);
    const Fe y = fe_mul(four, fe_invert(five));
    std::uint8_t enc[32];
    fe_tobytes(enc, y);  // sign bit 0
    GeP3 b_pt;
    const bool ok = ge_frombytes(b_pt, enc);
    (void)ok;
    return b_pt;
  }();
  return b;
}

/// Converts extended points to affine Niels form with ONE field inversion
/// (Montgomery's batch trick over the Z coordinates).
void to_precomp(const std::vector<GeP3>& in, GePrecomp* out) {
  const std::size_t n = in.size();
  std::vector<Fe> prefix(n);
  Fe acc = fe_one();
  for (std::size_t i = 0; i < n; ++i) {
    acc = fe_mul(acc, in[i].z);
    prefix[i] = acc;
  }
  Fe inv = fe_invert(acc);  // 1 / (z_0 ... z_{n-1})
  for (std::size_t i = n; i-- > 0;) {
    const Fe zinv = i == 0 ? inv : fe_mul(inv, prefix[i - 1]);
    inv = fe_mul(inv, in[i].z);
    const Fe x = fe_mul(in[i].x, zinv);
    const Fe y = fe_mul(in[i].y, zinv);
    out[i] = GePrecomp{fe_add(y, x), fe_sub(y, x),
                       fe_mul(fe_mul(x, y), constants().d2)};
  }
}

struct BaseTable {
  GePrecomp entry[32][8];  // (j+1)·256^i·B
};

const BaseTable& base_table() {
  static const BaseTable t = [] {
    std::vector<GeP3> pts;
    pts.reserve(32 * 8);
    GeP3 row = base_point();  // 256^i·B
    for (int i = 0; i < 32; ++i) {
      const GeCached row_c = to_cached(row);
      GeP3 q = row;
      for (int j = 0; j < 8; ++j) {
        pts.push_back(q);
        q = to_p3(add(q, row_c, false));
      }
      for (int k = 0; k < 8; ++k) row = dbl_p3(row);
    }
    BaseTable bt;
    to_precomp(pts, &bt.entry[0][0]);
    return bt;
  }();
  return t;
}

struct OddTable {
  GePrecomp entry[64];  // (2k+1)·B
};

const OddTable& odd_table() {
  static const OddTable t = [] {
    std::vector<GeP3> pts;
    pts.reserve(64);
    const GeCached b2 = to_cached(dbl_p3(base_point()));
    GeP3 q = base_point();
    for (int k = 0; k < 64; ++k) {
      pts.push_back(q);
      q = to_p3(add(q, b2, false));
    }
    OddTable ot;
    to_precomp(pts, ot.entry);
    return ot;
  }();
  return t;
}

// ---- Fixed-base walk (constant time) ---------------------------------------

/// 1 iff b == c, without a branch.
u64 ct_eq(std::int8_t b, std::int8_t c) {
  const u64 x = static_cast<std::uint8_t>(b) ^ static_cast<std::uint8_t>(c);
  return (x - 1) >> 63;
}

/// t = digit·256^pos·B for a digit in [-8, 8]: reads all 8 entries of the
/// row and keeps the match by mask, so the memory trace is independent of
/// the (secret) digit.
GePrecomp select(int pos, std::int8_t digit) {
  const u64 neg = static_cast<u64>(static_cast<std::int64_t>(digit)) >> 63;
  const int sign_mask = -static_cast<int>(neg);  // -1 iff digit < 0
  const auto abs = static_cast<std::int8_t>((digit ^ sign_mask) - sign_mask);
  GePrecomp t{fe_one(), fe_one(), fe_zero()};  // identity
  const GePrecomp* row = base_table().entry[pos];
  for (int j = 0; j < 8; ++j) {
    const u64 hit = ct_eq(abs, static_cast<std::int8_t>(j + 1));
    fe_cmov(t.yplusx, row[j].yplusx, hit);
    fe_cmov(t.yminusx, row[j].yminusx, hit);
    fe_cmov(t.xy2d, row[j].xy2d, hit);
  }
  const GePrecomp minus{t.yminusx, t.yplusx, fe_neg(t.xy2d)};
  fe_cmov(t.yplusx, minus.yplusx, neg);
  fe_cmov(t.yminusx, minus.yminusx, neg);
  fe_cmov(t.xy2d, minus.xy2d, neg);
  return t;
}

// ---- Width-w NAF (verify walk) ---------------------------------------------

/// Odd digits in (-2^(w-1), 2^(w-1)), at most one nonzero digit in any w
/// consecutive positions; s must be below 2^255.
void wnaf(std::int8_t naf[256], const std::uint8_t s[32], int w) {
  const u64 x[5] = {load_le64(s), load_le64(s + 8), load_le64(s + 16),
                    load_le64(s + 24), 0};
  std::memset(naf, 0, 256);
  const u64 width = u64{1} << w;
  const u64 mask = width - 1;
  u64 carry = 0;
  int pos = 0;
  while (pos < 256) {
    const int idx = pos / 64, bit = pos % 64;
    u64 buf = x[idx] >> bit;
    if (bit + w > 64) buf |= x[idx + 1] << (64 - bit);
    const u64 window = carry + (buf & mask);
    if ((window & 1) == 0) {
      ++pos;
      continue;
    }
    if (window < width / 2) {
      carry = 0;
      naf[pos] = static_cast<std::int8_t>(window);
    } else {
      carry = 1;
      naf[pos] = static_cast<std::int8_t>(static_cast<std::int64_t>(window) -
                                          static_cast<std::int64_t>(width));
    }
    pos += w;
  }
}

// ---- Scalar arithmetic mod L ------------------------------------------------
// L = 2^252 + 27742317777372353535851937790883648493

constexpr u64 kL[5] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL,
                       0x0000000000000000ULL, 0x1000000000000000ULL, 0};
// floor(2^512 / L), the Barrett constant.
constexpr u64 kMu[5] = {0xed9ce5a30a2c131bULL, 0x2106215d086329a7ULL,
                        0xffffffffffffffebULL, 0xffffffffffffffffULL,
                        0x000000000000000fULL};

/// out = x mod L for x < 2^512 (little-endian words): Barrett reduction
/// (HAC 14.42 with b = 2^64, k = 4). The quotient estimate q3 is never more
/// than ONE below floor(x / L): with mu = 2^512/L − f (f ≈ 0.225), the two
/// truncations lose less than f·x/2^512 + 2^192/L < 0.23 of a unit. So
/// x − q3·L lies in [0, 2L) and one masked subtraction finishes it.
void barrett_reduce(std::uint8_t out[32], const u64 x[8]) {
  // q3 = floor(floor(x / b^3) · mu / b^5)
  u64 q2[10] = {};
  for (int i = 0; i < 5; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 5; ++j) {
      const u128 cur = (u128)x[3 + i] * kMu[j] + q2[i + j] + carry;
      q2[i + j] = (u64)cur;
      carry = (u64)(cur >> 64);
    }
    q2[i + 5] = carry;
  }
  const u64* q3 = q2 + 5;
  // r2 = q3 · L mod b^5
  u64 r2[5] = {};
  for (int i = 0; i < 5; ++i) {
    u64 carry = 0;
    for (int j = 0; i + j < 5; ++j) {
      const u128 cur = (u128)q3[i] * kL[j] + r2[i + j] + carry;
      r2[i + j] = (u64)cur;
      carry = (u64)(cur >> 64);
    }
  }
  // r = (x mod b^5) − r2 mod b^5 = x − q3·L, in [0, 2L).
  u64 r[5];
  u64 borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 d = (u128)x[i] - r2[i] - borrow;
    r[i] = (u64)d;
    borrow = (u64)(d >> 64) & 1;
  }
  u64 t[5];
  borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 d = (u128)r[i] - kL[i] - borrow;
    t[i] = (u64)d;
    borrow = (u64)(d >> 64) & 1;
  }
  const u64 keep = borrow - 1;  // all-ones iff r >= L
  for (int i = 0; i < 4; ++i)
    store_le64(out + 8 * i, r[i] ^ (keep & (r[i] ^ t[i])));
}

void clamp(std::uint8_t s[32]) {
  s[0] &= 248;
  s[31] &= 127;
  s[31] |= 64;
}

}  // namespace

bool ge_frombytes(GeP3& out, const std::uint8_t in[32]) {
  const bool sign = (in[31] & 0x80) != 0;
  const Fe y = fe_frombytes(in);
  const Fe y2 = fe_sq(y);
  const Fe u = fe_sub(y2, fe_one());                         // y^2 - 1
  const Fe v = fe_add(fe_mul(y2, constants().d), fe_one());  // d y^2 + 1

  // x = u v^3 (u v^7)^((p-5)/8)
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow2523(fe_mul(u, v7)));

  const Fe vx2 = fe_mul(v, fe_sq(x));
  if (!fe_equal(vx2, u)) {
    if (!fe_equal(vx2, fe_neg(u))) return false;
    x = fe_mul(x, fe_sqrtm1());
  }
  if (fe_iszero(x) && sign) return false;  // -0 is not a valid encoding
  if (fe_isnegative(x) != sign) x = fe_neg(x);

  out.x = x;
  out.y = y;
  out.z = fe_one();
  out.t = fe_mul(x, y);
  return true;
}

void ge_tobytes(std::uint8_t out[32], const GeP2& p) {
  const Fe zinv = fe_invert(p.z);
  const Fe x = fe_mul(p.x, zinv);
  const Fe y = fe_mul(p.y, zinv);
  fe_tobytes(out, y);
  if (fe_isnegative(x)) out[31] ^= 0x80;
}

void ge_p3_tobytes(std::uint8_t out[32], const GeP3& p) {
  ge_tobytes(out, GeP2{p.x, p.y, p.z});
}

GeP3 ge_scalarmult_base(const std::uint8_t a[32]) {
  // Signed radix 16: a = Σ e[i]·16^i with e[i] in [-8, 8).
  std::int8_t e[64];
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<std::int8_t>(a[i] & 15);
    e[2 * i + 1] = static_cast<std::int8_t>((a[i] >> 4) & 15);
  }
  std::int8_t carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[i] = static_cast<std::int8_t>(e[i] + carry);
    carry = static_cast<std::int8_t>((e[i] + 8) >> 4);
    e[i] = static_cast<std::int8_t>(e[i] - carry * 16);
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);

  // Odd digits first (they carry an extra factor 16), then ×16, then even.
  GeP3 h = p3_identity();
  for (int i = 1; i < 64; i += 2)
    h = to_p3(madd(h, select(i / 2, e[i]), false));
  GeP2 s = to_p2(dbl(h));
  s = to_p2(dbl(s));
  s = to_p2(dbl(s));
  h = to_p3(dbl(s));
  for (int i = 0; i < 64; i += 2)
    h = to_p3(madd(h, select(i / 2, e[i]), false));
  return h;
}

GeP2 ge_double_scalarmult_vartime(const std::uint8_t a[32], const GeP3& A,
                                  const std::uint8_t b[32]) {
  std::int8_t anaf[256], bnaf[256];
  wnaf(anaf, a, 5);
  wnaf(bnaf, b, 8);

  GeCached ai[8];  // A, 3A, 5A, ..., 15A
  ai[0] = to_cached(A);
  const GeP3 a2 = dbl_p3(A);
  for (int k = 1; k < 8; ++k)
    ai[k] = to_cached(to_p3(add(a2, ai[k - 1], false)));
  const GePrecomp* bi = odd_table().entry;

  int i = 255;
  while (i >= 0 && anaf[i] == 0 && bnaf[i] == 0) --i;
  GeP2 r = p2_identity();
  for (; i >= 0; --i) {
    GeP1P1 t = dbl(r);
    // Digit d selects the odd multiple |d| at index |d|/2, negated if d < 0.
    if (const int d = anaf[i]; d != 0)
      t = add(to_p3(t), ai[(d < 0 ? -d : d) / 2], d < 0);
    if (const int d = bnaf[i]; d != 0)
      t = madd(to_p3(t), bi[(d < 0 ? -d : d) / 2], d < 0);
    r = to_p2(t);
  }
  return r;
}

const GePrecomp& ge_base_table(int i, int j) {
  return base_table().entry[i][j];
}

const GePrecomp& ge_base_odd_multiple(int k) { return odd_table().entry[k]; }

void sc_reduce(std::uint8_t out[32], const std::uint8_t in[64]) {
  u64 x[8];
  for (int i = 0; i < 8; ++i) x[i] = load_le64(in + 8 * i);
  barrett_reduce(out, x);
}

void sc_muladd(std::uint8_t out[32], const std::uint8_t a[32],
               const std::uint8_t b[32], const std::uint8_t c[32]) {
  u64 aw[4], bw[4];
  for (int i = 0; i < 4; ++i) {
    aw[i] = load_le64(a + 8 * i);
    bw[i] = load_le64(b + 8 * i);
  }
  u64 x[8] = {};
  for (int i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 cur = (u128)aw[i] * bw[j] + x[i + j] + carry;
      x[i + j] = (u64)cur;
      carry = (u64)(cur >> 64);
    }
    x[i + 4] = carry;
  }
  // a·b + c < 2^512 for any 256-bit inputs, so the sum cannot overflow.
  u64 carry = 0;
  for (int i = 0; i < 8; ++i) {
    const u128 cur = (u128)x[i] + (i < 4 ? load_le64(c + 8 * i) : 0) + carry;
    x[i] = (u64)cur;
    carry = (u64)(cur >> 64);
  }
  barrett_reduce(out, x);
}

bool sc_is_canonical(const std::uint8_t s[32]) {
  for (int i = 3; i >= 0; --i) {
    const u64 w = load_le64(s + 8 * i);
    if (w != kL[i]) return w < kL[i];
  }
  return false;  // s == L
}

}  // namespace ed25519_internal

using namespace ed25519_internal;

namespace {

/// k = SHA-512(R ‖ A ‖ msg) mod L.
void challenge(std::uint8_t k[32], const std::uint8_t r[32],
               const Ed25519PublicKey& pub, ByteSpan msg) {
  Sha512 hk;
  hk.update(ByteSpan(r, 32));
  hk.update(ByteSpan(pub.data(), 32));
  hk.update(msg);
  const auto k_wide = hk.finish();
  sc_reduce(k, k_wide.data());
}

/// The clamped secret scalar s and the nonce prefix from SHA-512(seed).
std::array<std::uint8_t, 64> expand_seed(const Ed25519Seed& seed) {
  auto h = Sha512::hash(ByteSpan(seed.data(), seed.size()));
  clamp(h.data());
  return h;
}

}  // namespace

Ed25519PublicKey ed25519_public_key(const Ed25519Seed& seed) {
  const auto h = expand_seed(seed);
  Ed25519PublicKey pub;
  ge_p3_tobytes(pub.data(), ge_scalarmult_base(h.data()));
  return pub;
}

Ed25519Signature ed25519_sign(const Ed25519Seed& seed,
                              const Ed25519PublicKey& pub, ByteSpan msg) {
  const auto h = expand_seed(seed);

  // r = SHA512(prefix ‖ msg) mod L
  Sha512 hr;
  hr.update(ByteSpan(h.data() + 32, 32));
  hr.update(msg);
  const auto r_wide = hr.finish();
  std::uint8_t r[32];
  sc_reduce(r, r_wide.data());

  Ed25519Signature sig{};
  ge_p3_tobytes(sig.data(), ge_scalarmult_base(r));

  std::uint8_t k[32];
  challenge(k, sig.data(), pub, msg);

  // S = (r + k*s) mod L
  sc_muladd(sig.data() + 32, k, h.data(), r);
  return sig;
}

bool ed25519_verify(const Ed25519PublicKey& pub, ByteSpan msg,
                    const Ed25519Signature& sig) {
  if (!sc_is_canonical(sig.data() + 32)) return false;

  GeP3 a;
  if (!ge_frombytes(a, pub.data())) return false;

  std::uint8_t k[32];
  challenge(k, sig.data(), pub, msg);

  // Check encode([S]B − [k]A) == R.
  const GeP2 r_check =
      ge_double_scalarmult_vartime(k, neg_p3(a), sig.data() + 32);
  std::uint8_t r_enc[32];
  ge_tobytes(r_enc, r_check);
  return ct_equal(ByteSpan(r_enc, 32), ByteSpan(sig.data(), 32));
}

// ---- Batch verification -----------------------------------------------------

namespace {

/// One screened, batch-ready signature: decoded points and derived scalars.
struct BatchEntry {
  std::size_t index;            // position in the caller's item array
  GeP3 neg_a;                   // −A_i
  GeP3 neg_r;                   // −R_i
  std::uint8_t s[32];           // S_i
  std::uint8_t k[32];           // SHA512(R ‖ A ‖ msg) mod L
};

std::uint8_t nibble_at(const std::uint8_t s[32], int pos) {
  const std::uint8_t byte = s[pos / 2];
  return (pos % 2 == 1) ? static_cast<std::uint8_t>(byte >> 4)
                        : static_cast<std::uint8_t>(byte & 0xf);
}

/// table[i] = (i+1)·p for i in [0, 15).
void build_multiples(std::array<GeCached, 15>& table, const GeP3& p) {
  table[0] = to_cached(p);
  GeP3 q = p;
  for (int i = 1; i < 15; ++i) {
    q = to_p3(add(q, table[0], false));
    table[i] = to_cached(q);
  }
}

/// Evaluates the random-linear-combination equation over entries[lo, hi):
/// (Σ z_i S_i)·B + Σ (z_i k_i)·(−A_i) + Σ z_i·(−R_i) == identity, with
/// fresh z_i drawn per call. A shared-doubling Straus multi-scalar walk:
/// every point gets a 1..15 multiples table, then one pass over the 64
/// nibble positions does 4 doublings per position for the WHOLE sum.
bool rlc_check(const std::vector<BatchEntry>& entries, std::size_t lo,
               std::size_t hi, Rng& rng) {
  const std::size_t n = hi - lo;
  const std::size_t m = 2 * n + 1;  // −A_i, −R_i pairs plus B

  std::vector<std::array<GeCached, 15>> tables(m);
  std::vector<std::array<std::uint8_t, 32>> scalars(m);

  std::uint8_t sb_coeff[32] = {};  // Σ z_i S_i mod L
  const std::uint8_t zero32[32] = {};

  for (std::size_t j = 0; j < n; ++j) {
    const BatchEntry& e = entries[lo + j];
    // z_i: 128-bit, forced ≡ 1 (mod 8) — nonzero by construction, and the
    // low three bits carry each signature's torsion component through the
    // sum unscaled.
    std::uint8_t z[32] = {};
    rng.fill(MutByteSpan(z, 16));
    z[0] = static_cast<std::uint8_t>((z[0] & ~std::uint8_t{7}) | 1);

    sc_muladd(sb_coeff, z, e.s, sb_coeff);              // += z_i S_i
    sc_muladd(scalars[2 * j].data(), z, e.k, zero32);   // z_i k_i
    std::memcpy(scalars[2 * j + 1].data(), z, 32);      // z_i

    build_multiples(tables[2 * j], e.neg_a);
    build_multiples(tables[2 * j + 1], e.neg_r);
  }
  scalars[m - 1] = std::to_array(sb_coeff);
  build_multiples(tables[m - 1], base_point());

  GeP3 acc = p3_identity();
  bool started = false;
  for (int pos = 63; pos >= 0; --pos) {
    if (started) {
      GeP2 s = to_p2(dbl(acc));
      s = to_p2(dbl(s));
      s = to_p2(dbl(s));
      acc = to_p3(dbl(s));
    }
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint8_t nib = nibble_at(scalars[j].data(), pos);
      if (nib == 0) continue;
      acc = to_p3(add(acc, tables[j][nib - 1], false));
      started = true;
    }
  }
  return !started || is_identity(acc);
}

/// Verifies entries[lo, hi): RLC first, bisecting on failure down to scalar
/// ed25519_verify leaves so the result is bit-identical to the scalar path.
void batch_bisect(const std::vector<BatchEntry>& entries, std::size_t lo,
                  std::size_t hi, std::span<const Ed25519BatchItem> items,
                  bool* out, Rng& rng) {
  if (hi == lo) return;
  if (hi - lo == 1) {
    const Ed25519BatchItem& it = items[entries[lo].index];
    out[entries[lo].index] = ed25519_verify(*it.pub, it.msg, *it.sig);
    return;
  }
  if (rlc_check(entries, lo, hi, rng)) {
    for (std::size_t j = lo; j < hi; ++j) out[entries[j].index] = true;
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  batch_bisect(entries, lo, mid, items, out, rng);
  batch_bisect(entries, mid, hi, items, out, rng);
}

}  // namespace

bool ed25519_verify_batch(std::span<const Ed25519BatchItem> items, bool* out,
                          Rng& rng) {
  std::vector<BatchEntry> entries;
  entries.reserve(items.size());

  for (std::size_t i = 0; i < items.size(); ++i) {
    const Ed25519BatchItem& it = items[i];
    out[i] = false;
    // Screens mirror the scalar rejects exactly. encode() only ever emits
    // canonical valid-curve encodings, so bytes that fail to decode — or
    // that decode but do not re-encode to themselves — can never equal
    // encode(S·B − k·A): scalar verification rejects them too.
    if (!sc_is_canonical(it.sig->data() + 32)) continue;
    GeP3 a;
    if (!ge_frombytes(a, it.pub->data())) continue;
    GeP3 r;
    if (!ge_frombytes(r, it.sig->data())) continue;
    // Decoding leaves Z = 1, so re-encoding needs no inversion.
    std::uint8_t r_reenc[32];
    fe_tobytes(r_reenc, r.y);
    if (fe_isnegative(r.x)) r_reenc[31] ^= 0x80;
    if (std::memcmp(r_reenc, it.sig->data(), 32) != 0) continue;

    BatchEntry e;
    e.index = i;
    e.neg_a = neg_p3(a);
    e.neg_r = neg_p3(r);
    std::memcpy(e.s, it.sig->data() + 32, 32);
    challenge(e.k, it.sig->data(), *it.pub, it.msg);
    entries.push_back(e);
  }

  batch_bisect(entries, 0, entries.size(), items, out, rng);

  bool all = true;
  for (std::size_t i = 0; i < items.size(); ++i) all = all && out[i];
  return all;
}

Ed25519KeyPair Ed25519KeyPair::generate(Rng& rng) {
  Ed25519KeyPair kp;
  rng.fill(MutByteSpan(kp.seed.data(), kp.seed.size()));
  kp.pub = ed25519_public_key(kp.seed);
  return kp;
}

}  // namespace apna::crypto
