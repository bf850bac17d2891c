#include "crypto/fe25519.h"

namespace apna::crypto {

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;

using fe_detail::carry_once;
using fe_detail::kMask;
using fe_detail::sq_in_place;

/// x^(2^250 - 1), the shared prefix of the inversion and square-root
/// addition chains; also returns x^11 (the inversion's last factor).
Fe pow22501(const Fe& x, Fe& x11) {
  Fe t0 = fe_sq(x);                                   // x^2
  Fe t1 = t0;
  sq_in_place(t1.v, 2);                               // x^8
  t1 = fe_mul(x, t1);                                 // x^9
  x11 = fe_mul(t0, t1);                               // x^11
  t0 = fe_sq(x11);                                    // x^22
  t1 = fe_mul(t1, t0);                                // x^(2^5 - 1)
  t0 = t1; sq_in_place(t0.v, 5);  t1 = fe_mul(t0, t1);  // x^(2^10 - 1)
  Fe t2 = t1; sq_in_place(t2.v, 10); t2 = fe_mul(t2, t1);  // x^(2^20 - 1)
  Fe t3 = t2; sq_in_place(t3.v, 20); t2 = fe_mul(t3, t2);  // x^(2^40 - 1)
  sq_in_place(t2.v, 10); t1 = fe_mul(t2, t1);             // x^(2^50 - 1)
  t2 = t1; sq_in_place(t2.v, 50); t2 = fe_mul(t2, t1);     // x^(2^100 - 1)
  t3 = t2; sq_in_place(t3.v, 100); t2 = fe_mul(t3, t2);    // x^(2^200 - 1)
  sq_in_place(t2.v, 50);
  return fe_mul(t2, t1);                                   // x^(2^250 - 1)
}

}  // namespace

Fe fe_mul_small(const Fe& a, std::uint64_t s) {
  Fe r;
  u128 c = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 t = (u128)a.v[i] * s + c;
    r.v[i] = (u64)t & kMask;
    c = t >> 51;
  }
  r.v[0] += (u64)c * 19;
  carry_once(r.v);
  return r;
}

Fe fe_frombytes(const std::uint8_t in[32]) {
  Fe r;
  r.v[0] = load_le64(in) & kMask;
  r.v[1] = (load_le64(in + 6) >> 3) & kMask;
  r.v[2] = (load_le64(in + 12) >> 6) & kMask;
  r.v[3] = (load_le64(in + 19) >> 1) & kMask;
  r.v[4] = (load_le64(in + 24) >> 12) & kMask;
  return r;
}

void fe_tobytes(std::uint8_t out[32], const Fe& a) {
  std::array<u64, 5> h = a.v;
  carry_once(h);
  carry_once(h);

  // q = floor((h + 19) / 2^255) ∈ {0, 1}
  u64 q = (h[0] + 19) >> 51;
  q = (h[1] + q) >> 51;
  q = (h[2] + q) >> 51;
  q = (h[3] + q) >> 51;
  q = (h[4] + q) >> 51;

  h[0] += 19 * q;
  h[1] += h[0] >> 51; h[0] &= kMask;
  h[2] += h[1] >> 51; h[1] &= kMask;
  h[3] += h[2] >> 51; h[2] &= kMask;
  h[4] += h[3] >> 51; h[3] &= kMask;
  h[4] &= kMask;  // drop the 2^255 bit

  store_le64(out, h[0] | (h[1] << 51));
  store_le64(out + 8, (h[1] >> 13) | (h[2] << 38));
  store_le64(out + 16, (h[2] >> 26) | (h[3] << 25));
  store_le64(out + 24, (h[3] >> 39) | (h[4] << 12));
}

Fe fe_invert(const Fe& x) {
  Fe x11;
  Fe t = pow22501(x, x11);
  sq_in_place(t.v, 5);
  return fe_mul(t, x11);  // x^(2^255 - 21) = x^(p-2)
}

Fe fe_pow2523(const Fe& x) {
  Fe x11;
  Fe t = pow22501(x, x11);
  sq_in_place(t.v, 2);
  return fe_mul(t, x);  // x^(2^252 - 3)
}

bool fe_iszero(const Fe& a) {
  std::uint8_t b[32];
  fe_tobytes(b, a);
  std::uint8_t acc = 0;
  for (int i = 0; i < 32; ++i) acc |= b[i];
  return acc == 0;
}

bool fe_isnegative(const Fe& a) {
  std::uint8_t b[32];
  fe_tobytes(b, a);
  return (b[0] & 1) != 0;
}

bool fe_equal(const Fe& a, const Fe& b) {
  std::uint8_t ba[32], bb[32];
  fe_tobytes(ba, a);
  fe_tobytes(bb, b);
  return ct_equal(ByteSpan(ba, 32), ByteSpan(bb, 32));
}

void fe_cswap(Fe& a, Fe& b, std::uint64_t bit) {
  const u64 mask = ~(bit - 1);  // all-ones iff bit == 1
  for (int i = 0; i < 5; ++i) {
    const u64 t = mask & (a.v[i] ^ b.v[i]);
    a.v[i] ^= t;
    b.v[i] ^= t;
  }
}

void fe_cmov(Fe& a, const Fe& b, std::uint64_t bit) {
  const u64 mask = ~(bit - 1);  // all-ones iff bit == 1
  for (int i = 0; i < 5; ++i) a.v[i] ^= mask & (a.v[i] ^ b.v[i]);
}

const Fe& fe_sqrtm1() {
  static const Fe value = [] {
    // 2^((p-1)/4) = 2^(2^253 - 5) = (2^(2^250 - 1))^(2^3) · 2^3.
    const Fe two = fe_add(fe_one(), fe_one());
    Fe unused;
    Fe t = pow22501(two, unused);
    sq_in_place(t.v, 3);
    return fe_mul(t, fe_mul_small(fe_one(), 8));
  }();
  return value;
}

}  // namespace apna::crypto
