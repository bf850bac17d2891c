// Field, scalar and table edge cases of the Ed25519 internals, checked
// against the big-integer / naive-point oracle in ed25519_oracle.h.
//
// Field: fe_mul, fe_sq, fe_invert and fe_pow2523 on 0, 1, p−1,
// non-canonical encodings in [p, 2^255), limbs at the documented 2^54
// input bound, and random values. Scalars: sc_reduce / sc_muladd on 0,
// L−1, L, 2^512−1 and q·L + r. Tables: every fixed-base and verify-walk
// table entry equals the oracle's multiple of B. Walks: the fixed-base
// walk, the double-scalar walk and point decoding agree with the oracle.
#include <gtest/gtest.h>

#include <vector>

#include "crypto/ed25519_internal.h"
#include "crypto/fe25519.h"
#include "crypto/rng.h"
#include "ed25519_oracle.h"

namespace apna::crypto {
namespace {

namespace ei = ed25519_internal;
using oracle::Bytes32;
using oracle::U512;

Bytes32 fe_bytes(const Fe& a) {
  Bytes32 out;
  fe_tobytes(out.data(), a);
  return out;
}

Fe fe_from_hex_le(const Bytes32& b) { return fe_frombytes(b.data()); }

/// 32 little-endian bytes of 2^255 - 19 + delta (delta may be negative).
Bytes32 p_plus(int delta) {
  U512 x;
  for (int i = 0; i < 4; ++i) x.w[i] = oracle::kP[i];
  if (delta >= 0) {
    U512 d;
    d.w[0] = static_cast<std::uint64_t>(delta);
    x = oracle::u512_add(x, d);
  } else {
    x.w[0] -= static_cast<std::uint64_t>(-delta);  // no borrow for small delta
  }
  return oracle::u512_low_bytes(x);
}

/// The field inputs every field KAT runs over.
std::vector<Fe> field_inputs() {
  std::vector<Fe> in;
  in.push_back(fe_zero());
  in.push_back(fe_one());
  in.push_back(fe_from_hex_le(p_plus(-1)));  // p − 1
  // Non-canonical encodings in [p, 2^255): p, p+1, p+18 = 2^255 − 1.
  for (int d : {0, 1, 2, 18}) in.push_back(fe_from_hex_le(p_plus(d)));
  // Limbs at the documented input bound (just below 2^54).
  const std::uint64_t top = (std::uint64_t{1} << 54) - 1;
  in.push_back(Fe{{top, top, top, top, top}});
  in.push_back(Fe{{top, 0, top, 0, top}});
  in.push_back(Fe{{0, top, 0, top, 0}});
  ChaChaRng rng(4242);
  for (int i = 0; i < 8; ++i) {
    Fe f;
    for (auto& limb : f.v) limb = rng.next_u64() & top;
    in.push_back(f);
  }
  for (int i = 0; i < 8; ++i) {
    Bytes32 b;
    rng.fill(b);
    in.push_back(fe_frombytes(b.data()));
  }
  return in;
}

TEST(FieldEdgeKat, MulAndSqMatchIntegerOracle) {
  const auto in = field_inputs();
  for (std::size_t i = 0; i < in.size(); ++i) {
    const U512 a = oracle::fe_value(in[i]);
    EXPECT_EQ(fe_bytes(fe_sq(in[i])),
              oracle::u512_low_bytes(oracle::fe_mul_value(a, a)))
        << "fe_sq input " << i;
    for (std::size_t j = 0; j < in.size(); ++j) {
      const U512 b = oracle::fe_value(in[j]);
      EXPECT_EQ(fe_bytes(fe_mul(in[i], in[j])),
                oracle::u512_low_bytes(oracle::fe_mul_value(a, b)))
          << "fe_mul inputs " << i << ", " << j;
    }
  }
}

TEST(FieldEdgeKat, InvertAndPow2523MatchIntegerOracle) {
  std::uint8_t e_inv[32], e_2523[32];
  oracle::make_exponent(e_inv, 255, 21);  // p − 2
  oracle::make_exponent(e_2523, 252, 3);  // (p − 5) / 8
  const auto in = field_inputs();
  for (std::size_t i = 0; i < in.size(); ++i) {
    const U512 a = oracle::fe_value(in[i]);
    const Bytes32 want_inv =
        oracle::u512_low_bytes(oracle::fe_pow_value(a, e_inv));
    const Bytes32 want_2523 =
        oracle::u512_low_bytes(oracle::fe_pow_value(a, e_2523));
    EXPECT_EQ(fe_bytes(fe_invert(in[i])), want_inv) << "fe_invert input " << i;
    EXPECT_EQ(fe_bytes(fe_pow2523(in[i])), want_2523)
        << "fe_pow2523 input " << i;
    // The oracle's own limb-level square-and-multiply agrees too.
    EXPECT_EQ(fe_bytes(oracle::fe_invert_by_pow(in[i])), want_inv)
        << "input " << i;
  }
  // 0 inverts to 0 (the encode path relies on it never being hit, but the
  // chain must still be total).
  EXPECT_EQ(fe_bytes(fe_invert(fe_zero())), Bytes32{});
}

TEST(FieldEdgeKat, SqrtMinusOneMatchesOracle) {
  EXPECT_EQ(fe_bytes(fe_sqrtm1()), fe_bytes(oracle::fe_sqrtm1_by_pow()));
  EXPECT_EQ(fe_bytes(fe_sq(fe_sqrtm1())), p_plus(-1));
}

TEST(FieldEdgeKat, CanonicalEncodingMatchesIntegerOracle) {
  for (const Fe& f : field_inputs())
    EXPECT_EQ(fe_bytes(f), oracle::fe_value_bytes(f));
}

// ---- scalars mod L ---------------------------------------------------------

Bytes32 l_plus(std::int64_t delta) {
  U512 x;
  for (int i = 0; i < 4; ++i) x.w[i] = oracle::kL[i];
  if (delta >= 0) {
    U512 d;
    d.w[0] = static_cast<std::uint64_t>(delta);
    x = oracle::u512_add(x, d);
  } else {
    x.w[0] -= static_cast<std::uint64_t>(-delta);
  }
  return oracle::u512_low_bytes(x);
}

Bytes32 reduce(const std::array<std::uint8_t, 64>& wide) {
  Bytes32 out;
  ei::sc_reduce(out.data(), wide.data());
  return out;
}

std::array<std::uint8_t, 64> widen(const Bytes32& b) {
  std::array<std::uint8_t, 64> w{};
  std::memcpy(w.data(), b.data(), 32);
  return w;
}

TEST(ScalarEdgeKat, ReduceEdges) {
  EXPECT_EQ(reduce({}), Bytes32{});
  EXPECT_EQ(reduce(widen(l_plus(-1))), l_plus(-1));
  EXPECT_EQ(reduce(widen(l_plus(0))), Bytes32{});
  Bytes32 one{};
  one[0] = 1;
  EXPECT_EQ(reduce(widen(l_plus(1))), one);
  std::array<std::uint8_t, 64> all_ones;
  all_ones.fill(0xff);
  EXPECT_EQ(reduce(all_ones), oracle::sc_reduce(all_ones.data()));
  // 2^512 − 1 mod L, worked out independently by long division.
  U512 x;
  for (auto& w : x.w) w = ~std::uint64_t{0};
  oracle::u512_mod_l(x);
  EXPECT_EQ(reduce(all_ones), oracle::u512_low_bytes(x));
}

TEST(ScalarEdgeKat, ReduceQTimesLPlusR) {
  ChaChaRng rng(77);
  U512 l;
  for (int i = 0; i < 4; ++i) l.w[i] = oracle::kL[i];
  for (int iter = 0; iter < 2000; ++iter) {
    // q < 2^256 keeps q·L + r below 2^509; r < L.
    U512 q;
    for (int i = 0; i < 4; ++i) q.w[i] = rng.next_u64();
    if (iter % 4 == 0) q.w[3] = 0;  // smaller quotients too
    std::array<std::uint8_t, 64> rb{};
    rng.fill(MutByteSpan(rb.data(), 64));
    const Bytes32 r = oracle::sc_reduce(rb.data());
    const U512 x = oracle::u512_add(oracle::u512_mul(q, l),
                                    oracle::u512_from_bytes(r.data(), 32));
    std::array<std::uint8_t, 64> wide;
    for (int i = 0; i < 8; ++i) store_le64(wide.data() + 8 * i, x.w[i]);
    ASSERT_EQ(reduce(wide), r) << "iteration " << iter;
    // And plain random 512-bit inputs against the oracle.
    ASSERT_EQ(reduce(rb), r);
  }
}

TEST(ScalarEdgeKat, MulAddEdgesAndRandom) {
  Bytes32 max;
  max.fill(0xff);
  Bytes32 one{};
  one[0] = 1;
  const std::vector<Bytes32> edges = {Bytes32{}, one, l_plus(-1), l_plus(0),
                                      l_plus(1), max};
  for (const auto& a : edges)
    for (const auto& b : edges)
      for (const auto& c : edges) {
        Bytes32 got;
        ei::sc_muladd(got.data(), a.data(), b.data(), c.data());
        ASSERT_EQ(got, oracle::sc_muladd(a.data(), b.data(), c.data()));
      }
  ChaChaRng rng(78);
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes32 a, b, c;
    rng.fill(a);
    rng.fill(b);
    rng.fill(c);
    Bytes32 got;
    ei::sc_muladd(got.data(), a.data(), b.data(), c.data());
    ASSERT_EQ(got, oracle::sc_muladd(a.data(), b.data(), c.data()))
        << "iteration " << iter;
  }
}

TEST(ScalarEdgeKat, CanonicalCheck) {
  EXPECT_TRUE(ei::sc_is_canonical(Bytes32{}.data()));
  EXPECT_TRUE(ei::sc_is_canonical(l_plus(-1).data()));
  EXPECT_FALSE(ei::sc_is_canonical(l_plus(0).data()));
  EXPECT_FALSE(ei::sc_is_canonical(l_plus(1).data()));
  Bytes32 max;
  max.fill(0xff);
  EXPECT_FALSE(ei::sc_is_canonical(max.data()));
}

// ---- base-point tables -----------------------------------------------------

/// Affine Niels bytes (y+x, y−x, 2dxy) of an oracle point.
std::array<Bytes32, 3> niels_bytes(const oracle::Ge& p) {
  const Fe zinv = oracle::fe_invert_by_pow(p.z);
  const Fe x = fe_mul(p.x, zinv);
  const Fe y = fe_mul(p.y, zinv);
  return {fe_bytes(fe_add(y, x)), fe_bytes(fe_sub(y, x)),
          fe_bytes(fe_mul(fe_mul(x, y), oracle::constants().d2))};
}

std::array<Bytes32, 3> niels_bytes(const ei::GePrecomp& p) {
  return {fe_bytes(p.yplusx), fe_bytes(p.yminusx), fe_bytes(p.xy2d)};
}

TEST(TableKat, FixedBaseTableIsJTimes256PowIB) {
  // Entry (i, j) = (j+1)·256^i·B = (j+1)·16^(2i)·B, the oracle's 16^k rows.
  const auto& bt = oracle::base_table();
  for (int i = 0; i < 32; ++i)
    for (int j = 0; j < 8; ++j)
      ASSERT_EQ(niels_bytes(ei::ge_base_table(i, j)),
                niels_bytes(bt.entry[2 * i][j]))
          << "row " << i << " column " << j;
}

TEST(TableKat, VerifyTableIsOddMultiplesOfB) {
  for (int k = 0; k < 64; ++k) {
    Bytes32 s{};
    s[0] = static_cast<std::uint8_t>(2 * k + 1);
    ASSERT_EQ(niels_bytes(ei::ge_base_odd_multiple(k)),
              niels_bytes(
                  oracle::ge_scalarmult(oracle::base_point(), s.data())))
        << "multiple " << 2 * k + 1;
  }
}

// ---- walks and point decoding -----------------------------------------------

std::vector<Bytes32> scalar_inputs(ChaChaRng& rng, int random_count) {
  Bytes32 one{};
  one[0] = 1;
  Bytes32 top{};  // 2^255 − 1
  top.fill(0xff);
  top[31] = 0x7f;
  std::vector<Bytes32> s = {Bytes32{}, one, l_plus(-1), l_plus(0), top};
  for (int i = 0; i < random_count; ++i) {
    Bytes32 r;
    rng.fill(r);
    r[31] &= 0x7f;
    s.push_back(r);
  }
  return s;
}

TEST(WalkKat, FixedBaseWalkMatchesOracle) {
  ChaChaRng rng(91);
  for (const Bytes32& s : scalar_inputs(rng, 64)) {
    Bytes32 got;
    ei::ge_p3_tobytes(got.data(), ei::ge_scalarmult_base(s.data()));
    ASSERT_EQ(got, oracle::ge_tobytes(oracle::ge_scalarmult_base(s.data())));
  }
}

TEST(WalkKat, DoubleScalarWalkMatchesOracle) {
  ChaChaRng rng(92);
  const auto scalars = scalar_inputs(rng, 12);
  std::vector<Bytes32> points;
  for (int i = 0; i < 6; ++i) {
    Bytes32 s;
    rng.fill(s);
    s[31] &= 0x7f;
    points.push_back(oracle::ge_tobytes(oracle::ge_scalarmult_base(s.data())));
  }
  Bytes32 identity{};
  identity[0] = 1;
  points.push_back(identity);
  Bytes32 minus_one = p_plus(-1);  // (0, −1), order 2
  points.push_back(minus_one);
  for (const Bytes32& enc : points) {
    ei::GeP3 a;
    oracle::Ge a_ref;
    ASSERT_TRUE(ei::ge_frombytes(a, enc.data()));
    ASSERT_TRUE(oracle::ge_frombytes(a_ref, enc.data()));
    for (const Bytes32& x : scalars)
      for (const Bytes32& y : scalars) {
        Bytes32 got;
        ei::ge_tobytes(got.data(),
                       ei::ge_double_scalarmult_vartime(x.data(), a, y.data()));
        const oracle::Ge want =
            oracle::ge_add(oracle::ge_scalarmult(a_ref, x.data()),
                           oracle::ge_scalarmult_base(y.data()));
        ASSERT_EQ(got, oracle::ge_tobytes(want));
      }
  }
}

TEST(WalkKat, DecodeMatchesOracleOnRandomAndEdgeEncodings) {
  ChaChaRng rng(93);
  std::vector<Bytes32> encs;
  for (int d : {-1, 0, 1, 2, 18}) {
    encs.push_back(p_plus(d));
    Bytes32 signed_enc = p_plus(d);
    signed_enc[31] |= 0x80;
    encs.push_back(signed_enc);
  }
  Bytes32 one{};
  one[0] = 1;
  encs.push_back(one);
  one[31] |= 0x80;  // x = 0 with the sign bit set
  encs.push_back(one);
  for (int i = 0; i < 400; ++i) {
    Bytes32 b;
    rng.fill(b);
    encs.push_back(b);
  }
  int accepted = 0;
  for (const Bytes32& enc : encs) {
    ei::GeP3 p;
    oracle::Ge q;
    const bool ok = ei::ge_frombytes(p, enc.data());
    ASSERT_EQ(ok, oracle::ge_frombytes(q, enc.data()));
    if (!ok) continue;
    ++accepted;
    Bytes32 got;
    ei::ge_p3_tobytes(got.data(), p);
    ASSERT_EQ(got, oracle::ge_tobytes(q));
  }
  EXPECT_GT(accepted, 100);  // about half of random y values are on the curve
}

}  // namespace
}  // namespace apna::crypto
