// Differential property test: the production Ed25519 against the naive
// reference in ed25519_oracle.h.
//
//  1. ed25519_public_key / ed25519_sign produce the oracle's bytes on 10^4
//     seeded (seed, message) pairs.
//  2. ed25519_verify returns the oracle's verdict on honest signatures with
//     flipped R, S and message bits, and on adversarial encodings: A and R
//     with y >= p, small-order A and R, identity R, x = 0 with the sign
//     bit set, and S in {L−1, L, 2^256−1}.
//  3. ed25519_verify_batch accepts exactly the items the scalar verifier
//     accepts, over batches mixing honest, corrupted and adversarial items.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/rng.h"
#include "ed25519_oracle.h"

namespace apna::crypto {
namespace {

using oracle::Bytes32;

struct Signed {
  Ed25519PublicKey pub;
  Bytes msg;
  Ed25519Signature sig;
};

Bytes32 with_delta(const std::uint64_t base[4], std::int64_t delta) {
  oracle::U512 x;
  for (int i = 0; i < 4; ++i) x.w[i] = base[i];
  if (delta >= 0) {
    oracle::U512 d;
    d.w[0] = static_cast<std::uint64_t>(delta);
    x = oracle::u512_add(x, d);
  } else {
    x.w[0] -= static_cast<std::uint64_t>(-delta);
  }
  return oracle::u512_low_bytes(x);
}

/// The eight small-order points, as [L]·P for random curve points P
/// (L ≡ 5 mod 8 maps each P onto its torsion component times 5).
std::vector<Bytes32> small_order_points() {
  ChaChaRng rng(808);
  Bytes32 l = with_delta(oracle::kL, 0);
  std::set<Bytes32> found;
  for (int attempt = 0; attempt < 400 && found.size() < 8; ++attempt) {
    Bytes32 enc;
    rng.fill(enc);
    oracle::Ge p;
    if (!oracle::ge_frombytes(p, enc.data())) continue;
    found.insert(oracle::ge_tobytes(oracle::ge_scalarmult(p, l.data())));
  }
  return {found.begin(), found.end()};
}

/// Point encodings no honest signer produces.
std::vector<Bytes32> adversarial_points() {
  std::vector<Bytes32> out = small_order_points();
  // Non-canonical y ≥ p: y = p (decodes as y = 0, x = ±sqrt(−1)), p + 1
  // (identity), p + 2, 2^255 − 1; each with and without the sign bit.
  for (std::int64_t d : {0, 1, 2, 18}) {
    Bytes32 e = with_delta(oracle::kP, d);
    out.push_back(e);
    e[31] |= 0x80;
    out.push_back(e);
  }
  // x = 0 with the sign bit set: y = 1 and y = −1.
  Bytes32 one{};
  one[0] = 1;
  one[31] |= 0x80;
  out.push_back(one);
  Bytes32 minus_one = with_delta(oracle::kP, -1);
  minus_one[31] |= 0x80;
  out.push_back(minus_one);
  // Not on the curve at all (y = 2 has no x).
  Bytes32 two{};
  two[0] = 2;
  out.push_back(two);
  return out;
}

TEST(Ed25519Differential, SignAndPublicKeyMatchOracleOn10kPairs) {
  ChaChaRng rng(20261019);
  for (int i = 0; i < 10'000; ++i) {
    Ed25519Seed seed;
    rng.fill(seed);
    const Bytes msg = rng.bytes(rng.next_u32() % 160);
    const Ed25519PublicKey pub = ed25519_public_key(seed);
    ASSERT_EQ(pub, oracle::public_key(seed)) << "pair " << i;
    ASSERT_EQ(ed25519_sign(seed, pub, msg), oracle::sign(seed, pub, msg))
        << "pair " << i;
  }
}

TEST(Ed25519Differential, VerifyMatchesOracleOnHonestAndFlippedSignatures) {
  ChaChaRng rng(31337);
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 300; ++i) {
    Ed25519Seed seed;
    rng.fill(seed);
    Signed s;
    s.pub = ed25519_public_key(seed);
    s.msg = rng.bytes(1 + rng.next_u32() % 96);
    s.sig = ed25519_sign(seed, s.pub, s.msg);
    auto check = [&](const Signed& t) {
      const bool got = ed25519_verify(t.pub, t.msg, t.sig);
      ASSERT_EQ(got, oracle::verify(t.pub, t.msg, t.sig)) << "case " << i;
      (got ? accepted : rejected)++;
    };
    // One random bit flipped in bytes [0, n) of p.
    auto flip = [&](std::uint8_t* p, std::size_t n) {
      const std::size_t at = rng.next_u32() % n;
      p[at] ^= static_cast<std::uint8_t>(1u << (rng.next_u32() % 8));
    };
    check(s);
    Signed r = s;
    flip(r.sig.data(), 32);  // R
    check(r);
    Signed sf = s;
    flip(sf.sig.data() + 32, 32);  // S
    check(sf);
    Signed m = s;
    flip(m.msg.data(), m.msg.size());
    check(m);
    Signed a = s;
    flip(a.pub.data(), 32);
    check(a);
  }
  EXPECT_EQ(accepted, 300);
  EXPECT_EQ(rejected, 4 * 300);
}

TEST(Ed25519Differential, VerifyMatchesOracleOnAdversarialEncodings) {
  ChaChaRng rng(4711);
  std::vector<Bytes32> keys = adversarial_points();
  for (int i = 0; i < 2; ++i) {
    Ed25519Seed seed;
    rng.fill(seed);
    keys.push_back(ed25519_public_key(seed));
  }

  Bytes32 max;
  max.fill(0xff);
  Bytes32 one{};
  one[0] = 1;
  std::vector<Bytes32> s_values = {Bytes32{}, one, with_delta(oracle::kL, -1),
                                   with_delta(oracle::kL, 0),
                                   with_delta(oracle::kL, 1), max};
  for (int i = 0; i < 2; ++i) {
    std::array<std::uint8_t, 64> wide;
    rng.fill(MutByteSpan(wide.data(), 64));
    s_values.push_back(oracle::sc_reduce(wide.data()));
  }

  const std::vector<Bytes> msgs = {Bytes{}, rng.bytes(37)};
  int accepted = 0, total = 0;
  for (const Bytes32& s : s_values) {
    // R candidates: every adversarial point (identity R included — it is
    // a small-order point) plus encode([S]B), which verifies whenever
    // [k]A is the identity (A of small order and k a multiple of its
    // order, or A the identity in any encoding).
    std::vector<Bytes32> r_values = adversarial_points();
    if (oracle::sc_is_canonical(s.data()))
      r_values.push_back(
          oracle::ge_tobytes(oracle::ge_scalarmult_base(s.data())));
    for (const Bytes32& a : keys)
      for (const Bytes32& r : r_values)
        for (const Bytes& msg : msgs) {
          Ed25519Signature sig;
          std::memcpy(sig.data(), r.data(), 32);
          std::memcpy(sig.data() + 32, s.data(), 32);
          const bool got = ed25519_verify(a, msg, sig);
          ASSERT_EQ(got, oracle::verify(a, msg, sig));
          accepted += got;
          ++total;
        }
  }
  // Both verdicts are exercised: identity and small-order keys accept some
  // of these forgeries under the cofactorless equation.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, total);
}

TEST(Ed25519Differential, BatchAcceptSetEqualsScalarVerifier) {
  ChaChaRng rng(99);
  HmacDrbg zrng(99, 1);
  const std::vector<Bytes32> adversarial = adversarial_points();

  std::vector<Signed> pool;
  for (int i = 0; i < 64; ++i) {
    Ed25519Seed seed;
    rng.fill(seed);
    Signed s;
    s.pub = ed25519_public_key(seed);
    s.msg = rng.bytes(1 + rng.next_u32() % 64);
    s.sig = ed25519_sign(seed, s.pub, s.msg);
    pool.push_back(s);
  }

  for (int round = 0; round < 120; ++round) {
    const std::size_t width = 1 + rng.next_u32() % 24;
    std::vector<Signed> batch;
    for (std::size_t i = 0; i < width; ++i) {
      Signed s = pool[rng.next_u32() % pool.size()];
      switch (rng.next_u32() % 6) {
        case 0:
          s.sig[rng.next_u32() % 64] ^= 0x10;
          break;
        case 1:
          s.msg[0] ^= 1;
          break;
        default:
          break;  // honest
      }
      batch.push_back(s);
    }
    // At most one adversarial-encoding item per batch: a small-order
    // discrepancy in ONE item survives the z ≡ 1 (mod 8) coefficients
    // deterministically. (Two co-crafted torsion discrepancies can cancel
    // in the random linear combination; that limit of cofactorless batch
    // equations is documented in ed25519.h and not exercised here.)
    if (round % 2 == 0) {
      Signed& s = batch[rng.next_u32() % batch.size()];
      const Bytes32& pt = adversarial[rng.next_u32() % adversarial.size()];
      if (rng.next_u32() % 2)
        std::memcpy(s.pub.data(), pt.data(), 32);
      else
        std::memcpy(s.sig.data(), pt.data(), 32);
    }

    std::vector<Ed25519BatchItem> items;
    for (const Signed& s : batch) items.push_back({&s.pub, s.msg, &s.sig});
    auto out = std::make_unique<bool[]>(width);
    const bool all =
        ed25519_verify_batch({items.data(), items.size()}, out.get(), zrng);
    bool want_all = true;
    for (std::size_t i = 0; i < width; ++i) {
      const Signed& b = batch[i];
      const bool scalar = ed25519_verify(b.pub, b.msg, b.sig);
      ASSERT_EQ(out[i], scalar) << "round " << round << " item " << i;
      want_all = want_all && scalar;
    }
    ASSERT_EQ(all, want_all) << "round " << round;
  }
}

}  // namespace
}  // namespace apna::crypto
