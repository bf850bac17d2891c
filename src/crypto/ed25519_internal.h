// Edwards25519 group and scalar-field internals behind ed25519.h.
//
// Callers outside the crypto layer use ed25519.h. This header exists so
// the differential tests can check each stage against the reference
// oracle (tests/ed25519_oracle.h) and so bench_e9_crypto can time the
// stages of a signature one by one.
//
// Point representations (ref10 naming; curve -x^2 + y^2 = 1 + d x^2 y^2):
//   GeP2       projective (X:Y:Z), x = X/Z, y = Y/Z
//   GeP3       extended (X:Y:Z:T), also T = XY/Z
//   GeP1P1     completed ((X:Z),(Y:T)), x = X/Z, y = Y/T — the output of
//              every addition and doubling before it is converted back
//   GePrecomp  affine Niels (y+x, y-x, 2dxy) — the precomputed tables
//   GeCached   projective Niels (Y+X, Y-X, Z, 2dT) — runtime tables
#pragma once

#include <cstdint>

#include "crypto/fe25519.h"

namespace apna::crypto::ed25519_internal {

struct GeP2 {
  Fe x, y, z;
};
struct GeP3 {
  Fe x, y, z, t;
};
struct GeP1P1 {
  Fe x, y, z, t;
};
struct GePrecomp {
  Fe yplusx, yminusx, xy2d;
};
struct GeCached {
  Fe yplusx, yminusx, z, t2d;
};

/// Decompresses a point (RFC 8032 §5.1.3, y taken mod p); false for bytes
/// that are not on the curve and for x = 0 with the sign bit set.
bool ge_frombytes(GeP3& out, const std::uint8_t in[32]);
/// Canonical compression: one field inversion, then y with x's parity bit.
void ge_tobytes(std::uint8_t out[32], const GeP2& p);
void ge_p3_tobytes(std::uint8_t out[32], const GeP3& p);

/// [a]B for a 32-byte little-endian scalar with a[31] <= 127. Constant
/// time: signed radix-16 digits, 64 mixed additions from the 32x8 affine
/// table with a full-row constant-time select, and 4 doublings.
GeP3 ge_scalarmult_base(const std::uint8_t a[32]);

/// [a]A + [b]B for scalars below 2^255. Variable time (public inputs
/// only): one joint walk over width-5 NAF digits of a (8 cached odd
/// multiples of A built per call) and width-8 NAF digits of b (64 affine
/// odd multiples of B built once per process), with T-less doublings.
GeP2 ge_double_scalarmult_vartime(const std::uint8_t a[32], const GeP3& A,
                                  const std::uint8_t b[32]);

/// Fixed-base table entry (j+1)·256^i·B, i in [0,32), j in [0,8).
const GePrecomp& ge_base_table(int i, int j);
/// Verify-walk table entry (2k+1)·B, k in [0,64).
const GePrecomp& ge_base_odd_multiple(int k);

/// 64-byte little-endian value mod L (Barrett reduction, constant time).
void sc_reduce(std::uint8_t out[32], const std::uint8_t in[64]);
/// (a·b + c) mod L for 32-byte little-endian a, b, c (constant time).
void sc_muladd(std::uint8_t out[32], const std::uint8_t a[32],
               const std::uint8_t b[32], const std::uint8_t c[32]);
/// True iff s < L (RFC 8032 canonical S).
bool sc_is_canonical(const std::uint8_t s[32]);

}  // namespace apna::crypto::ed25519_internal
