// Ed25519 signatures (RFC 8032).
//
// ASes sign EphID certificates and bootstrap messages with ed25519 (§V-A2:
// "To create digital signatures for certificates, we use the ed25519
// signature scheme"). Signing uses a precomputed fixed-base table so the MS
// can certify EphIDs at high rate (experiment E1).
//
// Algorithms (ref10 structure; internals in crypto/ed25519_internal.h):
//   public key, sign  [s]B and [r]B by a signed radix-16 walk over a 32x8
//                     affine Niels table of (j+1)·256^i·B (30 KB, built once
//                     per process with one batched inversion): 64 mixed
//                     additions and 4 doublings. Nonce and challenge are
//                     reduced mod L by Barrett reduction; S = r + k·s by the
//                     same reduction over a 512-bit product.
//   verify            decompress A (one x^((p-5)/8) addition chain), then
//                     ONE joint Straus walk for [S]B − [k]A: width-5 NAF
//                     digits of k over 8 odd multiples of −A, width-8 NAF
//                     digits of S over a 64-entry affine table of odd
//                     multiples of B, sharing T-less doublings. The check is
//                     encode(R') == R bytes (one inversion by addition chain).
//
// Constant time: signing and key derivation — everything that touches the
// secret scalar s or the nonce r — runs without secret-dependent branches
// or memory indices: the fixed-base table row is read in full and the entry
// kept by mask, scalar reduction ends in masked conditional subtractions,
// and inversion is a fixed addition chain. Verification handles only
// public data and is variable time (NAF digits steer table indices and
// additions), as is batch verification.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "crypto/rng.h"
#include "util/bytes.h"

namespace apna::crypto {

using Ed25519Seed = std::array<std::uint8_t, 32>;        // private seed
using Ed25519PublicKey = std::array<std::uint8_t, 32>;   // compressed point
using Ed25519Signature = std::array<std::uint8_t, 64>;   // R ‖ S

/// Derives the public key for a 32-byte seed.
Ed25519PublicKey ed25519_public_key(const Ed25519Seed& seed);

/// Signs `msg` (deterministic per RFC 8032).
Ed25519Signature ed25519_sign(const Ed25519Seed& seed,
                              const Ed25519PublicKey& pub, ByteSpan msg);

/// Verifies a signature. Rejects malformed points and non-canonical S.
bool ed25519_verify(const Ed25519PublicKey& pub, ByteSpan msg,
                    const Ed25519Signature& sig);

/// One signature of a batch-verification sweep.
struct Ed25519BatchItem {
  const Ed25519PublicKey* pub = nullptr;
  ByteSpan msg;
  const Ed25519Signature* sig = nullptr;
};

/// Batch verification: out[i] = ed25519_verify(*items[i].pub, items[i].msg,
/// *items[i].sig) for every item, with the expensive part amortized.
/// Returns true iff every signature verified.
///
/// How: after per-item screening that mirrors the scalar rejects exactly
/// (non-canonical S; undecodable A; R whose bytes cannot be an encode()
/// output), the survivors are checked with one random-linear-combination
/// equation  (Σ z_i S_i)·B − Σ (z_i k_i)·A_i − Σ z_i·R_i == identity,
/// evaluated by a shared-doubling multi-scalar multiplication: 252 point
/// doublings TOTAL instead of 252 per signature — per-signature cost decays
/// toward the window additions alone as the batch grows. The z_i are
/// 128-bit coefficients from `rng`, forced ≡ 1 (mod 8) so a single
/// small-order (torsion) discrepancy is caught deterministically, not just
/// with probability 7/8. Torsion discrepancies in TWO OR MORE signatures
/// can cancel, though (z_i·T = T for every z_i ≡ 1 mod 8): e.g. two
/// signatures under the order-2 key (0, −1) with odd challenges are each
/// rejected by ed25519_verify yet pass the batch equation together. Only
/// keys or R values with a small-order component can do this; honest keys
/// and signatures never have one.
///
/// On ANY batch-equation failure the sweep bisects recursively down to
/// scalar ed25519_verify leaves, so apart from the cancelling-torsion case
/// above the accept/reject set is identical to calling ed25519_verify per
/// item (property-tested over randomized corrupted batches in
/// crypto_property_test and over adversarial encodings, one per batch, in
/// ed25519_differential_test).
bool ed25519_verify_batch(std::span<const Ed25519BatchItem> items, bool* out,
                          Rng& rng);

/// AS / host long-term signing identity.
struct Ed25519KeyPair {
  Ed25519Seed seed;
  Ed25519PublicKey pub;

  static Ed25519KeyPair generate(Rng& rng);
  Ed25519Signature sign(ByteSpan msg) const { return ed25519_sign(seed, pub, msg); }
};

}  // namespace apna::crypto
