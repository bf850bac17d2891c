// E9 — Crypto-primitive ablation (§IV-A / §V design choices).
//
// Self-timed (bench_util.h) so it always builds — no google-benchmark
// dependency. Measures the primitives the paper's budgets rest on, with a
// per-TIER delta table for everything the runtime dispatcher widens:
//
//   * AES: single block, bulk encrypt_blocks, and the 16-chain CMAC driver
//     (aes_cmac_many) on every tier compiled into this binary and
//     supported by this CPU — soft / aesni / avx2 / vaes_avx512. Tiers the
//     host cannot run are SKIPPED with a printed notice, never a crash.
//   * ChaCha20: the wide keystream path (8-way AVX2 / 4-way SSE2 behind
//     chacha20_xcrypt) against the scalar block function, plus the
//     ChaCha20-Poly1305 issuance AEAD end to end.
//   * The three CCA-secure payload suites (§IV-A) at MTU size.
//   * Ed25519: sign, scalar verify, and ed25519_verify_batch at the
//     ServicePool chunk widths — the shared-doubling speedup the MS
//     cert-chain check amortizes (Fig 3) — plus a per-stage breakdown
//     (decompress, scalar reduce, SHA-512, the [S]B − [k]A walk, encode,
//     the [r]B walk, and the fe_mul / fe_sq / fe_invert primitives).
//   * HMAC-DRBG: instantiate + fill against ChaChaRng (the per-request
//     generator swap in ServicePool).
//
// Emits BENCH_e9.json (machine_shape records the active tier; provenance
// the seed/commit). The checked-in baseline at the repo root is
// regenerated manually from a full run. Smoke runs (--smoke, wired as the
// bench_smoke_e9 ctest entry) shrink iteration counts but still execute
// every tier and assert the cross-tier/batch-vs-scalar equivalence gates.
//
// Usage:
//   bench_e9_crypto [--smoke] [--seed=N] [--json=PATH]
// Force a tier with APNA_CRYPTO_BACKEND=soft|aesni|avx2|vaes_avx512.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/ephid.h"
#include "crypto/aead.h"
#include "crypto/aes.h"
#include "crypto/chacha20.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/ed25519_internal.h"
#include "crypto/fe25519.h"
#include "crypto/modes.h"
#include "crypto/rng.h"
#include "crypto/sha2.h"
#include "crypto/x25519.h"

using namespace apna;
using namespace apna::crypto;

namespace {

struct Options {
  bool smoke = false;
  std::uint64_t seed = 2718;
  std::string json_path = "BENCH_e9.json";
};

Options parse_args(int argc, char** argv) {
  Options o;
  o.smoke = bench::smoke_mode(argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return a.compare(0, n, prefix) == 0 ? a.c_str() + n : nullptr;
    };
    if (a == "--smoke") continue;
    if (const char* v = val("--seed=")) o.seed = std::strtoull(v, nullptr, 10);
    else if (const char* v = val("--json=")) o.json_path = v;
    else {
      std::fprintf(stderr,
                   "unknown argument: %s\n"
                   "usage: bench_e9_crypto [--smoke] [--seed=N] [--json=PATH]\n",
                   a.c_str());
      std::exit(2);
    }
  }
  return o;
}

void fatal(const char* msg) {
  std::fprintf(stderr, "FATAL: %s\n", msg);
  std::exit(1);
}

double mbps(double ns_per_op, double bytes_per_op) {
  return bytes_per_op / ns_per_op * 1e9 / 1e6;
}

/// Tiers this binary can actually run on this CPU, narrowest first.
std::vector<Aes128::Backend> runnable_tiers() {
  std::vector<Aes128::Backend> out = {Aes128::Backend::soft};
  for (const Aes128::Backend b :
       {Aes128::Backend::aesni, Aes128::Backend::avx2,
        Aes128::Backend::vaes_avx512}) {
    if (Aes128::resolve_backend(b) == b)
      out.push_back(b);
    else
      std::printf("  (tier %s unsupported on this host — skipped)\n",
                  Aes128::backend_name(b));
  }
  return out;
}

struct TierRow {
  const char* tier;
  double block_ns;
  double bulk_mbps;
  double cmac_mbps;
};

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  ChaChaRng rng(o.seed);

  bench::print_header(
      "E9 — crypto primitive ablation",
      "§IV-A payload suites, §V-A1 AES-only data plane, §V-A2 asymmetric "
      "budget; tier deltas for the runtime SIMD dispatch");
  std::printf("active AES backend: %s\n",
              Aes128::backend_name(Aes128::best_backend()));

  const std::size_t kBulkBlocks = 1024;  // 16 KiB sweeps
  const std::size_t aes_iters = o.smoke ? 200 : 20'000;
  const std::size_t asym_iters = o.smoke ? 20 : 2'000;

  // ---- AES tier table ---------------------------------------------------------
  const Bytes aes_key = rng.bytes(16);
  const Bytes bulk_in = rng.bytes(kBulkBlocks * 16);
  Bytes bulk_out(bulk_in.size());
  Bytes soft_bulk;  // cross-tier equivalence gate

  std::vector<TierRow> tier_rows;
  std::printf("\nAES tiers (bulk = %zu blocks, cmac = 16-lane driver):\n",
              kBulkBlocks);
  std::printf("%12s %14s %14s %14s %12s\n", "tier", "block (ns)",
              "bulk (MB/s)", "cmac16 (MB/s)", "bulk vs soft");
  double soft_bulk_mbps = 0;
  for (const Aes128::Backend tier : runnable_tiers()) {
    Aes128 aes(aes_key, tier);
    std::uint8_t block[16] = {};
    const double block_ns = bench::time_per_op_ns(
        aes_iters * 64, [&](std::size_t) { aes.encrypt_block(block, block); });
    const double bulk_ns = bench::time_per_op_ns(aes_iters, [&](std::size_t) {
      aes.encrypt_blocks(bulk_in.data(), bulk_out.data(), kBulkBlocks);
    });
    if (tier == Aes128::Backend::soft)
      soft_bulk = bulk_out;
    else if (bulk_out != soft_bulk)
      fatal("tier output differs from soft encrypt_blocks");

    // 16 same-tier CMAC jobs over MTU-ish extents through aes_cmac_many.
    std::vector<AesCmac> keys;
    std::vector<Bytes> msgs;
    for (int j = 0; j < 16; ++j) {
      keys.emplace_back(rng.bytes(16), tier);
      msgs.push_back(rng.bytes(1460));
    }
    std::vector<CmacJob> jobs;
    for (int j = 0; j < 16; ++j) jobs.push_back(CmacJob{&keys[j], msgs[j], {}});
    std::array<std::uint8_t, 16> tags[16];
    const double cmac_ns = bench::time_per_op_ns(
        aes_iters / 8 + 1, [&](std::size_t) { aes_cmac_many(jobs, tags); });

    TierRow row{aes.backend(), block_ns, mbps(bulk_ns, 16.0 * kBulkBlocks),
                mbps(cmac_ns, 16.0 * 1460)};
    if (tier == Aes128::Backend::soft) soft_bulk_mbps = row.bulk_mbps;
    std::printf("%12s %14.1f %14.1f %14.1f %11.2fx\n", row.tier, row.block_ns,
                row.bulk_mbps, row.cmac_mbps, row.bulk_mbps / soft_bulk_mbps);
    tier_rows.push_back(row);
  }

  // ---- ChaCha20: wide keystream vs scalar blocks ------------------------------
  const Bytes cc_key = rng.bytes(32);
  const Bytes cc_nonce = rng.bytes(12);
  const Bytes cc_in = rng.bytes(16 * 1024);
  Bytes cc_out(cc_in.size());
  const double cc_wide_ns = bench::time_per_op_ns(aes_iters, [&](std::size_t) {
    chacha20_xcrypt(cc_key.data(), 1, cc_nonce.data(), cc_in, cc_out);
  });
  // Scalar reference: block function + XOR, the path `soft` forces.
  const double cc_scalar_ns =
      bench::time_per_op_ns(aes_iters / 4 + 1, [&](std::size_t) {
        std::uint8_t ks[64];
        for (std::size_t off = 0; off < cc_in.size(); off += 64) {
          chacha20_block(cc_key.data(),
                         1 + static_cast<std::uint32_t>(off / 64),
                         cc_nonce.data(), ks);
          for (std::size_t i = 0; i < 64; ++i)
            cc_out[off + i] = static_cast<std::uint8_t>(cc_in[off + i] ^ ks[i]);
        }
      });
  const double cc_wide_mbps = mbps(cc_wide_ns, (double)cc_in.size());
  const double cc_scalar_mbps = mbps(cc_scalar_ns, (double)cc_in.size());
  std::printf("\nChaCha20 keystream (16 KiB): wide %.1f MB/s, scalar %.1f "
              "MB/s (%.2fx)\n",
              cc_wide_mbps, cc_scalar_mbps, cc_wide_mbps / cc_scalar_mbps);

  // ---- AEAD suites at MTU size (§IV-A "any CCA-secure scheme") ---------------
  struct AeadRow {
    const char* suite;
    double seal_mbps;
    double open_mbps;
  };
  std::vector<AeadRow> aead_rows;
  std::printf("\nAEAD suites (1460-byte payload, 48-byte AAD):\n");
  std::printf("%24s %14s %14s\n", "suite", "seal (MB/s)", "open (MB/s)");
  const Bytes aead_key = rng.bytes(32);
  const Bytes nonce12 = rng.bytes(12);
  const Bytes aad = rng.bytes(48);
  const Bytes payload = rng.bytes(1460);
  for (const auto suite : {AeadSuite::aes128_gcm, AeadSuite::aes128_ctr_cmac,
                           AeadSuite::chacha20_poly1305}) {
    auto aead = Aead::create(suite, aead_key);
    const Bytes sealed = aead->seal(nonce12, aad, payload);
    const double seal_ns = bench::time_per_op_ns(aes_iters, [&](std::size_t) {
      auto ct = aead->seal(nonce12, aad, payload);
      if (ct.empty()) fatal("seal failed");
    });
    const double open_ns = bench::time_per_op_ns(aes_iters, [&](std::size_t) {
      auto pt = aead->open(nonce12, aad, sealed);
      if (!pt) fatal("open failed");
    });
    AeadRow row{aead_suite_name(suite), mbps(seal_ns, 1460),
                mbps(open_ns, 1460)};
    std::printf("%24s %14.1f %14.1f\n", row.suite, row.seal_mbps,
                row.open_mbps);
    aead_rows.push_back(row);
  }

  // ---- Ed25519: scalar vs batch at the ServicePool chunk widths --------------
  auto kp = Ed25519KeyPair::generate(rng);
  const Bytes msg137 = rng.bytes(137);  // ~certificate TBS size
  const auto sig = kp.sign(msg137);
  const double sign_ns = bench::time_per_op_ns(
      asym_iters, [&](std::size_t) {
        auto s = kp.sign(msg137);
        if (s[0] != sig[0]) fatal("non-deterministic signature");
      });
  const double verify_ns = bench::time_per_op_ns(asym_iters, [&](std::size_t) {
    if (!ed25519_verify(kp.pub, msg137, sig)) fatal("verify failed");
  });
  std::printf("\nEd25519: sign %.1f µs, scalar verify %.1f µs\n",
              sign_ns / 1e3, verify_ns / 1e3);

  // Per-stage breakdown: each stage of sign / verify timed on its own, on
  // the same key, message and signature as above (crypto/ed25519_internal.h).
  struct StageRow {
    const char* stage;
    double ns;
  };
  std::vector<StageRow> stage_rows;
  {
    namespace ei = ed25519_internal;
    ei::GeP3 a_point;
    if (!ei::ge_frombytes(a_point, kp.pub.data())) fatal("public key decode");
    std::array<std::uint8_t, 64> wide{};
    rng.fill(wide);
    std::uint8_t k[32], s_out[32];
    ei::sc_reduce(k, wide.data());
    const std::uint8_t* s_sig = sig.data() + 32;
    const std::size_t walk_iters = asym_iters;
    const std::size_t fe_iters = aes_iters * 16;
    std::uint8_t sink[32];
    ei::GeP3 p3;
    stage_rows.push_back({"decompress A (ge_frombytes)",
        bench::time_per_op_ns(walk_iters, [&](std::size_t) {
          if (!ei::ge_frombytes(p3, kp.pub.data())) fatal("decode");
        })});
    stage_rows.push_back({"sc_reduce (512-bit mod L)",
        bench::time_per_op_ns(aes_iters, [&](std::size_t i) {
          wide[0] = static_cast<std::uint8_t>(i);
          ei::sc_reduce(k, wide.data());
        })});
    stage_rows.push_back({"sc_muladd", bench::time_per_op_ns(aes_iters, [&](std::size_t) {
          ei::sc_muladd(s_out, k, s_sig, k);
        })});
    stage_rows.push_back({"SHA-512 of R||A||M (137 B)",
        bench::time_per_op_ns(aes_iters, [&](std::size_t) {
          Sha512 h;
          h.update(ByteSpan(sig.data(), 32));
          h.update(ByteSpan(kp.pub.data(), 32));
          h.update(msg137);
          const auto d = h.finish();
          sink[0] ^= d[0];
        })});
    ei::GeP2 walk_out;
    stage_rows.push_back({"[S]B - [k]A walk",
        bench::time_per_op_ns(walk_iters, [&](std::size_t) {
          walk_out = ei::ge_double_scalarmult_vartime(k, a_point, s_sig);
        })});
    stage_rows.push_back({"encode (ge_tobytes, 1 inversion)",
        bench::time_per_op_ns(walk_iters, [&](std::size_t) {
          ei::ge_tobytes(sink, walk_out);
        })});
    stage_rows.push_back({"[r]B fixed-base walk",
        bench::time_per_op_ns(walk_iters, [&](std::size_t i) {
          k[0] = static_cast<std::uint8_t>(i);
          p3 = ei::ge_scalarmult_base(k);
        })});
    Fe fa = fe_frombytes(kp.pub.data()), fb = fe_frombytes(sig.data());
    stage_rows.push_back({"fe_mul", bench::time_per_op_ns(fe_iters, [&](std::size_t) {
          fa = fe_mul(fa, fb);
        })});
    stage_rows.push_back({"fe_sq", bench::time_per_op_ns(fe_iters, [&](std::size_t) {
          fa = fe_sq(fa);
        })});
    stage_rows.push_back({"fe_invert", bench::time_per_op_ns(walk_iters, [&](std::size_t) {
          fa = fe_invert(fa);
        })});
    std::printf("%36s %12s\n", "Ed25519 stage", "ns/op");
    for (const auto& r : stage_rows) std::printf("%36s %12.0f\n", r.stage, r.ns);
    if (fa.v[0] == 0xdead && sink[0] == 1) std::printf(" \n");  // keep results live
  }

  struct BatchRow {
    std::uint64_t width;
    double per_sig_us;
    double speedup;
  };
  std::vector<BatchRow> batch_rows;
  std::printf("%12s %18s %12s\n", "batch", "verify/sig (µs)", "vs scalar");
  for (const std::size_t width : {4u, 16u, 64u}) {
    std::vector<Ed25519PublicKey> pubs;
    std::vector<Bytes> msgs;
    std::vector<Ed25519Signature> sigs;
    for (std::size_t i = 0; i < width; ++i) {
      Ed25519Seed seed{};
      rng.fill(seed);
      const auto pub = ed25519_public_key(seed);
      Bytes m = rng.bytes(137);
      sigs.push_back(ed25519_sign(seed, pub, m));
      pubs.push_back(pub);
      msgs.push_back(std::move(m));
    }
    std::vector<Ed25519BatchItem> items;
    for (std::size_t i = 0; i < width; ++i)
      items.push_back({&pubs[i], msgs[i], &sigs[i]});
    std::vector<char> ok(width);
    HmacDrbg zrng(o.seed, width);
    const double batch_ns = bench::time_per_op_ns(
        asym_iters / width + 1, [&](std::size_t) {
          auto out = std::make_unique<bool[]>(width);
          if (!ed25519_verify_batch({items.data(), items.size()}, out.get(),
                                    zrng))
            fatal("batch rejected an all-valid chunk");
        });
    BatchRow row{width, batch_ns / width / 1e3,
                 verify_ns / (batch_ns / width)};
    std::printf("%12llu %18.1f %11.2fx\n",
                static_cast<unsigned long long>(row.width), row.per_sig_us,
                row.speedup);
    batch_rows.push_back(row);
  }

  // ---- X25519 (one per connection establishment, §IV-D1) ---------------------
  auto xa = X25519KeyPair::generate(rng);
  auto xb = X25519KeyPair::generate(rng);
  const double x25519_ns = bench::time_per_op_ns(asym_iters, [&](std::size_t) {
    auto s = x25519_shared(xa.priv, xb.pub);
    if (s[0] == 0 && s[31] == 0) fatal("degenerate shared secret");
  });
  std::printf("\nX25519 shared secret: %.1f µs\n", x25519_ns / 1e3);

  // ---- DRBGs: the ServicePool per-request generator ---------------------------
  std::array<std::uint8_t, 32> rnd{};
  const double drbg_inst_ns = bench::time_per_op_ns(
      aes_iters, [&](std::size_t i) {
        HmacDrbg d(o.seed, i);
        d.fill(rnd);
      });
  HmacDrbg drbg(o.seed, 1);
  const double drbg_fill_ns = bench::time_per_op_ns(
      aes_iters, [&](std::size_t) { drbg.fill(rnd); });
  ChaChaRng crng(o.seed);
  const double chacha_fill_ns = bench::time_per_op_ns(
      aes_iters, [&](std::size_t) { crng.fill(rnd); });
  std::printf("\nHMAC-DRBG: instantiate+32B %.0f ns, 32B fill %.0f ns "
              "(ChaChaRng fill: %.0f ns)\n",
              drbg_inst_ns, drbg_fill_ns, chacha_fill_ns);

  // ---- EphID codec roundtrip (the E6 primitive, tier-sensitive) --------------
  core::EphIdCodec codec(rng.bytes(16));
  std::uint32_t iv = 0;
  const double ephid_ns = bench::time_per_op_ns(aes_iters, [&](std::size_t) {
    const auto e = codec.issue_with_iv(7, 1'700'000'900, ++iv);
    if (!codec.open(e).ok()) fatal("EphID roundtrip failed");
  });
  std::printf("EphID issue+open roundtrip: %.0f ns (%s)\n", ephid_ns,
              codec.backend());

  // ---- BENCH_e9.json ----------------------------------------------------------
  bench::JsonFile json(o.json_path);
  if (json.ok()) {
    json.field("experiment", "e9_crypto_primitives");
    json.machine_shape();
    json.provenance(o.seed);
    json.field("smoke", o.smoke);
    json.begin_array("aes_tiers");
    for (const auto& r : tier_rows) {
      json.begin_object();
      json.field("tier", r.tier);
      json.field("block_ns", r.block_ns, 1);
      json.field("bulk_mb_s", r.bulk_mbps, 1);
      json.field("cmac16_mb_s", r.cmac_mbps, 1);
      json.field("bulk_speedup_vs_soft", r.bulk_mbps / soft_bulk_mbps);
      json.end_object();
    }
    json.end_array();
    json.begin_array("chacha20");
    json.begin_object();
    json.field("bytes", std::uint64_t{16 * 1024});
    json.field("wide_mb_s", cc_wide_mbps, 1);
    json.field("scalar_mb_s", cc_scalar_mbps, 1);
    json.field("speedup", cc_wide_mbps / cc_scalar_mbps);
    json.end_object();
    json.end_array();
    json.begin_array("aead_mtu");
    for (const auto& r : aead_rows) {
      json.begin_object();
      json.field("suite", r.suite);
      json.field("seal_mb_s", r.seal_mbps, 1);
      json.field("open_mb_s", r.open_mbps, 1);
      json.end_object();
    }
    json.end_array();
    json.field("ed25519_sign_us", sign_ns / 1e3);
    json.field("ed25519_verify_us", verify_ns / 1e3);
    json.begin_array("ed25519_stages");
    for (const auto& r : stage_rows) {
      json.begin_object();
      json.field("stage", r.stage);
      json.field("ns", r.ns, 0);
      json.end_object();
    }
    json.end_array();
    json.begin_array("ed25519_batch_verify");
    for (const auto& r : batch_rows) {
      json.begin_object();
      json.field("batch", r.width);
      json.field("per_sig_us", r.per_sig_us);
      json.field("speedup_vs_scalar", r.speedup);
      json.end_object();
    }
    json.end_array();
    json.field("x25519_us", x25519_ns / 1e3);
    json.field("hmac_drbg_instantiate_ns", drbg_inst_ns, 0);
    json.field("hmac_drbg_fill32_ns", drbg_fill_ns, 0);
    json.field("chacha_rng_fill32_ns", chacha_fill_ns, 0);
    json.field("ephid_roundtrip_ns", ephid_ns, 0);
    if (json.close())
      std::printf("  (baseline written to %s)\n", o.json_path.c_str());
  }

  bench::print_footer(
      "wide tiers beat soft on bulk AES and the 16-lane CMAC driver; batch "
      "verification amortizes the shared doublings below scalar cost; all "
      "tier outputs verified bit-identical in-run");
  return 0;
}
