// E1 — MS performance (§V-A3).
// Metric: µs per EphID issuance, aggregate EphIDs/sec for a --workers
// sweep through services::ServicePool, and heap allocations per request —
// recorded to BENCH_e1.json (same role as BENCH_e2.json for the data
// plane) and compared against the trace's 3,888 sessions/s peak demand.
//
// Paper: "For 500,000 EphID requests, our implementation runs for 6.9
// seconds. On average, 13.7 µs are needed for a single EphID generation,
// translating to a generation rate of 72.8k EphIDs/sec — over 18 times
// higher than the request rate [peak 3,888 sessions/s]." The paper
// parallelizes across 4 processes; ServicePool is that parallelization as
// a first-class runtime (M workers over the sharded AS state, per-request
// deterministic rng/nonce).
//
// We measure the identical server-side work (Fig 3): open the control
// EphID, validate, decrypt the request, generate the EphID, sign C_EphID
// with ed25519 and encrypt the reply — through ManagementService::
// issue_into, single-threaded and fanned across the worker sweep.
//
// allocs/request is an ASSERTED ceiling, not just a report: issue_into
// pools its whole reply build (decrypt scratch, response encode, stack
// AEAD) through the per-thread BufferPool, so a regression that
// reintroduces per-request heap churn fails the bench.
//
// Usage: bench_e1_ms_issuance [--workers=1,2,4] [--requests=20000] [--smoke]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/as_state.h"
#include "core/messages.h"
#include "crypto/x25519.h"
#include "net/sim.h"
#include "services/management_service.h"
#include "services/registry_service.h"
#include "services/service_identity.h"
#include "services/service_runtime.h"
#include "services/subscriber_registry.h"
#include "trace/trace_gen.h"
// Heap-allocation counter (same hook as alloc_count_test / bench_e2):
// allocs/request is part of the recorded baseline — the pooled MsgWriter/
// PacketWriter codec must keep it flat and small.
#include "util/alloc_count_hook.h"

using namespace apna;

namespace {

struct Setup {
  crypto::ChaChaRng rng{404};
  net::EventLoop loop;
  core::AsState as{64512, core::AsSecrets::generate(rng)};
  services::SubscriberRegistry subs;
  services::RegistryService rs{as, subs, loop, rng};
  services::ServiceIdentity aa = services::make_service_identity(
      as, rs.allocate_hid(), loop.now_seconds() + 86400, 0, nullptr, rng);
  services::ServiceIdentity ms_ident = services::make_service_identity(
      as, rs.allocate_hid(), loop.now_seconds() + 86400, 0, &aa.cert.ephid,
      rng);
  services::ManagementService ms{as, loop, rng, ms_ident};

  core::EphId ctrl;
  core::HostAsKeys keys;

  Setup() {
    subs.add_subscriber(1, to_bytes("pw"));
    auto lt = crypto::X25519KeyPair::generate(rng);
    core::BootstrapRequest req;
    req.subscriber_id = 1;
    req.credential = to_bytes("pw");
    req.host_pub = lt.pub;
    auto resp = rs.bootstrap(req);
    ctrl = resp->ctrl_ephid;
    keys = core::HostAsKeys::derive(
        crypto::x25519_shared(lt.priv, as.secrets.dh.pub));
  }

  /// Pre-builds sealed requests (client-side cost, excluded from server
  /// timing, exactly as the paper measures the MS).
  std::vector<Bytes> make_requests(std::size_t n, std::uint64_t nonce0) {
    std::vector<Bytes> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto kp = core::EphIdKeyPair::generate(rng);
      core::EphIdRequest req;
      req.ephid_pub = kp.pub;
      req.flags = 0;
      req.lifetime = core::EphIdLifetime::short_term;
      req.pop_sig = kp.sign(req.pop_tbs());
      wire::MsgWriter plain(160);
      req.encode(plain);
      out.push_back(core::seal_control(keys, nonce0 + i, true, plain.span()));
    }
    return out;
  }
};

struct SweepPoint {
  std::size_t workers = 0;
  double rate_per_s = 0;
  double allocs_per_request = 0;
  double speedup = 1.0;
};

/// The pooled reply build must stay at or below this many heap
/// allocations per request (was 10.00 before the BufferPool scratch
/// rework; what remains is the taken result Bytes plus pool-resize slack).
constexpr double kMaxAllocsPerRequest = 4.0;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_e1_ms_issuance [--workers=1,2,4] "
               "[--requests=20000] [--smoke]\n");
  std::exit(2);
}

std::size_t parse_count(const std::string& tok) {
  try {
    std::size_t pos = 0;
    const std::size_t v = std::stoul(tok, &pos);
    if (pos != tok.size() || v == 0) usage();
    return v;
  } catch (const std::exception&) {
    usage();
  }
}

std::vector<std::size_t> parse_workers(int argc, char** argv,
                                       std::size_t* requests) {
  std::vector<std::size_t> workers{1, 2, 4};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      continue;  // handled by bench::smoke_mode
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers.clear();
      std::string list(argv[i] + 10);
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = list.find(',', pos);
        workers.push_back(parse_count(list.substr(pos, comma - pos)));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      *requests = parse_count(argv[i] + 11);
    } else {
      usage();
    }
  }
  if (workers.empty()) usage();
  return workers;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "E1 — EphID Management Server issuance rate",
      "§V-A3 (text table: 500k requests, 13.7 µs/EphID, 72.8k EphIDs/s, "
      "18x the peak AS demand of 3,888 sessions/s)");

  const bool smoke = bench::smoke_mode(argc, argv);
  std::size_t kRequests = smoke ? 256 : 20'000;
  const std::vector<std::size_t> workers = parse_workers(argc, argv,
                                                         &kRequests);

  Setup s;
  std::printf("AES backend: %s | hardware threads: %u\n",
              s.as.codec.backend(), std::thread::hardware_concurrency());

  // --- Demand side: peak session rate from the synthetic trace -------------
  trace::TraceConfig tc;
  tc.scale = 16;  // keep the bench quick; rates scale linearly
  const auto tstats = trace::TraceGenerator(tc).run();
  const double peak_demand = tc.day_peak_per_s;
  std::printf(
      "Synthetic 24h trace (scale 1/%u): %.1fM arrivals, %llu unique hosts, "
      "envelope peak %.0f sessions/s (sampled max %.0f x scale)\n",
      tc.scale, tstats.total_entries * tc.scale / 1e6,
      static_cast<unsigned long long>(tstats.unique_hosts) * tc.scale,
      peak_demand,
      static_cast<double>(tstats.peak_arrivals_per_s) * tc.scale);

  const auto requests = s.make_requests(kRequests, 1);
  const core::ExpTime now = s.loop.now_seconds();

  // --- Single-call baseline (no pool machinery at all) ----------------------
  const double ns_per_issue = bench::time_per_op_ns(
      std::max<std::size_t>(kRequests / 4, 1), [&](std::size_t i) {
        auto r = s.ms.issue_sealed(s.ctrl, requests[i % kRequests], now,
                                   s.rng);
        if (!r.ok()) std::abort();
      });
  const double us_single = ns_per_issue / 1000.0;
  const double rate_single = 1e9 / ns_per_issue;

  // --- ServicePool --workers sweep -------------------------------------------
  constexpr std::size_t kBurst = 256;
  std::vector<SweepPoint> sweep;
  for (const std::size_t w : workers) {
    services::ServicePool::Config cfg;
    cfg.threads = w;
    services::ServicePool pool(s.ms, nullptr, cfg);

    std::vector<services::ServicePool::IssueJob> jobs(kBurst);
    std::vector<Result<Bytes>> results(kBurst, Result<Bytes>(Errc::internal));

    auto run_all = [&](std::size_t total) {
      for (std::size_t done = 0; done < total; done += kBurst) {
        const std::size_t n = std::min(kBurst, total - done);
        for (std::size_t i = 0; i < n; ++i)
          jobs[i] = {s.ctrl, requests[(done + i) % kRequests]};
        pool.process_issuance({jobs.data(), n}, now, {results.data(), n});
        // Every job must have issued: a failed job short-circuits the
        // crypto pipeline and would silently inflate the recorded rate.
        for (std::size_t i = 0; i < n; ++i)
          if (!results[i].ok()) std::abort();
      }
    };

    run_all(std::max<std::size_t>(kRequests / 4, 1));  // warmup
    const std::uint64_t allocs0 = util::heap_alloc_count();
    const auto t0 = bench::Clock::now();
    run_all(kRequests);
    const double secs =
        std::chrono::duration<double>(bench::Clock::now() - t0).count();
    const std::uint64_t allocs1 = util::heap_alloc_count();

    SweepPoint pt;
    pt.workers = w;
    pt.rate_per_s = kRequests / secs;
    pt.allocs_per_request =
        static_cast<double>(allocs1 - allocs0) / kRequests;
    pt.speedup = pt.rate_per_s / rate_single;
    sweep.push_back(pt);
  }

  // --- The paper's table -------------------------------------------------------
  const SweepPoint* four = nullptr;
  for (const auto& pt : sweep)
    if (pt.workers == 4) four = &pt;
  const double rate_par = four ? four->rate_per_s : sweep.back().rate_per_s;
  const double t500k_par = 500'000.0 / rate_par;

  std::printf("\n%-44s %12s %12s\n", "metric", "paper", "measured");
  std::printf("%-44s %12s %12.1f\n", "per-EphID server time, 1 worker (us)",
              "-", us_single);
  std::printf("%-44s %12s %12.1f\n",
              "per-EphID effective time, 4 workers (us)", "13.7",
              1e6 / rate_par);
  std::printf("%-44s %12s %12.2f\n", "time for 500k EphIDs, 4 workers (s)",
              "6.9", t500k_par);
  std::printf("%-44s %12s %12.1f\n", "issuance rate, 1 worker (kEphID/s)",
              "-", rate_single / 1e3);
  std::printf("%-44s %12s %12.1f\n", "issuance rate, 4 workers (kEphID/s)",
              "72.8", rate_par / 1e3);
  std::printf("%-44s %12s %12.0f\n", "peak AS demand (sessions/s)", "3888",
              peak_demand);
  std::printf("%-44s %12s %12.1fx\n", "headroom: rate / peak demand", "18.7x",
              rate_par / peak_demand);

  std::printf("\nServicePool sweep (burst %zu, chunk %zu):\n", kBurst,
              services::ServicePool::Config().chunk_jobs);
  std::printf("%8s %16s %16s %10s\n", "workers", "EphIDs/s", "allocs/req",
              "speedup");
  for (const auto& pt : sweep)
    std::printf("%8zu %16.0f %16.2f %9.2fx\n", pt.workers, pt.rate_per_s,
                pt.allocs_per_request, pt.speedup);
  if (bench::single_core())
    std::printf("  WARNING: single hardware thread — the speedup column "
                "measures the scheduler, not the pool; no scaling is "
                "expected or asserted on this host\n");

  // The pooled reply build is an asserted contract (satellite of the
  // verified-flow-cache PR): issuance may not regress to per-request heap
  // churn.
  for (const auto& pt : sweep) {
    if (pt.allocs_per_request > kMaxAllocsPerRequest) {
      std::fprintf(stderr,
                   "FATAL: %zu-worker issuance allocated %.2f times per "
                   "request (ceiling %.1f)\n",
                   pt.workers, pt.allocs_per_request, kMaxAllocsPerRequest);
      return 1;
    }
  }

  // --- BENCH_e1.json (same role as BENCH_e2.json) ------------------------------
  bench::JsonFile json("BENCH_e1.json");
  if (json.ok()) {
    json.field("experiment", "E1 MS issuance (ServicePool)");
    json.field("requests", std::uint64_t{kRequests});
    json.machine_shape();
    json.provenance(404);  // Setup's ChaChaRng seed
    json.field("aes_backend", s.as.codec.backend());
    json.field("peak_demand_sessions_per_s", peak_demand, 0);
    json.field("single_call_us_per_ephid", us_single, 2);
    json.field("single_call_rate_per_s", rate_single, 0);
    json.field("allocs_per_request_ceiling", kMaxAllocsPerRequest, 1);
    // §V-A3's figures beside ours: 13.7 µs per EphID (effective, 4
    // processes) = 72.8k EphIDs/s; ours at 4 workers (or the widest sweep
    // point when 4 is not swept).
    json.field("paper_us_per_ephid", 13.7, 1);
    json.field("paper_ephids_per_sec", 72800.0, 0);
    json.field("parallel_us_per_ephid", 1e6 / rate_par, 2);
    json.field("parallel_ephids_per_sec", rate_par, 0);
    json.begin_array("sweep");
    for (const auto& pt : sweep) {
      json.begin_object();
      json.field("workers", std::uint64_t{pt.workers});
      json.field("ephids_per_sec", pt.rate_per_s, 0);
      json.field("allocs_per_request", pt.allocs_per_request, 2);
      json.field("speedup", pt.speedup, 3);
      json.end_object();
    }
    json.end_array();
    if (json.close()) std::printf("  (baseline written to BENCH_e1.json)\n");
  }

  bench::print_footer(
      "issuance rate must exceed peak demand by a large factor (paper: "
      "18.7x); the worker sweep scales on multicore hosts (expect ~1x in a "
      "1-core container) and allocs/request stays flat across workers and "
      "under the asserted ceiling");
  return 0;
}
