// perfbench — one benchmark for the APNA AS.
//
//   perfbench --workload fwd_mem|fwd_udp|control --seed N --seconds S
//             --trace 0|1 [--out DIR] [--git-sha SHA]
//
// Prints a human-readable report, a CONFIG line (workload, seed, nproc,
// crypto tier, git sha), then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: with --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones
// (every name in kLayerMetrics; a layer the workload does not exercise
// reads 0). Exits 1 when any output check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"
#include "crypto/aes.h"
// Replaces global operator new with a counting one; exactly one TU.
#include "util/alloc_count_hook.h"
#include "workloads.h"

namespace perfbench {

std::uint64_t heap_allocs() { return apna::util::heap_alloc_count(); }

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"rate", "op/s"},
    {"setup_s", "s"},
};

constexpr MetricDef kLayerMetrics[] = {
    {"router.burst_us_p50", "us"},
    {"router.burst_us_p99", "us"},
    {"router.classify_ns_per_pkt", "ns/pkt"},
    {"router.apply_ns_per_pkt", "ns/pkt"},
    {"router.process_ns_per_pkt", "ns/pkt"},
    {"router.forwarded", "count"},
    {"router.dropped", "count"},
    {"core.flow_cache_hit_ratio", "ratio"},
    {"core.flow_cache_stale_ratio", "ratio"},
    {"core.cross_worker_duplicates", "count"},
    {"core.revoke_us", "us"},
    {"wire.copy_bytes_per_pkt", "B/pkt"},
    {"util.allocs_per_pkt", "alloc/pkt"},
    {"net.poll_ns_per_pkt", "ns/pkt"},
    {"net.send_ns_per_pkt", "ns/pkt"},
    {"net.rx_per_poll", "count"},
    {"net.tx_errors", "count"},
    {"net.rx_rejected", "count"},
    {"gen.tx_ns_per_pkt", "ns/pkt"},
    {"gen.stall_share", "ratio"},
    {"gen.bare_sink_pps", "pkt/s"},
    {"services.issue_burst_us_p50", "us"},
    {"services.issue_burst_us_p99", "us"},
    {"services.ms_begin_us", "us"},
    {"crypto.pop_verify_batch_us_per_sig", "us"},
    {"crypto.ed25519_verify_us", "us"},
    {"crypto.drbg_init_us", "us"},
    {"services.ms_finish_us", "us"},
    {"util.allocs_per_issue", "alloc/req"},
    {"services.shutoff_burst_us_p50", "us"},
    {"services.shutoff_rate", "req/s"},
    {"services.aa_process_us", "us"},
    {"services.rs_bootstrap_us", "us"},
    {"persist.append_us_p50", "us"},
    {"persist.append_us_p99", "us"},
    {"persist.records", "count"},
    {"persist.journal_bytes", "B"},
    {"persist.snapshot_bytes", "B"},
    {"persist.snapshot_read_s", "s"},
    {"persist.replay_s", "s"},
    {"persist.recover_s", "s"},
    {"dns.lookup_burst_us_p50", "us"},
    {"dns.lookup_rate", "lookup/s"},
    {"dns.cache_hit_ratio", "ratio"},
    {"dns.negative_entries", "count"},
    {"dns.publish_us", "us"},
    {"trace.unattributed_share", "ratio"},
    {"pool.rate", "op/s"},
    {"tail.lat_us_p99", "us"},
    {"trace_overhead.rate", "ratio"},
    {"trace_overhead.pool_rate", "ratio"},
    {"self_share.router", "ratio"},
    {"self_share.core", "ratio"},
    {"self_share.crypto", "ratio"},
    {"self_share.wire", "ratio"},
    {"self_share.util", "ratio"},
    {"self_share.net", "ratio"},
    {"self_share.services", "ratio"},
    {"self_share.persist", "ratio"},
    {"self_share.dns", "ratio"},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fwd_mem|fwd_udp|control --seed N --seconds S --trace 0|1 "
               "[--out DIR] [--git-sha SHA]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv, std::string* git_sha) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0) || o.seconds > 600)
        usage("bad --seconds");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--out") {
      o.out_dir = v;
    } else if (a == "--git-sha") {
      *git_sha = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

void json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string git_sha = "unknown";
  Options o = parse(argc, argv, &git_sha);
  o.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  if (ec) usage(("cannot create " + o.out_dir).c_str());

  const char* tier = apna::crypto::Aes128::backend_name(
      apna::crypto::Aes128::best_backend());
  std::printf("perfbench %s: seed %llu, %.0f s, trace %d | nproc %u | "
              "crypto tier %s | git %s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.nproc, tier, git_sha.c_str());

  Report r;
  if (o.workload == "fwd_mem") {
    r = run_fwd_mem(o);
  } else if (o.workload == "fwd_udp") {
    r = run_fwd_udp(o);
  } else if (o.workload == "control") {
    r = run_control(o);
  } else {
    usage(("unknown workload " + o.workload).c_str());
  }
  for (const std::string& line : r.lines) std::printf("%s\n", line.c_str());

  std::string metrics;
  auto add = [&](const char* name, const Metric& m) {
    if (!metrics.empty()) metrics += ", ";
    json_string(metrics, name);
    metrics += ": {\"value\": " + json_number(m.value) + ", \"unit\": ";
    json_string(metrics, m.unit);
    metrics += "}";
  };
  bool complete = true;
  if (!o.trace) {
    for (const MetricDef& d : kEndToEnd) {
      auto it = r.e2e.find(d.name);
      if (it == r.e2e.end() || !(it->second.value > 0)) {
        std::printf("MISSING end-to-end metric %s\n", d.name);
        complete = false;
      }
      add(d.name, Metric{it == r.e2e.end() ? 0.0 : it->second.value, d.unit});
    }
  } else {
    for (const MetricDef& d : kLayerMetrics) {
      auto it = r.layer.find(d.name);
      add(d.name, Metric{it == r.layer.end() ? 0.0 : it->second.value, d.unit});
    }
  }
  const bool correct = r.failed == 0 && r.attempted > 0 && complete;

  std::string config = "CONFIG {\"workload\": ";
  json_string(config, o.workload);
  config += ", \"seed\": " + std::to_string(o.seed) +
            ", \"nproc\": " + std::to_string(o.nproc) +
            ", \"crypto_tier\": ";
  json_string(config, tier);
  config += ", \"git_sha\": ";
  json_string(config, git_sha);
  config += ", \"trace\": ";
  config += o.trace ? "true" : "false";
  config += "}";
  std::printf("%s\n", config.c_str());

  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
