#include "common.h"

#include <cstdio>

namespace perfbench {

namespace {

std::string fmt(const char* f, double a, double b, double c, double d) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c, d);
  return buf;
}

}  // namespace

void trace_summary(Report& r, const std::map<std::string, Metric>& traced) {
  r.layer["pool.rate"] = {r.e2e["pool_rate"].value, "op/s"};
  r.layer["tail.lat_us_p99"] = {r.e2e["lat_us_p99"].value, "us"};
  for (const char* m : {"rate", "pool_rate"}) {
    auto it = traced.find(m);
    if (it != traced.end())
      r.layer[std::string("trace_overhead.") + m] = {
          it->second.value / r.e2e[m].value - 1.0, "ratio"};
  }
}

void layer_report(const Tracer& t, Report& r,
                  const std::vector<std::string>& roots) {
  const std::vector<double> self = t.self_ns();
  const auto& spans = t.spans();

  struct Row {
    std::uint64_t count = 0;
    double total = 0;
    double self = 0;
  };
  std::map<std::string, Row> by_name;
  std::map<std::string, double> by_layer;
  double all_self = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string& n = t.name(spans[i].name);
    Row& row = by_name[n];
    ++row.count;
    row.total += static_cast<double>(spans[i].t1 - spans[i].t0);
    row.self += self[i];
    by_layer[n.substr(0, n.find('.'))] += self[i];
    all_self += self[i];
  }

  r.lines.push_back("traced spans (self = duration minus child coverage):");
  r.lines.push_back(
      "  span                                   count     total ms      "
      "self ms   self ns/op");
  for (const auto& [n, row] : by_name) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "  %-36s %8llu %12.3f %12.3f %12.0f",
                  n.c_str(), static_cast<unsigned long long>(row.count),
                  row.total / 1e6, row.self / 1e6,
                  row.self / static_cast<double>(row.count));
    r.lines.push_back(buf);
  }
  r.lines.push_back("self time by layer:");
  for (const auto& [layer, ns] : by_layer) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-12s %12.3f ms  %6.2f%%", layer.c_str(),
                  ns / 1e6, all_self > 0 ? 100.0 * ns / all_self : 0.0);
    r.lines.push_back(buf);
  }
  for (const char* layer : {"router", "core", "crypto", "wire", "util", "net",
                            "services", "persist", "dns"}) {
    auto it = by_layer.find(layer);
    r.layer[std::string("self_share.") + layer] = {
        it == by_layer.end() || all_self <= 0 ? 0.0 : it->second / all_self,
        "ratio"};
  }

  // Blocking-path accounting: a root's self time is the part of the traced
  // end-to-end time that no layer span covers.
  for (std::size_t k = 0; k < roots.size(); ++k) {
    auto it = by_name.find(roots[k]);
    if (it == by_name.end()) continue;
    const double share = it->second.total > 0 ? it->second.self / it->second.total
                                              : 0.0;
    r.lines.push_back(
        "blocking path " + roots[k] +
        fmt(": traced total %.3f ms, layer self times %.3f ms, unattributed "
            "%.3f ms (%.2f%%)",
            it->second.total / 1e6, (it->second.total - it->second.self) / 1e6,
            it->second.self / 1e6, 100.0 * share));
    if (k == 0) r.layer["trace.unattributed_share"] = {share, "ratio"};
  }
}

}  // namespace perfbench
