// Shared pieces of the perfbench workloads: clocks, sample statistics,
// the seeded Zipf sampler, the run report and the span recorder.
//
// Spans are recorded by the benchmark around its own calls into the
// program's public functions; nothing inside src/ is instrumented.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Process-wide operator-new count (the repository's alloc_count_hook,
/// installed in main.cpp).
std::uint64_t heap_allocs();

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Quantile by linear interpolation between closest ranks (q in [0, 1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The highest percentile (capped at 99) that leaves at least ten samples
/// beyond it; 0 when there are fewer than forty samples (no tail to speak
/// of — report the median alone).
inline double tail_quantile(std::size_t n) {
  if (n < 40) return 0.0;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

/// The tail latency reported as `*_p99`: the 99th percentile of each
/// consecutive block of 1000 samples (ten samples beyond it), median over
/// the blocks, so one descheduled stretch of a run moves one block only.
/// Runs with fewer than two blocks fall back to tail_quantile over all.
inline double block_p99(const std::vector<double>& v) {
  constexpr std::size_t kBlock = 1000;
  if (v.size() < 2 * kBlock) return quantile(v, tail_quantile(v.size()));
  std::vector<double> tails;
  for (std::size_t b = 0; b + kBlock <= v.size(); b += kBlock)
    tails.push_back(quantile(std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(b),
                                                 v.begin() + static_cast<std::ptrdiff_t>(b + kBlock)),
                             0.99));
  return quantile(tails, 0.5);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Zipf(s) over [0, n), sampled through a precomputed CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  std::size_t operator()(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Set-up is timed kSetups times per run: once for the world the run
/// measures, then between rounds of the measured loop, spread evenly over
/// it, each time building a fresh world and dropping it. `setup_s` is the
/// median, so the samples see the machine over the whole run, as the rates
/// do, and not one moment of it.
constexpr std::size_t kSetups = 12;

template <class World>
class SetupClock {
 public:
  explicit SetupClock(std::function<std::unique_ptr<World>()> build)
      : build_(std::move(build)) {}

  /// Builds and times one world.
  std::unique_ptr<World> build() {
    const std::uint64_t t0 = now_ns();
    std::unique_ptr<World> w = build_();
    samples_.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    return w;
  }

  /// A between-rounds hook for a loop of `seconds`: it builds and drops one
  /// world each time the next of the samples still owed falls due.
  std::function<void()> spread_over(double seconds) {
    const std::uint64_t start = now_ns();
    const std::size_t owed = kSetups - std::min(kSetups, samples_.size());
    const double every = seconds / static_cast<double>(owed + 1);
    return [this, start, owed, every, done = std::size_t{0}]() mutable {
      if (done < owed &&
          static_cast<double>(now_ns() - start) * 1e-9 >= every * static_cast<double>(done + 1)) {
        (void)build();
        ++done;
      }
    };
  }

  /// Builds the samples still owed when a loop ended before they fell due.
  void finish() {
    while (samples_.size() < kSetups) (void)build();
  }

  double median() const { return quantile(samples_, 0.5); }
  int count() const { return static_cast<int>(samples_.size()); }

 private:
  std::function<std::unique_ptr<World>()> build_;
  std::vector<double> samples_;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run hands back to main().
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end figures of the untraced loop (the BENCHMARK.json ones plus
  /// pool_rate and lat_us_p99, reported per layer, and lat_us_p50, printed
  /// only) and per-layer metrics (traced run).
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> lines;

  void fail(std::uint64_t n, const std::string& why) {
    failed += n;
    if (fail_notes_ < 20) lines.push_back("CHECK FAILED: " + why);
    ++fail_notes_;
  }

 private:
  std::size_t fail_notes_ = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
  unsigned nproc = 1;
};

// ---- span recorder -----------------------------------------------------------

/// One timed call. `parent` indexes the enclosing span (kNoParent for a
/// root); `op` is the burst or request id shared by the spans of one
/// operation.
struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = 0;
  std::uint64_t op = 0;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
};

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  std::uint32_t intern(const std::string& name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    names_.push_back(name);
    const auto id = static_cast<std::uint32_t>(names_.size() - 1);
    ids_.emplace(name, id);
    return id;
  }

  /// Opens a span; close it with end(). Thread-safe.
  std::uint32_t begin(std::uint32_t name, std::uint64_t op,
                      std::uint32_t parent = kNoParent) {
    const std::uint64_t t = now_ns();
    std::lock_guard lock(mu_);
    spans_.push_back({name, parent, op, t, 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void end(std::uint32_t idx) {
    const std::uint64_t t = now_ns();
    std::lock_guard lock(mu_);
    spans_[idx].t1 = t;
  }
  /// Records a finished span measured by the caller. Thread-safe.
  void record(std::uint32_t name, std::uint64_t op, std::uint32_t parent,
              std::uint64_t t0, std::uint64_t t1) {
    std::lock_guard lock(mu_);
    spans_.push_back({name, parent, op, t0, t1});
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& name(std::uint32_t id) const { return names_[id]; }

  /// Per span: duration minus the part of its interval that its children
  /// cover (children may overlap one another when they ran on several
  /// threads; the union is subtracted once).
  std::vector<double> self_ns() const {
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
        spans_.size());
    for (const Span& s : spans_)
      if (s.parent != kNoParent) kids[s.parent].push_back({s.t0, s.t1});
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& k = kids[i];
      std::sort(k.begin(), k.end());
      std::uint64_t covered = 0, cur0 = 0, cur1 = 0;
      bool open = false;
      for (auto [a, b] : k) {
        a = std::max(a, s.t0);
        b = std::min(b, s.t1);
        if (b <= a) continue;
        if (open && a <= cur1) {
          cur1 = std::max(cur1, b);
        } else {
          if (open) covered += cur1 - cur0;
          cur0 = a;
          cur1 = b;
          open = true;
        }
      }
      if (open) covered += cur1 - cur0;
      self[i] = static_cast<double>(s.t1 - s.t0) - static_cast<double>(covered);
    }
    return self;
  }

  /// Durations (ns) of every span with this name.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    auto it = ids_.find(name);
    if (it == ids_.end()) return out;
    for (const Span& s : spans_)
      if (s.name == it->second) out.push_back(static_cast<double>(s.t1 - s.t0));
    return out;
  }

  /// Writes every span as one tab-separated line:
  /// index, name, parent (-1 for roots), op, start ns, end ns, self ns.
  bool write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<double> self = self_ns();
    std::fprintf(f, "#idx\tname\tparent\top\tstart_ns\tend_ns\tself_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%lld\t%llu\t%llu\t%llu\t%.0f\n", i,
                   names_[s.name].c_str(),
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.op),
                   static_cast<unsigned long long>(s.t0),
                   static_cast<unsigned long long>(s.t1), self[i]);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
};

/// RAII span on the calling thread.
class Scoped {
 public:
  Scoped(Tracer& t, std::uint32_t name, std::uint64_t op,
         std::uint32_t parent = Tracer::kNoParent)
      : t_(t), idx_(t.begin(name, op, parent)) {}
  ~Scoped() { t_.end(idx_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& t_;
  std::uint32_t idx_;
};

/// The traced run's summary of the end-to-end figures: the untraced
/// `pool_rate` and `lat_us_p99` (kept as per-layer `pool.rate` and
/// `tail.lat_us_p99`, see README "Dropped") and the tracing overhead,
/// traced value / untraced value - 1, of rate and pool_rate.
void trace_summary(Report& r, const std::map<std::string, Metric>& traced);

/// Self time per layer (the span-name prefix before the first '.') and the
/// share of each root name's total that its own self time leaves
/// unattributed to child spans. Appends the human-readable report.
void layer_report(const Tracer& t, Report& r,
                  const std::vector<std::string>& roots);

}  // namespace perfbench
