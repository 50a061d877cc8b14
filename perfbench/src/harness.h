// Shared measurement helpers of the perfbench binary: clocks, process CPU
// time, peak RSS, quantiles, seeded hashing and the result record every
// workload fills in.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <sched.h>
#include <string>
#include <sys/resource.h>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline Clock::duration FromSeconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// CPU seconds consumed by every thread of this process so far.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set size of this process, MiB.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolated q-quantile (q in [0, 1]) of `values`; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

/// splitmix64: the stateless mixer behind every seeded stream of inputs.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a 64-bit hash.
inline double UnitFromBits(uint64_t bits) {
  return static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
}

/// FNV-1a over raw bytes: the trained-parameter digest.
inline uint64_t Fnv1a(const void* data, size_t n, uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// CPUs this process may run on (what `nproc` prints).
inline int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// Counts the benchmark's own threads (main thread included) and their peak,
/// so a run can prove it never used more than Nproc() of them. Library
/// threads (engine dispatcher, worker pools) are not counted.
class BenchThreadScope {
 public:
  BenchThreadScope() {
    const int now = ++Live();
    int peak = Peak().load();
    while (now > peak && !Peak().compare_exchange_weak(peak, now)) {
    }
  }
  ~BenchThreadScope() { --Live(); }
  BenchThreadScope(const BenchThreadScope&) = delete;
  BenchThreadScope& operator=(const BenchThreadScope&) = delete;

  static int PeakCount() { return Peak().load(); }

 private:
  static std::atomic<int>& Live() {
    static std::atomic<int> live{1};  // the main thread
    return live;
  }
  static std::atomic<int>& Peak() {
    static std::atomic<int> peak{1};
    return peak;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation reports: operation counts, the metrics,
/// and human-readable lines printed ahead of the JSON result.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Line(const std::string& text) { lines.push_back(text); }
  /// Records a failed check; the run then reports correct = false.
  void Fail(const std::string& why) {
    correct = false;
    lines.push_back("CHECK FAILED: " + why);
  }
};

/// printf into a std::string.
template <typename... Args>
std::string Format(const char* fmt, Args... args) {
  const int n = std::snprintf(nullptr, 0, fmt, args...);
  std::string out(static_cast<size_t>(std::max(n, 0)) + 1, '\0');
  std::snprintf(out.data(), out.size(), fmt, args...);
  out.resize(static_cast<size_t>(std::max(n, 0)));
  return out;
}

/// The values formatted with `fmt` and joined by spaces.
inline std::string Join(const std::vector<double>& values, const char* fmt = "%.3f") {
  std::string out;
  for (double v : values) out += (out.empty() ? "" : " ") + Format(fmt, v);
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
