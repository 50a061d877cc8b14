// perfbench: end-to-end benchmark binary for the AdapTraj library.
//
//   perfbench --workload serve_fresh|serve_repeat|train --seed N --seconds S
//             --trace 0|1 [--trace-path FILE]
//   perfbench --self-test
//
// Prints provenance and one line per phase, then, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. perfbench/run.py builds this binary and is the entry point.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "tensor/kernels.h"
#include "tensor/parallel.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

namespace ad = adaptraj;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void PrintProvenance(const RunOptions& options) {
  std::string env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "ADAPTRAJ_", 9) == 0) {
      env += (env.empty() ? "" : ",") + std::string("\"") + JsonEscape(*e) + "\"";
    }
  }
  const bool avx512 =
      ad::kernels::SelectGemmPath() == ad::kernels::GemmPath::kAvx512;
  std::printf(
      "provenance: {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"nproc\":%d,\"build_type\":\"%s\",\"compiler\":\"%s\",\"gemm_path\":\"%s\","
      "\"avx512_compiled_in\":%s,\"simd_transcendentals\":%s,\"kernel_threads\":%d,"
      "\"train_workers\":%d,\"adaptraj_env\":[%s]}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, Nproc(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, avx512 ? "avx512" : "portable",
      ad::kernels::Avx512GemmCompiledIn() ? "true" : "false",
      ad::kernels::SimdTranscendentalsActive() ? "true" : "false",
      ad::parallel::NumThreads(), ad::parallel::NumTrainWorkers(), env.c_str());
}

void PrintResult(const Report& report) {
  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
  std::string metrics;
  for (const Metric& m : report.metrics) {
    // JSON has no infinity; a latency that never completed prints as 1e300.
    const double v = std::isfinite(m.value) ? m.value : 1e300;
    metrics += Format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              report.correct ? "true" : "false", static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_fresh|serve_repeat|train --seed N "
               "--seconds S --trace 0|1 [--trace-path FILE]\n"
               "       perfbench --self-test\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-path" && has_value) {
      options.trace_path = argv[++i];
    } else {
      return Usage();
    }
  }

  Report report;
  if (self_test) {
    options.workload = "self_test";
    PrintProvenance(options);
    RunSelfTest(&report);
  } else {
    if (!(options.seconds > 0.0)) return Usage();
    PrintProvenance(options);
    if (options.workload == "serve_fresh") {
      RunServeWorkload(options, /*repeat_traffic=*/false, &report);
    } else if (options.workload == "serve_repeat") {
      RunServeWorkload(options, /*repeat_traffic=*/true, &report);
    } else if (options.workload == "train") {
      RunTrainWorkload(options, &report);
    } else {
      return Usage();
    }
  }
  const int peak_threads = BenchThreadScope::PeakCount();
  report.Line(Format("bench threads: peak %d of nproc %d", peak_threads, Nproc()));
  if (peak_threads > Nproc()) report.Fail("more benchmark threads than nproc");
  PrintResult(report);
  return 0;
}
