// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code around each call into a
// library layer; the layer is the span name's prefix up to the first '.'
// ("serve.Submit" -> serve). Every recording thread owns one buffer, so the
// hot path takes no lock. Spans of one request share its request id; a span
// names its parent by id. At exit the spans are written as Chrome
// trace-event JSON (chrome://tracing, Perfetto) and summarized per layer as
// self time (duration minus the part covered by child spans) and count.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Span {
  const char* name = "";  // string literal: layer.call
  Clock::time_point start;
  Clock::time_point end;
  int64_t id = 0;
  int64_t parent = 0;   // 0 = root
  int64_t request = -1;  // shared by all spans of one request; -1 = none
  int buffer = 0;
};

struct LayerSummary {
  std::string layer;
  double self_ms = 0.0;
  int64_t count = 0;
};

class Tracer {
 public:
  /// `buffers`: one per recording thread.
  explicit Tracer(int buffers);

  /// Fresh span id owned by `buffer` (ids never collide across buffers).
  int64_t NewId(int buffer);

  /// Records a span with a caller-chosen id; returns the id. Only the
  /// thread owning `buffer` may call this for that buffer.
  int64_t Record(int buffer, const char* name, Clock::time_point start,
                 Clock::time_point end, int64_t id, int64_t parent, int64_t request);

  /// Records a span with a fresh id; returns it.
  int64_t Record(int buffer, const char* name, Clock::time_point start,
                 Clock::time_point end, int64_t parent = 0, int64_t request = -1) {
    return Record(buffer, name, start, end, NewId(buffer), parent, request);
  }

  /// Self time and span count per layer, sorted by layer name.
  std::vector<LayerSummary> Summarize() const;

  /// Writes every span as Chrome trace-event JSON; false on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<std::vector<Span>> buffers_;
  std::vector<int64_t> next_id_;
};

/// Adds the per-layer summary lines (self time, span count) to `report` and
/// writes the Chrome trace to `path` (when not empty); a failed write fails
/// the run.
void FinishTrace(const Tracer& tracer, const std::string& path, Report* report);

/// Times one call into a layer as a child span of `parent` (recorded when
/// `tracer` is not null). Returns the elapsed microseconds either way, so the
/// per-layer metrics and the trace come from the same clock reads.
template <typename F>
double TimedCall(Tracer* tracer, int buffer, const char* name, int64_t parent,
                 int64_t request, F&& call) {
  const Clock::time_point start = Clock::now();
  call();
  const Clock::time_point end = Clock::now();
  if (tracer != nullptr) {
    tracer->Record(buffer, name, start, end, parent, request);
  }
  return std::chrono::duration<double, std::micro>(end - start).count();
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
