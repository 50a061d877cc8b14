#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

constexpr int kBufferShift = 48;

std::string LayerOf(const char* name) {
  const std::string s(name);
  const size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

double Micros(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - origin).count();
}

}  // namespace

Tracer::Tracer(int buffers)
    : origin_(Clock::now()),
      buffers_(static_cast<size_t>(buffers)),
      next_id_(static_cast<size_t>(buffers), 0) {
  for (auto& b : buffers_) b.reserve(1 << 16);
}

int64_t Tracer::NewId(int buffer) {
  return (static_cast<int64_t>(buffer + 1) << kBufferShift) +
         (++next_id_[static_cast<size_t>(buffer)]);
}

int64_t Tracer::Record(int buffer, const char* name, Clock::time_point start,
                       Clock::time_point end, int64_t id, int64_t parent,
                       int64_t request) {
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.id = id;
  span.parent = parent;
  span.request = request;
  span.buffer = buffer;
  buffers_[static_cast<size_t>(buffer)].push_back(span);
  return id;
}

std::vector<LayerSummary> Tracer::Summarize() const {
  // Child intervals per parent id, then self = duration - union(children).
  std::unordered_map<int64_t, std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children;
  for (const auto& b : buffers_) {
    for (const Span& s : b) {
      if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, LayerSummary> layers;
  for (const auto& b : buffers_) {
    for (const Span& s : b) {
      double covered = 0.0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        auto intervals = it->second;
        std::sort(intervals.begin(), intervals.end());
        Clock::time_point cur_lo{};
        Clock::time_point cur_hi{};
        bool open = false;
        for (auto [lo, hi] : intervals) {
          lo = std::max(lo, s.start);
          hi = std::min(hi, s.end);
          if (hi <= lo) continue;
          if (open && lo <= cur_hi) {
            cur_hi = std::max(cur_hi, hi);
            continue;
          }
          if (open) covered += SecondsBetween(cur_lo, cur_hi);
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
        if (open) covered += SecondsBetween(cur_lo, cur_hi);
      }
      LayerSummary& l = layers[LayerOf(s.name)];
      l.self_ms += (SecondsBetween(s.start, s.end) - covered) * 1e3;
      ++l.count;
    }
  }
  std::vector<LayerSummary> out;
  for (auto& [name, summary] : layers) {
    summary.layer = name;
    out.push_back(summary);
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (const auto& b : buffers_) {
    for (const Span& s : b) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                   "\"parent\":%lld,\"request\":%lld}}",
                   first ? "" : ",\n", s.name, LayerOf(s.name).c_str(), s.buffer,
                   Micros(origin_, s.start), Micros(s.start, s.end),
                   static_cast<long long>(s.id), static_cast<long long>(s.parent),
                   static_cast<long long>(s.request));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void FinishTrace(const Tracer& tracer, const std::string& path, Report* report) {
  for (const LayerSummary& l : tracer.Summarize()) {
    report->Line(Format("trace layer %-7s self_ms=%.3f count=%lld", l.layer.c_str(), l.self_ms,
                        static_cast<long long>(l.count)));
  }
  if (!path.empty() && !tracer.WriteChromeJson(path)) report->Fail("cannot write " + path);
}

}  // namespace perfbench
