// serve_fresh and serve_repeat: open-loop load on serve::InferenceEngine.
//
// Untraced run: setup (timed, median of several), cache warm-up, then 1-s
// windows at kFixedRate (latency from each request's due time, CPU per
// scene) interleaved with the probes of a capacity search over a fixed
// ladder of absolute rates. Every fulfilled output of every phase is checked
// byte for byte against Method::Predict.
//
// Traced run: the same setup and warm-up, then ServeLayerPass — an untraced
// phase (engine stats), a traced phase (spans, tracing overhead), and the
// layer replay — plus a short training-step replay so the run reports every
// per-layer metric.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/encode_cache.h"
#include "serve/fault_injection.h"
#include "serve/inference_engine.h"
#include "tensor/buffer_pool.h"
#include "tensor/parallel.h"
#include "workloads.h"

namespace perfbench {

namespace ad = adaptraj;
using ad::Tensor;

namespace {

// Fixed offered rate of the latency measurement, scenes per second, and the
// p99 latency limit (from due time) that capacity_per_s is judged against.
constexpr double kFixedRate = 10000.0;
constexpr double kSloP99Ms = 50.0;
// The engine knobs that differ from the InferenceEngineOptions defaults.
constexpr int kServeBatch = 8;
constexpr int kMaxBatchDelayMs = 2;

// Scene-id ranges of the phases: fresh ids never repeat across phases.
constexpr uint64_t kFixedIds = 0;
constexpr uint64_t kHotIds = 1ull << 36;
constexpr uint64_t kWarmIds = 1ull << 40;
constexpr uint64_t kReplayIds = 2ull << 40;
constexpr uint64_t kReplayFillIds = 3ull << 40;
constexpr uint64_t kSettleIds = 4ull << 40;
constexpr uint64_t kTracedIds = 5ull << 40;
constexpr uint64_t ProbeIds(int probe) { return static_cast<uint64_t>(probe + 1) << 32; }
constexpr uint64_t WindowIds(int window) { return static_cast<uint64_t>(window) << 26; }

// serve_repeat: share of arrivals resubmitting a hot scene, and the hot set
// size (~16 MiB of cache entries, well inside the 64 MiB default budget).
constexpr double kRepeatFraction = 0.9;
constexpr uint64_t kHotSetSize = 16384;

// SDD pool the scenes are derived from: simulated from a fixed seed, so its
// size and make-up (and with them setup time and per-scene cost) are the
// same for every run; the run seed picks windows and jitter per scene id.
constexpr uint64_t kPoolSeed = 20240612;
constexpr int kPoolScenes = 32;
constexpr int kPoolSteps = 100;

// Capacity ladder: kFixedRate * 2^(k/8), k = 0..kLadderSteps-1 (10k..320k/s,
// 9% apart), searched by bisection in at most kProbes probes. A rung whose
// probe fails is probed once more before the search believes it: a single
// stall of a shared host must not cap the search far below the engine's
// capacity. Rungs 9% apart keep a rung just above the knee far enough above
// it that its backlog grows visibly within one probe.
constexpr int kLadderSteps = 41;
constexpr int kProbes = 8;
double LadderRate(int k) { return kFixedRate * std::pow(2.0, k / 8.0); }

// The fixed-rate measurement is made of windows of this length; its latency
// and CPU metrics are taken per window, then across windows (see the use).
constexpr double kWindowS = 0.5;

// Request span ids: above every Tracer::NewId id.
constexpr int64_t kRequestSpanBase = 1ll << 58;

constexpr int64_t kOutWidth = 24;  // pred_len * 2

ad::serve::InferenceEngineOptions EngineOptions() {
  ad::serve::InferenceEngineOptions o;
  o.batch_size = kServeBatch;
  o.max_batch_delay_ms = kMaxBatchDelayMs;
  o.sample = false;
  return o;
}

TrafficSpec MakeTraffic(bool repeat, double rate, uint64_t fresh_first) {
  TrafficSpec t;
  t.rate = rate;
  t.fresh_first = fresh_first;
  if (repeat) {
    t.bursts = true;
    t.repeat_fraction = kRepeatFraction;
    t.hot_first = kHotIds;
    t.hot_size = kHotSetSize;
  }
  return t;
}

/// Quantile (ms) of the samples recorded between two snapshots of an engine
/// histogram, with LatencyHistogram::Quantile's bucket interpolation.
double HistogramDeltaMs(const ad::serve::LatencyHistogram& after,
                        const ad::serve::LatencyHistogram& before, double q) {
  using H = ad::serve::LatencyHistogram;
  std::array<int64_t, H::kNumBuckets> delta{};
  int64_t total = 0;
  for (int b = 0; b < H::kNumBuckets; ++b) {
    delta[b] = after.buckets()[b] - before.buckets()[b];
    total += delta[b];
  }
  if (total == 0) return 0.0;
  int64_t rank = static_cast<int64_t>(q * static_cast<double>(total) + 0.5);
  rank = std::min(std::max<int64_t>(rank, 1), total);
  int64_t seen = 0;
  for (int b = 0; b < H::kNumBuckets; ++b) {
    if (delta[b] == 0) continue;
    if (seen + delta[b] >= rank) {
      const double frac = static_cast<double>(rank - seen) / static_cast<double>(delta[b]);
      return (H::BucketLowerUs(b) + (H::BucketUpperUs(b) - H::BucketLowerUs(b)) * frac) *
             1e-3;
    }
    seen += delta[b];
  }
  return H::BucketUpperUs(H::kNumBuckets - 1) * 1e-3;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One open-loop phase: what was sent, what came back, and when.
struct Phase {
  int64_t sent = 0;
  int64_t fulfilled = 0;
  int64_t failed = 0;
  bool aborted = false;       // generation stopped: the backlog ran away
  int64_t backlog_at_end = 0;  // requests outstanding at the phase's end
  double wall_s = 0.0;         // first due time -> last result collected
  double cpu_s = 0.0;
  std::vector<double> latency_ms;  // from due time; failed requests = +inf
  std::vector<double> late_ms;     // generator lateness (submit start - due)
  std::vector<double> submit_us;   // duration of InferenceEngine::Submit
  std::vector<double> due_s;       // due time per request, from phase start
  double duration_s = 0.0;
  std::vector<uint64_t> scenes;    // scene id per request
  std::vector<uint8_t> ok;         // 1 = fulfilled
  std::vector<float> outputs;      // kOutWidth floats per request
  std::string first_error;
  ad::serve::InferenceEngineStats before;
  ad::serve::InferenceEngineStats after;

  double LatencyMs(double q) const { return Quantile(latency_ms, q); }

  /// p99 latency of the requests due in each of `windows` equal slices of
  /// the phase.
  std::vector<double> WindowP99Ms(int windows) const {
    std::vector<std::vector<double>> lat(static_cast<size_t>(windows));
    for (int64_t j = 0; j < sent; ++j) {
      const int k = std::min(windows - 1, static_cast<int>(due_s[j] / duration_s * windows));
      lat[static_cast<size_t>(k)].push_back(latency_ms[j]);
    }
    std::vector<double> p99;
    for (const auto& l : lat) {
      if (!l.empty()) p99.push_back(Quantile(l, 0.99));
    }
    return p99;
  }
};

/// The engine under load plus everything needed to regenerate its inputs.
class Rig {
 public:
  Rig(const ad::core::Method* method, const ScenePool* pool, uint64_t seed, bool repeat)
      : method_(method), pool_(pool), seed_(seed), repeat_(repeat) {
    engine_ = std::make_unique<ad::serve::InferenceEngine>(method_, EngineOptions());
    // First batch: captures the full-batch execution plans.
    SubmitClosedLoop(kWarmIds - kServeBatch, kServeBatch);
  }

  /// Warm-up. Both workloads: fills the encoder cache to its byte budget
  /// with never-seen scenes, so every timed insert also evicts, as in a
  /// server that has run for a while. serve_repeat: then primes the hot set
  /// (most recently used, so LRU keeps it resident). Both: a short open-loop
  /// phase at the fixed rate so partial-batch plans are captured before any
  /// timed phase.
  void WarmUp() {
    const int64_t chunk = static_cast<int64_t>(kServeBatch) *
                          std::max(1, ad::parallel::NumTrainWorkers());
    uint64_t next = kWarmIds;
    while (engine_->stats().encode_cache.evictions == 0) {
      SubmitClosedLoop(next, 4096, chunk);
      next += 4096;
    }
    if (repeat_) {
      hot_.resize(kHotSetSize);
      for (uint64_t k = 0; k < kHotSetSize; ++k) MakeSceneFor(kHotIds + k, &hot_[k]);
      SubmitClosedLoop(kHotIds, static_cast<int64_t>(kHotSetSize), chunk);
    }
    ArrivalStream settle(MakeTraffic(repeat_, kFixedRate, kSettleIds), seed_ + 17);
    RunOpenLoop(&settle, 0.3, /*keep_outputs=*/false, nullptr);
  }

  /// Sends `stream` open-loop for `duration_s`; see Phase. Aborts generation
  /// once the backlog exceeds `abort_backlog_s` worth of arrivals (0 = never).
  Phase RunOpenLoop(ArrivalStream* stream, double duration_s, bool keep_outputs,
                    Tracer* tracer, double rate_hint = kFixedRate,
                    double abort_backlog_s = 0.0);

  /// Checks every fulfilled output of `phase` byte-for-byte against
  /// Method::Predict(sample = false) on the regenerated scene; returns the
  /// number of mismatches (each counts as a failed operation).
  int64_t CheckOutputs(const Phase& phase, std::string* first_problem) const;

  void MakeSceneFor(uint64_t id, ad::data::TrajectorySequence* out) const {
    MakeScene(*pool_, seed_, id, out);
  }

  /// Scene `id` for the generator: hot scenes come prebuilt (keeping the
  /// generator cheap enough for burst rates), others are built in `spare`.
  const ad::data::TrajectorySequence& SceneFor(uint64_t id,
                                               ad::data::TrajectorySequence* spare) const {
    if (id >= kHotIds && id - kHotIds < hot_.size()) return hot_[id - kHotIds];
    MakeSceneFor(id, spare);
    return *spare;
  }

 private:
  /// Submits scenes [first, first + count) in chunks of `chunk`, waiting for
  /// each chunk (a chunk of whole groups dispatches without the deadline).
  void SubmitClosedLoop(uint64_t first, int64_t count, int64_t chunk = kServeBatch) {
    ad::data::TrajectorySequence scene;
    std::vector<std::future<Tensor>> futures;
    for (int64_t done = 0; done < count;) {
      const int64_t n = std::min(chunk, count - done);
      futures.clear();
      for (int64_t i = 0; i < n; ++i) {
        MakeSceneFor(first + static_cast<uint64_t>(done + i), &scene);
        futures.push_back(engine_->Submit(scene));
      }
      engine_->Drain();
      for (auto& f : futures) (void)f.get();
      done += n;
    }
  }

  const ad::core::Method* method_;
  const ScenePool* pool_;
  uint64_t seed_;
  bool repeat_;
  std::unique_ptr<ad::serve::InferenceEngine> engine_;
  std::vector<ad::data::TrajectorySequence> hot_;  // serve_repeat: prebuilt hot set
};

Phase Rig::RunOpenLoop(ArrivalStream* stream, double duration_s, bool keep_outputs,
                       Tracer* tracer, double rate_hint, double abort_backlog_s) {
  Phase p;
  p.duration_s = duration_s;
  const size_t capacity = static_cast<size_t>(rate_hint * duration_s * 2.0) + 4096;
  std::vector<std::future<Tensor>> futures(capacity);
  std::vector<Clock::time_point> due(capacity);
  std::vector<Clock::time_point> submitted(capacity);
  p.latency_ms.reserve(capacity);
  p.late_ms.reserve(capacity);
  p.submit_us.reserve(capacity);
  p.due_s.reserve(capacity);
  p.scenes.reserve(capacity);
  p.ok.assign(capacity, 0);
  if (keep_outputs) p.outputs.assign(capacity * kOutWidth, 0.0f);
  const bool tracing = tracer != nullptr;

  std::atomic<int64_t> published{0};
  std::atomic<int64_t> collected{0};
  std::atomic<bool> done{false};
  std::vector<double> latency(capacity, 0.0);

  p.before = engine_->stats();
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);

  // Collector: waits on futures in submission order. The engine fulfils a
  // group's promises together and groups execute one after another, so
  // in-order waiting stamps each result within a wake-up of its readiness.
  std::thread collector([&] {
    const BenchThreadScope counted;
    int64_t j = 0;
    for (;;) {
      const int64_t n = published.load(std::memory_order_acquire);
      if (j == n) {
        if (done.load(std::memory_order_acquire) &&
            j == published.load(std::memory_order_acquire)) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      for (; j < n; ++j) {
        futures[j].wait();
        const Clock::time_point ready = Clock::now();
        try {
          Tensor out = futures[j].get();
          if (keep_outputs) {
            std::memcpy(&p.outputs[static_cast<size_t>(j) * kOutWidth], out.data(),
                        sizeof(float) * kOutWidth);
          }
          p.ok[j] = 1;
          latency[j] = std::chrono::duration<double, std::milli>(ready - due[j]).count();
        } catch (const std::exception& e) {
          latency[j] = HUGE_VAL;
          if (p.first_error.empty()) p.first_error = e.what();
        }
        if (tracing) {
          const int64_t root = kRequestSpanBase + j;
          tracer->Record(1, "bench.request", due[j], ready, root, 0, j);
          tracer->Record(1, "serve.await", submitted[j], ready, root, j);
        }
        collected.store(j + 1, std::memory_order_release);
      }
    }
  });

  ad::data::TrajectorySequence scene;
  int64_t i = 0;
  for (; static_cast<size_t>(i) < capacity; ++i) {
    const Arrival a = stream->Next();
    if (a.due_s >= duration_s) break;
    const ad::data::TrajectorySequence& request = SceneFor(a.scene, &scene);
    due[i] = t0 + FromSeconds(a.due_s);
    if (Clock::now() < due[i]) std::this_thread::sleep_until(due[i]);
    const Clock::time_point s0 = Clock::now();
    futures[i] = engine_->Submit(request);
    const Clock::time_point s1 = Clock::now();
    submitted[i] = s1;
    p.scenes.push_back(a.scene);
    p.due_s.push_back(a.due_s);
    p.late_ms.push_back(std::chrono::duration<double, std::milli>(s0 - due[i]).count());
    p.submit_us.push_back(std::chrono::duration<double, std::micro>(s1 - s0).count());
    if (tracing) tracer->Record(0, "serve.Submit", s0, s1, kRequestSpanBase + i, i);
    published.store(i + 1, std::memory_order_release);
    if (abort_backlog_s > 0.0 &&
        static_cast<double>(i + 1 - collected.load(std::memory_order_acquire)) >
            abort_backlog_s * rate_hint) {
      ++i;
      p.aborted = true;
      break;
    }
  }
  p.sent = i;
  // The backlog is read at the phase's nominal end, not at the last arrival
  // (with bursts, the last arrival closes a burst).
  if (!p.aborted) std::this_thread::sleep_until(t0 + FromSeconds(duration_s));
  p.backlog_at_end = i - collected.load(std::memory_order_acquire);
  done.store(true, std::memory_order_release);
  collector.join();

  p.wall_s = SecondsBetween(t0, Clock::now());
  p.cpu_s = ProcessCpuSeconds() - cpu0;
  p.after = engine_->stats();
  for (int64_t j = 0; j < p.sent; ++j) {
    if (p.ok[j]) {
      ++p.fulfilled;
    } else {
      ++p.failed;
    }
    p.latency_ms.push_back(latency[j]);
  }
  p.ok.resize(static_cast<size_t>(p.sent));
  if (keep_outputs) p.outputs.resize(static_cast<size_t>(p.sent) * kOutWidth);
  return p;
}

int64_t Rig::CheckOutputs(const Phase& phase, std::string* first_problem) const {
  // One reference per distinct scene; repeats share it.
  std::unordered_map<uint64_t, int64_t> slot_of;
  std::vector<uint64_t> distinct;
  for (int64_t j = 0; j < phase.sent; ++j) {
    if (!phase.ok[j]) continue;
    if (slot_of.emplace(phase.scenes[j], static_cast<int64_t>(distinct.size())).second) {
      distinct.push_back(phase.scenes[j]);
    }
  }
  std::vector<float> reference(distinct.size() * kOutWidth);
  constexpr int64_t kRefBatch = 64;
  const int64_t chunks = (static_cast<int64_t>(distinct.size()) + kRefBatch - 1) / kRefBatch;
  std::atomic<int64_t> next_chunk{0};
  auto work = [&] {
    std::vector<ad::data::TrajectorySequence> scenes(kRefBatch);
    std::vector<const ad::data::TrajectorySequence*> ptrs;
    ad::Rng rng(0);  // unused with sample = false
    for (int64_t c = next_chunk++; c < chunks; c = next_chunk++) {
      const int64_t lo = c * kRefBatch;
      const int64_t hi = std::min<int64_t>(lo + kRefBatch, distinct.size());
      ptrs.clear();
      for (int64_t k = lo; k < hi; ++k) {
        MakeSceneFor(distinct[k], &scenes[k - lo]);
        ptrs.push_back(&scenes[k - lo]);
      }
      const ad::data::Batch batch = ad::data::MakeBatch(ptrs, ad::data::SequenceConfig());
      const Tensor out = method_->Predict(batch, &rng, /*sample=*/false);
      std::memcpy(&reference[lo * kOutWidth], out.data(),
                  sizeof(float) * kOutWidth * static_cast<size_t>(hi - lo));
    }
  };
  // The calling thread plus nproc - 1 helpers: at most nproc bench threads.
  std::vector<std::thread> threads;
  for (int t = 1; t < Nproc(); ++t) {
    threads.emplace_back([&work] {
      const BenchThreadScope counted;
      work();
    });
  }
  work();
  for (auto& t : threads) t.join();

  int64_t mismatches = 0;
  for (int64_t j = 0; j < phase.sent; ++j) {
    if (!phase.ok[j]) continue;
    const float* ref = &reference[slot_of[phase.scenes[j]] * kOutWidth];
    if (std::memcmp(ref, &phase.outputs[j * kOutWidth], sizeof(float) * kOutWidth) != 0) {
      if (mismatches == 0 && first_problem != nullptr) {
        *first_problem = Format("request %lld (scene %llu) differs from Predict",
                                static_cast<long long>(j),
                                static_cast<unsigned long long>(phase.scenes[j]));
      }
      ++mismatches;
    }
  }
  return mismatches;
}

/// Pass/fail of one capacity probe: the SLO on p99 from due time, no failed
/// request, and a backlog that did not grow past the SLO's worth of arrivals.
///
/// p99 is judged per window and the median window decides, so one stalled
/// window of a shared host does not fail a rate the engine sustains; a
/// growing backlog still fails, through the later windows and the backlog.
bool ProbePasses(const Phase& p, double rate) {
  return !p.aborted && p.failed == 0 && p.sent > 0 && Median(p.WindowP99Ms(4)) <= kSloP99Ms &&
         static_cast<double>(p.backlog_at_end) <= rate * kSloP99Ms * 1e-3;
}

void AccountPhase(const char* name, const Phase& p, int64_t mismatches, Report* report) {
  report->attempted += p.sent;
  report->failed += p.failed + mismatches;
  report->Line(Format("phase %-14s sent=%lld succeeded=%lld failed=%lld mismatched=%lld",
                      name, static_cast<long long>(p.sent),
                      static_cast<long long>(p.fulfilled - mismatches),
                      static_cast<long long>(p.failed), static_cast<long long>(mismatches)));
  if (!p.first_error.empty()) report->Line(std::string("  first error: ") + p.first_error);
}

void CheckPhase(const Rig& rig, const char* name, const Phase& p, Report* report) {
  std::string problem;
  const int64_t mismatches = rig.CheckOutputs(p, &problem);
  AccountPhase(name, p, mismatches, report);
  if (mismatches > 0) report->Fail(problem);
  if (p.failed > 0) report->Fail(Format("%s: %lld requests failed", name,
                                        static_cast<long long>(p.failed)));
}

/// The served model: AdapTraj-PECNet after a short Alg.-1 run on a small
/// corpus, so serving runs on trained weights. Built once per run, outside
/// the timed setup (the train workload measures training). `tracer` (traced
/// runs only) receives spans for the simulation and the training call.
std::unique_ptr<ad::core::AdapTrajMethod> TrainServedModel(uint64_t seed, Tracer* tracer) {
  ad::data::DomainGeneralizationData corpus;
  TimedCall(tracer, 0, "sim.BuildCorpus", 0, -1, [&] { corpus = BuildCorpus(seed + 1, 192); });
  auto method = MakeModel(seed);
  TimedCall(tracer, 0, "core.Method.Train", 0, -1,
            [&] { method->Train(corpus, MakeTrainConfig(seed, /*epochs=*/8)); });
  return method;
}

/// Everything a serving run builds before it can measure: what a server does
/// when it starts from trained weights.
struct ServeSetup {
  std::unique_ptr<ScenePool> pool;  // heap-held: the rig keeps its address
  std::unique_ptr<ad::core::Method> method;
  std::unique_ptr<Rig> rig;
};

/// Simulates the scene pool, builds a serving copy of `trained`
/// (Method::CloneForServing: the model constructed, the trained weights
/// copied in) and the engine, and serves the first batch.
ServeSetup BuildServeSetup(const ad::core::Method& trained, uint64_t seed, bool repeat) {
  ServeSetup s;
  s.pool = std::make_unique<ScenePool>(BuildServePool());
  s.method = trained.CloneForServing();
  s.rig = std::make_unique<Rig>(s.method.get(), s.pool.get(), seed, repeat);
  return s;
}

}  // namespace

ScenePool BuildServePool() { return BuildScenePool(kPoolSeed, kPoolScenes, kPoolSteps); }

void ServeLayerPass(const ad::core::Method& method, const ScenePool& pool, uint64_t seed,
                    bool repeat_traffic, double seconds, Tracer* tracer, Report* report) {
  Rig rig(&method, &pool, seed, repeat_traffic);
  rig.WarmUp();

  // Untraced phase: engine-side numbers, and the base of the overhead ratio.
  ArrivalStream plain_stream(MakeTraffic(repeat_traffic, kFixedRate, kFixedIds), seed);
  const Phase plain = rig.RunOpenLoop(&plain_stream, 0.5 * seconds, true, nullptr);
  // Traced phase: request spans from generator and collector.
  ArrivalStream traced_stream(MakeTraffic(repeat_traffic, kFixedRate, kTracedIds), seed + 1);
  const Phase traced = rig.RunOpenLoop(&traced_stream, 0.5 * seconds, true, tracer);

  CheckPhase(rig, "untraced", plain, report);
  CheckPhase(rig, "traced", traced, report);

  const auto& a = plain.after;
  const auto& b = plain.before;
  const double batches = static_cast<double>(a.batches - b.batches);
  const double lookups = static_cast<double>(a.encode_cache.lookups - b.encode_cache.lookups);
  const double plan_calls = static_cast<double>(a.plan.hits + a.plan.misses -
                                                b.plan.hits - b.plan.misses);
  const double batch_exec_p50_ms = HistogramDeltaMs(a.batch_exec, b.batch_exec, 0.5);
  report->Add("serve.submit_us_p50", Quantile(plain.submit_us, 0.5), "us");
  report->Add("serve.submit_us_p99", Quantile(plain.submit_us, 0.99), "us");
  report->Add("serve.queue_wait_ms_p50", HistogramDeltaMs(a.queue_wait, b.queue_wait, 0.5), "ms");
  report->Add("serve.queue_wait_ms_p99", HistogramDeltaMs(a.queue_wait, b.queue_wait, 0.99), "ms");
  report->Add("serve.peak_queue_depth", static_cast<double>(a.peak_queue_depth), "count");
  report->Add("serve.deadline_flush_ratio",
              Ratio(static_cast<double>(a.deadline_flushes - b.deadline_flushes), batches),
              "ratio");
  report->Add("serve.batch_exec_ms_p50", batch_exec_p50_ms, "ms");
  report->Add("serve.batch_exec_ms_p99", HistogramDeltaMs(a.batch_exec, b.batch_exec, 0.99), "ms");
  report->Add("serve.padded_row_ratio",
              Ratio(static_cast<double>(a.padded_rows - b.padded_rows), batches * kServeBatch),
              "ratio");
  report->Add("serve.cpu_per_wall", Ratio(plain.cpu_s, plain.wall_s), "ratio");
  report->Add("serve.encode_cache.hit_ratio",
              Ratio(static_cast<double>(a.encode_cache.hits - b.encode_cache.hits), lookups),
              "ratio");
  report->Add("serve.encode_cache.evictions",
              static_cast<double>(a.encode_cache.evictions - b.encode_cache.evictions), "count");
  report->Add("serve.encode_cache.hash_conflicts",
              static_cast<double>(a.encode_cache.hash_conflicts - b.encode_cache.hash_conflicts),
              "count");
  report->Add("tensor.plan_hit_ratio",
              Ratio(static_cast<double>(a.plan.hits - b.plan.hits), plan_calls), "ratio");
  report->Add("bench.generator_late_ms_p99", Quantile(plain.late_ms, 0.99), "ms");

  const double plain_cpu = Ratio(plain.cpu_s, static_cast<double>(plain.fulfilled));
  const double traced_cpu = Ratio(traced.cpu_s, static_cast<double>(traced.fulfilled));
  report->Add("trace.overhead_cpu_ratio", Ratio(traced_cpu, plain_cpu) - 1.0, "ratio");
  report->Add("trace.overhead_latency_p50_ratio",
              Ratio(traced.LatencyMs(0.5), plain.LatencyMs(0.5)) - 1.0, "ratio");

  // Layer replay: the same kind of stream, in batches of kServeBatch, pushed
  // through each layer call the engine makes, each call timed. A private
  // cache in the engine's warm state (filled to its budget, then for repeat
  // traffic the hot set resident) makes lookups, inserts and evictions
  // behave as they do in the engine.
  ad::serve::EncodeCacheOptions cache_options;
  cache_options.identity = method.name() + ":" + std::to_string(method.predict_encode_width());
  ad::serve::EncodeCache cache(cache_options);
  const int64_t width = method.predict_encode_width();
  const bool with_neighbors = method.encode_reads_neighbors();
  const ad::data::SequenceConfig seq;
  std::vector<ad::data::TrajectorySequence> scenes(kServeBatch);
  std::vector<const ad::data::TrajectorySequence*> ptrs(kServeBatch);
  const std::vector<float> zeros(static_cast<size_t>(width), 0.0f);
  for (uint64_t id = kReplayFillIds; cache.stats().evictions == 0; id += kServeBatch) {
    for (int r = 0; r < kServeBatch; ++r) {
      rig.MakeSceneFor(id + r, &scenes[r]);
      ptrs[r] = &scenes[r];
    }
    const ad::data::Batch batch = ad::data::MakeBatch(ptrs, seq);
    for (int r = 0; r < kServeBatch; ++r) {
      cache.Insert(ad::serve::SceneEncodeKey(cache_options.identity, batch, r, with_neighbors),
                   zeros.data(), width);
    }
  }
  if (repeat_traffic) {
    for (uint64_t first = 0; first < kHotSetSize; first += kServeBatch) {
      for (int r = 0; r < kServeBatch; ++r) {
        rig.MakeSceneFor(kHotIds + first + r, &scenes[r]);
        ptrs[r] = &scenes[r];
      }
      const ad::data::Batch batch = ad::data::MakeBatch(ptrs, seq);
      const Tensor enc = method.PredictEncode(batch);
      for (int r = 0; r < kServeBatch; ++r) {
        cache.Insert(ad::serve::SceneEncodeKey(cache_options.identity, batch, r, with_neighbors),
                     enc.data() + r * width, width);
      }
    }
  }

  const int64_t replay_batches = std::max<int64_t>(200, static_cast<int64_t>(150 * seconds));
  ArrivalStream replay_stream(MakeTraffic(repeat_traffic, kFixedRate, kReplayIds), seed + 2);
  std::vector<double> make_batch_us, key_us, probe_us, encode_us, decode_us;
  double layer_us_total = 0.0;
  ad::Rng rng(seed);
  const ad::internal::BufferPoolStats pool0 = ad::internal::GetBufferPoolStats();
  const double replay_cpu0 = ProcessCpuSeconds();
  const Clock::time_point replay_t0 = Clock::now();
  for (int64_t bi = 0; bi < replay_batches; ++bi) {
    const Clock::time_point root_start = Clock::now();
    const int64_t root = tracer->NewId(0);
    for (int r = 0; r < kServeBatch; ++r) {
      rig.MakeSceneFor(replay_stream.Next().scene, &scenes[r]);
      ptrs[r] = &scenes[r];
    }
    ad::data::Batch batch;
    double us = TimedCall(tracer, 0, "data.MakeBatch", root, -1,
                          [&] { batch = ad::data::MakeBatch(ptrs, seq); });
    make_batch_us.push_back(us);
    layer_us_total += us;

    std::vector<std::string> keys(kServeBatch);
    us = TimedCall(tracer, 0, "serve.SceneEncodeKey", root, -1, [&] {
      for (int r = 0; r < kServeBatch; ++r) {
        keys[r] = ad::serve::SceneEncodeKey(cache_options.identity, batch, r, with_neighbors);
      }
    });
    key_us.push_back(us);
    layer_us_total += us;

    // As the engine: one lookup per distinct key, encode the misses.
    Tensor enc_rows = Tensor::Zeros({kServeBatch, width});
    std::vector<int64_t> miss_rows;
    std::vector<std::pair<int, int>> aliases;
    double probe = TimedCall(tracer, 0, "serve.EncodeCache.Lookup", root, -1, [&] {
      std::unordered_map<std::string, int> first_of_key;
      for (int r = 0; r < kServeBatch; ++r) {
        auto ins = first_of_key.emplace(keys[r], r);
        if (!ins.second) {
          aliases.emplace_back(r, ins.first->second);
        } else if (!cache.Lookup(keys[r], enc_rows.data() + r * width, width)) {
          miss_rows.push_back(r);
        }
      }
    });
    if (!miss_rows.empty()) {
      std::vector<const ad::data::TrajectorySequence*> miss_ptrs;
      for (int64_t r : miss_rows) miss_ptrs.push_back(ptrs[r]);
      ad::data::Batch miss_batch;
      const bool all_miss = static_cast<int64_t>(miss_rows.size()) == kServeBatch;
      if (!all_miss) {
        layer_us_total += TimedCall(tracer, 0, "data.MakeBatch_miss_rows", root, -1, [&] {
          miss_batch = ad::data::MakeBatch(miss_ptrs, seq, batch.max_neighbors);
        });
      }
      Tensor packed;
      us = TimedCall(tracer, 0, "core.PredictEncode", root, -1, [&] {
        packed = method.PredictEncode(all_miss ? batch : miss_batch);
      });
      encode_us.push_back(us);
      layer_us_total += us;
      for (size_t k = 0; k < miss_rows.size(); ++k) {
        std::memcpy(enc_rows.data() + miss_rows[k] * width, packed.data() + k * width,
                    sizeof(float) * width);
      }
      probe += TimedCall(tracer, 0, "serve.EncodeCache.Insert", root, -1, [&] {
        for (int64_t r : miss_rows) cache.Insert(keys[r], enc_rows.data() + r * width, width);
      });
    }
    for (const auto& [row, rep] : aliases) {
      std::memcpy(enc_rows.data() + row * width, enc_rows.data() + rep * width,
                  sizeof(float) * width);
    }
    probe_us.push_back(probe);
    layer_us_total += probe;

    us = TimedCall(tracer, 0, "core.PredictDecode", root, -1,
                   [&] { (void)method.PredictDecode(batch, enc_rows, &rng, false); });
    decode_us.push_back(us);
    layer_us_total += us;
    tracer->Record(0, "bench.replay_batch", root_start, Clock::now(), root, 0, -1);
  }
  const double replay_wall = SecondsBetween(replay_t0, Clock::now());
  const double replay_cpu = ProcessCpuSeconds() - replay_cpu0;
  const ad::internal::BufferPoolStats pool1 = ad::internal::GetBufferPoolStats();

  report->Add("data.make_batch_us_p50", Quantile(make_batch_us, 0.5), "us");
  report->Add("serve.encode_key_us_p50", Quantile(key_us, 0.5), "us");
  report->Add("serve.encode_probe_us_p50", Quantile(probe_us, 0.5), "us");
  report->Add("core.predict_encode_us_p50", Quantile(encode_us, 0.5), "us");
  report->Add("core.predict_decode_us_p50", Quantile(decode_us, 0.5), "us");
  report->Add("tensor.pool_reuse_ratio",
              Ratio(static_cast<double>(pool1.reuses - pool0.reuses),
                    static_cast<double>(pool1.acquires - pool0.acquires)),
              "ratio");
  const double layer_us_per_batch = layer_us_total / static_cast<double>(replay_batches);
  report->Add("serve.unattributed_ratio",
              1.0 - Ratio(layer_us_per_batch, batch_exec_p50_ms * 1e3), "ratio");
  report->Line(Format("replay: %lld batches, %.1f us of layer calls per batch, "
                      "cpu/wall %.2f, %lld encode calls",
                      static_cast<long long>(replay_batches), layer_us_per_batch,
                      Ratio(replay_cpu, replay_wall), static_cast<long long>(encode_us.size())));
}

void RunServeWorkload(const RunOptions& options, bool repeat, Report* report) {
  const uint64_t seed = options.seed;
  if (options.trace) {
    Tracer tracer(2);
    ScenePool pool;
    TimedCall(&tracer, 0, "sim.GenerateScenes", 0, -1, [&] { pool = BuildServePool(); });
    const auto method = TrainServedModel(seed, &tracer);
    ServeLayerPass(*method, pool, seed, repeat, options.seconds, &tracer, report);
    const ad::data::DomainGeneralizationData corpus = BuildCorpus(seed + 3, 192);
    TrainLayerPass(corpus, seed, /*train_epochs=*/8, 24, &tracer, 0, report);
    FinishTrace(tracer, options.trace_path, report);
    return;
  }

  // Setup, timed several times; the last instance is measured.
  // One untimed round first: process-wide first-use costs (thread pools,
  // allocator growth) would otherwise land in the first samples only.
  const auto trained = TrainServedModel(seed, nullptr);
  constexpr int kSetups = 7;
  std::vector<double> setup_s;
  ServeSetup setup;
  for (int k = 0; k <= kSetups; ++k) {
    setup = ServeSetup();  // release the previous instance first
    const Clock::time_point s0 = Clock::now();
    setup = BuildServeSetup(*trained, seed, repeat);
    if (k > 0) setup_s.push_back(SecondsBetween(s0, Clock::now()));
  }
  Rig& rig = *setup.rig;
  rig.WarmUp();

  // The fixed-rate measurement is separate windows spread evenly between
  // the capacity probes, so the windows sample the whole run: interference
  // from other tenants of a shared host comes in episodes, which then cover
  // only some windows. The latency and CPU metrics are the best (lowest)
  // window: interference only ever adds time, and a change that slows every
  // window still moves the figure. About 40% of the run is windows, the rest
  // is probes.
  const int fixed_windows =
      std::max(2, static_cast<int>(std::floor(0.4 * options.seconds / kWindowS)));
  // With bursts, a probe lasts whole on/off periods, so sending always stops
  // at the end of a silent phase and the backlog check sees the queue after
  // it had time to drain, not in the middle of a burst.
  const TrafficSpec shape = MakeTraffic(repeat, kFixedRate, 0);
  double probe_s = std::max(0.5, (options.seconds - fixed_windows * kWindowS) / kProbes);
  if (shape.bursts) {
    const double period = shape.burst_on_s * shape.burst_multiplier;
    probe_s = period * std::max(1.0, std::floor(probe_s / period));
  }
  std::vector<double> window_p50, window_p99, window_cpu_ms, window_cpu_per_wall,
      window_late_p99, window_hits, window_lookups;
  int64_t fixed_sent = 0;
  int64_t fixed_failed = 0;
  bool fresh_hit = false;
  double peak_rss_mb = 0.0;
  auto run_window = [&](int w) {
    ArrivalStream stream(MakeTraffic(repeat, kFixedRate, WindowIds(w)), seed + 1000 + w);
    const Phase p = rig.RunOpenLoop(&stream, kWindowS, true, nullptr);
    window_p50.push_back(p.LatencyMs(0.5));
    window_p99.push_back(p.LatencyMs(0.99));
    window_cpu_ms.push_back(1e3 * Ratio(p.cpu_s, static_cast<double>(p.fulfilled)));
    window_cpu_per_wall.push_back(Ratio(p.cpu_s, p.wall_s));
    window_late_p99.push_back(Quantile(p.late_ms, 0.99));
    window_hits.push_back(static_cast<double>(p.after.encode_cache.hits - p.before.encode_cache.hits));
    window_lookups.push_back(
        static_cast<double>(p.after.encode_cache.lookups - p.before.encode_cache.lookups));
    fixed_sent += p.sent;
    fixed_failed += p.failed;
    CheckPhase(rig, Format("fixed_rate_%d", w).c_str(), p, report);
  };

  // Capacity: bisection over the ladder for the highest passing rate. The
  // fixed-rate windows are the probe of rung 0 (judged at the end, by the
  // median window like any probe).
  int lo = 0;
  int hi = kLadderSteps;
  int unconfirmed = -1;     // rung whose first probe failed
  double lo_offered = 0.0;  // arrivals per second actually offered at rung lo
  int window = 0;
  for (int probe = 0; probe < kProbes || window < fixed_windows; ++probe) {
    // Windows due before this slot: slot `probe` of kProbes + 1 ends at
    // window (probe + 1) * fixed_windows / (kProbes + 1).
    while (window < (probe + 1) * fixed_windows / (kProbes + 1)) run_window(window++);
    // Memory at the workload's own load, before any probe overloads the
    // engine on purpose.
    if (probe == 0) peak_rss_mb = PeakRssMb();
    if (!(probe < kProbes && hi - lo > 1)) continue;
    const int mid = unconfirmed >= 0 ? unconfirmed : (lo + hi + 1) / 2;
    const double rate = LadderRate(mid);
    ArrivalStream stream(MakeTraffic(repeat, rate, ProbeIds(probe)), seed + 100 + probe);
    const Phase p = rig.RunOpenLoop(&stream, probe_s, true, nullptr, rate, 0.25);
    const bool pass = ProbePasses(p, rate);
    report->Line(Format("capacity probe %.0f/s%s: %s p99=%.2fms backlog=%lld late_p99=%.2fms",
                        rate, unconfirmed >= 0 ? " (again)" : "", pass ? "pass" : "fail",
                        p.LatencyMs(0.99),
                        static_cast<long long>(p.backlog_at_end), Quantile(p.late_ms, 0.99)));
    CheckPhase(rig, Format("capacity_%d", probe).c_str(), p, report);
    fresh_hit = fresh_hit || p.after.encode_cache.hits != p.before.encode_cache.hits;
    if (pass) {
      lo = mid;
      lo_offered = static_cast<double>(p.sent) / probe_s;
      unconfirmed = -1;
    } else if (unconfirmed < 0) {
      unconfirmed = mid;
    } else {
      hi = mid;
      unconfirmed = -1;
    }
  }
  // Reported as the rate the generator actually offered at the highest
  // passing rung (the rung's nominal rate plus the Poisson count's noise).
  const bool fixed_passes = fixed_failed == 0 && Median(window_p99) <= kSloP99Ms;
  if (lo == 0) lo_offered = static_cast<double>(fixed_sent) / (fixed_windows * kWindowS);
  const double capacity = fixed_passes ? lo_offered : 0.0;

  const double hits = std::accumulate(window_hits.begin(), window_hits.end(), 0.0);
  if (!repeat && (fresh_hit || hits != 0.0)) {
    report->Fail("serve_fresh sent only never-seen scenes, yet the encoder cache hit");
  }
  const double fixed_p50 = *std::min_element(window_p50.begin(), window_p50.end());
  const double fixed_p99 = *std::min_element(window_p99.begin(), window_p99.end());
  const double fixed_cpu_ms = *std::min_element(window_cpu_ms.begin(), window_cpu_ms.end());
  report->Line(Format("fixed rate %.0f/s: best-window p50=%.3fms p99=%.3fms cpu=%.4fms "
                      "(n=%lld, %zu windows) generator late p99 (median window)=%.3fms "
                      "cpu/wall (median window)=%.2f hit_ratio=%.3f",
                      kFixedRate, fixed_p50, fixed_p99, fixed_cpu_ms,
                      static_cast<long long>(fixed_sent), window_p99.size(),
                      Median(window_late_p99), Median(window_cpu_per_wall),
                      Ratio(hits, std::accumulate(window_lookups.begin(),
                                                  window_lookups.end(), 0.0))));
  std::string per_window;
  for (size_t k = 0; k < window_p99.size(); ++k) {
    per_window += Format(" %.2f/%.2f/%.4f", window_p50[k], window_p99[k], window_cpu_ms[k]);
  }
  report->Line("fixed-rate windows p50/p99/cpu_ms:" + per_window);
  report->Line(Format("setup_s samples: %s (pool of %zu SDD windows)", Join(setup_s).c_str(),
                      setup.pool->windows.size()));

  report->Add("latency_p50_ms", fixed_p50, "ms");
  report->Add("latency_p99_ms", fixed_p99, "ms");
  report->Add("capacity_per_s", capacity, "1/s");
  report->Add("cpu_ms_per_item", fixed_cpu_ms, "ms");
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("peak_rss_mb", peak_rss_mb, "MB");
}

void RunSelfTest(Report* report) {
  // 1. The arrival schedule and the scenes are a function of the seed alone.
  for (const bool repeat : {false, true}) {
    ArrivalStream a(MakeTraffic(repeat, kFixedRate, 0), 42);
    ArrivalStream b(MakeTraffic(repeat, kFixedRate, 0), 42);
    ArrivalStream c(MakeTraffic(repeat, kFixedRate, 0), 43);
    bool same = true;
    bool differs = false;
    int64_t repeats = 0;
    constexpr int kArrivals = 200000;
    Arrival x;
    for (int i = 0; i < kArrivals; ++i) {
      x = a.Next();
      const Arrival y = b.Next();
      same = same && x.due_s == y.due_s && x.scene == y.scene && x.repeat == y.repeat;
      differs = differs || x.due_s != c.Next().due_s;
      repeats += x.repeat ? 1 : 0;
    }
    const double rate = kArrivals / x.due_s;
    const double repeat_share = static_cast<double>(repeats) / kArrivals;
    report->attempted += 1;
    report->Line(Format("self-test schedule (%s): identical for one seed: %s, differs across "
                        "seeds: %s, long-run rate %.0f/s, repeat share %.3f",
                        repeat ? "repeat+bursts" : "poisson", same ? "yes" : "NO",
                        differs ? "yes" : "NO", rate, repeat_share));
    if (!same || !differs || std::fabs(rate / kFixedRate - 1.0) > 0.05 ||
        std::fabs(repeat_share - (repeat ? kRepeatFraction : 0.0)) > 0.01) {
      report->failed += 1;
      report->Fail("arrival schedule is not a deterministic function of the seed "
                   "at the configured rate and repeat share");
    }
  }

  const ScenePool pool = BuildScenePool(7, 4, 80);
  {
    ad::data::TrajectorySequence s1, s2, s3;
    MakeScene(pool, 7, 5, &s1);
    MakeScene(pool, 7, 5, &s2);
    MakeScene(pool, 7, 6, &s3);
    const auto bytes = [](const ad::data::TrajectorySequence& s) {
      return std::string(reinterpret_cast<const char*>(s.focal.data()),
                         s.focal.size() * sizeof(s.focal[0]));
    };
    report->attempted += 1;
    if (bytes(s1) != bytes(s2) || bytes(s1) == bytes(s3)) {
      report->failed += 1;
      report->Fail("scene generation is not a deterministic, id-distinct function");
    }
  }

  // 2. Latency counts from the due time: a stalled batch (a sleep fault)
  // must raise the latency of every request queued behind it, although the
  // generator itself never stalls.
  constexpr int kStallMs = 150;
  constexpr double kRate = 2000.0;
  auto model = MakeModel(7);
  ad::serve::FaultSchedule schedule;
  schedule[40] = ad::serve::FaultSpec{ad::serve::FaultKind::kSleep, kStallMs};
  ad::serve::FaultInjectingMethod faulty(model.get(), schedule);
  Rig rig(&faulty, &pool, 7, /*repeat=*/false);
  ArrivalStream stream(MakeTraffic(false, kRate, 0), 7);
  const Phase p = rig.RunOpenLoop(&stream, 0.8, true, nullptr, kRate);
  int64_t behind = 0;
  for (double ms : p.latency_ms) behind += ms > 0.5 * kStallMs ? 1 : 0;
  const double max_ms = Quantile(p.latency_ms, 1.0);
  const double p50_ms = Quantile(p.latency_ms, 0.5);
  const double late_p99 = Quantile(p.late_ms, 0.99);
  CheckPhase(rig, "stall", p, report);
  report->Line(Format("self-test stall %dms: faults=%lld, requests over %dms=%lld, max "
                      "latency %.1fms, p50 %.2fms, generator late p99 %.3fms",
                      kStallMs, static_cast<long long>(faulty.faults_injected()),
                      kStallMs / 2, static_cast<long long>(behind), max_ms, p50_ms,
                      late_p99));
  const int64_t expected_behind = static_cast<int64_t>(0.25 * kRate * kStallMs * 1e-3);
  if (faulty.faults_injected() != 1 || max_ms < 0.8 * kStallMs ||
      behind < expected_behind || p50_ms > 0.5 * kStallMs || late_p99 > 0.25 * kStallMs) {
    report->Fail("the injected stall did not show as latency of the requests queued "
                 "behind it");
  }
}

}  // namespace perfbench
