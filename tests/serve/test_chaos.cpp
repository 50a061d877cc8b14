// Chaos suite: the engine under injected faults and lifecycle races. The
// invariants under test are the robustness acceptance bar — non-faulted
// requests stay byte-identical to a fault-free run, faulted/expired/stopped
// requests fail with the right typed error, and no future is ever broken —
// under concurrent producers, concurrent batches on one instance, and
// destruction races. CI
// loops this binary under TSan and ASan (the stress-serve job).

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "data/multi_domain.h"
#include "serve/errors.h"
#include "serve/fault_injection.h"
#include "serve/inference_engine.h"
#include "tensor/parallel.h"

namespace adaptraj {
namespace serve {
namespace {

models::BackboneConfig TinyBackbone() {
  models::BackboneConfig c;
  c.embed_dim = 8;
  c.hidden_dim = 16;
  c.social_dim = 16;
  c.latent_dim = 4;
  c.langevin_steps = 2;
  return c;
}

const data::DomainGeneralizationData& TestData() {
  static const data::DomainGeneralizationData* dgd = [] {
    data::CorpusConfig cfg;
    cfg.num_scenes = 2;
    cfg.steps_per_scene = 45;
    cfg.seed = 909;
    return new data::DomainGeneralizationData(data::BuildDomainGeneralizationData(
        {sim::Domain::kEthUcy, sim::Domain::kLcas}, sim::Domain::kSdd, cfg));
  }();
  return *dgd;
}

std::vector<data::TrajectorySequence> Scenes(size_t n) {
  const auto& test = TestData().target.test.sequences;
  std::vector<data::TrajectorySequence> scenes;
  for (size_t i = 0; i < n; ++i) scenes.push_back(test[i % test.size()]);
  return scenes;
}

InferenceEngineOptions Options(int batch_size, uint64_t seed = 42) {
  InferenceEngineOptions o;
  o.batch_size = batch_size;
  o.sample = true;
  o.seed = seed;
  return o;
}

std::vector<std::vector<float>> FaultFreeReference(
    const core::Method& method, const std::vector<data::TrajectorySequence>& scenes,
    const InferenceEngineOptions& options) {
  InferenceEngine engine(&method, options);
  std::vector<std::future<Tensor>> futures;
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  engine.Drain();
  std::vector<std::vector<float>> out;
  for (auto& f : futures) {
    Tensor t = f.get();
    out.emplace_back(t.data(), t.data() + t.size());
  }
  return out;
}

/// Submits scenes[0, n) with explicit slot ids from `producers` threads
/// (thread p takes i = p, p+P, ...), then joins — the chaos-side twin of
/// eval::SubmitScenesConcurrently without the eval dependency.
void SubmitConcurrently(InferenceEngine* engine,
                        const std::vector<data::TrajectorySequence>& scenes,
                        int producers, std::vector<std::future<Tensor>>* futures) {
  futures->resize(scenes.size());
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (size_t i = static_cast<size_t>(p); i < scenes.size();
           i += static_cast<size_t>(producers)) {
        (*futures)[i] = engine->Submit(static_cast<uint64_t>(i), scenes[i]);
      }
    });
  }
  for (auto& t : threads) t.join();
}

/// Blockable method for lifecycle races (same shape as test_slo's gate).
struct GateState {
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  bool released = true;
};

class GatedMethod : public core::Method {
 public:
  explicit GatedMethod(std::shared_ptr<GateState> state) : state_(std::move(state)) {}
  std::string name() const override { return "gated"; }
  void Train(const data::DomainGeneralizationData&, const core::TrainConfig&) override {}
  bool reentrant_predict() const override { return true; }
  std::unique_ptr<core::Method> CloneForServing() const override { return nullptr; }
  Tensor Predict(const data::Batch& batch, Rng*, bool) const override {
    std::unique_lock<std::mutex> lock(state_->mu);
    ++state_->entered;
    state_->cv.notify_all();
    state_->cv.wait(lock, [this] { return state_->released; });
    return batch.obs_flat;
  }

 private:
  std::shared_ptr<GateState> state_;
};

// --- Seeded schedules --------------------------------------------------------

TEST(FaultScheduleTest, SeededScheduleIsDeterministicAndRateBounded) {
  const auto a = MakeSeededFaultSchedule(7, 1000, 0.1, FaultKind::kThrow);
  const auto b = MakeSeededFaultSchedule(7, 1000, 0.1, FaultKind::kThrow);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& entry : a) EXPECT_EQ(b.count(entry.first), 1u);
  // ~10% of 1000 calls fault; a different seed picks different calls.
  EXPECT_GT(a.size(), 50u);
  EXPECT_LT(a.size(), 200u);
  const auto c = MakeSeededFaultSchedule(8, 1000, 0.1, FaultKind::kThrow);
  std::vector<int64_t> a_calls, c_calls;
  for (const auto& entry : a) a_calls.push_back(entry.first);
  for (const auto& entry : c) c_calls.push_back(entry.first);
  EXPECT_NE(a_calls, c_calls) << "different seeds picked identical fault calls";
  EXPECT_TRUE(MakeSeededFaultSchedule(7, 1000, 0.0, FaultKind::kThrow).empty());
  EXPECT_EQ(MakeSeededFaultSchedule(7, 1000, 1.0, FaultKind::kThrow).size(), 1000u);
}

// --- Throw faults ------------------------------------------------------------

TEST(ChaosTest, ThrowFaultsUnderFourProducersLeaveNonFaultedBytesIntact) {
  core::VanillaMethod inner(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  const size_t n = 40;
  const int batch = 4;  // 10 batches
  auto scenes = Scenes(n);
  auto options = Options(batch);
  const auto reference = FaultFreeReference(inner, scenes, options);

  // force_serialized (the default) makes the wrapper non-reentrant, so the
  // engine serializes batches and call index == batch index: batches 2 and 5 fault, deterministically.
  FaultSchedule schedule;
  schedule.emplace(2, FaultSpec{FaultKind::kThrow, 0});
  schedule.emplace(5, FaultSpec{FaultKind::kThrow, 0});
  FaultInjectingMethod chaotic(&inner, schedule);

  InferenceEngine engine(&chaotic, options);
  std::vector<std::future<Tensor>> futures;
  SubmitConcurrently(&engine, scenes, /*producers=*/4, &futures);
  engine.Drain();

  for (size_t i = 0; i < n; ++i) {
    const size_t b = i / static_cast<size_t>(batch);
    if (b == 2 || b == 5) {
      try {
        futures[i].get();
        FAIL() << "request " << i << " in faulted batch " << b << " returned a value";
      } catch (const FaultInjectedError& e) {
        EXPECT_NE(std::string(e.what()).find("injected fault"), std::string::npos);
      } catch (const std::future_error&) {
        FAIL() << "request " << i << " saw a broken promise instead of the fault";
      }
    } else {
      Tensor t = futures[i].get();
      ASSERT_EQ(static_cast<size_t>(t.size()), reference[i].size()) << "request " << i;
      EXPECT_EQ(std::memcmp(t.data(), reference[i].data(),
                            reference[i].size() * sizeof(float)),
                0)
          << "non-faulted request " << i << " diverged from the fault-free run";
    }
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.batches, 10);
  EXPECT_EQ(stats.failed_batches, 2);
  EXPECT_EQ(chaotic.faults_injected(), 2);
}

// --- Sleep faults (wedged batch) ---------------------------------------------

TEST(ChaosTest, SleepFaultTripsWatchdogWhileQueuedDeadlinesStillExpire) {
  core::VanillaMethod inner(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  FaultSchedule schedule;
  schedule.emplace(0, FaultSpec{FaultKind::kSleep, 300});  // batch 0 wedges
  FaultInjectingMethod chaotic(&inner, schedule);

  auto options = Options(/*batch_size=*/2);
  options.max_buffered_batches = 1;
  options.stuck_batch_warn_ms = 30;
  std::atomic<int> stuck_reports{0};
  options.on_stuck_batch = [&](int64_t) { ++stuck_reports; };

  InferenceEngine engine(&chaotic, options);
  auto scenes = Scenes(3);
  std::vector<std::future<Tensor>> wedged;
  wedged.push_back(engine.Submit(scenes[0]));
  wedged.push_back(engine.Submit(scenes[1]));
  // Fence: wait until the wedged batch is actually in flight, so the
  // deadlined request below is queued BEHIND it, not into it.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.stats().inflight_batches == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(engine.stats().inflight_batches, 0) << "wedged batch never started";

  SubmitOptions deadline;
  deadline.timeout_ms = 40;
  std::future<Tensor> doomed = engine.Submit(scenes[2], deadline);
  // The dispatcher is asleep inside the faulted batch for ~300ms; only the
  // watchdog can honor this 40ms deadline.
  ASSERT_EQ(doomed.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "deadline behind the wedged batch never expired";
  EXPECT_THROW(doomed.get(), DeadlineExceededError);

  // The wedged batch itself completes normally (sleep, then predict).
  for (auto& f : wedged) EXPECT_EQ(f.get().shape()[0], 1);
  engine.Drain();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.expired_requests, 1);
  EXPECT_GE(stats.stuck_batches, 1);
  EXPECT_GE(stuck_reports.load(), 1);
  EXPECT_EQ(stats.failed_batches, 0);
}

// --- NaN faults --------------------------------------------------------------

TEST(ChaosTest, NaNFaultPoisonsOnlyItsOwnBatch) {
  core::VanillaMethod inner(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  const size_t n = 12;
  const int batch = 4;  // 3 batches; batch 1 NaNs
  auto scenes = Scenes(n);
  auto options = Options(batch);
  const auto reference = FaultFreeReference(inner, scenes, options);

  FaultSchedule schedule;
  schedule.emplace(1, FaultSpec{FaultKind::kNaN, 0});
  FaultInjectingMethod chaotic(&inner, schedule);

  InferenceEngine engine(&chaotic, options);
  std::vector<std::future<Tensor>> futures;
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  engine.Drain();

  for (size_t i = 0; i < n; ++i) {
    Tensor t = futures[i].get();  // a VALUE fault: futures still deliver
    const size_t b = i / static_cast<size_t>(batch);
    if (b == 1) {
      for (int64_t k = 0; k < t.size(); ++k) {
        ASSERT_TRUE(std::isnan(t.data()[k])) << "request " << i << " element " << k;
      }
    } else {
      // The NaN fault forwards to the real Predict first, so the rng stream
      // advances exactly as fault-free and neighbouring batches keep their
      // bytes.
      EXPECT_EQ(std::memcmp(t.data(), reference[i].data(),
                            reference[i].size() * sizeof(float)),
                0)
          << "batch " << b << " was poisoned by batch 1's NaN fault";
    }
  }
  EXPECT_EQ(engine.stats().failed_batches, 0);
}

// --- A fault on a concurrently served instance ------------------------------

TEST(ChaosTest, FaultOnASharedInstanceStaysInItsBatch) {
  parallel::ConfigureTrainWorkers(2);
  core::VanillaMethod inner(models::BackboneKind::kLbebm, TinyBackbone(), 5);
  // force_serialized=false: the wrapper reports the inner method's
  // reentrancy, so the engine runs the 6 batches of one group concurrently
  // on the one LBEBM instance and the batch that draws call index 2 throws.
  FaultSchedule schedule;
  schedule.emplace(2, FaultSpec{FaultKind::kThrow, 0});  // 3rd Predict call, mid-group
  FaultInjectingMethod chaotic(&inner, schedule, /*force_serialized=*/false);
  ASSERT_TRUE(chaotic.reentrant_predict());

  const size_t n = 12;
  const int batch = 2;  // 6 batches in one group
  auto scenes = Scenes(n);
  auto options = Options(batch);
  options.max_buffered_batches = 6;
  const auto reference = FaultFreeReference(inner, scenes, options);

  InferenceEngine engine(&chaotic, options);
  std::vector<std::future<Tensor>> futures;
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  engine.Drain();

  // Exactly one batch faulted (which one depends on the group's internal
  // race for call indices — irrelevant: the invariant is containment), and
  // every other row matches a fault-free run bit for bit.
  std::vector<size_t> failed_requests;
  for (size_t i = 0; i < n; ++i) {
    try {
      Tensor t = futures[i].get();
      ASSERT_EQ(t.size(), static_cast<int64_t>(reference[i].size()));
      EXPECT_EQ(std::memcmp(t.data(), reference[i].data(),
                            reference[i].size() * sizeof(float)),
                0)
          << "request " << i;
    } catch (const FaultInjectedError&) {
      failed_requests.push_back(i);
    } catch (const std::future_error&) {
      FAIL() << "request " << i << " saw a broken promise";
    }
  }
  ASSERT_EQ(failed_requests.size(), static_cast<size_t>(batch))
      << "the fault leaked beyond one batch";
  EXPECT_EQ(failed_requests[0] / static_cast<size_t>(batch),
            failed_requests[1] / static_cast<size_t>(batch))
      << "failed requests span two batches";
  EXPECT_EQ(chaotic.faults_injected(), 1);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.batches, 6);
  EXPECT_EQ(stats.failed_batches, 1);
  parallel::ConfigureTrainWorkers(1);
}

// --- Lifecycle races ---------------------------------------------------------

TEST(ChaosTest, DestroyDuringDrainWakesTheDrainerWithTypedError) {
  auto state = std::make_shared<GateState>();
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->released = false;
  }
  auto method = std::make_unique<GatedMethod>(state);
  auto options = Options(/*batch_size=*/2);
  options.max_buffered_batches = 1;
  auto engine = std::make_unique<InferenceEngine>(method.get(), options);

  auto scenes = Scenes(2);
  std::vector<std::future<Tensor>> futures;
  for (const auto& s : scenes) futures.push_back(engine->Submit(s));
  {
    std::unique_lock<std::mutex> lock(state->mu);
    ASSERT_TRUE(state->cv.wait_for(lock, std::chrono::seconds(10),
                                   [&] { return state->entered >= 1; }));
  }

  std::atomic<bool> drain_threw_typed{false};
  // Capture the raw pointer up front: the drainer must not touch the
  // unique_ptr object itself, which the destroyer thread reset()s. The
  // engine's own contract keeps the raw pointer valid until Drain returns
  // (the destructor waits for blocked callers to leave before freeing).
  InferenceEngine* raw = engine.get();
  std::thread drainer([&, raw] {
    try {
      raw->Drain();
    } catch (const EngineStoppedError&) {
      drain_threw_typed.store(true);
    } catch (...) {
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));  // drainer parks

  std::thread destroyer([&] { engine.reset(); });
  // The destructor must first wake the drainer (Shutdown) and wait for it to
  // leave, then wait for the in-flight batch — which we still hold wedged.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->released = true;
  }
  state->cv.notify_all();
  drainer.join();
  destroyer.join();
  EXPECT_TRUE(drain_threw_typed.load())
      << "Drain was not woken with EngineStoppedError by destruction";
  // The in-flight batch still delivered its results through the teardown.
  for (auto& f : futures) EXPECT_EQ(f.get().shape()[0], 1);
}

TEST(ChaosTest, SubmitRacingDestructionNeverBreaksAFuture) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto scenes = Scenes(8);
  for (int round = 0; round < 10; ++round) {
    auto options = Options(/*batch_size=*/2, /*seed=*/42 + static_cast<uint64_t>(round));
    options.max_buffered_batches = 1;
    std::vector<std::vector<std::future<Tensor>>> per_thread(4);
    {
      InferenceEngine engine(&method, options);
      std::vector<std::thread> producers;
      for (int p = 0; p < 4; ++p) {
        producers.emplace_back([&, p] {
          for (int i = 0; i < 8; ++i) {
            // Implicit ids: producers race each other AND the shutdown below.
            per_thread[static_cast<size_t>(p)].push_back(
                engine.Submit(scenes[static_cast<size_t>(i)]));
          }
        });
      }
      // Stagger the stop across rounds to move the race window around.
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
      engine.Shutdown();
      for (auto& t : producers) t.join();
      // Destructor runs here, racing nothing: producers are done.
    }
    for (auto& futures : per_thread) {
      for (auto& f : futures) {
        ASSERT_TRUE(f.valid());
        try {
          Tensor t = f.get();
          EXPECT_EQ(t.shape()[0], 1);  // served before the stop landed
        } catch (const EngineStoppedError&) {
          // stopped in the queue, or rejected at Submit — both typed.
        } catch (const std::future_error&) {
          FAIL() << "round " << round << ": broken promise during shutdown race";
        }
      }
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace adaptraj
