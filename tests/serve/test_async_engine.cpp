// Tests for the async engine machinery added on top of the PR-4 batching
// semantics: thread-safe non-blocking Submit (no execution on the caller
// thread), lossless error delivery (Predict exceptions reach exactly the
// failed batch's futures; destruction fails — not breaks — pending
// promises), the max_batch_delay_ms deadline flush, multi-producer
// bit-identity, concurrent LBEBM batches on one instance, serving copies,
// and the per-request result-storage audit.

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptraj_method.h"
#include "core/baselines.h"
#include "core/parallel_trainer.h"
#include "data/multi_domain.h"
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

std::vector<std::vector<float>> Collect(std::vector<std::future<Tensor>>* futures) {
  std::vector<std::vector<float>> out;
  for (auto& f : *futures) {
    Tensor t = f.get();
    out.emplace_back(t.data(), t.data() + t.size());
  }
  return out;
}

std::vector<std::vector<float>> Serve(const core::Method& method,
                                      const std::vector<data::TrajectorySequence>& scenes,
                                      const InferenceEngineOptions& options) {
  InferenceEngine engine(&method, options);
  std::vector<std::future<Tensor>> futures;
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  engine.Drain();
  return Collect(&futures);
}

void ExpectAllEqual(const std::vector<std::vector<float>>& a,
                    const std::vector<std::vector<float>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "request " << i;
    EXPECT_EQ(std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)), 0)
        << "request " << i;
  }
}

// --- Instrumented mock method ------------------------------------------------

/// Concurrency accounting, the block/release latch, and the
/// executing-thread record of a MockMethod.
struct MockState {
  std::mutex mu;
  std::condition_variable cv;
  int active = 0;           // Predict calls currently in flight
  int entered = 0;          // Predict calls ever started (monotonic)
  int max_concurrent = 0;
  bool released = true;     // block_until_released waits for this
  std::set<std::thread::id> predict_threads;
};

/// Configurable Method: returns obs_flat (so results are deterministic per
/// scene) or forwards to an `inner` method, can throw on poisoned scenes,
/// block until released, and rendezvous with a concurrent peer.
class MockMethod : public core::Method {
 public:
  explicit MockMethod(std::shared_ptr<MockState> state,
                      const core::Method* inner = nullptr)
      : state_(std::move(state)), inner_(inner) {}

  std::string name() const override { return "mock"; }
  void Train(const data::DomainGeneralizationData&, const core::TrainConfig&) override {}

  Tensor Predict(const data::Batch& batch, Rng* rng, bool sample) const override {
    {
      std::unique_lock<std::mutex> lock(state_->mu);
      state_->predict_threads.insert(std::this_thread::get_id());
      ++state_->active;
      ++state_->entered;
      state_->max_concurrent = std::max(state_->max_concurrent, state_->active);
      state_->cv.notify_all();
      if (wait_for_peer_) {
        // Rendezvous on the monotonic entered-count: the first call cannot
        // leave Predict until a second one has started, so success proves
        // two calls overlapped in time. Bounded wait: if batches are
        // serialized the first call times out, the second enters alone, and
        // the max_concurrent assertion reports the serialization.
        state_->cv.wait_for(lock, std::chrono::seconds(2),
                            [this] { return state_->entered >= 2; });
      }
      if (block_until_released_) {
        state_->cv.wait(lock, [this] { return state_->released; });
      }
      --state_->active;
    }
    if (inner_ != nullptr) return inner_->Predict(batch, rng, sample);
    const float* row = batch.obs_flat.data();
    const int64_t n = batch.obs_flat.size();
    for (int64_t i = 0; i < n; ++i) {
      if (row[i] > 1e5f || row[i] < -1e5f) {
        throw std::runtime_error("mock Predict failure: poisoned scene");
      }
    }
    return batch.obs_flat;
  }

  void set_wait_for_peer(bool v) { wait_for_peer_ = v; }
  void set_block_until_released(bool v) { block_until_released_ = v; }

 private:
  std::shared_ptr<MockState> state_;
  const core::Method* inner_;
  bool wait_for_peer_ = false;
  bool block_until_released_ = false;
};

/// A scene whose first observed displacement is absurd; MockMethod throws on
/// any batch containing one.
data::TrajectorySequence PoisonedScene() {
  data::TrajectorySequence s = Scenes(1)[0];
  s.focal[1].x += 1e6f;
  return s;
}

// --- Error delivery ----------------------------------------------------------

TEST(AsyncEngineErrorTest, PredictExceptionReachesExactlyTheFailedBatch) {
  auto state = std::make_shared<MockState>();
  MockMethod method(state);
  auto options = Options(/*batch_size=*/4);

  InferenceEngine engine(&method, options);
  std::vector<std::future<Tensor>> futures;
  // Batch 0: all poisoned. Batch 1: clean.
  data::TrajectorySequence poison = PoisonedScene();
  auto clean = Scenes(8);
  for (int i = 0; i < 4; ++i) futures.push_back(engine.Submit(poison));
  for (int i = 0; i < 4; ++i) futures.push_back(engine.Submit(clean[i]));
  engine.Drain();

  // The failed batch's futures rethrow the ORIGINAL exception — never a
  // context-free broken_promise.
  for (int i = 0; i < 4; ++i) {
    try {
      futures[i].get();
      FAIL() << "future " << i << " should have thrown";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("poisoned scene"), std::string::npos);
    } catch (const std::future_error&) {
      FAIL() << "future " << i << " died with broken_promise";
    }
  }
  // The later batch is unaffected.
  for (int i = 4; i < 8; ++i) {
    Tensor t = futures[i].get();
    EXPECT_EQ(t.shape()[0], 1);
  }
  auto stats = engine.stats();
  EXPECT_EQ(stats.batches, 2);
  EXPECT_EQ(stats.failed_batches, 1);

  // The failed batch's slots are retired: the engine keeps serving.
  std::vector<std::future<Tensor>> more;
  for (int i = 0; i < 4; ++i) more.push_back(engine.Submit(clean[4 + i % 4]));
  engine.Drain();
  for (auto& f : more) EXPECT_EQ(f.get().shape()[0], 1);
  EXPECT_EQ(engine.stats().batches, 3);
}

TEST(AsyncEngineErrorTest, DestructionFailsPendingFuturesDescriptively) {
  auto state = std::make_shared<MockState>();
  auto scenes = Scenes(2);
  std::future<Tensor> orphan;
  {
    MockMethod method(state);
    InferenceEngine engine(&method, Options(/*batch_size=*/8));
    orphan = engine.Submit(scenes[0]);  // underfull batch, never drained
  }
  try {
    orphan.get();
    FAIL() << "future should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("destroyed"), std::string::npos);
  } catch (const std::future_error&) {
    FAIL() << "destruction must fail promises, not break them";
  }
}

TEST(AsyncEngineErrorTest, LateExplicitIdAfterDeadlineFlushRejectedViaFuture) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto options = Options(/*batch_size=*/2);
  options.max_batch_delay_ms = 5;
  InferenceEngine engine(&method, options);
  auto scenes = Scenes(2);

  // A lone request at slot 0; the deadline flush pads batch 0 and thereby
  // consumes slot 1 on a timer the producer cannot observe.
  std::future<Tensor> f0 = engine.Submit(0, scenes[0]);
  ASSERT_EQ(f0.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  // The id that lost the race is rejected through its future — an
  // operational error, not the process abort the deadline-less engine
  // reserves for caller bugs.
  std::future<Tensor> f1 = engine.Submit(1, scenes[1]);
  try {
    f1.get();
    FAIL() << "late id should have been rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
  EXPECT_EQ(engine.stats().rejected_requests, 1);

  // The engine keeps serving: implicit submissions continue at the next
  // batch boundary.
  std::future<Tensor> f2 = engine.Submit(scenes[1]);
  engine.Drain();
  EXPECT_EQ(f2.get().shape()[0], 1);
}

TEST(AsyncEngineErrorTest, PendingIdStrandedByDeadlineFlushRejectedViaFuture) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto options = Options(/*batch_size=*/4);
  options.max_batch_delay_ms = 10;
  InferenceEngine engine(&method, options);
  auto scenes = Scenes(2);

  // Slots 0 and 2 arrive; slot 1 never does. The deadline flush pads batch 0
  // from the contiguous head (slot 0 alone) and retires slots [0, 4) — the
  // request already pending at slot 2 can then never execute in its batch
  // and must be rejected, not left hanging (nor allowed to anchor future
  // deadlines at its stale enqueue time).
  std::future<Tensor> f0 = engine.Submit(0, scenes[0]);
  std::future<Tensor> f2 = engine.Submit(2, scenes[1]);
  ASSERT_EQ(f0.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  ASSERT_EQ(f2.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_EQ(f0.get().shape()[0], 1);
  try {
    f2.get();
    FAIL() << "stranded request should have been rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("stranded"), std::string::npos);
  }
  EXPECT_EQ(engine.stats().rejected_requests, 1);

  // No orphan left behind: Drain must not trip its completeness check, and
  // the engine keeps serving.
  std::future<Tensor> f3 = engine.Submit(scenes[0]);
  engine.Drain();
  EXPECT_EQ(f3.get().shape()[0], 1);
}

// --- Async dispatch ----------------------------------------------------------

TEST(AsyncEngineTest, SubmitNeverExecutesOnTheCallerThread) {
  auto state = std::make_shared<MockState>();
  MockMethod method(state);
  method.set_block_until_released(true);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->released = false;
  }
  auto options = Options(/*batch_size=*/4);
  options.max_buffered_batches = 1;  // a full batch dispatches immediately

  InferenceEngine engine(&method, options);
  auto scenes = Scenes(4);
  std::vector<std::future<Tensor>> futures;
  // With Predict blocked, a blocking Submit (the PR-4 behaviour) would hang
  // here; the async engine returns at once.
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  EXPECT_EQ(futures[0].wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->released = true;
  }
  state->cv.notify_all();
  engine.Drain();
  for (auto& f : futures) EXPECT_EQ(f.get().shape()[0], 1);

  std::lock_guard<std::mutex> lock(state->mu);
  EXPECT_EQ(state->predict_threads.count(std::this_thread::get_id()), 0u)
      << "Predict ran on the submitting thread";
}

TEST(AsyncEngineTest, DeadlineFlushServesALoneRequestWithoutDrain) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto scenes = Scenes(1);
  auto options = Options(/*batch_size=*/8);
  options.max_batch_delay_ms = 10;

  InferenceEngine engine(&method, options);
  std::future<Tensor> future = engine.Submit(scenes[0]);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "deadline flush never fired";
  Tensor served = future.get();
  EXPECT_GE(engine.stats().deadline_flushes, 1);

  // Byte-identical to a Drain flush at the same point: the deadline decides
  // the same batch composition (scene cycled to the fixed width, batch 0
  // noise stream).
  auto drained = Serve(method, scenes, Options(/*batch_size=*/8));
  ASSERT_EQ(static_cast<size_t>(served.size()), drained[0].size());
  EXPECT_EQ(std::memcmp(served.data(), drained[0].data(),
                        drained[0].size() * sizeof(float)),
            0);
}

TEST(AsyncEngineTest, MultiProducerBitIdenticalAcrossProducersAndWorkers) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  const size_t n = 40;  // 5 batches of 8
  auto scenes = Scenes(n);
  auto options = Options(/*batch_size=*/8);
  auto reference = Serve(method, scenes, options);

  for (int workers : {1, 2, 4}) {
    parallel::ConfigureTrainWorkers(workers);
    for (int producers : {1, 4}) {
      InferenceEngine engine(&method, options);
      std::vector<std::future<Tensor>> futures(n);
      std::vector<std::thread> threads;
      for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
          // Explicit slot ids make the slot->batch mapping independent of
          // producer interleaving.
          for (size_t i = static_cast<size_t>(p); i < n;
               i += static_cast<size_t>(producers)) {
            futures[i] = engine.Submit(static_cast<uint64_t>(i), scenes[i]);
            if (i % 7 == 0) (void)engine.stats();  // exercise snapshot reads
          }
        });
      }
      for (auto& t : threads) t.join();
      engine.Drain();
      auto got = Collect(&futures);
      ExpectAllEqual(reference, got);
      EXPECT_EQ(engine.stats().requests, static_cast<int64_t>(n));
    }
  }
  parallel::ConfigureTrainWorkers(1);
}

// --- Serving copies and concurrent LBEBM -------------------------------------

TEST(CloneForServingTest, ClonesMatchOriginalAndAreIndependentStorage) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  std::unique_ptr<core::Method> clone = method.CloneForServing();
  ASSERT_NE(clone, nullptr);
  auto* vanilla_clone = dynamic_cast<core::VanillaMethod*>(clone.get());
  ASSERT_NE(vanilla_clone, nullptr);
  EXPECT_EQ(vanilla_clone->backbone().ParameterSnapshot(),
            method.backbone().ParameterSnapshot());
  // Distinct storage: perturbing the clone leaves the original untouched.
  auto before = method.backbone().ParameterSnapshot();
  vanilla_clone->backbone().Parameters()[0].data()[0] += 1.0f;
  EXPECT_EQ(method.backbone().ParameterSnapshot(), before);
  EXPECT_NE(vanilla_clone->backbone().ParameterSnapshot(), before);
}

TEST(AsyncEngineTest, LbebmServedConcurrentlyOnOneInstanceBitIdenticalToSerial) {
  core::VanillaMethod method(models::BackboneKind::kLbebm, TinyBackbone(), 5);
  ASSERT_TRUE(method.reentrant_predict());
  auto scenes = Scenes(10);  // 2 full batches of 4 + padded tail
  auto options = Options(/*batch_size=*/4);

  // Serial reference: a fault injector with an empty schedule reports
  // itself non-reentrant, so the engine runs its batches one at a time.
  FaultInjectingMethod serial(&method, FaultSchedule());
  ASSERT_FALSE(serial.reentrant_predict());
  const auto reference = Serve(serial, scenes, options);

  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("train workers " + std::to_string(workers));
    parallel::ConfigureTrainWorkers(workers);
    ExpectAllEqual(reference, Serve(method, scenes, options));
  }

  // The two full batches of one group overlap on the one LBEBM instance:
  // the probe's first Predict waits for the second to start.
  parallel::ConfigureTrainWorkers(2);
  auto state = std::make_shared<MockState>();
  MockMethod probe(state, &method);
  probe.set_wait_for_peer(true);
  ExpectAllEqual(reference, Serve(probe, scenes, options));
  parallel::ConfigureTrainWorkers(1);
  std::lock_guard<std::mutex> lock(state->mu);
  EXPECT_GE(state->max_concurrent, 2) << "LBEBM batches were serialized";
}

// --- Result storage audit ----------------------------------------------------

TEST(AsyncEngineTest, PerRequestResultsAreIndependentStorage) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto scenes = Scenes(8);
  InferenceEngine engine(&method, Options(/*batch_size=*/8));
  std::vector<std::future<Tensor>> futures;
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  engine.Drain();
  data::SequenceConfig seq_cfg;
  for (auto& f : futures) {
    Tensor t = f.get();
    // The tensor a caller may retain holds exactly its own row: ops::Slice
    // copies into fresh storage (TensorImpl owns its buffer; there are no
    // views) and under no-grad no graph edge links back to the [B, cols]
    // batch output, so one retained future cannot pin the batch buffer.
    ASSERT_EQ(t.dim(), 2);
    EXPECT_EQ(t.shape()[0], 1);
    EXPECT_EQ(t.size(), static_cast<int64_t>(seq_cfg.pred_len) * 2);
    EXPECT_FALSE(t.needs_grad());
  }
}

}  // namespace
}  // namespace serve
}  // namespace adaptraj
