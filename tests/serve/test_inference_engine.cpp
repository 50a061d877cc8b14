// Tests for serve::InferenceEngine: batching semantics (fixed width, padded
// tails, deterministic request->slot order), correctness against the
// reference batched Predict, byte-identical results across worker counts and
// submission interleavings (including explicit out-of-order ids), and
// malformed-request rejection. These tests predate the async rewrite and pin
// the synchronous semantics the async engine must reproduce bit-for-bit
// (same slot->batch mapping, per-batch noise streams, padded-tail
// composition). Async-specific behaviour lives in test_async_engine.cpp.

#include <cstring>
#include <future>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptraj_method.h"
#include "core/baselines.h"
#include "core/parallel_trainer.h"
#include "data/multi_domain.h"
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
    cfg.seed = 606;
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

/// Runs every scene through an engine and returns the flattened per-request
/// predictions in submission order.
std::vector<std::vector<float>> Serve(const core::Method& method,
                                      const std::vector<data::TrajectorySequence>& scenes,
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

void ExpectAllEqual(const std::vector<std::vector<float>>& a,
                    const std::vector<std::vector<float>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "request " << i;
    EXPECT_EQ(std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)), 0)
        << "request " << i;
  }
}

// --- Correctness against the reference batched Predict ----------------------

TEST(InferenceEngineTest, FullBatchMatchesDirectPredict) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto scenes = Scenes(8);
  auto options = Options(/*batch_size=*/8);
  auto served = Serve(method, scenes, options);

  // Reference: one batch at slot order 0..7 with the batch-0 noise stream.
  data::SequenceConfig seq_cfg;
  std::vector<const data::TrajectorySequence*> ptrs;
  for (const auto& s : scenes) ptrs.push_back(&s);
  data::Batch batch = data::MakeBatch(ptrs, seq_cfg);
  Rng rng(core::TaskSeed(options.seed, 0));
  Tensor pred = method.Predict(batch, &rng, /*sample=*/true);
  const int64_t cols = pred.size(-1);
  ASSERT_EQ(served.size(), 8u);
  for (int64_t r = 0; r < 8; ++r) {
    ASSERT_EQ(static_cast<int64_t>(served[r].size()), cols);
    EXPECT_EQ(std::memcmp(served[r].data(), pred.data() + r * cols,
                          cols * sizeof(float)),
              0)
        << "row " << r;
  }
}

TEST(InferenceEngineTest, PartialTailIsPaddedAndMatchesPaddedReference) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto scenes = Scenes(3);
  auto options = Options(/*batch_size=*/8);
  InferenceEngine engine(&method, options);
  std::vector<std::future<Tensor>> futures;
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  EXPECT_EQ(engine.stats().batches, 0);  // nothing full yet
  engine.Drain();
  EXPECT_EQ(engine.stats().batches, 1);
  EXPECT_EQ(engine.stats().padded_rows, 5);

  // Reference: the same 3 scenes cycled up to width 8.
  data::SequenceConfig seq_cfg;
  std::vector<const data::TrajectorySequence*> ptrs;
  for (int i = 0; i < 8; ++i) ptrs.push_back(&scenes[i % scenes.size()]);
  data::Batch batch = data::MakeBatch(ptrs, seq_cfg);
  Rng rng(core::TaskSeed(options.seed, 0));
  Tensor pred = method.Predict(batch, &rng, /*sample=*/true);
  const int64_t cols = pred.size(-1);
  for (size_t r = 0; r < futures.size(); ++r) {
    Tensor t = futures[r].get();
    EXPECT_EQ(std::memcmp(t.data(), pred.data() + static_cast<int64_t>(r) * cols,
                          cols * sizeof(float)),
              0)
        << "row " << r;
  }
}

TEST(InferenceEngineTest, SubmitAfterDrainStartsAFreshBatch) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto options = Options(/*batch_size=*/4);
  InferenceEngine engine(&method, options);
  auto scenes = Scenes(6);
  for (int i = 0; i < 2; ++i) engine.Submit(scenes[i]);
  engine.Drain();  // padded tail consumes batch 0's whole slot range
  std::vector<std::future<Tensor>> futures;
  for (int i = 2; i < 6; ++i) futures.push_back(engine.Submit(scenes[i]));
  engine.Drain();
  EXPECT_EQ(engine.stats().batches, 2);
  EXPECT_EQ(engine.stats().requests, 6);
  for (auto& f : futures) {
    Tensor t = f.get();
    EXPECT_EQ(t.shape()[0], 1);
  }
}

// --- Determinism -------------------------------------------------------------

TEST(InferenceEngineTest, ResultsByteIdenticalAcrossWorkerCounts) {
  core::AdapTrajConfig acfg;
  acfg.feature_dim = 8;
  acfg.fused_dim = 8;
  acfg.num_source_domains = 2;
  core::AdapTrajMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), acfg, 5);
  auto scenes = Scenes(20);  // 2 full batches of 8 + padded tail of 4
  auto options = Options(/*batch_size=*/8);

  parallel::ConfigureTrainWorkers(1);
  auto w1 = Serve(method, scenes, options);
  parallel::ConfigureTrainWorkers(2);
  auto w2 = Serve(method, scenes, options);
  parallel::ConfigureTrainWorkers(4);
  auto w4 = Serve(method, scenes, options);
  parallel::ConfigureTrainWorkers(1);

  ExpectAllEqual(w1, w2);
  ExpectAllEqual(w1, w4);
}

TEST(InferenceEngineTest, ResultsIndependentOfDrainInterleaving) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto scenes = Scenes(16);
  auto options = Options(/*batch_size=*/8);

  auto all_at_once = Serve(method, scenes, options);

  // Same stream under different dispatch cadences: eager (every full batch
  // executes as soon as it completes) vs lazy (everything waits for Drain).
  // The slot->batch mapping is identical, so the bytes must be too.
  auto opts_eager = options;
  opts_eager.max_buffered_batches = 1;  // dispatch every full batch eagerly
  auto eager = Serve(method, scenes, opts_eager);
  auto opts_lazy = options;
  opts_lazy.max_buffered_batches = 8;  // everything waits for the drain
  auto lazy = Serve(method, scenes, opts_lazy);

  ExpectAllEqual(all_at_once, eager);
  ExpectAllEqual(all_at_once, lazy);
}

TEST(InferenceEngineTest, OutOfOrderArrivalByteIdenticalToInOrder) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto scenes = Scenes(16);
  auto options = Options(/*batch_size=*/8);

  auto in_order = Serve(method, scenes, options);

  // Reversed wire order with explicit slot ids: the engine must hold every
  // batch until its slots are complete, then compute exactly the same thing.
  InferenceEngine engine(&method, options);
  std::vector<std::future<Tensor>> futures(scenes.size());
  for (size_t i = scenes.size(); i-- > 0;) {
    futures[i] = engine.Submit(static_cast<uint64_t>(i), scenes[i]);
  }
  engine.Drain();
  std::vector<std::vector<float>> reordered;
  for (auto& f : futures) {
    Tensor t = f.get();
    reordered.emplace_back(t.data(), t.data() + t.size());
  }
  ExpectAllEqual(in_order, reordered);
}

TEST(InferenceEngineTest, RepeatRunsAreByteIdentical) {
  core::VanillaMethod method(models::BackboneKind::kPecnet, TinyBackbone(), 5);
  auto scenes = Scenes(10);
  auto options = Options(/*batch_size=*/4);
  ExpectAllEqual(Serve(method, scenes, options), Serve(method, scenes, options));
}

// --- Malformed requests -------------------------------------------------------

TEST(InferenceEngineTest, MalformedRequestsFailTypedWithoutHurtingBatchMates) {
  // One bad and one good scene sent to one batch: the bad request fails
  // through its future with InvalidRequestError (never reaching MakeBatch,
  // whose length check would abort the dispatcher), the good one is served
  // bit-identically to a solo run, and the engine keeps serving.
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto scenes = Scenes(2);
  const auto solo = Serve(method, {scenes[0]}, Options(/*batch_size=*/2));

  data::TrajectorySequence short_focal = scenes[1];
  short_focal.focal.pop_back();
  data::TrajectorySequence long_neighbor = scenes[1];
  long_neighbor.neighbors.push_back(long_neighbor.focal);  // obs_len + pred_len points
  data::TrajectorySequence nan_focal = scenes[1];
  nan_focal.focal[1].y = std::numeric_limits<float>::quiet_NaN();
  data::TrajectorySequence inf_neighbor = scenes[1];
  ASSERT_FALSE(inf_neighbor.neighbors.empty());
  inf_neighbor.neighbors.back()[0].x = -std::numeric_limits<float>::infinity();
  SubmitOptions negative_timeout;
  negative_timeout.timeout_ms = -1;

  InferenceEngine engine(&method, Options(/*batch_size=*/2));
  std::vector<std::future<Tensor>> bad;
  bad.push_back(engine.Submit(short_focal));
  std::future<Tensor> good = engine.Submit(scenes[0]);
  bad.push_back(engine.Submit(long_neighbor));
  bad.push_back(engine.Submit(scenes[1], negative_timeout));
  bad.push_back(engine.Submit(nan_focal));
  bad.push_back(engine.Submit(inf_neighbor));
  engine.Drain();
  for (auto& f : bad) EXPECT_THROW(f.get(), InvalidRequestError);
  Tensor t = good.get();
  ExpectAllEqual(solo, {{t.data(), t.data() + t.size()}});

  // Still serving: a full batch after the rejections matches its reference.
  std::vector<std::future<Tensor>> after;
  for (const auto& s : scenes) after.push_back(engine.Submit(s));
  engine.Drain();
  std::vector<std::vector<float>> got;
  for (auto& f : after) {
    Tensor r = f.get();
    got.emplace_back(r.data(), r.data() + r.size());
  }
  std::vector<data::TrajectorySequence> schedule = {scenes[0], scenes[0]};
  schedule.insert(schedule.end(), scenes.begin(), scenes.end());
  const auto reference = Serve(method, schedule, Options(/*batch_size=*/2));
  ExpectAllEqual({reference[2], reference[3]}, got);

  const InferenceEngineStats stats = engine.stats();
  EXPECT_EQ(stats.invalid_requests, 5);
  EXPECT_EQ(stats.requests, 8);
  EXPECT_EQ(stats.failed_batches, 0);
}

// --- API misuse --------------------------------------------------------------

TEST(InferenceEngineTest, DuplicateRequestIdFailsTypedWithoutHurtingTheFirst) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto scenes = Scenes(2);
  const auto reference = Serve(method, scenes, Options(/*batch_size=*/2));

  InferenceEngine engine(&method, Options(/*batch_size=*/2));
  std::future<Tensor> first = engine.Submit(0, scenes[0]);
  // Same id, different scene: must not replace or disturb the queued one.
  std::future<Tensor> duplicate = engine.Submit(0, scenes[1]);
  EXPECT_THROW(duplicate.get(), InvalidRequestError);
  std::future<Tensor> second = engine.Submit(1, scenes[1]);
  engine.Drain();
  std::vector<std::vector<float>> got;
  for (auto* f : {&first, &second}) {
    Tensor t = f->get();
    got.emplace_back(t.data(), t.data() + t.size());
  }
  ExpectAllEqual(reference, got);

  const InferenceEngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.invalid_requests, 1);
  EXPECT_EQ(stats.rejected_requests, 0);
}

TEST(InferenceEngineTest, IdOfAnExecutedBatchFailsTypedWithoutDeadline) {
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto scenes = Scenes(2);
  InferenceEngine engine(&method, Options(/*batch_size=*/2));
  std::future<Tensor> a = engine.Submit(0, scenes[0]);
  std::future<Tensor> b = engine.Submit(1, scenes[1]);
  engine.Drain();
  a.get();
  b.get();
  std::future<Tensor> stale = engine.Submit(1, scenes[1]);
  EXPECT_THROW(stale.get(), ServeError);
  const InferenceEngineStats stats = engine.stats();
  EXPECT_EQ(stats.rejected_requests, 1);
  EXPECT_EQ(stats.invalid_requests, 0);
}

TEST(InferenceEngineDeathTest, DrainWithSlotGapDies) {
  // The engine owns a live dispatcher thread, so the default fork()-based
  // death test could inherit a locked mutex; re-exec instead.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  auto scenes = Scenes(1);
  InferenceEngine engine(&method, Options(/*batch_size=*/4));
  engine.Submit(2, scenes[0]);  // slots 0 and 1 never arrive
  EXPECT_DEATH(engine.Drain(), "missing request ids");
}

}  // namespace
}  // namespace serve
}  // namespace adaptraj
