// Execution plans under the serving engine (tensor/plan.h + tensor/plan
// telemetry in serve::InferenceEngineStats): planned serving is bit-identical
// to plans-off serving, engine stats report the served instance's plan cache,
// and SwapWeights under planned traffic serves the new weights from its
// first post-flip batch — a swap can never replay a plan holding the
// pre-swap weights, because the standby clone starts with an empty cache.

#include <cstring>
#include <future>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "data/multi_domain.h"
#include "serve/inference_engine.h"
#include "tensor/parallel.h"
#include "tensor/plan.h"

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
  // This suite asserts exact plan-cache counters for the COMBINED Predict
  // path; the encoder cache reroutes serving through the split halves
  // (their own "e:"/"d:" plan keys), so pin it off here. The encoder
  // cache's plan interplay is covered by tests/serve/test_encode_cache.cpp.
  o.encode_cache = EncodeCacheMode::kOff;
  return o;
}

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

class PlanServingTest : public ::testing::Test {
 protected:
  void TearDown() override { plan::SetMode(plan::Mode::kAuto); }
};

TEST_F(PlanServingTest, PlannedServingBitIdenticalToEagerServing) {
  auto scenes = Scenes(12);
  auto options = Options(/*batch_size=*/4);
  core::VanillaMethod eager_method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  core::VanillaMethod planned_method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);

  plan::SetMode(plan::Mode::kOff);
  auto eager = Serve(eager_method, scenes, options);
  plan::SetMode(plan::Mode::kOn);
  auto planned_cold = Serve(planned_method, scenes, options);  // captures
  auto planned_warm = Serve(planned_method, scenes, options);  // replays

  ExpectAllEqual(eager, planned_cold);
  ExpectAllEqual(eager, planned_warm);
  plan::CacheStats s = planned_method.plan_stats();
  EXPECT_GE(s.captures, 1);
  EXPECT_GE(s.hits, 1);
  EXPECT_GT(s.fused_steps, 0);
}

TEST_F(PlanServingTest, EngineStatsReportPlanTelemetry) {
  plan::SetMode(plan::Mode::kOn);
  auto scenes = Scenes(16);
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  InferenceEngine engine(&method, Options(/*batch_size=*/4));
  std::vector<std::future<Tensor>> futures;
  // First batch alone, drained: the capture completes before the follow-up
  // batches arrive (concurrent same-key calls would fall back to eager
  // while a capture is in flight — correct, but a nondeterministic count).
  for (size_t i = 0; i < 4; ++i) futures.push_back(engine.Submit(scenes[i]));
  engine.Drain();
  for (size_t i = 4; i < scenes.size(); ++i) futures.push_back(engine.Submit(scenes[i]));
  engine.Drain();
  for (auto& f : futures) (void)f.get();

  // Four identical full batches: one capture, three replays.
  InferenceEngineStats stats = engine.stats();
  EXPECT_EQ(stats.plan.plans, 1);
  EXPECT_EQ(stats.plan.captures, 1);
  EXPECT_EQ(stats.plan.hits, 3);
  EXPECT_GT(stats.plan.fused_steps, 0);
  EXPECT_GT(stats.plan.arena_bytes, 0);
}

TEST_F(PlanServingTest, EngineStatsReportTheOneServedInstance) {
  // LBEBM's batches run concurrently on the one served instance. Its
  // Langevin backward aborts the capture, which marks the key unplannable
  // once; later and concurrent batches run eager.
  plan::SetMode(plan::Mode::kOn);
  parallel::ConfigureTrainWorkers(2);
  auto scenes = Scenes(8);
  core::VanillaMethod method(models::BackboneKind::kLbebm, TinyBackbone(), 5);
  InferenceEngine engine(&method, Options(/*batch_size=*/4));
  std::vector<std::future<Tensor>> futures;
  for (const auto& s : scenes) futures.push_back(engine.Submit(s));
  engine.Drain();
  for (auto& f : futures) (void)f.get();
  parallel::ConfigureTrainWorkers(1);

  InferenceEngineStats stats = engine.stats();
  EXPECT_EQ(stats.plan.plans, 0);    // LBEBM's sampled Predict is unplannable
  EXPECT_EQ(stats.plan.aborted, 1);  // one abort on the one instance
  const plan::CacheStats own = method.plan_stats();
  EXPECT_EQ(stats.plan.aborted, own.aborted);
  EXPECT_EQ(stats.plan.misses, own.misses);
}

TEST_F(PlanServingTest, SwapWeightsUnderPlannedServingServesNewWeights) {
  plan::SetMode(plan::Mode::kOn);
  core::VanillaMethod old_weights(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  core::VanillaMethod new_weights(models::BackboneKind::kSeq2Seq, TinyBackbone(), 77);
  auto scenes = Scenes(8);
  auto options = Options(/*batch_size=*/4);

  // Warm both methods' plan caches so the swap happens under fully planned
  // traffic — the old plan holds the OLD weights packed into its GEMM steps.
  auto ref_old = Serve(old_weights, scenes, options);
  auto ref_new = Serve(new_weights, scenes, options);
  ASSERT_GE(old_weights.plan_stats().captures, 1);
  ASSERT_GE(new_weights.plan_stats().captures, 1);

  InferenceEngine engine(&old_weights, options);
  std::vector<std::future<Tensor>> futures;
  for (size_t i = 0; i < 4; ++i) futures.push_back(engine.Submit(scenes[i]));
  engine.Drain();  // batch 0: replayed from old_weights' warm plan
  EXPECT_GE(engine.stats().plan.hits, 1);

  engine.SwapWeights(new_weights);
  for (size_t i = 4; i < 8; ++i) futures.push_back(engine.Submit(scenes[i]));
  engine.Drain();

  std::vector<std::vector<float>> got;
  for (auto& f : futures) {
    Tensor t = f.get();
    got.emplace_back(t.data(), t.data() + t.size());
  }
  // Pre-swap rows match the old weights; post-swap rows match the NEW
  // weights bit-for-bit. If the flip had carried the old plan cache across,
  // the post-swap batch would replay stale packed weights and diverge.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::memcmp(got[i].data(), ref_old[i].data(),
                          got[i].size() * sizeof(float)),
              0)
        << "pre-swap row " << i;
  }
  for (size_t i = 4; i < 8; ++i) {
    EXPECT_EQ(std::memcmp(got[i].data(), ref_new[i].data(),
                          got[i].size() * sizeof(float)),
              0)
        << "post-swap row " << i;
  }

  // The served instance is now the standby clone: its cache started empty
  // and captured the post-swap batch itself.
  InferenceEngineStats stats = engine.stats();
  EXPECT_EQ(stats.weight_swaps, 1);
  EXPECT_GE(stats.plan.captures, 1);
}

}  // namespace
}  // namespace adaptraj
}  // namespace serve
