// Method-level execution-plan tests (tensor/plan.h via core::Method): the
// planned replay path is bit-identical to eager for every method x backbone
// (including the transformer encoder, whose LayerNorm/attention-softmax
// chains exercise the elementwise fusions) across batch shapes including
// B = 0 and B = 1, shape changes miss and capture per key, LBEBM's Langevin
// inner loop aborts to permanent eager, and Train invalidates packed plans.

#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptraj_method.h"
#include "core/baselines.h"
#include "data/multi_domain.h"
#include "tensor/plan.h"

namespace adaptraj {
namespace core {
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

models::BackboneConfig TinyTransformerBackbone() {
  models::BackboneConfig c = TinyBackbone();
  c.encoder = models::EncoderKind::kTransformer;
  c.transformer_blocks = 2;
  return c;
}

data::DomainGeneralizationData TinyData() {
  data::CorpusConfig cfg;
  cfg.num_scenes = 2;
  cfg.steps_per_scene = 45;
  cfg.seed = 555;
  return data::BuildDomainGeneralizationData(
      {sim::Domain::kEthUcy, sim::Domain::kLcas}, sim::Domain::kSdd, cfg);
}

std::vector<std::unique_ptr<Method>> AllMethods(
    models::BackboneKind backbone, const models::BackboneConfig& config) {
  std::vector<std::unique_ptr<Method>> methods;
  methods.push_back(std::make_unique<VanillaMethod>(backbone, config, 5));
  methods.push_back(std::make_unique<CounterMethod>(backbone, config, 5));
  methods.push_back(
      std::make_unique<CausalMotionMethod>(backbone, config, 5, 10.0f));
  AdapTrajConfig acfg;
  acfg.feature_dim = 8;
  acfg.fused_dim = 8;
  acfg.num_source_domains = 2;
  methods.push_back(std::make_unique<AdapTrajMethod>(backbone, config, acfg, 5));
  return methods;
}

data::Batch ProbeBatch(const data::DomainGeneralizationData& dgd, size_t n) {
  data::SequenceConfig seq_cfg;
  std::vector<const data::TrajectorySequence*> ptrs;
  for (size_t i = 0; i < n && i < dgd.target.test.sequences.size(); ++i) {
    ptrs.push_back(&dgd.target.test.sequences[i]);
  }
  return data::MakeBatch(ptrs, seq_cfg);
}

void ExpectBitIdentical(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  // An empty tensor's data() may be null, and memcmp on null is undefined
  // even for zero bytes.
  if (a.size() == 0) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0)
      << what;
}

class PlanPredictTest : public ::testing::Test {
 protected:
  void TearDown() override { plan::SetMode(plan::Mode::kAuto); }
};

/// Eager-vs-planned bit-identity for one method over one batch: two eager
/// calls (plans off) and a capture + replay pair (plans on) on same-seed rng
/// streams must produce identical bytes call for call.
void CheckPlannedMatchesEager(Method* method, const data::Batch& batch,
                              bool sample) {
  plan::SetMode(plan::Mode::kOff);
  Rng eager_rng(11);
  Tensor e1 = method->Predict(batch, &eager_rng, sample);
  Tensor e2 = method->Predict(batch, &eager_rng, sample);

  plan::SetMode(plan::Mode::kOn);
  Rng planned_rng(11);
  Tensor p1 = method->Predict(batch, &planned_rng, sample);  // capture (or eager)
  Tensor p2 = method->Predict(batch, &planned_rng, sample);  // replay (or eager)

  ExpectBitIdentical(e1, p1, method->name().c_str());
  ExpectBitIdentical(e2, p2, method->name().c_str());
}

TEST_F(PlanPredictTest, ReplayBitIdenticalAllMethodsAllBackbones) {
  auto dgd = TinyData();
  data::Batch batch = ProbeBatch(dgd, 4);
  for (auto backbone :
       {models::BackboneKind::kSeq2Seq, models::BackboneKind::kPecnet,
        models::BackboneKind::kLbebm}) {
    for (auto& method : AllMethods(backbone, TinyBackbone())) {
      for (bool sample : {false, true}) {
        CheckPlannedMatchesEager(method.get(), batch, sample);
      }
    }
  }
}

TEST_F(PlanPredictTest, ReplayBitIdenticalTransformerEncoder) {
  // The transformer encoder routes Predict through nn::LayerNorm and the
  // scaled attention softmax — the chains the plan compiler fuses.
  auto dgd = TinyData();
  data::Batch batch = ProbeBatch(dgd, 4);
  for (auto backbone :
       {models::BackboneKind::kSeq2Seq, models::BackboneKind::kPecnet}) {
    for (auto& method : AllMethods(backbone, TinyTransformerBackbone())) {
      CheckPlannedMatchesEager(method.get(), batch, /*sample=*/true);
      EXPECT_GT(method->plan_stats().fused_steps, 0) << method->name();
    }
  }
}

TEST_F(PlanPredictTest, EdgeBatchShapesCaptureAndReplay) {
  plan::SetMode(plan::Mode::kOn);
  auto dgd = TinyData();
  data::SequenceConfig seq_cfg;
  data::Batch empty = data::MakeBatch({}, seq_cfg);
  data::Batch single = ProbeBatch(dgd, 1);
  for (auto& method : AllMethods(models::BackboneKind::kSeq2Seq, TinyBackbone())) {
    CheckPlannedMatchesEager(method.get(), empty, /*sample=*/true);
    CheckPlannedMatchesEager(method.get(), single, /*sample=*/true);
  }
}

TEST_F(PlanPredictTest, ShapeAndSampleChangesMissAndCapturePerKey) {
  plan::SetMode(plan::Mode::kOn);
  auto dgd = TinyData();
  data::Batch b4 = ProbeBatch(dgd, 4);
  data::Batch b2 = ProbeBatch(dgd, 2);
  VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  Rng rng(11);

  (void)method.Predict(b4, &rng, /*sample=*/true);
  plan::CacheStats s = method.plan_stats();
  EXPECT_EQ(s.plans, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 0);

  // New batch size and new sample flag: two more keys, two more captures.
  (void)method.Predict(b2, &rng, /*sample=*/true);
  (void)method.Predict(b4, &rng, /*sample=*/false);
  s = method.plan_stats();
  EXPECT_EQ(s.plans, 3);
  EXPECT_EQ(s.captures, 3);
  EXPECT_EQ(s.misses, 3);
  EXPECT_EQ(s.hits, 0);

  // Every seen key now replays.
  (void)method.Predict(b4, &rng, /*sample=*/true);
  (void)method.Predict(b2, &rng, /*sample=*/true);
  (void)method.Predict(b4, &rng, /*sample=*/false);
  s = method.plan_stats();
  EXPECT_EQ(s.plans, 3);
  EXPECT_EQ(s.hits, 3);
  EXPECT_GT(s.fused_steps, 0);
  EXPECT_GT(s.arena_bytes, 0);
}

TEST_F(PlanPredictTest, LbebmLangevinLoopAbortsToPermanentEager) {
  plan::SetMode(plan::Mode::kOn);
  auto dgd = TinyData();
  data::Batch batch = ProbeBatch(dgd, 4);
  VanillaMethod method(models::BackboneKind::kLbebm, TinyBackbone(), 5);
  Rng rng(11);
  (void)method.Predict(batch, &rng, /*sample=*/true);
  (void)method.Predict(batch, &rng, /*sample=*/true);
  plan::CacheStats s = method.plan_stats();
  EXPECT_EQ(s.plans, 0);
  EXPECT_EQ(s.captures, 0);
  EXPECT_EQ(s.aborted, 1);  // the second call skips the doomed capture
  EXPECT_EQ(s.hits, 0);
}

TEST_F(PlanPredictTest, TrainInvalidatesPackedPlans) {
  plan::SetMode(plan::Mode::kOn);
  auto dgd = TinyData();
  data::Batch batch = ProbeBatch(dgd, 4);
  VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  Rng rng(11);
  (void)method.Predict(batch, &rng, /*sample=*/true);
  EXPECT_EQ(method.plan_stats().plans, 1);

  TrainConfig tc;
  tc.epochs = 1;
  tc.max_batches_per_epoch = 1;
  tc.batch_size = 4;
  method.Train(dgd, tc);
  // Fused GEMM steps packed the pre-training weights; the cache must drop.
  EXPECT_EQ(method.plan_stats().plans, 0);

  // Post-training captures replay the new weights bit-identically.
  CheckPlannedMatchesEager(&method, batch, /*sample=*/true);
}

TEST_F(PlanPredictTest, CloneForServingStartsWithEmptyCache) {
  plan::SetMode(plan::Mode::kOn);
  auto dgd = TinyData();
  data::Batch batch = ProbeBatch(dgd, 4);
  VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  Rng rng(11);
  (void)method.Predict(batch, &rng, /*sample=*/true);
  EXPECT_EQ(method.plan_stats().plans, 1);

  std::unique_ptr<Method> clone = method.CloneForServing();
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->plan_stats().plans, 0);  // never inherits packed weights
  CheckPlannedMatchesEager(clone.get(), batch, /*sample=*/true);
}

}  // namespace
}  // namespace adaptraj
}  // namespace core
