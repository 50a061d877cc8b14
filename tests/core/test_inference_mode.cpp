// Method-level inference-mode tests: every Method::Predict runs forward-only
// (zero GradNode allocations) yet bit-identical to the grad-mode path, the
// train()/eval() module mode is threaded through the model trees, and edge
// batches (B = 0, B = 1, single-agent scenes) predict cleanly for all four
// methods.

#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "core/adaptraj_method.h"
#include "core/baselines.h"
#include "data/multi_domain.h"

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

data::DomainGeneralizationData TinyData() {
  data::CorpusConfig cfg;
  cfg.num_scenes = 2;
  cfg.steps_per_scene = 45;
  cfg.seed = 555;
  return data::BuildDomainGeneralizationData(
      {sim::Domain::kEthUcy, sim::Domain::kLcas}, sim::Domain::kSdd, cfg);
}

std::vector<std::unique_ptr<Method>> AllMethods(models::BackboneKind backbone) {
  std::vector<std::unique_ptr<Method>> methods;
  methods.push_back(std::make_unique<VanillaMethod>(backbone, TinyBackbone(), 5));
  methods.push_back(std::make_unique<CounterMethod>(backbone, TinyBackbone(), 5));
  methods.push_back(
      std::make_unique<CausalMotionMethod>(backbone, TinyBackbone(), 5, 10.0f));
  AdapTrajConfig acfg;
  acfg.feature_dim = 8;
  acfg.fused_dim = 8;
  acfg.num_source_domains = 2;
  methods.push_back(
      std::make_unique<AdapTrajMethod>(backbone, TinyBackbone(), acfg, 5));
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

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0);
}

// --- Predict is forward-only and bit-identical to the grad-mode path --------

TEST(InferenceModeTest, PredictAllocatesZeroGradNodesAllMethods) {
  auto dgd = TinyData();
  data::Batch batch = ProbeBatch(dgd, 4);
  for (auto& method : AllMethods(models::BackboneKind::kSeq2Seq)) {
    Rng rng(11);
    const int64_t before = internal::GradNodesCreated();
    Tensor pred = method->Predict(batch, &rng, /*sample=*/true);
    EXPECT_EQ(internal::GradNodesCreated(), before) << method->name();
    EXPECT_FALSE(pred.needs_grad()) << method->name();
  }
}

// LBEBM's Langevin sampler is a legitimate gradient island inside Predict:
// it must still record (and backpropagate) its own graph under the method's
// NoGradGuard, while the surrounding forward stays untracked.
TEST(InferenceModeTest, LbebmPredictUsesGradIslandButReturnsNoGradResult) {
  auto dgd = TinyData();
  data::Batch batch = ProbeBatch(dgd, 2);
  VanillaMethod method(models::BackboneKind::kLbebm, TinyBackbone(), 5);
  Rng rng(13);
  const int64_t before = internal::GradNodesCreated();
  Tensor pred = method.Predict(batch, &rng, /*sample=*/true);
  // The island allocated nodes (Langevin differentiates the energy)...
  EXPECT_GT(internal::GradNodesCreated(), before);
  // ...but the prediction itself is a plain forward result.
  EXPECT_FALSE(pred.needs_grad());
  EXPECT_TRUE(method.reentrant_predict());
}

TEST(InferenceModeTest, PredictBitIdenticalToGradModeAllMethods) {
  auto dgd = TinyData();
  data::Batch batch = ProbeBatch(dgd, 6);
  for (auto backbone :
       {models::BackboneKind::kSeq2Seq, models::BackboneKind::kPecnet,
        models::BackboneKind::kLbebm}) {
    for (auto& method : AllMethods(backbone)) {
      for (bool sample : {false, true}) {
        Rng r1(21);
        Tensor no_grad = method->Predict(batch, &r1, sample);
        Rng r2(21);
        Tensor with_grad;
        {
          ForcedGradModeGuard forced;  // overrides Predict's internal guard
          with_grad = method->Predict(batch, &r2, sample);
        }
        ExpectBitIdentical(no_grad, with_grad);
      }
    }
  }
}

// --- train()/eval() mode -----------------------------------------------------

TEST(InferenceModeTest, MethodsServeInEvalModeFromConstruction) {
  // A method never passed through Train() — e.g. one about to be restored
  // via LoadParameters — must already be in inference mode, or
  // checkpoint-restored serving would silently apply training-only layers.
  VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  EXPECT_FALSE(method.backbone().is_training());
}

TEST(InferenceModeTest, TrainLeavesModelsInEvalMode) {
  auto dgd = TinyData();
  TrainConfig t;
  t.epochs = 1;
  t.batch_size = 16;
  t.max_batches_per_epoch = 2;
  VanillaMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), 5);
  method.Train(dgd, t);
  EXPECT_FALSE(method.backbone().is_training());
}

TEST(InferenceModeTest, ModeRecursesThroughAdapTrajModelTree) {
  AdapTrajConfig acfg;
  acfg.feature_dim = 8;
  acfg.fused_dim = 8;
  acfg.num_source_domains = 2;
  AdapTrajMethod method(models::BackboneKind::kSeq2Seq, TinyBackbone(), acfg, 5);
  EXPECT_FALSE(method.model().is_training());  // eval from construction
  EXPECT_FALSE(method.model().backbone().is_training());
  method.model().train();
  EXPECT_TRUE(method.model().is_training());
  EXPECT_TRUE(method.model().backbone().is_training());
  method.model().eval();
  EXPECT_FALSE(method.model().backbone().is_training());
}

// --- Edge batches ------------------------------------------------------------

TEST(InferenceModeTest, PredictHandlesEmptyBatchAllMethods) {
  data::SequenceConfig seq_cfg;
  data::Batch empty = data::MakeBatch({}, seq_cfg);
  EXPECT_EQ(empty.batch_size, 0);
  for (auto& method : AllMethods(models::BackboneKind::kSeq2Seq)) {
    Rng rng(31);
    Tensor pred = method->Predict(empty, &rng, /*sample=*/true);
    EXPECT_EQ(pred.shape(), (Shape{0, seq_cfg.pred_len * 2})) << method->name();
  }
}

TEST(InferenceModeTest, PredictHandlesSingleSceneBatchAllMethods) {
  auto dgd = TinyData();
  data::Batch one = ProbeBatch(dgd, 1);
  ASSERT_EQ(one.batch_size, 1);
  for (auto& method : AllMethods(models::BackboneKind::kSeq2Seq)) {
    Rng rng(33);
    Tensor pred = method->Predict(one, &rng, /*sample=*/true);
    ASSERT_EQ(pred.shape(), (Shape{1, one.pred_len * 2})) << method->name();
    for (int64_t i = 0; i < pred.size(); ++i) {
      EXPECT_TRUE(std::isfinite(pred.flat(i))) << method->name();
    }
  }
}

TEST(InferenceModeTest, PredictHandlesSingleAgentSceneAllMethods) {
  auto dgd = TinyData();
  // A scene with no neighbors: copy a real one and strip its neighbors.
  data::TrajectorySequence solo = dgd.target.test.sequences[0];
  solo.neighbors.clear();
  data::SequenceConfig seq_cfg;
  data::Batch batch = data::MakeBatch({&solo}, seq_cfg);
  ASSERT_EQ(batch.max_neighbors, 1);  // one all-masked slot keeps shapes stable
  for (int64_t i = 0; i < batch.nbr_mask.size(); ++i) {
    ASSERT_EQ(batch.nbr_mask.flat(i), 0.0f);
  }
  for (auto& method : AllMethods(models::BackboneKind::kSeq2Seq)) {
    Rng rng(35);
    Tensor pred = method->Predict(batch, &rng, /*sample=*/true);
    ASSERT_EQ(pred.shape(), (Shape{1, batch.pred_len * 2})) << method->name();
    for (int64_t i = 0; i < pred.size(); ++i) {
      EXPECT_TRUE(std::isfinite(pred.flat(i))) << method->name();
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace adaptraj
