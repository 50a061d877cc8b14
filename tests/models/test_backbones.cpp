// Tests for the three backbones behind the Sec. II-C interface:
// shapes, determinism, gradient flow, conditioning, and tiny-overfit.

#include "models/backbone.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "models/lbebm.h"
#include "models/pecnet.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"

namespace adaptraj {
namespace models {
namespace {

data::Batch TestBatch(int n, const data::SequenceConfig& cfg, float speed = 0.3f) {
  std::vector<data::TrajectorySequence> seqs(n);
  std::vector<const data::TrajectorySequence*> ptrs;
  for (int i = 0; i < n; ++i) {
    auto& s = seqs[i];
    s.domain_label = i % 2;
    const float lane = static_cast<float>(i);
    for (int t = 0; t < cfg.total_len(); ++t) {
      s.focal.push_back({speed * static_cast<float>(t) * (i % 2 ? 1.0f : -1.0f), lane});
    }
    if (i % 2 == 0) {  // half the sequences get one neighbor
      std::vector<sim::Vec2> nbr;
      for (int t = 0; t < cfg.obs_len; ++t) {
        nbr.push_back({speed * static_cast<float>(t), lane + 1.0f});
      }
      s.neighbors.push_back(nbr);
    }
    ptrs.push_back(&s);
  }
  return data::MakeBatch(ptrs, cfg);
}

class BackboneKindTest : public ::testing::TestWithParam<BackboneKind> {
 protected:
  static BackboneConfig SmallConfig(int64_t extra_dim = 0) {
    BackboneConfig c;
    c.embed_dim = 8;
    c.hidden_dim = 16;
    c.social_dim = 16;
    c.latent_dim = 4;
    c.extra_dim = extra_dim;
    c.langevin_steps = 3;
    return c;
  }
};

TEST_P(BackboneKindTest, EncodeShapes) {
  Rng rng(1);
  auto model = MakeBackbone(GetParam(), SmallConfig(), &rng);
  data::SequenceConfig cfg;
  data::Batch batch = TestBatch(3, cfg);
  EncodeResult enc = model->Encode(batch);
  EXPECT_EQ(enc.h_focal.shape(), (Shape{3, 16}));
  EXPECT_EQ(enc.pooled.shape(), (Shape{3, 16}));
}

TEST_P(BackboneKindTest, PredictShape) {
  Rng rng(2);
  auto model = MakeBackbone(GetParam(), SmallConfig(), &rng);
  data::SequenceConfig cfg;
  data::Batch batch = TestBatch(2, cfg);
  EncodeResult enc = model->Encode(batch);
  Tensor pred = model->Predict(batch, enc, Tensor(), &rng, /*sample=*/true);
  EXPECT_EQ(pred.shape(), (Shape{2, cfg.pred_len * 2}));
  for (int64_t i = 0; i < pred.size(); ++i) EXPECT_TRUE(std::isfinite(pred.flat(i)));
}

TEST_P(BackboneKindTest, DeterministicWithoutSampling) {
  Rng rng(3);
  auto model = MakeBackbone(GetParam(), SmallConfig(), &rng);
  data::SequenceConfig cfg;
  data::Batch batch = TestBatch(2, cfg);
  EncodeResult enc1 = model->Encode(batch);
  Rng r1(10);
  Tensor a = model->Predict(batch, enc1, Tensor(), &r1, /*sample=*/false);
  EncodeResult enc2 = model->Encode(batch);
  Rng r2(20);
  Tensor b = model->Predict(batch, enc2, Tensor(), &r2, /*sample=*/false);
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a.flat(i), b.flat(i));
}

TEST_P(BackboneKindTest, SamplingProducesDiverseFutures) {
  Rng rng(4);
  auto model = MakeBackbone(GetParam(), SmallConfig(), &rng);
  data::SequenceConfig cfg;
  data::Batch batch = TestBatch(2, cfg);
  EncodeResult enc = model->Encode(batch);
  Rng sampler(5);
  Tensor a = model->Predict(batch, enc, Tensor(), &sampler, /*sample=*/true);
  Tensor b = model->Predict(batch, enc, Tensor(), &sampler, /*sample=*/true);
  float diff = 0.0f;
  for (int64_t i = 0; i < a.size(); ++i) diff += std::fabs(a.flat(i) - b.flat(i));
  EXPECT_GT(diff, 1e-5f);
}

TEST_P(BackboneKindTest, LossIsFiniteScalarAndBackpropagates) {
  Rng rng(6);
  auto model = MakeBackbone(GetParam(), SmallConfig(), &rng);
  data::SequenceConfig cfg;
  data::Batch batch = TestBatch(4, cfg);
  model->ZeroGrad();
  EncodeResult enc = model->Encode(batch);
  Tensor loss = model->Loss(batch, enc, Tensor(), &rng);
  ASSERT_EQ(loss.size(), 1);
  EXPECT_TRUE(std::isfinite(loss.item()));
  loss.Backward();
  int64_t params_with_grad = 0;
  for (const Tensor& p : model->Parameters()) {
    Tensor g = p.grad();
    for (int64_t i = 0; i < g.size(); ++i) {
      if (g.flat(i) != 0.0f) {
        ++params_with_grad;
        break;
      }
    }
  }
  // The vast majority of parameter tensors must receive gradient.
  EXPECT_GT(params_with_grad, static_cast<int64_t>(model->Parameters().size() * 6 / 10));
}

TEST_P(BackboneKindTest, ExtraConditioningChangesPrediction) {
  Rng rng(7);
  auto model = MakeBackbone(GetParam(), SmallConfig(/*extra_dim=*/6), &rng);
  data::SequenceConfig cfg;
  data::Batch batch = TestBatch(2, cfg);
  EncodeResult enc = model->Encode(batch);
  Rng r(1);
  Tensor zero_extra = Tensor::Zeros({2, 6});
  Tensor big_extra = Tensor::Full({2, 6}, 2.0f);
  Tensor a = model->Predict(batch, enc, zero_extra, &r, /*sample=*/false);
  Tensor b = model->Predict(batch, enc, big_extra, &r, /*sample=*/false);
  float diff = 0.0f;
  for (int64_t i = 0; i < a.size(); ++i) diff += std::fabs(a.flat(i) - b.flat(i));
  EXPECT_GT(diff, 1e-4f);
}

TEST_P(BackboneKindTest, NullExtraEqualsZeroExtra) {
  Rng rng(8);
  auto model = MakeBackbone(GetParam(), SmallConfig(/*extra_dim=*/4), &rng);
  data::SequenceConfig cfg;
  data::Batch batch = TestBatch(2, cfg);
  EncodeResult enc = model->Encode(batch);
  Rng r(1);
  Tensor a = model->Predict(batch, enc, Tensor(), &r, /*sample=*/false);
  Tensor b = model->Predict(batch, enc, Tensor::Zeros({2, 4}), &r, /*sample=*/false);
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a.flat(i), b.flat(i));
}

TEST_P(BackboneKindTest, TrainingReducesLoss) {
  Rng rng(9);
  auto model = MakeBackbone(GetParam(), SmallConfig(), &rng);
  data::SequenceConfig cfg;
  data::Batch batch = TestBatch(6, cfg);
  nn::Adam opt(5e-3f);
  opt.AddGroup(model->Parameters());

  auto eval_loss = [&]() {
    Rng fixed(42);
    EncodeResult enc = model->Encode(batch);
    return model->Loss(batch, enc, Tensor(), &fixed).item();
  };
  const float before = eval_loss();
  Rng train_rng(10);
  for (int it = 0; it < 60; ++it) {
    opt.ZeroGrad();
    EncodeResult enc = model->Encode(batch);
    Tensor loss = model->Loss(batch, enc, Tensor(), &train_rng);
    loss.Backward();
    nn::ClipGradNorm(model->Parameters(), 5.0f);
    opt.Step();
  }
  const float after = eval_loss();
  EXPECT_LT(after, before) << "training did not reduce loss";
  EXPECT_LT(after, before * 0.9f);
}

INSTANTIATE_TEST_SUITE_P(AllBackbones, BackboneKindTest,
                         ::testing::Values(BackboneKind::kSeq2Seq, BackboneKind::kPecnet,
                                           BackboneKind::kLbebm),
                         [](const ::testing::TestParamInfo<BackboneKind>& info) {
                           return BackboneKindName(info.param);
                         });

TEST(BackboneFactoryTest, KindNamesRoundTrip) {
  EXPECT_EQ(BackboneKindName(BackboneKind::kSeq2Seq), "Seq2Seq");
  EXPECT_EQ(BackboneKindName(BackboneKind::kPecnet), "PECNet");
  EXPECT_EQ(BackboneKindName(BackboneKind::kLbebm), "LBEBM");
  Rng rng(1);
  BackboneConfig cfg;
  for (auto kind : {BackboneKind::kSeq2Seq, BackboneKind::kPecnet, BackboneKind::kLbebm}) {
    auto model = MakeBackbone(kind, cfg, &rng);
    EXPECT_EQ(model->kind(), kind);
    EXPECT_GT(model->NumParams(), 0);
  }
}

TEST(PecnetTest, TrajectoryEndsExactlyAtPredictedEndpoint) {
  Rng rng(11);
  BackboneConfig cfg;
  cfg.embed_dim = 8;
  cfg.hidden_dim = 16;
  cfg.social_dim = 16;
  cfg.latent_dim = 4;
  PecnetBackbone model(cfg, &rng);
  data::SequenceConfig scfg;
  data::Batch batch = TestBatch(3, scfg);
  EncodeResult enc = model.Encode(batch);
  Rng r(3);
  Tensor pred = model.Predict(batch, enc, Tensor(), &r, /*sample=*/true);
  // The displacements must sum to some endpoint; verify the hard-conditioning
  // identity: sum of steps == endpoint decoded from the same latent. We can't
  // see the internal endpoint, but the sum must be finite and the final step
  // must not be degenerate (all zeros across batch would indicate a bug).
  float sum_abs_last = 0.0f;
  for (int64_t b = 0; b < 3; ++b) {
    sum_abs_last += std::fabs(pred.flat(b * scfg.pred_len * 2 + (scfg.pred_len - 1) * 2));
  }
  EXPECT_GT(sum_abs_last, 1e-6f);
}

TEST(LbebmTest, EnergyIsFiniteScalarPerSample) {
  Rng rng(12);
  BackboneConfig cfg;
  cfg.embed_dim = 8;
  cfg.hidden_dim = 16;
  cfg.social_dim = 16;
  cfg.latent_dim = 4;
  LbebmBackbone model(cfg, &rng);
  Tensor z = Tensor::Randn({3, 4}, &rng);
  Tensor ctx = Tensor::Randn({3, 32}, &rng);
  Tensor e = model.Energy(z, ctx);
  EXPECT_EQ(e.shape(), (Shape{3, 1}));
  for (int64_t i = 0; i < e.size(); ++i) EXPECT_TRUE(std::isfinite(e.flat(i)));
}

TEST(LbebmTest, LangevinSamplesAreFiniteAndVaried) {
  Rng rng(13);
  BackboneConfig cfg;
  cfg.embed_dim = 8;
  cfg.hidden_dim = 16;
  cfg.social_dim = 16;
  cfg.latent_dim = 4;
  cfg.langevin_steps = 5;
  LbebmBackbone model(cfg, &rng);
  Tensor ctx = Tensor::Randn({4, 32}, &rng);
  Rng sampler(7);
  Tensor z1 = model.SampleLangevin(ctx, &sampler);
  Tensor z2 = model.SampleLangevin(ctx, &sampler);
  EXPECT_EQ(z1.shape(), (Shape{4, 4}));
  float diff = 0.0f;
  for (int64_t i = 0; i < z1.size(); ++i) {
    EXPECT_TRUE(std::isfinite(z1.flat(i)));
    diff += std::fabs(z1.flat(i) - z2.flat(i));
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST(LbebmTest, LangevinDoesNotLeakGradients) {
  Rng rng(14);
  BackboneConfig cfg;
  cfg.embed_dim = 8;
  cfg.hidden_dim = 16;
  cfg.social_dim = 16;
  cfg.latent_dim = 4;
  LbebmBackbone model(cfg, &rng);
  model.ZeroGrad();
  Tensor ctx = Tensor::Randn({2, 32}, &rng);
  Rng sampler(8);
  (void)model.SampleLangevin(ctx, &sampler);
  for (const Tensor& p : model.Parameters()) {
    Tensor g = p.grad();
    for (int64_t i = 0; i < g.size(); ++i) {
      ASSERT_EQ(g.flat(i), 0.0f) << "Langevin sampling leaked parameter gradients";
    }
  }
}

/// Every parameter's gradient buffer, copied (empty while never accumulated).
std::vector<std::vector<float>> GradBuffers(const nn::Module& model) {
  std::vector<std::vector<float>> out;
  for (const Tensor& p : model.Parameters()) {
    const auto& g = p.impl()->grad;
    out.emplace_back(g.data(), g.data() + g.size());
  }
  return out;
}

TEST(LbebmTest, SampledPredictLeavesParameterGradientsUntouched) {
  Rng rng(15);
  data::SequenceConfig seq;
  BackboneConfig cfg;
  cfg.embed_dim = 8;
  cfg.hidden_dim = 16;
  cfg.social_dim = 16;
  cfg.latent_dim = 4;
  LbebmBackbone model(cfg, &rng);
  data::Batch batch = TestBatch(4, seq);

  // Never-accumulated buffers stay empty.
  Rng sampler(9);
  (void)model.Predict(batch, model.Encode(batch), Tensor(), &sampler, /*sample=*/true);
  for (const auto& g : GradBuffers(model)) {
    EXPECT_TRUE(g.empty()) << "sampling allocated a parameter gradient";
  }
  // Accumulated buffers keep their bytes: no write, no wipe.
  model.Loss(batch, model.Encode(batch), Tensor(), &sampler).Backward();
  const auto before = GradBuffers(model);
  (void)model.Predict(batch, model.Encode(batch), Tensor(), &sampler, /*sample=*/true);
  EXPECT_EQ(GradBuffers(model), before) << "sampling changed a parameter gradient";
}

TEST(LbebmTest, ConcurrentSampledPredictsOnOneInstanceMatchSerial) {
  Rng rng(16);
  data::SequenceConfig seq;
  BackboneConfig cfg;
  cfg.embed_dim = 8;
  cfg.hidden_dim = 16;
  cfg.social_dim = 16;
  cfg.latent_dim = 4;
  LbebmBackbone model(cfg, &rng);
  model.eval();
  data::Batch batch = TestBatch(4, seq);
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  // Call (t, r) draws from its own seed, as the engine's batches do.
  auto predict = [&](int t, int r) {
    NoGradGuard no_grad;
    Rng noise(static_cast<uint64_t>(100 + kRounds * t + r));
    Tensor out = model.Predict(batch, model.Encode(batch), Tensor(), &noise, true);
    return std::vector<float>(out.data(), out.data() + out.size());
  };
  std::vector<std::vector<float>> serial;
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRounds; ++r) serial.push_back(predict(t, r));
  }

  parallel::ConfigureTrainWorkers(kThreads);
  std::vector<std::vector<float>> concurrent(serial.size());
  std::vector<std::function<void()>> tasks;
  for (int t = 0; t < kThreads; ++t) {
    tasks.push_back([&, t] {
      for (int r = 0; r < kRounds; ++r) concurrent[kRounds * t + r] = predict(t, r);
    });
  }
  parallel::RunTaskGroup(tasks);
  parallel::ConfigureTrainWorkers(1);
  ASSERT_EQ(concurrent.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(concurrent[i].size(), serial[i].size()) << "call " << i;
    EXPECT_EQ(std::memcmp(concurrent[i].data(), serial[i].data(),
                          serial[i].size() * sizeof(float)),
              0)
        << "call " << i;
  }
}

// Decoder dropout (BackboneConfig::dropout) is live in training mode and the
// exact identity in eval mode — the train/serve skew the Module mode exists
// to prevent.
TEST(Seq2SeqDropoutTest, ActiveInTrainModeIdentityInEval) {
  BackboneConfig plain_cfg;
  plain_cfg.embed_dim = 8;
  plain_cfg.hidden_dim = 16;
  plain_cfg.social_dim = 16;
  plain_cfg.latent_dim = 4;
  BackboneConfig drop_cfg = plain_cfg;
  drop_cfg.dropout = 0.5f;

  // Dropout has no parameters, so both models draw identical init streams.
  Rng r1(4);
  auto plain = MakeBackbone(BackboneKind::kSeq2Seq, plain_cfg, &r1);
  Rng r2(4);
  auto dropped = MakeBackbone(BackboneKind::kSeq2Seq, drop_cfg, &r2);

  data::SequenceConfig cfg;
  data::Batch batch = TestBatch(4, cfg);
  EncodeResult enc_plain = plain->Encode(batch);
  EncodeResult enc_drop = dropped->Encode(batch);

  // Training mode: the mask perturbs the rollout.
  dropped->train();
  Rng pr1(9);
  Tensor train_out = dropped->Predict(batch, enc_drop, Tensor(), &pr1, false);
  Rng pr2(9);
  Tensor plain_out = plain->Predict(batch, enc_plain, Tensor(), &pr2, false);
  float diff = 0.0f;
  for (int64_t i = 0; i < train_out.size(); ++i) {
    diff += std::fabs(train_out.flat(i) - plain_out.flat(i));
  }
  EXPECT_GT(diff, 1e-6f);

  // Eval mode: dropout is the identity and consumes no rng, so the
  // dropout-configured model predicts exactly like the plain one.
  dropped->eval();
  plain->eval();
  Rng pr3(9);
  Tensor eval_out = dropped->Predict(batch, enc_drop, Tensor(), &pr3, false);
  Rng pr4(9);
  Tensor plain_eval = plain->Predict(batch, enc_plain, Tensor(), &pr4, false);
  for (int64_t i = 0; i < eval_out.size(); ++i) {
    EXPECT_EQ(eval_out.flat(i), plain_eval.flat(i)) << "i=" << i;
  }
}

}  // namespace
}  // namespace models
}  // namespace adaptraj
