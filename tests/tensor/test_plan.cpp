// Execution-plan layer (tensor/plan.h): capture/replay bit-identity, the
// fusion pattern-matchers, rng-stream replay, the abort-to-eager safety
// paths, and cache telemetry. Method-level coverage (real backbones, batch
// shapes, serving) lives in tests/core/test_plan_predict.cpp and
// tests/serve/test_plan_serving.cpp.

#include "tensor/plan.h"

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/parallel.h"

namespace adaptraj {
namespace {

using namespace ops;  // NOLINT(build/namespaces)

/// Forces plan mode for one test and restores env-resolution afterwards.
class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override { plan::SetMode(plan::Mode::kOn); }
  void TearDown() override { plan::SetMode(plan::Mode::kAuto); }
};

/// One Predict-shaped call: replay when a plan exists, otherwise run (and
/// possibly record) the eager body. Mirrors the PredictSession usage in
/// core::Method implementations.
Tensor RunPlanned(plan::PlanCache* cache, const std::string& key,
                  std::vector<const Tensor*> inputs, Rng* rng,
                  const std::function<Tensor()>& body) {
  NoGradGuard no_grad;
  plan::PredictSession session(cache, key, std::move(inputs), rng);
  if (session.CanReplay()) return session.Replay();
  return session.Finish(body());
}

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0);
}

Tensor Iota(const Shape& shape, float scale) {
  int64_t n = 1;
  for (int64_t e : shape) n *= e;
  std::vector<float> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    v[static_cast<size_t>(i)] = scale * static_cast<float>(i % 17 - 8);
  }
  return Tensor::FromVector(shape, std::move(v));
}

TEST_F(PlanTest, CaptureThenReplayBitIdentical) {
  plan::PlanCache cache;
  auto body = [](const Tensor& x, const Tensor& y) {
    Tensor h = Relu(BroadcastAdd(MatMul(x, Transpose(y)), Slice(x, 1, 0, 1)));
    Tensor parts = Concat({h, Tanh(h)}, 1);
    Tensor red = SumAxis(Square(parts), 1, /*keepdim=*/true);
    return Softmax(BroadcastMul(parts, Sigmoid(red)));
  };
  Tensor x1 = Iota({5, 6}, 0.25f), y1 = Iota({5, 6}, -0.125f);
  Tensor x2 = Iota({5, 6}, 0.5f), y2 = Iota({5, 6}, 0.0625f);

  Tensor captured = RunPlanned(&cache, "k", {&x1, &y1}, nullptr,
                               [&] { return body(x1, y1); });
  Tensor replayed = RunPlanned(&cache, "k", {&x2, &y2}, nullptr,
                               [&] { return body(x2, y2); });

  // Eager reference on a cold cache with planning off.
  plan::SetMode(plan::Mode::kOff);
  ExpectBitIdentical(captured, body(x1, y1));
  ExpectBitIdentical(replayed, body(x2, y2));

  plan::CacheStats s = cache.stats();
  EXPECT_EQ(s.plans, 1);
  EXPECT_EQ(s.captures, 1);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.aborted, 0);
  EXPECT_GT(s.arena_bytes, 0);
}

TEST_F(PlanTest, ScaledSoftmaxFusionFiresAndMatches) {
  plan::PlanCache cache;
  auto body = [](const Tensor& x) { return Softmax(MulScalar(x, 0.125f)); };
  Tensor x1 = Iota({4, 9}, 0.5f);
  Tensor x2 = Iota({4, 9}, -0.75f);

  (void)RunPlanned(&cache, "k", {&x1}, nullptr, [&] { return body(x1); });
  // MulScalar folded into the softmax kernel: exactly one step removed.
  EXPECT_EQ(cache.stats().fused_steps, 1);
  Tensor replayed = RunPlanned(&cache, "k", {&x2}, nullptr,
                               [&] { return body(x2); });
  plan::SetMode(plan::Mode::kOff);
  ExpectBitIdentical(replayed, body(x2));
}

TEST_F(PlanTest, MaskedScaledSoftmaxFusionFiresAndMatches) {
  plan::PlanCache cache;
  // The attention-pooling masking idiom (models/interaction.cpp): scale,
  // fill padded slots with -1e9, softmax.
  Tensor mask = Tensor::FromVector({3, 4}, {0, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1});
  auto body = [&mask](const Tensor& x) {
    return Softmax(MaskedFill(MulScalar(x, 0.25f), mask, -1e9f));
  };
  Tensor x1 = Iota({3, 4}, 1.0f);
  Tensor x2 = Iota({3, 4}, -0.5f);

  (void)RunPlanned(&cache, "k", {&x1}, nullptr, [&] { return body(x1); });
  // Both the MulScalar and the MaskedFill fold into the softmax step.
  EXPECT_EQ(cache.stats().fused_steps, 2);
  Tensor replayed = RunPlanned(&cache, "k", {&x2}, nullptr,
                               [&] { return body(x2); });
  plan::SetMode(plan::Mode::kOff);
  ExpectBitIdentical(replayed, body(x2));
}

TEST_F(PlanTest, LayerNormChainFusesAndMatches) {
  plan::PlanCache cache;
  // nn::LayerNorm::Forward's normalize chain, verbatim.
  const float eps = 1e-5f;
  auto body = [eps](const Tensor& x) {
    Tensor mean = MeanAxis(x, -1, /*keepdim=*/true);
    Tensor centered = BroadcastAdd(x, Neg(mean));
    Tensor var = MeanAxis(Square(centered), -1, /*keepdim=*/true);
    Tensor inv = Div(Tensor::Full(var.shape(), 1.0f), Sqrt(AddScalar(var, eps)));
    return BroadcastMul(centered, inv);
  };
  Tensor x1 = Iota({6, 8}, 0.3f);
  Tensor x2 = Iota({6, 8}, -1.7f);

  (void)RunPlanned(&cache, "k", {&x1}, nullptr, [&] { return body(x1); });
  // The 9-step chain collapses to one kLayerNorm kernel: 8 steps removed.
  EXPECT_EQ(cache.stats().fused_steps, 8);
  Tensor replayed = RunPlanned(&cache, "k", {&x2}, nullptr,
                               [&] { return body(x2); });
  plan::SetMode(plan::Mode::kOff);
  ExpectBitIdentical(replayed, body(x2));
}

TEST_F(PlanTest, GemmEpiloguePacksWeightsAndMatches) {
  plan::PlanCache cache;
  // Weights are captured externals (not session inputs), so the GEMM fusion
  // packs them into the plan's constant pool.
  Tensor w = Iota({6, 5}, 0.2f);
  Tensor bias = Iota({1, 5}, 0.1f);
  auto body = [&](const Tensor& x) { return Relu(Affine(x, w, bias)); };
  Tensor x1 = Iota({7, 6}, 0.4f);
  Tensor x2 = Iota({7, 6}, -0.9f);

  (void)RunPlanned(&cache, "k", {&x1}, nullptr, [&] { return body(x1); });
  plan::CacheStats s = cache.stats();
  EXPECT_GE(s.fused_steps, 1);     // the Relu epilogue
  EXPECT_GT(s.constant_bytes, 0);  // the packed weight panel
  Tensor replayed = RunPlanned(&cache, "k", {&x2}, nullptr,
                               [&] { return body(x2); });
  plan::SetMode(plan::Mode::kOff);
  ExpectBitIdentical(replayed, body(x2));
}

TEST_F(PlanTest, RandnReplayAdvancesTheStreamIdentically) {
  plan::PlanCache cache;
  auto body = [](const Tensor& x, Rng* rng) {
    return Add(x, Tensor::Randn(x.shape(), rng, 0.5f));
  };
  Tensor x = Iota({3, 7}, 0.6f);

  // Planned pair: capture then replay on one rng stream.
  Rng planned_rng(99);
  Tensor p1 = RunPlanned(&cache, "k", {&x}, &planned_rng,
                         [&] { return body(x, &planned_rng); });
  Tensor p2 = RunPlanned(&cache, "k", {&x}, &planned_rng,
                         [&] { return body(x, &planned_rng); });
  EXPECT_EQ(cache.stats().hits, 1);

  // Eager pair on a fresh stream with the same seed: the replayed call must
  // have drawn the same values in the same order (stream state advances
  // identically), so both pairs match bit-for-bit.
  plan::SetMode(plan::Mode::kOff);
  Rng eager_rng(99);
  ExpectBitIdentical(p1, body(x, &eager_rng));
  ExpectBitIdentical(p2, body(x, &eager_rng));
}

TEST_F(PlanTest, ShapeChangeMissesAndCapturesSeparately) {
  plan::PlanCache cache;
  auto body = [](const Tensor& x) { return Relu(MulScalar(x, 2.0f)); };
  Tensor small = Iota({2, 3}, 1.0f);
  Tensor big = Iota({8, 3}, 1.0f);

  (void)RunPlanned(&cache, "B2", {&small}, nullptr, [&] { return body(small); });
  (void)RunPlanned(&cache, "B8", {&big}, nullptr, [&] { return body(big); });
  plan::CacheStats s = cache.stats();
  EXPECT_EQ(s.plans, 2);
  EXPECT_EQ(s.captures, 2);
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.hits, 0);

  (void)RunPlanned(&cache, "B2", {&small}, nullptr, [&] { return body(small); });
  (void)RunPlanned(&cache, "B8", {&big}, nullptr, [&] { return body(big); });
  EXPECT_EQ(cache.stats().hits, 2);
}

TEST_F(PlanTest, EmptyBatchCapturesAndReplays) {
  plan::PlanCache cache;
  auto body = [](const Tensor& x) {
    return Softmax(MulScalar(Concat({x, Relu(x)}, 1), 0.5f));
  };
  Tensor empty = Tensor::Zeros({0, 4});
  Tensor r1 = RunPlanned(&cache, "B0", {&empty}, nullptr,
                         [&] { return body(empty); });
  Tensor r2 = RunPlanned(&cache, "B0", {&empty}, nullptr,
                         [&] { return body(empty); });
  EXPECT_EQ(r1.shape(), Shape({0, 8}));
  EXPECT_EQ(r2.shape(), Shape({0, 8}));
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST_F(PlanTest, GradModeTrackedOpAbortsToPermanentEager) {
  plan::PlanCache cache;
  Tensor x = Iota({3, 3}, 1.0f);
  // A grad-tracked op inside the "no-grad" body means the capture is not a
  // pure forward: abort, and mark the key unplannable.
  auto body = [&] {
    Tensor w = Tensor::Full({3, 3}, 0.5f, /*requires_grad=*/true);
    return MatMul(x, w);
  };
  for (int call = 0; call < 2; ++call) {
    plan::PredictSession session(&cache, "k", {&x}, nullptr);
    ASSERT_FALSE(session.CanReplay());
    (void)session.Finish(body());
  }
  plan::CacheStats s = cache.stats();
  EXPECT_EQ(s.plans, 0);
  EXPECT_EQ(s.captures, 0);
  EXPECT_EQ(s.aborted, 1);  // only the first call attempts the capture
  EXPECT_EQ(s.hits, 0);
}

TEST_F(PlanTest, BackwardDuringCaptureAborts) {
  plan::PlanCache cache;
  Tensor x = Iota({2, 2}, 1.0f);
  auto body = [&] {
    Tensor w = Tensor::Full({2, 2}, 0.25f, /*requires_grad=*/true);
    Tensor loss = Sum(Mul(MatMul(x, w), MatMul(x, w)));
    loss.Backward();  // a Langevin-style inner loop (LBEBM)
    return Add(x, w.Detach());
  };
  for (int call = 0; call < 2; ++call) {
    plan::PredictSession session(&cache, "k", {&x}, nullptr);
    ASSERT_FALSE(session.CanReplay());
    (void)session.Finish(body());
  }
  plan::CacheStats s = cache.stats();
  EXPECT_EQ(s.plans, 0);
  EXPECT_EQ(s.aborted, 1);
}

TEST_F(PlanTest, InvalidateDropsPlansAndRecaptures) {
  plan::PlanCache cache;
  auto body = [](const Tensor& x) { return Tanh(MulScalar(x, 3.0f)); };
  Tensor x = Iota({4, 4}, 0.2f);

  (void)RunPlanned(&cache, "k", {&x}, nullptr, [&] { return body(x); });
  EXPECT_EQ(cache.stats().plans, 1);
  cache.Invalidate();
  plan::CacheStats s = cache.stats();
  EXPECT_EQ(s.plans, 0);
  EXPECT_EQ(s.arena_bytes, 0);

  Tensor again = RunPlanned(&cache, "k", {&x}, nullptr, [&] { return body(x); });
  EXPECT_EQ(cache.stats().captures, 2);
  plan::SetMode(plan::Mode::kOff);
  ExpectBitIdentical(again, body(x));
}

TEST_F(PlanTest, VerifyModeRunsEagerAndReplayAndAgrees) {
  plan::PlanCache cache;
  Tensor w = Iota({5, 4}, 0.15f);
  auto body = [&](const Tensor& x, Rng* rng) {
    return Add(Sigmoid(MatMul(x, w)), Tensor::Randn({6, 4}, rng, 0.1f));
  };
  Tensor x = Iota({6, 5}, 0.8f);

  Rng rng(42);
  (void)RunPlanned(&cache, "k", {&x}, &rng, [&] { return body(x, &rng); });
  plan::SetMode(plan::Mode::kVerify);
  // Runs the eager body AND the recorded plan, then compares result bytes
  // and rng stream position; a divergence would abort the process.
  (void)RunPlanned(&cache, "k", {&x}, &rng, [&] { return body(x, &rng); });
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST_F(PlanTest, DuplicateInputImplStaysEager) {
  plan::PlanCache cache;
  Tensor x = Iota({3, 3}, 1.0f);
  auto body = [&] {
    EXPECT_FALSE(plan::Recording());  // ambiguous rebinding: no capture
    return Relu(x);
  };
  for (int call = 0; call < 2; ++call) {
    plan::PredictSession session(&cache, "k", {&x, &x}, nullptr);
    ASSERT_FALSE(session.CanReplay());
    (void)session.Finish(body());
  }
  EXPECT_EQ(cache.stats().plans, 0);
}

// --- Every recordable op, captured and replayed ------------------------------

/// Batch fields of the coverage body. Every tensor is a session input, so
/// products whose weight is one of them stay unfused (generic GEMM steps).
struct CoverageInputs {
  Tensor x, y, c;    // [6, 8]
  Tensor gates;      // [6, 32]: LSTM pre-activations for hidden 8
  Tensor w, bias;    // [8, 8], [1, 8]
  Tensor wg, bg;     // [8, 32], [1, 32]
  Tensor a, at;      // [2, 3, 4], [2, 4, 3]
  Tensor b, bt;      // [2, 4, 5], [2, 5, 4]
  Tensor big;        // [130, 128]: above the 16,384-element elementwise grain

  explicit CoverageInputs(float s)
      : x(Iota({6, 8}, 0.25f * s)),
        y(Iota({6, 8}, -0.125f * s)),
        c(Iota({6, 8}, 0.0625f * s)),
        gates(Iota({6, 32}, 0.2f * s)),
        w(Iota({8, 8}, 0.05f * s)),
        bias(Iota({1, 8}, 0.1f * s)),
        wg(Iota({8, 32}, -0.03f * s)),
        bg(Iota({1, 32}, 0.02f * s)),
        a(Iota({2, 3, 4}, 0.3f * s)),
        at(Iota({2, 4, 3}, -0.2f * s)),
        b(Iota({2, 4, 5}, 0.15f * s)),
        bt(Iota({2, 5, 4}, 0.35f * s)),
        big(Iota({130, 128}, 0.01f * s)) {}

  std::vector<const Tensor*> List() const {
    return {&x, &y, &c, &gates, &w, &bias, &wg, &bg, &a, &at, &b, &bt, &big};
  }
};

/// Weights and masks the body reads from outside the session: captured as
/// constants, so their products pack into fused PlanGemm steps.
struct CoverageConstants {
  Tensor w = Iota({8, 8}, 0.07f);
  Tensor w2 = Iota({8, 8}, -0.04f);
  Tensor bias = Iota({1, 8}, 0.09f);
  Tensor wx = Iota({8, 32}, 0.03f);
  Tensor wh = Iota({8, 32}, -0.05f);
  Tensor bg = Iota({1, 32}, 0.01f);
  Tensor mask = Tensor::FromVector(
      {6, 8}, {0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0,
               0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1,
               1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0});
};

/// Uses every op that has a plan step at least once, fused and unfused, and
/// folds all results into one row so every step stays live.
Tensor CoverageBody(const CoverageInputs& in, const CoverageConstants& k,
                    Rng* rng) {
  std::vector<Tensor> rows;
  auto keep = [&rows](const Tensor& t) {
    rows.push_back(Reshape(t, {1, t.size()}));
  };
  const Tensor& x = in.x;
  const Tensor& y = in.y;
  // Elementwise, scalar and broadcast.
  keep(Add(x, y));
  keep(Sub(x, y));
  keep(Mul(x, y));
  keep(Div(x, AddScalar(Abs(y), 1.0f)));
  keep(BroadcastAdd(x, Slice(y, 1, 0, 1)));
  keep(BroadcastMul(x, Slice(y, 0, 2, 3)));
  keep(Neg(x));
  keep(Relu(x));
  keep(Tanh(x));
  keep(Sigmoid(x));
  keep(Exp(MulScalar(x, 0.5f)));
  keep(LogClamped(x, 1e-3f));
  keep(Square(x));
  keep(Sqrt(x));
  keep(Clamp(x, -0.5f, 0.75f));
  // Chunked elementwise replay.
  keep(Tanh(Add(in.big, MulScalar(in.big, 2.0f))));
  keep(Sigmoid(Mul(in.big, in.big)));
  // Generic products (weights are session inputs).
  keep(MatMul(x, Transpose(y)));
  keep(Affine(x, in.w, in.bias));
  keep(AddMatMul(x, in.w, y, Transpose(in.w)));
  keep(LinearGates(x, in.wg, y, in.wg, in.bg));
  keep(BatchMatMul(in.a, in.b, false, false));
  keep(BatchMatMul(in.a, in.bt, false, true));
  keep(BatchMatMul(in.at, in.b, true, false));
  keep(BatchMatMul(in.at, in.bt, true, true));
  // Packed products with folded epilogues (weights are constants).
  keep(Relu(MatMul(x, k.w)));
  keep(Tanh(Affine(x, k.w, k.bias)));
  keep(Sigmoid(AddMatMul(x, k.w, y, k.w2)));
  Tensor gates = LinearGates(x, k.wx, y, k.wh, k.bg);
  // LSTM: a C/H pair over one gate buffer fuses; the lone C and H do not.
  Tensor cn = LstmCellC(gates, in.c);
  keep(LstmCellH(gates, cn));
  keep(cn);
  keep(LstmCellC(in.gates, in.c));
  keep(LstmCellH(in.gates, in.c));
  // Softmax and masking, unfused and fused.
  keep(Softmax(Add(x, y)));
  keep(Add(MaskedFill(x, k.mask, -3.0f), y));
  keep(Softmax(MaskedFill(MulScalar(x, 0.25f), k.mask, -1e9f)));
  // Reductions.
  keep(SumAxis(x, 0));
  keep(MeanAxis(x, 1, /*keepdim=*/true));
  keep(MaxAxis(x, 1));
  keep(MaxAxis(in.a, 0, /*keepdim=*/true));
  // Structure and copies.
  keep(Concat({x, y, in.c}, 1));
  keep(Slice(in.a, 2, 1, 3));
  keep(Stack({x, y}));
  keep(Transpose(x));
  keep(GradReverse(x, 0.5f));
  keep(x.Detach());
  // Rng draws.
  keep(Tensor::Randn({3, 5}, rng, 0.5f));
  keep(Tensor::Rand({4, 2}, rng, -1.0f, 2.0f));
  return Concat(rows, 1);
}

TEST_F(PlanTest, EveryRecordableOpReplaysBitIdentically) {
  const int threads_before = parallel::NumThreads();
  const CoverageConstants k;
  const CoverageInputs in1(1.0f), in2(-1.5f);
  std::vector<Tensor> replayed_by_threads;
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    parallel::Configure(threads);
    plan::SetMode(plan::Mode::kOn);
    plan::PlanCache cache;
    Rng planned_rng(7);
    Tensor captured = RunPlanned(&cache, "k", in1.List(), &planned_rng, [&] {
      return CoverageBody(in1, k, &planned_rng);
    });
    Tensor replayed = RunPlanned(&cache, "k", in2.List(), &planned_rng, [&] {
      return CoverageBody(in2, k, &planned_rng);
    });
    plan::CacheStats s = cache.stats();
    EXPECT_EQ(s.captures, 1);
    EXPECT_EQ(s.hits, 1);
    EXPECT_EQ(s.aborted, 0);
    EXPECT_GT(s.fused_steps, 0);

    plan::SetMode(plan::Mode::kOff);
    Rng eager_rng(7);
    ExpectBitIdentical(captured, CoverageBody(in1, k, &eager_rng));
    ExpectBitIdentical(replayed, CoverageBody(in2, k, &eager_rng));
    replayed_by_threads.push_back(replayed);
  }
  ExpectBitIdentical(replayed_by_threads[0], replayed_by_threads[1]);
  parallel::Configure(threads_before);
}

TEST_F(PlanTest, OpWithoutAStepAbortsToEager) {
  plan::PlanCache cache;
  Tensor x = Iota({3, 4}, 0.5f);
  // Sum has no plan step: the op-output balance catches it.
  auto body = [&] { return BroadcastAdd(x, Reshape(Sum(x), {1, 1})); };
  Tensor first = RunPlanned(&cache, "k", {&x}, nullptr, body);
  Tensor second = RunPlanned(&cache, "k", {&x}, nullptr, body);
  plan::CacheStats s = cache.stats();
  EXPECT_EQ(s.aborted, 1);
  EXPECT_EQ(s.plans, 0);
  EXPECT_EQ(s.hits, 0);
  plan::SetMode(plan::Mode::kOff);
  ExpectBitIdentical(first, body());
  ExpectBitIdentical(second, body());
}

TEST_F(PlanTest, ModeOffIsInert) {
  plan::SetMode(plan::Mode::kOff);
  plan::PlanCache cache;
  Tensor x = Iota({2, 5}, 1.0f);
  auto body = [&] {
    EXPECT_FALSE(plan::Recording());
    return Softmax(x);
  };
  for (int call = 0; call < 2; ++call) {
    (void)RunPlanned(&cache, "k", {&x}, nullptr, body);
  }
  plan::CacheStats s = cache.stats();
  EXPECT_EQ(s.plans, 0);
  EXPECT_EQ(s.captures, 0);
  EXPECT_EQ(s.hits, 0);
}

}  // namespace
}  // namespace adaptraj
