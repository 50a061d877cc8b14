// Kernel-layer verification: the blocked GEMM against the serial reference,
// gradchecks for the fused LinearGates / LSTM-cell ops, equivalence of the
// fused LSTM step with the composed-op formulation, run-to-run determinism,
// and buffer-pool reuse accounting.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/buffer_pool.h"
#include "tensor/gradcheck.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace adaptraj {
namespace {

using namespace ops;  // NOLINT(build/namespaces)

Tensor Leaf(const Shape& shape, Rng* rng, float scale = 0.5f) {
  return Tensor::Randn(shape, rng, scale, /*requires_grad=*/true);
}

void ExpectGradOk(const std::function<Tensor(const std::vector<Tensor>&)>& fn,
                  std::vector<Tensor> inputs) {
  auto report = CheckGradients(fn, std::move(inputs));
  EXPECT_TRUE(report.ok) << "max_abs_error=" << report.max_abs_error
                         << " max_rel_error=" << report.max_rel_error
                         << " worst at input " << report.worst_input
                         << " flat index " << report.worst_index;
}

std::vector<float> RandomVec(int64_t n, Rng* rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng->Normal(0.0f, 1.0f);
  return v;
}

// --- Gemm vs the serial reference -------------------------------------------

TEST(KernelsTest, GemmMatchesNaiveAllTransposeVariants) {
  Rng rng(7);
  // Deliberately awkward sizes: not multiples of the 4-row micro-tile or the
  // k-blocking, to exercise every remainder path.
  const int64_t m = 37, n = 29, k = 53;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (bool acc : {false, true}) {
        std::vector<float> a = RandomVec(m * k, &rng);
        std::vector<float> b = RandomVec(k * n, &rng);
        std::vector<float> c_fast = RandomVec(m * n, &rng);
        std::vector<float> c_ref = c_fast;
        kernels::Gemm(ta, tb, m, n, k, a.data(), b.data(), c_fast.data(), acc);
        kernels::GemmNaive(ta, tb, m, n, k, a.data(), b.data(), c_ref.data(), acc);
        for (int64_t i = 0; i < m * n; ++i) {
          ASSERT_NEAR(c_fast[i], c_ref[i], 1e-4f)
              << "ta=" << ta << " tb=" << tb << " acc=" << acc << " i=" << i;
        }
      }
    }
  }
}

// --- Seed determinism ----------------------------------------------------------

TEST(KernelsTest, LstmStepDeterministicAcrossRuns) {
  auto run = [](std::vector<float>* h_out, std::vector<float>* grad_out) {
    Rng rng(123);  // same seed both runs
    Tensor x = Leaf({32, 16}, &rng);
    Tensor w_ih = Leaf({16, 256}, &rng);
    Tensor w_hh = Leaf({64, 256}, &rng);
    Tensor bias = Leaf({1, 256}, &rng);
    Tensor h0 = Tensor::Randn({32, 64}, &rng, 0.5f);
    Tensor c0 = Tensor::Randn({32, 64}, &rng, 0.5f);
    Tensor gates = LinearGates(x, w_ih, h0, w_hh, bias);
    Tensor c1 = LstmCellC(gates, c0);
    Tensor h1 = LstmCellH(gates, c1);
    Sum(Square(h1)).Backward();
    h_out->assign(h1.data(), h1.data() + h1.size());
    Tensor gw = w_ih.grad();
    grad_out->assign(gw.data(), gw.data() + gw.size());
  };
  std::vector<float> h_a, g_a, h_b, g_b;
  run(&h_a, &g_a);
  run(&h_b, &g_b);
  ASSERT_EQ(h_a.size(), h_b.size());
  for (size_t i = 0; i < h_a.size(); ++i) ASSERT_EQ(h_a[i], h_b[i]);
  ASSERT_EQ(g_a.size(), g_b.size());
  for (size_t i = 0; i < g_a.size(); ++i) ASSERT_EQ(g_a[i], g_b[i]);
}

// --- MatMul autograd through the fast path ----------------------------------

TEST(KernelsTest, MatMulGradientNonSquare) {
  Rng rng(3);
  ExpectGradOk(
      [](const std::vector<Tensor>& in) { return Sum(MatMul(in[0], in[1])); },
      {Leaf({5, 7}, &rng), Leaf({7, 3}, &rng)});
}

TEST(KernelsTest, MatMulGradientWithDenseDownstream) {
  Rng rng(4);
  // Square(·) makes dY dense and non-uniform, exercising both backward GEMMs.
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(MatMul(in[0], in[1])));
      },
      {Leaf({4, 6}, &rng), Leaf({6, 5}, &rng)});
}

// --- Fused LinearGates / AddMatMul ------------------------------------------

TEST(KernelsTest, AddMatMulMatchesComposedOps) {
  Rng rng(5);
  Tensor a = Tensor::Randn({6, 4}, &rng);
  Tensor wa = Tensor::Randn({4, 8}, &rng);
  Tensor b = Tensor::Randn({6, 3}, &rng);
  Tensor wb = Tensor::Randn({3, 8}, &rng);
  Tensor fused = AddMatMul(a, wa, b, wb);
  Tensor composed = Add(MatMul(a, wa), MatMul(b, wb));
  ASSERT_EQ(fused.shape(), composed.shape());
  for (int64_t i = 0; i < fused.size(); ++i) {
    EXPECT_NEAR(fused.flat(i), composed.flat(i), 1e-5f) << "i=" << i;
  }
}

TEST(KernelsTest, AffineMatchesComposedOpsBitExactly) {
  Rng rng(15);
  Tensor x = Tensor::Randn({5, 3}, &rng);
  Tensor w = Tensor::Randn({3, 7}, &rng);
  Tensor bias = Tensor::Randn({1, 7}, &rng);
  Tensor fused = Affine(x, w, bias);
  Tensor composed = BroadcastAdd(MatMul(x, w), bias);
  ASSERT_EQ(fused.shape(), composed.shape());
  // Same Gemm then the same per-element add: bit-equal, not just close.
  for (int64_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(fused.flat(i), composed.flat(i)) << "i=" << i;
  }
}

TEST(KernelsTest, AffineGradientAllInputs) {
  Rng rng(16);
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(Affine(in[0], in[1], in[2])));
      },
      {Leaf({3, 4}, &rng), Leaf({4, 6}, &rng), Leaf({1, 6}, &rng)});
}

TEST(KernelsTest, LinearGatesGradientAllInputs) {
  Rng rng(6);
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(LinearGates(in[0], in[1], in[2], in[3], in[4])));
      },
      {Leaf({3, 4}, &rng), Leaf({4, 8}, &rng), Leaf({3, 2}, &rng), Leaf({2, 8}, &rng),
       Leaf({1, 8}, &rng)});
}

TEST(KernelsTest, LinearGatesMatchesComposedOps) {
  Rng rng(8);
  Tensor x = Tensor::Randn({5, 3}, &rng);
  Tensor w_x = Tensor::Randn({3, 12}, &rng);
  Tensor h = Tensor::Randn({5, 6}, &rng);
  Tensor w_h = Tensor::Randn({6, 12}, &rng);
  Tensor bias = Tensor::Randn({1, 12}, &rng);
  Tensor fused = LinearGates(x, w_x, h, w_h, bias);
  Tensor composed = BroadcastAdd(Add(MatMul(x, w_x), MatMul(h, w_h)), bias);
  for (int64_t i = 0; i < fused.size(); ++i) {
    EXPECT_NEAR(fused.flat(i), composed.flat(i), 1e-5f) << "i=" << i;
  }
}

// --- Fused LSTM cell ops -----------------------------------------------------

TEST(KernelsTest, LstmCellCGradient) {
  Rng rng(9);
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(LstmCellC(in[0], in[1])));
      },
      {Leaf({2, 12}, &rng), Leaf({2, 3}, &rng)});
}

TEST(KernelsTest, LstmCellHGradient) {
  Rng rng(10);
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(LstmCellH(in[0], in[1])));
      },
      {Leaf({2, 12}, &rng), Leaf({2, 3}, &rng)});
}

TEST(KernelsTest, FusedLstmStepMatchesComposedFormulation) {
  Rng rng(12);
  const int64_t batch = 4, hidden = 5;
  Tensor gates = Tensor::Randn({batch, 4 * hidden}, &rng).set_requires_grad(true);
  Tensor c_prev = Tensor::Randn({batch, hidden}, &rng).set_requires_grad(true);

  // Fused path.
  Tensor c_f = LstmCellC(gates, c_prev);
  Tensor h_f = LstmCellH(gates, c_f);
  Tensor loss_f = Sum(Square(h_f));
  loss_f.Backward();
  Tensor g_gates_f = gates.grad();
  Tensor g_c_f = c_prev.grad();
  gates.ZeroGrad();
  c_prev.ZeroGrad();

  // Composed-op reference (the pre-fusion LstmCell::Forward formulation).
  Tensor i_gate = Sigmoid(Slice(gates, 1, 0, hidden));
  Tensor f_gate = Sigmoid(Slice(gates, 1, hidden, 2 * hidden));
  Tensor g_gate = Tanh(Slice(gates, 1, 2 * hidden, 3 * hidden));
  Tensor o_gate = Sigmoid(Slice(gates, 1, 3 * hidden, 4 * hidden));
  Tensor c_r = Add(Mul(f_gate, c_prev), Mul(i_gate, g_gate));
  Tensor h_r = Mul(o_gate, Tanh(c_r));
  Tensor loss_r = Sum(Square(h_r));
  loss_r.Backward();

  EXPECT_NEAR(loss_f.item(), loss_r.item(), 1e-4f);
  for (int64_t i = 0; i < c_f.size(); ++i) {
    EXPECT_NEAR(c_f.flat(i), c_r.flat(i), 1e-5f);
    EXPECT_NEAR(h_f.flat(i), h_r.flat(i), 1e-5f);
  }
  Tensor g_gates_r = gates.grad();
  Tensor g_c_r = c_prev.grad();
  for (int64_t i = 0; i < g_gates_f.size(); ++i) {
    EXPECT_NEAR(g_gates_f.flat(i), g_gates_r.flat(i), 1e-4f) << "gate grad " << i;
  }
  for (int64_t i = 0; i < g_c_f.size(); ++i) {
    EXPECT_NEAR(g_c_f.flat(i), g_c_r.flat(i), 1e-4f) << "cell grad " << i;
  }
}

// --- SIMD transcendentals ----------------------------------------------------

/// Bit-level ULP distance between two same-sign floats (monotone int map).
int64_t UlpDiff(float a, float b) {
  int32_t ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  if (ia < 0) ia = static_cast<int32_t>(0x80000000u) - ia;
  if (ib < 0) ib = static_cast<int32_t>(0x80000000u) - ib;
  return std::llabs(static_cast<int64_t>(ia) - static_cast<int64_t>(ib));
}

/// Pins the path, restores kAuto on scope exit.
struct ScopedTranscendentalPath {
  explicit ScopedTranscendentalPath(kernels::TranscendentalPath p) {
    kernels::SetTranscendentalPath(p);
  }
  ~ScopedTranscendentalPath() {
    kernels::SetTranscendentalPath(kernels::TranscendentalPath::kAuto);
  }
};

TEST(SimdTranscendentalsTest, ExpWithinUlpBoundOfLibm) {
  ScopedTranscendentalPath simd(kernels::TranscendentalPath::kSimd);
  if (!kernels::SimdTranscendentalsActive()) GTEST_SKIP() << "no SIMD support";
  const int64_t n = 40001;
  std::vector<float> x(n), y(n);
  for (int64_t i = 0; i < n; ++i) {
    x[i] = -87.0f + 175.0f * static_cast<float>(i) / static_cast<float>(n - 1);
  }
  kernels::ExpForward(x.data(), y.data(), n);
  int64_t max_ulp = 0;
  float max_rel = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    const float ref = std::exp(x[i]);
    max_ulp = std::max(max_ulp, UlpDiff(y[i], ref));
    max_rel = std::max(max_rel, std::fabs(y[i] - ref) / ref);
  }
  // Measured: 1 ulp / 1.2e-7 relative on this sweep; asserted with slack.
  EXPECT_LE(max_ulp, 4) << "max_rel=" << max_rel;
  EXPECT_LE(max_rel, 5e-7f);
}

TEST(SimdTranscendentalsTest, TanhAndSigmoidWithinAbsBounds) {
  ScopedTranscendentalPath simd(kernels::TranscendentalPath::kSimd);
  if (!kernels::SimdTranscendentalsActive()) GTEST_SKIP() << "no SIMD support";
  const int64_t n = 40001;
  std::vector<float> x(n), y(n);
  for (int64_t i = 0; i < n; ++i) {
    x[i] = -30.0f + 60.0f * static_cast<float>(i) / static_cast<float>(n - 1);
  }
  kernels::TanhForward(x.data(), y.data(), n);
  float max_tanh = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    max_tanh = std::max(max_tanh, std::fabs(y[i] - std::tanh(x[i])));
  }
  // Measured: 1.8e-7 (tanh), 1.2e-7 (sigmoid); asserted with slack.
  EXPECT_LE(max_tanh, 5e-7f);
  kernels::SigmoidForward(x.data(), y.data(), n);
  float max_sig = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    const float ref = 1.0f / (1.0f + std::exp(-x[i]));
    max_sig = std::max(max_sig, std::fabs(y[i] - ref));
  }
  EXPECT_LE(max_sig, 5e-7f);
  // Saturation must be exact and finite at the extremes.
  float ext[4] = {-1e4f, 1e4f, -200.0f, 200.0f};
  float out[4];
  kernels::TanhForward(ext, out, 4);
  EXPECT_FLOAT_EQ(out[0], -1.0f);
  EXPECT_FLOAT_EQ(out[1], 1.0f);
  kernels::SigmoidForward(ext, out, 4);
  EXPECT_NEAR(out[0], 0.0f, 1e-30f);  // saturates to a denormal, not exact 0
  EXPECT_FLOAT_EQ(out[1], 1.0f);
}

TEST(SimdTranscendentalsTest, NanPropagatesLikeLibm) {
  ScopedTranscendentalPath simd(kernels::TranscendentalPath::kSimd);
  // A diverged activation must stay NaN on the SIMD path so blown-up
  // training surfaces identically under either path.
  float x[3] = {std::nanf(""), 0.0f, 2.0f};
  float y[3];
  kernels::ExpForward(x, y, 3);
  EXPECT_TRUE(std::isnan(y[0]));
  EXPECT_FLOAT_EQ(y[1], 1.0f);
  kernels::TanhForward(x, y, 3);
  EXPECT_TRUE(std::isnan(y[0]));
  kernels::SigmoidForward(x, y, 3);
  EXPECT_TRUE(std::isnan(y[0]));
}

TEST(SimdTranscendentalsTest, RemainderElementsMatchFullVectorPath) {
  ScopedTranscendentalPath simd(kernels::TranscendentalPath::kSimd);
  if (!kernels::SimdTranscendentalsActive()) GTEST_SKIP() << "no SIMD support";
  // The same element must produce the same bits whether it lands in a full
  // 16-wide block or in the zero-padded tail — this is what makes results
  // independent of how ranges are chunked.
  Rng rng(31);
  std::vector<float> x(45);
  for (auto& v : x) v = rng.Normal(0.0f, 2.0f);
  std::vector<float> full(45), split(45);
  kernels::ExpForward(x.data(), full.data(), 45);
  kernels::ExpForward(x.data(), split.data(), 7);          // all-tail call
  kernels::ExpForward(x.data() + 7, split.data() + 7, 38);  // shifted blocks
  for (int64_t i = 0; i < 45; ++i) {
    ASSERT_EQ(full[i], split[i]) << "chunk-dependent bits at " << i;
  }
}

TEST(SimdTranscendentalsTest, SoftmaxRowSimdCloseToScalarAndNormalized) {
  Rng rng(32);
  std::vector<float> x(37), y_simd(37), y_scalar(37);
  for (auto& v : x) v = rng.Normal(0.0f, 3.0f);
  {
    ScopedTranscendentalPath simd(kernels::TranscendentalPath::kSimd);
    if (!kernels::SimdTranscendentalsActive()) GTEST_SKIP() << "no SIMD support";
    kernels::SoftmaxRow(x.data(), y_simd.data(), 37);
  }
  {
    ScopedTranscendentalPath scalar(kernels::TranscendentalPath::kScalar);
    kernels::SoftmaxRow(x.data(), y_scalar.data(), 37);
  }
  float sum = 0.0f;
  for (int64_t i = 0; i < 37; ++i) {
    EXPECT_NEAR(y_simd[i], y_scalar[i], 1e-6f) << "i=" << i;
    sum += y_simd[i];
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST(SimdTranscendentalsTest, FusedLstmKernelsMatchScalarPath) {
  Rng rng(33);
  const int64_t batch = 5, hidden = 23;  // odd extent exercises the tail
  std::vector<float> gates(batch * 4 * hidden), c_prev(batch * hidden),
      dc(batch * hidden), dh(batch * hidden);
  for (auto& v : gates) v = rng.Normal(0.0f, 1.5f);
  for (auto& v : c_prev) v = rng.Normal(0.0f, 1.0f);
  for (auto& v : dc) v = rng.Normal(0.0f, 1.0f);
  for (auto& v : dh) v = rng.Normal(0.0f, 1.0f);

  auto run = [&](kernels::TranscendentalPath path, std::vector<float>* c_next,
                 std::vector<float>* h_next, std::vector<float>* d_gates,
                 std::vector<float>* d_cprev) {
    ScopedTranscendentalPath p(path);
    c_next->assign(batch * hidden, 0.0f);
    h_next->assign(batch * hidden, 0.0f);
    d_gates->assign(batch * 4 * hidden, 0.0f);
    d_cprev->assign(batch * hidden, 0.0f);
    kernels::LstmCellForwardC(gates.data(), c_prev.data(), batch, hidden,
                              c_next->data());
    kernels::LstmCellForwardH(gates.data(), c_next->data(), batch, hidden,
                              h_next->data());
    kernels::LstmCellBackwardC(gates.data(), c_prev.data(), dc.data(), batch,
                               hidden, d_gates->data(), d_cprev->data());
    kernels::LstmCellBackwardH(gates.data(), c_next->data(), dh.data(), batch,
                               hidden, d_gates->data(), d_cprev->data());
  };
  // On platforms without vector support the kSimd run falls back to scalar
  // and the comparison is trivially exact.
  std::vector<float> c_s, h_s, dg_s, dcp_s, c_v, h_v, dg_v, dcp_v;
  run(kernels::TranscendentalPath::kScalar, &c_s, &h_s, &dg_s, &dcp_s);
  run(kernels::TranscendentalPath::kSimd, &c_v, &h_v, &dg_v, &dcp_v);
  for (int64_t i = 0; i < batch * hidden; ++i) {
    EXPECT_NEAR(c_v[i], c_s[i], 2e-6f) << "c_next " << i;
    EXPECT_NEAR(h_v[i], h_s[i], 2e-6f) << "h_next " << i;
    EXPECT_NEAR(dcp_v[i], dcp_s[i], 2e-6f) << "d_c_prev " << i;
  }
  for (int64_t i = 0; i < batch * 4 * hidden; ++i) {
    EXPECT_NEAR(dg_v[i], dg_s[i], 2e-6f) << "d_gates " << i;
  }
}

// --- Buffer pool -------------------------------------------------------------

TEST(KernelsTest, BufferPoolRecyclesOpOutputs) {
  internal::ClearBufferPool();
  Rng rng(13);
  Tensor a = Tensor::Randn({64, 64}, &rng);
  Tensor b = Tensor::Randn({64, 64}, &rng);
  // Repeated same-shape ops in a scope: after the first iteration frees its
  // outputs, subsequent iterations should be served from the pool.
  for (int i = 0; i < 10; ++i) {
    Tensor c = Relu(MatMul(a, b));
    (void)c;
  }
  auto stats = internal::GetBufferPoolStats();
  EXPECT_GT(stats.reuses, 10) << "acquires=" << stats.acquires
                              << " reuses=" << stats.reuses;
}

}  // namespace
}  // namespace adaptraj
