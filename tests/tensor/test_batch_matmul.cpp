// Batched 3-D GEMM verification: the BatchGemm kernel against its serial
// reference, BatchMatMul gradchecks across every transpose variant and batch
// size (including B = 0), equivalence with the per-slice Slice/MatMul/
// Transpose/Concat formulation it replaced, the 3-D last-axis Softmax path,
// and bit-determinism of the batched attention pipeline on pool workers.

#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/gradcheck.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"

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

// --- BatchGemm kernel vs the serial reference --------------------------------

TEST(BatchGemmTest, MatchesNaiveAllTransposeVariants) {
  Rng rng(21);
  // Awkward extents: not multiples of the micro-tile or the row grain.
  const int64_t batch = 3, m = 37, n = 29, k = 53;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (bool acc : {false, true}) {
        std::vector<float> a = RandomVec(batch * m * k, &rng);
        std::vector<float> b = RandomVec(batch * k * n, &rng);
        std::vector<float> c_fast = RandomVec(batch * m * n, &rng);
        std::vector<float> c_ref = c_fast;
        kernels::BatchGemm(ta, tb, batch, m, n, k, a.data(), b.data(),
                           c_fast.data(), acc);
        kernels::BatchGemmNaive(ta, tb, batch, m, n, k, a.data(), b.data(),
                                c_ref.data(), acc);
        for (int64_t i = 0; i < batch * m * n; ++i) {
          ASSERT_NEAR(c_fast[i], c_ref[i], 1e-4f)
              << "ta=" << ta << " tb=" << tb << " acc=" << acc << " i=" << i;
        }
      }
    }
  }
}

TEST(BatchGemmTest, ZeroBatchAndZeroInnerDimAreNative) {
  // batch == 0: nothing to touch.
  kernels::BatchGemm(false, false, 0, 4, 4, 4, nullptr, nullptr, nullptr, false);
  // k == 0 zeroes (or preserves, when accumulating) the output.
  std::vector<float> c = {1.0f, 2.0f, 3.0f, 4.0f};
  kernels::BatchGemm(false, false, 1, 2, 2, 0, nullptr, nullptr, c.data(), true);
  EXPECT_FLOAT_EQ(c[0], 1.0f);
  kernels::BatchGemm(false, false, 1, 2, 2, 0, nullptr, nullptr, c.data(), false);
  EXPECT_FLOAT_EQ(c[0], 0.0f);
  EXPECT_FLOAT_EQ(c[3], 0.0f);
}

// --- BatchMatMul op ----------------------------------------------------------

TEST(BatchMatMulTest, ForwardMatchesPerSliceLoop) {
  Rng rng(23);
  const int64_t batch = 3, m = 5, k = 4, n = 6;
  Tensor a = Tensor::Randn({batch, m, k}, &rng);
  Tensor b = Tensor::Randn({batch, k, n}, &rng);
  Tensor batched = BatchMatMul(a, b);
  ASSERT_EQ(batched.shape(), (Shape{batch, m, n}));
  Tensor a2 = Reshape(a, {batch * m, k});
  Tensor b2 = Reshape(b, {batch * k, n});
  for (int64_t bi = 0; bi < batch; ++bi) {
    Tensor y = MatMul(Slice(a2, 0, bi * m, (bi + 1) * m),
                      Slice(b2, 0, bi * k, (bi + 1) * k));
    for (int64_t i = 0; i < m * n; ++i) {
      EXPECT_NEAR(batched.flat(bi * m * n + i), y.flat(i), 1e-5f)
          << "slice " << bi << " element " << i;
    }
  }
}

TEST(BatchMatMulTest, TransposeVariantsMatchExplicitTransposes) {
  Rng rng(24);
  const int64_t batch = 2, m = 3, k = 5, n = 4;
  Tensor a = Tensor::Randn({batch, m, k}, &rng);   // plain layouts
  Tensor b = Tensor::Randn({batch, k, n}, &rng);
  Tensor want = BatchMatMul(a, b);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      // Build physically transposed operands slice by slice.
      Tensor at = a, bt = b;
      if (ta) {
        std::vector<Tensor> slices;
        Tensor a2 = Reshape(a, {batch * m, k});
        for (int64_t bi = 0; bi < batch; ++bi) {
          slices.push_back(Transpose(Slice(a2, 0, bi * m, (bi + 1) * m)));
        }
        at = Stack(slices);  // [batch, k, m]
      }
      if (tb) {
        std::vector<Tensor> slices;
        Tensor b2 = Reshape(b, {batch * k, n});
        for (int64_t bi = 0; bi < batch; ++bi) {
          slices.push_back(Transpose(Slice(b2, 0, bi * k, (bi + 1) * k)));
        }
        bt = Stack(slices);  // [batch, n, k]
      }
      Tensor got = BatchMatMul(at, bt, ta, tb);
      ASSERT_EQ(got.shape(), want.shape()) << "ta=" << ta << " tb=" << tb;
      for (int64_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got.flat(i), want.flat(i), 1e-5f)
            << "ta=" << ta << " tb=" << tb << " i=" << i;
      }
    }
  }
}

TEST(BatchMatMulTest, GradCheckAllTransposeVariantsAndBatchSizes) {
  const int64_t m = 3, k = 4, n = 2;
  for (int64_t batch : {int64_t{1}, int64_t{3}}) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        Rng rng(100 + static_cast<uint64_t>(batch) + (ta ? 10 : 0) + (tb ? 20 : 0));
        Shape a_shape = ta ? Shape{batch, k, m} : Shape{batch, m, k};
        Shape b_shape = tb ? Shape{batch, n, k} : Shape{batch, k, n};
        SCOPED_TRACE(::testing::Message() << "batch=" << batch << " ta=" << ta
                                          << " tb=" << tb);
        ExpectGradOk(
            [ta, tb](const std::vector<Tensor>& in) {
              return Sum(Square(BatchMatMul(in[0], in[1], ta, tb)));
            },
            {Leaf(a_shape, &rng), Leaf(b_shape, &rng)});
      }
    }
  }
}

TEST(BatchMatMulTest, ZeroBatchForwardAndBackward) {
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      Shape a_shape = ta ? Shape{0, 4, 3} : Shape{0, 3, 4};
      Shape b_shape = tb ? Shape{0, 2, 4} : Shape{0, 4, 2};
      Tensor a = Tensor::Zeros(a_shape, /*requires_grad=*/true);
      Tensor b = Tensor::Zeros(b_shape, /*requires_grad=*/true);
      Tensor y = BatchMatMul(a, b, ta, tb);
      ASSERT_EQ(y.shape(), (Shape{0, 3, 2})) << "ta=" << ta << " tb=" << tb;
      // Backward over the empty graph must be a clean no-op.
      Tensor loss = Sum(y);
      EXPECT_FLOAT_EQ(loss.item(), 0.0f);
      loss.Backward();
      EXPECT_EQ(a.grad().size(), 0);
      EXPECT_EQ(b.grad().size(), 0);
    }
  }
}

TEST(BatchMatMulDeathTest, RejectsMismatchedShapes) {
  Tensor a = Tensor::Zeros({2, 3, 4});
  EXPECT_DEATH(BatchMatMul(a, Tensor::Zeros({2, 5, 6})), "inner dims differ");
  EXPECT_DEATH(BatchMatMul(a, Tensor::Zeros({3, 4, 6})), "batch extents differ");
  EXPECT_DEATH(BatchMatMul(a, Tensor::Zeros({8, 6})), "3-D operands");
}

// --- 3-D Softmax (last axis) -------------------------------------------------

TEST(Softmax3Test, MatchesPerSliceSoftmax) {
  Rng rng(25);
  const int64_t batch = 4, t = 5;
  Tensor x = Tensor::Randn({batch, t, t}, &rng, 2.0f);
  Tensor y = Softmax(x);
  ASSERT_EQ(y.shape(), (Shape{batch, t, t}));
  Tensor x2 = Reshape(x, {batch * t, t});
  Tensor y2 = Softmax(x2);
  for (int64_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y.flat(i), y2.flat(i), 1e-6f) << "i=" << i;
  }
  // Every key row normalizes independently.
  for (int64_t r = 0; r < batch * t; ++r) {
    float sum = 0.0f;
    for (int64_t c = 0; c < t; ++c) sum += y.flat(r * t + c);
    EXPECT_NEAR(sum, 1.0f, 1e-5f) << "row " << r;
  }
}

TEST(Softmax3Test, LastAxisGradCheck) {
  Rng rng(26);
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(Softmax(in[0])));
      },
      {Leaf({2, 3, 4}, &rng, 1.0f)});
}

// --- Concat with zero-extent parts ------------------------------------------

TEST(ConcatTest, ZeroExtentPartsFlowThrough) {
  // B = 0 activations ([0, D] and [0, T, D]) must concatenate natively.
  Tensor a = Tensor::Zeros({0, 3});
  Tensor b = Tensor::Zeros({0, 3});
  Tensor c = Concat({a, b}, 0);
  EXPECT_EQ(c.shape(), (Shape{0, 3}));
  Tensor d = Concat({Tensor::Zeros({0, 1, 4}), Tensor::Zeros({0, 2, 4})}, 1);
  EXPECT_EQ(d.shape(), (Shape{0, 3, 4}));
}

// --- Batched attention determinism on pool workers -----------------------------

TEST(BatchMatMulTest, AttentionPipelineBitDeterministicAcrossTrainWorkers) {
  auto run = [](std::vector<float>* out, std::vector<float>* grad) {
    Rng rng(321);
    const int64_t b = 4, t = 6, d = 32;
    Tensor q = Leaf({b, t, d}, &rng);
    Tensor k = Leaf({b, t, d}, &rng);
    Tensor v = Leaf({b, t, d}, &rng);
    Tensor scores = MulScalar(BatchMatMul(q, k, false, true),
                              1.0f / std::sqrt(static_cast<float>(d)));
    Tensor attended = BatchMatMul(Softmax(scores), v);
    Sum(Square(attended)).Backward();
    out->assign(attended.data(), attended.data() + attended.size());
    Tensor gq = q.grad();
    grad->assign(gq.data(), gq.data() + gq.size());
  };
  // The reference runs on the test thread; each copy in a task group runs on
  // whichever worker claims it, with that worker's own buffer pool.
  std::vector<float> y_ref, g_ref;
  run(&y_ref, &g_ref);
  for (int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    parallel::ConfigureTrainWorkers(workers);
    constexpr int kCopies = 6;
    std::vector<std::vector<float>> y(kCopies), g(kCopies);
    std::vector<std::function<void()>> tasks;
    for (int c = 0; c < kCopies; ++c) {
      tasks.push_back([&, c] { run(&y[c], &g[c]); });
    }
    parallel::RunTaskGroup(tasks);
    for (int c = 0; c < kCopies; ++c) {
      ASSERT_EQ(y[c], y_ref) << "fwd, copy " << c;
      ASSERT_EQ(g[c], g_ref) << "bwd, copy " << c;
    }
  }
  parallel::ConfigureTrainWorkers(1);
}

}  // namespace
}  // namespace adaptraj
