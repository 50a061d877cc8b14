// Forward-value tests for every tensor op.

#include "tensor/ops.h"

#include <cmath>

#include <gtest/gtest.h>

namespace adaptraj {
namespace {

using namespace ops;  // NOLINT(build/namespaces)

Tensor Vec(std::vector<float> v) {
  const int64_t n = static_cast<int64_t>(v.size());
  return Tensor::FromVector({n}, std::move(v));
}

TEST(OpsTest, AddSubMulDivElementwise) {
  Tensor a = Vec({1, 2, 3});
  Tensor b = Vec({4, 5, 6});
  EXPECT_FLOAT_EQ(Add(a, b).flat(1), 7.0f);
  EXPECT_FLOAT_EQ(Sub(a, b).flat(1), -3.0f);
  EXPECT_FLOAT_EQ(Mul(a, b).flat(2), 18.0f);
  EXPECT_FLOAT_EQ(Div(b, a).flat(2), 2.0f);
}

TEST(OpsTest, ScalarOps) {
  Tensor a = Vec({1, -2});
  EXPECT_FLOAT_EQ(AddScalar(a, 0.5f).flat(0), 1.5f);
  EXPECT_FLOAT_EQ(MulScalar(a, -3.0f).flat(1), 6.0f);
  EXPECT_FLOAT_EQ(Neg(a).flat(0), -1.0f);
}

TEST(OpsTest, BroadcastAddRowVector) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({1, 3}, {10, 20, 30});
  Tensor c = BroadcastAdd(a, b);
  EXPECT_FLOAT_EQ(c.flat(0), 11.0f);
  EXPECT_FLOAT_EQ(c.flat(4), 25.0f);
  EXPECT_FLOAT_EQ(c.flat(5), 36.0f);
}

TEST(OpsTest, BroadcastMulColumnVector) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({2, 1}, {2, 10});
  Tensor c = BroadcastMul(a, b);
  EXPECT_FLOAT_EQ(c.flat(0), 2.0f);
  EXPECT_FLOAT_EQ(c.flat(3), 40.0f);
}

TEST(OpsTest, BroadcastMul3dLastDimOne) {
  Tensor a = Tensor::FromVector({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor w = Tensor::FromVector({2, 2, 1}, {1, 0, 2, 3});
  Tensor c = BroadcastMul(a, w);
  EXPECT_FLOAT_EQ(c.flat(0), 1.0f);
  EXPECT_FLOAT_EQ(c.flat(2), 0.0f);
  EXPECT_FLOAT_EQ(c.flat(4), 10.0f);
  EXPECT_FLOAT_EQ(c.flat(7), 24.0f);
}

TEST(OpsTest, MatMulKnownValues) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c.flat(0), 58.0f);
  EXPECT_FLOAT_EQ(c.flat(1), 64.0f);
  EXPECT_FLOAT_EQ(c.flat(2), 139.0f);
  EXPECT_FLOAT_EQ(c.flat(3), 154.0f);
}

TEST(OpsTest, MatMulIdentity) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor id = Tensor::FromVector({2, 2}, {1, 0, 0, 1});
  Tensor c = MatMul(a, id);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(c.flat(i), a.flat(i));
}

TEST(OpsTest, TransposeSwapsDims) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(a);
  ASSERT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(t.flat(0), 1.0f);
  EXPECT_FLOAT_EQ(t.flat(1), 4.0f);
  EXPECT_FLOAT_EQ(t.flat(4), 3.0f);
}

TEST(OpsTest, UnaryMath) {
  Tensor a = Vec({-1.0f, 0.0f, 2.0f});
  EXPECT_FLOAT_EQ(Relu(a).flat(0), 0.0f);
  EXPECT_FLOAT_EQ(Relu(a).flat(2), 2.0f);
  EXPECT_NEAR(Tanh(a).flat(2), std::tanh(2.0f), 1e-6);
  EXPECT_NEAR(Sigmoid(a).flat(0), 1.0f / (1.0f + std::exp(1.0f)), 1e-6);
  EXPECT_NEAR(Exp(a).flat(2), std::exp(2.0f), 1e-4);
  EXPECT_FLOAT_EQ(Square(a).flat(0), 1.0f);
  EXPECT_NEAR(Sqrt(Vec({4.0f})).flat(0), 2.0f, 1e-6);
  EXPECT_FLOAT_EQ(Abs(a).flat(0), 1.0f);
}

TEST(OpsTest, LogClampedAvoidsNegativeInfinity) {
  Tensor a = Vec({0.0f, 1.0f});
  Tensor l = LogClamped(a, 1e-6f);
  EXPECT_NEAR(l.flat(0), std::log(1e-6f), 1e-3);
  EXPECT_NEAR(l.flat(1), 0.0f, 1e-6);
}

TEST(OpsTest, ClampLimitsRange) {
  Tensor a = Vec({-5.0f, 0.5f, 5.0f});
  Tensor c = Clamp(a, -1.0f, 1.0f);
  EXPECT_FLOAT_EQ(c.flat(0), -1.0f);
  EXPECT_FLOAT_EQ(c.flat(1), 0.5f);
  EXPECT_FLOAT_EQ(c.flat(2), 1.0f);
}

TEST(OpsTest, SumAndMean) {
  Tensor a = Vec({1, 2, 3, 4});
  EXPECT_FLOAT_EQ(Sum(a).item(), 10.0f);
  EXPECT_FLOAT_EQ(Mean(a).item(), 2.5f);
}

TEST(OpsTest, SumAxisMiddle) {
  Tensor a = Tensor::FromVector({2, 3, 2}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  Tensor s = SumAxis(a, 1);
  ASSERT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(s.flat(0), 9.0f);   // 1+3+5
  EXPECT_FLOAT_EQ(s.flat(1), 12.0f);  // 2+4+6
  EXPECT_FLOAT_EQ(s.flat(2), 27.0f);  // 7+9+11
}

TEST(OpsTest, SumAxisKeepdim) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor s = SumAxis(a, 1, /*keepdim=*/true);
  ASSERT_EQ(s.shape(), (Shape{2, 1}));
  EXPECT_FLOAT_EQ(s.flat(0), 3.0f);
  EXPECT_FLOAT_EQ(s.flat(1), 7.0f);
}

TEST(OpsTest, MeanAxisNegativeIndex) {
  Tensor a = Tensor::FromVector({2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor m = MeanAxis(a, -1);
  ASSERT_EQ(m.shape(), (Shape{2}));
  EXPECT_FLOAT_EQ(m.flat(0), 2.5f);
  EXPECT_FLOAT_EQ(m.flat(1), 6.5f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, -1, 0, 1});
  Tensor s = Softmax(a);
  for (int r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 3; ++c) sum += s.flat(r * 3 + c);
    EXPECT_NEAR(sum, 1.0f, 1e-6);
  }
  EXPECT_GT(s.flat(2), s.flat(1));
  EXPECT_GT(s.flat(1), s.flat(0));
}

TEST(OpsTest, SoftmaxIsShiftInvariantAndStable) {
  Tensor a = Tensor::FromVector({1, 3}, {1000.0f, 1001.0f, 1002.0f});
  Tensor s = Softmax(a);
  Tensor b = Tensor::FromVector({1, 3}, {0.0f, 1.0f, 2.0f});
  Tensor sb = Softmax(b);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(s.flat(i), sb.flat(i), 1e-5);
}

TEST(OpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor a = Tensor::FromVector({1, 4}, {0.5f, -1.0f, 2.0f, 0.0f});
  Tensor ls = LogSoftmax(a);
  Tensor s = Softmax(a);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(ls.flat(i), std::log(s.flat(i)), 1e-5);
}

TEST(OpsTest, SoftmaxAndLogSoftmaxOfZeroWidthAreEmpty) {
  for (auto op : {&Softmax, &LogSoftmax}) {
    Tensor x = Tensor::Zeros({3, 0}, /*requires_grad=*/true);
    Tensor y = op(x);
    EXPECT_EQ(y.shape(), (Shape{3, 0}));
    EXPECT_EQ(y.size(), 0);
    Sum(y).Backward();
    EXPECT_EQ(x.grad().shape(), (Shape{3, 0}));
    EXPECT_EQ(x.grad().size(), 0);
  }
}

TEST(OpsTest, ConcatLastAxis) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 1}, {9, 10});
  Tensor c = Concat({a, b}, 1);
  ASSERT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(c.flat(2), 9.0f);
  EXPECT_FLOAT_EQ(c.flat(5), 10.0f);
}

TEST(OpsTest, ConcatFirstAxis) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor c = Concat({a, b}, 0);
  ASSERT_EQ(c.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(c.flat(0), 1.0f);
  EXPECT_FLOAT_EQ(c.flat(5), 6.0f);
}

TEST(OpsTest, SliceMiddleAxis) {
  Tensor a = Tensor::FromVector({2, 3, 2}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  Tensor s = Slice(a, 1, 1, 3);
  ASSERT_EQ(s.shape(), (Shape{2, 2, 2}));
  EXPECT_FLOAT_EQ(s.flat(0), 3.0f);
  EXPECT_FLOAT_EQ(s.flat(7), 12.0f);
}

TEST(OpsTest, SliceEmptyRange) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor s = Slice(a, 0, 1, 1);
  EXPECT_EQ(s.size(), 0);
}

TEST(OpsTest, StackCreatesLeadingAxis) {
  Tensor a = Vec({1, 2});
  Tensor b = Vec({3, 4});
  Tensor s = Stack({a, b});
  ASSERT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(s.flat(2), 3.0f);
}

TEST(OpsTest, ReshapePreservesData) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(a, {3, 2});
  ASSERT_EQ(r.shape(), (Shape{3, 2}));
  for (int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(r.flat(i), a.flat(i));
}

TEST(OpsTest, GradReverseIsIdentityForward) {
  Tensor a = Vec({1, 2, 3});
  Tensor g = GradReverse(a, 0.5f);
  for (int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(g.flat(i), a.flat(i));
}

TEST(OpsTest, MaskedFillReplacesMaskedEntries) {
  Tensor a = Vec({1, 2, 3});
  Tensor mask = Vec({0, 1, 0});
  Tensor f = MaskedFill(a, mask, -9.0f);
  EXPECT_FLOAT_EQ(f.flat(0), 1.0f);
  EXPECT_FLOAT_EQ(f.flat(1), -9.0f);
  EXPECT_FLOAT_EQ(f.flat(2), 3.0f);
}

TEST(OpsTest, NllLossPicksLabelEntries) {
  Tensor lp = Tensor::FromVector({2, 3}, {-1.0f, -2.0f, -3.0f, -0.5f, -1.5f, -2.5f});
  Tensor loss = NllLoss(lp, {0, 2});
  EXPECT_NEAR(loss.item(), (1.0f + 2.5f) / 2.0f, 1e-6);
}

TEST(OpsTest, OperatorSugar) {
  Tensor a = Vec({1, 2});
  Tensor b = Vec({3, 4});
  EXPECT_FLOAT_EQ((a + b).flat(0), 4.0f);
  EXPECT_FLOAT_EQ((a - b).flat(1), -2.0f);
  EXPECT_FLOAT_EQ((a * b).flat(1), 8.0f);
  EXPECT_FLOAT_EQ((2.0f * a).flat(1), 4.0f);
  EXPECT_FLOAT_EQ((-a).flat(0), -1.0f);
}

}  // namespace
}  // namespace adaptraj
