#include "math/autograd.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "math/rng.h"

namespace cit::ag {
namespace {

using cit::testing::ExpectGradientsMatch;
using math::Rng;
using math::Shape;
using math::Tensor;

Tensor RandTensor(Shape shape, uint64_t seed, float lo = -1.0f,
                  float hi = 1.0f) {
  Rng rng(seed);
  return Tensor::Uniform(std::move(shape), rng, lo, hi);
}

TEST(AutogradBasics, ForwardValuesAndBackwardOnScalar) {
  Var a = Var::Param(Tensor::Scalar(3.0f));
  Var b = Var::Param(Tensor::Scalar(4.0f));
  Var c = Add(Mul(a, b), Square(a));  // 3*4 + 9 = 21
  EXPECT_FLOAT_EQ(c.value().Item(), 21.0f);
  c.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 4.0f + 6.0f);  // b + 2a
  EXPECT_FLOAT_EQ(b.grad()[0], 3.0f);
}

TEST(AutogradBasics, GradAccumulatesAcrossMultipleUses) {
  Var a = Var::Param(Tensor::Scalar(2.0f));
  Var out = Add(a, a);  // uses a twice
  out.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);
}

TEST(AutogradBasics, DetachBlocksGradientFlow) {
  Var a = Var::Param(Tensor::Scalar(2.0f));
  Var out = Mul(a.Detach(), a);  // d/da should be a.detach() = 2, not 4
  out.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);
}

TEST(AutogradBasics, ConstantNodesGetNoGradient) {
  Var a = Var::Constant(Tensor::Scalar(5.0f));
  Var b = Var::Param(Tensor::Scalar(2.0f));
  Var out = Mul(a, b);
  out.Backward();
  EXPECT_FALSE(a.has_grad());
  EXPECT_TRUE(b.has_grad());
}

TEST(AutogradBasics, ZeroGradClearsAccumulation) {
  Var a = Var::Param(Tensor::Scalar(1.0f));
  Var out = MulScalar(a, 3.0f);
  out.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 3.0f);
  a.ZeroGrad();
  EXPECT_FALSE(a.has_grad());
}

// ---- Per-op gradient checks -------------------------------------------------

TEST(GradCheck, AddSameShape) {
  Var a = Var::Param(RandTensor({3, 2}, 1));
  Var b = Var::Param(RandTensor({3, 2}, 2));
  ExpectGradientsMatch([&] { return Sum(Mul(Add(a, b), Add(a, b))); },
                       {a, b});
}

TEST(GradCheck, AddBiasBroadcast) {
  Var a = Var::Param(RandTensor({4, 3}, 3));
  Var bias = Var::Param(RandTensor({3}, 4));
  ExpectGradientsMatch([&] { return Sum(Square(Add(a, bias))); },
                       {a, bias});
}

TEST(GradCheck, AddScalarBroadcast) {
  Var a = Var::Param(RandTensor({5}, 5));
  Var s = Var::Param(Tensor::Scalar(0.7f));
  ExpectGradientsMatch([&] { return Sum(Square(Add(a, s))); }, {a, s});
}

TEST(GradCheck, SubAndNeg) {
  Var a = Var::Param(RandTensor({4}, 6));
  Var b = Var::Param(RandTensor({4}, 7));
  ExpectGradientsMatch([&] { return Sum(Square(Sub(Neg(a), b))); },
                       {a, b});
}

TEST(GradCheck, MulAndDivSameShape) {
  Var a = Var::Param(RandTensor({3, 3}, 8, 0.5f, 1.5f));
  Var b = Var::Param(RandTensor({3, 3}, 9, 0.5f, 1.5f));
  ExpectGradientsMatch([&] { return Sum(Div(Mul(a, b), Add(b, b))); },
                       {a, b});
}

TEST(GradCheck, DivByScalarTensor) {
  Var a = Var::Param(RandTensor({4}, 10, 0.5f, 1.5f));
  Var s = Var::Param(Tensor::Scalar(2.0f));
  ExpectGradientsMatch([&] { return Sum(Div(a, s)); }, {a, s});
}

TEST(GradCheck, MatMul) {
  Var a = Var::Param(RandTensor({3, 4}, 11));
  Var b = Var::Param(RandTensor({4, 2}, 12));
  ExpectGradientsMatch([&] { return Sum(Square(MatMul(a, b))); }, {a, b});
}

TEST(GradCheck, TransposeComposesWithMatMul) {
  Var a = Var::Param(RandTensor({3, 4}, 13));
  ExpectGradientsMatch(
      [&] { return Sum(MatMul(a, Transpose(a))); }, {a});
}

TEST(GradCheck, UnaryOps) {
  Var a = Var::Param(RandTensor({6}, 14, 0.2f, 1.2f));
  ExpectGradientsMatch([&] { return Sum(Exp(a)); }, {a});
  ExpectGradientsMatch([&] { return Sum(Log(a)); }, {a});
  ExpectGradientsMatch([&] { return Sum(Tanh(a)); }, {a});
  ExpectGradientsMatch([&] { return Sum(Sigmoid(a)); }, {a});
  ExpectGradientsMatch([&] { return Sum(Square(a)); }, {a});
}

TEST(GradCheck, ReluSubgradient) {
  // Values away from the kink so finite differences are valid.
  Var a = Var::Param(Tensor({4}, {-0.8f, -0.3f, 0.4f, 0.9f}));
  ExpectGradientsMatch([&] { return Sum(Square(Relu(a))); }, {a});
}

TEST(GradCheck, AbsAwayFromZero) {
  Var a = Var::Param(Tensor({4}, {-0.8f, -0.3f, 0.4f, 0.9f}));
  ExpectGradientsMatch([&] { return Sum(Abs(a)); }, {a});
}

TEST(GradCheck, MinMaxElementwise) {
  Var a = Var::Param(Tensor({3}, {0.1f, 0.9f, -0.5f}));
  Var b = Var::Param(Tensor({3}, {0.6f, 0.2f, -0.1f}));
  ExpectGradientsMatch([&] { return Sum(Min(a, b)); }, {a, b});
}

TEST(GradCheck, ClampInterior) {
  Var a = Var::Param(Tensor({4}, {-2.0f, -0.2f, 0.3f, 2.5f}));
  // eps small enough that no element crosses the clamp boundary.
  ExpectGradientsMatch([&] { return Sum(Square(Clamp(a, -1.0f, 1.0f))); },
                       {a}, /*eps=*/1e-2f);
}

TEST(GradCheck, SumMeanAxes) {
  Var a = Var::Param(RandTensor({3, 4, 2}, 15));
  ExpectGradientsMatch([&] { return Mean(Square(a)); }, {a});
}

TEST(GradCheck, ReshapePermute) {
  Var a = Var::Param(RandTensor({2, 3, 4}, 16));
  ExpectGradientsMatch(
      [&] { return Sum(Square(Reshape(a, {4, 6}))); }, {a});
  ExpectGradientsMatch(
      [&] { return Sum(Square(Permute(a, {2, 0, 1}))); }, {a});
}

TEST(GradCheck, ConcatSlice) {
  Var a = Var::Param(RandTensor({2, 3}, 17));
  Var b = Var::Param(RandTensor({2, 2}, 18));
  ExpectGradientsMatch(
      [&] { return Sum(Square(Concat({a, b}, 1))); }, {a, b});
  ExpectGradientsMatch(
      [&] { return Sum(Square(Slice(a, 1, 1, 2))); }, {a});
}

TEST(GradCheck, SoftmaxAndLogSoftmax) {
  Var a = Var::Param(RandTensor({2, 5}, 19));
  Var target = Var::Constant(RandTensor({2, 5}, 20, 0.0f, 1.0f));
  ExpectGradientsMatch(
      [&] { return Sum(Mul(Softmax(a), target)); }, {a});
  ExpectGradientsMatch(
      [&] { return Sum(Mul(Log(Softmax(a)), target)); }, {a});
}

TEST(GradCheck, SoftmaxLogSoftmaxComposition) {
  // Negative entropy sum(softmax(a) * log(softmax(a))): the two branches
  // share the input, so backward must accumulate through both softmax
  // Jacobians at once — a composition the per-op checks above never hit.
  Var a = Var::Param(RandTensor({2, 5}, 24));
  ExpectGradientsMatch(
      [&] { return Sum(Mul(Softmax(a), Log(Softmax(a)))); }, {a});
}

TEST(LogDomain, PositiveInputsUnaffectedByDomainCheck) {
  // Regression companion to the debug-build domain check: well-formed
  // positive inputs must pass through with exact values and gradients.
  Var a = Var::Param(RandTensor({3, 4}, 25, 0.1f, 3.0f));
  Var y = Log(a);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_FLOAT_EQ(y.value()[i], std::log(a.value()[i]));
  }
  ExpectGradientsMatch([&] { return Sum(Log(a)); }, {a});
}

#ifndef NDEBUG
TEST(LogDomainDeathTest, NonPositiveOrNonFiniteInputDiesInDebug) {
  // ag::Log's contract is "caller guarantees positive input"; debug builds
  // promote silent NaN/-inf propagation into an immediate failure at the
  // offending op.
  EXPECT_DEATH(Log(Var::Param(Tensor::Scalar(-1.0f))),
               "finite and positive");
  EXPECT_DEATH(Log(Var::Param(Tensor::Scalar(0.0f))),
               "finite and positive");
  EXPECT_DEATH(
      Log(Var::Param(Tensor::Scalar(
          std::numeric_limits<float>::quiet_NaN()))),
      "finite and positive");
}
#endif

TEST(GradCheck, CausalConv1d) {
  Var x = Var::Param(RandTensor({2, 3, 6}, 21));
  Var w = Var::Param(RandTensor({4, 3, 3}, 22));
  Var b = Var::Param(RandTensor({4}, 23));
  ExpectGradientsMatch(
      [&] { return Sum(Square(CausalConv1d(x, w, b, 1))); }, {x, w, b});
  ExpectGradientsMatch(
      [&] { return Sum(Square(CausalConv1d(x, w, b, 2))); }, {x, w, b});
}

TEST(GradCheck, CausalConv1dDilatedNoBias) {
  // dilation > 1 with the bias leg absent (Var{} sentinel).
  Var x = Var::Param(RandTensor({2, 3, 8}, 31));
  Var w = Var::Param(RandTensor({4, 3, 3}, 32));
  ExpectGradientsMatch(
      [&] { return Sum(Square(CausalConv1d(x, w, Var(), 3))); }, {x, w});
}

TEST(GradCheck, PermuteNonTrivialOrders) {
  Var a = Var::Param(RandTensor({2, 3, 4}, 33));
  ExpectGradientsMatch(
      [&] { return Sum(Square(Permute(a, {1, 2, 0}))); }, {a});
  ExpectGradientsMatch(
      [&] { return Sum(Square(Permute(a, {2, 1, 0}))); }, {a});
}

TEST(Conv1dSemantics, CausalityNoFutureLeak) {
  // Changing a future input must not change past outputs.
  Rng rng(42);
  Tensor x = Tensor::Uniform({1, 1, 8}, rng, -1, 1);
  Tensor w = Tensor::Uniform({1, 1, 3}, rng, -1, 1);
  Var vx = Var::Constant(x);
  Var vw = Var::Constant(w);
  Tensor out1 = CausalConv1d(vx, vw, Var(), 1).value();
  Tensor x2 = x;
  x2.At({0, 0, 7}) += 5.0f;  // perturb the last sample
  Tensor out2 =
      CausalConv1d(Var::Constant(x2), vw, Var(), 1).value();
  for (int64_t t = 0; t < 7; ++t) {
    EXPECT_FLOAT_EQ(out1.At({0, 0, t}), out2.At({0, 0, t})) << t;
  }
  EXPECT_NE(out1.At({0, 0, 7}), out2.At({0, 0, 7}));
}

TEST(Conv1dSemantics, IdentityKernelReproducesInput) {
  // Kernel [0, 0, 1] with dilation 1 means "current sample only".
  Rng rng(1);
  Tensor x = Tensor::Uniform({1, 1, 5}, rng, -1, 1);
  Tensor w({1, 1, 3});
  w.At({0, 0, 2}) = 1.0f;
  Tensor out =
      CausalConv1d(Var::Constant(x), Var::Constant(w), Var(), 1).value();
  EXPECT_TRUE(math::TensorAllClose(out, x, 1e-6f));
}

TEST(SoftmaxSemantics, RowsSumToOne) {
  Var a = Var::Constant(RandTensor({3, 7}, 24, -5.0f, 5.0f));
  Tensor s = Softmax(a).value();
  for (int64_t r = 0; r < 3; ++r) {
    float total = 0.0f;
    for (int64_t c = 0; c < 7; ++c) total += s.At({r, c});
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxSemantics, NumericallyStableForLargeInputs) {
  Var a = Var::Constant(Tensor({1, 3}, {1000.0f, 1001.0f, 999.0f}));
  Tensor s = Softmax(a).value();
  EXPECT_TRUE(std::isfinite(s[0]));
  EXPECT_GT(s.At({0, 1}), s.At({0, 0}));
}

TEST(GradCheck, WholeSmallNetwork) {
  // Two-layer tanh MLP end-to-end.
  Rng rng(77);
  Var w1 = Var::Param(Tensor::Uniform({4, 8}, rng, -0.5f, 0.5f));
  Var b1 = Var::Param(Tensor::Zeros({8}));
  Var w2 = Var::Param(Tensor::Uniform({8, 1}, rng, -0.5f, 0.5f));
  Var x = Var::Constant(Tensor::Uniform({2, 4}, rng, -1, 1));
  ExpectGradientsMatch(
      [&] {
        return Sum(MatMul(Tanh(Add(MatMul(x, w1), b1)), w2));
      },
      {w1, b1, w2});
}

}  // namespace
}  // namespace cit::ag
