#include "math/tensor.h"

#include <gtest/gtest.h>

#include "math/rng.h"

namespace cit::math {
namespace {

TEST(Tensor, ZeroInitializedConstruction) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.ndim(), 2);
  for (int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(t[i], 0.0f);
}

TEST(Tensor, FactoryFunctions) {
  EXPECT_FLOAT_EQ(Tensor::Ones({3})[1], 1.0f);
  EXPECT_FLOAT_EQ(Tensor::Full({2}, 7.5f)[0], 7.5f);
  EXPECT_FLOAT_EQ(Tensor::Scalar(2.5f).Item(), 2.5f);
  Tensor a = Tensor::Arange(4);
  EXPECT_FLOAT_EQ(a[3], 3.0f);
}

TEST(Tensor, MultiDimIndexing) {
  Tensor t({2, 3, 4});
  t.At({1, 2, 3}) = 5.0f;
  EXPECT_FLOAT_EQ(t[1 * 12 + 2 * 4 + 3], 5.0f);
  EXPECT_FLOAT_EQ(t.At({1, 2, 3}), 5.0f);
}

TEST(Tensor, NegativeDimLookup) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.dim(-1), 4);
  EXPECT_EQ(t.dim(-3), 2);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshape({3, 2});
  EXPECT_FLOAT_EQ(r.At({2, 1}), 6.0f);
}

TEST(Tensor, Transpose2D) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor tt = t.Transpose2D();
  EXPECT_EQ(tt.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(tt.At({0, 1}), 4.0f);
  EXPECT_FLOAT_EQ(tt.At({2, 0}), 3.0f);
}

TEST(Tensor, SliceMiddleAxis) {
  Tensor t({2, 3, 2});
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(i);
  Tensor s = t.Slice(1, 1, 2);
  EXPECT_EQ(s.shape(), (Shape{2, 2, 2}));
  EXPECT_FLOAT_EQ(s.At({0, 0, 0}), t.At({0, 1, 0}));
  EXPECT_FLOAT_EQ(s.At({1, 1, 1}), t.At({1, 2, 1}));
}

TEST(Tensor, ElementwiseArithmetic) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {4, 5, 6});
  EXPECT_TRUE(TensorEquals(a.Mul(b), Tensor({3}, {4, 10, 18})));
  EXPECT_TRUE(TensorAllClose(b.Div(a), Tensor({3}, {4, 2.5f, 2})));
  EXPECT_TRUE(TensorEquals(a.MulScalar(2), Tensor({3}, {2, 4, 6})));
}

TEST(Tensor, Reductions) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(t.Sum(), 10.0f);
  EXPECT_FLOAT_EQ(t.Max(), 4.0f);
  EXPECT_FLOAT_EQ(t.Min(), 1.0f);
}

TEST(Tensor, DeepCopySemantics) {
  Tensor a({2}, {1, 2});
  Tensor b = a;
  b[0] = 99.0f;
  EXPECT_FLOAT_EQ(a[0], 1.0f);
}

TEST(Rng, Determinism) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, UniformRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(7);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 7000; ++i) ++counts[rng.UniformInt(7)];
  for (int c : counts) EXPECT_GT(c, 700);  // roughly uniform
}

TEST(Rng, DirichletOnSimplex) {
  Rng rng(11);
  for (double alpha : {0.3, 1.0, 5.0}) {
    auto w = rng.Dirichlet(6, alpha);
    double total = 0.0;
    for (double v : w) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Rng, GammaMeanMatchesShape) {
  Rng rng(13);
  const double shape = 2.5;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Gamma(shape);
  EXPECT_NEAR(sum / n, shape, 0.1);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(1);
  Rng b = a.Fork();
  // The fork should not replay the parent's stream.
  EXPECT_NE(a.NextU64(), b.NextU64());
}

// ---- Copy-on-write storage sharing -----------------------------------------

TEST(TensorCow, CopySharesStorageUntilFirstWrite) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b = a;
  EXPECT_TRUE(a.SharesStorageWith(b));
  b[0] = 9.0f;  // mutable access detaches b
  EXPECT_FALSE(a.SharesStorageWith(b));
  EXPECT_FLOAT_EQ(a[0], 1.0f);
  EXPECT_FLOAT_EQ(b[0], 9.0f);
}

TEST(TensorCow, ReshapeThenMutateDoesNotAliasOriginal) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshape({3, 2});
  EXPECT_TRUE(r.SharesStorageWith(t));
  r[5] = -1.0f;
  EXPECT_FALSE(r.SharesStorageWith(t));
  EXPECT_TRUE(TensorEquals(t, Tensor({2, 3}, {1, 2, 3, 4, 5, 6})));
  EXPECT_TRUE(TensorEquals(r, Tensor({3, 2}, {1, 2, 3, 4, 5, -1})));
}

TEST(TensorCow, WriteToParentDoesNotChangeReshapeView) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  Tensor v = t.Reshape({4});
  t[0] = 7.0f;  // parent detaches; the view keeps the old data
  const Tensor& cv = v;
  EXPECT_FLOAT_EQ(cv[0], 1.0f);
  EXPECT_FLOAT_EQ(t[0], 7.0f);
}

TEST(TensorCow, OuterSliceIsViewAndWriteDetaches) {
  Tensor t({4, 2});
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(i);
  Tensor s = t.Slice(0, 1, 2);
  EXPECT_TRUE(s.SharesStorageWith(t));
  const Tensor& cs = s;
  EXPECT_FLOAT_EQ(cs[0], t.At({1, 0}));
  s.Fill(0.0f);
  EXPECT_FALSE(s.SharesStorageWith(t));
  EXPECT_FLOAT_EQ(t.At({1, 0}), 2.0f);  // parent untouched
  EXPECT_FLOAT_EQ(cs[0], 0.0f);
}

TEST(TensorCow, InPlaceOpOnSharedHandleDetaches) {
  Tensor a({3}, {1, 2, 3});
  Tensor b = a;
  b.MulScalarInPlace(2.0f);
  EXPECT_FLOAT_EQ(a[1], 2.0f);
  EXPECT_FLOAT_EQ(b[1], 4.0f);
  EXPECT_FALSE(a.SharesStorageWith(b));
}

TEST(TensorCow, ConstReadsNeverDetach) {
  Tensor a({2}, {1, 2});
  Tensor b = a;
  const Tensor& ca = a;
  const Tensor& cb = b;
  EXPECT_FLOAT_EQ(ca[0] + cb[1], 3.0f);
  EXPECT_FLOAT_EQ(ca.Sum(), cb.Sum());
  EXPECT_TRUE(a.SharesStorageWith(b));  // reads kept the sharing intact
}

}  // namespace
}  // namespace cit::math
