// Thread-pool correctness plus the determinism contract of math/kernels.h:
// kernels are serial and never enter the pool, so every kernel produces
// bitwise-identical results for any thread count. These are the tests
// scripts/check.sh runs under TSan.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "math/autograd.h"
#include "math/kernels.h"
#include "math/rng.h"
#include "math/tensor.h"
#include "obs/telemetry.h"

namespace cit {
namespace {

using math::Rng;
using math::Shape;
using math::Tensor;

// Restores the global pool's thread count when a test scope exits, so test
// order never leaks thread-count state.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : saved_(ThreadPool::Global().num_threads()) {
    ThreadPool::Global().SetNumThreads(n);
  }
  ~ThreadCountGuard() { ThreadPool::Global().SetNumThreads(saved_); }

 private:
  int saved_;
};

class TelemetryGuard {
 public:
  explicit TelemetryGuard(bool on) : saved_(obs::Enabled()) {
    obs::SetEnabled(on);
  }
  ~TelemetryGuard() { obs::SetEnabled(saved_); }

 private:
  bool saved_;
};

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard(4);
  std::vector<int> counts(10000, 0);
  ThreadPool::Global().ParallelFor(
      0, 10000, [&](int64_t i) { counts[static_cast<size_t>(i)] += 1; });
  for (int c : counts) ASSERT_EQ(c, 1);
}

TEST(ThreadPool, OneIndexRunsInline) {
  ThreadCountGuard guard(4);
  int calls = 0;  // deliberately unsynchronized: must run on this thread only
  ThreadPool::Global().ParallelFor(7, 8, [&](int64_t i) {
    calls += static_cast<int>(i);
  });
  EXPECT_EQ(calls, 7);
}

TEST(ThreadPool, NestedParallelForDegradesToSerial) {
  ThreadCountGuard guard(4);
  std::vector<int> counts(4096, 0);
  ThreadPool::Global().ParallelFor(0, 4, [&](int64_t o) {
    // Runs inside a parallel region, so it must execute inline.
    ThreadPool::Global().ParallelFor(0, 1024, [&, o](int64_t i) {
      counts[static_cast<size_t>(o * 1024 + i)] += 1;
    });
  });
  for (int c : counts) ASSERT_EQ(c, 1);
}

TEST(ThreadPool, SetNumThreadsGrowsBeyondInitial) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  pool.SetNumThreads(4);
  // Requests above hardware_concurrency are clamped (oversubscription is
  // strictly slower and, by the determinism contract, result-invariant).
  EXPECT_EQ(pool.num_threads(), std::min(4, pool.max_threads()));
  std::vector<int> counts(20000, 0);
  pool.ParallelFor(
      0, 20000, [&](int64_t i) { counts[static_cast<size_t>(i)] += 1; });
  for (int c : counts) ASSERT_EQ(c, 1);
}

// ---- Bitwise determinism across thread counts ------------------------------

template <typename F>
Tensor RunWithThreads(int n_threads, F compute) {
  ThreadCountGuard guard(n_threads);
  return compute();
}

// Same shape and the same bits: unlike a float compare, -0 differs from +0
// and a NaN equals itself.
::testing::AssertionResult BitwiseEqual(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    return ::testing::AssertionFailure() << "shapes differ";
  }
  if (std::memcmp(a.data(), b.data(),
                  sizeof(float) * static_cast<size_t>(a.numel())) != 0) {
    return ::testing::AssertionFailure() << "bits differ";
  }
  return ::testing::AssertionSuccess();
}

TEST(Determinism, MatMulBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(1);
  // Odd sizes exercise the micro-kernel's row and column tails; r = 1 is
  // the SIMD backend's GEMV on AVX-512 builds.
  struct Case {
    int64_t p, q, r;
  };
  for (const Case& s : {Case{173, 211, 97}, Case{481, 24, 1}}) {
    Tensor a = Tensor::Uniform({s.p, s.q}, rng, -1, 1);
    Tensor b = Tensor::Uniform({s.q, s.r}, rng, -1, 1);
    auto compute = [&] {
      Tensor c({s.p, s.r});
      math::kernels::MatMul(a.data(), b.data(), c.data(), s.p, s.q, s.r);
      return c;
    };
    const Tensor c1 = RunWithThreads(1, compute);
    for (int t : {2, 4}) {
      const Tensor ct = RunWithThreads(t, compute);
      ASSERT_TRUE(BitwiseEqual(c1, ct)) << t << " threads, r=" << s.r;
    }
  }
}

TEST(Determinism, MatMulTransposedVariantsBitwiseIdentical) {
  Rng rng(2);
  Tensor g = Tensor::Uniform({150, 130}, rng, -1, 1);
  Tensor b = Tensor::Uniform({170, 130}, rng, -1, 1);  // bT layout [r, q]
  Tensor a = Tensor::Uniform({150, 170}, rng, -1, 1);
  auto trans_b = [&] {
    Tensor c({150, 170});
    math::kernels::MatMulTransB(g.data(), b.data(), c.data(), 150, 130, 170);
    return c;
  };
  auto trans_a = [&] {
    Tensor c({170, 130});
    math::kernels::MatMulTransA(a.data(), g.data(), c.data(), 150, 170, 130);
    return c;
  };
  ASSERT_TRUE(BitwiseEqual(RunWithThreads(1, trans_b),
                                 RunWithThreads(4, trans_b)));
  ASSERT_TRUE(BitwiseEqual(RunWithThreads(1, trans_a),
                                 RunWithThreads(4, trans_a)));
}

TEST(Determinism, CausalConvBitwiseIdenticalBothPaths) {
  Rng rng(3);
  // A shape with many time tiles and channel blocks, and a tiny one.
  struct Case {
    int64_t batch, cin, cout, len, k, dilation;
  };
  for (const Case& c : {Case{4, 16, 32, 256, 3, 2}, Case{1, 2, 3, 6, 2, 1}}) {
    Tensor x = Tensor::Uniform({c.batch, c.cin, c.len}, rng, -1, 1);
    Tensor w = Tensor::Uniform({c.cout, c.cin, c.k}, rng, -1, 1);
    Tensor bias = Tensor::Uniform({c.cout}, rng, -1, 1);
    auto compute = [&] {
      Tensor out({c.batch, c.cout, c.len});
      math::kernels::CausalConv1dForward(x.data(), w.data(), bias.data(),
                                         out.data(), c.batch, c.cin, c.cout,
                                         c.len, c.k, c.dilation);
      return out;
    };
    ASSERT_TRUE(BitwiseEqual(RunWithThreads(1, compute),
                                   RunWithThreads(4, compute)))
        << "len=" << c.len;
  }
}

TEST(Determinism, ElementwiseAndSoftmaxBitwiseIdentical) {
  Rng rng(4);
  Tensor x = Tensor::Uniform({100000}, rng, -3, 3);
  auto mapped = [&] {
    Tensor out({100000});
    math::kernels::Map(x.data(), out.data(), 100000,
                       [](float v) { return std::exp(v) * 0.5f + v * v; });
    return out;
  };
  ASSERT_TRUE(BitwiseEqual(RunWithThreads(1, mapped),
                                 RunWithThreads(4, mapped)));

  Tensor s = Tensor::Uniform({512, 80}, rng, -5, 5);
  auto softmaxed = [&] {
    Tensor out = s;
    math::kernels::SoftmaxLastAxis(out.data(), 512, 80);
    return out;
  };
  ASSERT_TRUE(BitwiseEqual(RunWithThreads(1, softmaxed),
                                 RunWithThreads(4, softmaxed)));
}

TEST(Determinism, TrainingStepGradientsBitwiseIdentical) {
  // A taped forward/backward pass through MatMul, softmax and the
  // elementwise kernels, as a training step runs them.
  auto grads = [&](int n_threads) {
    ThreadCountGuard guard(n_threads);
    Rng rng(5);
    ag::Var x = ag::Var::Param(Tensor::Uniform({64, 512}, rng, -1, 1));
    ag::Var w = ag::Var::Param(Tensor::Uniform({512, 64}, rng, -1, 1));
    ag::Sum(ag::Square(ag::Softmax(ag::MatMul(x, w)))).Backward();
    return std::make_pair(x.grad(), w.grad());
  };
  const auto g1 = grads(1);
  const auto g4 = grads(4);
  ASSERT_TRUE(BitwiseEqual(g1.first, g4.first));
  ASSERT_TRUE(BitwiseEqual(g1.second, g4.second));
}

// Kernels are serial: however large the shape, no kernel forks a pool job
// or even asks the pool whether to. Only sweep cells do.
TEST(Determinism, KernelsNeverEnterThePool) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with CIT_OBS=OFF";
  TelemetryGuard telemetry(true);
  ThreadCountGuard guard(4);
  auto& jobs = obs::Registry::Global().GetCounter("threadpool.jobs");
  auto& inline_jobs =
      obs::Registry::Global().GetCounter("threadpool.inline_jobs");
  const uint64_t jobs_before = jobs.Total();
  const uint64_t inline_before = inline_jobs.Total();

  Rng rng(6);
  Tensor a = Tensor::Uniform({173, 211}, rng, -1, 1);
  Tensor b = Tensor::Uniform({211, 97}, rng, -1, 1);
  Tensor c({173, 97});
  math::kernels::MatMul(a.data(), b.data(), c.data(), 173, 211, 97);
  Tensor x = Tensor::Uniform({100000}, rng, -3, 3);
  Tensor y({100000});
  math::kernels::Add(x.data(), x.data(), y.data(), 100000);
  math::kernels::Map(x.data(), y.data(), 100000,
                     [](float v) { return v * v; });
  Tensor s = Tensor::Uniform({512, 80}, rng, -5, 5);
  math::kernels::SoftmaxLastAxis(s.data(), 512, 80);
  Tensor cx = Tensor::Uniform({4, 16, 256}, rng, -1, 1);
  Tensor cw = Tensor::Uniform({32, 16, 3}, rng, -1, 1);
  Tensor cb = Tensor::Uniform({32}, rng, -1, 1);
  Tensor conv_out({4, 32, 256});
  math::kernels::CausalConv1dForward(cx.data(), cw.data(), cb.data(),
                                     conv_out.data(), 4, 16, 32, 256, 3, 2);
  ag::Var xv = ag::Var::Param(Tensor::Uniform({64, 512}, rng, -1, 1));
  ag::Var wv = ag::Var::Param(Tensor::Uniform({512, 64}, rng, -1, 1));
  ag::Sum(ag::Square(ag::Softmax(ag::MatMul(xv, wv)))).Backward();

  EXPECT_EQ(jobs.Total(), jobs_before) << "a kernel forked a pool job";
  EXPECT_EQ(inline_jobs.Total(), inline_before)
      << "a kernel called ParallelFor";
}

}  // namespace
}  // namespace cit
