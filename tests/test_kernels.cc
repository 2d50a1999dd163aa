// Adversarial coverage of the kernel dispatch seam (math/kernels.h +
// math/simd.h + kernels_simd.cc):
//
//  - a GEMM/conv shape matrix of prime and tail dimensions that straddle
//    every microkernel boundary (kGemmMr rows, kGemmNr columns, kGemmKc
//    depth), plus q==0 / r==0 / p==0, 1x1, and large-aspect shapes;
//  - per-backend bitwise self-consistency across 1 and 4 pool threads
//    (scripts/check.sh reruns these under TSan with CIT_OVERSUBSCRIBE=1 so
//    the 4-thread arm is real even on a 1-core host);
//  - simd-vs-scalar agreement: 0 ULP on the non-FMA arms the contract
//    promises exact (plain elementwise ops, FusedElemwise chains) and on
//    the conv, a documented tolerance on the FMA arm (MatMul);
//  - the direct conv, both the scalar backend's time-major arm and the
//    SIMD backend's register-tiled AVX-512 arm, bitwise equal to a plain
//    per-row triple loop at the model's shapes, at every tile edge, on
//    special inputs and weights, and over thousands of seeded random shapes;
//  - MatMul (its GEMV and masked tile edges included) and the backward
//    kernels bitwise equal to oracles that write each output's chain out,
//    on every backend whose chains they are;
//  - the packed-panel buffer staying allocation-free in steady state
//    (kernels.gemm_pack_allocs);
//  - the kernels.gemm_bytes / conv_bytes traffic formulas, pinned against
//    closed forms computed from the block structure.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "math/kernels.h"
#include "math/rng.h"
#include "obs/telemetry.h"

namespace cit {
namespace {

using math::Rng;
namespace kn = math::kernels;

// FMA arms (one extra rounding per fused multiply-add vs. the scalar
// backend's round-twice multiply-add): per-element tolerance scaled by the
// result's magnitude. The reduction lengths in the matrix are <= 300, so
// the accumulated difference is orders of magnitude below this bound;
// exceeding it means a real dispatch bug, not rounding.
constexpr float kFmaArmTol = 1e-4f;

bool NearFma(float got, float ref) {
  if (std::isnan(got) || std::isnan(ref)) return false;
  return std::fabs(got - ref) <= kFmaArmTol * std::max(1.0f, std::fabs(ref));
}

class BackendGuard {
 public:
  explicit BackendGuard(kn::Backend b) : saved_(kn::SetBackend(b)) {}
  ~BackendGuard() { kn::SetBackend(saved_); }

 private:
  kn::Backend saved_;
};

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n)
      : saved_(ThreadPool::Global().num_threads()) {
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

std::vector<kn::Backend> AllBackends() {
  std::vector<kn::Backend> v{kn::Backend::kScalar};
  if (kn::SimdAvailable()) v.push_back(kn::Backend::kSimd);
  return v;
}

const char* Name(kn::Backend b) {
  return b == kn::Backend::kScalar ? "scalar" : "simd";
}

struct GemmShape {
  int64_t p, q, r;
};

// Every microkernel boundary gets a non-multiple: p around kGemmMr (4),
// r around kGemmNr (32), q around kGemmKc (256); primes everywhere else.
const GemmShape kGemmShapes[] = {
    {1, 1, 1},
    {5, 7, 13},                                      // all below tile sizes
    {3, 31, 33},                                     // one-column nr tail
    {7, 257, 31},                                    // one-element kc tail
    {kn::kGemmMr + 1, kn::kGemmKc + 1, kn::kGemmNr + 1},
    {64, 64, 64},                                    // exact multiples
    {1, 300, 2},                                     // wide-and-flat aspect
    {200, 1, 37},                                    // q == 1
    {481, 6, 1},                                     // r == 1, row tail
    {17, 257, 1},                                    // r == 1, kc tail
    {0, 8, 8},                                       // empty output rows
    {8, 0, 8},                                       // empty reduction
    {8, 8, 0},                                       // empty output cols
};

std::vector<float> RunGemm(const GemmShape& s, kn::Backend b, int threads) {
  BackendGuard bg(b);
  ThreadCountGuard tg(threads);
  Rng rng(91 + s.p * 7 + s.q * 3 + s.r);
  std::vector<float> a(static_cast<size_t>(s.p * s.q));
  std::vector<float> bm(static_cast<size_t>(s.q * s.r));
  for (float& v : a) v = rng.Uniform(-1.0f, 1.0f);
  for (float& v : bm) v = rng.Uniform(-1.0f, 1.0f);
  // Sentinel fill: q == 0 must still zero the output.
  std::vector<float> c(static_cast<size_t>(s.p * s.r), 7.25f);
  kn::MatMul(a.data(), bm.data(), c.data(), s.p, s.q, s.r);
  return c;
}

TEST(KernelDispatch, SetBackendRoundTripAndClamp) {
  const kn::Backend original = kn::ActiveBackend();
  const kn::Backend prev = kn::SetBackend(kn::Backend::kScalar);
  EXPECT_EQ(prev, original);
  EXPECT_EQ(kn::ActiveBackend(), kn::Backend::kScalar);
  kn::SetBackend(kn::Backend::kSimd);
  if (kn::SimdAvailable()) {
    EXPECT_EQ(kn::ActiveBackend(), kn::Backend::kSimd);
    EXPECT_STRNE(kn::SimdIsaName(), "none");
  } else {
    // Forcing simd on a scalar-only build clamps back to scalar.
    EXPECT_EQ(kn::ActiveBackend(), kn::Backend::kScalar);
    EXPECT_STREQ(kn::SimdIsaName(), "none");
  }
  kn::SetBackend(original);
}

// The ISA the build compiled, read from the compiler's own target macros:
// scripts/check.sh's AVX2 step relies on this to show it ran the AVX2 arms,
// and the conv byte formula below on "avx512" meaning the tiled conv arm.
TEST(KernelDispatch, IsaNameMatchesCompileTarget) {
#if defined(__AVX512F__) && defined(__FMA__)
  EXPECT_STREQ(kn::SimdIsaName(), "avx512");
#elif defined(__AVX2__) && defined(__FMA__)
  EXPECT_STREQ(kn::SimdIsaName(), "avx2");
#elif defined(__ARM_NEON) || defined(__aarch64__)
  EXPECT_STREQ(kn::SimdIsaName(), "neon");
#else
  EXPECT_STREQ(kn::SimdIsaName(), "none");
#endif
}

TEST(KernelDispatch, GemmBitwiseThreadInvariantPerBackend) {
  for (kn::Backend b : AllBackends()) {
    for (const GemmShape& s : kGemmShapes) {
      const std::vector<float> c1 = RunGemm(s, b, 1);
      const std::vector<float> c4 = RunGemm(s, b, 4);
      ASSERT_EQ(c1.size(), c4.size());
      ASSERT_TRUE(c1.empty() ||
                  std::memcmp(c1.data(), c4.data(),
                              c1.size() * sizeof(float)) == 0)
          << Name(b) << " GEMM " << s.p << "x" << s.q << "x" << s.r
          << " differs between 1 and 4 threads";
    }
  }
}

TEST(KernelDispatch, GemmSimdMatchesScalarWithinTolerance) {
  if (!kn::SimdAvailable()) GTEST_SKIP() << "no SIMD path compiled";
  for (const GemmShape& s : kGemmShapes) {
    const std::vector<float> ref = RunGemm(s, kn::Backend::kScalar, 1);
    const std::vector<float> got = RunGemm(s, kn::Backend::kSimd, 1);
    ASSERT_EQ(ref.size(), got.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_TRUE(NearFma(got[i], ref[i]))
          << "GEMM " << s.p << "x" << s.q << "x" << s.r << " at " << i
          << ": simd " << got[i] << " vs scalar " << ref[i];
    }
    // Degenerate reductions produce exact zeros on both backends.
    if (s.q == 0) {
      for (float v : got) ASSERT_EQ(v, 0.0f);
    }
  }
}

// ---- Elementwise: the 0-ULP arms -------------------------------------------

TEST(KernelDispatch, ElementwiseSimdBitwiseEqualsScalar) {
  if (!kn::SimdAvailable()) GTEST_SKIP() << "no SIMD path compiled";
  // An odd length, so the vector body ends in a scalar tail.
  const int64_t n = 65553;
  Rng rng(17);
  std::vector<float> a(n), b(n);
  for (float& v : a) v = rng.Uniform(-3.0f, 3.0f);
  for (float& v : b) {
    v = rng.Uniform(0.5f, 2.0f) * (rng.Uniform(0.0f, 1.0f) < 0.5f ? -1 : 1);
  }

  using Fn = void (*)(const float*, const float*, float*, int64_t);
  struct Arm {
    const char* name;
    Fn fn;
  };
  const Arm arms[] = {{"Add", kn::Add},
                      {"Sub", kn::Sub},
                      {"Mul", kn::Mul},
                      {"Div", kn::Div}};
  for (const Arm& arm : arms) {
    std::vector<float> ref(n), got(n);
    {
      BackendGuard g(kn::Backend::kScalar);
      arm.fn(a.data(), b.data(), ref.data(), n);
    }
    {
      BackendGuard g(kn::Backend::kSimd);
      arm.fn(a.data(), b.data(), got.data(), n);
    }
    ASSERT_EQ(std::memcmp(ref.data(), got.data(), n * sizeof(float)), 0)
        << arm.name << " is not 0-ULP between backends";
  }

  // Scalar-parameter and in-place arms.
  for (int variant = 0; variant < 4; ++variant) {
    std::vector<float> ref = a, got = a;
    auto run = [&](std::vector<float>& dst) {
      switch (variant) {
        case 0: kn::AddScalar(dst.data(), 1.5f, dst.data(), n); break;
        case 1: kn::MulScalar(dst.data(), -0.75f, dst.data(), n); break;
        case 2: kn::AddInto(dst.data(), b.data(), n); break;
        case 3: kn::ScaleInto(dst.data(), 1.0f / 3.0f, n); break;
      }
    };
    {
      BackendGuard g(kn::Backend::kScalar);
      run(ref);
    }
    {
      BackendGuard g(kn::Backend::kSimd);
      run(got);
    }
    ASSERT_EQ(std::memcmp(ref.data(), got.data(), n * sizeof(float)), 0)
        << "in-place variant " << variant << " is not 0-ULP";
  }
}

// ---- FusedElemwise ---------------------------------------------------------

TEST(KernelDispatch, FusedElemwiseExactChainBitwise) {
  using kn::ElemOp;
  using kn::ElemOpKind;
  const int64_t n = 32799;
  Rng rng(41);
  std::vector<float> in(n);
  for (float& v : in) v = rng.Uniform(-2.0f, 2.0f);
  // Every bit-exact vectorizable op in one chain.
  const ElemOp ops[] = {{ElemOpKind::kSquare, 0, 0},
                        {ElemOpKind::kMulScalar, 0.5f, 0},
                        {ElemOpKind::kAddScalar, -0.25f, 0},
                        {ElemOpKind::kClamp, -0.5f, 0.5f},
                        {ElemOpKind::kAbs, 0, 0},
                        {ElemOpKind::kRelu, 0, 0}};
  const int count = static_cast<int>(std::size(ops));

  // Reference: the scalar ElemApply chain, element by element — the same
  // formula the interpreted autodiff forward evaluates.
  std::vector<float> manual(n);
  for (int64_t i = 0; i < n; ++i) {
    float v = in[i];
    for (int o = 0; o < count; ++o) v = kn::ElemApply(ops[o], v);
    manual[i] = v;
  }
  for (kn::Backend b : AllBackends()) {
    BackendGuard g(b);
    for (int threads : {1, 4}) {
      ThreadCountGuard tg(threads);
      std::vector<float> out(n);
      kn::FusedElemwise(in.data(), out.data(), n, ops, count);
      ASSERT_EQ(std::memcmp(manual.data(), out.data(), n * sizeof(float)), 0)
          << Name(b) << " fused sweep at " << threads
          << " threads deviates from the ElemApply chain";
    }
  }
}

TEST(KernelDispatch, FusedElemwiseLibmChainStaysScalarExact) {
  using kn::ElemOp;
  using kn::ElemOpKind;
  const int64_t n = 4097;
  Rng rng(43);
  std::vector<float> in(n);
  for (float& v : in) v = rng.Uniform(-1.0f, 1.0f);
  // exp/log force the scalar ElemApply sweep even on the simd backend, so
  // the two backends must agree bitwise.
  const ElemOp ops[] = {{ElemOpKind::kMulScalar, 0.25f, 0},
                        {ElemOpKind::kExp, 0, 0},
                        {ElemOpKind::kAddScalar, 1.0f, 0},
                        {ElemOpKind::kLog, 0, 0}};
  const int count = static_cast<int>(std::size(ops));
  std::vector<float> ref(n), got(n);
  {
    BackendGuard g(kn::Backend::kScalar);
    kn::FusedElemwise(in.data(), ref.data(), n, ops, count);
  }
  {
    BackendGuard g(kn::Backend::kSimd);  // clamps to scalar if unavailable
    kn::FusedElemwise(in.data(), got.data(), n, ops, count);
  }
  ASSERT_EQ(std::memcmp(ref.data(), got.data(), n * sizeof(float)), 0);
}

// ---- Conv ------------------------------------------------------------------

struct ConvShape {
  int64_t batch, cin, cout, len, k, dilation;
};

// Two small shapes and three large ones: prime len and prime cout end in
// partial time tiles and channel blocks, k == 1 is a pure projection, and
// the dilation-7 case zero-pads most of a tap's range.
const ConvShape kConvShapes[] = {
    {1, 2, 3, 6, 2, 1},
    {1, 1, 2, 5, 3, 7},       // shift >= len on two taps
    {2, 8, 16, 127, 3, 3},    // former im2col, prime len
    {1, 5, 29, 64, 4, 2},     // former im2col, prime cout
    {3, 4, 16, 257, 1, 1},    // former im2col, k == 1
};

std::vector<float> RunConv(const ConvShape& s, kn::Backend b, int threads) {
  BackendGuard bg(b);
  ThreadCountGuard tg(threads);
  Rng rng(53 + s.cin + s.cout + s.len);
  std::vector<float> x(static_cast<size_t>(s.batch * s.cin * s.len));
  std::vector<float> w(static_cast<size_t>(s.cout * s.cin * s.k));
  std::vector<float> bias(static_cast<size_t>(s.cout));
  for (float& v : x) v = rng.Uniform(-1.0f, 1.0f);
  for (float& v : w) v = rng.Uniform(-1.0f, 1.0f);
  for (float& v : bias) v = rng.Uniform(-1.0f, 1.0f);
  std::vector<float> out(static_cast<size_t>(s.batch * s.cout * s.len));
  kn::CausalConv1dForward(x.data(), w.data(), bias.data(), out.data(),
                          s.batch, s.cin, s.cout, s.len, s.k, s.dilation);
  return out;
}

TEST(KernelDispatch, ConvBitwiseThreadInvariantPerBackend) {
  for (kn::Backend b : AllBackends()) {
    for (const ConvShape& s : kConvShapes) {
      const std::vector<float> o1 = RunConv(s, b, 1);
      const std::vector<float> o4 = RunConv(s, b, 4);
      ASSERT_EQ(std::memcmp(o1.data(), o4.data(), o1.size() * sizeof(float)),
                0)
          << Name(b) << " conv len=" << s.len
          << " differs between 1 and 4 threads";
    }
  }
}

// Both conv arms keep the reference loop's per-element chain, so the
// backends agree bit for bit on every shape.
TEST(KernelDispatch, ConvSimdBitwiseEqualsScalar) {
  if (!kn::SimdAvailable()) GTEST_SKIP() << "no SIMD path compiled";
  for (const ConvShape& s : kConvShapes) {
    const std::vector<float> ref = RunConv(s, kn::Backend::kScalar, 1);
    const std::vector<float> got = RunConv(s, kn::Backend::kSimd, 1);
    ASSERT_EQ(std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)),
              0)
        << "conv len=" << s.len << " differs between simd and scalar";
  }
}

// Bitwise reference for the conv: the plain triple loop, one
// (batch, cout) output row at a time, starting at +0, ascending (cin, tap),
// zero weights skipped, bias added last. Compiled with the same flags as
// the kernel, so its `+= w * x` contracts (or not) exactly like the
// kernel's.
void ReferenceConvDirect(const float* x, const float* w, const float* bias,
                         float* out, int64_t batch, int64_t cin, int64_t cout,
                         int64_t len, int64_t k, int64_t dilation) {
  for (int64_t bi = 0; bi < batch; ++bi) {
    for (int64_t co = 0; co < cout; ++co) {
      float* orow = out + (bi * cout + co) * len;
      std::memset(orow, 0, sizeof(float) * static_cast<size_t>(len));
      for (int64_t ci = 0; ci < cin; ++ci) {
        const float* xrow = x + (bi * cin + ci) * len;
        const float* wrow = w + (co * cin + ci) * k;
        for (int64_t kk = 0; kk < k; ++kk) {
          const int64_t shift = (k - 1 - kk) * dilation;
          const float wk = wrow[kk];
          if (wk == 0.0f) continue;
          for (int64_t t = shift; t < len; ++t) {
            orow[t] += wk * xrow[t - shift];
          }
        }
      }
      if (bias != nullptr) {
        const float bv = bias[co];
        for (int64_t t = 0; t < len; ++t) orow[t] += bv;
      }
    }
  }
}

// Inputs for one conv case. Special inputs and weights use the one
// NaN this hardware generates itself (so every NaN the two loops can meet
// has the same bits and propagation order cannot show), infinities and
// negative zero. Zero weights of both signs take the skip; non-finite
// weights expose any lane before a tap's shift that reaches an FMA (the
// masked loads fill those lanes with zeros, and inf * 0 is NaN).
struct ConvCase {
  std::vector<float> x, w, bias;
};

ConvCase MakeConvCase(const ConvShape& s, Rng& rng, bool special_x,
                      bool special_w) {
  volatile float inf_v = INFINITY;
  const float nan = inf_v - inf_v;
  const float specials[] = {nan, INFINITY, -INFINITY, -0.0f};
  ConvCase c;
  c.x.resize(static_cast<size_t>(s.batch * s.cin * s.len));
  c.w.resize(static_cast<size_t>(s.cout * s.cin * s.k));
  c.bias.resize(static_cast<size_t>(s.cout));
  for (float& v : c.x) {
    v = rng.Uniform(-1.0f, 1.0f);
    if (special_x && rng.Uniform(0.0f, 1.0f) < 0.05f) {
      v = specials[static_cast<int>(rng.Uniform(0.0f, 4.0f)) % 4];
    }
  }
  for (float& v : c.w) {
    const float u = rng.Uniform(0.0f, 1.0f);
    v = u < 0.1f ? 0.0f : u < 0.2f ? -0.0f : rng.Uniform(-1.0f, 1.0f);
    if (special_w && rng.Uniform(0.0f, 1.0f) < 0.1f) {
      v = specials[static_cast<int>(rng.Uniform(0.0f, 3.0f)) % 3];
    }
  }
  for (float& v : c.bias) v = rng.Uniform(-1.0f, 1.0f);
  c.bias[0] = -0.0f;
  return c;
}

// Runs the conv on the active backend and memcmps it against the
// reference loop; returns an empty string on a match.
std::string ConvAgainstReference(const ConvShape& s, const ConvCase& c,
                                 bool with_bias) {
  const float* b = with_bias ? c.bias.data() : nullptr;
  std::vector<float> ref(static_cast<size_t>(s.batch * s.cout * s.len));
  ReferenceConvDirect(c.x.data(), c.w.data(), b, ref.data(), s.batch, s.cin,
                      s.cout, s.len, s.k, s.dilation);
  std::vector<float> got(ref.size(), 7.25f);
  kn::CausalConv1dForward(c.x.data(), c.w.data(), b, got.data(), s.batch,
                          s.cin, s.cout, s.len, s.k, s.dilation);
  if (std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)) == 0) {
    return "";
  }
  size_t i = 0;
  while (std::memcmp(&ref[i], &got[i], sizeof(float)) == 0) ++i;
  return "batch=" + std::to_string(s.batch) + " cin=" + std::to_string(s.cin) +
         " cout=" + std::to_string(s.cout) + " len=" + std::to_string(s.len) +
         " k=" + std::to_string(s.k) + " dilation=" +
         std::to_string(s.dilation) + (with_bias ? " bias" : " no bias") +
         ": first difference at " + std::to_string(i) + ", " +
         std::to_string(got[i]) + " vs reference " + std::to_string(ref[i]);
}

TEST(KernelDispatch, ConvDirectMatchesReferenceBitwise) {
  struct Case {
    ConvShape s;
    const char* what;
  };
  const Case cases[] = {
      {{20, 1, 6, 24, 3, 1}, "U.S. block 1 conv1"},
      {{20, 6, 6, 24, 3, 1}, "U.S. block 1 conv2"},
      {{20, 6, 6, 24, 3, 2}, "U.S. block 2, dilation 2"},
      {{20, 1, 6, 24, 1, 1}, "U.S. k = 1 projection"},
      {{8, 1, 6, 16, 3, 1}, "citd batch 8"},
      {{8, 6, 6, 16, 3, 2}, "citd batch 8, dilation 2"},
      {{64, 6, 6, 16, 3, 1}, "citd batch 64"},
      {{64, 1, 6, 16, 1, 1}, "citd batch 64 projection"},
      {{1, 6, 6, 24, 3, 2}, "batch 1"},
      {{3, 2, 4, 5, 3, 7}, "shift >= len on two taps"},
      {{4, 3, 5, 1, 3, 1}, "len 1"},
      {{5, 3, 7, 13, 2, 3}, "odd dims"},
      // Time-vector edges: lengths around the 16-lane vector and the
      // kConvTileLen-step tile, so every tail mask and tile count runs.
      {{3, 2, 6, 7, 3, 1}, "len 7"},
      {{3, 2, 6, 9, 3, 1}, "len 9"},
      {{3, 2, 6, 15, 3, 2}, "len 15"},
      {{3, 2, 6, 17, 3, 1}, "len 17"},
      {{3, 2, 6, 23, 3, 2}, "len 23"},
      {{3, 2, 6, 25, 3, 1}, "len 25"},
      {{3, 2, 6, 31, 4, 3}, "len 31"},
      {{3, 2, 6, 32, 3, 1}, "len 32"},
      {{3, 2, 6, 33, 3, 1}, "len 33"},
      {{2, 2, 6, 100, 4, 2}, "len 100, four time tiles"},
      // Channel-block remainders: cout 1..9 against the 6-channel tile.
      {{4, 3, 1, 24, 3, 1}, "cout 1"},
      {{4, 3, 2, 24, 3, 1}, "cout 2"},
      {{4, 3, 3, 24, 3, 1}, "cout 3"},
      {{4, 3, 4, 24, 3, 1}, "cout 4"},
      {{4, 3, 5, 24, 3, 1}, "cout 5"},
      {{4, 3, 7, 24, 3, 1}, "cout 7"},
      {{4, 3, 8, 24, 3, 1}, "cout 8"},
      {{4, 3, 9, 24, 3, 1}, "cout 9"},
      // Large shifts: taps with shift >= len, and shifts that cover a
      // whole vector (shift >= 16) before the first live lane.
      {{3, 2, 5, 10, 4, 4}, "k 4, three taps with shift >= len"},
      {{3, 2, 5, 40, 4, 9}, "k 4, shifts 9..27"},
      {{3, 2, 5, 20, 3, 17}, "shift 34 >= len and 17 > one vector"},
      // The dispatch matrix's large shapes.
      {{2, 8, 16, 127, 3, 3}, "former im2col, prime len"},
      {{1, 5, 29, 64, 4, 2}, "former im2col, prime cout"},
      {{3, 4, 16, 257, 1, 1}, "former im2col, k == 1"},
  };
  for (const Case& c : cases) {
    const ConvShape& s = c.s;
    for (int mode = 0; mode < 3; ++mode) {
      const bool special_x = mode >= 1, special_w = mode == 2;
      Rng rng(71 + s.batch * 13 + s.cin * 5 + s.len + mode);
      const ConvCase in = MakeConvCase(s, rng, special_x, special_w);
      for (kn::Backend be : AllBackends()) {
        for (int threads : {1, 4}) {
          BackendGuard bg(be);
          ThreadCountGuard tg(threads);
          for (bool with_bias : {false, true}) {
            const std::string diff = ConvAgainstReference(s, in, with_bias);
            ASSERT_EQ(diff, "")
                << c.what << (special_x ? ", special inputs" : "")
                << (special_w ? ", non-finite weights" : "") << ": "
                << Name(be) << " at " << threads << " threads";
          }
        }
      }
    }
  }
  // Seeded random shapes over every tile edge at once: batch 1-70, cin 1-8,
  // cout 1-9, len 1-70 (up to three time tiles), k 1-4 and dilation 1-12
  // (shifts up to 36).
  Rng shapes(20261017);
  const auto pick = [&shapes](int64_t lo, int64_t hi) {
    return lo + shapes.UniformInt(hi - lo + 1);
  };
  constexpr int kRandomShapes = 6000;
  for (int i = 0; i < kRandomShapes; ++i) {
    const ConvShape s{pick(1, 70), pick(1, 8), pick(1, 9),
                      pick(1, 70), pick(1, 4), pick(1, 12)};
    Rng rng(1000 + i);
    const ConvCase in = MakeConvCase(s, rng, i % 3 != 0, i % 3 == 2);
    for (kn::Backend be : AllBackends()) {
      for (int threads : {1, 4}) {
        BackendGuard bg(be);
        ThreadCountGuard tg(threads);
        const std::string diff = ConvAgainstReference(s, in, i % 2 == 0);
        ASSERT_EQ(diff, "") << "random shape " << i << ": " << Name(be)
                            << " at " << threads << " threads";
      }
    }
  }
}

TEST(KernelDispatch, ConvDirectEmptyOutputTouchesNothing) {
  // On a fresh thread the direct conv's scratch is still unallocated, so an
  // empty first call must not hand its null buffer to memset.
  std::thread([] {
    float x = 1.0f, w = 1.0f, b = 1.0f, out = 7.25f;
    kn::CausalConv1dForward(&x, &w, &b, &out, /*batch=*/0, 1, 1, 4, 1, 1);
    kn::CausalConv1dForward(&x, &w, &b, &out, 1, 1, 1, /*len=*/0, 1, 1);
    kn::CausalConv1dForward(&x, &w, &b, &out, 1, /*cin=*/0, /*cout=*/0, 4, 1,
                            1);
    EXPECT_EQ(out, 7.25f);
  }).join();
}

// ---- Explicit-chain oracles -------------------------------------------------
//
// Every GEMM and conv backward output is one fixed chain (see kernels.h,
// "Linear algebra" and "Backward kernels"). The oracles below write the
// chains out. A product that a chain rounds on its own is stored through a
// volatile, so no build can fuse it; a fused term is std::fmaf. The SIMD
// backend issues every chain explicitly. The scalar backend writes out the
// 4*floor(T/4) rule too, but its one-FMA-per-term chains fuse only where
// the target has FMA, so those are compared with it only there.

// True where the build compiled the tiled arm (AVX-512).
bool TiledArmCompiled() {
  return kn::SimdAvailable() && std::strcmp(kn::SimdIsaName(), "avx512") == 0;
}

// True where the scalar loops' one-FMA-per-term chains fuse: the target
// has a fast fmaf (every build with FMA: native and the AVX2 build, not the
// portable x86 build), so GCC contracts their `+= x * y` (at -O2 and up)
// and the conv backward's MulAdd calls fmaf.
constexpr bool kScalarLoopsFuse =
#ifdef FP_FAST_FMAF
    true;
#else
    false;
#endif

// a * b rounded to float on its own, never contracted into an FMA.
float RoundedProduct(float a, float b) {
  volatile float product = a * b;
  return product;
}

// The 4*floor(T/4) rule: the first 4*floor(T/4) terms of a T-term chain
// have their products rounded and then added in order, the last T mod 4
// are fused.
float FourRuleChain(float s, int64_t terms, const float* a, const float* b) {
  const int64_t n4 = terms / 4 * 4;
  for (int64_t t = 0; t < terms; ++t) {
    s = t < n4 ? s + RoundedProduct(a[t], b[t]) : std::fmaf(a[t], b[t], s);
  }
  return s;
}

// c[i, j] = +0 and the four-rule chain of a's row i against bT's row j,
// stored (not added).
std::vector<float> OracleTransB(const std::vector<float>& a,
                                const std::vector<float>& bT, int64_t p,
                                int64_t q, int64_t r) {
  std::vector<float> c(static_cast<size_t>(p * r));
  for (int64_t i = 0; i < p; ++i) {
    for (int64_t j = 0; j < r; ++j) {
      c[i * r + j] =
          FourRuleChain(0.0f, q, a.data() + i * q, bT.data() + j * q);
    }
  }
  return c;
}

// c[j, l] = +0, then fmaf(a[i, j], b[i, l], c) over ascending i, skipping
// exactly the terms with a[i, j] == 0 (so -0 is skipped and NaN is not).
std::vector<float> OracleTransA(const std::vector<float>& a,
                                const std::vector<float>& b, int64_t p,
                                int64_t q, int64_t r) {
  std::vector<float> c(static_cast<size_t>(q * r));
  for (int64_t j = 0; j < q; ++j) {
    for (int64_t l = 0; l < r; ++l) {
      float s = 0.0f;
      for (int64_t i = 0; i < p; ++i) {
        const float av = a[i * q + j];
        if (av == 0.0f) continue;
        s = std::fmaf(av, b[i * r + l], s);
      }
      c[j * r + l] = s;
    }
  }
  return c;
}

struct ConvBackwardShape {
  int64_t batch, cin, cout, len, k, dilation;
  bool with_gx, with_gb;
};

struct ConvBackwardCase {
  ConvBackwardShape s;
  std::vector<float> x, w, gout, gx, gw, gb;  // gx/gw/gb: the starting values
};

// gx, gw and gb concatenated, after accumulating into the starting values:
//  - gx[b, ci, t]: one fmaf(w, gout, gx) per ascending (cout, tap) whose
//    t + shift < len;
//  - gb[co]: per batch row, the row's gout summed in ascending time from
//    +0 with plain adds; the row sums added in batch order;
//  - gw[co, ci, tap]: per batch row, the four-rule chain of gout[t + shift]
//    * x[t] over t < T = len - shift, from +0; the row results added in
//    batch order, so a tap with T <= 0 adds +0 per row.
std::vector<float> OracleConvBackward(const ConvBackwardCase& c) {
  const ConvBackwardShape& s = c.s;
  std::vector<float> gx = c.gx, gw = c.gw, gb = c.gb;
  const auto shift_of = [&s](int64_t kk) {
    return (s.k - 1 - kk) * s.dilation;
  };
  if (s.with_gx) {
    for (int64_t b = 0; b < s.batch; ++b) {
      for (int64_t ci = 0; ci < s.cin; ++ci) {
        for (int64_t t = 0; t < s.len; ++t) {
          float& v = gx[(b * s.cin + ci) * s.len + t];
          for (int64_t co = 0; co < s.cout; ++co) {
            const float* grow = c.gout.data() + (b * s.cout + co) * s.len;
            for (int64_t kk = 0; kk < s.k; ++kk) {
              if (t + shift_of(kk) >= s.len) continue;
              v = std::fmaf(c.w[(co * s.cin + ci) * s.k + kk],
                            grow[t + shift_of(kk)], v);
            }
          }
        }
      }
    }
  }
  for (int64_t co = 0; co < s.cout; ++co) {
    if (s.with_gb) {
      for (int64_t b = 0; b < s.batch; ++b) {
        float row = 0.0f;
        for (int64_t t = 0; t < s.len; ++t) {
          row = row + c.gout[(b * s.cout + co) * s.len + t];
        }
        gb[co] = gb[co] + row;
      }
    }
    for (int64_t ci = 0; ci < s.cin; ++ci) {
      for (int64_t kk = 0; kk < s.k; ++kk) {
        const int64_t shift = shift_of(kk);
        float& v = gw[(co * s.cin + ci) * s.k + kk];
        for (int64_t b = 0; b < s.batch; ++b) {
          const float* grow = c.gout.data() + (b * s.cout + co) * s.len;
          const float* xrow = c.x.data() + (b * s.cin + ci) * s.len;
          const int64_t terms = std::max<int64_t>(0, s.len - shift);
          v = v + FourRuleChain(0.0f, terms, grow + std::min(shift, s.len),
                                xrow);
        }
      }
    }
  }
  std::vector<float> out = std::move(gx);
  out.insert(out.end(), gw.begin(), gw.end());
  out.insert(out.end(), gb.begin(), gb.end());
  return out;
}

// Draws for the backward matrices. With `special`, about one value in
// twelve is the NaN this hardware generates itself (so every NaN has the
// same bits and propagation order cannot show), +-inf, -0, +0 or a
// subnormal. `zeros` is the share of exact zeros of both signs, which
// exercises TransA's skip and zero weights.
float BackwardDraw(Rng& rng, bool special, double zeros) {
  volatile float inf_v = INFINITY;
  const float nan = inf_v - inf_v;
  const float specials[] = {nan, INFINITY, -INFINITY, -0.0f, 0.0f, 1e-40f};
  const double u = rng.Uniform(0.0, 1.0);
  if (u < zeros) return u < zeros / 2 ? 0.0f : -0.0f;
  if (special && rng.Uniform(0.0, 1.0) < 1.0 / 12) {
    return specials[rng.UniformInt(6)];
  }
  return static_cast<float>(rng.Uniform(-1.0, 1.0));
}

std::vector<float> BackwardDraws(Rng& rng, int64_t n, bool special,
                                 double zeros) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = BackwardDraw(rng, special, zeros);
  return v;
}

// A float with every digit and its bit pattern.
std::string Bits(float v) {
  uint32_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g (0x%08x)", static_cast<double>(v),
                static_cast<unsigned>(u));
  return buf;
}

// Index and values of the first bitwise difference, or "" when equal.
std::string FirstBitDifference(const std::vector<float>& got,
                               const std::vector<float>& want) {
  if (got.size() != want.size()) {
    return "size " + std::to_string(got.size()) + " vs oracle " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      return "first difference at " + std::to_string(i) + ": " +
             Bits(got[i]) + " vs oracle " + Bits(want[i]);
    }
  }
  return "";
}

// Runs each case through `run` on `backend`, spread round-robin over
// `threads` threads that run at once (so each uses its own kernel scratch
// concurrently), and memcmps it against the oracle's result. Returns the
// first mismatch, described by `what`.
template <typename Case, typename Run, typename What>
std::string CompareWithOracle(kn::Backend backend,
                              const std::vector<Case>& cases,
                              const std::vector<std::vector<float>>& want,
                              int threads, Run run, What what) {
  BackendGuard bg(backend);
  std::vector<std::string> first(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < cases.size();
           i += static_cast<size_t>(threads)) {
        const std::string diff = FirstBitDifference(run(cases[i]), want[i]);
        if (!diff.empty()) {
          first[static_cast<size_t>(t)] = what(cases[i]) + ": " + diff;
          return;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (const std::string& f : first) {
    if (!f.empty()) {
      return f + " on the " + Name(backend) + " backend at " +
             std::to_string(threads) + " threads";
    }
  }
  return "";
}

struct GemmCase {
  GemmShape s;
  std::vector<float> a, b;
};

std::string Describe(const GemmCase& c) {
  return "p=" + std::to_string(c.s.p) + " q=" + std::to_string(c.s.q) +
         " r=" + std::to_string(c.s.r);
}

// A GEMM matrix: the given shapes, then seeded random ones. Every third
// case draws special values. a is [p, q]; b is [p, r] for TransA, and
// [q, r] (MatMul) or bT [r, q] (TransB) otherwise.
std::vector<GemmCase> GemmCases(
    std::vector<GemmShape> shapes, uint64_t seed, int random_shapes,
    const std::function<GemmShape(Rng&)>& random_shape, bool trans_a,
    double a_zeros) {
  Rng pick(seed);
  for (int i = 0; i < random_shapes; ++i) shapes.push_back(random_shape(pick));
  std::vector<GemmCase> cases;
  for (size_t i = 0; i < shapes.size(); ++i) {
    const GemmShape& s = shapes[i];
    Rng rng(seed + 1 + i);
    const bool special = i % 3 == 2;
    GemmCase c{s, {}, {}};
    c.a = BackwardDraws(rng, s.p * s.q, special, a_zeros);
    c.b = BackwardDraws(rng, trans_a ? s.p * s.r : s.r * s.q, special, 0.05);
    cases.push_back(std::move(c));
  }
  return cases;
}

// c[i, j] = +0; then per kGemmKc block of k, a chain from +0 with one fmaf
// per ascending k, added into c.
std::vector<float> OracleGemm(const std::vector<float>& a,
                              const std::vector<float>& b, int64_t p,
                              int64_t q, int64_t r) {
  std::vector<float> c(static_cast<size_t>(p * r));
  for (int64_t i = 0; i < p; ++i) {
    for (int64_t j = 0; j < r; ++j) {
      float v = 0.0f;
      for (int64_t k0 = 0; k0 < q; k0 += kn::kGemmKc) {
        float acc = 0.0f;
        for (int64_t k = k0; k < std::min(q, k0 + kn::kGemmKc); ++k) {
          acc = std::fmaf(a[i * q + k], b[k * r + j], acc);
        }
        v = v + acc;
      }
      c[i * r + j] = v;
    }
  }
  return c;
}

// Every SIMD arm issues the forward chain explicitly (the AVX-512 GEMV and
// in-place tile, the AVX2 and NEON packed tiles); the scalar tile is
// `acc += x * b`, so it meets the chain where that contracts.
TEST(KernelDispatch, GemmMatchesChainOracleBitwise) {
  std::vector<kn::Backend> backends;
  for (kn::Backend b : AllBackends()) {
    if (b == kn::Backend::kSimd || kScalarLoopsFuse) backends.push_back(b);
  }
  if (backends.empty()) {
    GTEST_SKIP() << "no SIMD path compiled and the scalar tile does not fuse";
  }
  // c = a @ b, a:[p, q], b:[q, r]. The actor's r = 1 GEMMs at U.S. and citd
  // shape, alone and (citd) stacked 8 deep; rows around the 16-row vector;
  // depths around kGemmKc; columns around the 16-lane vector and the
  // 32-column panel; the actor's and critic's r > 1 GEMMs; empty shapes;
  // then random shapes with p 0-40, q 0-300 and r 0-70, r = 1 one time in
  // three.
  const std::vector<GemmShape> shapes = {
      {120, 24, 1},  {480, 6, 1},   {20, 24, 1},   {48, 16, 1},
      {128, 6, 1},   {8, 16, 1},    {384, 16, 1},  {1024, 6, 1},
      {64, 16, 1},   {15, 24, 1},   {16, 24, 1},   {17, 6, 1},
      {31, 13, 1},   {33, 40, 1},   {5, 1, 1},     {19, 255, 1},
      {19, 256, 1},  {19, 257, 1},  {7, 513, 1},   {9, 20, 15},
      {9, 20, 16},   {9, 20, 17},   {9, 20, 31},   {9, 20, 32},
      {9, 20, 33},   {9, 20, 144},  {20, 6, 24},   {20, 24, 20},
      {20, 20, 20},  {20, 20, 144}, {20, 12, 24},  {20, 11, 24},
      {1, 285, 48},  {1, 48, 1},    {3, 513, 40},  {0, 5, 1},
      {5, 0, 1},     {5, 7, 0},     {5, 0, 7},     {0, 0, 0},
  };
  const std::vector<GemmCase> cases = GemmCases(
      shapes, 20261022, 200,
      [](Rng& rng) {
        const int64_t p = rng.UniformInt(41), q = rng.UniformInt(301);
        const int64_t r = rng.UniformInt(3) == 0 ? 1 : rng.UniformInt(71);
        return GemmShape{p, q, r};
      },
      /*trans_a=*/false, /*a_zeros=*/0.05);
  std::vector<std::vector<float>> want;
  for (const GemmCase& c : cases) {
    want.push_back(OracleGemm(c.a, c.b, c.s.p, c.s.q, c.s.r));
  }
  for (kn::Backend be : backends) {
    for (int threads : {1, 4}) {
      const std::string diff = CompareWithOracle(
          be, cases, want, threads,
          [](const GemmCase& c) {
            std::vector<float> out(static_cast<size_t>(c.s.p * c.s.r), 7.25f);
            kn::MatMul(c.a.data(), c.b.data(), out.data(), c.s.p, c.s.q,
                       c.s.r);
            return out;
          },
          [](const GemmCase& c) { return "MatMul " + Describe(c); });
      ASSERT_EQ(diff, "");
    }
  }
}

// Both backends write the 4*floor(q/4) rule out, so both match the oracle
// in every build.
TEST(KernelDispatch, TransBMatchesChainOracleBitwise) {
  // c = a @ bT^T, a:[p, q], bT:[r, q]. The U.S. actor's shapes, empty
  // shapes, inner extents past 256 over all four q mod 4 residues, r = 1
  // and r past 32; then random shapes with p 0-40, q 0-300, r 0-70.
  const std::vector<GemmShape> shapes = {
      {480, 1, 6},  {20, 24, 6},  {20, 20, 24}, {20, 20, 20}, {20, 144, 20},
      {20, 1, 24},  {120, 1, 24}, {20, 24, 12}, {20, 24, 11}, {1, 48, 48},
      {1, 1, 48},   {0, 5, 7},    {5, 0, 7},    {5, 7, 0},    {0, 0, 0},
      {3, 256, 33}, {3, 257, 33}, {3, 258, 31}, {3, 259, 17}, {2, 300, 70},
      {40, 13, 1},  {7, 9, 33},   {5, 6, 65},   {4, 3, 16},   {5, 2, 32},
  };
  const std::vector<GemmCase> cases = GemmCases(
      shapes, 20261019, 300,
      [](Rng& rng) {
        return GemmShape{rng.UniformInt(41), rng.UniformInt(301),
                         rng.UniformInt(71)};
      },
      /*trans_a=*/false, /*a_zeros=*/0.05);
  std::vector<std::vector<float>> want;
  for (const GemmCase& c : cases) {
    want.push_back(OracleTransB(c.a, c.b, c.s.p, c.s.q, c.s.r));
  }
  for (kn::Backend be : AllBackends()) {
    for (int threads : {1, 4}) {
      const std::string diff = CompareWithOracle(
          be, cases, want, threads,
          [](const GemmCase& c) {
            std::vector<float> out(static_cast<size_t>(c.s.p * c.s.r), 7.25f);
            kn::MatMulTransB(c.a.data(), c.b.data(), out.data(), c.s.p,
                             c.s.q, c.s.r);
            return out;
          },
          [](const GemmCase& c) { return "TransB " + Describe(c); });
      ASSERT_EQ(diff, "");
    }
  }
}

// The backends whose backward kernels issue one FMA per term where the
// chains say so: the tiled arm in every build, the scalar loops (which the
// SIMD backend also runs in builds without the tiled arm) where they fuse.
std::vector<kn::Backend> FusedChainBackends() {
  std::vector<kn::Backend> v;
  for (kn::Backend b : AllBackends()) {
    if ((b == kn::Backend::kSimd && TiledArmCompiled()) || kScalarLoopsFuse) {
      v.push_back(b);
    }
  }
  return v;
}

TEST(KernelDispatch, TransAMatchesChainOracleBitwise) {
  if (FusedChainBackends().empty()) {
    GTEST_SKIP() << "no tiled arm compiled and the scalar loops do not fuse";
  }
  // c = a^T @ b, a:[p, q], b:[p, r]; the inner extent is p. a holds 30%
  // zeros of both signs (ReLU activations in the model). Random shapes
  // draw r = 1, the arm whose lanes run over q, one time in four.
  const std::vector<GemmShape> shapes = {
      {480, 6, 1},  {20, 6, 24},  {20, 24, 20}, {20, 24, 1},  {20, 20, 20},
      {20, 20, 144}, {120, 24, 1}, {20, 12, 24}, {20, 11, 24}, {1, 48, 48},
      {1, 48, 1},   {1, 285, 48}, {0, 5, 7},    {5, 0, 7},    {5, 7, 0},
      {0, 0, 1},    {300, 40, 1}, {257, 33, 2}, {259, 3, 70}, {7, 70, 1},
      {9, 4, 33},   {6, 5, 16},   {6, 17, 32},
  };
  const std::vector<GemmCase> cases = GemmCases(
      shapes, 20261020, 300,
      [](Rng& rng) {
        const int64_t p = rng.UniformInt(301), q = rng.UniformInt(41);
        const int64_t r = rng.UniformInt(4) == 0 ? 1 : rng.UniformInt(71);
        return GemmShape{p, q, r};
      },
      /*trans_a=*/true, /*a_zeros=*/0.3);
  std::vector<std::vector<float>> want;
  for (const GemmCase& c : cases) {
    want.push_back(OracleTransA(c.a, c.b, c.s.p, c.s.q, c.s.r));
  }
  for (kn::Backend be : FusedChainBackends()) {
    for (int threads : {1, 4}) {
      const std::string diff = CompareWithOracle(
          be, cases, want, threads,
          [](const GemmCase& c) {
            std::vector<float> out(static_cast<size_t>(c.s.q * c.s.r), 7.25f);
            kn::MatMulTransA(c.a.data(), c.b.data(), out.data(), c.s.p,
                             c.s.q, c.s.r);
            return out;
          },
          [](const GemmCase& c) { return "TransA " + Describe(c); });
      ASSERT_EQ(diff, "");
    }
  }
}

TEST(KernelDispatch, ConvBackwardMatchesChainOracleBitwise) {
  if (FusedChainBackends().empty()) {
    GTEST_SKIP() << "no tiled arm compiled and the scalar loops do not fuse "
                    "gx";
  }
  // The U.S. TCN's five convs (the first conv and the projection read a
  // constant, so no gx), empty shapes, gw chains past 256 terms, shifts at
  // and past len; then random shapes with batch 1-40, cin 1-8, cout 1-9,
  // len 1-70, k 1-4 and dilation 1-12, so every T mod 4 residue and every
  // tile edge occurs, with gx and gb each absent one time in four.
  std::vector<ConvBackwardShape> shapes = {
      {20, 1, 6, 24, 3, 1, false, true},  {20, 6, 6, 24, 3, 1, true, true},
      {20, 1, 6, 24, 1, 1, false, true},  {20, 6, 6, 24, 3, 2, true, true},
      {8, 6, 6, 16, 3, 2, true, true},    {0, 3, 4, 10, 3, 1, true, true},
      {3, 0, 4, 10, 3, 1, true, true},    {3, 4, 0, 10, 3, 1, true, true},
      {3, 4, 5, 0, 3, 1, true, true},     {2, 3, 4, 300, 3, 2, true, true},
      {17, 2, 7, 259, 2, 1, true, false}, {3, 2, 5, 10, 4, 4, true, true},
      {33, 9, 13, 37, 3, 17, true, true}, {1, 1, 1, 1, 1, 1, true, true},
      {40, 7, 2, 33, 4, 11, false, false},
  };
  Rng pick(20261021);
  for (int i = 0; i < 600; ++i) {
    shapes.push_back({1 + pick.UniformInt(40), 1 + pick.UniformInt(8),
                      1 + pick.UniformInt(9), 1 + pick.UniformInt(70),
                      1 + pick.UniformInt(4), 1 + pick.UniformInt(12),
                      pick.UniformInt(4) != 0, pick.UniformInt(4) != 0});
  }
  std::vector<ConvBackwardCase> cases;
  for (size_t i = 0; i < shapes.size(); ++i) {
    const ConvBackwardShape& s = shapes[i];
    Rng rng(7000 + i);
    const bool special = i % 3 == 2;
    ConvBackwardCase c;
    c.s = s;
    c.x = BackwardDraws(rng, s.batch * s.cin * s.len, special, 0.2);
    c.w = BackwardDraws(rng, s.cout * s.cin * s.k, special, 0.1);
    c.gout = BackwardDraws(rng, s.batch * s.cout * s.len, special, 0.05);
    // Accumulation targets start from values with both zero signs.
    c.gx = s.with_gx ? BackwardDraws(rng, s.batch * s.cin * s.len, false, 0.3)
                     : std::vector<float>();
    c.gw = BackwardDraws(rng, s.cout * s.cin * s.k, false, 0.3);
    c.gb = s.with_gb ? BackwardDraws(rng, s.cout, false, 0.3)
                     : std::vector<float>();
    cases.push_back(std::move(c));
  }
  std::vector<std::vector<float>> want;
  for (const ConvBackwardCase& c : cases) want.push_back(OracleConvBackward(c));
  for (kn::Backend be : FusedChainBackends()) {
    for (int threads : {1, 4}) {
      const std::string diff = CompareWithOracle(
          be, cases, want, threads,
          [](const ConvBackwardCase& c) {
            const ConvBackwardShape& s = c.s;
            std::vector<float> gx = c.gx, gw = c.gw, gb = c.gb;
            kn::CausalConv1dBackward(
                c.x.data(), c.w.data(), c.gout.data(),
                s.with_gx ? gx.data() : nullptr, gw.data(),
                s.with_gb ? gb.data() : nullptr, s.batch, s.cin, s.cout,
                s.len, s.k, s.dilation);
            gx.insert(gx.end(), gw.begin(), gw.end());
            gx.insert(gx.end(), gb.begin(), gb.end());
            return gx;
          },
          [](const ConvBackwardCase& c) {
            const ConvBackwardShape& s = c.s;
            return "conv backward batch=" + std::to_string(s.batch) +
                   " cin=" + std::to_string(s.cin) +
                   " cout=" + std::to_string(s.cout) +
                   " len=" + std::to_string(s.len) +
                   " k=" + std::to_string(s.k) +
                   " dilation=" + std::to_string(s.dilation) +
                   (s.with_gx ? "" : " no gx") + (s.with_gb ? "" : " no gb");
          });
      ASSERT_EQ(diff, "");
    }
  }
}

// ---- Packed-panel buffer: allocation-free steady state ---------------------

TEST(GemmPack, SteadyStateAllocationFree) {
#ifdef CIT_OBS_DISABLED
  GTEST_SKIP() << "CIT_OBS=OFF build: counters compile out";
#endif
  TelemetryGuard telemetry(true);
  ThreadCountGuard tg(1);  // inline path: only this thread packs
  auto& allocs =
      obs::Registry::Global().GetCounter("kernels.gemm_pack_allocs");
  // Warm up: this thread's panel is allocated at most once, ever.
  RunGemm({64, 64, 64}, kn::ActiveBackend(), 1);
  const uint64_t after_warmup = allocs.Total();
  for (int round = 0; round < 10; ++round) {
    for (const GemmShape& s : kGemmShapes) {
      RunGemm(s, kn::ActiveBackend(), 1);
    }
  }
  EXPECT_EQ(allocs.Total(), after_warmup)
      << "GEMM allocated a pack panel after warmup — the hot loop must be "
         "allocation-free in steady state";
}

// ---- Byte-accounting formulas ----------------------------------------------

TEST(KernelObs, GemmBytesFormula) {
#ifdef CIT_OBS_DISABLED
  GTEST_SKIP() << "CIT_OBS=OFF build: counters compile out";
#endif
  TelemetryGuard telemetry(true);
  ThreadCountGuard tg(1);
  for (kn::Backend be : AllBackends()) {
    const bool tiled = be == kn::Backend::kSimd && TiledArmCompiled();
    for (const GemmShape& s : {GemmShape{50, 300, 40}, GemmShape{37, 300, 1}}) {
      const int64_t p = s.p, q = s.q, r = s.r;
      obs::Registry::Global().ResetAll();
      RunGemm(s, be, 1);
      // Closed forms (see CountGemm in kernels.cc), after the C zero-fill.
      const int64_t nj = (r + kn::kGemmNr - 1) / kn::kGemmNr;  // 2, 1
      const int64_t nk = (q + kn::kGemmKc - 1) / kn::kGemmKc;  // 2
      int64_t floats = p * r;
      if (tiled && r == 1) {
        // GEMV: A once, b once per 16-row vector, C read-modify-written
        // per depth block.
        const int64_t vectors = (p + 15) / 16;  // 3
        floats += p * q + vectors * q + 2 * nk * p;
      } else if (tiled) {
        // In-place tile: B's valid columns once, A per column panel, C
        // read-modify-written per depth block.
        floats += q * r + nj * p * q + 2 * nk * p * r;
      } else {
        // Packed: B pack reads + padded panel writes, A per column panel,
        // C read-modify-written per depth block.
        floats += q * r + nj * q * kn::kGemmNr + nj * p * q + 2 * nk * p * r;
      }
      EXPECT_EQ(
          obs::Registry::Global().GetCounter("kernels.gemm_bytes").Total(),
          static_cast<uint64_t>(4 * floats))
          << Name(be) << " p=" << p << " r=" << r;
      // Calls and FLOPs do not depend on the arm.
      EXPECT_EQ(
          obs::Registry::Global().GetCounter("kernels.gemm_calls").Total(), 1u);
      EXPECT_EQ(
          obs::Registry::Global().GetCounter("kernels.gemm_flops").Total(),
          static_cast<uint64_t>(2 * p * q * r));
    }
  }
}

TEST(KernelObs, GemmTransBBytesFormula) {
#ifdef CIT_OBS_DISABLED
  GTEST_SKIP() << "CIT_OBS=OFF build: counters compile out";
#endif
  TelemetryGuard telemetry(true);
  ThreadCountGuard tg(1);
  for (kn::Backend be : AllBackends()) {
    BackendGuard bg(be);
    const bool tiled = be == kn::Backend::kSimd && TiledArmCompiled();
    for (const GemmShape& s : {GemmShape{9, 21, 14}, GemmShape{5, 7, 40}}) {
      const int64_t p = s.p, q = s.q, r = s.r;
      Rng rng(59);
      std::vector<float> a(static_cast<size_t>(p * q)),
          bT(static_cast<size_t>(r * q)), c(static_cast<size_t>(p * r));
      for (float& v : a) v = rng.Uniform(-1.0f, 1.0f);
      for (float& v : bT) v = rng.Uniform(-1.0f, 1.0f);
      obs::Registry::Global().ResetAll();
      kn::MatMulTransB(a.data(), bT.data(), c.data(), p, q, r);
      int64_t floats = 0;
      if (tiled) {
        // bT read once and written to the transposed pack, whose columns
        // are zero-padded to whole 16-float vectors; the whole pack read
        // once per 4-row tile; each a row once per 32-column block; C
        // stored once.
        const int64_t rpad = (r + 15) / 16 * 16;     // 16, 48
        const int64_t row_tiles = (p + 3) / 4;       // 3, 2
        const int64_t col_blocks = (r + 31) / 32;    // 1, 2
        floats = q * r + q * rpad + row_tiles * q * rpad +
                 col_blocks * p * q + p * r;
      } else {
        // bT streamed fully per output row; a re-read once per 4-column
        // group plus once per tail column; C stored once.
        const int64_t groups = r / 4 + r % 4;  // 3 + 2, 10 + 0
        floats = p * q * groups + p * q * r + p * r;
      }
      EXPECT_EQ(
          obs::Registry::Global().GetCounter("kernels.gemm_bytes").Total(),
          static_cast<uint64_t>(4 * floats))
          << Name(be) << " p=" << p << " r=" << r;
      // Calls and FLOPs do not depend on the arm.
      EXPECT_EQ(
          obs::Registry::Global().GetCounter("kernels.gemm_calls").Total(), 1u);
      EXPECT_EQ(
          obs::Registry::Global().GetCounter("kernels.gemm_flops").Total(),
          static_cast<uint64_t>(2 * p * q * r));
    }
  }
}

TEST(KernelObs, GemmTransABytesFormula) {
#ifdef CIT_OBS_DISABLED
  GTEST_SKIP() << "CIT_OBS=OFF build: counters compile out";
#endif
  TelemetryGuard telemetry(true);
  ThreadCountGuard tg(1);
  for (kn::Backend be : AllBackends()) {
    BackendGuard bg(be);
    const bool tiled = be == kn::Backend::kSimd && TiledArmCompiled();
    for (const GemmShape& s : {GemmShape{9, 21, 14}, GemmShape{6, 7, 40},
                               GemmShape{30, 37, 1}}) {
      const int64_t p = s.p, q = s.q, r = s.r;
      Rng rng(61);
      std::vector<float> a(static_cast<size_t>(p * q)),
          b(static_cast<size_t>(p * r)), c(static_cast<size_t>(q * r));
      for (float& v : a) v = rng.Uniform(-1.0f, 1.0f);
      for (float& v : b) v = rng.Uniform(-1.0f, 1.0f);
      obs::Registry::Global().ResetAll();
      kn::MatMulTransA(a.data(), b.data(), c.data(), p, q, r);
      int64_t floats = 0;
      if (!tiled) {
        // C zero-filled; a read once; per (i, j) a b row streamed and a C
        // row read-modify-written.
        floats = q * r + p * q + 3 * p * q * r;
      } else if (r == 1) {
        // Lanes over q: a read once, b once per 32-wide block of q, C
        // stored once.
        const int64_t q_blocks = (q + 31) / 32;  // 2
        floats = p * q + q_blocks * p + q;
      } else {
        // Lanes over r: all of a per 32-column block, all of b per 4-row
        // tile of C, C stored once.
        const int64_t col_blocks = (r + 31) / 32;  // 1, 2
        const int64_t row_tiles = (q + 3) / 4;     // 6, 2
        floats = col_blocks * p * q + row_tiles * p * r + q * r;
      }
      EXPECT_EQ(
          obs::Registry::Global().GetCounter("kernels.gemm_bytes").Total(),
          static_cast<uint64_t>(4 * floats))
          << Name(be) << " q=" << q << " r=" << r;
      EXPECT_EQ(
          obs::Registry::Global().GetCounter("kernels.gemm_calls").Total(), 1u);
      EXPECT_EQ(
          obs::Registry::Global().GetCounter("kernels.gemm_flops").Total(),
          static_cast<uint64_t>(2 * p * q * r));
    }
  }
}

TEST(KernelObs, ConvBytesFormulaBothPaths) {
#ifdef CIT_OBS_DISABLED
  GTEST_SKIP() << "CIT_OBS=OFF build: counters compile out";
#endif
  TelemetryGuard telemetry(true);
  ThreadCountGuard tg(1);
  for (kn::Backend be : AllBackends()) {
    // The SIMD backend's conv is the register-tiled arm exactly where the
    // build compiled one (AVX-512).
    const bool tiled = be == kn::Backend::kSimd && TiledArmCompiled();
    for (const ConvShape& s :
         {ConvShape{1, 2, 3, 6, 2, 1}, ConvShape{4, 2, 3, 6, 2, 1},
          ConvShape{3, 2, 7, 40, 3, 2}, ConvShape{2, 8, 16, 127, 3, 3}}) {
      obs::Registry::Global().ResetAll();
      RunConv(s, be, 1);
      int64_t taps = 0;  // post-pad tap coverage, shared by every formula
      for (int64_t kk = 0; kk < s.k; ++kk) {
        taps += std::max<int64_t>(0, s.len - (s.k - 1 - kk) * s.dilation);
      }
      // Tiled, per batch: input rows once per channel block and tap + each
      // output stored once with its bias + weights and bias once per row
      // tile. Time-major, per batch: regroup in + accumulator zero-fill +
      // per-tap RMW against an input read + regroup out with the bias
      // fused in; per call, the weights and the bias read once.
      const int64_t blocks = (s.cout + kn::kConvTileCout - 1) /
                             kn::kConvTileCout;
      const int64_t tiles = (s.len + kn::kConvTileLen - 1) / kn::kConvTileLen;
      const int64_t floats =
          tiled ? s.batch * (blocks * s.cin * taps + s.cout * s.len +
                             tiles * (s.cout * s.cin * s.k + s.cout))
                : s.batch * (2 * s.cin * s.len + 3 * s.cout * s.len +
                             3 * s.cout * s.cin * taps) +
                      s.cout * s.cin * s.k + s.cout;
      const char* path = tiled ? "tiled" : "time-major";
      EXPECT_EQ(
          obs::Registry::Global().GetCounter("kernels.conv_bytes").Total(),
          static_cast<uint64_t>(4 * floats))
          << Name(be) << " " << path << " path, batch=" << s.batch
          << " len=" << s.len;
      // Calls and FLOPs do not depend on the path.
      EXPECT_EQ(
          obs::Registry::Global().GetCounter("kernels.conv_calls").Total(), 1u);
      EXPECT_EQ(
          obs::Registry::Global().GetCounter("kernels.conv_flops").Total(),
          static_cast<uint64_t>(2 * s.batch * s.cout * s.cin * s.k * s.len));
      // No shape lowers to a GEMM.
      EXPECT_EQ(
          obs::Registry::Global().GetCounter("kernels.gemm_calls").Total(), 0u);
    }
  }
}

TEST(KernelObs, ConvBackwardBytesFormula) {
#ifdef CIT_OBS_DISABLED
  GTEST_SKIP() << "CIT_OBS=OFF build: counters compile out";
#endif
  TelemetryGuard telemetry(true);
  ThreadCountGuard tg(1);
  for (kn::Backend be : AllBackends()) {
    BackendGuard bg(be);
    const bool tiled = be == kn::Backend::kSimd && TiledArmCompiled();
    // With and without gx and gb; batch 17 pads to two vectors of rows,
    // cin 8 and cout 7 end in partial channel blocks, len 40 in a partial
    // time tile, and the last shape has a tap whose shift is past len.
    for (const ConvBackwardShape& s :
         {ConvBackwardShape{2, 3, 4, 10, 3, 2, true, true},
          ConvBackwardShape{17, 8, 7, 40, 2, 1, false, true},
          ConvBackwardShape{3, 2, 5, 4, 3, 3, true, false}}) {
      Rng rng(67);
      std::vector<float> x(static_cast<size_t>(s.batch * s.cin * s.len)),
          w(static_cast<size_t>(s.cout * s.cin * s.k)),
          gout(static_cast<size_t>(s.batch * s.cout * s.len)),
          gx(x.size()), gw(w.size()), gb(static_cast<size_t>(s.cout));
      for (std::vector<float>* v : {&x, &w, &gout}) {
        for (float& f : *v) f = rng.Uniform(-1.0f, 1.0f);
      }
      obs::Registry::Global().ResetAll();
      kn::CausalConv1dBackward(x.data(), w.data(), gout.data(),
                               s.with_gx ? gx.data() : nullptr, gw.data(),
                               s.with_gb ? gb.data() : nullptr, s.batch,
                               s.cin, s.cout, s.len, s.k, s.dilation);
      int64_t taps = 0;  // post-pad tap coverage: 24, 79, 5
      int64_t live = 0;  // taps with a term: 3, 2, 2
      for (int64_t kk = 0; kk < s.k; ++kk) {
        const int64_t terms = s.len - (s.k - 1 - kk) * s.dilation;
        taps += std::max<int64_t>(0, terms);
        if (terms > 0) ++live;
      }
      int64_t floats = 0;
      if (tiled) {
        const int64_t bpad = (s.batch + 15) / 16 * 16;  // 16, 32, 16
        const int64_t row_blocks = bpad / 16;           // 1, 2, 1
        const int64_t cin_blocks =
            (s.cin + kn::kConvTileCout - 1) / kn::kConvTileCout;
        const int64_t cout_blocks =
            (s.cout + kn::kConvTileCout - 1) / kn::kConvTileCout;
        const int64_t tiles = (s.len + kn::kConvTileLen - 1) / kn::kConvTileLen;
        // gx tiles: gx loaded and stored once, gout over the tap coverage
        // per input-channel block, each live weight per time tile.
        if (s.with_gx) {
          floats += s.batch * (2 * s.cin * s.len + cin_blocks * s.cout * taps +
                               tiles * s.cout * s.cin * live);
        }
        // Both time-major regroups: read once, written padded to bpad.
        floats += (s.cout + s.cin) * s.len * (s.batch + bpad);
        // gb tiles: the regrouped gout once, gb updated per row block.
        if (s.with_gb) {
          floats += s.cout * s.len * bpad + 2 * s.cout * row_blocks;
        }
        // gw tiles: per cin and term, the regrouped x per output-channel
        // block and the regrouped gout per output channel; gw updated per
        // row block.
        floats += s.cin * taps * bpad * (cout_blocks + s.cout) +
                  2 * s.cout * s.cin * s.k * row_blocks;
      } else {
        // Per (row, co, ci): the weight and gw per tap, and per term gout,
        // x and a gx read-modify-write; per (row, co) the gout row and gb.
        floats = s.batch * s.cout * s.cin * (3 * s.k + 4 * taps);
        if (s.with_gb) floats += s.batch * s.cout * (s.len + 2);
        // Without a gx the loops zero-fill a scratch one first.
        if (!s.with_gx) floats += s.batch * s.cin * s.len;
      }
      EXPECT_EQ(
          obs::Registry::Global().GetCounter("kernels.conv_bytes").Total(),
          static_cast<uint64_t>(4 * floats))
          << Name(be) << (tiled ? " tiled" : " scalar") << " arm, batch="
          << s.batch << " len=" << s.len;
      EXPECT_EQ(obs::Registry::Global()
                    .GetCounter("kernels.conv_backward_calls")
                    .Total(),
                1u);
      EXPECT_EQ(
          obs::Registry::Global().GetCounter("kernels.conv_flops").Total(),
          static_cast<uint64_t>(4 * s.batch * s.cout * s.cin * s.k * s.len));
      EXPECT_EQ(
          obs::Registry::Global().GetCounter("kernels.conv_calls").Total(), 0u);
    }
  }
}

}  // namespace
}  // namespace cit
