#include "math/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/env_config.h"
#include "math/simd.h"
#include "obs/telemetry.h"

namespace cit::math::kernels {
namespace {

// ---- Backend selection -----------------------------------------------------

std::atomic<Backend>& BackendSlot() {
  static std::atomic<Backend> slot = [] {
    switch (GetKernelChoice()) {
      case KernelChoice::kScalar: return Backend::kScalar;
      case KernelChoice::kSimd:
      case KernelChoice::kAuto:
        break;
    }
    return simd::Available() ? Backend::kSimd : Backend::kScalar;
  }();
  return slot;
}

inline bool UseSimd() {
  return BackendSlot().load(std::memory_order_relaxed) == Backend::kSimd;
}

// Telemetry for one GEMM-shaped call: multiply-add FLOPs plus the logical
// load/store traffic of the kernel's loop structure (what the loops
// address, not what survives the cache hierarchy). Counter-only on purpose
// — these calls are too frequent and too small to afford clock reads.
//
// MatMul, per arm, with nK = ceil(q/KC) depth blocks and nJ = ceil(r/NR)
// column panels. Every arm zero-fills C once (p*r stores). The packed arm
// (the scalar backend, and the SIMD backend without the tiled arm):
//   - reads each B element once while packing        (q*r loads) and
//     writes the zero-padded panels                  (nJ*q*NR stores),
//   - streams A once per column panel               (nJ*p*q loads),
//   - read-modify-writes each C tile once per depth
//     block during accumulator write-back           (2*nK*p*r).
// Register-tile re-reads of the L1-resident panel are not counted. The
// tiled arm's in-place tile reads B's valid columns in place instead of
// packing (q*r loads; later row tiles' re-reads, like the packed panel's,
// are not counted), and streams A and updates C as above. Its GEMV
// (r == 1) reads A once (p*q), b once per vector of kTileLanes rows
// (ceil(p/16)*q) and read-modify-writes C once per depth block (2*nK*p).
// Pinned by tests/test_kernels.cc KernelObs.GemmBytesFormula.
inline void CountGemm([[maybe_unused]] int64_t p, [[maybe_unused]] int64_t q,
                      [[maybe_unused]] int64_t r, [[maybe_unused]] bool tiled,
                      [[maybe_unused]] bool gemv) {
  CIT_OBS_COUNT("kernels.gemm_calls", 1);
  CIT_OBS_COUNT("kernels.gemm_flops", 2 * p * q * r);
#ifndef CIT_OBS_DISABLED
  const int64_t nk = (q + kGemmKc - 1) / kGemmKc;
  const int64_t nj = (r + kGemmNr - 1) / kGemmNr;
  int64_t floats = p * r;
  if (gemv) {
    const int64_t vectors = (p + simd::kTileLanes - 1) / simd::kTileLanes;
    floats += p * q + vectors * q + 2 * nk * p;
  } else if (tiled) {
    floats += q * r + nj * p * q + 2 * nk * p * r;
  } else {
    floats += q * r + nj * q * kGemmNr + nj * p * q + 2 * nk * p * r;
  }
  CIT_OBS_COUNT("kernels.gemm_bytes", int64_t{4} * floats);
#endif
}

// MatMulTransB, per arm. The scalar loop streams all of bT once per output
// row (p*q*r loads), reads each a row once per 4-column dot-product group
// plus once per tail column (p*q*nG loads, nG = floor(r/4) + r%4), and
// stores C once (p*r). The tiled arm reads bT once and writes its
// transposed pack, zero-padded to rpad = r rounded up to kTileLanes
// (q*r loads, q*rpad stores); each tile of kGemmMr rows reads the whole
// pack (nI*q*rpad, nI = ceil(p/MR)); each row of a is read once per
// kGemmNr-column block (nJ*p*q, nJ = ceil(r/NR)); C is stored once (p*r).
// Pinned by tests/test_kernels.cc KernelObs.GemmTransBBytesFormula.
inline void CountGemmTransB([[maybe_unused]] int64_t p,
                            [[maybe_unused]] int64_t q,
                            [[maybe_unused]] int64_t r,
                            [[maybe_unused]] bool tiled) {
  CIT_OBS_COUNT("kernels.gemm_calls", 1);
  CIT_OBS_COUNT("kernels.gemm_flops", 2 * p * q * r);
#ifndef CIT_OBS_DISABLED
  int64_t floats = 0;
  if (tiled) {
    const int64_t rpad =
        (r + simd::kTileLanes - 1) / simd::kTileLanes * simd::kTileLanes;
    const int64_t ni = (p + kGemmMr - 1) / kGemmMr;
    const int64_t nj = (r + kGemmNr - 1) / kGemmNr;
    floats = q * r + q * rpad + ni * q * rpad + nj * p * q + p * r;
  } else {
    const int64_t groups = r / 4 + r % 4;
    floats = p * q * groups + p * q * r + p * r;
  }
  CIT_OBS_COUNT("kernels.gemm_bytes", int64_t{4} * floats);
#endif
}

// MatMulTransA, per arm. The scalar loop zero-fills C (q*r stores), reads a
// once (p*q loads), and per (i, j) pair streams a b row and
// read-modify-writes a C row (3*p*q*r). The tiled arm stores C once (q*r)
// from registers. At r == 1 its lanes run over q: a is read once (p*q) and
// b once per kGemmNr-wide block of q (ceil(q/NR)*p). Otherwise its lanes
// run over r: each kGemmNr-column block reads all of a
// (ceil(r/NR)*p*q), and each tile of kGemmMr rows of C reads all of b
// (ceil(q/MR)*p*r). Both arms skip a[i,j] == 0 (the tiled arm by masking
// its FMA, not its loads); the counter ignores that data-dependent skip
// and reports the dense upper bound. Pinned by tests/test_kernels.cc
// KernelObs.GemmTransABytesFormula.
inline void CountGemmTransA([[maybe_unused]] int64_t p,
                            [[maybe_unused]] int64_t q,
                            [[maybe_unused]] int64_t r,
                            [[maybe_unused]] bool tiled) {
  CIT_OBS_COUNT("kernels.gemm_calls", 1);
  CIT_OBS_COUNT("kernels.gemm_flops", 2 * p * q * r);
#ifndef CIT_OBS_DISABLED
  int64_t floats = 0;
  if (!tiled) {
    floats = q * r + p * q + 3 * p * q * r;
  } else if (r == 1) {
    floats = p * q + (q + kGemmNr - 1) / kGemmNr * p + q;
  } else {
    floats = (r + kGemmNr - 1) / kGemmNr * p * q +
             (q + kGemmMr - 1) / kGemmMr * p * r + q * r;
  }
  CIT_OBS_COUNT("kernels.gemm_bytes", int64_t{4} * floats);
#endif
}

// ---- Blocked GEMM ----------------------------------------------------------
// Register tile: kGemmMr rows of A against a kGemmNr-wide panel of B
// (packed, except for the AVX-512 tile, which reads it in place), saxpy over
// k. kGemmKc limits the panel to ~KC*NR floats (L1-resident). Each output
// element accumulates in ascending-k order under either backend.

// Per-thread packed-B panel (kGemmKc x kGemmNr floats, 64-byte aligned for
// the SIMD loads), lazily allocated on the first GEMM a thread ever runs
// and reused for every one after, so the hot loop is allocation-free in
// steady state; per thread because sweep cells and citd workers run GEMMs
// on several threads at once. kernels.gemm_pack_allocs counts the one-time
// per-thread allocations; tests assert it stays flat across repeated calls.
float* PackBuffer() {
  struct Panel {
    float* p = nullptr;
    ~Panel() { std::free(p); }
  };
  thread_local Panel panel;
  if (panel.p == nullptr) {
    CIT_OBS_COUNT("kernels.gemm_pack_allocs", 1);
    panel.p = static_cast<float*>(std::aligned_alloc(
        64, sizeof(float) * static_cast<size_t>(kGemmKc * kGemmNr)));
  }
  return panel.p;
}

// Scalar microkernel: c[0..mr)[0..nr) += A-rows x pack, each element one
// saxpy chain in ascending-k order. This is the bitwise reference the
// existing determinism tests pin; the SIMD twin lives in kernels_simd.cc.
void ScalarGemmTile(const float* a, int64_t lda, const float* pack,
                    int64_t kc, float* c, int64_t ldc, int64_t mr,
                    int64_t nr) {
  float acc[kGemmMr][kGemmNr];
  for (int64_t i = 0; i < mr; ++i) {
    std::memset(acc[i], 0, sizeof(float) * kGemmNr);
  }
  if (mr == kGemmMr) {
    const float* a0 = a + 0 * lda;
    const float* a1 = a + 1 * lda;
    const float* a2 = a + 2 * lda;
    const float* a3 = a + 3 * lda;
    for (int64_t k = 0; k < kc; ++k) {
      const float* bp = pack + k * kGemmNr;
      const float x0 = a0[k], x1 = a1[k], x2 = a2[k], x3 = a3[k];
      for (int64_t j = 0; j < kGemmNr; ++j) {
        const float bj = bp[j];
        acc[0][j] += x0 * bj;
        acc[1][j] += x1 * bj;
        acc[2][j] += x2 * bj;
        acc[3][j] += x3 * bj;
      }
    }
  } else {
    for (int64_t i = 0; i < mr; ++i) {
      const float* ai = a + i * lda;
      float* ac = acc[i];
      for (int64_t k = 0; k < kc; ++k) {
        const float x = ai[k];
        const float* bp = pack + k * kGemmNr;
        for (int64_t j = 0; j < kGemmNr; ++j) ac[j] += x * bp[j];
      }
    }
  }
  for (int64_t i = 0; i < mr; ++i) {
    float* cr = c + i * ldc;
    const float* ac = acc[i];
    for (int64_t j = 0; j < nr; ++j) cr[j] += ac[j];
  }
}

}  // namespace

// ---- Backend dispatch ------------------------------------------------------

Backend ActiveBackend() {
  return BackendSlot().load(std::memory_order_relaxed);
}

Backend SetBackend(Backend b) {
  if (b == Backend::kSimd && !simd::Available()) b = Backend::kScalar;
  return BackendSlot().exchange(b, std::memory_order_relaxed);
}

bool SimdAvailable() { return simd::Available(); }

const char* SimdIsaName() { return simd::IsaName(); }

// ---- Elementwise -----------------------------------------------------------

void Fill(float* dst, float v, int64_t n) {
  std::fill(dst, dst + n, v);
}

void Copy(const float* src, float* dst, int64_t n) {
  std::memcpy(dst, src, sizeof(float) * static_cast<size_t>(n));
}

// All ops below are single IEEE operations per element — bit-identical
// between backends.

void Add(const float* a, const float* b, float* out, int64_t n) {
  if (UseSimd()) {
    simd::Add(a, b, out, n);
    return;
  }
  Map2(a, b, out, n, [](float x, float y) { return x + y; });
}

void Sub(const float* a, const float* b, float* out, int64_t n) {
  if (UseSimd()) {
    simd::Sub(a, b, out, n);
    return;
  }
  Map2(a, b, out, n, [](float x, float y) { return x - y; });
}

void Mul(const float* a, const float* b, float* out, int64_t n) {
  if (UseSimd()) {
    simd::Mul(a, b, out, n);
    return;
  }
  Map2(a, b, out, n, [](float x, float y) { return x * y; });
}

void Div(const float* a, const float* b, float* out, int64_t n) {
  if (UseSimd()) {
    simd::Div(a, b, out, n);
    return;
  }
  Map2(a, b, out, n, [](float x, float y) { return x / y; });
}

void AddScalar(const float* a, float v, float* out, int64_t n) {
  if (UseSimd()) {
    simd::AddScalar(a, v, out, n);
    return;
  }
  Map(a, out, n, [v](float x) { return x + v; });
}

void MulScalar(const float* a, float v, float* out, int64_t n) {
  if (UseSimd()) {
    simd::MulScalar(a, v, out, n);
    return;
  }
  Map(a, out, n, [v](float x) { return x * v; });
}

void AddInto(float* dst, const float* src, int64_t n) {
  if (UseSimd()) {
    simd::Add(dst, src, dst, n);
    return;
  }
  Map2(dst, src, dst, n, [](float x, float y) { return x + y; });
}

void ScaleInto(float* dst, float v, int64_t n) {
  if (UseSimd()) {
    simd::MulScalar(dst, v, dst, n);
    return;
  }
  Map(dst, dst, n, [v](float x) { return x * v; });
}

void FusedElemwise(const float* in, float* out, int64_t n, const ElemOp* ops,
                   int count) {
  // Only chains made entirely of bit-exact ops may take the vector sweep;
  // anything touching libm stays on the scalar ElemApply path so fused and
  // unfused replays remain bitwise interchangeable on every backend.
  if (UseSimd() && simd::FusedChainExact(ops, count)) {
    simd::FusedElemwise(in, out, n, ops, count);
    return;
  }
  for (int64_t i = 0; i < n; ++i) {
    float x = in[i];
    for (int k = 0; k < count; ++k) x = ElemApply(ops[k], x);
    out[i] = x;
  }
}

// ---- Reductions ------------------------------------------------------------

double Sum(const float* a, int64_t n) {
  double s = 0.0;
  for (int64_t i = 0; i < n; ++i) s += a[i];
  return s;
}

// ---- Linear algebra --------------------------------------------------------

void MatMul(const float* a, const float* b, float* c, int64_t p, int64_t q,
            int64_t r) {
  // The backend is latched once per call so a concurrent SetBackend can
  // never split one GEMM across implementations.
  const bool use_simd = UseSimd();
  // The tiled arm reads B in place, and takes r == 1 as a GEMV.
  const bool tiled = simd::kHasTiles && use_simd;
  const bool gemv = tiled && r == 1 && q <= simd::kGemvMaxDepth;
  CountGemm(p, q, r, tiled, gemv);
  if (p == 0 || r == 0) return;  // C is empty (and may be null)
  std::memset(c, 0, sizeof(float) * static_cast<size_t>(p * r));
  if (q == 0) return;
  if constexpr (simd::kHasTiles) {
    if (gemv) {
      simd::Gemv(a, b, c, p, q);
      return;
    }
  }
  float* pack = tiled ? nullptr : PackBuffer();
  for (int64_t j0 = 0; j0 < r; j0 += kGemmNr) {
    const int64_t nr = std::min<int64_t>(kGemmNr, r - j0);
    for (int64_t k0 = 0; k0 < q; k0 += kGemmKc) {
      const int64_t kc = std::min<int64_t>(kGemmKc, q - k0);
      if (!tiled) {
        // Pack B[k0:k0+kc, j0:j0+nr] into [kc, NR], zero-padding the tail
        // columns so the microkernel always runs the full NR width.
        for (int64_t k = 0; k < kc; ++k) {
          const float* src = b + (k0 + k) * r + j0;
          float* dst = pack + k * kGemmNr;
          int64_t j = 0;
          for (; j < nr; ++j) dst[j] = src[j];
          for (; j < kGemmNr; ++j) dst[j] = 0.0f;
        }
      }
      for (int64_t i0 = 0; i0 < p; i0 += kGemmMr) {
        const int64_t mr = std::min<int64_t>(kGemmMr, p - i0);
        const float* atile = a + i0 * q + k0;
        float* ctile = c + i0 * r + j0;
        if (tiled) {
          simd::GemmTile(atile, q, b + k0 * r + j0, r, kc, ctile, r, mr, nr);
        } else if (use_simd) {
          simd::GemmTile(atile, q, pack, kGemmNr, kc, ctile, r, mr, nr);
        } else {
          ScalarGemmTile(atile, q, pack, kc, ctile, r, mr, nr);
        }
      }
    }
  }
}

namespace {

// ---- Backward loops of the scalar backend ----
// MatMulTransB and the conv's gw run the 4*floor(T/4) rule (see kernels.h,
// "Backward kernels"), written out: the products of the first 4*floor(T/4)
// terms are rounded and then added in order from +0, and the last T mod 4
// terms are fused with std::fmaf. fp-contract is off between the pragmas,
// so no build fuses a product into its add, while GCC may still vectorize
// the products; the two loop functions are never inlined, so that setting
// stays with their bodies.
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")

// a * b + c as the one-FMA-per-term chains take it: fused where the target
// has a fast fmaf (every build with FMA), with two roundings otherwise.
inline float MulAdd(float a, float b, float c) {
#ifdef FP_FAST_FMAF
  return std::fmaf(a, b, c);
#else
  return a * b + c;
#endif
}

// MatMulTransB's scalar loops.
[[gnu::noinline]] void TransBLoops(const float* a, const float* bT, float* c,
                                   int64_t p, int64_t q, int64_t r) {
  const int64_t n4 = q / 4 * 4;
  for (int64_t i = 0; i < p; ++i) {
    const float* ar = a + i * q;
    float* cr = c + i * r;
    int64_t j = 0;
    // Four independent dot-product chains give the vectorizer ILP.
    for (; j + 3 < r; j += 4) {
      const float* b0 = bT + (j + 0) * q;
      const float* b1 = bT + (j + 1) * q;
      const float* b2 = bT + (j + 2) * q;
      const float* b3 = bT + (j + 3) * q;
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      int64_t k = 0;
      for (; k < n4; ++k) {  // products rounded, added in order
        const float av = ar[k];
        s0 += av * b0[k];
        s1 += av * b1[k];
        s2 += av * b2[k];
        s3 += av * b3[k];
      }
      for (; k < q; ++k) {  // the tail, fused
        const float av = ar[k];
        s0 = std::fmaf(av, b0[k], s0);
        s1 = std::fmaf(av, b1[k], s1);
        s2 = std::fmaf(av, b2[k], s2);
        s3 = std::fmaf(av, b3[k], s3);
      }
      cr[j + 0] = s0;
      cr[j + 1] = s1;
      cr[j + 2] = s2;
      cr[j + 3] = s3;
    }
    for (; j < r; ++j) {
      const float* bj = bT + j * q;
      float s = 0.0f;
      int64_t k = 0;
      for (; k < n4; ++k) s += ar[k] * bj[k];
      for (; k < q; ++k) s = std::fmaf(ar[k], bj[k], s);
      cr[j] = s;
    }
  }
}

// CausalConv1dBackward's scalar loops, into a non-null gx. gx and gw share
// one pass over each tap's terms.
[[gnu::noinline]] void ConvBackwardLoops(
    const float* x, const float* w, const float* gout, float* gx, float* gw,
    float* gb, int64_t batch, int64_t cin, int64_t cout, int64_t len,
    int64_t k, int64_t dilation) {
  for (int64_t bi = 0; bi < batch; ++bi) {
    for (int64_t co = 0; co < cout; ++co) {
      const float* grow = gout + (bi * cout + co) * len;
      if (gb != nullptr) {
        float s = 0.0f;
        for (int64_t t = 0; t < len; ++t) s += grow[t];
        gb[co] += s;
      }
      for (int64_t ci = 0; ci < cin; ++ci) {
        const float* xrow = x + (bi * cin + ci) * len;
        const float* wrow = w + (co * cin + ci) * k;
        float* gxrow = gx + (bi * cin + ci) * len;
        float* gwrow = gw + (co * cin + ci) * k;
        for (int64_t kk = 0; kk < k; ++kk) {
          const int64_t shift = (k - 1 - kk) * dilation;
          const float wk = wrow[kk];
          // Term t pairs x at time t with gout at time t + shift.
          const int64_t terms = len - shift;
          const int64_t n4 = terms / 4 * 4;
          float gwk = 0.0f;
          int64_t t = 0;
          for (; t < n4; ++t) {  // gw's products rounded, added in order
            const float g = grow[t + shift];
            gxrow[t] = MulAdd(wk, g, gxrow[t]);
            gwk += g * xrow[t];
          }
          for (; t < terms; ++t) {  // gw's tail, fused
            const float g = grow[t + shift];
            gxrow[t] = MulAdd(wk, g, gxrow[t]);
            gwk = std::fmaf(g, xrow[t], gwk);
          }
          gwrow[kk] += gwk;
        }
      }
    }
  }
}

#pragma GCC pop_options

}  // namespace

void MatMulTransB(const float* a, const float* bT, float* c, int64_t p,
                  int64_t q, int64_t r) {
  // The backend is read once per call, as in MatMul.
  const bool tiled = simd::kHasTiles && UseSimd();
  CountGemmTransB(p, q, r, tiled);
  if constexpr (simd::kHasTiles) {
    if (tiled) {
      simd::GemmTransB(a, bT, c, p, q, r);
      return;
    }
  }
  TransBLoops(a, bT, c, p, q, r);
}

void MatMulTransA(const float* a, const float* b, float* c, int64_t p,
                  int64_t q, int64_t r) {
  const bool tiled = simd::kHasTiles && UseSimd();
  CountGemmTransA(p, q, r, tiled);
  if constexpr (simd::kHasTiles) {
    if (tiled) {
      simd::GemmTransA(a, b, c, p, q, r);
      return;
    }
  }
  if (q == 0 || r == 0) return;  // C is empty (and may be null)
  // c[j, :] = sum_i a[i, j] * b[i, :], scanning i in ascending order.
  std::memset(c, 0, sizeof(float) * static_cast<size_t>(q * r));
  for (int64_t i = 0; i < p; ++i) {
    const float* br = b + i * r;
    const float* ar = a + i * q;
    for (int64_t j = 0; j < q; ++j) {
      const float av = ar[j];
      if (av == 0.0f) continue;
      float* cr = c + j * r;
      for (int64_t l = 0; l < r; ++l) cr[l] += av * br[l];
    }
  }
}

void Transpose(const float* in, float* out, int64_t rows, int64_t cols) {
  constexpr int64_t kTile = 32;
  for (int64_t r0 = 0; r0 < rows; r0 += kTile) {
    const int64_t r1 = std::min(rows, r0 + kTile);
    for (int64_t c0 = 0; c0 < cols; c0 += kTile) {
      const int64_t c1 = std::min(cols, c0 + kTile);
      for (int64_t r = r0; r < r1; ++r) {
        for (int64_t c = c0; c < c1; ++c) {
          out[c * rows + r] = in[r * cols + c];
        }
      }
    }
  }
}

// ---- Softmax ---------------------------------------------------------------

void SoftmaxLastAxis(float* x, int64_t outer, int64_t n) {
  for (int64_t o = 0; o < outer; ++o) {
    float* row = x + o * n;
    float mx = row[0];
    for (int64_t i = 1; i < n; ++i) mx = std::max(mx, row[i]);
    float total = 0.0f;
    for (int64_t i = 0; i < n; ++i) {
      row[i] = std::exp(row[i] - mx);
      total += row[i];
    }
    for (int64_t i = 0; i < n; ++i) row[i] /= total;
  }
}

// ---- Causal dilated 1-D convolution ----------------------------------------

// Declared in math/simd.h, the seam kernels_simd.cc shares.
float* ThreadScratch(int64_t floats) {
  thread_local std::vector<float> scratch;
  const size_t want = static_cast<size_t>(std::max<int64_t>(floats, 1));
  if (scratch.size() < want) scratch = std::vector<float>(want);
  return scratch.data();
}

namespace {

// Time-major direct conv. x is regrouped to xt:[cin, len, batch], so one
// (co, ci, tap) term is a single contiguous acc += w * x pass over
// (len - shift) * batch floats of the [cout, len, batch] accumulator; the
// result is written back to [batch, cout, len] with the bias added last.
// Every output element starts at +0 and accumulates in ascending (cin, tap)
// order through the same `+= w * x` expression as a per-row triple loop, so
// the result equals that loop's bit for bit (FMA contraction included).
void ConvDirect(const float* x, const float* w, const float* bias, float* out,
                int64_t batch, int64_t cin, int64_t cout, int64_t len,
                int64_t k, int64_t dilation) {
  if (batch * cout * len == 0) return;  // empty output: nothing to write
  const int64_t plane = len * batch;  // one channel, time-major
  float* xt = ThreadScratch((cin + cout) * plane);
  float* acc = xt + cin * plane;
  for (int64_t bi = 0; bi < batch; ++bi) {
    for (int64_t ci = 0; ci < cin; ++ci) {
      const float* xrow = x + (bi * cin + ci) * len;
      float* dst = xt + ci * plane + bi;
      for (int64_t t = 0; t < len; ++t) dst[t * batch] = xrow[t];
    }
  }
  std::memset(acc, 0, sizeof(float) * static_cast<size_t>(cout * plane));
  for (int64_t co = 0; co < cout; ++co) {
    float* arow = acc + co * plane;
    for (int64_t ci = 0; ci < cin; ++ci) {
      const float* xplane = xt + ci * plane;
      const float* wrow = w + (co * cin + ci) * k;
      for (int64_t kk = 0; kk < k; ++kk) {
        const int64_t shift = (k - 1 - kk) * dilation;
        const float wk = wrow[kk];
        if (wk == 0.0f || shift >= len) continue;
        const int64_t off = shift * batch;
        for (int64_t i = off; i < plane; ++i) arow[i] += wk * xplane[i - off];
      }
    }
  }
  for (int64_t co = 0; co < cout; ++co) {
    const float* arow = acc + co * plane;
    for (int64_t bi = 0; bi < batch; ++bi) {
      float* orow = out + (bi * cout + co) * len;
      const float* src = arow + bi;
      if (bias != nullptr) {
        const float bv = bias[co];
        for (int64_t t = 0; t < len; ++t) orow[t] = src[t * batch] + bv;
      } else {
        for (int64_t t = 0; t < len; ++t) orow[t] = src[t * batch];
      }
    }
  }
}

}  // namespace

void CausalConv1dForward(const float* x, const float* w, const float* bias,
                         float* out, int64_t batch, int64_t cin, int64_t cout,
                         int64_t len, int64_t k, int64_t dilation) {
  // The SIMD backend's register-tiled arm where the build has one
  // (AVX-512), else the time-major loop. The backend is read once per call,
  // as in MatMul.
  const bool tiled = simd::kHasTiles && UseSimd();
  CIT_OBS_COUNT("kernels.conv_calls", 1);
  CIT_OBS_COUNT("kernels.conv_flops", 2 * batch * cout * cin * k * len);
#ifndef CIT_OBS_DISABLED
  {
    // Logical load/store traffic of the arm that runs (mirrors the loops,
    // not the cache). Both arms share S = sum_kk max(0, len - shift_kk),
    // the post-causal-pad tap coverage. Time-major, per batch: the regroup
    // of x into the scratch (2*cin*len), the accumulator zero-fill
    // (cout*len stores), per (co, ci, tap) an accumulator read-modify-write
    // against an input read (3*cout*cin*S), and the regroup out, which
    // reads the accumulator and writes the output with the bias add fused
    // in (2*cout*len); per call, each weight and bias value is read once
    // (cout*cin*k + cout). Tiled, per batch: each input row is read once
    // per channel block and tap with the pad masked off
    // (ceil(cout/kConvTileCout)*cin*S loads), each output is stored once
    // with the bias added (cout*len), and each row tile (one batch row's
    // kConvTileLen time steps) reads every weight and bias value once
    // (ceil(len/kConvTileLen)*(cout*cin*k + cout)). The data-dependent
    // zero-weight skip is ignored, so these are dense upper bounds. Pinned
    // by tests/test_kernels.cc KernelObs.ConvBytesFormulaBothPaths.
    int64_t taps = 0;  // S above
    for (int64_t kk = 0; kk < k; ++kk) {
      taps += std::max<int64_t>(0, len - (k - 1 - kk) * dilation);
    }
    const int64_t bias_floats = bias != nullptr ? cout : 0;
    int64_t floats = 0;
    if (tiled) {
      const int64_t blocks = (cout + kConvTileCout - 1) / kConvTileCout;
      const int64_t tiles = (len + kConvTileLen - 1) / kConvTileLen;
      floats = batch * (blocks * cin * taps + cout * len +
                        tiles * (cout * cin * k + bias_floats));
    } else {
      floats = batch * (2 * cin * len + 3 * cout * len +
                        3 * cout * cin * taps) +
               cout * cin * k + bias_floats;
    }
    CIT_OBS_COUNT("kernels.conv_bytes", int64_t{4} * floats);
  }
#endif
  if constexpr (simd::kHasTiles) {
    if (tiled) {
      simd::ConvDirect(x, w, bias, out, batch, cin, cout, len, k, dilation);
      return;
    }
  }
  ConvDirect(x, w, bias, out, batch, cin, cout, len, k, dilation);
}

void CausalConv1dBackward(const float* x, const float* w, const float* gout,
                          float* gx, float* gw, float* gb, int64_t batch,
                          int64_t cin, int64_t cout, int64_t len, int64_t k,
                          int64_t dilation) {
  // The backend is read once per call, as in MatMul.
  const bool tiled = simd::kHasTiles && UseSimd();
  CIT_OBS_COUNT("kernels.conv_backward_calls", 1);
  CIT_OBS_COUNT("kernels.conv_flops", 4 * batch * cout * cin * k * len);
#ifndef CIT_OBS_DISABLED
  {
    // Logical load/store traffic of the arm that runs, counted as in the
    // forward, with S the post-pad tap coverage and kLive the taps that
    // have a term (shift < len). The scalar loops, per (batch row, co):
    // with a gb, the gout row read and gb[co] read-modify-written
    // (len + 2); per ci and tap, the weight read and gw's read-modify-write
    // (3*k per ci), and per term a gout read, an input read and a gx
    // read-modify-write (4*S per ci). Without a gx they first zero-fill a
    // scratch input gradient (batch*cin*len). The tiled arm, with bpad the
    // batch rounded up to whole vectors and nB = bpad / kTileLanes:
    //   - gx tiles, only with a gx: every gx value loaded and stored once
    //     (2*batch*cin*len); per batch row, the gout rows over the tap
    //     coverage once per block of kConvTileCout input channels
    //     (ceil(cin/kConvTileCout)*cout*S), and each weight of a live tap
    //     once per row tile (ceil(len/kConvTileLen)*cout*cin*kLive);
    //   - the two time-major regroups: gout and x read once
    //     (batch*(cout + cin)*len) and written padded
    //     ((cout + cin)*len*bpad);
    //   - gb tiles, only with a gb: the regrouped gout read once
    //     (cout*len*bpad) and each gb value read-modify-written once per
    //     block of batch rows (2*cout*nB);
    //   - gw tiles: per ci and term, the regrouped x once per block of
    //     kConvTileCout output channels and the regrouped gout once per
    //     output channel (cin*S*bpad*(ceil(cout/kConvTileCout) + cout)),
    //     and each gw value read-modify-written once per block of batch
    //     rows, live tap or not (2*cout*cin*k*nB).
    // Pinned by tests/test_kernels.cc KernelObs.ConvBackwardBytesFormula.
    int64_t taps = 0;  // S above
    int64_t live = 0;  // kLive above
    for (int64_t kk = 0; kk < k; ++kk) {
      const int64_t terms = len - (k - 1 - kk) * dilation;
      taps += std::max<int64_t>(0, terms);
      live += terms > 0 ? 1 : 0;
    }
    int64_t floats = 0;
    if (tiled) {
      const int64_t bpad = (batch + simd::kTileLanes - 1) / simd::kTileLanes *
                           simd::kTileLanes;
      const int64_t nb = bpad / simd::kTileLanes;
      const int64_t cin_blocks = (cin + kConvTileCout - 1) / kConvTileCout;
      const int64_t cout_blocks = (cout + kConvTileCout - 1) / kConvTileCout;
      const int64_t tiles = (len + kConvTileLen - 1) / kConvTileLen;
      if (gx != nullptr) {
        floats += batch * (2 * cin * len + cin_blocks * cout * taps +
                           tiles * cout * cin * live);
      }
      floats += (batch * len + len * bpad) * (cout + cin);
      if (gb != nullptr) floats += cout * len * bpad + 2 * cout * nb;
      floats += cin * taps * bpad * (cout_blocks + cout) +
                2 * cout * cin * k * nb;
    } else {
      if (gx == nullptr) floats += batch * cin * len;
      if (gb != nullptr) floats += batch * cout * (len + 2);
      floats += batch * cout * cin * (3 * k + 4 * taps);
    }
    CIT_OBS_COUNT("kernels.conv_bytes", int64_t{4} * floats);
  }
#endif
  if constexpr (simd::kHasTiles) {
    if (tiled) {
      simd::ConvBackward(x, w, gout, gx, gw, gb, batch, cin, cout, len, k,
                         dilation);
      return;
    }
  }
  // The loops always compute gx, so without one they write the unwanted
  // input gradient into this thread's scratch.
  if (gx == nullptr) {
    gx = ThreadScratch(batch * cin * len);
    std::fill(gx, gx + batch * cin * len, 0.0f);
  }
  ConvBackwardLoops(x, w, gout, gx, gw, gb, batch, cin, cout, len, k,
                    dilation);
}

}  // namespace cit::math::kernels
