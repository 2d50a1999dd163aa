// Explicit-SIMD kernel backend: an FMA register-tiled GEMM microkernel,
// vectorized elementwise sweeps, and (AVX-512 only) a register-tiled direct
// causal conv, one implementation per compiled ISA (AVX-512, AVX2+FMA,
// NEON — see the detection block in math/simd.h). The
// public kernels:: API dispatches here when Backend::kSimd is active;
// everything in this TU is serial over its range.
//
// Numeric ground rules (they are what keeps the dispatch seam honest):
//  - Non-FMA arms (Add/Sub/Mul/Div/AddScalar/MulScalar, the exact
//    FusedElemwise chains) use one IEEE operation per element, so the
//    vector lanes and the scalar tail produce bit-identical results — and
//    bit-identical to the scalar backend.
//  - FMA arms (GemmTile, Axpy) fuse the multiply-add. Scalar tails use
//    std::fmaf, the same single-rounding operation as the vector lanes, so
//    an offset moving an element between vector body and tail (a request
//    alone vs. inside a stacked batch) can never change its value, while
//    values differ from the scalar backend by at most one rounding per fma.
//  - FusedElemwise chains containing a libm op (exp/log/tanh/sigmoid) are
//    rejected by FusedChainExact and stay on the scalar ElemApply sweep:
//    a vector approximation would break the fused == unfused bitwise
//    identity that plan fusion (math/plan.cc) is tested against.
//  - The direct conv (ConvDirect, AVX-512 only) is an FMA arm that still
//    matches the scalar backend bit for bit: each output is the scalar
//    loop's chain (+0, ascending (cin, tap), zero weights skipped, bias
//    added last) with one explicit FMA per term, the single rounding the
//    scalar `+= w * x` contracts to. Lanes before a tap's shift are masked
//    out of the FMA as well as the load, so a zero-filled lane never meets
//    a weight (inf * 0 would be NaN, and +0 added to a -0 sum is +0).
#include "math/simd.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#if defined(CIT_SIMD_AVX512) || defined(CIT_SIMD_AVX2)
#include <immintrin.h>
#elif defined(CIT_SIMD_NEON)
#include <arm_neon.h>
#endif

// GCC PR 105593: min/max/sqrt AVX-512 intrinsics expand through
// _mm512_undefined_ps and trip a spurious -Wmaybe-uninitialized under
// -Wall. The pass-through operand is by definition unread; silence the
// false positive for this TU only.
#if defined(CIT_SIMD_AVX512) && defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace cit::math::kernels::simd {

#if defined(CIT_SIMD_AVX512) || defined(CIT_SIMD_AVX2) || \
    defined(CIT_SIMD_NEON)

bool Available() { return true; }

// ---- Minimal vector wrapper (one width per ISA) ----------------------------
// Min/Max follow the x86 min_ps/max_ps convention the scalar kernels'
// std::min/std::max expressions reduce to: Max(a, b) = a > b ? a : b and
// Min(a, b) = a < b ? a : b, returning b when the compare is unordered.

#if defined(CIT_SIMD_AVX512)

const char* IsaName() { return "avx512"; }
using VF = __m512;
constexpr int64_t kLanes = 16;
inline VF VLoad(const float* p) { return _mm512_loadu_ps(p); }
inline void VStore(float* p, VF v) { _mm512_storeu_ps(p, v); }
inline VF VSet1(float v) { return _mm512_set1_ps(v); }
inline VF VAdd(VF a, VF b) { return _mm512_add_ps(a, b); }
inline VF VSub(VF a, VF b) { return _mm512_sub_ps(a, b); }
inline VF VMul(VF a, VF b) { return _mm512_mul_ps(a, b); }
inline VF VDiv(VF a, VF b) { return _mm512_div_ps(a, b); }
inline VF VMin(VF a, VF b) { return _mm512_min_ps(a, b); }
inline VF VMax(VF a, VF b) { return _mm512_max_ps(a, b); }
inline VF VSqrt(VF a) { return _mm512_sqrt_ps(a); }
inline VF VAbs(VF a) {
  // Explicit sign-mask clear: same result as _mm512_abs_ps, but avoids the
  // _mm512_undefined_ps-based intrinsic GCC flags under -Wall.
  return _mm512_castsi512_ps(_mm512_and_si512(
      _mm512_castps_si512(a), _mm512_set1_epi32(0x7fffffff)));
}
inline VF VFma(VF a, VF b, VF c) { return _mm512_fmadd_ps(a, b, c); }

#elif defined(CIT_SIMD_AVX2)

const char* IsaName() { return "avx2"; }
using VF = __m256;
constexpr int64_t kLanes = 8;
inline VF VLoad(const float* p) { return _mm256_loadu_ps(p); }
inline void VStore(float* p, VF v) { _mm256_storeu_ps(p, v); }
inline VF VSet1(float v) { return _mm256_set1_ps(v); }
inline VF VAdd(VF a, VF b) { return _mm256_add_ps(a, b); }
inline VF VSub(VF a, VF b) { return _mm256_sub_ps(a, b); }
inline VF VMul(VF a, VF b) { return _mm256_mul_ps(a, b); }
inline VF VDiv(VF a, VF b) { return _mm256_div_ps(a, b); }
inline VF VMin(VF a, VF b) { return _mm256_min_ps(a, b); }
inline VF VMax(VF a, VF b) { return _mm256_max_ps(a, b); }
inline VF VSqrt(VF a) { return _mm256_sqrt_ps(a); }
inline VF VAbs(VF a) {
  const VF mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  return _mm256_and_ps(a, mask);
}
inline VF VFma(VF a, VF b, VF c) { return _mm256_fmadd_ps(a, b, c); }

#else  // CIT_SIMD_NEON

const char* IsaName() { return "neon"; }
using VF = float32x4_t;
constexpr int64_t kLanes = 4;
inline VF VLoad(const float* p) { return vld1q_f32(p); }
inline void VStore(float* p, VF v) { vst1q_f32(p, v); }
inline VF VSet1(float v) { return vdupq_n_f32(v); }
inline VF VAdd(VF a, VF b) { return vaddq_f32(a, b); }
inline VF VSub(VF a, VF b) { return vsubq_f32(a, b); }
inline VF VMul(VF a, VF b) { return vmulq_f32(a, b); }
inline VF VDiv(VF a, VF b) { return vdivq_f32(a, b); }
inline VF VMin(VF a, VF b) { return vminq_f32(a, b); }
inline VF VMax(VF a, VF b) { return vmaxq_f32(a, b); }
inline VF VSqrt(VF a) { return vsqrtq_f32(a); }
inline VF VAbs(VF a) { return vabsq_f32(a); }
inline VF VFma(VF a, VF b, VF c) { return vfmaq_f32(c, a, b); }

#endif

// ---- GEMM microkernel ------------------------------------------------------
// kGemmNr (32) columns = 32/kLanes vectors per row. MR is a template
// parameter so edge tiles (mr < kGemmMr) run the *same* per-row FMA chain
// as full tiles — a row's result never depends on which tile shape covered
// it, so a request's rows give the same output alone or stacked.
namespace {

constexpr int kRowVecs = static_cast<int>(kGemmNr / kLanes);

template <int MR>
void GemmTileImpl(const float* a, int64_t lda, const float* pack, int64_t kc,
                  float* c, int64_t ldc, int64_t nr) {
  // AVX-512 holds the whole 32-column accumulator block (2 vectors/row) in
  // registers; AVX2 and NEON rows take 4 and 8 vectors, so they are split
  // into two 16-column half-tiles to stay within the register file. The
  // half split only changes *which* registers hold a lane, never the
  // ascending-k fma chain that computes it.
  constexpr int kHalfVecs = kRowVecs >= 4 ? kRowVecs / 2 : kRowVecs;
  constexpr int64_t kHalfCols = kHalfVecs * kLanes;
  for (int64_t jh = 0; jh < kGemmNr; jh += kHalfCols) {
    if (nr <= jh) break;  // fully past the valid columns: nothing to add
    VF acc[MR][kHalfVecs];
    for (int i = 0; i < MR; ++i) {
      for (int v = 0; v < kHalfVecs; ++v) acc[i][v] = VSet1(0.0f);
    }
    for (int64_t k = 0; k < kc; ++k) {
      VF b[kHalfVecs];
      const float* bp = pack + k * kGemmNr + jh;
      for (int v = 0; v < kHalfVecs; ++v) b[v] = VLoad(bp + v * kLanes);
      for (int i = 0; i < MR; ++i) {
        const VF av = VSet1(a[i * lda + k]);
        for (int v = 0; v < kHalfVecs; ++v) {
          acc[i][v] = VFma(av, b[v], acc[i][v]);
        }
      }
    }
    const int64_t cols = nr - jh;  // valid columns in this half-tile
    if (cols >= kHalfCols) {
      for (int i = 0; i < MR; ++i) {
        float* cr = c + i * ldc + jh;
        for (int v = 0; v < kHalfVecs; ++v) {
          float* p = cr + v * kLanes;
          VStore(p, VAdd(VLoad(p), acc[i][v]));
        }
      }
    } else if (cols > 0) {
      alignas(64) float tmp[kHalfCols];
      for (int i = 0; i < MR; ++i) {
        for (int v = 0; v < kHalfVecs; ++v) {
          VStore(tmp + v * kLanes, acc[i][v]);
        }
        float* cr = c + i * ldc + jh;
        for (int64_t j = 0; j < cols; ++j) cr[j] += tmp[j];
      }
    }
  }
}

}  // namespace

void GemmTile(const float* a, int64_t lda, const float* pack, int64_t kc,
              float* c, int64_t ldc, int64_t mr, int64_t nr) {
  switch (mr) {
    case 4: GemmTileImpl<4>(a, lda, pack, kc, c, ldc, nr); break;
    case 3: GemmTileImpl<3>(a, lda, pack, kc, c, ldc, nr); break;
    case 2: GemmTileImpl<2>(a, lda, pack, kc, c, ldc, nr); break;
    case 1: GemmTileImpl<1>(a, lda, pack, kc, c, ldc, nr); break;
    default: break;  // mr in [1, kGemmMr] by construction
  }
}

// ---- Elementwise sweeps ----------------------------------------------------

namespace {

// Shared skeleton: vector body over whole blocks, scalar functor tail. The
// scalar functor must be bit-identical to one vector lane (see file
// comment), so the body/tail split is value-invisible.
template <typename VecF, typename ScalF>
inline void Sweep(float* out, int64_t n, VecF vec, ScalF scal) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) vec(i);
  for (; i < n; ++i) out[i] = scal(i);
}

}  // namespace

void Add(const float* a, const float* b, float* out, int64_t n) {
  Sweep(out, n,
        [&](int64_t i) { VStore(out + i, VAdd(VLoad(a + i), VLoad(b + i))); },
        [&](int64_t i) { return a[i] + b[i]; });
}

void Sub(const float* a, const float* b, float* out, int64_t n) {
  Sweep(out, n,
        [&](int64_t i) { VStore(out + i, VSub(VLoad(a + i), VLoad(b + i))); },
        [&](int64_t i) { return a[i] - b[i]; });
}

void Mul(const float* a, const float* b, float* out, int64_t n) {
  Sweep(out, n,
        [&](int64_t i) { VStore(out + i, VMul(VLoad(a + i), VLoad(b + i))); },
        [&](int64_t i) { return a[i] * b[i]; });
}

void Div(const float* a, const float* b, float* out, int64_t n) {
  Sweep(out, n,
        [&](int64_t i) { VStore(out + i, VDiv(VLoad(a + i), VLoad(b + i))); },
        [&](int64_t i) { return a[i] / b[i]; });
}

void AddScalar(const float* a, float v, float* out, int64_t n) {
  const VF vv = VSet1(v);
  Sweep(out, n, [&](int64_t i) { VStore(out + i, VAdd(VLoad(a + i), vv)); },
        [&](int64_t i) { return a[i] + v; });
}

void MulScalar(const float* a, float v, float* out, int64_t n) {
  const VF vv = VSet1(v);
  Sweep(out, n, [&](int64_t i) { VStore(out + i, VMul(VLoad(a + i), vv)); },
        [&](int64_t i) { return a[i] * v; });
}

void Axpy(float alpha, const float* x, float* y, int64_t n) {
  const VF va = VSet1(alpha);
  Sweep(y, n,
        [&](int64_t i) { VStore(y + i, VFma(va, VLoad(x + i), VLoad(y + i))); },
        [&](int64_t i) { return std::fmaf(alpha, x[i], y[i]); });
}

// ---- Fused elementwise -----------------------------------------------------

bool FusedChainExact(const ElemOp* ops, int count) {
  for (int k = 0; k < count; ++k) {
    switch (ops[k].kind) {
      case ElemOpKind::kRelu:
      case ElemOpKind::kSqrt:
      case ElemOpKind::kSquare:
      case ElemOpKind::kAbs:
      case ElemOpKind::kClamp:
      case ElemOpKind::kAddScalar:
      case ElemOpKind::kMulScalar:
        continue;
      default:
        return false;  // libm op: must stay on the scalar ElemApply sweep
    }
  }
  return true;
}

namespace {

// One vector application of an exact op. Operand order below mirrors the
// scalar formulas in ElemApply exactly, including NaN and signed-zero
// behavior of the min/max-based ops:
//   relu:  x > 0 ? x : 0        == Max(x, 0)
//   clamp: min(hi, max(lo, x))  == Min(hi, Max(x, lo))
// (std::max(lo, x) returns lo on ties and NaN, as does Max(x, lo); the
// outer std::min(hi, t) returns t on ties, as does Min(hi, t).)
inline VF ElemApplyVec(const ElemOp& op, VF x) {
  switch (op.kind) {
    case ElemOpKind::kRelu: return VMax(x, VSet1(0.0f));
    case ElemOpKind::kSqrt: return VSqrt(x);
    case ElemOpKind::kSquare: return VMul(x, x);
    case ElemOpKind::kAbs: return VAbs(x);
    case ElemOpKind::kClamp:
      return VMin(VSet1(op.p1), VMax(x, VSet1(op.p0)));
    case ElemOpKind::kAddScalar: return VAdd(x, VSet1(op.p0));
    case ElemOpKind::kMulScalar: return VMul(x, VSet1(op.p0));
    default: return x;  // excluded by FusedChainExact
  }
}

}  // namespace

void FusedElemwise(const float* in, float* out, int64_t n, const ElemOp* ops,
                   int count) {
  Sweep(out, n,
        [&](int64_t i) {
          VF x = VLoad(in + i);
          for (int k = 0; k < count; ++k) x = ElemApplyVec(ops[k], x);
          VStore(out + i, x);
        },
        [&](int64_t i) {
          float x = in[i];
          for (int k = 0; k < count; ++k) x = ElemApply(ops[k], x);
          return x;
        });
}

// ---- Direct causal conv (AVX-512 only) -------------------------------------
// A tile is CO output channels x NV vectors of one batch row's time steps;
// its CO*NV accumulators stay in registers for the whole (cin, tap) loop
// (at most 6 x 2 = 12 of the 32, plus NV inputs and one broadcast weight).
// CO and NV are template parameters so channel and time remainders run the
// same per-output chain as full tiles. The unroll pragmas make GCC unroll
// the CO/NV loops before it places acc: without them GCC 12 kept the
// accumulators in stack memory and stored all of them on every (cin, tap)
// step.
#if defined(CIT_SIMD_AVX512)

namespace {

using ConvMask = __mmask16;
constexpr unsigned kAllLanes = (1u << kLanes) - 1u;

// Lanes j with j < n.
inline ConvMask LanesBelow(int64_t n) {
  return static_cast<ConvMask>(
      kAllLanes >> (kLanes - std::clamp<int64_t>(n, 0, kLanes)));
}

// Output channels [co0, co0 + CO) x time steps [t0, t0 + kLanes*NV) ∩
// [0, len) of every batch row. kSkipZero is set when the call's weights
// hold a zero: each zero weight then skips its FMA per output channel, as
// the scalar loop does; without zeros the FMA sequence tests no weight.
template <int CO, int NV, bool kSkipZero>
void ConvTile(const float* x, const float* w, const float* bias, float* out,
              int64_t batch, int64_t cin, int64_t cout, int64_t len, int64_t k,
              int64_t dilation, int64_t co0, int64_t t0) {
  const int64_t wstride = cin * k;  // between output channels
  const float* wblock = w + co0 * wstride;
  ConvMask tail[NV];  // lanes before len
#pragma GCC unroll 4
  for (int v = 0; v < NV; ++v) tail[v] = LanesBelow(len - t0 - kLanes * v);
  for (int64_t bi = 0; bi < batch; ++bi) {
    const float* xb = x + bi * cin * len;
    VF acc[CO][NV];
#pragma GCC unroll 8
    for (int c = 0; c < CO; ++c) {
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) acc[c][v] = VSet1(0.0f);
    }
    for (int64_t ci = 0; ci < cin; ++ci) {
      const float* xrow = xb + ci * len;
      for (int64_t kk = 0; kk < k; ++kk) {
        const int64_t shift = (k - 1 - kk) * dilation;
        VF xv[NV];
        ConvMask head[NV];  // lanes at or after the shift
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v) {
          // Lane j reads x[t + j - shift]. A vector that starts before the
          // shift expand-loads from the row's start into its lanes
          // j >= shift - t, so no address before the row is ever formed.
          const int64_t off = t0 + kLanes * v - shift;
          head[v] = static_cast<ConvMask>(
              kAllLanes << std::clamp<int64_t>(-off, 0, kLanes));
          xv[v] = off >= 0 ? _mm512_maskz_loadu_ps(tail[v], xrow + off)
                           : _mm512_maskz_expandloadu_ps(
                                 static_cast<ConvMask>(head[v] & tail[v]),
                                 xrow);
        }
        const float* wp = wblock + ci * k + kk;
#pragma GCC unroll 8
        for (int c = 0; c < CO; ++c) {
          const float wc = wp[c * wstride];
          if (kSkipZero && wc == 0.0f) continue;
          const VF wv = VSet1(wc);
#pragma GCC unroll 4
          for (int v = 0; v < NV; ++v) {
            acc[c][v] = _mm512_mask3_fmadd_ps(wv, xv[v], acc[c][v], head[v]);
          }
        }
      }
    }
    float* ob = out + (bi * cout + co0) * len + t0;
#pragma GCC unroll 8
    for (int c = 0; c < CO; ++c) {
      const VF bv = VSet1(bias != nullptr ? bias[co0 + c] : 0.0f);
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) {
        _mm512_mask_storeu_ps(ob + c * len + kLanes * v, tail[v],
                              bias != nullptr ? VAdd(acc[c][v], bv)
                                              : acc[c][v]);
      }
    }
  }
}

template <bool kSkipZero>
void ConvTiles(const float* x, const float* w, const float* bias, float* out,
               int64_t batch, int64_t cin, int64_t cout, int64_t len,
               int64_t k, int64_t dilation) {
  static_assert(kConvTileCout == 6 && kConvTileLen == 2 * kLanes,
                "the dispatch below covers CO in [1, 6] and NV in [1, 2]");
  for (int64_t t0 = 0; t0 < len; t0 += kConvTileLen) {
    const bool two = len - t0 > kLanes;
    for (int64_t co0 = 0; co0 < cout; co0 += kConvTileCout) {
      const auto run = [&](auto co) {
        constexpr int kCo = decltype(co)::value;
        if (two) {
          ConvTile<kCo, 2, kSkipZero>(x, w, bias, out, batch, cin, cout, len,
                                      k, dilation, co0, t0);
        } else {
          ConvTile<kCo, 1, kSkipZero>(x, w, bias, out, batch, cin, cout, len,
                                      k, dilation, co0, t0);
        }
      };
      switch (std::min(kConvTileCout, cout - co0)) {
        case 6: run(std::integral_constant<int, 6>{}); break;
        case 5: run(std::integral_constant<int, 5>{}); break;
        case 4: run(std::integral_constant<int, 4>{}); break;
        case 3: run(std::integral_constant<int, 3>{}); break;
        case 2: run(std::integral_constant<int, 2>{}); break;
        default: run(std::integral_constant<int, 1>{}); break;
      }
    }
  }
}

}  // namespace

void ConvDirect(const float* x, const float* w, const float* bias, float* out,
                int64_t batch, int64_t cin, int64_t cout, int64_t len,
                int64_t k, int64_t dilation) {
  // Decided once per call, so the common all-nonzero case keeps the zero
  // test out of the tile's FMA sequence.
  bool has_zero = false;
  for (int64_t i = 0; i < cout * cin * k; ++i) has_zero |= w[i] == 0.0f;
  if (has_zero) {
    ConvTiles<true>(x, w, bias, out, batch, cin, cout, len, k, dilation);
  } else {
    ConvTiles<false>(x, w, bias, out, batch, cin, cout, len, k, dilation);
  }
}

#endif  // CIT_SIMD_AVX512

#else  // no ISA path compiled: correct scalar fallbacks, never dispatched to

bool Available() { return false; }
const char* IsaName() { return "none"; }

void GemmTile(const float* a, int64_t lda, const float* pack, int64_t kc,
              float* c, int64_t ldc, int64_t mr, int64_t nr) {
  for (int64_t i = 0; i < mr; ++i) {
    float* cr = c + i * ldc;
    const float* ar = a + i * lda;
    for (int64_t j = 0; j < nr; ++j) {
      float acc = 0.0f;
      for (int64_t k = 0; k < kc; ++k) {
        acc = std::fmaf(ar[k], pack[k * kGemmNr + j], acc);
      }
      cr[j] += acc;
    }
  }
}

void Add(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}
void Sub(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}
void Mul(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}
void Div(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] / b[i];
}
void AddScalar(const float* a, float v, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + v;
}
void MulScalar(const float* a, float v, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * v;
}
void Axpy(float alpha, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::fmaf(alpha, x[i], y[i]);
}
bool FusedChainExact(const ElemOp*, int) { return false; }
void FusedElemwise(const float* in, float* out, int64_t n, const ElemOp* ops,
                   int count) {
  for (int64_t i = 0; i < n; ++i) {
    float x = in[i];
    for (int k = 0; k < count; ++k) x = ElemApply(ops[k], x);
    out[i] = x;
  }
}

#endif

}  // namespace cit::math::kernels::simd
