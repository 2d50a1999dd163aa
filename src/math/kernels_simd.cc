// Explicit-SIMD kernel backend: an FMA register-tiled GEMM microkernel,
// vectorized elementwise sweeps, and (AVX-512 only) a register-tiled direct
// causal conv and register-tiled backward kernels, one implementation per
// compiled ISA (AVX-512, AVX2+FMA, NEON — see the detection block in
// math/simd.h). The public kernels:: API dispatches here when
// Backend::kSimd is active;
// everything in this TU is serial over its range.
//
// Numeric ground rules (they are what keeps the dispatch seam honest):
//  - The elementwise arms (Add/Sub/Mul/Div/AddScalar/MulScalar, the exact
//    FusedElemwise chains) use one IEEE operation per element, so the
//    vector lanes and the scalar tail produce bit-identical results — and
//    bit-identical to the scalar backend.
//  - The GEMM arms (GemmTile, Gemv) fuse the multiply-add and mask or
//    zero-pad their edges, so an offset moving an element between vector
//    body and edge (a request alone vs. inside a stacked batch) can never
//    change its value. They issue MatMul's chain (see kernels::MatMul),
//    which the scalar tile contracts to in optimized builds with FMA.
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
//  - The backward kernels (GemmTransA, GemmTransB, ConvBackward, AVX-512
//    only) issue the scalar loops' chains (see
//    kernels::CausalConv1dBackward): FMA terms where those chains fuse,
//    separately rounded products through MulRn/AddRn where they do not.
//    Lanes run over independent outputs, so no chain is reordered.
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

// GCC PR 105593: min/max AVX-512 intrinsics expand through
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
inline VF VAbs(VF a) {
  // Explicit sign-mask clear: same result as _mm512_abs_ps, but avoids the
  // _mm512_undefined_ps-based intrinsic GCC flags under -Wall.
  return _mm512_castsi512_ps(_mm512_and_si512(
      _mm512_castps_si512(a), _mm512_set1_epi32(0x7fffffff)));
}
inline VF VFma(VF a, VF b, VF c) { return _mm512_fmadd_ps(a, b, c); }
using LaneMask = __mmask16;
constexpr unsigned kAllLanes = (1u << kLanes) - 1u;
// Lanes j with j < n.
inline LaneMask LanesBelow(int64_t n) {
  return static_cast<LaneMask>(
      kAllLanes >> (kLanes - std::clamp<int64_t>(n, 0, kLanes)));
}

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

#if defined(CIT_SIMD_AVX512)

// The whole 32-column accumulator block (2 vectors/row) stays in
// registers; without the unroll pragmas GCC 12 stored all of it to the
// stack on every k. The panel's rows are read in place with the columns at
// or past nr masked to zero, the values the padded pack holds there, and C
// is read and written through the same masks, so the partial-column edge
// runs the full tile's adds.
template <int MR>
void GemmTileImpl(const float* a, int64_t lda, const float* b, int64_t ldb,
                  int64_t kc, float* c, int64_t ldc, int64_t nr) {
  LaneMask live[kRowVecs];
  VF acc[MR][kRowVecs];
#pragma GCC unroll 2
  for (int v = 0; v < kRowVecs; ++v) live[v] = LanesBelow(nr - v * kLanes);
#pragma GCC unroll 4
  for (int i = 0; i < MR; ++i) {
#pragma GCC unroll 2
    for (int v = 0; v < kRowVecs; ++v) acc[i][v] = VSet1(0.0f);
  }
  for (int64_t k = 0; k < kc; ++k) {
    VF bv[kRowVecs];
#pragma GCC unroll 2
    for (int v = 0; v < kRowVecs; ++v) {
      bv[v] = _mm512_maskz_loadu_ps(live[v], b + k * ldb + v * kLanes);
    }
#pragma GCC unroll 4
    for (int i = 0; i < MR; ++i) {
      const VF av = VSet1(a[i * lda + k]);
#pragma GCC unroll 2
      for (int v = 0; v < kRowVecs; ++v) {
        acc[i][v] = VFma(av, bv[v], acc[i][v]);
      }
    }
  }
#pragma GCC unroll 4
  for (int i = 0; i < MR; ++i) {
#pragma GCC unroll 2
    for (int v = 0; v < kRowVecs; ++v) {
      float* p = c + i * ldc + v * kLanes;
      _mm512_mask_storeu_ps(
          p, live[v], VAdd(_mm512_maskz_loadu_ps(live[v], p), acc[i][v]));
    }
  }
}

#else

template <int MR>
void GemmTileImpl(const float* a, int64_t lda, const float* pack,
                  int64_t ldb, int64_t kc, float* c, int64_t ldc,
                  int64_t nr) {
  // AVX2 and NEON rows take 4 and 8 vectors, so they are split into two
  // 16-column half-tiles to stay within the register file. The half split
  // only changes *which* registers hold a lane, never the ascending-k fma
  // chain that computes it.
  constexpr int kHalfVecs = kRowVecs / 2;
  constexpr int64_t kHalfCols = kHalfVecs * kLanes;
  for (int64_t jh = 0; jh < kGemmNr; jh += kHalfCols) {
    if (nr <= jh) break;  // fully past the valid columns: nothing to add
    VF acc[MR][kHalfVecs];
    for (int i = 0; i < MR; ++i) {
      for (int v = 0; v < kHalfVecs; ++v) acc[i][v] = VSet1(0.0f);
    }
    for (int64_t k = 0; k < kc; ++k) {
      VF b[kHalfVecs];
      const float* bp = pack + k * ldb + jh;
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

#endif

}  // namespace

void GemmTile(const float* a, int64_t lda, const float* b, int64_t ldb,
              int64_t kc, float* c, int64_t ldc, int64_t mr, int64_t nr) {
  switch (mr) {
    case 4: GemmTileImpl<4>(a, lda, b, ldb, kc, c, ldc, nr); break;
    case 3: GemmTileImpl<3>(a, lda, b, ldb, kc, c, ldc, nr); break;
    case 2: GemmTileImpl<2>(a, lda, b, ldb, kc, c, ldc, nr); break;
    case 1: GemmTileImpl<1>(a, lda, b, ldb, kc, c, ldc, nr); break;
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

// ---- Fused elementwise -----------------------------------------------------

bool FusedChainExact(const ElemOp* ops, int count) {
  for (int k = 0; k < count; ++k) {
    switch (ops[k].kind) {
      case ElemOpKind::kRelu:
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

// Runs body(integral_constant<int, N>) for N = min(n, kMax), n >= 1: the
// tile templates' row or channel count for a block's remainder.
template <int64_t kMax, typename F>
inline void DispatchUpTo(int64_t n, F body) {
  if constexpr (kMax > 1) {
    if (n < kMax) return DispatchUpTo<kMax - 1>(n, body);
  }
  body(std::integral_constant<int, static_cast<int>(kMax)>{});
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
  LaneMask tail[NV];  // lanes before len
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
        LaneMask head[NV];  // lanes at or after the shift
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v) {
          // Lane j reads x[t + j - shift]. A vector that starts before the
          // shift expand-loads from the row's start into its lanes
          // j >= shift - t, so no address before the row is ever formed.
          const int64_t off = t0 + kLanes * v - shift;
          head[v] = static_cast<LaneMask>(
              kAllLanes << std::clamp<int64_t>(-off, 0, kLanes));
          xv[v] = off >= 0 ? _mm512_maskz_loadu_ps(tail[v], xrow + off)
                           : _mm512_maskz_expandloadu_ps(
                                 static_cast<LaneMask>(head[v] & tail[v]),
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
  static_assert(kConvTileLen == 2 * kLanes,
                "the dispatch below covers NV in [1, 2]");
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
      DispatchUpTo<kConvTileCout>(cout - co0, run);
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

// ---- GEMV (AVX-512 only) ---------------------------------------------------
// Lanes run over 16 rows of a; each k gathers the rows' column k at the
// int32 offsets lane * q and broadcasts b[k]. Lanes past p are masked out
// of the gather, the load and the store.
void Gemv(const float* a, const float* b, float* c, int64_t p, int64_t q) {
  const __m512i offsets = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(static_cast<int>(q)));
  for (int64_t i0 = 0; i0 < p; i0 += kLanes) {
    const LaneMask rows = LanesBelow(p - i0);
    const float* ablock = a + i0 * q;
    float* cblock = c + i0;
    for (int64_t k0 = 0; k0 < q; k0 += kGemmKc) {
      const int64_t k1 = std::min<int64_t>(q, k0 + kGemmKc);
      VF acc = VSet1(0.0f);
      for (int64_t k = k0; k < k1; ++k) {
        const VF av = _mm512_mask_i32gather_ps(VSet1(0.0f), rows, offsets,
                                               ablock + k, 4);
        acc = VFma(av, VSet1(b[k]), acc);
      }
      _mm512_mask_storeu_ps(
          cblock, rows, VAdd(_mm512_maskz_loadu_ps(rows, cblock), acc));
    }
  }
}

// ---- Backward kernels (AVX-512 only) ---------------------------------------
// MatMulTransA, MatMulTransB and CausalConv1dBackward of the SIMD backend.
// Each vectorizes across independent outputs and keeps every output's
// chain exactly as the scalar loops run it (see kernels.h, "Backward
// kernels", for the chains and the 4*floor(T/4) rule).
// Products that the chain rounds on their own go through MulRn/AddRn:
// under GCC's default -ffp-contract=fast, _mm512_add_ps(acc,
// _mm512_mul_ps(a, b)) is contracted into one FMA, while the embedded
// rounding forms are never fused.
namespace {

static_assert(kTileLanes == kLanes && kGemmNr == 2 * kLanes,
              "column blocks are two vectors, as kernels.gemm_bytes counts");

constexpr int kRn = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
inline VF MulRn(VF a, VF b) { return _mm512_mul_round_ps(a, b, kRn); }
inline VF AddRn(VF a, VF b) { return _mm512_add_round_ps(a, b, kRn); }

inline int64_t RoundUpLanes(int64_t n) {
  return (n + kLanes - 1) / kLanes * kLanes;
}

// c[i0 + i, j0 + 16 v + lane] = the TransB chain of row i0 + i against
// pack column j0 + 16 v + lane, for MR rows and NV vectors. pack is bT
// transposed to [q, rpad] with zero-padded columns.
template <int MR, int NV>
void TransBTile(const float* a, const float* pack, float* c, int64_t q,
                int64_t r, int64_t rpad, int64_t i0, int64_t j0) {
  VF acc[MR][NV];
#pragma GCC unroll 8
  for (int i = 0; i < MR; ++i) {
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) acc[i][v] = VSet1(0.0f);
  }
  const float* arow = a + i0 * q;
  const int64_t n4 = q / 4 * 4;
  int64_t k = 0;
  for (; k < n4; ++k) {  // products rounded, then added in order
    const float* bp = pack + k * rpad + j0;
    VF b[NV];
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) b[v] = VLoad(bp + v * kLanes);
#pragma GCC unroll 8
    for (int i = 0; i < MR; ++i) {
      const VF av = VSet1(arow[i * q + k]);
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) {
        acc[i][v] = AddRn(acc[i][v], MulRn(av, b[v]));
      }
    }
  }
  for (; k < q; ++k) {  // the q mod 4 tail terms, fused
    const float* bp = pack + k * rpad + j0;
    VF b[NV];
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) b[v] = VLoad(bp + v * kLanes);
#pragma GCC unroll 8
    for (int i = 0; i < MR; ++i) {
      const VF av = VSet1(arow[i * q + k]);
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) acc[i][v] = VFma(av, b[v], acc[i][v]);
    }
  }
#pragma GCC unroll 8
  for (int i = 0; i < MR; ++i) {
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      _mm512_mask_storeu_ps(c + (i0 + i) * r + j0 + v * kLanes,
                            LanesBelow(r - j0 - v * kLanes), acc[i][v]);
    }
  }
}

// c[j0 + jj, l0 + 16 v + lane] = the TransA chain: +0, then one FMA per
// ascending i, the lanes of a zero a[i, j0 + jj] masked out.
template <int JR, int NV>
void TransATile(const float* a, const float* b, float* c, int64_t p,
                int64_t q, int64_t r, int64_t j0, int64_t l0) {
  LaneMask tail[NV];
  VF acc[JR][NV];
#pragma GCC unroll 4
  for (int v = 0; v < NV; ++v) tail[v] = LanesBelow(r - l0 - v * kLanes);
#pragma GCC unroll 8
  for (int j = 0; j < JR; ++j) {
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) acc[j][v] = VSet1(0.0f);
  }
  const VF zero = VSet1(0.0f);
  for (int64_t i = 0; i < p; ++i) {
    const float* brow = b + i * r + l0;
    VF bv[NV];
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      bv[v] = _mm512_maskz_loadu_ps(tail[v], brow + v * kLanes);
    }
    const float* arow = a + i * q + j0;
#pragma GCC unroll 8
    for (int j = 0; j < JR; ++j) {
      const VF av = VSet1(arow[j]);
      // Unordered-or-unequal: -0 is skipped like +0, NaN is not.
      const LaneMask live = _mm512_cmp_ps_mask(av, zero, _CMP_NEQ_UQ);
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) {
        acc[j][v] = _mm512_mask3_fmadd_ps(av, bv[v], acc[j][v], live);
      }
    }
  }
#pragma GCC unroll 8
  for (int j = 0; j < JR; ++j) {
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      _mm512_mask_storeu_ps(c + (j0 + j) * r + l0 + v * kLanes, tail[v],
                            acc[j][v]);
    }
  }
}

// The r == 1 arm of TransA: lanes over q. c[j0 + 16 v + lane] chains over
// ascending i, each lane skipping its own zero a[i, j].
template <int NV>
void TransAColumnTile(const float* a, const float* b, float* c, int64_t p,
                      int64_t q, int64_t j0) {
  LaneMask tail[NV];
  VF acc[NV];
#pragma GCC unroll 4
  for (int v = 0; v < NV; ++v) {
    tail[v] = LanesBelow(q - j0 - v * kLanes);
    acc[v] = VSet1(0.0f);
  }
  const VF zero = VSet1(0.0f);
  for (int64_t i = 0; i < p; ++i) {
    const VF bv = VSet1(b[i]);
    const float* arow = a + i * q + j0;
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      const VF av = _mm512_maskz_loadu_ps(tail[v], arow + v * kLanes);
      const LaneMask live =
          _mm512_mask_cmp_ps_mask(tail[v], av, zero, _CMP_NEQ_UQ);
      acc[v] = _mm512_mask3_fmadd_ps(av, bv, acc[v], live);
    }
  }
#pragma GCC unroll 4
  for (int v = 0; v < NV; ++v) {
    _mm512_mask_storeu_ps(c + j0 + v * kLanes, tail[v], acc[v]);
  }
}

// gx rows [ci0, ci0 + CI) x time steps [t0, t0 + 16 NV) of every batch row:
// the CI*NV vectors stay in registers across the whole (cout, tap) loop,
// starting from the values already in gx, one FMA per ascending
// (cout, tap). Lane t reads gout[t + shift]; lanes at or past len - shift
// have no term and are masked out of the load and the FMA.
template <int CI, int NV>
void ConvInputGradTile(const float* w, const float* gout, float* gx,
                       int64_t batch, int64_t cin, int64_t cout, int64_t len,
                       int64_t k, int64_t dilation, int64_t ci0, int64_t t0) {
  LaneMask tail[NV];
#pragma GCC unroll 4
  for (int v = 0; v < NV; ++v) tail[v] = LanesBelow(len - t0 - kLanes * v);
  const float* wblock = w + ci0 * k;
  const int64_t wstride = cin * k;  // between output channels
  for (int64_t bi = 0; bi < batch; ++bi) {
    float* gxb = gx + (bi * cin + ci0) * len + t0;
    VF acc[CI][NV];
#pragma GCC unroll 8
    for (int c = 0; c < CI; ++c) {
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) {
        acc[c][v] = _mm512_maskz_loadu_ps(tail[v], gxb + c * len + kLanes * v);
      }
    }
    for (int64_t co = 0; co < cout; ++co) {
      const float* grow = gout + (bi * cout + co) * len + t0;
      const float* wc = wblock + co * wstride;
      for (int64_t kk = 0; kk < k; ++kk) {
        const int64_t shift = (k - 1 - kk) * dilation;
        if (shift >= len) continue;  // the tap has no term
        VF gv[NV];
        LaneMask live[NV];
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v) {
          live[v] = LanesBelow(len - shift - t0 - kLanes * v);
          gv[v] = _mm512_maskz_loadu_ps(live[v], grow + shift + kLanes * v);
        }
#pragma GCC unroll 8
        for (int c = 0; c < CI; ++c) {
          const VF wv = VSet1(wc[c * k + kk]);
#pragma GCC unroll 4
          for (int v = 0; v < NV; ++v) {
            acc[c][v] = _mm512_mask3_fmadd_ps(wv, gv[v], acc[c][v], live[v]);
          }
        }
      }
    }
#pragma GCC unroll 8
    for (int c = 0; c < CI; ++c) {
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) {
        _mm512_mask_storeu_ps(gxb + c * len + kLanes * v, tail[v], acc[c][v]);
      }
    }
  }
}

// Adds each of the first `rows` lanes of the CO vectors to its own gw or
// gb slot, lane by lane in ascending order: the per-row sums land in
// batch order, as the scalar loop adds them.
template <int CO>
inline void AddLanesInOrder(const VF (&acc)[CO], float* const (&dst)[CO],
                            int64_t rows) {
  alignas(64) float lanes[CO][kLanes];
#pragma GCC unroll 8
  for (int c = 0; c < CO; ++c) VStore(lanes[c], acc[c]);
  float sum[CO];
#pragma GCC unroll 8
  for (int c = 0; c < CO; ++c) sum[c] = *dst[c];
  for (int64_t l = 0; l < rows; ++l) {
#pragma GCC unroll 8
    for (int c = 0; c < CO; ++c) sum[c] += lanes[c][l];
  }
#pragma GCC unroll 8
  for (int c = 0; c < CO; ++c) *dst[c] = sum[c];
}

// gw[co0 + c, ci, kk] for CO output channels, over the batch rows
// [b0, b0 + 16) of the time-major regroups gt:[cout, len, bpad] and
// xt:[cin, len, bpad]. Each lane is one row's chain under the
// 4*floor(T/4) rule (T = len - shift); a tap with no term adds +0 per row.
template <int CO>
void ConvWeightGradTile(const float* gt, const float* xt, float* gw,
                        int64_t cin, int64_t len, int64_t k, int64_t bpad,
                        int64_t co0, int64_t ci, int64_t kk, int64_t shift,
                        int64_t b0, int64_t rows) {
  const int64_t plane = len * bpad;
  const int64_t terms = std::max<int64_t>(0, len - shift);
  const int64_t n4 = terms / 4 * 4;
  // Term t pairs x at time t with gout at time t + shift.
  const float* xp = xt + ci * plane + b0;
  const float* gp = gt + co0 * plane + b0;
  VF acc[CO];
#pragma GCC unroll 8
  for (int c = 0; c < CO; ++c) acc[c] = VSet1(0.0f);
  int64_t t = 0;
  for (; t < n4; ++t) {  // products rounded, then added in order
    const VF xv = VLoad(xp + t * bpad);
#pragma GCC unroll 8
    for (int c = 0; c < CO; ++c) {
      const VF gv = VLoad(gp + c * plane + (t + shift) * bpad);
      acc[c] = AddRn(acc[c], MulRn(gv, xv));
    }
  }
  for (; t < terms; ++t) {  // the T mod 4 tail terms, fused
    const VF xv = VLoad(xp + t * bpad);
#pragma GCC unroll 8
    for (int c = 0; c < CO; ++c) {
      acc[c] = VFma(VLoad(gp + c * plane + (t + shift) * bpad), xv, acc[c]);
    }
  }
  float* dst[CO];
#pragma GCC unroll 8
  for (int c = 0; c < CO; ++c) dst[c] = gw + ((co0 + c) * cin + ci) * k + kk;
  AddLanesInOrder<CO>(acc, dst, rows);
}

// gb[co0 + c] for CO output channels over batch rows [b0, b0 + 16): each
// lane sums its row of gout in ascending time with plain adds.
template <int CO>
void ConvBiasGradTile(const float* gt, float* gb, int64_t len, int64_t bpad,
                      int64_t co0, int64_t b0, int64_t rows) {
  const int64_t plane = len * bpad;
  const float* gp = gt + co0 * plane + b0;
  VF acc[CO];
#pragma GCC unroll 8
  for (int c = 0; c < CO; ++c) acc[c] = VSet1(0.0f);
  for (int64_t t = 0; t < len; ++t) {
#pragma GCC unroll 8
    for (int c = 0; c < CO; ++c) {
      acc[c] = VAdd(acc[c], VLoad(gp + c * plane + t * bpad));
    }
  }
  float* dst[CO];
#pragma GCC unroll 8
  for (int c = 0; c < CO; ++c) dst[c] = gb + co0 + c;
  AddLanesInOrder<CO>(acc, dst, rows);
}

// Transposes the 16 x 16 block held in r[0..16) in registers: afterwards
// lane i of r[j] holds what lane j of r[i] held. Round h swaps the
// off-diagonal h x h blocks between rows i and i + h, for h = 8, 4, 2, 1.
// (permutex2var rather than unpack/shuffle: GCC 12 expands those through
// _mm512_undefined_ps and warns under -Wall.)
inline void Transpose16(VF (&r)[kLanes]) {
  const __m512i lane =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  constexpr struct {
    int h;
    LaneMask with_bit_h;  // lanes whose index has bit h set
  } kRounds[] = {{8, 0xff00}, {4, 0xf0f0}, {2, 0xcccc}, {1, 0xaaaa}};
#pragma GCC unroll 4
  for (const auto& round : kRounds) {
    // A permutex2var index below 16 picks the first operand's lane, one
    // at 16 or above the second operand's lane (index - 16).
    const auto plus = [&lane](int n) {
      return _mm512_add_epi32(lane, _mm512_set1_epi32(n));
    };
    const __m512i first =
        _mm512_mask_blend_epi32(round.with_bit_h, lane, plus(16 - round.h));
    const __m512i second =
        _mm512_mask_blend_epi32(round.with_bit_h, plus(round.h), plus(16));
#pragma GCC unroll 16
    for (int i = 0; i < kLanes; ++i) {
      if ((i & round.h) != 0) continue;
      const VF a = r[i], b = r[i + round.h];
      r[i] = _mm512_permutex2var_ps(a, first, b);
      r[i + round.h] = _mm512_permutex2var_ps(a, second, b);
    }
  }
}

// dst[c * dst_stride + i] = src[i * src_stride + c] for c < cols <= 16 and
// i < 16, where rows i >= rows <= 16 read as zeros: each of the `cols`
// destination rows is written as one whole vector. Building the packs and
// regroups this way, rather than with scalar stores, keeps the kernel that
// then loads them from waiting on store forwarding: at U.S. shape, on one
// thread of a 4-vCPU AVX-512 Xeon VM, it cut GemmTransB by about 30% and
// ConvBackward by about 15%.
inline void TransposeBlock(const float* src, int64_t src_stride, int64_t rows,
                           int64_t cols, float* dst, int64_t dst_stride) {
  VF r[kLanes];
  const LaneMask live = LanesBelow(cols);
  for (int i = 0; i < kLanes; ++i) {
    r[i] = i < rows ? _mm512_maskz_loadu_ps(live, src + i * src_stride)
                    : VSet1(0.0f);
  }
  Transpose16(r);
  for (int64_t c = 0; c < cols; ++c) VStore(dst + c * dst_stride, r[c]);
}

// src:[batch, channels, len] -> dst:[channels, len, bpad], rows past batch
// zero-filled.
void RegroupTimeMajor(const float* src, float* dst, int64_t batch,
                      int64_t channels, int64_t len, int64_t bpad) {
  for (int64_t ch = 0; ch < channels; ++ch) {
    for (int64_t b0 = 0; b0 < bpad; b0 += kLanes) {
      for (int64_t t0 = 0; t0 < len; t0 += kLanes) {
        TransposeBlock(src + (b0 * channels + ch) * len + t0, channels * len,
                       std::min<int64_t>(kLanes, batch - b0),
                       std::min<int64_t>(kLanes, len - t0),
                       dst + (ch * len + t0) * bpad + b0, bpad);
      }
    }
  }
}

}  // namespace

void GemmTransB(const float* a, const float* bT, float* c, int64_t p,
                int64_t q, int64_t r) {
  if (p == 0 || r == 0) return;  // C is empty (and may be null)
  const int64_t rpad = RoundUpLanes(r);
  float* pack = ThreadScratch(q * rpad);
  for (int64_t j0 = 0; j0 < rpad; j0 += kLanes) {
    for (int64_t k0 = 0; k0 < q; k0 += kLanes) {
      TransposeBlock(bT + j0 * q + k0, q, std::min<int64_t>(kLanes, r - j0),
                     std::min<int64_t>(kLanes, q - k0), pack + k0 * rpad + j0,
                     rpad);
    }
  }
  for (int64_t j0 = 0; j0 < r; j0 += kGemmNr) {
    const bool two = r - j0 > kLanes;
    for (int64_t i0 = 0; i0 < p; i0 += kGemmMr) {
      const auto run = [&](auto mr) {
        constexpr int kMr = decltype(mr)::value;
        if (two) {
          TransBTile<kMr, 2>(a, pack, c, q, r, rpad, i0, j0);
        } else {
          TransBTile<kMr, 1>(a, pack, c, q, r, rpad, i0, j0);
        }
      };
      DispatchUpTo<kGemmMr>(p - i0, run);
    }
  }
}

void GemmTransA(const float* a, const float* b, float* c, int64_t p,
                int64_t q, int64_t r) {
  if (q == 0 || r == 0) return;  // C is empty (and may be null)
  if (r == 1) {
    for (int64_t j0 = 0; j0 < q; j0 += kGemmNr) {
      if (q - j0 > kLanes) {
        TransAColumnTile<2>(a, b, c, p, q, j0);
      } else {
        TransAColumnTile<1>(a, b, c, p, q, j0);
      }
    }
    return;
  }
  for (int64_t l0 = 0; l0 < r; l0 += kGemmNr) {
    const bool two = r - l0 > kLanes;
    for (int64_t j0 = 0; j0 < q; j0 += kGemmMr) {
      const auto run = [&](auto jr) {
        constexpr int kJr = decltype(jr)::value;
        if (two) {
          TransATile<kJr, 2>(a, b, c, p, q, r, j0, l0);
        } else {
          TransATile<kJr, 1>(a, b, c, p, q, r, j0, l0);
        }
      };
      DispatchUpTo<kGemmMr>(q - j0, run);
    }
  }
}

void ConvBackward(const float* x, const float* w, const float* gout,
                  float* gx, float* gw, float* gb, int64_t batch,
                  int64_t cin, int64_t cout, int64_t len, int64_t k,
                  int64_t dilation) {
  if (gx != nullptr) {
    for (int64_t t0 = 0; t0 < len; t0 += kConvTileLen) {
      const bool two = len - t0 > kLanes;
      for (int64_t ci0 = 0; ci0 < cin; ci0 += kConvTileCout) {
        DispatchUpTo<kConvTileCout>(cin - ci0, [&](auto ci) {
          constexpr int kCi = decltype(ci)::value;
          if (two) {
            ConvInputGradTile<kCi, 2>(w, gout, gx, batch, cin, cout, len, k,
                                      dilation, ci0, t0);
          } else {
            ConvInputGradTile<kCi, 1>(w, gout, gx, batch, cin, cout, len, k,
                                      dilation, ci0, t0);
          }
        });
      }
    }
  }
  const int64_t bpad = RoundUpLanes(batch);
  const int64_t plane = len * bpad;
  float* gt = ThreadScratch((cout + cin) * plane);
  float* xt = gt + cout * plane;
  RegroupTimeMajor(gout, gt, batch, cout, len, bpad);
  RegroupTimeMajor(x, xt, batch, cin, len, bpad);
  for (int64_t b0 = 0; b0 < batch; b0 += kLanes) {
    const int64_t rows = std::min<int64_t>(kLanes, batch - b0);
    for (int64_t co0 = 0; co0 < cout; co0 += kConvTileCout) {
      DispatchUpTo<kConvTileCout>(cout - co0, [&](auto co) {
        constexpr int kCo = decltype(co)::value;
        if (gb != nullptr) {
          ConvBiasGradTile<kCo>(gt, gb, len, bpad, co0, b0, rows);
        }
        for (int64_t ci = 0; ci < cin; ++ci) {
          for (int64_t kk = 0; kk < k; ++kk) {
            ConvWeightGradTile<kCo>(gt, xt, gw, cin, len, k, bpad, co0, ci,
                                    kk, (k - 1 - kk) * dilation, b0, rows);
          }
        }
      });
    }
  }
}

#endif  // CIT_SIMD_AVX512

#else  // no ISA path compiled: correct scalar fallbacks, never dispatched to

bool Available() { return false; }
const char* IsaName() { return "none"; }

void GemmTile(const float* a, int64_t lda, const float* b, int64_t ldb,
              int64_t kc, float* c, int64_t ldc, int64_t mr, int64_t nr) {
  for (int64_t i = 0; i < mr; ++i) {
    float* cr = c + i * ldc;
    const float* ar = a + i * lda;
    for (int64_t j = 0; j < nr; ++j) {
      float acc = 0.0f;
      for (int64_t k = 0; k < kc; ++k) {
        acc = std::fmaf(ar[k], b[k * ldb + j], acc);
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
