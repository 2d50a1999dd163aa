#ifndef CIT_MATH_KERNELS_H_
#define CIT_MATH_KERNELS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

// The numeric inner loops behind Tensor and the autodiff ops, extracted into
// one unit so every hot loop lives behind a seam future backends can
// replace.
//
// Every kernel is a serial loop on its calling thread. Parallelism lives
// further up, where the ThreadPool runs sweep cells; no kernel enters the
// pool. Each output element is computed with a fixed
// reduction order, so a kernel returns the same bits on whichever thread
// runs it, at any pool size.
//
// Determinism contract, per backend: the scalar backend is the bitwise
// reference, and the SIMD backend matches it exactly on the non-FMA arms
// (plain elementwise add/sub/mul/div and scalar-parameter ops, plus any
// FusedElemwise chain) and on the causal conv, while the FMA arms (MatMul
// via the register-tiled microkernel, Axpy) may differ from scalar by the
// usual one-rounding-per-fma tolerance — but never between thread counts
// or runs within one backend.
namespace cit::math::kernels {

// ---- Backend dispatch ------------------------------------------------------
// GEMM register-tile geometry, shared by the scalar and SIMD microkernels
// (and by tests building adversarial tail shapes around them): MR rows of A
// against an NR-wide packed panel of B, k blocked by KC so the packed panel
// (~KC*NR floats) stays L1-resident. NR is two 16-float AVX-512 vectors /
// four AVX2 vectors / eight NEON vectors wide.
inline constexpr int64_t kGemmMr = 4;
inline constexpr int64_t kGemmNr = 32;
inline constexpr int64_t kGemmKc = 256;

// Register tile of the SIMD backend's direct conv (simd::ConvDirect, AVX-512
// builds only): kConvTileCout output channels x kConvTileLen time steps
// (two 16-lane vectors) of one batch row. kernels.conv_bytes counts that
// arm's traffic per tile, so its formula reads this geometry.
inline constexpr int64_t kConvTileCout = 6;
inline constexpr int64_t kConvTileLen = 32;

// Which implementation the hot kernels dispatch to. Selected once at
// startup: CIT_KERNEL=scalar or =simd forces a backend, unset picks the
// SIMD backend when the build compiled an ISA path (see math/simd.h) and
// the scalar backend otherwise. The choice is process-wide and uniform
// across all kernels, so A-vs-B comparisons inside one process (fused vs.
// unfused replay, compiled vs. interpreted, serve vs. library) always run
// both arms on the same backend.
enum class Backend { kScalar, kSimd };

// The backend every kernel currently dispatches to.
Backend ActiveBackend();
// Overrides the backend at runtime (tests; not thread-safe
// against in-flight kernels — call it between kernel invocations only).
// kSimd is clamped to kScalar when no ISA path was compiled in. Returns
// the previously active backend so callers can restore it.
Backend SetBackend(Backend b);
// True when an explicit SIMD path was compiled (x86 with AVX2+FMA or
// AVX-512 — i.e. a -DCIT_NATIVE_ARCH=ON build on such a host — or aarch64
// NEON).
bool SimdAvailable();
// "avx512" | "avx2" | "neon" | "none" (the compiled ISA, independent of
// which backend is active).
const char* SimdIsaName();

// ---- Elementwise -----------------------------------------------------------
void Fill(float* dst, float v, int64_t n);
void Copy(const float* src, float* dst, int64_t n);
void Add(const float* a, const float* b, float* out, int64_t n);
void Sub(const float* a, const float* b, float* out, int64_t n);
void Mul(const float* a, const float* b, float* out, int64_t n);
void Div(const float* a, const float* b, float* out, int64_t n);
void AddScalar(const float* a, float v, float* out, int64_t n);
void MulScalar(const float* a, float v, float* out, int64_t n);
// dst += src, the gradient-accumulation primitive.
void AddInto(float* dst, const float* src, int64_t n);
void SubInto(float* dst, const float* src, int64_t n);
void ScaleInto(float* dst, float v, int64_t n);
// y += alpha * x.
void Axpy(float alpha, const float* x, float* y, int64_t n);

// Applies f elementwise; used by the autodiff unary ops.
template <typename F>
void Map(const float* in, float* out, int64_t n, F f) {
  for (int64_t i = 0; i < n; ++i) out[i] = f(in[i]);
}

// Binary variant: out[i] = f(a[i], b[i]).
template <typename F>
void Map2(const float* a, const float* b, float* out, int64_t n, F f) {
  for (int64_t i = 0; i < n; ++i) out[i] = f(a[i], b[i]);
}

// Ternary variant: out[i] = f(a[i], b[i], c[i]) — the shape of most
// backward passes (grad, input, output).
template <typename F>
void Map3(const float* a, const float* b, const float* c, float* out,
          int64_t n, F f) {
  for (int64_t i = 0; i < n; ++i) out[i] = f(a[i], b[i], c[i]);
}

// ---- Fused elementwise -----------------------------------------------------
// A tiny interpreted program over one float: the replayable form of the
// autodiff unary ops (math/plan.cc fuses adjacent chains into one sweep).
// ElemApply is the single source of truth for each op's scalar formula —
// the autodiff forwards run their op as a one-op FusedElemwise chain, so
// the interpreted path, an unfused replay, and a fused sweep all evaluate
// the identical expression (every op is either IEEE-exact or one libm
// call, and chaining float-returning calls rounds to float32 at each link
// exactly like a store/reload, so results are bitwise equal no matter how
// many ops fuse).
enum class ElemOpKind : uint8_t {
  kExp,
  kLog,
  kTanh,
  kSigmoid,
  kRelu,
  kSqrt,
  kSquare,
  kAbs,
  kClamp,      // p0 = lo, p1 = hi
  kAddScalar,  // p0 = addend
  kMulScalar,  // p0 = factor
};

struct ElemOp {
  ElemOpKind kind;
  float p0 = 0.0f;
  float p1 = 0.0f;
};

inline float ElemApply(const ElemOp& op, float x) {
  switch (op.kind) {
    case ElemOpKind::kExp: return std::exp(x);
    case ElemOpKind::kLog: return std::log(x);
    case ElemOpKind::kTanh: return std::tanh(x);
    case ElemOpKind::kSigmoid: return 1.0f / (1.0f + std::exp(-x));
    case ElemOpKind::kRelu: return x > 0.0f ? x : 0.0f;
    case ElemOpKind::kSqrt: return std::sqrt(x);
    case ElemOpKind::kSquare: return x * x;
    case ElemOpKind::kAbs: return std::fabs(x);
    case ElemOpKind::kClamp: return std::min(op.p1, std::max(op.p0, x));
    case ElemOpKind::kAddScalar: return x + op.p0;
    case ElemOpKind::kMulScalar: return x * op.p0;
  }
  return x;  // unreachable
}

// out[i] = ops[count-1](... ops[0](in[i])); one pass over the data.
void FusedElemwise(const float* in, float* out, int64_t n, const ElemOp* ops,
                   int count);

// ---- Reductions ------------------------------------------------------------
// Serial, double-accumulated full sum (deterministic by construction).
double Sum(const float* a, int64_t n);
// out[o, i] = sum_k x[o, k, i] for x viewed as [outer, axis_len, inner].
// `out` is overwritten; the caller need not zero it.
void SumAxis(const float* x, float* out, int64_t outer, int64_t axis_len,
             int64_t inner);

// ---- Linear algebra --------------------------------------------------------
// c = a @ b with a:[p,q], b:[q,r], c:[p,r] (c overwritten). Cache-blocked
// with packed B panels and an MR x NR register tile.
void MatMul(const float* a, const float* b, float* c, int64_t p, int64_t q,
            int64_t r);
// c = a @ b with b supplied transposed (bT:[r,q]): c[i,j] = <a_i, bT_j>.
// This is the backward pass's grad_a = g @ b^T without materializing b^T.
void MatMulTransB(const float* a, const float* bT, float* c, int64_t p,
                  int64_t q, int64_t r);
// c = a^T @ b with a:[p,q], b:[p,r], c:[q,r] (grad_b without transposing a).
void MatMulTransA(const float* a, const float* b, float* c, int64_t p,
                  int64_t q, int64_t r);
// out[c, r] = in[r, c] for in:[rows, cols]; blocked for cache friendliness.
void Transpose(const float* in, float* out, int64_t rows, int64_t cols);

// ---- Softmax family (in place over the last axis) --------------------------
void SoftmaxLastAxis(float* x, int64_t outer, int64_t n);
void LogSoftmaxLastAxis(float* x, int64_t outer, int64_t n);

// ---- Causal dilated 1-D convolution ----------------------------------------
// x:[batch, cin, len], w:[cout, cin, k], bias:[cout] or nullptr,
// out:[batch, cout, len] (overwritten). Left-pads implicitly with
// (k-1)*dilation zeros. Two arms, chosen by the backend read once per call:
//  - the SIMD backend of an AVX-512 build runs a register-tiled kernel
//    (simd::ConvDirect) on x and out in their stored layout: a tile of
//    kConvTileCout output channels x kConvTileLen time steps of one batch
//    row stays in vector registers across the whole (cin, tap) loop and is
//    stored once, with no scratch and no allocation. Lanes before a tap's
//    shift are masked out of the load and the FMA, lanes past len out of
//    the loads and stores;
//  - every other case (scalar backend, AVX2/NEON/portable builds) runs a
//    time-major loop: x is regrouped into a grow-only per-thread
//    [cin, len, batch] scratch buffer and each (cout, cin, tap) term is one
//    contiguous `acc += w * x` pass over a [cout, len, batch] accumulator.
// Both arms compute each output element as a plain per-row triple loop
// does: start at +0, accumulate in ascending (cin, tap) order (zero weights
// skipped), add the bias last. The time-major arm keeps that loop's
// `+= w * x` expression, so it contracts to FMA exactly where the loop
// would; the tiled arm issues one explicit FMA per term, which is what the
// expression contracts to in the builds that have the arm (GCC contracts
// at -O2 and above; Release and RelWithDebInfo both qualify). Both arms are
// therefore bitwise equal to the triple loop compiled with the same flags
// (tests/test_kernels.cc ConvDirectMatchesReferenceBitwise), and so to each
// other, at every shape.
void CausalConv1dForward(const float* x, const float* w, const float* bias,
                         float* out, int64_t batch, int64_t cin, int64_t cout,
                         int64_t len, int64_t k, int64_t dilation);
// Accumulates into gx/gw/gb (callers pass zeroed or already-accumulated
// buffers); gb may be nullptr when the conv has no bias.
void CausalConv1dBackward(const float* x, const float* w, const float* gout,
                          float* gx, float* gw, float* gb, int64_t batch,
                          int64_t cin, int64_t cout, int64_t len, int64_t k,
                          int64_t dilation);

}  // namespace cit::math::kernels

#endif  // CIT_MATH_KERNELS_H_
