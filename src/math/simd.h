#ifndef CIT_MATH_SIMD_H_
#define CIT_MATH_SIMD_H_

#include <cstdint>

#include "math/kernels.h"

// Compile-time ISA detection plus the explicit-SIMD kernel entry points
// implemented in kernels_simd.cc. Exactly one of CIT_SIMD_AVX512 /
// CIT_SIMD_AVX2 / CIT_SIMD_NEON is defined when the compiler was given the
// matching target flags (on x86 that means -march=native via the default
// -DCIT_NATIVE_ARCH=ON; a portable -DCIT_NATIVE_ARCH=OFF build enables
// neither AVX2 nor FMA, so no ISA path is compiled and the scalar backend
// is the only selectable one — kernels::SetBackend clamps kSimd back to
// kScalar in that build). aarch64 implies NEON unconditionally.
//
// Everything here is an internal seam of math/kernels.cc: callers go
// through the public kernels:: API, which dispatches per the active
// Backend. Like every kernel, the functions below are serial over their
// ranges.
//
// Determinism within the SIMD backend: every entry point computes each
// output element with a lane-position-independent formula. The FMA arms
// run their edges as their vector body does (GemmTile and Gemv mask or
// zero-pad them), so a value cannot depend on whether it fell in the
// vector body or the tail. The split does move: a request's rows sit at a
// different offset in a stacked batch than alone, and stacked decides must
// equal single ones bitwise.

#if defined(__AVX512F__) && defined(__FMA__)
#define CIT_SIMD_AVX512 1
#elif defined(__AVX2__) && defined(__FMA__)
#define CIT_SIMD_AVX2 1
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define CIT_SIMD_NEON 1
#endif

namespace cit::math::kernels {

// The calling thread's kernel scratch (defined in kernels.cc): at least
// `floats` floats, never null, grown to the largest request the thread has
// made and reused after, so steady-state kernels allocate nothing. The
// time-major conv, the scalar conv backward's unwanted gx and the tiled
// backward kernels (the TransB pack, the conv regroups) use it; its
// contents are dead once the kernel returns.
float* ThreadScratch(int64_t floats);

}  // namespace cit::math::kernels

namespace cit::math::kernels::simd {

// True iff an ISA path was compiled in; the scalar fallback definitions
// used otherwise are correct but never selected by the dispatcher.
bool Available();
// "avx512", "avx2", "neon", or "none".
const char* IsaName();

// GEMM register tile: c[i, j] += sum_k a[i*lda + k] * b[k*ldb + j] for
// i in [0, mr), j in [0, nr), accumulating each output element with one FMA
// chain from +0 in ascending-k order. The vector body always runs the full
// kGemmNr width, so per-row numerics are identical no matter how many rows
// the tile holds (mr in [1, kGemmMr]), and a row's result does not depend
// on where it sits in a (for instance stacked) A. The AVX-512 arm reads b
// in place, masking the columns at or past nr to zero; the AVX2 and NEON
// arms load every column, so their b must be the zero-padded [kc, kGemmNr]
// pack (ldb = kGemmNr).
void GemmTile(const float* a, int64_t lda, const float* b, int64_t ldb,
              int64_t kc, float* c, int64_t ldc, int64_t mr, int64_t nr);

// Elementwise sweeps over [0, n). All IEEE-exact (single add/sub/mul/div
// per element), hence bitwise identical to the scalar backend.
void Add(const float* a, const float* b, float* out, int64_t n);
void Sub(const float* a, const float* b, float* out, int64_t n);
void Mul(const float* a, const float* b, float* out, int64_t n);
void Div(const float* a, const float* b, float* out, int64_t n);
void AddScalar(const float* a, float v, float* out, int64_t n);
void MulScalar(const float* a, float v, float* out, int64_t n);

// True when every op in ops[0..count) is in the bit-exact vectorizable set
// (relu/square/abs/clamp/add-scalar/mul-scalar). Chains containing a
// libm op (exp/log/tanh/sigmoid) must take the scalar ElemApply sweep:
// vector transcendental approximations would break the fused == unfused
// bitwise identity that plan fusion relies on.
bool FusedChainExact(const ElemOp* ops, int count);
// Vectorized fused sweep; requires FusedChainExact(ops, count).
void FusedElemwise(const float* in, float* out, int64_t n, const ElemOp* ops,
                   int count);

// The register-tiled arm: the r == 1 GEMM, the direct causal conv and the
// three backward kernels on the SIMD backend. Only the AVX-512 arm compiles
// them; kHasTiles says whether this build has them, and no other build may
// call them.
#if defined(CIT_SIMD_AVX512)
inline constexpr bool kHasTiles = true;
#else
inline constexpr bool kHasTiles = false;
#endif
// Floats per vector of the tiled arm: GemmTransB pads its pack to a
// multiple of this, and the kernels.gemm_bytes formulas read it.
inline constexpr int64_t kTileLanes = 16;
// kernels::MatMul's arm for r == 1: c[i] += the chain of a's row i against
// b:[q] (see kernels::MatMul), with lanes over kTileLanes rows of a:[p, q].
// It gathers a's columns at int32 offsets of up to (kTileLanes - 1) * q,
// so q must be at most kGemvMaxDepth.
inline constexpr int64_t kGemvMaxDepth = INT32_MAX / (kTileLanes - 1);
void Gemv(const float* a, const float* b, float* c, int64_t p, int64_t q);
// kernels::CausalConv1dForward's tiled arm (see there for the tile, the
// masks and the bitwise contract).
void ConvDirect(const float* x, const float* w, const float* bias, float* out,
                int64_t batch, int64_t cin, int64_t cout, int64_t len,
                int64_t k, int64_t dilation);
// kernels::MatMulTransB, MatMulTransA and CausalConv1dBackward: same
// arguments, same per-output chains (see there). GemmTransB packs bT
// transposed into ThreadScratch, ConvBackward regroups gout and x
// time-major into it.
void GemmTransB(const float* a, const float* bT, float* c, int64_t p,
                int64_t q, int64_t r);
void GemmTransA(const float* a, const float* b, float* c, int64_t p,
                int64_t q, int64_t r);
void ConvBackward(const float* x, const float* w, const float* gout,
                  float* gx, float* gw, float* gb, int64_t batch,
                  int64_t cin, int64_t cout, int64_t len, int64_t k,
                  int64_t dilation);

}  // namespace cit::math::kernels::simd

#endif  // CIT_MATH_SIMD_H_
