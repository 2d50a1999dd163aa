#ifndef CIT_COMMON_ENV_CONFIG_H_
#define CIT_COMMON_ENV_CONFIG_H_

namespace cit {

// Experiment scale selected via environment variables:
//   CIT_FAST=1  -> smoke scale (CI-friendly, seconds per experiment)
//   default     -> reduced scale that preserves the paper's orderings
//   CIT_FULL=1  -> paper-scale asset counts, more seeds and steps
enum class RunScale { kFast, kDefault, kFull };

// Reads CIT_FAST / CIT_FULL once and caches the answer.
RunScale GetRunScale();

// Threads the global ThreadPool runs sweep cells on (kernels and training
// are serial), read once from CIT_NUM_THREADS. Unset or invalid
// values fall back to the hardware concurrency (clamped to [1, 16]). The
// active count can still be changed at runtime via
// ThreadPool::SetNumThreads.
int NumThreads();

// True when CIT_OVERSUBSCRIBE is set: the ThreadPool then honors thread
// counts above hardware_concurrency() instead of clamping them. Off by
// default because oversubscribing a small host only adds context switches;
// the determinism contract makes the clamp result-invariant.
// TSan runs enable it to exercise real cross-thread interleavings
// regardless of host size.
bool AllowOversubscribe();

// Kernel backend requested via CIT_KERNEL, read once: "scalar" or "simd"
// force a backend, unset (or any other value) means auto — prefer the SIMD
// backend when the build compiled an ISA path. Resolution against what the
// build actually provides happens in math/kernels.cc (a forced "simd" on a
// scalar-only build falls back to scalar).
enum class KernelChoice { kAuto, kScalar, kSimd };
KernelChoice GetKernelChoice();

// Convenience multipliers derived from the run scale.
int ScaledSeeds();           // seeds to average over (paper: 5)
double ScaledStepFactor();   // multiplier applied to training-step budgets

}  // namespace cit

#endif  // CIT_COMMON_ENV_CONFIG_H_
