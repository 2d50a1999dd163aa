#ifndef CIT_MATH_PLAN_H_
#define CIT_MATH_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>

#include "math/autograd.h"
#include "math/kernels.h"
#include "math/tensor.h"

// Trace-and-replay compiled forward. The first time a CompiledFn runs with
// a given input-shape key it executes the wrapped forward interpreted while
// a per-thread recorder captures the op tape — kernel, input/output slots,
// parameter bindings — into an immutable ExecPlan. Finalization fuses
// adjacent single-use elementwise ops into one sweep and packs every
// intermediate into one contiguous slab at pre-computed offsets. Replays
// then run the plan directly: no Var construction, no per-op Storage
// allocation, no dynamic dispatch — just kernel calls over resolved
// pointers. Replay output is bitwise identical to the interpreted path at
// any thread count: each step's closure is the op's forward itself, the
// callable the interpreted op ran (math/autograd.cc), and fused chains
// evaluate the same scalar expressions (see kernels::ElemApply).
//
// Staleness: each plan snapshots the version counter of every parameter it
// binds (ag::Node::version, bumped by Var::mutable_value — the single
// funnel for optimizer steps, LoadParameters and checkpoint restore). A
// replay against any bumped parameter is refused and the plan re-records.
namespace cit::plan {

using math::Tensor;

// Process-wide kill switch for compiled replay, mirroring
// ag::SetNoGradAllowed: when disallowed, CompiledFn::Run simply executes
// the wrapped forward interpreted, so tests/test_plan.cc can drive both
// paths through unchanged call sites and check them against each other.
bool CompileAllowed();
void SetCompileAllowed(bool allowed);

// True while the calling thread is recording: op bodies in autograd.cc
// guard their Record* calls on this so the non-recording path never builds
// a replay closure.
inline bool Recording() { return detail::t_recording; }

// A replayable kernel invocation: `ins[k]` is the resolved data pointer of
// the op's k-th input, `out` the (exclusively owned) output region.
using ReplayFn = std::function<void(const float* const* ins, float* out)>;

// ---- Recording hooks (no-ops unless the calling thread is recording) ------
// Generic op: `out` is the freshly computed output tensor, `ins[0..n)` the
// op's input Vars in kernel-argument order, and `fn` the kernel call that
// computed `out` from them, which every replay runs again.
void RecordStep(const Tensor& out, const ag::Var* const* ins, size_t n,
                ReplayFn fn);
// Single-input elementwise op; these steps are candidates for chain fusion.
void RecordElem(const Tensor& out, const ag::Var& in, math::kernels::ElemOp op);
// Zero-copy view (Reshape, contiguous Slice): out shares src's storage.
void RecordAlias(const Tensor& out, const ag::Var& src);

// Per-CompiledFn counters (always maintained; the same events also feed the
// obs Registry as plan.* counters when telemetry is enabled).
struct PlanStats {
  int64_t hits = 0;           // replays served from a valid plan
  int64_t misses = 0;         // recordings (first run per shape key)
  // Split of `misses` by cause, so shape churn is observable: a cold miss
  // records a shape key this CompiledFn has never seen; an evicted miss
  // re-records a key the LRU previously dropped — a string of those means
  // the working set of shapes exceeds the capacity (thrash). Re-records in
  // place after a parameter-version invalidation count in `misses` (and
  // `invalidations`) but in neither split bucket, so
  //   misses == misses_cold + misses_evicted + invalidation re-records.
  int64_t misses_cold = 0;
  int64_t misses_evicted = 0;
  int64_t invalidations = 0;  // replays refused on a stale parameter version
  int64_t evictions = 0;      // LRU entries dropped at capacity
  int64_t fused_ops = 0;      // elementwise ops folded into a predecessor
  int64_t fallbacks = 0;      // interpreted runs (kill switch / poisoned key)
  int64_t entries = 0;        // live shape-key entries
};

// One compilable forward: owns a small LRU cache of ExecPlans keyed by the
// input shapes. Not thread-safe — a CompiledFn belongs to one agent and is
// driven from that agent's (already non-reentrant) DecideWeights path.
//
// The single-owner contract is enforced, not just documented: the first
// compiled-path Run pins the CompiledFn to the calling thread, and any
// later Run from a different thread CHECK-fails in debug builds (replays
// share one slab and one pointer table, so a cross-thread caller — e.g. a
// serving daemon misconfigured to share a model replica between workers —
// would race instead of failing loudly). Clear() releases the pin along
// with the cached plans, which is the supported way to re-home a
// CompiledFn onto another thread.
class CompiledFn {
 public:
  CompiledFn();
  ~CompiledFn();
  CompiledFn(CompiledFn&&) noexcept;
  CompiledFn& operator=(CompiledFn&&) noexcept;
  CompiledFn(const CompiledFn&) = delete;
  CompiledFn& operator=(const CompiledFn&) = delete;

  // Executes `forward` compiled. `inputs` are the tensors that vary between
  // calls (market windows, held weights, ...): the caller must build them
  // outside `forward` and have `forward` consume exactly these handles, so
  // the recorder can bind them as replay inputs rather than baking their
  // first-call values into the plan. Parameters reachable inside `forward`
  // are discovered and bound automatically. Everything else created inside
  // `forward` is captured as a constant.
  //
  // First call per shape key records (and returns the interpreted result);
  // later calls replay. With CompileAllowed() off — or when this thread is
  // already recording another plan — runs `forward` interpreted.
  Tensor Run(std::initializer_list<const Tensor*> inputs,
             const std::function<ag::Var()>& forward);

  const PlanStats& stats() const;
  // Drops every cached plan and releases the owning-thread pin (stats
  // persist). After Clear() the next Run may come from any one thread.
  void Clear();

  // LRU capacity per CompiledFn. The widest working set is the trader's:
  // one shape key per live batch size (1..max_batch when serving) per plan.
  // Most agents see one or two keys; the cap bounds a shape-churning
  // caller and allocates nothing up front.
  static constexpr int kMaxEntries = 32;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cit::plan

#endif  // CIT_MATH_PLAN_H_
