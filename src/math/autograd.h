#ifndef CIT_MATH_AUTOGRAD_H_
#define CIT_MATH_AUTOGRAD_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "math/tensor.h"

namespace cit::plan::detail {
// Trace-recorder hooks. t_recording is true while the calling thread is
// recording a plan (math/plan.cc sets and clears it; NoteOp is defined
// there). While a CompiledFn is recording on a thread, MakeOp pings
// NoteOp() for every op executed so the recorder can verify it saw a
// matching Record* call for each one — an op added without a recording
// hook then poisons the plan (permanent interpreted fallback) instead of
// replaying garbage.
inline thread_local bool t_recording = false;
void NoteOp();
}  // namespace cit::plan::detail

namespace cit::ag {

using math::Shape;
using math::Tensor;

// ---- Grad mode -------------------------------------------------------------
// Graph construction is controlled by a per-thread flag: while a NoGradGuard
// is live on a thread, every op returns a node-free constant Var carrying
// only its value tensor — no Node, no parents, no backward closure — so any
// module stack becomes graph-free under the guard with zero per-module
// changes. Forward numerics are untouched; the mode is purely about what is
// *retained*.

namespace detail {
inline bool& GradEnabledFlag() {
  thread_local bool enabled = true;
  return enabled;
}
}  // namespace detail

// True when ops on the calling thread build the backward graph (default).
inline bool GradEnabled() { return detail::GradEnabledFlag(); }

// Process-wide kill switch for the no-grad fast path: when disallowed,
// NoGradGuard is a no-op and every forward builds the full graph. Exists
// so tests/test_inference.cc can drive the graph path through unchanged
// call sites and check it against the graph-free path bitwise.
void SetNoGradAllowed(bool allowed);
bool NoGradAllowed();

// RAII: disables graph construction on the current thread. Purely a
// performance mode — values are bitwise identical with or without the
// guard. Nests; the previous mode is restored on destruction. Thread-local
// by design: a graph built on another thread is unaffected by a guard on
// this one.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

// One vertex of the dynamically-built computation DAG. Nodes are created by
// the op functions below and traversed in reverse topological order by
// Var::Backward(). The backward closure holds raw pointers to parent nodes;
// this is safe because `parents` keeps them alive for the node's lifetime,
// and it avoids shared_ptr reference cycles (edges only point from output
// to inputs).
struct Node {
  Tensor value;
  Tensor grad;            // allocated lazily on first accumulation
  bool requires_grad = false;
  bool has_grad = false;
  // Bumped by every Var::mutable_value() — the single funnel for parameter
  // mutation (optimizer steps, LoadParameters, checkpoint restore). Compiled
  // execution plans snapshot the version of each bound parameter and refuse
  // to replay against a mutated one (math/plan.cc re-records instead).
  uint64_t version = 0;
  std::vector<std::shared_ptr<Node>> parents;
  std::function<void(Node&)> backward_fn;  // nullptr for leaves
};

// Accumulates `g` into `n->grad` if the node participates in gradients.
void AccumGrad(Node* n, const Tensor& g);

// A handle to a DAG node: the user-facing autodiff value. Copying a Var
// copies the handle, not the tensor.
class Var {
 public:
  Var() = default;
  explicit Var(Tensor value, bool requires_grad = false);

  // A trainable leaf (requires_grad = true).
  static Var Param(Tensor value);
  // A non-differentiable constant input.
  static Var Constant(Tensor value);

  bool defined() const { return node_ != nullptr || is_const_; }
  const Tensor& value() const;
  Tensor& mutable_value();
  const Tensor& grad() const;
  // Mutable access to the accumulated gradient (requires has_grad()). Used
  // by the optimizer to rescale gradients in place; going through the
  // tensor's mutable path keeps copy-on-write storage sharing honest.
  Tensor& mutable_grad();
  bool has_grad() const { return node_ && node_->has_grad; }
  bool requires_grad() const { return node_ && node_->requires_grad; }

  const Shape& shape() const { return value().shape(); }
  int64_t numel() const { return value().numel(); }

  // Clears this node's accumulated gradient (used on parameters between
  // optimizer steps).
  void ZeroGrad();

  // Runs reverse-mode differentiation from this (scalar) output. Gradients
  // accumulate into every reachable node with requires_grad.
  void Backward();

  // A new constant leaf sharing this node's current value.
  Var Detach() const;

  // Null for node-free constants (ops evaluated under NoGradGuard).
  std::shared_ptr<Node> node() const { return node_; }

 private:
  explicit Var(std::shared_ptr<Node> node) : node_(std::move(node)) {}
  friend Var MakeOpImpl(Tensor value, const Var* const* inputs, size_t n,
                        std::function<void(Node&)> backward_fn);

  std::shared_ptr<Node> node_;
  // Node-free representation: ops evaluated (and constants created) under
  // NoGradGuard carry only the value tensor.
  Tensor const_value_;
  bool is_const_ = false;
};

// Graph-building slow path of MakeOp (grad mode only).
Var MakeOpImpl(Tensor value, const Var* const* inputs, size_t n,
               std::function<void(Node&)> backward_fn);

// Builds an op node: output `value`, edges to `inputs[0..n)`, and a
// backward closure. requires_grad is inherited from the inputs. Under
// NoGradGuard the inputs and closure are discarded and a node-free
// constant is returned: the closure is never converted to std::function
// and no input Var is copied, so the no-grad path pays no type-erasure or
// container allocation.
template <typename BackwardFn>
Var MakeOp(Tensor value, const Var* const* inputs, size_t n,
           BackwardFn&& backward_fn) {
  if (plan::detail::t_recording) plan::detail::NoteOp();
  if (!GradEnabled()) return Var::Constant(std::move(value));
  return MakeOpImpl(
      std::move(value), inputs, n,
      std::function<void(Node&)>(std::forward<BackwardFn>(backward_fn)));
}

// ---- Arithmetic ------------------------------------------------------------
// Add/Sub/Mul/Div require equal shapes, with two broadcast conveniences:
// `b` may be a single-element tensor (scalar broadcast), or, for Add only,
// a 1-D tensor matching a's last dimension (bias broadcast).
Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);
Var Div(const Var& a, const Var& b);
Var Neg(const Var& a);
Var AddScalar(const Var& a, float v);
Var MulScalar(const Var& a, float v);

// Elementwise min of two same-shape tensors (subgradient: ties go to a).
Var Min(const Var& a, const Var& b);
// Clamp to [lo, hi]; gradient is zero outside the interval.
Var Clamp(const Var& a, float lo, float hi);

// ---- Unary -----------------------------------------------------------------
Var Exp(const Var& a);
Var Log(const Var& a);   // caller guarantees positive input
Var Tanh(const Var& a);
Var Sigmoid(const Var& a);
Var Relu(const Var& a);
Var Square(const Var& a);
Var Abs(const Var& a);

// ---- Reductions ------------------------------------------------------------
Var Sum(const Var& a);   // -> shape [1]
Var Mean(const Var& a);  // -> shape [1]

// ---- Linear algebra --------------------------------------------------------
Var MatMul(const Var& a, const Var& b);  // [p,q] x [q,r] -> [p,r]
Var Transpose(const Var& a);             // 2-D transpose

// ---- Shape -----------------------------------------------------------------
Var Reshape(const Var& a, Shape shape);
Var Permute(const Var& a, std::vector<int64_t> perm);
Var Concat(const std::vector<Var>& parts, int64_t axis);
Var Slice(const Var& a, int64_t axis, int64_t start, int64_t len);

// ---- Softmax (over the last axis) ------------------------------------------
Var Softmax(const Var& a);

// ---- Convolution -----------------------------------------------------------
// Causal dilated 1-D convolution: x [B, Cin, L], w [Cout, Cin, K],
// b [Cout] (may be undefined for no bias) -> [B, Cout, L]. The input is
// implicitly left-padded with (K-1)*dilation zeros so output length equals
// input length and position t only sees inputs <= t (the TCN property).
Var CausalConv1d(const Var& x, const Var& w, const Var& b, int64_t dilation);

}  // namespace cit::ag

#endif  // CIT_MATH_AUTOGRAD_H_
