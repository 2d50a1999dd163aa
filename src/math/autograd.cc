#include "math/autograd.h"

#include <atomic>
#include <cmath>
#include <iterator>
#include <unordered_set>

#include "common/check.h"
#include "math/kernels.h"
#include "math/plan.h"

namespace cit::ag {

namespace kernels = math::kernels;

namespace {

std::atomic<bool> g_nograd_allowed{true};

}  // namespace

void SetNoGradAllowed(bool allowed) {
  g_nograd_allowed.store(allowed, std::memory_order_relaxed);
}

bool NoGradAllowed() {
  return g_nograd_allowed.load(std::memory_order_relaxed);
}

NoGradGuard::NoGradGuard() : prev_(detail::GradEnabledFlag()) {
  if (NoGradAllowed()) detail::GradEnabledFlag() = false;
}

NoGradGuard::~NoGradGuard() { detail::GradEnabledFlag() = prev_; }

void AccumGrad(Node* n, const Tensor& g) {
  if (n == nullptr || !n->requires_grad) return;
  if (!n->has_grad) {
    n->grad = g;  // COW handle copy: shares g's storage until mutated
    n->has_grad = true;
  } else {
    n->grad.AddInPlace(g);
  }
}

namespace {

// Node fields are non-const lvalues inside backward closures, so a bare
// t.data() there would pick the mutable overload and force a needless COW
// detach. Routing reads through a const ref keeps them zero-copy.
const float* CData(const Tensor& t) { return t.data(); }

// Ensures n->grad exists (zero-filled on first touch) and returns a mutable
// pointer into it, so backward passes can accumulate region-by-region
// without materializing a separate full-size gradient first.
float* GradAccumPtr(Node* n) {
  if (!n->has_grad) {
    n->grad = Tensor(n->value.shape());
    n->has_grad = true;
  }
  return n->grad.data();
}

}  // namespace

Var::Var(Tensor value, bool requires_grad) {
  // Constants created while grads are off skip the Node entirely; trainable
  // leaves always get one (parameters must outlive any guard).
  if (!requires_grad && !GradEnabled()) {
    const_value_ = std::move(value);
    is_const_ = true;
    return;
  }
  node_ = std::make_shared<Node>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

Var Var::Param(Tensor value) { return Var(std::move(value), true); }

Var Var::Constant(Tensor value) { return Var(std::move(value), false); }

const Tensor& Var::value() const {
  CIT_CHECK(defined());
  return node_ ? node_->value : const_value_;
}

Tensor& Var::mutable_value() {
  CIT_CHECK(defined());
  if (node_ == nullptr) return const_value_;
  // Every parameter mutation funnels through here (optimizer Step,
  // CopyParameters/SoftUpdate, checkpoint restore, LoadParameters), so the
  // version bump is what keeps compiled plans from replaying stale weights.
  ++node_->version;
  return node_->value;
}

const Tensor& Var::grad() const {
  CIT_CHECK(node_ != nullptr);
  CIT_CHECK_MSG(node_->has_grad, "gradient not populated; call Backward()");
  return node_->grad;
}

Tensor& Var::mutable_grad() {
  CIT_CHECK(node_ != nullptr);
  CIT_CHECK_MSG(node_->has_grad, "gradient not populated; call Backward()");
  return node_->grad;
}

void Var::ZeroGrad() {
  CIT_CHECK(defined());
  if (node_ == nullptr) return;  // node-free constants never hold gradients
  node_->has_grad = false;
  node_->grad = Tensor();
}

void Var::Backward() {
  CIT_CHECK_MSG(node_ != nullptr,
                "Backward() on a graph-free Var: this value was computed "
                "under NoGradGuard, so no tape exists to differentiate");
  CIT_CHECK_MSG(node_->value.numel() == 1 &&
                    node_->value.shape() == Shape{1},
                "Backward() root must be a scalar of shape [1]; reduce the "
                "output with Sum()/Mean() before differentiating");
  // Iterative post-order DFS to get a reverse topological order.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  if (node_->requires_grad) {
    stack.push_back({node_.get(), 0});
    visited.insert(node_.get());
  }
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      Node* p = f.node->parents[f.next_parent++].get();
      if (p->requires_grad && visited.insert(p).second) {
        stack.push_back({p, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }
  AccumGrad(node_.get(), Tensor::Ones(node_->value.shape()));
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* n = *it;
    if (n->backward_fn) {
      if (n->has_grad) n->backward_fn(*n);
      // The tape is single-shot: release the closure (and every tensor it
      // captured) as soon as this node has propagated, so peak memory
      // shrinks while the backward pass is still running.
      n->backward_fn = nullptr;
    }
  }
}

Var Var::Detach() const { return Var::Constant(value()); }

Var MakeOpImpl(Tensor value, const Var* const* inputs, size_t n,
               std::function<void(Node&)> backward_fn) {
  bool requires_grad = false;
  for (size_t i = 0; i < n; ++i) requires_grad |= inputs[i]->requires_grad();
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  if (requires_grad) {
    node->parents.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const Var& v = *inputs[i];
      std::shared_ptr<Node> p = v.node();
      if (p == nullptr && v.defined()) {
        // A node-free constant (produced under an earlier NoGradGuard) is
        // feeding a graph op: lift it to a constant leaf so backward
        // closures can read parents[i]->value.
        p = std::make_shared<Node>();
        p->value = v.value();
      }
      node->parents.push_back(std::move(p));
    }
    node->backward_fn = std::move(backward_fn);
  }
  // Without requires_grad the node is a pruned leaf: no parents, no closure.
  return Var(std::move(node));
}

namespace {

// An op's forward: `ins[k]` is the data of its k-th input, `out` the
// output it writes.
using In = const float* const*;

// Runs an op's forward, written once as the kernel callable `kernel(ins,
// out)`: allocates the output, calls the kernel over the inputs' data, and,
// while a plan records, hands the recorder that same callable as the op's
// replay step. The interpreted value and every replay of it therefore run
// one kernel call.
template <typename Kernel>
Tensor RunKernel(Shape shape, const Var* const* ins, size_t n,
                 Kernel kernel) {
  Tensor out(std::move(shape));
  // Only a Concat of many parts needs the heap for its input pointers.
  const float* inline_data[4];
  std::vector<const float*> heap_data;
  const float** data = inline_data;
  if (n > std::size(inline_data)) {
    heap_data.resize(n);
    data = heap_data.data();
  }
  for (size_t i = 0; i < n; ++i) data[i] = ins[i]->value().data();
  kernel(data, out.data());
  if (plan::Recording()) plan::RecordStep(out, ins, n, std::move(kernel));
  return out;
}

// Runs a one-op FusedElemwise chain, the kernel an unfused plan replay
// runs, and records the op as a fusable elementwise step, so the
// interpreted path, an unfused replay and a fused sweep all evaluate the
// identical expression (exact ops may take the SIMD sweep, libm ops keep
// the scalar one).
Tensor RunElem(const Var& a, kernels::ElemOp op) {
  Tensor out(a.shape());
  kernels::FusedElemwise(a.value().data(), out.data(), out.numel(), &op, 1);
  if (plan::Recording()) plan::RecordElem(out, a, op);
  return out;
}

enum class BroadcastKind { kSame, kScalar, kBias };

BroadcastKind ClassifyBroadcast(const Tensor& a, const Tensor& b,
                                bool allow_bias) {
  if (a.shape() == b.shape()) return BroadcastKind::kSame;
  if (b.numel() == 1) return BroadcastKind::kScalar;
  if (allow_bias && b.ndim() == 1 && a.ndim() >= 1 &&
      b.dim(0) == a.dim(-1)) {
    return BroadcastKind::kBias;
  }
  CIT_CHECK_MSG(false, "incompatible shapes for elementwise op");
  return BroadcastKind::kSame;
}

// Reduces gradient `g` (shaped like the full output) onto a bias vector of
// length `n` (the last axis), summing over all leading positions.
Tensor ReduceToBias(const Tensor& g, int64_t n) {
  Tensor out(Shape{n});
  float* dst = out.data();
  const int64_t rows = g.numel() / n;
  const float* src = g.data();
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t i = 0; i < n; ++i) dst[i] += src[r * n + i];
  }
  return out;
}

}  // namespace

// A one-element operand of Add/Sub/Mul/Div is read when the kernel runs, so
// a varying scalar input replays correctly.

Var Add(const Var& a, const Var& b) {
  const BroadcastKind kind =
      ClassifyBroadcast(a.value(), b.value(), /*allow_bias=*/true);
  const Var* ins[] = {&a, &b};
  const int64_t n = a.numel();
  Tensor out;
  switch (kind) {
    case BroadcastKind::kSame:
      out = RunKernel(a.shape(), ins, 2, [n](In in, float* o) {
        kernels::Add(in[0], in[1], o, n);
      });
      break;
    case BroadcastKind::kScalar:
      out = RunKernel(a.shape(), ins, 2, [n](In in, float* o) {
        kernels::AddScalar(in[0], in[1][0], o, n);
      });
      break;
    case BroadcastKind::kBias: {
      const int64_t bn = b.value().dim(0);
      const int64_t rows = n / bn;
      out = RunKernel(a.shape(), ins, 2, [rows, bn](In in, float* o) {
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t i = 0; i < bn; ++i) {
            o[r * bn + i] = in[0][r * bn + i] + in[1][i];
          }
        }
      });
      break;
    }
  }
  return MakeOp(std::move(out), ins, 2, [kind](Node& self) {
    Node* pa = self.parents[0].get();
    Node* pb = self.parents[1].get();
    AccumGrad(pa, self.grad);
    if (!pb->requires_grad) return;
    switch (kind) {
      case BroadcastKind::kSame:
        AccumGrad(pb, self.grad);
        break;
      case BroadcastKind::kScalar:
        AccumGrad(pb, Tensor::Scalar(self.grad.Sum())
                          .Reshape(pb->value.shape()));
        break;
      case BroadcastKind::kBias:
        AccumGrad(pb, ReduceToBias(self.grad, pb->value.dim(0)));
        break;
    }
  });
}

Var Sub(const Var& a, const Var& b) {
  const BroadcastKind kind =
      ClassifyBroadcast(a.value(), b.value(), /*allow_bias=*/false);
  const Var* ins[] = {&a, &b};
  const int64_t n = a.numel();
  Tensor out =
      kind == BroadcastKind::kSame
          ? RunKernel(a.shape(), ins, 2,
                      [n](In in, float* o) {
                        kernels::Sub(in[0], in[1], o, n);
                      })
          : RunKernel(a.shape(), ins, 2, [n](In in, float* o) {
              kernels::AddScalar(in[0], -in[1][0], o, n);
            });
  return MakeOp(std::move(out), ins, 2, [kind](Node& self) {
    Node* pa = self.parents[0].get();
    Node* pb = self.parents[1].get();
    AccumGrad(pa, self.grad);
    if (!pb->requires_grad) return;
    if (kind == BroadcastKind::kSame) {
      AccumGrad(pb, self.grad.MulScalar(-1.0f));
    } else {
      AccumGrad(pb, Tensor::Scalar(-self.grad.Sum())
                        .Reshape(pb->value.shape()));
    }
  });
}

Var Mul(const Var& a, const Var& b) {
  const BroadcastKind kind =
      ClassifyBroadcast(a.value(), b.value(), /*allow_bias=*/false);
  const Var* ins[] = {&a, &b};
  const int64_t n = a.numel();
  Tensor out =
      kind == BroadcastKind::kSame
          ? RunKernel(a.shape(), ins, 2,
                      [n](In in, float* o) {
                        kernels::Mul(in[0], in[1], o, n);
                      })
          : RunKernel(a.shape(), ins, 2, [n](In in, float* o) {
              kernels::MulScalar(in[0], in[1][0], o, n);
            });
  return MakeOp(std::move(out), ins, 2, [kind](Node& self) {
    Node* pa = self.parents[0].get();
    Node* pb = self.parents[1].get();
    if (kind == BroadcastKind::kSame) {
      if (pa->requires_grad) AccumGrad(pa, self.grad.Mul(pb->value));
      if (pb->requires_grad) AccumGrad(pb, self.grad.Mul(pa->value));
    } else {
      if (pa->requires_grad) {
        AccumGrad(pa, self.grad.MulScalar(pb->value[0]));
      }
      if (pb->requires_grad) {
        AccumGrad(pb, Tensor::Scalar(self.grad.Mul(pa->value).Sum())
                          .Reshape(pb->value.shape()));
      }
    }
  });
}

Var Div(const Var& a, const Var& b) {
  const BroadcastKind kind =
      ClassifyBroadcast(a.value(), b.value(), /*allow_bias=*/false);
  const Var* ins[] = {&a, &b};
  const int64_t n = a.numel();
  Tensor out =
      kind == BroadcastKind::kSame
          ? RunKernel(a.shape(), ins, 2,
                      [n](In in, float* o) {
                        kernels::Div(in[0], in[1], o, n);
                      })
          : RunKernel(a.shape(), ins, 2, [n](In in, float* o) {
              kernels::MulScalar(in[0], 1.0f / in[1][0], o, n);
            });
  return MakeOp(std::move(out), ins, 2, [kind](Node& self) {
    Node* pa = self.parents[0].get();
    Node* pb = self.parents[1].get();
    if (kind == BroadcastKind::kSame) {
      if (pa->requires_grad) AccumGrad(pa, self.grad.Div(pb->value));
      if (pb->requires_grad) {
        // d/db (a/b) = -a / b^2
        Tensor gb(pb->value.shape());
        kernels::Map3(CData(self.grad), CData(pa->value), CData(pb->value),
                      gb.data(), gb.numel(),
                      [](float g, float av, float bv) {
                        return -(g * av) / (bv * bv);
                      });
        AccumGrad(pb, gb);
      }
    } else {
      const float bv = pb->value[0];
      if (pa->requires_grad) AccumGrad(pa, self.grad.MulScalar(1.0f / bv));
      if (pb->requires_grad) {
        const float s = self.grad.Mul(pa->value).Sum();
        AccumGrad(pb, Tensor::Scalar(-s / (bv * bv))
                          .Reshape(pb->value.shape()));
      }
    }
  });
}

Var Neg(const Var& a) { return MulScalar(a, -1.0f); }

Var AddScalar(const Var& a, float v) {
  Tensor out = RunElem(a, {kernels::ElemOpKind::kAddScalar, v});
  const Var* ins[] = {&a};
  return MakeOp(std::move(out), ins, 1, [](Node& self) {
    AccumGrad(self.parents[0].get(), self.grad);
  });
}

Var MulScalar(const Var& a, float v) {
  Tensor out = RunElem(a, {kernels::ElemOpKind::kMulScalar, v});
  const Var* ins[] = {&a};
  return MakeOp(std::move(out), ins, 1, [v](Node& self) {
    AccumGrad(self.parents[0].get(), self.grad.MulScalar(v));
  });
}

Var Min(const Var& a, const Var& b) {
  CIT_CHECK(a.value().shape() == b.value().shape());
  const Var* ins[] = {&a, &b};
  const int64_t n = a.numel();
  Tensor out = RunKernel(a.shape(), ins, 2, [n](In in, float* o) {
    for (int64_t i = 0; i < n; ++i) {
      o[i] = in[0][i] <= in[1][i] ? in[0][i] : in[1][i];
    }
  });
  return MakeOp(std::move(out), ins, 2, [](Node& self) {
    // The backward recomputes the winner from the parents' values; a wins
    // ties, as in the forward.
    Node* pa = self.parents[0].get();
    Node* pb = self.parents[1].get();
    const int64_t n = self.grad.numel();
    const float* g = CData(self.grad);
    const float* va = CData(pa->value);
    const float* vb = CData(pb->value);
    if (pa->requires_grad) {
      Tensor ga(self.grad.shape());
      float* p = ga.data();
      for (int64_t i = 0; i < n; ++i) {
        if (va[i] <= vb[i]) p[i] = g[i];
      }
      AccumGrad(pa, ga);
    }
    if (pb->requires_grad) {
      Tensor gb(self.grad.shape());
      float* p = gb.data();
      for (int64_t i = 0; i < n; ++i) {
        if (!(va[i] <= vb[i])) p[i] = g[i];
      }
      AccumGrad(pb, gb);
    }
  });
}

Var Clamp(const Var& a, float lo, float hi) {
  Tensor out = RunElem(a, {kernels::ElemOpKind::kClamp, lo, hi});
  const Var* ins[] = {&a};
  return MakeOp(std::move(out), ins, 1, [lo, hi](Node& self) {
    Node* pa = self.parents[0].get();
    Tensor g(self.grad.shape());
    kernels::Map2(CData(self.grad), CData(pa->value), g.data(), g.numel(),
                  [lo, hi](float gy, float x) {
                    return (x > lo && x < hi) ? gy : 0.0f;
                  });
    AccumGrad(pa, g);
  });
}

namespace {

template <typename Bwd>
Var UnaryOp(const Var& a, kernels::ElemOpKind kind, Bwd bwd_from_inout) {
  Tensor out = RunElem(a, {kind});
  const Var* ins[] = {&a};
  return MakeOp(std::move(out), ins, 1, [bwd_from_inout](Node& self) {
    Node* pa = self.parents[0].get();
    Tensor g(self.grad.shape());
    kernels::Map3(CData(self.grad), CData(pa->value), CData(self.value),
                  g.data(), g.numel(),
                  [bwd_from_inout](float gy, float x, float y) {
                    return gy * bwd_from_inout(x, y);
                  });
    AccumGrad(pa, g);
  });
}

}  // namespace

Var Exp(const Var& a) {
  return UnaryOp(a, kernels::ElemOpKind::kExp,
                 [](float, float y) { return y; });
}

Var Log(const Var& a) {
#ifndef NDEBUG
  // The header promises "caller guarantees positive input"; a violation
  // would otherwise surface as a downstream NaN far from the culprit.
  // Enforced per element in debug builds only (too hot for release).
  {
    const Tensor& x = a.value();
    const float* p = x.data();
    for (int64_t i = 0; i < x.numel(); ++i) {
      CIT_DCHECK_MSG(std::isfinite(p[i]) && p[i] > 0.0f,
                     "ag::Log input must be finite and positive");
    }
  }
#endif
  return UnaryOp(a, kernels::ElemOpKind::kLog,
                 [](float x, float) { return 1.0f / x; });
}

Var Tanh(const Var& a) {
  return UnaryOp(a, kernels::ElemOpKind::kTanh,
                 [](float, float y) { return 1.0f - y * y; });
}

Var Sigmoid(const Var& a) {
  return UnaryOp(a, kernels::ElemOpKind::kSigmoid,
                 [](float, float y) { return y * (1.0f - y); });
}

Var Relu(const Var& a) {
  return UnaryOp(a, kernels::ElemOpKind::kRelu,
                 [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Var Square(const Var& a) {
  return UnaryOp(a, kernels::ElemOpKind::kSquare,
                 [](float x, float) { return 2.0f * x; });
}

Var Abs(const Var& a) {
  return UnaryOp(a, kernels::ElemOpKind::kAbs,
                 [](float x, float) { return x >= 0.0f ? 1.0f : -1.0f; });
}

Var Sum(const Var& a) {
  const Var* ins[] = {&a};
  const int64_t n = a.numel();
  Tensor out = RunKernel({1}, ins, 1, [n](In in, float* o) {
    o[0] = static_cast<float>(kernels::Sum(in[0], n));
  });
  return MakeOp(std::move(out), ins, 1, [](Node& self) {
    Node* pa = self.parents[0].get();
    AccumGrad(pa, Tensor::Full(pa->value.shape(), CData(self.grad)[0]));
  });
}

Var Mean(const Var& a) {
  const int64_t n = a.numel();
  CIT_CHECK_GT(n, 0);
  const float inv_n = 1.0f / static_cast<float>(n);
  const Var* ins[] = {&a};
  Tensor out = RunKernel({1}, ins, 1, [n](In in, float* o) {
    o[0] = static_cast<float>(kernels::Sum(in[0], n)) / static_cast<float>(n);
  });
  return MakeOp(std::move(out), ins, 1, [inv_n](Node& self) {
    Node* pa = self.parents[0].get();
    AccumGrad(pa,
              Tensor::Full(pa->value.shape(), CData(self.grad)[0] * inv_n));
  });
}

Var MatMul(const Var& a, const Var& b) {
  CIT_CHECK_EQ(a.value().ndim(), 2);
  CIT_CHECK_EQ(b.value().ndim(), 2);
  const int64_t p = a.value().dim(0);
  const int64_t q = a.value().dim(1);
  CIT_CHECK_EQ(b.value().dim(0), q);
  const int64_t r = b.value().dim(1);
  const Var* ins[] = {&a, &b};
  Tensor out = RunKernel({p, r}, ins, 2, [p, q, r](In in, float* o) {
    kernels::MatMul(in[0], in[1], o, p, q, r);
  });
  return MakeOp(std::move(out), ins, 2, [p, q, r](Node& self) {
    Node* pa = self.parents[0].get();
    Node* pb = self.parents[1].get();
    if (pa->requires_grad) {
      // grad_a = g @ b^T, reading b in its stored layout.
      Tensor ga(pa->value.shape());
      kernels::MatMulTransB(CData(self.grad), CData(pb->value), ga.data(),
                            p, r, q);
      AccumGrad(pa, ga);
    }
    if (pb->requires_grad) {
      // grad_b = a^T @ g, reading a in its stored layout.
      Tensor gb(pb->value.shape());
      kernels::MatMulTransA(CData(pa->value), CData(self.grad), gb.data(),
                            p, q, r);
      AccumGrad(pb, gb);
    }
  });
}

Var Transpose(const Var& a) {
  CIT_CHECK_EQ(a.value().ndim(), 2);
  const int64_t rows = a.value().dim(0);
  const int64_t cols = a.value().dim(1);
  const Var* ins[] = {&a};
  Tensor out = RunKernel({cols, rows}, ins, 1, [rows, cols](In in, float* o) {
    kernels::Transpose(in[0], o, rows, cols);
  });
  return MakeOp(std::move(out), ins, 1, [](Node& self) {
    AccumGrad(self.parents[0].get(), self.grad.Transpose2D());
  });
}

Var Reshape(const Var& a, Shape shape) {
  Tensor out = a.value().Reshape(std::move(shape));
  if (plan::Recording()) plan::RecordAlias(out, a);
  const Var* ins[] = {&a};
  return MakeOp(std::move(out), ins, 1, [](Node& self) {
    Node* pa = self.parents[0].get();
    AccumGrad(pa, self.grad.Reshape(pa->value.shape()));
  });
}

namespace {

// A permutation of a rank <= 3 tensor as one strided triple loop over the
// output, lower ranks lifted to rank 3 by leading unit dims. Plain values,
// so the forward and backward closures copy it without allocating.
struct PermuteLoop {
  int64_t dims[3] = {1, 1, 1};     // output dims
  int64_t strides[3] = {0, 0, 0};  // input stride of each output dim

  PermuteLoop(const Shape& in_shape, const std::vector<int64_t>& perm) {
    const size_t nd = in_shape.size();
    CIT_CHECK_LE(nd, 3u);
    CIT_CHECK_EQ(perm.size(), nd);
    int64_t in_strides[3] = {1, 1, 1};
    int64_t stride = 1;
    for (size_t i = nd; i-- > 0;) {
      in_strides[i] = stride;
      stride *= in_shape[i];
    }
    for (size_t i = 0; i < nd; ++i) {
      dims[3 - nd + i] = in_shape[perm[i]];
      strides[3 - nd + i] = in_strides[perm[i]];
    }
  }

  void operator()(const float* src, float* dst) const {
    for (int64_t i0 = 0; i0 < dims[0]; ++i0) {
      for (int64_t i1 = 0; i1 < dims[1]; ++i1) {
        const float* row = src + i0 * strides[0] + i1 * strides[1];
        for (int64_t i2 = 0; i2 < dims[2]; ++i2) *dst++ = row[i2 * strides[2]];
      }
    }
  }
};

}  // namespace

Var Permute(const Var& a, std::vector<int64_t> perm) {
  const Tensor& x = a.value();
  const PermuteLoop forward(x.shape(), perm);
  const int64_t nd = x.ndim();
  Shape out_shape(nd);
  std::vector<int64_t> inverse(nd);
  for (int64_t i = 0; i < nd; ++i) {
    out_shape[i] = x.dim(perm[i]);
    inverse[perm[i]] = i;
  }
  const PermuteLoop backward(out_shape, inverse);
  const Var* ins[] = {&a};
  Tensor out = RunKernel(std::move(out_shape), ins, 1,
                         [forward](In in, float* o) { forward(in[0], o); });
  return MakeOp(std::move(out), ins, 1, [backward](Node& self) {
    Node* pa = self.parents[0].get();
    Tensor g(pa->value.shape());
    backward(CData(self.grad), g.data());
    AccumGrad(pa, g);
  });
}

Var Concat(const std::vector<Var>& parts, int64_t axis) {
  CIT_CHECK(!parts.empty());
  const Tensor& first = parts[0].value();
  const int64_t ax = axis < 0 ? axis + first.ndim() : axis;
  CIT_CHECK(ax >= 0 && ax < first.ndim());
  std::vector<const Var*> ins;
  std::vector<int64_t> part_lens;
  ins.reserve(parts.size());
  part_lens.reserve(parts.size());
  int64_t total = 0;
  for (const Var& p : parts) {
    CIT_CHECK_EQ(p.value().ndim(), first.ndim());
    for (int64_t i = 0; i < first.ndim(); ++i) {
      if (i != ax) CIT_CHECK_EQ(p.value().dim(i), first.dim(i));
    }
    ins.push_back(&p);
    part_lens.push_back(p.value().dim(ax));
    total += part_lens.back();
  }
  Shape out_shape = first.shape();
  out_shape[ax] = total;
  int64_t outer = 1;
  for (int64_t i = 0; i < ax; ++i) outer *= first.dim(i);
  int64_t inner = 1;
  for (int64_t i = ax + 1; i < first.ndim(); ++i) inner *= first.dim(i);
  // Copies each part's rows into its offset along the axis.
  Tensor out = RunKernel(
      std::move(out_shape), ins.data(), ins.size(),
      [part_lens = std::move(part_lens), outer, inner, total](In in,
                                                              float* o) {
        int64_t offset = 0;
        for (size_t pi = 0; pi < part_lens.size(); ++pi) {
          const int64_t len = part_lens[pi];
          for (int64_t ot = 0; ot < outer; ++ot) {
            kernels::Copy(in[pi] + ot * len * inner,
                          o + (ot * total + offset) * inner, len * inner);
          }
          offset += len;
        }
      });
  return MakeOp(std::move(out), ins.data(), ins.size(),
                [ax, outer, inner, total](Node& self) {
                  const float* g = CData(self.grad);
                  int64_t offset = 0;
                  for (const std::shared_ptr<Node>& part : self.parents) {
                    Node* p = part.get();
                    const int64_t len = p->value.dim(ax);
                    if (p->requires_grad) {
                      // Accumulate straight into the parent's grad region —
                      // no per-part zero tensor, no second add pass.
                      float* dst = GradAccumPtr(p);
                      for (int64_t o = 0; o < outer; ++o) {
                        kernels::AddInto(
                            dst + o * len * inner,
                            g + (o * total + offset) * inner, len * inner);
                      }
                    }
                    offset += len;
                  }
                });
}

Var Slice(const Var& a, int64_t axis, int64_t start, int64_t len) {
  const Tensor& x = a.value();
  const int64_t ax = axis < 0 ? axis + x.ndim() : axis;
  CIT_CHECK(ax >= 0 && ax < x.ndim());
  const int64_t axis_len = x.dim(ax);
  CIT_CHECK(start >= 0 && len >= 0 && start + len <= axis_len);
  int64_t outer = 1;
  for (int64_t i = 0; i < ax; ++i) outer *= x.dim(i);
  int64_t inner = 1;
  for (int64_t i = ax + 1; i < x.ndim(); ++i) inner *= x.dim(i);
  const Var* ins[] = {&a};
  Tensor out;
  if (outer == 1) {
    out = x.Slice(ax, start, len);  // contiguous region: O(1) view
    if (plan::Recording()) plan::RecordAlias(out, a);
  } else {
    Shape out_shape = x.shape();
    out_shape[ax] = len;
    out = RunKernel(std::move(out_shape), ins, 1,
                    [outer, inner, axis_len, start, len](In in, float* o) {
                      for (int64_t ot = 0; ot < outer; ++ot) {
                        kernels::Copy(in[0] + (ot * axis_len + start) * inner,
                                      o + ot * len * inner, len * inner);
                      }
                    });
  }
  return MakeOp(std::move(out), ins, 1,
                [outer, inner, axis_len, start, len](Node& self) {
                  Node* pa = self.parents[0].get();
                  // Accumulate the slice's gradient directly into the
                  // parent's [start, start+len) region.
                  float* dst = GradAccumPtr(pa);
                  const float* src = CData(self.grad);
                  for (int64_t o = 0; o < outer; ++o) {
                    kernels::AddInto(
                        dst + (o * axis_len + start) * inner,
                        src + o * len * inner, len * inner);
                  }
                });
}

Var Softmax(const Var& a) {
  const int64_t n = a.value().dim(-1);
  const int64_t total = a.numel();
  const Var* ins[] = {&a};
  Tensor out = RunKernel(a.shape(), ins, 1, [total, n](In in, float* o) {
    kernels::Copy(in[0], o, total);
    kernels::SoftmaxLastAxis(o, total / n, n);
  });
  return MakeOp(std::move(out), ins, 1, [n](Node& self) {
    Node* pa = self.parents[0].get();
    const int64_t outer = self.value.numel() / n;
    Tensor g(pa->value.shape());
    float* g_base = g.data();
    const float* s_base = CData(self.value);
    const float* gy_base = CData(self.grad);
    for (int64_t o = 0; o < outer; ++o) {
      const float* s = s_base + o * n;
      const float* gy = gy_base + o * n;
      float dot = 0.0f;
      for (int64_t i = 0; i < n; ++i) dot += gy[i] * s[i];
      float* gx = g_base + o * n;
      for (int64_t i = 0; i < n; ++i) gx[i] = s[i] * (gy[i] - dot);
    }
    AccumGrad(pa, g);
  });
}

Var CausalConv1d(const Var& x, const Var& w, const Var& b, int64_t dilation) {
  const Tensor& xv = x.value();
  const Tensor& wv = w.value();
  CIT_CHECK_EQ(xv.ndim(), 3);
  CIT_CHECK_EQ(wv.ndim(), 3);
  const int64_t batch = xv.dim(0);
  const int64_t cin = xv.dim(1);
  const int64_t len = xv.dim(2);
  const int64_t cout = wv.dim(0);
  CIT_CHECK_EQ(wv.dim(1), cin);
  const int64_t ksize = wv.dim(2);
  CIT_CHECK_GE(dilation, 1);
  const bool has_bias = b.defined();
  if (has_bias) {
    CIT_CHECK_EQ(b.value().ndim(), 1);
    CIT_CHECK_EQ(b.value().dim(0), cout);
  }
  const Var* ins[] = {&x, &w, &b};
  const size_t nin = has_bias ? 3 : 2;
  Tensor out = RunKernel(
      {batch, cout, len}, ins, nin,
      [batch, cin, cout, len, ksize, dilation, has_bias](In in, float* o) {
        kernels::CausalConv1dForward(in[0], in[1], has_bias ? in[2] : nullptr,
                                     o, batch, cin, cout, len, ksize,
                                     dilation);
      });
  return MakeOp(
      std::move(out), ins, nin,
      [batch, cin, cout, len, ksize, dilation, has_bias](Node& self) {
        Node* px = self.parents[0].get();
        Node* pw = self.parents[1].get();
        Node* pb = has_bias ? self.parents[2].get() : nullptr;
        // A constant input (the TCN's first conv and projection read the
        // band window) gets no input gradient computed at all.
        Tensor gx = px->requires_grad ? Tensor(px->value.shape()) : Tensor();
        Tensor gw(pw->value.shape());
        Tensor gb = has_bias ? Tensor(pb->value.shape()) : Tensor();
        kernels::CausalConv1dBackward(
            CData(px->value), CData(pw->value), CData(self.grad),
            px->requires_grad ? gx.data() : nullptr, gw.data(),
            has_bias ? gb.data() : nullptr, batch, cin, cout, len, ksize,
            dilation);
        AccumGrad(px, gx);
        AccumGrad(pw, gw);
        if (has_bias) AccumGrad(pb, gb);
      });
}

}  // namespace cit::ag
