#include "math/autograd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
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

Var MakeOpImpl(Tensor value, std::vector<Var> inputs,
               std::function<void(Node&)> backward_fn) {
  bool requires_grad = false;
  for (const Var& v : inputs) requires_grad |= v.requires_grad();
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  if (requires_grad) {
    node->parents.reserve(inputs.size());
    for (Var& v : inputs) {
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

Var Add(const Var& a, const Var& b) {
  const BroadcastKind kind =
      ClassifyBroadcast(a.value(), b.value(), /*allow_bias=*/true);
  Tensor out;
  switch (kind) {
    case BroadcastKind::kSame:
      out = a.value().Add(b.value());
      break;
    case BroadcastKind::kScalar:
      out = a.value().AddScalar(b.value()[0]);
      break;
    case BroadcastKind::kBias: {
      out = Tensor(a.value().shape());
      const int64_t n = b.value().dim(0);
      const int64_t rows = out.numel() / n;
      const float* pa = a.value().data();
      const float* pb = b.value().data();
      float* po = out.data();
      for (int64_t r = 0; r < rows; ++r) {
        for (int64_t i = 0; i < n; ++i) po[r * n + i] = pa[r * n + i] + pb[i];
      }
      break;
    }
  }
  if (plan::Recording()) {
    const int64_t n = out.numel();
    switch (kind) {
      case BroadcastKind::kSame:
        plan::RecordStep(out, {&a, &b},
                         [n](const float* const* ins, float* o) {
                           kernels::Add(ins[0], ins[1], o, n);
                         });
        break;
      case BroadcastKind::kScalar:
        // The scalar operand is read at replay time, so a varying scalar
        // input replays correctly.
        plan::RecordStep(out, {&a, &b},
                         [n](const float* const* ins, float* o) {
                           kernels::AddScalar(ins[0], ins[1][0], o, n);
                         });
        break;
      case BroadcastKind::kBias: {
        const int64_t bn = b.value().dim(0);
        const int64_t rows = n / bn;
        plan::RecordStep(out, {&a, &b},
                         [rows, bn](const float* const* ins, float* o) {
                           const float* pa = ins[0];
                           const float* pb = ins[1];
                           for (int64_t r = 0; r < rows; ++r) {
                             for (int64_t i = 0; i < bn; ++i) {
                               o[r * bn + i] = pa[r * bn + i] + pb[i];
                             }
                           }
                         });
        break;
      }
    }
  }
  return MakeOp(std::move(out), {a, b}, [kind](Node& self) {
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
  Tensor out = (kind == BroadcastKind::kSame)
                   ? a.value().Sub(b.value())
                   : a.value().AddScalar(-b.value()[0]);
  if (plan::Recording()) {
    const int64_t n = out.numel();
    if (kind == BroadcastKind::kSame) {
      plan::RecordStep(out, {&a, &b},
                       [n](const float* const* ins, float* o) {
                         kernels::Sub(ins[0], ins[1], o, n);
                       });
    } else {
      plan::RecordStep(out, {&a, &b},
                       [n](const float* const* ins, float* o) {
                         kernels::AddScalar(ins[0], -ins[1][0], o, n);
                       });
    }
  }
  return MakeOp(std::move(out), {a, b}, [kind](Node& self) {
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
  Tensor out = (kind == BroadcastKind::kSame) ? a.value().Mul(b.value())
                                              : a.value().MulScalar(
                                                    b.value()[0]);
  if (plan::Recording()) {
    const int64_t n = out.numel();
    if (kind == BroadcastKind::kSame) {
      plan::RecordStep(out, {&a, &b},
                       [n](const float* const* ins, float* o) {
                         kernels::Mul(ins[0], ins[1], o, n);
                       });
    } else {
      plan::RecordStep(out, {&a, &b},
                       [n](const float* const* ins, float* o) {
                         kernels::MulScalar(ins[0], ins[1][0], o, n);
                       });
    }
  }
  return MakeOp(std::move(out), {a, b}, [kind](Node& self) {
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
  Tensor out = (kind == BroadcastKind::kSame)
                   ? a.value().Div(b.value())
                   : a.value().MulScalar(1.0f / b.value()[0]);
  if (plan::Recording()) {
    const int64_t n = out.numel();
    if (kind == BroadcastKind::kSame) {
      plan::RecordStep(out, {&a, &b},
                       [n](const float* const* ins, float* o) {
                         kernels::Div(ins[0], ins[1], o, n);
                       });
    } else {
      plan::RecordStep(out, {&a, &b},
                       [n](const float* const* ins, float* o) {
                         kernels::MulScalar(ins[0], 1.0f / ins[1][0], o, n);
                       });
    }
  }
  return MakeOp(std::move(out), {a, b}, [kind](Node& self) {
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
  Tensor out = a.value().AddScalar(v);
  if (plan::Recording()) {
    plan::RecordElem(out, a, {kernels::ElemOpKind::kAddScalar, v});
  }
  return MakeOp(std::move(out), {a}, [](Node& self) {
    AccumGrad(self.parents[0].get(), self.grad);
  });
}

Var MulScalar(const Var& a, float v) {
  Tensor out = a.value().MulScalar(v);
  if (plan::Recording()) {
    plan::RecordElem(out, a, {kernels::ElemOpKind::kMulScalar, v});
  }
  return MakeOp(std::move(out), {a}, [v](Node& self) {
    AccumGrad(self.parents[0].get(), self.grad.MulScalar(v));
  });
}

namespace {

// Shared implementation for elementwise min/max: mask is 1 where a wins.
Var MinMaxImpl(const Var& a, const Var& b, bool is_min) {
  CIT_CHECK(a.value().shape() == b.value().shape());
  const int64_t n = a.numel();
  Tensor out(a.value().shape());
  // The winner mask only feeds the backward pass; skip it under NoGradGuard
  // (the closure below is discarded unseen there).
  auto mask = GradEnabled() ? std::make_shared<std::vector<uint8_t>>(n)
                            : nullptr;
  {
    const float* pa = a.value().data();
    const float* pb = b.value().data();
    float* po = out.data();
    for (int64_t i = 0; i < n; ++i) {
      const bool a_wins = is_min ? (pa[i] <= pb[i]) : (pa[i] >= pb[i]);
      if (mask) (*mask)[i] = a_wins ? 1 : 0;
      po[i] = a_wins ? pa[i] : pb[i];
    }
  }
  if (plan::Recording()) {
    plan::RecordStep(out, {&a, &b},
                     [n, is_min](const float* const* ins, float* o) {
                       const float* pa = ins[0];
                       const float* pb = ins[1];
                       for (int64_t i = 0; i < n; ++i) {
                         const bool a_wins =
                             is_min ? (pa[i] <= pb[i]) : (pa[i] >= pb[i]);
                         o[i] = a_wins ? pa[i] : pb[i];
                       }
                     });
  }
  return MakeOp(std::move(out), {a, b}, [mask](Node& self) {
    Node* pa = self.parents[0].get();
    Node* pb = self.parents[1].get();
    const int64_t n = self.grad.numel();
    const float* g = CData(self.grad);
    if (pa->requires_grad) {
      Tensor ga(self.grad.shape());
      float* p = ga.data();
      for (int64_t i = 0; i < n; ++i) {
        if ((*mask)[i]) p[i] = g[i];
      }
      AccumGrad(pa, ga);
    }
    if (pb->requires_grad) {
      Tensor gb(self.grad.shape());
      float* p = gb.data();
      for (int64_t i = 0; i < n; ++i) {
        if (!(*mask)[i]) p[i] = g[i];
      }
      AccumGrad(pb, gb);
    }
  });
}

}  // namespace

Var Min(const Var& a, const Var& b) { return MinMaxImpl(a, b, true); }

Var Max(const Var& a, const Var& b) { return MinMaxImpl(a, b, false); }

Var Clamp(const Var& a, float lo, float hi) {
  Tensor out(a.value().shape());
  const kernels::ElemOp op{kernels::ElemOpKind::kClamp, lo, hi};
  kernels::FusedElemwise(a.value().data(), out.data(), out.numel(), &op, 1);
  if (plan::Recording()) plan::RecordElem(out, a, op);
  return MakeOp(std::move(out), {a}, [lo, hi](Node& self) {
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

// The forward runs the one-op chain through kernels::FusedElemwise, the
// kernel an unfused plan replay runs, so the interpreted path, an unfused
// replay and a fused sweep all evaluate the identical expression (exact
// ops may take the SIMD sweep, libm ops keep the scalar one).
template <typename Bwd>
Var UnaryOp(const Var& a, kernels::ElemOpKind kind, Bwd bwd_from_inout) {
  Tensor out(a.value().shape());
  const kernels::ElemOp op{kind};
  kernels::FusedElemwise(a.value().data(), out.data(), out.numel(), &op, 1);
  if (plan::Recording()) plan::RecordElem(out, a, op);
  return MakeOp(std::move(out), {a}, [bwd_from_inout](Node& self) {
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

Var Sqrt(const Var& a) {
  return UnaryOp(a, kernels::ElemOpKind::kSqrt,
                 [](float, float y) { return 0.5f / y; });
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
  Tensor out = Tensor::Scalar(a.value().Sum());
  if (plan::Recording()) {
    const int64_t n = a.numel();
    plan::RecordStep(out, {&a}, [n](const float* const* ins, float* o) {
      o[0] = static_cast<float>(kernels::Sum(ins[0], n));
    });
  }
  return MakeOp(std::move(out), {a}, [](Node& self) {
    Node* pa = self.parents[0].get();
    AccumGrad(pa, Tensor::Full(pa->value.shape(), CData(self.grad)[0]));
  });
}

Var Mean(const Var& a) {
  const float inv_n = 1.0f / static_cast<float>(a.numel());
  Tensor out = Tensor::Scalar(a.value().Mean());
  if (plan::Recording()) {
    const int64_t n = a.numel();
    plan::RecordStep(out, {&a}, [n](const float* const* ins, float* o) {
      // Same float sequence as Tensor::Mean: float(Sum) / float(n).
      o[0] = static_cast<float>(kernels::Sum(ins[0], n)) /
             static_cast<float>(n);
    });
  }
  return MakeOp(std::move(out), {a}, [inv_n](Node& self) {
    Node* pa = self.parents[0].get();
    AccumGrad(pa,
              Tensor::Full(pa->value.shape(), CData(self.grad)[0] * inv_n));
  });
}

namespace {

Var SumAxisImpl(const Var& a, int64_t axis, float scale) {
  const Tensor& x = a.value();
  int64_t ax = axis < 0 ? axis + x.ndim() : axis;
  CIT_CHECK(ax >= 0 && ax < x.ndim());
  Tensor out = x.SumAxis(ax);
  if (scale != 1.0f) out.MulScalarInPlace(scale);
  int64_t outer = 1;
  for (int64_t i = 0; i < ax; ++i) outer *= x.dim(i);
  int64_t inner = 1;
  for (int64_t i = ax + 1; i < x.ndim(); ++i) inner *= x.dim(i);
  const int64_t axis_len = x.dim(ax);
  if (plan::Recording()) {
    plan::RecordStep(out, {&a},
                     [outer, axis_len, inner,
                      scale](const float* const* ins, float* o) {
                       kernels::SumAxis(ins[0], o, outer, axis_len, inner);
                       if (scale != 1.0f) {
                         kernels::ScaleInto(o, scale, outer * inner);
                       }
                     });
  }
  return MakeOp(std::move(out), {a},
                [outer, inner, axis_len, scale](Node& self) {
                  Node* pa = self.parents[0].get();
                  Tensor g(pa->value.shape());
                  float* dst_base = g.data();
                  const float* src_base = CData(self.grad);
                  for (int64_t o = 0; o < outer; ++o) {
                    const float* src = src_base + o * inner;
                    for (int64_t k = 0; k < axis_len; ++k) {
                      float* dst = dst_base + (o * axis_len + k) * inner;
                      for (int64_t i = 0; i < inner; ++i) {
                        dst[i] = src[i] * scale;
                      }
                    }
                  }
                  AccumGrad(pa, g);
                });
}

}  // namespace

Var SumAxis(const Var& a, int64_t axis) { return SumAxisImpl(a, axis, 1.0f); }

Var MeanAxis(const Var& a, int64_t axis) {
  int64_t ax = axis < 0 ? axis + a.value().ndim() : axis;
  const float scale = 1.0f / static_cast<float>(a.value().dim(ax));
  return SumAxisImpl(a, ax, scale);
}

Var MatMul(const Var& a, const Var& b) {
  Tensor out = Tensor::MatMul(a.value(), b.value());
  if (plan::Recording()) {
    const int64_t p = a.value().dim(0);
    const int64_t q = a.value().dim(1);
    const int64_t r = b.value().dim(1);
    plan::RecordStep(out, {&a, &b},
                     [p, q, r](const float* const* ins, float* o) {
                       kernels::MatMul(ins[0], ins[1], o, p, q, r);
                     });
  }
  return MakeOp(std::move(out), {a, b}, [](Node& self) {
    Node* pa = self.parents[0].get();
    Node* pb = self.parents[1].get();
    const int64_t p = pa->value.dim(0);
    const int64_t q = pa->value.dim(1);
    const int64_t r = pb->value.dim(1);
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
  Tensor out = a.value().Transpose2D();
  if (plan::Recording()) {
    const int64_t rows = a.value().dim(0);
    const int64_t cols = a.value().dim(1);
    plan::RecordStep(out, {&a},
                     [rows, cols](const float* const* ins, float* o) {
                       kernels::Transpose(ins[0], o, rows, cols);
                     });
  }
  return MakeOp(std::move(out), {a}, [](Node& self) {
    AccumGrad(self.parents[0].get(), self.grad.Transpose2D());
  });
}

Var Reshape(const Var& a, Shape shape) {
  Tensor out = a.value().Reshape(std::move(shape));
  if (plan::Recording()) plan::RecordAlias(out, a);
  return MakeOp(std::move(out), {a}, [](Node& self) {
    Node* pa = self.parents[0].get();
    AccumGrad(pa, self.grad.Reshape(pa->value.shape()));
  });
}

namespace {

// Raw strided-copy core shared by the interpreted path, replay closures and
// the backward: one strided triple loop over the output, with ranks below 3
// lifted to rank 3 by leading unit dims.
void PermuteRaw(const float* src, float* dst, const Shape& out_shape,
                const std::vector<int64_t>& in_strides,
                const std::vector<int64_t>& perm) {
  const size_t nd = out_shape.size();
  CIT_CHECK_LE(nd, 3u);
  int64_t dims[3] = {1, 1, 1};
  int64_t strides[3] = {0, 0, 0};
  for (size_t i = 0; i < nd; ++i) {
    dims[3 - nd + i] = out_shape[i];
    strides[3 - nd + i] = in_strides[perm[i]];
  }
  for (int64_t i0 = 0; i0 < dims[0]; ++i0) {
    for (int64_t i1 = 0; i1 < dims[1]; ++i1) {
      const float* row = src + i0 * strides[0] + i1 * strides[1];
      for (int64_t i2 = 0; i2 < dims[2]; ++i2) *dst++ = row[i2 * strides[2]];
    }
  }
}

std::vector<int64_t> StridesOf(const Tensor& x) {
  const int64_t nd = x.ndim();
  std::vector<int64_t> strides(nd, 1);
  for (int64_t i = nd - 2; i >= 0; --i) {
    strides[i] = strides[i + 1] * x.dim(i + 1);
  }
  return strides;
}

Tensor PermuteTensor(const Tensor& x, const std::vector<int64_t>& perm) {
  const int64_t nd = x.ndim();
  CIT_CHECK_EQ(static_cast<int64_t>(perm.size()), nd);
  Shape out_shape(nd);
  for (int64_t i = 0; i < nd; ++i) out_shape[i] = x.dim(perm[i]);
  Tensor out(out_shape);
  PermuteRaw(x.data(), out.data(), out_shape, StridesOf(x), perm);
  return out;
}

}  // namespace

Var Permute(const Var& a, std::vector<int64_t> perm) {
  Tensor out = PermuteTensor(a.value(), perm);
  const int64_t nd = a.value().ndim();
  std::vector<int64_t> inverse(nd);
  for (int64_t i = 0; i < nd; ++i) inverse[perm[i]] = i;
  if (plan::Recording()) {
    plan::RecordStep(out, {&a},
                     [out_shape = out.shape(),
                      in_strides = StridesOf(a.value()),
                      perm](const float* const* ins, float* o) {
                       PermuteRaw(ins[0], o, out_shape, in_strides, perm);
                     });
  }
  return MakeOp(std::move(out), {a}, [inverse](Node& self) {
    AccumGrad(self.parents[0].get(), PermuteTensor(self.grad, inverse));
  });
}

Var Concat(const std::vector<Var>& parts, int64_t axis) {
  CIT_CHECK(!parts.empty());
  const Tensor& first = parts[0].value();
  int64_t ax = axis < 0 ? axis + first.ndim() : axis;
  CIT_CHECK(ax >= 0 && ax < first.ndim());
  Shape out_shape = first.shape();
  int64_t total = 0;
  for (const Var& p : parts) {
    CIT_CHECK_EQ(p.value().ndim(), first.ndim());
    for (int64_t i = 0; i < first.ndim(); ++i) {
      if (i != ax) CIT_CHECK_EQ(p.value().dim(i), first.dim(i));
    }
    total += p.value().dim(ax);
  }
  out_shape[ax] = total;
  Tensor out(out_shape);
  int64_t outer = 1;
  for (int64_t i = 0; i < ax; ++i) outer *= first.dim(i);
  int64_t inner = 1;
  for (int64_t i = ax + 1; i < first.ndim(); ++i) inner *= first.dim(i);
  std::vector<int64_t> part_lens;
  part_lens.reserve(parts.size());
  for (const Var& p : parts) part_lens.push_back(p.value().dim(ax));
  // Copy each part's rows into the right offset of the output.
  float* out_base = out.data();
  int64_t offset = 0;
  for (size_t pi = 0; pi < parts.size(); ++pi) {
    const Tensor& x = parts[pi].value();
    const int64_t len = part_lens[pi];
    const float* src = x.data();
    for (int64_t o = 0; o < outer; ++o) {
      kernels::Copy(src + o * len * inner,
                    out_base + (o * total + offset) * inner, len * inner);
    }
    offset += len;
  }
  if (plan::Recording()) {
    std::vector<const Var*> ins;
    ins.reserve(parts.size());
    for (const Var& p : parts) ins.push_back(&p);
    plan::RecordStepVec(
        out, ins,
        [part_lens, outer, inner, total](const float* const* in, float* o) {
          int64_t off = 0;
          for (size_t pi = 0; pi < part_lens.size(); ++pi) {
            const int64_t len = part_lens[pi];
            for (int64_t ot = 0; ot < outer; ++ot) {
              kernels::Copy(in[pi] + ot * len * inner,
                            o + (ot * total + off) * inner, len * inner);
            }
            off += len;
          }
        });
  }
  return MakeOpVec(std::move(out), parts,
                [part_lens, outer, inner, total](Node& self) {
                  const float* g = CData(self.grad);
                  int64_t offset = 0;
                  for (size_t pi = 0; pi < self.parents.size(); ++pi) {
                    Node* p = self.parents[pi].get();
                    const int64_t len = part_lens[pi];
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
  int64_t ax = axis < 0 ? axis + x.ndim() : axis;
  Tensor out = x.Slice(ax, start, len);
  int64_t outer = 1;
  for (int64_t i = 0; i < ax; ++i) outer *= x.dim(i);
  int64_t inner = 1;
  for (int64_t i = ax + 1; i < x.ndim(); ++i) inner *= x.dim(i);
  const int64_t axis_len = x.dim(ax);
  if (plan::Recording()) {
    if (out.SharesStorageWith(x)) {
      plan::RecordAlias(out, a);  // contiguous region: O(1) view
    } else {
      plan::RecordStep(out, {&a},
                       [outer, inner, axis_len, start,
                        len](const float* const* ins, float* o) {
                         const int64_t in_step = axis_len * inner;
                         const int64_t out_step = len * inner;
                         for (int64_t ot = 0; ot < outer; ++ot) {
                           kernels::Copy(ins[0] + ot * in_step + start * inner,
                                         o + ot * out_step, len * inner);
                         }
                       });
    }
  }
  return MakeOp(std::move(out), {a},
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
  Tensor out = a.value();
  const int64_t n = a.value().dim(-1);
  kernels::SoftmaxLastAxis(out.data(), out.numel() / n, n);
  if (plan::Recording()) {
    const int64_t total = out.numel();
    plan::RecordStep(out, {&a},
                     [total, n](const float* const* ins, float* o) {
                       kernels::Copy(ins[0], o, total);
                       kernels::SoftmaxLastAxis(o, total / n, n);
                     });
  }
  return MakeOp(std::move(out), {a}, [n](Node& self) {
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

Var LogSoftmax(const Var& a) {
  Tensor out = a.value();
  const int64_t n = a.value().dim(-1);
  kernels::LogSoftmaxLastAxis(out.data(), out.numel() / n, n);
  if (plan::Recording()) {
    const int64_t total = out.numel();
    plan::RecordStep(out, {&a},
                     [total, n](const float* const* ins, float* o) {
                       kernels::Copy(ins[0], o, total);
                       kernels::LogSoftmaxLastAxis(o, total / n, n);
                     });
  }
  return MakeOp(std::move(out), {a}, [n](Node& self) {
    Node* pa = self.parents[0].get();
    const int64_t outer = self.value.numel() / n;
    Tensor g(pa->value.shape());
    float* g_base = g.data();
    const float* y_base = CData(self.value);
    const float* gy_base = CData(self.grad);
    for (int64_t o = 0; o < outer; ++o) {
      const float* y = y_base + o * n;
      const float* gy = gy_base + o * n;
      float total = 0.0f;
      for (int64_t i = 0; i < n; ++i) total += gy[i];
      float* gx = g_base + o * n;
      for (int64_t i = 0; i < n; ++i) {
        gx[i] = gy[i] - std::exp(y[i]) * total;
      }
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

  Tensor out(Shape{batch, cout, len});
  kernels::CausalConv1dForward(xv.data(), wv.data(),
                               has_bias ? b.value().data() : nullptr,
                               out.data(), batch, cin, cout, len, ksize,
                               dilation);

  if (plan::Recording()) {
    std::vector<const Var*> ins = {&x, &w};
    if (has_bias) ins.push_back(&b);
    plan::RecordStepVec(
        out, ins,
        [batch, cin, cout, len, ksize, dilation,
         has_bias](const float* const* in, float* o) {
          kernels::CausalConv1dForward(in[0], in[1],
                                       has_bias ? in[2] : nullptr, o, batch,
                                       cin, cout, len, ksize, dilation);
        });
  }
  std::vector<Var> inputs = {x, w};
  if (has_bias) inputs.push_back(b);
  return MakeOpVec(
      std::move(out), std::move(inputs),
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
