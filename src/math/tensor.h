#ifndef CIT_MATH_TENSOR_H_
#define CIT_MATH_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "math/rng.h"

namespace cit::math {

using Shape = std::vector<int64_t>;

namespace detail {
// The refcounted flat buffer behind Tensor. Multiple tensors may point into
// one Storage (copies, Reshape views, axis-0 Slice views); mutation detaches
// via copy-on-write, so sharing is never observable through the value API.
struct Storage {
  explicit Storage(int64_t n) : data(static_cast<size_t>(n), 0.0f) {}
  explicit Storage(std::vector<float> d) : data(std::move(d)) {}
  std::vector<float> data;
};
}  // namespace detail

// A dense, contiguous, row-major float32 tensor backed by a refcounted
// Storage with copy-on-write semantics:
//
//  - Copying a Tensor is O(1): both handles share the Storage.
//  - Reshape is O(1) metadata; Slice along the outermost axis is an O(1)
//    view (an offset into the parent's Storage); other slices materialize.
//  - Any mutable access (non-const data()/operator[]/At, the *InPlace ops,
//    Fill) first detaches this handle onto its own buffer if the Storage is
//    shared, so writes never leak into other handles.
//
// Value semantics are therefore exactly those of the old deep-copy tensor;
// only the cost model changed. The numeric inner loops live in
// math/kernels.h (see DESIGN.md "Storage, COW and kernel dispatch").
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);  // zero-filled
  Tensor(Shape shape, std::vector<float> data);

  static Tensor Zeros(Shape shape);
  static Tensor Ones(Shape shape);
  static Tensor Full(Shape shape, float value);
  static Tensor Scalar(float value);
  static Tensor Randn(Shape shape, Rng& rng, float stddev = 1.0f);
  static Tensor Uniform(Shape shape, Rng& rng, float lo, float hi);
  // 1-D tensor [0, 1, ..., n-1].
  static Tensor Arange(int64_t n);

  const Shape& shape() const { return shape_; }
  int64_t ndim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t dim(int64_t i) const;
  int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }

  // Mutable access detaches from shared Storage first (copy-on-write); take
  // mutable pointers only after all copies of this tensor have been made.
  float* data() {
    EnsureUnique();
    return storage_ ? storage_->data.data() + offset_ : nullptr;
  }
  const float* data() const {
    return storage_ ? storage_->data.data() + offset_ : nullptr;
  }

  float& operator[](int64_t flat_index);
  float operator[](int64_t flat_index) const;
  // Multi-dimensional element access, e.g. t.At({i, j, k}).
  float& At(std::initializer_list<int64_t> idx);
  float At(std::initializer_list<int64_t> idx) const;

  // Value of a single-element tensor.
  float Item() const;

  // O(1) metadata change: the result shares this tensor's Storage.
  Tensor Reshape(Shape new_shape) const;
  // Transpose of a 2-D tensor (materializes).
  Tensor Transpose2D() const;
  // Sub-tensor along `axis`: indices [start, start+len). An O(1) shared
  // view when the sliced region is contiguous (axis 0, or all outer dims
  // are 1); materializes otherwise.
  Tensor Slice(int64_t axis, int64_t start, int64_t len) const;

  // Elementwise arithmetic producing new tensors, for the autodiff
  // backward closures. Shapes must match exactly.
  Tensor Mul(const Tensor& other) const;
  Tensor Div(const Tensor& other) const;
  Tensor MulScalar(float v) const;

  // In-place helpers used by optimizers and gradient accumulation.
  void AddInPlace(const Tensor& other);
  void MulScalarInPlace(float v);
  void Fill(float v);

  // Reductions.
  float Sum() const;
  float Max() const;
  float Min() const;

  // Debug rendering, e.g. "Tensor[2,3]{1, 2, 3, ...}".
  std::string ToString(int64_t max_items = 8) const;

  static int64_t NumelOf(const Shape& shape);

  // True when both handles alias the same Storage (diagnostics/tests; code
  // must never behave differently based on sharing).
  bool SharesStorageWith(const Tensor& other) const {
    return storage_ != nullptr && storage_ == other.storage_;
  }

  // Identity of the backing buffer: the Storage address and this handle's
  // element offset into it. Used as a map key by the plan recorder
  // (math/plan.cc) to connect op outputs to later op inputs; diagnostics
  // only — code must never dereference through the pointer.
  const void* storage_ptr() const { return storage_.get(); }
  int64_t storage_offset() const { return offset_; }

 private:
  Tensor(std::shared_ptr<detail::Storage> storage, int64_t offset,
         Shape shape);

  int64_t FlatIndex(std::initializer_list<int64_t> idx) const;
  // Detaches onto a private exact-size buffer unless this handle is already
  // the sole owner of its Storage.
  void EnsureUnique();

  std::shared_ptr<detail::Storage> storage_;
  int64_t offset_ = 0;
  int64_t numel_ = 0;
  Shape shape_;
};

// True when both shape and every element match exactly.
bool TensorEquals(const Tensor& a, const Tensor& b);
// True when shapes match and elements differ by at most `atol`.
bool TensorAllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f);

}  // namespace cit::math

#endif  // CIT_MATH_TENSOR_H_
