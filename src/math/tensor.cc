#include "math/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/check.h"
#include "math/kernels.h"

namespace cit::math {

int64_t Tensor::NumelOf(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    CIT_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)) {
  numel_ = NumelOf(shape_);
  storage_ = std::make_shared<detail::Storage>(numel_);
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)) {
  numel_ = NumelOf(shape_);
  CIT_CHECK_EQ(numel_, static_cast<int64_t>(data.size()));
  storage_ = std::make_shared<detail::Storage>(std::move(data));
}

Tensor::Tensor(std::shared_ptr<detail::Storage> storage, int64_t offset,
               Shape shape)
    : storage_(std::move(storage)), offset_(offset), shape_(std::move(shape)) {
  numel_ = NumelOf(shape_);
  CIT_CHECK_LE(offset_ + numel_,
               static_cast<int64_t>(storage_->data.size()));
}

void Tensor::EnsureUnique() {
  if (!storage_) return;
  // Sole owner: in-place writes cannot be observed elsewhere, even for a
  // view into a larger buffer (the parent handle is gone).
  if (storage_.use_count() == 1) return;
  auto fresh = std::make_shared<detail::Storage>(numel_);
  kernels::Copy(storage_->data.data() + offset_, fresh->data.data(), numel_);
  storage_ = std::move(fresh);
  offset_ = 0;
}

Tensor Tensor::Zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::Ones(Shape shape) { return Full(std::move(shape), 1.0f); }

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Scalar(float value) {
  Tensor t(Shape{1});
  t.data()[0] = value;
  return t;
}

Tensor Tensor::Randn(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel_; ++i) {
    p[i] = static_cast<float>(rng.Normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::Uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel_; ++i) {
    p[i] = static_cast<float>(rng.Uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::Arange(int64_t n) {
  Tensor t(Shape{n});
  float* p = t.data();
  for (int64_t i = 0; i < n; ++i) p[i] = static_cast<float>(i);
  return t;
}

int64_t Tensor::dim(int64_t i) const {
  if (i < 0) i += ndim();
  CIT_CHECK(i >= 0 && i < ndim());
  return shape_[i];
}

float& Tensor::operator[](int64_t flat_index) {
  CIT_CHECK(flat_index >= 0 && flat_index < numel_);
  return data()[flat_index];
}

float Tensor::operator[](int64_t flat_index) const {
  CIT_CHECK(flat_index >= 0 && flat_index < numel_);
  return data()[flat_index];
}

int64_t Tensor::FlatIndex(std::initializer_list<int64_t> idx) const {
  CIT_CHECK_EQ(static_cast<int64_t>(idx.size()), ndim());
  int64_t flat = 0;
  int64_t axis = 0;
  for (int64_t i : idx) {
    CIT_CHECK(i >= 0 && i < shape_[axis]);
    flat = flat * shape_[axis] + i;
    ++axis;
  }
  return flat;
}

float& Tensor::At(std::initializer_list<int64_t> idx) {
  return data()[FlatIndex(idx)];
}

float Tensor::At(std::initializer_list<int64_t> idx) const {
  return data()[FlatIndex(idx)];
}

float Tensor::Item() const {
  CIT_CHECK_EQ(numel_, 1);
  return data()[0];
}

Tensor Tensor::Reshape(Shape new_shape) const {
  CIT_CHECK_EQ(NumelOf(new_shape), numel_);
  return Tensor(storage_, offset_, std::move(new_shape));
}

Tensor Tensor::Transpose2D() const {
  CIT_CHECK_EQ(ndim(), 2);
  Tensor out(Shape{shape_[1], shape_[0]});
  kernels::Transpose(data(), out.data(), shape_[0], shape_[1]);
  return out;
}

Tensor Tensor::Slice(int64_t axis, int64_t start, int64_t len) const {
  if (axis < 0) axis += ndim();
  CIT_CHECK(axis >= 0 && axis < ndim());
  CIT_CHECK(start >= 0 && len >= 0 && start + len <= shape_[axis]);
  Shape out_shape = shape_;
  out_shape[axis] = len;
  // The tensor decomposes as [outer, shape[axis], inner].
  int64_t outer = 1;
  for (int64_t i = 0; i < axis; ++i) outer *= shape_[i];
  int64_t inner = 1;
  for (int64_t i = axis + 1; i < ndim(); ++i) inner *= shape_[i];
  if (outer == 1) {
    // Contiguous region: O(1) shared view.
    return Tensor(storage_, offset_ + start * inner, std::move(out_shape));
  }
  Tensor out(out_shape);
  const int64_t in_step = shape_[axis] * inner;
  const int64_t out_step = len * inner;
  const float* base = data();
  float* dst_base = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    kernels::Copy(base + o * in_step + start * inner, dst_base + o * out_step,
                  len * inner);
  }
  return out;
}

namespace {

void CheckSameShape(const Tensor& a, const Tensor& b) {
  CIT_CHECK_MSG(a.shape() == b.shape(), "tensor shape mismatch");
}

}  // namespace

Tensor Tensor::Mul(const Tensor& other) const {
  CheckSameShape(*this, other);
  Tensor out(shape_);
  kernels::Mul(data(), other.data(), out.data(), numel_);
  return out;
}

Tensor Tensor::Div(const Tensor& other) const {
  CheckSameShape(*this, other);
  Tensor out(shape_);
  kernels::Div(data(), other.data(), out.data(), numel_);
  return out;
}

Tensor Tensor::MulScalar(float v) const {
  Tensor out(shape_);
  kernels::MulScalar(data(), v, out.data(), numel_);
  return out;
}

void Tensor::AddInPlace(const Tensor& other) {
  CheckSameShape(*this, other);
  kernels::AddInto(data(), other.data(), numel_);
}

void Tensor::MulScalarInPlace(float v) {
  kernels::ScaleInto(data(), v, numel_);
}

void Tensor::Fill(float v) {
  if (storage_ && storage_.use_count() > 1) {
    // Every element is overwritten: detach without copying the old values.
    storage_ = std::make_shared<detail::Storage>(numel_);
    offset_ = 0;
  }
  if (storage_) kernels::Fill(data(), v, numel_);
}

float Tensor::Sum() const {
  return static_cast<float>(kernels::Sum(data(), numel_));
}

float Tensor::Max() const {
  CIT_CHECK_GT(numel_, 0);
  const float* p = data();
  return *std::max_element(p, p + numel_);
}

float Tensor::Min() const {
  CIT_CHECK_GT(numel_, 0);
  const float* p = data();
  return *std::min_element(p, p + numel_);
}

std::string Tensor::ToString(int64_t max_items) const {
  std::ostringstream os;
  os << "Tensor[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ",";
    os << shape_[i];
  }
  os << "]{";
  const int64_t n = std::min<int64_t>(numel_, max_items);
  const float* p = data();
  for (int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << p[i];
  }
  if (numel_ > n) os << ", ...";
  os << "}";
  return os.str();
}

bool TensorEquals(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (pa[i] != pb[i]) return false;
  }
  return true;
}

bool TensorAllClose(const Tensor& a, const Tensor& b, float atol) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (std::fabs(pa[i] - pb[i]) > atol) return false;
  }
  return true;
}

}  // namespace cit::math
