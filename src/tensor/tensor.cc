#include "tensor/tensor.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <sstream>

#include "tensor/storage_pool.h"

namespace rtgcn {

int64_t ShapeNumel(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    RTGCN_CHECK_GE(d, 0) << "negative dimension in " << ShapeToString(shape);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream oss;
  oss << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) oss << ", ";
    oss << shape[i];
  }
  oss << "]";
  return oss.str();
}

std::vector<int64_t> RowMajorStrides(const Shape& shape) {
  std::vector<int64_t> strides(shape.size());
  int64_t acc = 1;
  for (int64_t i = static_cast<int64_t>(shape.size()) - 1; i >= 0; --i) {
    strides[i] = acc;
    acc *= shape[i];
  }
  return strides;
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  const int64_t n = ShapeNumel(shape_);
  data_ = internal::AcquirePooledStorage(n, /*zero=*/true);
  if (!data_) data_ = std::make_shared<std::vector<float>>(n);
}

Tensor Tensor::Zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::Ones(Shape shape) {
  Tensor t(std::move(shape));
  t.Fill(1.0f);
  return t;
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Scalar(float value) {
  Tensor t{Shape{}};
  *t.data() = value;
  return t;
}

Tensor Tensor::Eye(int64_t n) {
  Tensor t = Zeros({n, n});
  float* p = t.data();
  for (int64_t i = 0; i < n; ++i) p[i * n + i] = 1.0f;
  return t;
}

Tensor Tensor::Arange(int64_t n) {
  Tensor t({n});
  float* p = t.data();
  for (int64_t i = 0; i < n; ++i) p[i] = static_cast<float>(i);
  return t;
}

Tensor Tensor::Clone() const {
  RTGCN_CHECK(defined());
  Tensor out;
  out.shape_ = shape_;
  out.data_ = internal::AcquirePooledStorage(numel(), /*zero=*/false);
  if (out.data_) {
    std::memcpy(out.data(), data(), numel() * sizeof(float));
  } else {
    out.data_ = std::make_shared<std::vector<float>>(*data_);
  }
  return out;
}

Tensor Tensor::Reshape(Shape new_shape) const {
  RTGCN_CHECK(defined());
  int64_t known = 1;
  int64_t infer_axis = -1;
  for (size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      RTGCN_CHECK_EQ(infer_axis, -1) << "multiple -1 dims in reshape";
      infer_axis = static_cast<int64_t>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (infer_axis >= 0) {
    RTGCN_CHECK(known > 0 && numel() % known == 0)
        << "cannot infer reshape " << ShapeToString(new_shape) << " from "
        << ShapeToString(shape_);
    new_shape[infer_axis] = numel() / known;
  }
  RTGCN_CHECK_EQ(ShapeNumel(new_shape), numel())
      << "reshape " << ShapeToString(shape_) << " -> "
      << ShapeToString(new_shape);
  Tensor out;
  out.shape_ = std::move(new_shape);
  out.data_ = data_;
  return out;
}

void Tensor::Fill(float value) {
  RTGCN_CHECK(defined());
  std::fill(data_->begin(), data_->end(), value);
}

int64_t Tensor::FlatIndex(std::initializer_list<int64_t> idx) const {
  RTGCN_DCHECK(static_cast<int64_t>(idx.size()) == ndim())
      << "index rank " << idx.size() << " vs tensor rank " << ndim();
  int64_t flat = 0;
  int64_t axis = 0;
  for (int64_t i : idx) {
    RTGCN_DCHECK(i >= 0 && i < shape_[axis])
        << "index " << i << " out of bounds for axis " << axis << " with size "
        << shape_[axis];
    flat = flat * shape_[axis] + i;
    ++axis;
  }
  return flat;
}

std::string Tensor::ToString(int64_t max_elems) const {
  if (!defined()) return "Tensor(undefined)";
  std::ostringstream oss;
  oss << "Tensor" << ShapeToString(shape_) << " {";
  const int64_t n = std::min<int64_t>(numel(), max_elems);
  for (int64_t i = 0; i < n; ++i) {
    if (i) oss << ", ";
    oss << (*data_)[i];
  }
  if (numel() > n) oss << ", ...";
  oss << "}";
  return oss.str();
}

}  // namespace rtgcn
