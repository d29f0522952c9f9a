#include "tensor/shape.h"

#include <ostream>
#include <sstream>

#include "util/error.h"

namespace dnnv {

Shape::Shape(std::initializer_list<std::int64_t> dims) : dims_(dims) {
  for (const auto d : dims_) {
    DNNV_CHECK(d >= 0, "negative dimension in shape " << to_string());
  }
}

Shape::Shape(std::vector<std::int64_t> dims) : dims_(std::move(dims)) {
  for (const auto d : dims_) {
    DNNV_CHECK(d >= 0, "negative dimension in shape " << to_string());
  }
}

std::int64_t Shape::operator[](std::size_t axis) const {
  DNNV_CHECK(axis < dims_.size(),
             "axis " << axis << " out of range for shape " << to_string());
  return dims_[axis];
}

std::int64_t Shape::numel() const {
  std::int64_t n = 1;
  for (const auto d : dims_) n *= d;
  return n;
}

std::string Shape::to_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i != 0) os << ", ";
    os << dims_[i];
  }
  os << ']';
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Shape& shape) {
  return os << shape.to_string();
}

std::int64_t conv_out_dim(std::int64_t in, std::int64_t kernel,
                          std::int64_t stride, std::int64_t pad) {
  DNNV_CHECK(stride > 0, "stride must be positive");
  const std::int64_t eff = in + 2 * pad - kernel;
  DNNV_CHECK(eff >= 0, "kernel " << kernel << " larger than padded input "
                                 << in + 2 * pad);
  return eff / stride + 1;
}

}  // namespace dnnv
