// Tensor shapes (dimension vectors) with row-major element counting.
#ifndef DNNV_TENSOR_SHAPE_H_
#define DNNV_TENSOR_SHAPE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace dnnv {

/// Immutable-by-convention dimension list. Convention across the library:
///  - images / feature maps are NCHW: {batch, channels, height, width}
///  - dense activations are {batch, features}
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims);
  explicit Shape(std::vector<std::int64_t> dims);

  std::size_t ndim() const { return dims_.size(); }
  std::int64_t operator[](std::size_t axis) const;

  /// Total number of elements (1 for a rank-0 shape).
  std::int64_t numel() const;

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  const std::vector<std::int64_t>& dims() const { return dims_; }

  /// "[2, 3, 28, 28]"
  std::string to_string() const;

 private:
  std::vector<std::int64_t> dims_;
};

std::ostream& operator<<(std::ostream& os, const Shape& shape);

/// Output spatial size of a convolution/pooling window sweep.
std::int64_t conv_out_dim(std::int64_t in, std::int64_t kernel,
                          std::int64_t stride, std::int64_t pad);

}  // namespace dnnv

#endif  // DNNV_TENSOR_SHAPE_H_
