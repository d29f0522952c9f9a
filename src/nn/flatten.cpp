#include "nn/flatten.h"

#include <algorithm>

#include "nn/workspace.h"
#include "util/error.h"

namespace dnnv::nn {

Shape Flatten::output_shape(const Shape& input_shape) const {
  DNNV_CHECK(input_shape.ndim() >= 2, "flatten expects a batched tensor");
  std::int64_t features = 1;
  for (std::size_t axis = 1; axis < input_shape.ndim(); ++axis) {
    features *= input_shape[axis];
  }
  return Shape{input_shape[0], features};
}

Tensor Flatten::forward(const Tensor& input) {
  cached_input_shape_ = input.shape();
  return input.reshaped(output_shape(input.shape()));
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(cached_input_shape_);
}

namespace {
// A reshape between workspace buffers is a straight element copy.
void copy_elements(const Tensor& src, Tensor& dst) {
  DNNV_CHECK(src.numel() == dst.numel(), "flatten element count mismatch");
  std::copy(src.data(), src.data() + src.numel(), dst.data());
}
}  // namespace

void Flatten::forward_into(std::size_t, const Tensor& input, Tensor& output,
                           Workspace&) {
  cached_input_shape_ = input.shape();
  copy_elements(input, output);
}

void Flatten::backward_into(std::size_t, const Tensor& grad_output,
                            Tensor& grad_input, Workspace&) {
  copy_elements(grad_output, grad_input);
}

void Flatten::sensitivity_backward_item(std::size_t, std::int64_t,
                                        const Tensor& sens_output,
                                        Tensor& sens_input, Workspace&) {
  // Per-item slices reshape exactly like the whole batch.
  copy_elements(sens_output, sens_input);
}

std::unique_ptr<Layer> Flatten::clone() const {
  auto copy = std::make_unique<Flatten>();
  copy->set_name(name());
  return copy;
}

void Flatten::save(ByteWriter& writer) const { writer.write_string(kind()); }

std::unique_ptr<Flatten> Flatten::load(ByteReader&) {
  return std::make_unique<Flatten>();
}

}  // namespace dnnv::nn
