#include "nn/normalize.h"

#include <cmath>

#include "nn/workspace.h"
#include "util/error.h"

namespace dnnv::nn {

Normalize::Normalize(float mean, float scale) : mean_(mean), scale_(scale) {
  DNNV_CHECK(scale != 0.0f, "normalize scale must be non-zero");
}

Shape Normalize::output_shape(const Shape& input_shape) const {
  return input_shape;
}

Tensor Normalize::forward(const Tensor& input) {
  Tensor output(input.shape());
  const float inv = 1.0f / scale_;
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    output[i] = (input[i] - mean_) * inv;
  }
  return output;
}

Tensor Normalize::backward(const Tensor& grad_output) {
  Tensor grad_input(grad_output.shape());
  const float inv = 1.0f / scale_;
  for (std::int64_t i = 0; i < grad_output.numel(); ++i) {
    grad_input[i] = grad_output[i] * inv;
  }
  return grad_input;
}

void Normalize::forward_into(std::size_t, const Tensor& input, Tensor& output,
                             Workspace&) {
  const float inv = 1.0f / scale_;
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    output[i] = (input[i] - mean_) * inv;
  }
}

void Normalize::backward_into(std::size_t, const Tensor& grad_output,
                              Tensor& grad_input, Workspace&) {
  const float inv = 1.0f / scale_;
  for (std::int64_t i = 0; i < grad_output.numel(); ++i) {
    grad_input[i] = grad_output[i] * inv;
  }
}

void Normalize::sensitivity_backward_item(std::size_t, std::int64_t,
                                          const Tensor& sens_output,
                                          Tensor& sens_input, Workspace&) {
  // A stateless elementwise scale by |1 / scale|.
  const float inv = std::fabs(1.0f / scale_);
  for (std::int64_t i = 0; i < sens_output.numel(); ++i) {
    sens_input[i] = sens_output[i] * inv;
  }
}

std::unique_ptr<Layer> Normalize::clone() const {
  auto copy = std::make_unique<Normalize>(mean_, scale_);
  copy->set_name(name());
  return copy;
}

void Normalize::save(ByteWriter& writer) const {
  writer.write_string(kind());
  writer.write_f32(mean_);
  writer.write_f32(scale_);
}

std::unique_ptr<Normalize> Normalize::load(ByteReader& reader) {
  const float mean = reader.read_f32();
  const float scale = reader.read_f32();
  return std::make_unique<Normalize>(mean, scale);
}

}  // namespace dnnv::nn
