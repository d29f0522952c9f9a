#include "nn/maxpool2d.h"

#include "nn/workspace.h"
#include "tensor/shape.h"
#include "util/error.h"

namespace dnnv::nn {

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride) {
  DNNV_CHECK(kernel > 0 && stride > 0, "bad pooling geometry");
}

Shape MaxPool2d::output_shape(const Shape& input_shape) const {
  DNNV_CHECK(input_shape.ndim() == 4, "maxpool expects NCHW, got " << input_shape);
  const std::int64_t out_h = conv_out_dim(input_shape[2], kernel_, stride_, 0);
  const std::int64_t out_w = conv_out_dim(input_shape[3], kernel_, stride_, 0);
  return Shape{input_shape[0], input_shape[1], out_h, out_w};
}

Tensor MaxPool2d::forward(const Tensor& input) {
  Tensor output(output_shape(input.shape()));
  fill_forward(input, output);
  return output;
}

void MaxPool2d::forward_into(std::size_t, const Tensor& input, Tensor& output,
                             Workspace&) {
  fill_forward(input, output);
}

namespace {

// Every window lies inside its plane (no padding). Each output visits its
// taps in (ky, kx) order, and a tap replaces the running maximum only when
// strictly greater, so ties keep the first maximum, a NaN never wins against
// a number and a NaN first tap is never replaced. The value select is the
// target's max instruction and the index select a bit mask, so no tap
// branches. `window` is the row's first window corner, the flat input index
// `top`; kKernel and kStride are the geometry when known at compile time (the
// zoo's 2x2 stride-2 pools, whose taps then unroll), 0 otherwise.
template <std::int64_t kKernel, std::int64_t kStride>
void pool_row(const float* window, std::int64_t top, std::int64_t w,
              std::int64_t kernel, std::int64_t stride, std::int64_t out_w,
              float* __restrict best, std::int64_t* __restrict arg) {
  const std::int64_t k = kKernel != 0 ? kKernel : kernel;
  const std::int64_t s = kStride != 0 ? kStride : stride;
  for (std::int64_t ox = 0; ox < out_w; ++ox) {
    const float* corner = window + ox * s;
    float b = corner[0];
    std::int64_t a = 0;
    for (std::int64_t ky = 0; ky < k; ++ky) {
      for (std::int64_t kx = 0; kx < k; ++kx) {
        const float v = corner[ky * w + kx];
        const std::int64_t wins = -static_cast<std::int64_t>(v > b);
        b = v > b ? v : b;
        a ^= (a ^ (ky * w + kx)) & wins;
      }
    }
    best[ox] = b;
    arg[ox] = top + ox * s + a;
  }
}

}  // namespace

void MaxPool2d::fill_forward(const Tensor& input, Tensor& output) {
  const Shape out_shape = output_shape(input.shape());
  cached_input_shape_ = input.shape();
  const std::int64_t planes = input.shape()[0] * input.shape()[1];
  const std::int64_t h = input.shape()[2];
  const std::int64_t w = input.shape()[3];
  const std::int64_t out_h = out_shape[2];
  const std::int64_t out_w = out_shape[3];
  const auto row_of = kernel_ == 2 && stride_ == 2 ? pool_row<2, 2>
                                                   : pool_row<0, 0>;

  argmax_.resize(static_cast<std::size_t>(output.numel()));
  for (std::int64_t p = 0; p < planes; ++p) {
    for (std::int64_t oy = 0; oy < out_h; ++oy) {
      const std::int64_t top = (p * h + oy * stride_) * w;
      const std::int64_t row = (p * out_h + oy) * out_w;
      row_of(input.data() + top, top, w, kernel_, stride_, out_w,
             output.data() + row, argmax_.data() + row);
    }
  }
}

void MaxPool2d::route_back_into(const Tensor& upstream,
                                Tensor& downstream) const {
  DNNV_CHECK(static_cast<std::size_t>(upstream.numel()) == argmax_.size(),
             "pool upstream size mismatch — forward not called?");
  const std::int64_t* arg = argmax_.data();
  const float* up = upstream.data();
  float* down = downstream.data();
  for (std::int64_t i = 0; i < upstream.numel(); ++i) down[arg[i]] += up[i];
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  Tensor grad_input(cached_input_shape_);
  route_back_into(grad_output, grad_input);
  return grad_input;
}

void MaxPool2d::backward_into(std::size_t, const Tensor& grad_output,
                              Tensor& grad_input, Workspace&) {
  grad_input.fill(0.0f);  // scatter target
  route_back_into(grad_output, grad_input);
}

void MaxPool2d::sensitivity_backward_item(std::size_t, std::int64_t item,
                                          const Tensor& sens_output,
                                          Tensor& sens_input, Workspace&) {
  const std::int64_t n = cached_input_shape_[0];
  DNNV_CHECK(item >= 0 && item < n, "item " << item << " outside cached batch");
  const std::int64_t out_item =
      static_cast<std::int64_t>(argmax_.size()) / n;
  const std::int64_t in_item = cached_input_shape_.numel() / n;
  DNNV_CHECK(sens_output.numel() == out_item,
             "per-item pool sensitivity size mismatch");
  // Max pooling is a selection: only the winning tap influences the output,
  // so sensitivity routes exactly like the gradient. argmax_ holds
  // batch-absolute input indices; rebase onto this item.
  const std::int64_t* arg = argmax_.data() + item * out_item;
  const std::int64_t base = item * in_item;
  const float* up = sens_output.data();
  float* down = sens_input.data();
  sens_input.fill(0.0f);
  for (std::int64_t i = 0; i < out_item; ++i) down[arg[i] - base] += up[i];
}

std::unique_ptr<Layer> MaxPool2d::clone() const {
  auto copy = std::make_unique<MaxPool2d>(kernel_, stride_);
  copy->set_name(name());
  return copy;
}

void MaxPool2d::save(ByteWriter& writer) const {
  writer.write_string(kind());
  writer.write_i64(kernel_);
  writer.write_i64(stride_);
}

std::unique_ptr<MaxPool2d> MaxPool2d::load(ByteReader& reader) {
  const std::int64_t kernel = reader.read_i64();
  const std::int64_t stride = reader.read_i64();
  return std::make_unique<MaxPool2d>(kernel, stride);
}

}  // namespace dnnv::nn
