#include "nn/conv2d.h"

#include <cmath>
#include <cstring>

#include "nn/workspace.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "util/error.h"

namespace dnnv::nn {

Conv2d::Conv2d(const Config& config, Rng& rng, InitKind init)
    : config_(config),
      weights_(Shape{config.out_channels, col_rows()}),
      bias_(Shape{config.out_channels}),
      weight_grad_(Shape{config.out_channels, col_rows()}),
      bias_grad_(Shape{config.out_channels}) {
  DNNV_CHECK(config.in_channels > 0 && config.out_channels > 0,
             "conv channels must be positive");
  DNNV_CHECK(config.kernel > 0 && config.stride > 0 && config.pad >= 0,
             "bad conv geometry");
  const std::int64_t fan_in = col_rows();
  const std::int64_t fan_out =
      config.out_channels * config.kernel * config.kernel;
  initialize_weights(weights_, init, fan_in, fan_out, rng);
}

void Conv2d::check_input(const Shape& input_shape) const {
  DNNV_CHECK(input_shape.ndim() == 4 && input_shape[1] == config_.in_channels,
             "conv expects [N, " << config_.in_channels << ", H, W], got "
                                 << input_shape);
}

Shape Conv2d::output_shape(const Shape& input_shape) const {
  check_input(input_shape);
  const std::int64_t out_h =
      conv_out_dim(input_shape[2], config_.kernel, config_.stride, config_.pad);
  const std::int64_t out_w =
      conv_out_dim(input_shape[3], config_.kernel, config_.stride, config_.pad);
  return Shape{input_shape[0], config_.out_channels, out_h, out_w};
}

Tensor Conv2d::forward(const Tensor& input) {
  Tensor output(output_shape(input.shape()));
  forward_into(0, input, output, scratch_ws_);
  return output;
}

void Conv2d::forward_into(std::size_t, const Tensor& input, Tensor& output,
                          Workspace&) {
  const Shape out_shape = output_shape(input.shape());
  const std::int64_t n = input.shape()[0];
  const std::int64_t h = input.shape()[2];
  const std::int64_t w = input.shape()[3];
  cached_out_h_ = out_shape[2];
  cached_out_w_ = out_shape[3];
  const std::int64_t out_plane = cached_out_h_ * cached_out_w_;

  cached_input_shape_ = input.shape();
  // resize() (not reconstruction) so the im2col cache storage is reused
  // across calls of the same batch shape.
  cached_cols_.resize(Shape{n, col_rows(), out_plane});

  const std::int64_t in_stride = config_.in_channels * h * w;
  const std::int64_t col_stride = col_rows() * out_plane;
  const std::int64_t out_stride = config_.out_channels * out_plane;
  for (std::int64_t i = 0; i < n; ++i) {
    float* cols = cached_cols_.data() + i * col_stride;
    im2col(input.data() + i * in_stride, config_.in_channels, h, w,
           config_.kernel, config_.kernel, config_.stride, config_.pad, cols);
    // out[out_c, P] = W[out_c, ick] * col[ick, P]
    float* out = output.data() + i * out_stride;
    gemm(false, false, config_.out_channels, out_plane, col_rows(), 1.0f,
         weights_.data(), cols, 0.0f, out);
    for (std::int64_t oc = 0; oc < config_.out_channels; ++oc) {
      float* plane = out + oc * out_plane;
      const float b = bias_[oc];
      for (std::int64_t p = 0; p < out_plane; ++p) plane[p] += b;
    }
  }
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const std::int64_t n = cached_input_shape_[0];
  const std::int64_t out_plane = cached_out_h_ * cached_out_w_;
  DNNV_CHECK(grad_output.shape() ==
                 Shape({n, config_.out_channels, cached_out_h_, cached_out_w_}),
             "grad_output shape " << grad_output.shape() << " unexpected");
  const std::int64_t col_stride = col_rows() * out_plane;
  const std::int64_t out_stride = config_.out_channels * out_plane;
  for (std::int64_t i = 0; i < n; ++i) {
    const float* dy = grad_output.data() + i * out_stride;
    const float* cols = cached_cols_.data() + i * col_stride;
    // dW[out_c, ick] += dy[out_c, P] * col^T[P, ick]
    gemm(false, true, config_.out_channels, col_rows(), out_plane, 1.0f, dy,
         cols, 1.0f, weight_grad_.data());
    for (std::int64_t oc = 0; oc < config_.out_channels; ++oc) {
      const float* plane = dy + oc * out_plane;
      float acc = 0.0f;
      for (std::int64_t p = 0; p < out_plane; ++p) acc += plane[p];
      bias_grad_[oc] += acc;
    }
  }
  Tensor grad_input(cached_input_shape_);
  backward_into(0, grad_output, grad_input, scratch_ws_);
  return grad_input;
}

void Conv2d::backward_into(std::size_t index, const Tensor& grad_output,
                           Tensor& grad_input, Workspace& ws) {
  const std::int64_t n = cached_input_shape_[0];
  const std::int64_t h = cached_input_shape_[2];
  const std::int64_t w = cached_input_shape_[3];
  const std::int64_t out_plane = cached_out_h_ * cached_out_w_;
  DNNV_CHECK(grad_output.shape() ==
                 Shape({n, config_.out_channels, cached_out_h_, cached_out_w_}),
             "grad_output shape " << grad_output.shape() << " unexpected");

  grad_input.fill(0.0f);  // col2im accumulates
  Tensor& col_grad =
      ws.buffer(index, kSlotScratch0, Shape{col_rows(), out_plane});
  const std::int64_t in_stride = config_.in_channels * h * w;
  const std::int64_t out_stride = config_.out_channels * out_plane;

  for (std::int64_t i = 0; i < n; ++i) {
    const float* dy = grad_output.data() + i * out_stride;
    // dcol[ick, P] = W^T[ick, out_c] * dy[out_c, P]
    gemm(true, false, col_rows(), out_plane, config_.out_channels, 1.0f,
         weights_.data(), dy, 0.0f, col_grad.data());
    col2im(col_grad.data(), config_.in_channels, h, w, config_.kernel,
           config_.kernel, config_.stride, config_.pad,
           grad_input.data() + i * in_stride);
  }
}

Tensor Conv2d::sensitivity_backward(const Tensor& sens_output) {
  Tensor sens_input(cached_input_shape_);
  sensitivity_backward_into(0, sens_output, sens_input, scratch_ws_);
  return sens_input;
}

void Conv2d::sensitivity_backward_into(std::size_t index,
                                       const Tensor& sens_output,
                                       Tensor& sens_input, Workspace& ws) {
  const std::int64_t n = cached_input_shape_[0];
  DNNV_CHECK(sens_output.shape() ==
                 Shape({n, config_.out_channels, cached_out_h_, cached_out_w_}),
             "sens_output shape " << sens_output.shape() << " unexpected");
  sens_input.fill(0.0f);  // col2im accumulates
  const std::int64_t out_plane = cached_out_h_ * cached_out_w_;
  const std::int64_t in_stride =
      config_.in_channels * cached_input_shape_[2] * cached_input_shape_[3];
  const std::int64_t out_stride = config_.out_channels * out_plane;
  for (std::int64_t i = 0; i < n; ++i) {
    sensitivity_item(index, i, sens_output.data() + i * out_stride,
                     sens_input.data() + i * in_stride, ws);
  }
}

void Conv2d::sensitivity_backward_item(std::size_t index, std::int64_t item,
                                       const Tensor& sens_output,
                                       Tensor& sens_input, Workspace& ws) {
  DNNV_CHECK(item >= 0 && item < cached_input_shape_[0],
             "item " << item << " outside cached batch");
  DNNV_CHECK(sens_output.shape() ==
                 Shape({1, config_.out_channels, cached_out_h_, cached_out_w_}),
             "per-item sens_output shape " << sens_output.shape()
                                           << " unexpected");
  sens_input.fill(0.0f);  // col2im accumulates
  sensitivity_item(index, item, sens_output.data(), sens_input.data(), ws);
}

// One item of the absolute-sensitivity pass, shared by the batched and
// per-item entry points so their accumulation order is identical. `s_out` and
// `sens_image` point at this item's [out_c, outH, outW] sensitivity slice and
// [C, H, W] output slice respectively; the im2col cache of the most recent
// batched forward supplies |x| taps. The |W| / |col| factors are applied by
// gemm_abs during panel packing — no absolute-value copies are materialised.
// Shared kernel weights receive the sum over all spatial taps of
// |input tap| * sensitivity, which is zero iff no tap can propagate.
void Conv2d::sensitivity_item(std::size_t index, std::int64_t item,
                              const float* s_out, float* sens_image,
                              Workspace& ws) {
  const std::int64_t h = cached_input_shape_[2];
  const std::int64_t w = cached_input_shape_[3];
  const std::int64_t out_plane = cached_out_h_ * cached_out_w_;
  const std::int64_t col_stride = col_rows() * out_plane;

  Tensor& col_sens =
      ws.buffer(index, kSlotScratch2, Shape{col_rows(), out_plane});

  const float* cols = cached_cols_.data() + item * col_stride;
  gemm_abs(false, true, /*abs_a=*/false, /*abs_b=*/true, config_.out_channels,
           col_rows(), out_plane, 1.0f, s_out, cols, 1.0f,
           weight_grad_.data());
  for (std::int64_t oc = 0; oc < config_.out_channels; ++oc) {
    const float* plane = s_out + oc * out_plane;
    float acc = 0.0f;
    for (std::int64_t p = 0; p < out_plane; ++p) acc += plane[p];
    bias_grad_[oc] += acc;
  }
  gemm_abs(true, false, /*abs_a=*/true, /*abs_b=*/false, col_rows(), out_plane,
           config_.out_channels, 1.0f, weights_.data(), s_out, 0.0f,
           col_sens.data());
  col2im(col_sens.data(), config_.in_channels, h, w, config_.kernel,
         config_.kernel, config_.stride, config_.pad, sens_image);
}

std::vector<ParamView> Conv2d::param_views() {
  return {
      {name() + ".weight", weights_.data(), weight_grad_.data(),
       weights_.numel(), /*is_bias=*/false},
      {name() + ".bias", bias_.data(), bias_grad_.data(), bias_.numel(),
       /*is_bias=*/true},
  };
}

std::unique_ptr<Layer> Conv2d::clone() const {
  auto copy = std::unique_ptr<Conv2d>(new Conv2d());
  copy->config_ = config_;
  copy->weights_ = weights_;
  copy->bias_ = bias_;
  copy->weight_grad_ = Tensor(weight_grad_.shape());
  copy->bias_grad_ = Tensor(bias_grad_.shape());
  copy->set_name(name());
  return copy;
}

void Conv2d::save(ByteWriter& writer) const {
  writer.write_string(kind());
  writer.write_i64(config_.in_channels);
  writer.write_i64(config_.out_channels);
  writer.write_i64(config_.kernel);
  writer.write_i64(config_.stride);
  writer.write_i64(config_.pad);
  writer.write_f32_array(weights_.data(), static_cast<std::size_t>(weights_.numel()));
  writer.write_f32_array(bias_.data(), static_cast<std::size_t>(bias_.numel()));
}

std::unique_ptr<Conv2d> Conv2d::load(ByteReader& reader) {
  auto layer = std::unique_ptr<Conv2d>(new Conv2d());
  layer->config_.in_channels = reader.read_i64();
  layer->config_.out_channels = reader.read_i64();
  layer->config_.kernel = reader.read_i64();
  layer->config_.stride = reader.read_i64();
  layer->config_.pad = reader.read_i64();
  DNNV_CHECK(layer->config_.in_channels > 0 && layer->config_.out_channels > 0 &&
                 layer->config_.kernel > 0 && layer->config_.stride > 0 &&
                 layer->config_.pad >= 0,
             "corrupt conv config");
  const std::int64_t rows = layer->col_rows();
  const auto w = reader.read_f32_array(
      static_cast<std::size_t>(layer->config_.out_channels * rows));
  layer->weights_ = Tensor(Shape{layer->config_.out_channels, rows}, w);
  const auto b = reader.read_f32_array(
      static_cast<std::size_t>(layer->config_.out_channels));
  layer->bias_ = Tensor(Shape{layer->config_.out_channels}, b);
  layer->weight_grad_ = Tensor(layer->weights_.shape());
  layer->bias_grad_ = Tensor(layer->bias_.shape());
  return layer;
}

}  // namespace dnnv::nn
