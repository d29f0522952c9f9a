#include "nn/dense.h"

#include <cmath>

#include "nn/workspace.h"
#include "tensor/gemm.h"
#include "util/error.h"

namespace dnnv::nn {

Dense::Dense(std::int64_t in_features, std::int64_t out_features, Rng& rng,
             InitKind init)
    : in_features_(in_features),
      out_features_(out_features),
      weights_(Shape{out_features, in_features}),
      bias_(Shape{out_features}),
      weight_grad_(Shape{out_features, in_features}),
      bias_grad_(Shape{out_features}) {
  DNNV_CHECK(in_features > 0 && out_features > 0,
             "dense dims must be positive, got " << in_features << " -> "
                                                 << out_features);
  initialize_weights(weights_, init, in_features, out_features, rng);
}

Shape Dense::output_shape(const Shape& input_shape) const {
  DNNV_CHECK(input_shape.ndim() == 2 && input_shape[1] == in_features_,
             "dense expects [N, " << in_features_ << "], got " << input_shape);
  return Shape{input_shape[0], out_features_};
}

Tensor Dense::forward(const Tensor& input) {
  Tensor output(output_shape(input.shape()));
  Workspace scratch;
  forward_into(0, input, output, scratch);
  return output;
}

void Dense::forward_into(std::size_t, const Tensor& input, Tensor& output,
                         Workspace&) {
  const std::int64_t n = input.shape()[0];
  DNNV_CHECK(input.shape().ndim() == 2 && input.shape()[1] == in_features_,
             "dense expects [N, " << in_features_ << "], got " << input.shape());
  cached_input_ = input;
  // y[N,out] = x[N,in] * W^T  (W stored [out,in] -> trans_b)
  gemm(false, true, n, out_features_, in_features_, 1.0f, input.data(),
       weights_.data(), 0.0f, output.data());
  for (std::int64_t i = 0; i < n; ++i) {
    float* row = output.data() + i * out_features_;
    for (std::int64_t j = 0; j < out_features_; ++j) row[j] += bias_[j];
  }
}

Tensor Dense::backward(const Tensor& grad_output) {
  const std::int64_t n = cached_input_.shape()[0];
  DNNV_CHECK(grad_output.shape() == Shape({n, out_features_}),
             "grad_output shape " << grad_output.shape() << " unexpected");
  // dW[out,in] += dy^T[out,N] * x[N,in]
  gemm(true, false, out_features_, in_features_, n, 1.0f, grad_output.data(),
       cached_input_.data(), 1.0f, weight_grad_.data());
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = grad_output.data() + i * out_features_;
    for (std::int64_t j = 0; j < out_features_; ++j) bias_grad_[j] += row[j];
  }
  Tensor grad_input(cached_input_.shape());
  Workspace scratch;
  backward_into(0, grad_output, grad_input, scratch);
  return grad_input;
}

void Dense::backward_into(std::size_t, const Tensor& grad_output,
                          Tensor& grad_input, Workspace&) {
  const std::int64_t n = cached_input_.shape()[0];
  DNNV_CHECK(grad_output.shape() == Shape({n, out_features_}),
             "grad_output shape " << grad_output.shape() << " unexpected");
  // dx[N,in] = dy[N,out] * W[out,in]
  gemm(false, false, n, in_features_, out_features_, 1.0f, grad_output.data(),
       weights_.data(), 0.0f, grad_input.data());
}

Tensor Dense::sensitivity_backward(const Tensor& sens_output) {
  Tensor sens_input(cached_input_.shape());
  Workspace scratch;
  sensitivity_backward_into(0, sens_output, sens_input, scratch);
  return sens_input;
}

void Dense::sensitivity_backward_into(std::size_t, const Tensor& sens_output,
                                      Tensor& sens_input, Workspace&) {
  const std::int64_t n = cached_input_.shape()[0];
  DNNV_CHECK(sens_output.shape() == Shape({n, out_features_}),
             "sens_output shape " << sens_output.shape() << " unexpected");
  sens_input.fill(0.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    sensitivity_item(i, sens_output.data() + i * out_features_,
                     sens_input.data() + i * in_features_);
  }
}

void Dense::check_item(std::int64_t item, const Tensor& sens_output) const {
  DNNV_CHECK(item >= 0 && item < cached_input_.shape()[0],
             "item " << item << " outside cached batch");
  DNNV_CHECK(sens_output.shape() == Shape({1, out_features_}),
             "per-item sens_output shape " << sens_output.shape()
                                           << " unexpected");
}

void Dense::sensitivity_backward_item(std::size_t, std::int64_t item,
                                      const Tensor& sens_output,
                                      Tensor& sens_input, Workspace&) {
  check_item(item, sens_output);
  sens_input.fill(0.0f);
  sensitivity_item(item, sens_output.data(), sens_input.data());
}

void Dense::parameter_sensitivity_item(std::size_t, std::int64_t item,
                                       const Tensor& sens_output, Workspace&) {
  check_item(item, sens_output);
  sensitivity_item(item, sens_output.data(), nullptr);
}

// Shared per-item kernel: the batched pass and the per-item pass run the
// exact same arithmetic, which is what keeps activation_masks_batched
// bit-identical to the per-item path.
void Dense::sensitivity_item(std::int64_t item, const float* s_row,
                             float* out_row) {
  // Same dataflow as backward, with |x| and |W|. A weight w_ji can propagate a
  // perturbation iff its input x_i is non-zero AND the output j is sensitive;
  // summing |s_j|·|x_i| (instead of the signed product) cannot cancel, so a
  // zero sensitivity means "no propagation path" exactly.
  const float* x_row = cached_input_.data() + item * in_features_;
  for (std::int64_t j = 0; j < out_features_; ++j) {
    const float s = s_row[j];
    if (s == 0.0f) continue;
    float* wg_row = weight_grad_.data() + j * in_features_;
    for (std::int64_t k = 0; k < in_features_; ++k) {
      wg_row[k] += s * std::fabs(x_row[k]);
    }
    bias_grad_[j] += s;
    if (out_row == nullptr) continue;
    // Input sensitivity: ŝ_i = Σ_j |W_ji| s_j.
    const float* w_row = weights_.data() + j * in_features_;
    for (std::int64_t k = 0; k < in_features_; ++k) {
      out_row[k] += s * std::fabs(w_row[k]);
    }
  }
}

std::vector<ParamView> Dense::param_views() {
  return {
      {name() + ".weight", weights_.data(), weight_grad_.data(),
       weights_.numel(), /*is_bias=*/false},
      {name() + ".bias", bias_.data(), bias_grad_.data(), bias_.numel(),
       /*is_bias=*/true},
  };
}

std::unique_ptr<Layer> Dense::clone() const {
  auto copy = std::unique_ptr<Dense>(new Dense());
  copy->in_features_ = in_features_;
  copy->out_features_ = out_features_;
  copy->weights_ = weights_;
  copy->bias_ = bias_;
  copy->weight_grad_ = Tensor(Shape{out_features_, in_features_});
  copy->bias_grad_ = Tensor(Shape{out_features_});
  copy->set_name(name());
  return copy;
}

void Dense::save(ByteWriter& writer) const {
  writer.write_string(kind());
  writer.write_i64(in_features_);
  writer.write_i64(out_features_);
  writer.write_f32_array(weights_.data(), static_cast<std::size_t>(weights_.numel()));
  writer.write_f32_array(bias_.data(), static_cast<std::size_t>(bias_.numel()));
}

std::unique_ptr<Dense> Dense::load(ByteReader& reader) {
  auto layer = std::unique_ptr<Dense>(new Dense());
  layer->in_features_ = reader.read_i64();
  layer->out_features_ = reader.read_i64();
  DNNV_CHECK(layer->in_features_ > 0 && layer->out_features_ > 0,
             "corrupt dense dims");
  const auto w = reader.read_f32_array(reader.geometry_count(
      {layer->out_features_, layer->in_features_}, sizeof(float)));
  layer->weights_ = Tensor(Shape{layer->out_features_, layer->in_features_}, w);
  const auto b = reader.read_f32_array(static_cast<std::size_t>(layer->out_features_));
  layer->bias_ = Tensor(Shape{layer->out_features_}, b);
  layer->weight_grad_ = Tensor(Shape{layer->out_features_, layer->in_features_});
  layer->bias_grad_ = Tensor(Shape{layer->out_features_});
  return layer;
}

}  // namespace dnnv::nn
