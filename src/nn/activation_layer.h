// Elementwise activation layer.
#ifndef DNNV_NN_ACTIVATION_LAYER_H_
#define DNNV_NN_ACTIVATION_LAYER_H_

#include "nn/activation.h"
#include "nn/layer.h"

namespace dnnv::nn {

/// Applies a nonlinearity elementwise. Its outputs define the "neurons" of the
/// neuron-coverage baseline (is_activation() == true).
class ActivationLayer : public Layer {
 public:
  explicit ActivationLayer(ActivationKind activation);

  std::string kind() const override { return "activation"; }
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void forward_into(std::size_t index, const Tensor& input, Tensor& output,
                    Workspace& ws) override;
  void backward_into(std::size_t index, const Tensor& grad_output,
                     Tensor& grad_input, Workspace& ws) override;
  void sensitivity_backward_item(std::size_t index, std::int64_t item,
                                 const Tensor& sens_output, Tensor& sens_input,
                                 Workspace& ws) override;
  Shape output_shape(const Shape& input_shape) const override;
  bool is_activation() const override { return true; }
  std::unique_ptr<Layer> clone() const override;
  void save(ByteWriter& writer) const override;
  static std::unique_ptr<ActivationLayer> load(ByteReader& reader);

  ActivationKind activation() const { return activation_; }

  /// L1 activation-sparsity penalty coefficient (Glorot et al., AISTATS'11 —
  /// the paper's reference [12]). When non-zero, backward() adds
  /// lambda * sign(output) to the incoming gradient, training units to stay
  /// silent unless their feature is present. Set by the trainer for the
  /// duration of fit() only; keep at 0 for gradient/coverage analysis.
  void set_sparsity_penalty(float lambda) { sparsity_lambda_ = lambda; }
  float sparsity_penalty() const { return sparsity_lambda_; }

  /// Backward-pass gradient leak: backward() uses max(f'(x), slope) so
  /// gradients flow through saturated/dead units. Used by input-synthesis
  /// (Algorithm 2) on its scratch loss model — a dead ReLU has zero true
  /// gradient, so without a leak gradient descent can never craft an input
  /// that wakes it. Keep 0 for training and for exact-gradient analysis.
  void set_backward_leak(float slope) { backward_leak_ = slope; }
  float backward_leak() const { return backward_leak_; }

  /// Liveness regularisation (training-time only): units/channels whose mean
  /// activation over the current batch falls below `target` receive an
  /// upward pre-activation gradient of strength `lambda`. This trains the
  /// network to use all of its resources on the training distribution — the
  /// paper's stated premise ("if many parameters are not activated in the
  /// training set, the network is not trained well", §IV-B).
  void set_liveness_boost(float lambda, float target) {
    liveness_lambda_ = lambda;
    liveness_target_ = target;
  }

 private:
  ActivationKind activation_;
  float sparsity_lambda_ = 0.0f;
  float backward_leak_ = 0.0f;
  float liveness_lambda_ = 0.0f;
  float liveness_target_ = 0.0f;
  /// The value forward()'s copy of its input.
  Tensor cached_input_;
  /// Input of the last forward_into (the workspace forward's input itself,
  /// valid until the next forward on that workspace). Null after a
  /// value-path forward().
  const Tensor* input_view_ = nullptr;
  /// Forward output of the last forward_into (aliases the workspace output
  /// buffer; valid until the workspace is reused). Lets the backward gates
  /// run activate_grad_from_output and skip the transcendental recompute.
  /// Null after a value-path forward().
  const Tensor* cached_output_view_ = nullptr;

  /// The last forward's input.
  const Tensor& input() const {
    return input_view_ != nullptr ? *input_view_ : cached_input_;
  }

  /// The cached forward output's data, or null after a value-path forward().
  const float* output_data() const {
    return cached_output_view_ ? cached_output_view_->data() : nullptr;
  }
};

}  // namespace dnnv::nn

#endif  // DNNV_NN_ACTIVATION_LAYER_H_
