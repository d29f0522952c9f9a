// Fully connected layer.
#ifndef DNNV_NN_DENSE_H_
#define DNNV_NN_DENSE_H_

#include "nn/init.h"
#include "nn/layer.h"

namespace dnnv::nn {

/// y = x · Wᵀ + b with W stored [out_features, in_features] (one row per
/// output unit) and x batched [N, in_features].
///
/// forward_into and backward_into are direct register-tiled kernels that
/// read W in place and sum in gemm()'s order (tensor/gemm.h), so every float
/// is the one gemm() forms; the value backward()'s weight gradient runs
/// gemm() itself.
class Dense : public Layer {
 public:
  /// Constructs with initialised weights; bias starts at zero.
  Dense(std::int64_t in_features, std::int64_t out_features, Rng& rng,
        InitKind init = InitKind::kKaimingNormal);

  std::string kind() const override { return "dense"; }
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void forward_into(std::size_t index, const Tensor& input, Tensor& output,
                    Workspace& ws) override;
  void backward_into(std::size_t index, const Tensor& grad_output,
                     Tensor& grad_input, Workspace& ws) override;
  void sensitivity_backward_item(std::size_t index, std::int64_t item,
                                 const Tensor& sens_output, Tensor& sens_input,
                                 Workspace& ws) override;
  void parameter_sensitivity_item(std::size_t index, std::int64_t item,
                                  const Tensor& sens_output,
                                  Workspace& ws) override;
  Shape output_shape(const Shape& input_shape) const override;
  std::vector<ParamView> param_views() override;
  std::unique_ptr<Layer> clone() const override;
  void save(ByteWriter& writer) const override;

  /// Reconstructs from save() output (tag already consumed by the caller).
  static std::unique_ptr<Dense> load(ByteReader& reader);

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }
  Tensor& weights() { return weights_; }
  Tensor& bias() { return bias_; }

 private:
  Dense() = default;  // for load()

  /// Checks a per-item pass's item index and [1, out] sensitivity shape.
  void check_item(std::int64_t item, const Tensor& sens_output) const;
  /// One item's sensitivity propagation, shared by the per-item pass and
  /// the parameter-only pass. A null `out_row` skips the input sensitivity.
  void sensitivity_item(std::int64_t item, const float* s_row, float* out_row);

  /// The last forward's input [N, in]: the workspace forward's input itself,
  /// valid until the next forward on that workspace, or the value forward's
  /// own copy.
  const Tensor& input() const {
    return input_view_ != nullptr ? *input_view_ : cached_input_;
  }

  std::int64_t in_features_ = 0;
  std::int64_t out_features_ = 0;
  Tensor weights_;      // [out, in]
  Tensor bias_;         // [out]
  Tensor weight_grad_;  // [out, in]
  Tensor bias_grad_;    // [out]
  Tensor cached_input_;                 // the value forward()'s copy
  const Tensor* input_view_ = nullptr;  // forward_into's input, or null
};

}  // namespace dnnv::nn

#endif  // DNNV_NN_DENSE_H_
