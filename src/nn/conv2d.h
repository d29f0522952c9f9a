// 2-D convolution layer: direct register-tiled kernels for the forward pass
// and the input gradient, im2col + GEMM for the parameter-gradient and
// sensitivity passes.
#ifndef DNNV_NN_CONV2D_H_
#define DNNV_NN_CONV2D_H_

#include <vector>

#include "nn/init.h"
#include "nn/layer.h"
#include "nn/workspace.h"

namespace dnnv::nn {

/// Cross-correlation over NCHW inputs. Weights are stored flattened as
/// [out_channels, in_channels*kh*kw], taps in (c, ky, kx) order.
///
/// forward_into and backward_into (Algorithm 2's descent step) are direct
/// convolutions: each reads its taps in place from a zero-padded copy of one
/// batch item and never forms im2col columns. Each output still sums its
/// products in the order the im2col + GEMM formulation does — blocks of
/// kGemmKBlock taps (forward) or output channels (input gradient) — so both
/// formulations agree bit for bit. The value backward() and the two
/// sensitivity passes read im2col columns, which are built from the cached
/// input on their first use after each forward.
class Conv2d : public Layer {
 public:
  struct Config {
    std::int64_t in_channels = 0;
    std::int64_t out_channels = 0;
    std::int64_t kernel = 3;  ///< square kernel edge
    std::int64_t stride = 1;
    std::int64_t pad = 0;
  };

  Conv2d(const Config& config, Rng& rng,
         InitKind init = InitKind::kKaimingNormal);

  std::string kind() const override { return "conv2d"; }
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Tensor sensitivity_backward(const Tensor& sens_output) override;
  void forward_into(std::size_t index, const Tensor& input, Tensor& output,
                    Workspace& ws) override;
  void backward_into(std::size_t index, const Tensor& grad_output,
                     Tensor& grad_input, Workspace& ws) override;
  void sensitivity_backward_into(std::size_t index, const Tensor& sens_output,
                                 Tensor& sens_input, Workspace& ws) override;
  void sensitivity_backward_item(std::size_t index, std::int64_t item,
                                 const Tensor& sens_output, Tensor& sens_input,
                                 Workspace& ws) override;
  Shape output_shape(const Shape& input_shape) const override;
  std::vector<ParamView> param_views() override;
  std::unique_ptr<Layer> clone() const override;
  void save(ByteWriter& writer) const override;
  static std::unique_ptr<Conv2d> load(ByteReader& reader);

  const Config& config() const { return config_; }
  Tensor& weights() { return weights_; }
  Tensor& bias() { return bias_; }

 private:
  Conv2d() = default;  // for load()/clone()
  void check_input(const Shape& input_shape) const;
  /// One item's sensitivity propagation (shared by the batched and per-item
  /// passes so both run identical arithmetic in identical order).
  void sensitivity_item(std::size_t index, std::int64_t item,
                        const float* s_out, float* sens_image, Workspace& ws);
  std::int64_t col_rows() const {
    return config_.in_channels * config_.kernel * config_.kernel;
  }
  /// Item `item`'s im2col columns [col_rows, out_h*out_w] of the cached
  /// input, building every item's columns on the first call after a forward.
  const float* item_cols(std::int64_t item);

  Config config_;
  Tensor weights_;      // [out_c, in_c*k*k]
  Tensor bias_;         // [out_c]
  Tensor weight_grad_;  // [out_c, in_c*k*k]
  Tensor bias_grad_;    // [out_c]

  // Caches from the last forward: a copy of the input, and the im2col
  // columns derived from it once a pass that reads columns asks for them.
  Tensor cached_input_;  // [N, C, H, W]
  Tensor cached_cols_;   // [N, col_rows, out_h*out_w]; valid iff cols_valid_
  bool cols_valid_ = false;
  std::int64_t cached_out_h_ = 0;
  std::int64_t cached_out_w_ = 0;
  std::vector<std::int64_t> offsets_;  // direct-kernel offset table

  // Scratch arena for the standalone forward()/backward()/
  // sensitivity_backward() entry points (the calibration loop's path), so
  // repeated calls reuse their col-gradient buffers instead of allocating a
  // fresh Workspace per call. Never cloned — each copy warms its own.
  Workspace scratch_ws_;
};

}  // namespace dnnv::nn

#endif  // DNNV_NN_CONV2D_H_
