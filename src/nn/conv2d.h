// 2-D convolution layer: every pass is a direct register-tiled kernel that
// reads its taps in place and never forms im2col columns.
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
/// Three kernels serve every pass, each reading one batch item at a time:
///  - the forward correlation (forward_into) reads taps in place from a
///    zero-padded copy of the item;
///  - the input gradient (backward_into) correlates the output gradient,
///    spread over zero planes, with the flipped kernel; the input
///    sensitivity runs it on |W| and the output sensitivity;
///  - the weight reduction w[oc][t] += sum_p g[oc][p] * x_t[p] reads tap t of
///    every output position p in place from the padded copy of the cached
///    item. The value backward() runs it on dy and x (the weight gradient),
///    the per-item sensitivity pass on s and |x| (the weight sensitivity).
/// Each sum keeps the order of the im2col + GEMM formulation the layer once
/// used — product chains over blocks of kGemmKBlock taps (forward), output
/// channels (input gradient) or output positions (weight reduction), the
/// block sums added in order — so every float is that formulation's, bit for
/// bit (tests/nn_reference.h spells each order out).
class Conv2d : public Layer {
 public:
  struct Config {
    std::int64_t in_channels = 0;
    std::int64_t out_channels = 0;
    std::int64_t kernel = 3;  ///< square kernel edge
    std::int64_t stride = 1;  ///< 1 <= stride <= kernel
    std::int64_t pad = 0;     ///< 0 <= pad < kernel
  };

  Conv2d(const Config& config, Rng& rng,
         InitKind init = InitKind::kKaimingNormal);

  /// True for the configurations a layer may hold: positive channels and
  /// kernel, and a stride and padding bounded by the kernel (stride <=
  /// kernel, pad < kernel). A stream bounds the kernel through its weight
  /// count, so these bounds keep the padded item (channels * stride^2
  /// phases) and the output size from overflowing. Loaders check it on
  /// every conv record.
  static bool valid(const Config& config);

  std::string kind() const override { return "conv2d"; }
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
  static std::unique_ptr<Conv2d> load(ByteReader& reader);

  const Config& config() const { return config_; }
  Tensor& weights() { return weights_; }
  Tensor& bias() { return bias_; }

 private:
  Conv2d() = default;  // for load()/clone()
  void check_input(const Shape& input_shape) const;
  /// weight_grad_ += the weight reduction of cached item `item` against
  /// g [out_c, out_h*out_w], over |x| when `abs_input`; bias_grad_ += the
  /// position sums of g.
  void reduce_params(std::size_t index, std::int64_t item, const float* g,
                     bool abs_input, Workspace& ws);
  /// The input gradient of `items` consecutive items of dy through `weights`
  /// ([out_c, col_rows]) into `grad`, every pixel overwritten.
  void input_gradient(std::size_t index, const float* weights, const float* dy,
                      std::int64_t items, float* grad, Workspace& ws);
  std::int64_t col_rows() const {
    return config_.in_channels * config_.kernel * config_.kernel;
  }

  Config config_;
  Tensor weights_;      // [out_c, in_c*k*k]
  Tensor bias_;         // [out_c]
  Tensor weight_grad_;  // [out_c, in_c*k*k]
  Tensor bias_grad_;    // [out_c]

  /// The last forward's input [N, C, H, W]: the workspace forward's input
  /// itself, valid until the next forward on that workspace, or the value
  /// forward's own copy.
  const Tensor& input() const {
    return input_view_ != nullptr ? *input_view_ : cached_input_;
  }

  // Caches from the last forward: its input (the value forward()'s copy, or
  // forward_into's input, null after forward()) and the output size.
  Tensor cached_input_;
  const Tensor* input_view_ = nullptr;
  std::int64_t cached_out_h_ = 0;
  std::int64_t cached_out_w_ = 0;

  // The offset table of the forward or input-gradient pass running now;
  // each pass rebuilds it, so nothing in it outlives the pass.
  std::vector<std::int64_t> offsets_;

  // Scratch arena for the standalone forward()/backward() entry points (the
  // training loop's path), so repeated calls reuse their padded and spread
  // buffers instead of allocating a fresh Workspace per call. Never cloned —
  // each copy warms its own.
  Workspace scratch_ws_;
};

}  // namespace dnnv::nn

#endif  // DNNV_NN_CONV2D_H_
