// Parameter-activation analysis — the paper's validation-coverage metric.
//
// A parameter θ is ACTIVATED by input x iff perturbing θ changes the model
// output F(x), i.e. |∇_θ F(x)| > ε (paper Eq. 2). For ReLU networks ε = 0
// (the gradient is exactly zero through inactive units); for saturating
// activations (Tanh/Sigmoid) the paper uses a small ε because saturated
// gradients are tiny-but-nonzero.
#ifndef DNNV_COVERAGE_PARAMETER_COVERAGE_H_
#define DNNV_COVERAGE_PARAMETER_COVERAGE_H_

#include "nn/sequential.h"
#include "util/bitset.h"

namespace dnnv::cov {

/// Configuration of the activation criterion.
///
/// Masks come from one absolute-sensitivity pass per item: nonnegative
/// sensitivities propagate from all logits at once through |W| with
/// |activation'| gating. Every term is nonnegative, so a zero sensitivity
/// means no propagation path exists — the classic fault-propagation bound.
/// It equals the union over the k per-class exact gradients except on
/// measure-zero cancellation sets (tests/nn_reference.h holds both oracles).
struct CoverageConfig {
  /// Threshold on the gradient magnitude. 0 keeps the strict ReLU criterion
  /// (any non-zero float counts); Tanh/Sigmoid models should use a small
  /// positive value (the models in exp:: default to 1e-4).
  double epsilon = 0.0;
};

/// Computes activation masks against one model instance (not thread-safe;
/// clone the model per thread for parallel use). The instance keeps the
/// model's gradient buffers from construction on, so the model must keep its
/// layers while the instance lives.
class ParameterCoverage {
 public:
  explicit ParameterCoverage(nn::Sequential& model, CoverageConfig config = {});

  /// Bitset over the model's global parameter index space: bit i set iff
  /// parameter i is activated by `input` (un-batched CHW / feature item).
  /// A batch of one through activation_masks_batched.
  DynamicBitset activation_mask(const Tensor& input);

  /// Activation masks for every item of `batch` ([B, ...]) from ONE batched
  /// forward plus B per-item sensitivity passes, all sharing this instance's
  /// workspace (no allocations once warmed up on a batch shape). Item i's
  /// mask does not depend on the batch around it: every forward kernel forms
  /// an item's outputs in an order independent of the batch size, and the
  /// per-item pass reads only that item's slice.
  std::vector<DynamicBitset> activation_masks_batched(const Tensor& batch);

  /// Into-variant: fills `masks` (resized to the batch size, each bitset
  /// cleared in place) so a warmed-up caller — Criterion::observe, the
  /// combined generator's probe loop — allocates no mask storage per batch.
  void activation_masks_batched(const Tensor& batch,
                                std::vector<DynamicBitset>& masks);

  std::int64_t param_count() const { return param_count_; }
  const CoverageConfig& config() const { return config_; }

 private:
  /// Sets `mask` to param_count bits, bit i iff |grad_i| > epsilon
  /// (storage reused when already that size).
  void mask_from_grads(DynamicBitset& mask);

  /// Zeroes every parameter's gradient buffer (the model's zero_grads()).
  void zero_grads();

  /// One parameter tensor's gradient buffer.
  struct GradSpan {
    float* grad;
    std::int64_t size;
  };

  nn::Sequential& model_;
  CoverageConfig config_;
  std::int64_t param_count_;
  std::vector<GradSpan> grads_;  ///< in global parameter order
  nn::Workspace workspace_;  ///< batched-pass buffers, reused across calls
  std::vector<unsigned char> hit_bytes_;     ///< mask_from_grads scratch
  std::vector<std::uint64_t> word_scratch_;  ///< mask_from_grads scratch
};

}  // namespace dnnv::cov

#endif  // DNNV_COVERAGE_PARAMETER_COVERAGE_H_
