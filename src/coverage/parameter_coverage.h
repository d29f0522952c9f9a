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

/// How activation masks are computed.
enum class CoverageEngine {
  /// One absolute-sensitivity pass: propagates nonnegative sensitivities from
  /// all logits simultaneously through |W| with |activation'| gating. Since
  /// every term is nonnegative, a zero sensitivity means *no* propagation
  /// path exists — the classic fault-propagation bound. ~k× faster than the
  /// exact engine and equal to it except on measure-zero cancellation sets.
  kAbsSensitivity,
  /// k exact reverse-mode passes (one per logit); θ is activated iff any
  /// class output has |∂F_j/∂θ| > ε. Ground truth, used for verification.
  kPerClassExact,
};

/// Configuration of the activation criterion.
struct CoverageConfig {
  CoverageEngine engine = CoverageEngine::kAbsSensitivity;
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
  DynamicBitset activation_mask(const Tensor& input);

  /// Into-variant of activation_mask: resizes/clears `mask` (reusing its
  /// word storage when already param_count bits) and fills it.
  void activation_mask(const Tensor& input, DynamicBitset& mask);

  /// Activation masks for every item of `batch` ([B, ...]) from ONE batched
  /// forward plus B per-item sensitivity passes, all sharing this instance's
  /// workspace (no allocations once warmed up on a batch shape). Bit-identical
  /// to calling activation_mask() on each item — the GEMM kernel guarantees
  /// row results independent of batch size, and the per-item sensitivity pass
  /// runs the same arithmetic as a batch-of-one backward. The kPerClassExact
  /// verification engine falls back to the per-item path internally.
  std::vector<DynamicBitset> activation_masks_batched(const Tensor& batch);

  /// Into-variant: fills `masks` (resized to the batch size, each bitset
  /// cleared in place) so a warmed-up caller — Criterion::observe, the
  /// combined generator's probe loop — allocates no mask storage per batch.
  void activation_masks_batched(const Tensor& batch,
                                std::vector<DynamicBitset>& masks);

  /// Validation coverage of a single test: VC(x) = |activated| / |θ| (Eq. 3).
  double validation_coverage(const Tensor& input);

  std::int64_t param_count() const { return param_count_; }
  const CoverageConfig& config() const { return config_; }

 private:
  void mask_from_grads(DynamicBitset& mask);

  /// Clears `mask` in place when already param_count bits, else resizes.
  void prepare_mask(DynamicBitset& mask) const;

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
