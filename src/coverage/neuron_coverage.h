// Neuron coverage — the hardware-testing baseline metric ([10], [11]).
//
// The paper compares its parameter-coverage tests against tests selected for
// neuron coverage and shows the latter miss parameter perturbations: two
// neurons can each be covered by *different* tests while the weight between
// them is never exercised end-to-end (paper §II-B).
#ifndef DNNV_COVERAGE_NEURON_COVERAGE_H_
#define DNNV_COVERAGE_NEURON_COVERAGE_H_

#include <string>
#include <vector>

#include "nn/sequential.h"
#include "util/bitset.h"

namespace dnnv::cov {

/// Neuron-coverage criterion (DeepXplore-style).
struct NeuronCoverageConfig {
  /// A neuron is covered when its (mean) activation exceeds this threshold.
  double threshold = 0.0;
};

/// Half-open neuron-index range contributed by one activation layer.
struct NeuronSpan {
  std::size_t offset = 0;
  std::size_t count = 0;
};

/// THE neuron accounting, shared by every neuron-family criterion
/// (neuron/ksection/boundary/topk): walks the activation-layer output
/// shapes for `item_shape` — every unit of a dense activation output is one
/// neuron, every CHANNEL of a conv activation output is one neuron
/// (DeepXplore's definition). Throws when the model has no activations.
std::vector<NeuronSpan> neuron_spans(const nn::Sequential& model,
                                     const Shape& item_shape);

/// Appends one batched activation capture's neuron VALUES for `item` (dense
/// unit activation; conv channel plane mean, accumulated in double) — the
/// value counterpart of NeuronCoverage's thresholded scan, feeding the
/// range/top-k criteria.
void append_neuron_values(const Tensor& activation, std::int64_t item,
                          double* out, std::size_t& index);

/// Neuron definition: every unit of a dense activation layer is one neuron;
/// every CHANNEL of a convolutional activation layer is one neuron (its mean
/// activation is compared against the threshold), following DeepXplore.
class NeuronCoverage {
 public:
  NeuronCoverage(nn::Sequential& model, const Shape& item_shape,
                 NeuronCoverageConfig config = {});

  /// Bitset over all neurons: bit set iff the neuron is covered by `input`.
  DynamicBitset neuron_mask(const Tensor& input);

  /// Neuron masks for every item of `batch` ([B, ...]) from one batched
  /// forward through the workspace engine (activation captures live in the
  /// reused workspace; no allocations once warmed up). Identical to calling
  /// neuron_mask() per item.
  std::vector<DynamicBitset> neuron_masks_batched(const Tensor& batch);

  /// Into-variant: fills `masks` (resized to the batch size, each bitset
  /// cleared in place) so warmed-up observe loops allocate no mask storage.
  void neuron_masks_batched(const Tensor& batch,
                            std::vector<DynamicBitset>& masks);

  std::size_t neuron_count() const { return neuron_count_; }

 private:
  /// Scans one item's slice of a batched activation capture.
  void scan_activation(const Tensor& activation, std::int64_t item,
                       DynamicBitset& mask, std::size_t& bit) const;

  nn::Sequential& model_;
  NeuronCoverageConfig config_;
  std::size_t neuron_count_ = 0;
  nn::Workspace workspace_;  ///< batched-pass buffers, reused across calls
};

}  // namespace dnnv::cov

#endif  // DNNV_COVERAGE_NEURON_COVERAGE_H_
