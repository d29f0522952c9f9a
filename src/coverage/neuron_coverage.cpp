#include "coverage/neuron_coverage.h"

#include "tensor/batch.h"
#include "util/error.h"

namespace dnnv::cov {
namespace {

/// Neurons contributed by one activation output of shape [1, F] (F neurons)
/// or [1, C, H, W] (C neurons).
std::size_t neurons_in(const Shape& activation_shape) {
  if (activation_shape.ndim() == 2) {
    return static_cast<std::size_t>(activation_shape[1]);
  }
  DNNV_CHECK(activation_shape.ndim() == 4,
             "unexpected activation shape " << activation_shape);
  return static_cast<std::size_t>(activation_shape[1]);
}

}  // namespace

std::vector<NeuronSpan> neuron_spans(const nn::Sequential& model,
                                     const Shape& item_shape) {
  std::vector<std::int64_t> dims;
  dims.push_back(1);
  dims.insert(dims.end(), item_shape.dims().begin(), item_shape.dims().end());
  Shape shape{dims};
  std::vector<NeuronSpan> spans;
  std::size_t offset = 0;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    shape = model.layer(i).output_shape(shape);
    if (model.layer(i).is_activation()) {
      spans.push_back({offset, neurons_in(shape)});
      offset += spans.back().count;
    }
  }
  DNNV_CHECK(offset > 0, "model has no activation layers");
  return spans;
}

void append_neuron_values(const Tensor& activation, std::int64_t item,
                          double* out, std::size_t& index) {
  if (activation.shape().ndim() == 2) {
    const std::int64_t features = activation.shape()[1];
    const float* row = activation.data() + item * features;
    for (std::int64_t j = 0; j < features; ++j) {
      out[index++] = static_cast<double>(row[j]);
    }
    return;
  }
  const std::int64_t channels = activation.shape()[1];
  const std::int64_t plane = activation.shape()[2] * activation.shape()[3];
  const float* base = activation.data() + item * channels * plane;
  for (std::int64_t c = 0; c < channels; ++c) {
    double acc = 0.0;
    const float* p = base + c * plane;
    for (std::int64_t i = 0; i < plane; ++i) acc += p[i];
    out[index++] = acc / static_cast<double>(plane);
  }
}

NeuronCoverage::NeuronCoverage(nn::Sequential& model, const Shape& item_shape,
                               NeuronCoverageConfig config)
    : model_(model), config_(config) {
  for (const NeuronSpan& span : neuron_spans(model, item_shape)) {
    neuron_count_ += span.count;
  }
}

// Kept separate from append_neuron_values on purpose: the dense path
// compares raw floats against the threshold (seed numerics, frozen for
// bit-identity), not double-widened values.
void NeuronCoverage::scan_activation(const Tensor& activation,
                                     std::int64_t item, DynamicBitset& mask,
                                     std::size_t& bit) const {
  if (activation.shape().ndim() == 2) {
    const std::int64_t features = activation.shape()[1];
    const float* row = activation.data() + item * features;
    for (std::int64_t j = 0; j < features; ++j, ++bit) {
      if (row[j] > static_cast<float>(config_.threshold)) mask.set(bit);
    }
    return;
  }
  const std::int64_t channels = activation.shape()[1];
  const std::int64_t plane = activation.shape()[2] * activation.shape()[3];
  const float* base = activation.data() + item * channels * plane;
  for (std::int64_t c = 0; c < channels; ++c, ++bit) {
    double acc = 0.0;
    const float* p = base + c * plane;
    for (std::int64_t i = 0; i < plane; ++i) acc += p[i];
    if (acc / static_cast<double>(plane) >
        static_cast<double>(config_.threshold)) {
      mask.set(bit);
    }
  }
}

DynamicBitset NeuronCoverage::neuron_mask(const Tensor& input) {
  auto masks = neuron_masks_batched(stack_batch({input}));
  return std::move(masks.front());
}

std::vector<DynamicBitset> NeuronCoverage::neuron_masks_batched(
    const Tensor& batch) {
  std::vector<DynamicBitset> masks;
  neuron_masks_batched(batch, masks);
  return masks;
}

void NeuronCoverage::neuron_masks_batched(const Tensor& batch,
                                          std::vector<DynamicBitset>& masks) {
  std::vector<const Tensor*> activations;
  model_.forward_with_activations(batch, workspace_, activations);

  const std::int64_t b = batch.shape()[0];
  masks.resize(static_cast<std::size_t>(b));
  for (std::int64_t i = 0; i < b; ++i) {
    DynamicBitset& mask = masks[static_cast<std::size_t>(i)];
    mask.reset_to(neuron_count_);
    std::size_t bit = 0;
    for (const Tensor* act : activations) scan_activation(*act, i, mask, bit);
  }
}

}  // namespace dnnv::cov
