#include "testgen/gradient_generator.h"

#include "nn/activation_layer.h"
#include "nn/loss.h"
#include "nn/workspace.h"
#include "tensor/batch.h"
#include "util/error.h"

namespace dnnv::testgen {

nn::Sequential GradientGenerator::masked_model(const nn::Sequential& model,
                                               const DynamicBitset& covered) {
  nn::Sequential masked = model.clone();
  DNNV_CHECK(covered.size() == static_cast<std::size_t>(masked.param_count()),
             "covered-set size mismatch");
  std::size_t bit = 0;
  for (const auto& view : masked.param_views()) {
    for (std::int64_t i = 0; i < view.size; ++i, ++bit) {
      if (covered.test(bit)) view.data[i] = 0.0f;
    }
  }
  return masked;
}

std::vector<Tensor> GradientGenerator::generate_batch(
    nn::Sequential& loss_model, const Shape& item_shape, int num_classes,
    int batch_index, Rng& rng) const {
  const Tensor batch =
      generate_batch_tensor(loss_model, item_shape, num_classes, batch_index,
                            rng);
  std::vector<Tensor> tests;
  tests.reserve(static_cast<std::size_t>(num_classes));
  for (int i = 0; i < num_classes; ++i) tests.push_back(slice_batch(batch, i));
  return tests;
}

Tensor GradientGenerator::generate_batch_tensor(nn::Sequential& loss_model,
                                                const Shape& item_shape,
                                                int num_classes,
                                                int batch_index,
                                                Rng& rng) const {
  DNNV_CHECK(num_classes > 1, "need at least two classes");
  if (options_.backward_leak != 0.0f) {
    for (std::size_t l = 0; l < loss_model.num_layers(); ++l) {
      if (auto* act = dynamic_cast<nn::ActivationLayer*>(&loss_model.layer(l))) {
        act->set_backward_leak(options_.backward_leak);
      }
    }
  }
  std::vector<std::int64_t> dims;
  dims.push_back(num_classes);
  dims.insert(dims.end(), item_shape.dims().begin(), item_shape.dims().end());
  Tensor batch{Shape(dims)};  // zeros — Algorithm 2 line 3
  if (batch_index > 0 && options_.init_stddev > 0.0f) {
    for (std::int64_t i = 0; i < batch.numel(); ++i) {
      batch[i] = static_cast<float>(
          rng.normal(0.0, static_cast<double>(options_.init_stddev)));
    }
    clamp_(batch, options_.clamp_lo, options_.clamp_hi);
  }

  std::vector<int> labels(static_cast<std::size_t>(num_classes));
  for (int i = 0; i < num_classes; ++i) labels[static_cast<std::size_t>(i)] = i;

  // Mean-reduced CE divides gradients by k; scale the step so learning_rate
  // acts on per-sample gradients (Algorithm 2 line 7 is per-sample).
  // The descent runs on the workspace engine: activations and gradient
  // buffers are allocated once and reused for all T steps, and each step
  // computes only dL/dx (line 7 updates the input, never a parameter).
  nn::Workspace ws;
  const float step = options_.learning_rate * static_cast<float>(num_classes);
  for (int t = 0; t < options_.steps; ++t) {
    const Tensor& logits = loss_model.forward(batch, ws);
    const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
    const Tensor& grad_input = loss_model.input_gradient(loss.grad_logits, ws);
    for (std::int64_t i = 0; i < batch.numel(); ++i) {
      batch[i] -= step * grad_input[i];
    }
    clamp_(batch, options_.clamp_lo, options_.clamp_hi);
  }
  return batch;
}

GenerationResult GradientGenerator::generate(
    cov::Criterion& criterion, const nn::Sequential& model,
    const Shape& item_shape, int num_classes,
    cov::CoverageAccumulator& accumulator) const {
  GenerationResult result;
  Rng rng(options_.seed);
  const bool mask_activated =
      options_.mask_activated && criterion.parameter_indexed();

  std::vector<DynamicBitset> masks;  ///< storage reused across batches
  int batch_index = 0;
  while (static_cast<int>(result.tests.size()) < options_.max_tests) {
    nn::Sequential loss_model =
        mask_activated
            ? masked_model(model, accumulator.covered())
            : model.clone();
    const Tensor batch = generate_batch_tensor(loss_model, item_shape,
                                               num_classes, batch_index, rng);
    // Coverage is always measured on the TRUE model (Algorithm 2 validates
    // against the IP that ships, not the masked scratch copy) — one batched
    // forward for the whole synthetic batch.
    criterion.measure(batch, masks);
    // The last batch ships only the items the budget has room for.
    for (int i = 0; i < num_classes &&
                    static_cast<int>(result.tests.size()) < options_.max_tests;
         ++i) {
      accumulator.add(masks[static_cast<std::size_t>(i)]);
      FunctionalTest test;
      test.input = slice_batch(batch, i);
      test.source = TestSource::kSynthetic;
      result.tests.push_back(std::move(test));
      result.coverage_after.push_back(accumulator.coverage());
    }
    ++batch_index;
  }
  result.final_coverage = accumulator.coverage();
  return result;
}

}  // namespace dnnv::testgen
