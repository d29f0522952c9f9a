// Algorithm 2 — gradient-based synthesis of new functional tests.
//
// Inputs (not parameters) are gradient-descended to minimise the
// classification loss toward each of the k classes (paper Eq. 8), producing
// synthetic training-like samples. The paper's key idea is that samples be
// classified correctly by "the network consisting of the un-activated
// parameters"; with mask_activated on, already-activated parameters are
// zeroed in a scratch model before the descent, steering synthesis toward
// parameters that still need coverage.
#ifndef DNNV_TESTGEN_GRADIENT_GENERATOR_H_
#define DNNV_TESTGEN_GRADIENT_GENERATOR_H_

#include "coverage/accumulator.h"
#include "coverage/criterion.h"
#include "nn/sequential.h"
#include "testgen/functional_test.h"
#include "util/rng.h"

namespace dnnv::testgen {

/// Algorithm 2 generator.
class GradientGenerator {
 public:
  struct Options {
    int max_tests = 50;           ///< Nt; the last k-batch is cut to fit
    int steps = 80;               ///< T — gradient-descent updates per batch
    float learning_rate = 0.5f;   ///< η (applied to the per-sample gradient)
    /// Zero already-activated parameters in the loss model (paper §IV-C's
    /// "network consisting of the un-activated parameters"). Off = verbatim
    /// Algorithm 2 (loss on the full model) — kept for the ablation bench.
    bool mask_activated = true;
    /// Stddev of the Gaussian init jitter for batches after the first. The
    /// first batch starts from all zeros exactly as Algorithm 2 line 3;
    /// later batches need jitter to avoid regenerating identical samples.
    float init_stddev = 0.25f;
    /// Inputs are clamped to this range after each update. Algorithm 2 as
    /// printed does NOT constrain its inputs — a black-box IP accepts any
    /// float image, and unconstrained synthesis is what lets it activate
    /// parameters behind otherwise-dead units (the paper's ~100% ceiling).
    /// The wide default keeps that power; narrow to [0,1] for suites that
    /// must look like valid sensor images.
    float clamp_lo = -4.0f;
    float clamp_hi = 4.0f;
    /// Gradient leak applied to the LOSS model's activations during
    /// synthesis so descent can wake dead units (see
    /// ActivationLayer::set_backward_leak). Coverage is always measured on
    /// the true model with exact semantics.
    float backward_leak = 0.05f;
    std::uint64_t seed = 7;
  };

  explicit GradientGenerator(Options options) : options_(options) {}

  /// Generates batches of k tests until exactly max_tests are emitted (a
  /// last batch that does not fit contributes only its first items). Each
  /// synthesised batch is measured by `criterion` on `model`, updating
  /// `accumulator` after each test; the masked-model steering applies only
  /// when the criterion is parameter-indexed.
  GenerationResult generate(cov::Criterion& criterion,
                            const nn::Sequential& model,
                            const Shape& item_shape, int num_classes,
                            cov::CoverageAccumulator& accumulator) const;

  /// Synthesises one batch of k inputs (class i descending loss toward label
  /// i) against `loss_model` — exposed for the combined method's probing.
  /// `batch_index` 0 starts from zeros; later batches jitter their init.
  std::vector<Tensor> generate_batch(nn::Sequential& loss_model,
                                     const Shape& item_shape, int num_classes,
                                     int batch_index, Rng& rng) const;

  /// Batch-tensor variant of generate_batch: returns the synthesised
  /// [k, item...] tensor un-sliced, ready for the batched coverage engine.
  /// The descent loop itself runs on the workspace engine (no per-step
  /// allocations) and its reverse pass is Sequential::input_gradient, so
  /// `loss_model`'s parameter-gradient buffers are left untouched.
  Tensor generate_batch_tensor(nn::Sequential& loss_model,
                               const Shape& item_shape, int num_classes,
                               int batch_index, Rng& rng) const;

  /// Builds the masked loss model: a clone of `model` with covered
  /// parameters set to zero.
  static nn::Sequential masked_model(const nn::Sequential& model,
                                     const DynamicBitset& covered);

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace dnnv::testgen

#endif  // DNNV_TESTGEN_GRADIENT_GENERATOR_H_
