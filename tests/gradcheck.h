// Finite-difference gradient verification of the value backward() (a
// test-only oracle; nothing under src/ uses it).
#ifndef DNNV_TESTS_GRADCHECK_H_
#define DNNV_TESTS_GRADCHECK_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/loss.h"
#include "nn/sequential.h"
#include "tensor/batch.h"
#include "util/rng.h"

namespace dnnv::nn {

/// Result of a gradient check: worst absolute and relative error over the
/// compared coordinates, plus an outlier-tolerant failure fraction.
///
/// Finite differences are exact only for smooth losses; stepping a parameter
/// can flip a max-pool argmax or cross a ReLU kink, producing a large error
/// at isolated coordinates even when autodiff is correct. bad_fraction()
/// reports how many coordinates exceed a tolerance — a genuine gradient bug
/// (wrong sign/scale) pushes most coordinates over, an FD kink only a few.
struct GradCheckResult {
  double max_abs_error = 0.0;
  double max_rel_error = 0.0;
  std::int64_t checked = 0;
  std::vector<double> rel_errors;

  /// Fraction of checked coordinates whose relative error exceeds `tol`.
  double bad_fraction(double tol) const {
    if (rel_errors.empty()) return 0.0;
    std::int64_t bad = 0;
    for (const double e : rel_errors) {
      if (e > tol) ++bad;
    }
    return static_cast<double>(bad) / static_cast<double>(rel_errors.size());
  }
};

namespace detail {

inline double loss_at(Sequential& model, const Tensor& batched_input,
                      int label) {
  const Tensor logits = model.forward(batched_input);
  return softmax_cross_entropy(logits, {label}).loss;
}

inline void update_errors(GradCheckResult& result, double analytic,
                          double numeric) {
  const double abs_err = std::fabs(analytic - numeric);
  // Forward passes are float32, so finite differences carry ~1e-7/step noise;
  // the 0.05 floor keeps near-zero gradients from reporting spurious 100%
  // relative errors while real sign/scale bugs still blow far past the floor.
  const double denom = std::max({std::fabs(analytic), std::fabs(numeric), 0.05});
  result.max_abs_error = std::max(result.max_abs_error, abs_err);
  result.max_rel_error = std::max(result.max_rel_error, abs_err / denom);
  result.rel_errors.push_back(abs_err / denom);
  ++result.checked;
}

/// All of [0, total) when sample <= 0 or sample >= total, else `sample`
/// indices drawn uniformly (with repeats).
inline std::vector<std::int64_t> sample_indices(std::int64_t total, int sample,
                                                Rng& rng) {
  std::vector<std::int64_t> indices;
  if (sample <= 0 || sample >= total) {
    for (std::int64_t i = 0; i < total; ++i) indices.push_back(i);
  } else {
    for (int i = 0; i < sample; ++i) {
      indices.push_back(static_cast<std::int64_t>(
          rng.uniform_u64(static_cast<std::uint64_t>(total))));
    }
  }
  return indices;
}

}  // namespace detail

/// Compares autodiff parameter gradients of the cross-entropy loss at
/// (input, label) against central finite differences.
/// Checks `sample` randomly chosen parameters (all when sample <= 0).
inline GradCheckResult check_param_gradients(Sequential& model,
                                             const Tensor& input, int label,
                                             Rng& rng, int sample = 64,
                                             double step = 1e-3) {
  const Tensor batched = stack_batch({input});
  const Tensor logits = model.forward(batched);
  const LossResult loss = softmax_cross_entropy(logits, {label});
  model.zero_grads();
  model.backward(loss.grad_logits);

  const std::int64_t total = model.param_count();
  const std::vector<std::int64_t> indices =
      detail::sample_indices(total, sample, rng);

  GradCheckResult result;
  for (const auto idx : indices) {
    const float analytic = model.get_grad(idx);
    const float original = model.get_param(idx);
    model.set_param(idx, original + static_cast<float>(step));
    const double loss_plus = detail::loss_at(model, batched, label);
    model.set_param(idx, original - static_cast<float>(step));
    const double loss_minus = detail::loss_at(model, batched, label);
    model.set_param(idx, original);
    const double numeric = (loss_plus - loss_minus) / (2.0 * step);
    detail::update_errors(result, analytic, numeric);
  }
  return result;
}

/// Compares the input gradient (backward's return value) the same way.
inline GradCheckResult check_input_gradients(Sequential& model,
                                             const Tensor& input, int label,
                                             Rng& rng, int sample = 64,
                                             double step = 1e-3) {
  Tensor batched = stack_batch({input});
  const Tensor logits = model.forward(batched);
  const LossResult loss = softmax_cross_entropy(logits, {label});
  model.zero_grads();
  const Tensor grad_input = model.backward(loss.grad_logits);

  const std::int64_t total = batched.numel();
  const std::vector<std::int64_t> indices =
      detail::sample_indices(total, sample, rng);

  GradCheckResult result;
  for (const auto idx : indices) {
    const float analytic = grad_input[idx];
    const float original = batched[idx];
    batched[idx] = original + static_cast<float>(step);
    const double loss_plus = detail::loss_at(model, batched, label);
    batched[idx] = original - static_cast<float>(step);
    const double loss_minus = detail::loss_at(model, batched, label);
    batched[idx] = original;
    const double numeric = (loss_plus - loss_minus) / (2.0 * step);
    detail::update_errors(result, analytic, numeric);
  }
  return result;
}

}  // namespace dnnv::nn

#endif  // DNNV_TESTS_GRADCHECK_H_
