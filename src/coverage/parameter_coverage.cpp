#include "coverage/parameter_coverage.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/batch.h"
#include "util/error.h"

namespace dnnv::cov {

ParameterCoverage::ParameterCoverage(nn::Sequential& model,
                                     CoverageConfig config)
    : model_(model), config_(config), param_count_(model.param_count()) {
  DNNV_CHECK(config_.epsilon >= 0.0, "epsilon must be nonnegative");
  for (const nn::ParamView& view : model_.param_views()) {
    grads_.push_back({view.grad, view.size});
  }
}

void ParameterCoverage::zero_grads() {
  for (const GradSpan& span : grads_) std::fill_n(span.grad, span.size, 0.0f);
}

void ParameterCoverage::mask_from_grads(DynamicBitset& mask) {
  // The threshold test runs once per parameter on every item of every pool
  // sweep — per-bit set() (bounds check + unpredictable branch) is measurable
  // against the whole mask pipeline. Two branch-free passes instead: a
  // vectorisable 0/1-byte predicate sweep, then 8-bytes-at-a-time packing
  // via the multiply trick ((chunk * 0x0102040810204080) >> 56 gathers eight
  // 0/1 bytes into eight bits, low address -> low bit). The threshold and the
  // buffer live in locals: a byte store may alias any member, and the
  // compiler would reload them for every parameter and never vectorize.
  const std::size_t count = static_cast<std::size_t>(param_count_);
  hit_bytes_.resize((count + 63) & ~std::size_t{63});  // zero-padded tail
  const double epsilon = config_.epsilon;
  std::size_t bit = 0;
  for (const GradSpan span : grads_) {
    const float* grad = span.grad;
    unsigned char* out = hit_bytes_.data() + bit;
    for (std::int64_t i = 0; i < span.size; ++i) {
      out[i] = std::fabs(grad[i]) > epsilon ? 1 : 0;
    }
    bit += static_cast<std::size_t>(span.size);
  }
  std::fill(hit_bytes_.begin() + static_cast<std::ptrdiff_t>(bit),
            hit_bytes_.end(), static_cast<unsigned char>(0));

  word_scratch_.assign(hit_bytes_.size() / 64, 0);
  const unsigned char* src = hit_bytes_.data();
  for (std::size_t w = 0; w < word_scratch_.size(); ++w, src += 64) {
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      std::uint64_t chunk;
      std::memcpy(&chunk, src + 8 * b, sizeof(chunk));
      word |= ((chunk * 0x0102040810204080ull) >> 56) << (8 * b);
    }
    word_scratch_[w] = word;
  }
  // OR (not assign): the exact engine unions one call per class logit. The
  // staging buffers are members, so a warmed-up call allocates nothing.
  mask.or_words(word_scratch_.data(), (count + 63) / 64);
}

void ParameterCoverage::prepare_mask(DynamicBitset& mask) const {
  mask.reset_to(static_cast<std::size_t>(param_count_));
}

DynamicBitset ParameterCoverage::activation_mask(const Tensor& input) {
  DynamicBitset mask;
  activation_mask(input, mask);
  return mask;
}

void ParameterCoverage::activation_mask(const Tensor& input,
                                        DynamicBitset& mask) {
  const Tensor batched = stack_batch({input});
  const Tensor logits = model_.forward(batched);
  DNNV_CHECK(logits.shape().ndim() == 2, "model must produce [1, k] logits");
  const std::int64_t k = logits.shape()[1];

  prepare_mask(mask);
  if (config_.engine == CoverageEngine::kAbsSensitivity) {
    Tensor seed(Shape{1, k});
    seed.fill(1.0f);
    zero_grads();
    model_.sensitivity_backward(seed);
    mask_from_grads(mask);
  } else {
    // Union over per-logit exact gradients. backward() may be called
    // repeatedly after one forward (layer caches are read-only in backward).
    for (std::int64_t j = 0; j < k; ++j) {
      Tensor seed(Shape{1, k});
      seed[j] = 1.0f;
      zero_grads();
      model_.backward(seed);
      mask_from_grads(mask);
    }
  }
}

std::vector<DynamicBitset> ParameterCoverage::activation_masks_batched(
    const Tensor& batch) {
  std::vector<DynamicBitset> masks;
  activation_masks_batched(batch, masks);
  return masks;
}

void ParameterCoverage::activation_masks_batched(
    const Tensor& batch, std::vector<DynamicBitset>& masks) {
  DNNV_CHECK(batch.shape().ndim() >= 2, "expected a batched input");
  const std::int64_t b = batch.shape()[0];
  masks.resize(static_cast<std::size_t>(b));
  if (b == 0) return;

  if (config_.engine == CoverageEngine::kPerClassExact) {
    // Verification engine: k exact reverse passes per item dominate, so the
    // simple per-item path loses nothing.
    for (std::int64_t i = 0; i < b; ++i) {
      activation_mask(slice_batch(batch, i), masks[static_cast<std::size_t>(i)]);
    }
    return;
  }

  const Tensor& logits = model_.forward(batch, workspace_);
  DNNV_CHECK(logits.shape().ndim() == 2, "model must produce [N, k] logits");
  const std::int64_t k = logits.shape()[1];
  Tensor seed(Shape{1, k});
  seed.fill(1.0f);
  for (std::int64_t i = 0; i < b; ++i) {
    zero_grads();
    model_.sensitivity_backward_item(i, seed, workspace_);
    DynamicBitset& mask = masks[static_cast<std::size_t>(i)];
    prepare_mask(mask);
    mask_from_grads(mask);
  }
}

double ParameterCoverage::validation_coverage(const Tensor& input) {
  const DynamicBitset mask = activation_mask(input);
  return static_cast<double>(mask.count()) / static_cast<double>(param_count_);
}

}  // namespace dnnv::cov
