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
  // The staging buffers are members, so a warmed-up call allocates nothing.
  mask.reset_to(count);
  mask.or_words(word_scratch_.data(), (count + 63) / 64);
}

DynamicBitset ParameterCoverage::activation_mask(const Tensor& input) {
  auto masks = activation_masks_batched(stack_batch({input}));
  return std::move(masks.front());
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

  const Tensor& logits = model_.forward(batch, workspace_);
  DNNV_CHECK(logits.shape().ndim() == 2, "model must produce [N, k] logits");
  const std::int64_t k = logits.shape()[1];
  Tensor seed(Shape{1, k});
  seed.fill(1.0f);
  for (std::int64_t i = 0; i < b; ++i) {
    zero_grads();
    model_.sensitivity_backward_item(i, seed, workspace_);
    mask_from_grads(masks[static_cast<std::size_t>(i)]);
  }
}

}  // namespace dnnv::cov
