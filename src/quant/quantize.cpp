#include "quant/quantize.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace dnnv::quant {

float choose_scale(float amax) {
  return amax > 0.0f ? amax / static_cast<float>(kQmax) : 1.0f;
}

std::int8_t quantize_value(float value, float scale) {
  return round_to_code(value / scale);
}

Requant requant_from_real(double r) {
  DNNV_CHECK(r >= 0.0 && std::isfinite(r), "requant ratio " << r);
  if (r == 0.0) return Requant{};
  int exponent = 0;
  const double mantissa = std::frexp(r, &exponent);  // r = mantissa * 2^exp
  auto q31 = static_cast<std::int64_t>(std::lround(mantissa * (1ll << 31)));
  if (q31 == (1ll << 31)) {  // mantissa rounded up to 1.0
    q31 >>= 1;
    ++exponent;
  }
  Requant rq;
  rq.multiplier = static_cast<std::int32_t>(q31);
  rq.shift = 31 - exponent;
  if (rq.shift > 62) {
    // Near-dead channel (ratio < 2^-31): every representable accumulator
    // rescales below one output quantum, so the channel collapses to the
    // zero encoding — same as r == 0, NOT an error (amax==0 maps there too).
    return Requant{};
  }
  DNNV_CHECK(rq.shift >= 0, "requant ratio " << r << " out of fixed-point range");
  return rq;
}

std::int64_t rounding_shift_right(std::int64_t x, std::int32_t shift) {
  if (shift == 0) return x;
  const std::int64_t bias = std::int64_t{1} << (shift - 1);
  // Half-away-from-zero: bias toward the sign of x before truncating shift.
  return x >= 0 ? (x + bias) >> shift : -((-x + bias) >> shift);
}

std::int8_t requantize(std::int32_t acc, const Requant& rq) {
  // |acc| <= 2^31 and multiplier < 2^31, so the product fits int64 exactly.
  const std::int64_t product =
      static_cast<std::int64_t>(acc) * static_cast<std::int64_t>(rq.multiplier);
  const std::int64_t scaled = rounding_shift_right(product, rq.shift);
  return static_cast<std::int8_t>(std::clamp<std::int64_t>(scaled, kQmin, kQmax));
}

float amax_of(const float* values, std::int64_t count) {
  // Every |v| is at least +0 and a NaN never replaces a maximum, so the
  // result does not depend on the order of the values: independent lanes
  // give the serial loop's float, without its dependency chain.
  constexpr std::int64_t kLanes = 16;
  float lanes[kLanes] = {};
  std::int64_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    for (std::int64_t l = 0; l < kLanes; ++l) {
      lanes[l] = std::max(lanes[l], std::fabs(values[i + l]));
    }
  }
  float amax = 0.0f;
  for (; i < count; ++i) amax = std::max(amax, std::fabs(values[i]));
  for (const float lane : lanes) amax = std::max(amax, lane);
  return amax;
}

std::vector<float> weight_scales(const float* weights, std::int64_t channels,
                                 std::int64_t per_channel,
                                 Granularity granularity) {
  std::vector<float> scales;
  if (granularity == Granularity::kPerTensor) {
    scales.push_back(choose_scale(amax_of(weights, channels * per_channel)));
    return scales;
  }
  scales.reserve(static_cast<std::size_t>(channels));
  for (std::int64_t c = 0; c < channels; ++c) {
    scales.push_back(choose_scale(amax_of(weights + c * per_channel, per_channel)));
  }
  return scales;
}

}  // namespace dnnv::quant
