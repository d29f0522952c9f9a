// Quantization math shared by the int8 inference engine: the scalar
// definitions, and the inline rounding and requantize-row kernels that the
// engine's per-element loops vectorize.
//
// Scheme: symmetric int8 (zero point 0) with codes clamped to [-127, 127]
// for weights AND activations, so negation never overflows and the dequant
// map is value = scale * code. Accumulation is int32; the accumulator is
// rescaled to the next layer's activation grid with a fixed-point multiplier
// (Q31 mantissa + right shift) — no float touches the inner loops.
#ifndef DNNV_QUANT_QUANTIZE_H_
#define DNNV_QUANT_QUANTIZE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace dnnv::quant {

/// Symmetric int8 code range. -128 is intentionally unused (symmetry; |q| is
/// always representable, and the dequant error bound is scale/2 everywhere).
inline constexpr std::int32_t kQmin = -127;
inline constexpr std::int32_t kQmax = 127;

/// Weight/activation quantization granularity.
enum class Granularity : std::uint8_t { kPerTensor = 0, kPerChannel = 1 };

/// How activation clip ranges are calibrated over the representative pool.
enum class CalibrationMethod : std::uint8_t { kMinMax = 0, kPercentile = 1 };

/// Post-training quantization options.
struct QuantConfig {
  Granularity weight_granularity = Granularity::kPerChannel;
  CalibrationMethod calibration = CalibrationMethod::kMinMax;
  /// Fraction of |activation| mass kept inside the clip range (kPercentile).
  double percentile = 0.999;
  /// Cap on calibration items actually swept (pools can be huge).
  std::int64_t max_calibration_items = 256;
};

/// scale s such that dequant(q) = s * q covers [-amax, amax] with 127 steps.
/// amax == 0 (dead tensor/channel) falls back to 1 so codes stay exact zeros.
float choose_scale(float amax);

/// Nearest code to an already-scaled float: ties round half away from zero,
/// values past the code range (±inf included) saturate to kQmin / kQmax, and
/// NaN maps to 0. Branch-free, so a loop over it vectorizes.
inline std::int8_t round_to_code(float scaled) {
  const float c = std::isnan(scaled) ? 0.0f
                                     : std::min(std::max(scaled, -127.0f),
                                                127.0f);
  // 2c is exact, and trunc(2c) - trunc(c) steps one code away from zero
  // exactly when |c - trunc(c)| >= 0.5. Rounding by floor(|c| + 0.5f) would
  // not be exact: it rounds 0.49999997f up to 1.
  return static_cast<std::int8_t>(static_cast<std::int32_t>(2.0f * c) -
                                  static_cast<std::int32_t>(c));
}

/// round_to_code(value / scale).
std::int8_t quantize_value(float value, float scale);

/// Fixed-point representation of a positive real requantization ratio
/// r = multiplier * 2^-shift, multiplier a Q31 mantissa in [2^30, 2^31).
/// r == 0 (dead channel) is encoded as multiplier 0.
struct Requant {
  std::int32_t multiplier = 0;
  std::int32_t shift = 0;
};

/// Encodes r (must be >= 0 and finite) as a Requant.
Requant requant_from_real(double r);

/// x * 2^-shift with ties rounding half away from zero. shift in [0, 62].
std::int64_t rounding_shift_right(std::int64_t x, std::int32_t shift);

/// Rescales an int32 accumulator onto the output int8 grid:
/// sat8(round(acc * multiplier * 2^-shift)). Pure 64-bit integer arithmetic;
/// saturates to [kQmin, kQmax] (including for acc at the int32 extremes).
std::int8_t requantize(std::int32_t acc, const Requant& rq);

/// int32 accumulator + int32 bias with saturation (hardware adders clamp,
/// they do not wrap).
inline std::int32_t sat_add(std::int32_t acc, std::int32_t bias) {
  const std::int64_t sum = std::int64_t{acc} + bias;
  return static_cast<std::int32_t>(std::min<std::int64_t>(
      std::max<std::int64_t>(sum, std::numeric_limits<std::int32_t>::min()),
      std::numeric_limits<std::int32_t>::max()));
}

/// The int8 layers' epilogue over one channel's accumulator row:
/// out[i] = requantize((sat_add(acc[i], bias) | acc_or) & acc_and, rq).
/// The masks are the armed accumulator stuck-at; a clean channel passes
/// acc_or = 0, acc_and = -1. Equal to the scalar definition for every input,
/// but branch-free and inline, so the loop vectorizes.
inline void requantize_row(const std::int32_t* acc, std::int64_t count,
                           std::int32_t bias, const Requant& rq,
                           std::int32_t acc_or, std::int32_t acc_and,
                           std::int8_t* out) {
  // Locals, not rq's fields: `out` may alias them, which would keep their
  // loads inside the loop. rounding_shift_right without its sign branch: a
  // negative product rounds half away from zero as
  // floor((p + half - 1) / 2^shift); shift 0 adds nothing either way.
  const std::int64_t multiplier = rq.multiplier;
  const std::int32_t shift = rq.shift;
  const std::int64_t half = (std::int64_t{1} << shift) >> 1;
  const std::int64_t neg_adjust = shift > 0 ? -1 : 0;
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int32_t a = (sat_add(acc[i], bias) | acc_or) & acc_and;
    const std::int64_t p = a * multiplier;
    const std::int64_t s = (p + half + ((p >> 63) & neg_adjust)) >> shift;
    out[i] = static_cast<std::int8_t>(
        std::min<std::int64_t>(std::max<std::int64_t>(s, kQmin), kQmax));
  }
}

/// max |values[i]| over a range (0 for empty).
float amax_of(const float* values, std::int64_t count);

/// Per-channel scales for a [channels, per_channel] weight matrix; per-tensor
/// granularity returns a single scale replicated per channel by the caller.
std::vector<float> weight_scales(const float* weights, std::int64_t channels,
                                 std::int64_t per_channel,
                                 Granularity granularity);

}  // namespace dnnv::quant

#endif  // DNNV_QUANT_QUANTIZE_H_
