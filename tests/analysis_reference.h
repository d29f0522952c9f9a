// Reference interval range pass (the oracle for analysis::analyze_ranges).
// Only tests use it; nothing under src/ does.
//
// It walks the model as the pass does, but bounds each conv/dense channel
// tap by tap from the definition: for every nonzero weight w it asks
// analysis::tap_interval for the interval [x.lo, x.hi] that tap reads and
// adds min(w x.lo, w x.hi) and max(w x.lo, w x.hi) to the channel's bounds.
// The engine's pass instead sums each channel's positive and negative codes
// over the taps of one input entry; both are exact in integers, so every
// interval, overflow flag and counter must match bit for bit. The quantize
// step, the input-domain clamp, the saturating bias add, the requant
// endpoints and the LUT image are the pass's own definitions, restated here.
#ifndef DNNV_TESTS_ANALYSIS_REFERENCE_H_
#define DNNV_TESTS_ANALYSIS_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "analysis/range_analysis.h"
#include "quant/quant_model.h"
#include "quant/quantize.h"

namespace dnnv::analysis::reference {

inline constexpr std::int64_t kI32Min =
    std::numeric_limits<std::int32_t>::min();
inline constexpr std::int64_t kI32Max =
    std::numeric_limits<std::int32_t>::max();

inline ModelRange interval_ranges(const quant::QuantModel& model,
                                  const RangeOptions& options = {}) {
  const auto sat32 = [](std::int64_t v) {
    return std::clamp(v, kI32Min, kI32Max);
  };
  const auto code = [](double v) {
    return std::clamp<std::int64_t>(std::llround(v), quant::kQmin,
                                    quant::kQmax);
  };

  const std::vector<quant::QLayer>& layers = model.layers();
  ModelRange mr;
  mr.layers.resize(layers.size());
  std::vector<Interval> cur;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const quant::QLayer& q = layers[li];
    LayerRange& lr = mr.layers[li];
    lr.kind = q.kind;
    lr.in = cur;
    switch (q.kind) {
      case quant::QLayerKind::kQuantize:
        if (!options.input_domains.empty()) {
          cur.clear();
          for (const Interval& d : options.input_domains) {
            cur.push_back(Interval{
                std::clamp<std::int64_t>(d.lo, quant::kQmin, quant::kQmax),
                std::clamp<std::int64_t>(std::max(d.lo, d.hi), quant::kQmin,
                                         quant::kQmax)});
          }
        } else if (options.assume_input_domain) {
          const double inv = 1.0 / (static_cast<double>(q.input_norm_scale) *
                                    static_cast<double>(q.out_scale));
          const double a =
              (static_cast<double>(options.input_lo) - q.input_mean) * inv;
          const double b =
              (static_cast<double>(options.input_hi) - q.input_mean) * inv;
          cur.assign(1, Interval{code(std::min(a, b)), code(std::max(a, b))});
        } else {
          cur.assign(1, Interval{quant::kQmin, quant::kQmax});
        }
        lr.out = cur;
        break;

      case quant::QLayerKind::kConv2d:
      case quant::QLayerKind::kDense: {
        const std::int64_t channels = quant::weight_channels(q);
        const std::int64_t fanin = quant::weight_fanin(q);
        const auto nch = static_cast<std::size_t>(channels);
        lr.acc.resize(nch);
        lr.overflow.assign(nch, 0);
        lr.out.resize(nch);
        for (std::int64_t c = 0; c < channels; ++c) {
          const auto sc = static_cast<std::size_t>(c);
          std::int64_t lo = 0;
          std::int64_t hi = 0;
          for (std::int64_t i = 0; i < fanin; ++i) {
            const std::int64_t w =
                q.weights[static_cast<std::size_t>(c * fanin + i)];
            if (w == 0) continue;
            const Interval x = tap_interval(q, lr.in, i);
            lo += std::min(w * x.lo, w * x.hi);
            hi += std::max(w * x.lo, w * x.hi);
          }
          const std::int64_t bias = q.bias_i32.empty() ? 0 : q.bias_i32[sc];
          if (lo < kI32Min || hi > kI32Max) {
            lr.overflow[sc] = 1;
            ++mr.overflow_channels;
            lr.acc[sc] = Interval{kI32Min, kI32Max};
          } else {
            lr.acc[sc] = Interval{lo + bias, hi + bias};
            if (lr.acc[sc].lo < kI32Min || lr.acc[sc].hi > kI32Max) {
              ++mr.saturable_channels;
            }
          }
          if (q.dequant_output) {
            lr.out[sc] = Interval{sat32(lr.acc[sc].lo), sat32(lr.acc[sc].hi)};
          } else {
            const quant::Requant rq = q.requant[sc];
            lr.out[sc] = Interval{
                quant::requantize(
                    static_cast<std::int32_t>(sat32(lr.acc[sc].lo)), rq),
                quant::requantize(
                    static_cast<std::int32_t>(sat32(lr.acc[sc].hi)), rq)};
            if (lr.out[sc] == Interval{0, 0}) ++mr.dead_channels;
          }
        }
        cur = lr.out;
        break;
      }

      case quant::QLayerKind::kActivation:
        for (Interval& x : cur) x = lut_image(q.lut, x);
        lr.out = cur;
        break;

      case quant::QLayerKind::kMaxPool:
      case quant::QLayerKind::kFlatten:
        lr.out = cur;
        break;
    }
  }
  return mr;
}

}  // namespace dnnv::analysis::reference

#endif  // DNNV_TESTS_ANALYSIS_REFERENCE_H_
