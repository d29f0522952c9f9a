#include "analysis/range_analysis.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "quant/observer.h"
#include "quant/quantize.h"
#include "util/error.h"

namespace dnnv::analysis {
namespace {

constexpr std::int64_t kI32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int64_t kI32Max = std::numeric_limits<std::int32_t>::max();

std::int64_t sat32(std::int64_t v) { return std::clamp(v, kI32Min, kI32Max); }

/// Quantize-layer output interval. The engine clamps every code into
/// [-127, 127], so that is the unconditional answer; a declared float input
/// domain tightens it through the exact rounding the engine uses.
Interval quantize_interval(const quant::QLayer& q,
                           const RangeOptions& options) {
  Interval out{quant::kQmin, quant::kQmax};
  if (!options.assume_input_domain) return out;
  const double inv = 1.0 / (static_cast<double>(q.input_norm_scale) *
                            static_cast<double>(q.out_scale));
  const double a =
      (static_cast<double>(options.input_lo) - q.input_mean) * inv;
  const double b =
      (static_cast<double>(options.input_hi) - q.input_mean) * inv;
  const std::int64_t ca =
      std::clamp<std::int64_t>(std::llround(std::min(a, b)),
                               quant::kQmin, quant::kQmax);
  const std::int64_t cb =
      std::clamp<std::int64_t>(std::llround(std::max(a, b)),
                               quant::kQmin, quant::kQmax);
  return Interval{ca, cb};
}

/// An input_domains entry as the quantize layer sees it: the engine
/// saturates into [kQmin, kQmax], and lo > hi reads as the singleton {lo}.
Interval clamp_domain(const Interval& d) {
  return Interval{
      std::clamp<std::int64_t>(d.lo, quant::kQmin, quant::kQmax),
      std::clamp<std::int64_t>(std::max(d.lo, d.hi), quant::kQmin,
                               quant::kQmax)};
}

/// Taps [begin, end) of a conv/dense row that all read one input entry, and
/// that entry's tap_interval with its ends in order (x.lo <= x.hi).
struct TapRun {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  Interval x;
};

/// Splits the fanin of conv/dense layer `q` into the runs of taps that
/// tap_interval maps to one entry of `in`: every tap when there is one
/// entry; otherwise `group` taps per entry (kernel * kernel for a conv,
/// in_features / in.size() for a dense layer) with the last entry also
/// taking the taps past the end, and every tap on entry 0 when the group is
/// empty. With no entry at all, tap_interval's error surfaces at the first
/// nonzero weight, where the tap-by-tap pass raised it.
std::vector<TapRun> tap_runs(const quant::QLayer& q,
                             const std::vector<Interval>& in) {
  const std::int64_t fanin = quant::weight_fanin(q);
  if (in.empty()) {
    const auto taps = q.weights.begin() +
                      static_cast<std::ptrdiff_t>(quant::weight_channels(q) *
                                                  fanin);
    const auto nonzero = std::find_if(q.weights.begin(), taps,
                                      [](std::int8_t w) { return w != 0; });
    if (nonzero != taps) tap_interval(q, in, 0);  // throws
    return {};
  }
  const auto entries = static_cast<std::int64_t>(in.size());
  std::int64_t group = fanin;
  if (entries > 1) {
    group = q.kind == quant::QLayerKind::kConv2d ? q.kernel * q.kernel
                                                 : q.in_features / entries;
  }
  const std::int64_t count = group > 0 ? entries : 1;
  std::vector<TapRun> runs;
  std::int64_t begin = 0;
  for (std::int64_t e = 0; e < count && begin < fanin; ++e) {
    const std::int64_t end =
        e + 1 == count ? fanin : std::min(fanin, begin + group);
    const Interval x = tap_interval(q, in, begin);
    runs.push_back({begin, end,
                    Interval{std::min(x.lo, x.hi), std::max(x.lo, x.hi)}});
    begin = end;
  }
  return runs;
}

/// Bounds of the sum over the run's taps of w[i] * x, x in run.x, for the
/// weight row `w`: x.lo P + x.hi N and x.hi P + x.lo N, where P and N sum
/// the row's positive and negative codes over the run. Each chunk of at
/// most 2^24 codes sums in int32 lanes, which vectorize on every x86-64
/// target (|sum| <= 128 * 2^24 = 2^31 cannot overflow), then widens.
Interval run_bounds(const std::int8_t* w, const TapRun& run) {
  constexpr std::int64_t kChunk = std::int64_t{1} << 24;
  std::int64_t pos = 0;
  std::int64_t neg = 0;
  for (std::int64_t begin = run.begin; begin < run.end; begin += kChunk) {
    const std::int64_t end = std::min(run.end, begin + kChunk);
    std::int32_t chunk_pos = 0;
    std::int32_t chunk_neg = 0;
    for (std::int64_t i = begin; i < end; ++i) {
      chunk_pos += std::max<std::int32_t>(w[i], 0);
      chunk_neg += std::min<std::int32_t>(w[i], 0);
    }
    pos += chunk_pos;
    neg += chunk_neg;
  }
  return Interval{run.x.lo * pos + run.x.hi * neg,
                  run.x.hi * pos + run.x.lo * neg};
}

}  // namespace

const char* to_string(RangeDomain domain) {
  switch (domain) {
    case RangeDomain::kInterval: return "interval";
    case RangeDomain::kAffine: return "affine";
  }
  return "?";
}

RangeDomain range_domain(const std::string& name) {
  if (name == "interval") return RangeDomain::kInterval;
  if (name == "affine") return RangeDomain::kAffine;
  DNNV_THROW("unknown range domain '" << name << "' (interval|affine)");
}

Interval tap_interval(const quant::QLayer& q, const std::vector<Interval>& in,
                      std::int64_t tap) {
  DNNV_CHECK(!in.empty(), "tap_interval: layer '" << q.name
                                                  << "' has no input state");
  std::size_t entry = 0;
  if (in.size() > 1) {
    std::int64_t ic = 0;
    if (q.kind == quant::QLayerKind::kConv2d) {
      ic = tap / (q.kernel * q.kernel);
    } else {
      // Dense over a flattened feature map: features of one source channel
      // are contiguous, in.size() channels cover in_features evenly.
      const std::int64_t group =
          q.in_features / static_cast<std::int64_t>(in.size());
      ic = group > 0 ? tap / group : 0;
    }
    entry = static_cast<std::size_t>(
        std::clamp<std::int64_t>(ic, 0,
                                 static_cast<std::int64_t>(in.size()) - 1));
  }
  Interval x = in[entry];
  if (q.kind == quant::QLayerKind::kConv2d && q.pad > 0) {
    // Padded positions feed code 0 into the tap.
    x.lo = std::min<std::int64_t>(x.lo, 0);
    x.hi = std::max<std::int64_t>(x.hi, 0);
  }
  return x;
}

Interval lut_image(const std::array<std::int8_t, 256>& lut,
                   const Interval& codes) {
  const std::int64_t lo = std::clamp<std::int64_t>(codes.lo, -128, 127);
  const std::int64_t hi = std::clamp<std::int64_t>(codes.hi, -128, 127);
  Interval image{127, -128};
  for (std::int64_t c = lo; c <= hi; ++c) {
    const std::int8_t v =
        lut[static_cast<std::uint8_t>(static_cast<std::int8_t>(c))];
    image.lo = std::min<std::int64_t>(image.lo, v);
    image.hi = std::max<std::int64_t>(image.hi, v);
  }
  return image;
}

ModelRange analyze_ranges(const quant::QuantModel& model,
                          const RangeOptions& options) {
  const std::vector<quant::QLayer>& layers = model.layers();
  ModelRange mr;
  mr.layers.resize(layers.size());

  // Current per-channel code interval flowing between layers (size 1 ==
  // shared by every channel).
  std::vector<Interval> cur;

  for (std::size_t li = 0; li < layers.size(); ++li) {
    const quant::QLayer& q = layers[li];
    LayerRange& lr = mr.layers[li];
    lr.kind = q.kind;
    lr.in = cur;

    switch (q.kind) {
      case quant::QLayerKind::kQuantize:
        if (!options.input_domains.empty()) {
          // Calibration-conditioned per-channel domains; the engine still
          // saturates into [kQmin, kQmax], so clamp each entry there.
          cur.resize(options.input_domains.size());
          for (std::size_t c = 0; c < cur.size(); ++c) {
            cur[c] = clamp_domain(options.input_domains[c]);
          }
        } else {
          cur.assign(1, quantize_interval(q, options));
        }
        lr.out = cur;
        break;

      case quant::QLayerKind::kConv2d:
      case quant::QLayerKind::kDense: {
        const std::int64_t channels = quant::weight_channels(q);
        const std::int64_t fanin = quant::weight_fanin(q);
        const std::size_t nch = static_cast<std::size_t>(channels);
        lr.acc.resize(nch);
        lr.overflow.assign(nch, 0);
        lr.out.resize(nch);
        const std::vector<TapRun> runs = tap_runs(q, lr.in);
        for (std::int64_t c = 0; c < channels; ++c) {
          const std::size_t sc = static_cast<std::size_t>(c);
          // Raw int32 gemm sum bounds on the exact int64 grid.
          const std::int8_t* row = q.weights.data() + c * fanin;
          std::int64_t lo = 0;
          std::int64_t hi = 0;
          for (const TapRun& run : runs) {
            const Interval sum = run_bounds(row, run);
            lo += sum.lo;
            hi += sum.hi;
          }
          const std::int64_t bias =
              q.bias_i32.empty() ? 0 : q.bias_i32[sc];
          if (lo < kI32Min || hi > kI32Max) {
            // The raw sum lives in a plain int32 accumulator and can wrap;
            // after wrapping any int32 value is possible — widen and make no
            // finer claim for this channel.
            lr.overflow[sc] = 1;
            ++mr.overflow_channels;
            lr.acc[sc] = Interval{kI32Min, kI32Max};
          } else {
            // sat_add clamps the biased sum into int32; keep the
            // pre-saturation interval (requant consumers apply sat32).
            lr.acc[sc] = Interval{lo + bias, hi + bias};
            if (lr.acc[sc].lo < kI32Min || lr.acc[sc].hi > kI32Max) {
              ++mr.saturable_channels;
            }
          }
          if (q.dequant_output) {
            lr.out[sc] =
                Interval{sat32(lr.acc[sc].lo), sat32(lr.acc[sc].hi)};
          } else {
            const quant::Requant rq = q.requant[sc];
            // requantize is monotone nondecreasing in the accumulator
            // (multiplier >= 0), so the image of an interval is exactly the
            // interval between its endpoint images.
            lr.out[sc] = Interval{
                quant::requantize(static_cast<std::int32_t>(
                                      sat32(lr.acc[sc].lo)), rq),
                quant::requantize(static_cast<std::int32_t>(
                                      sat32(lr.acc[sc].hi)), rq)};
            if (lr.out[sc] == Interval{0, 0}) ++mr.dead_channels;
          }
        }
        cur = lr.out;
        break;
      }

      case quant::QLayerKind::kActivation: {
        for (Interval& x : cur) x = lut_image(q.lut, x);
        lr.out = cur;
        break;
      }

      case quant::QLayerKind::kMaxPool:
      case quant::QLayerKind::kFlatten:
        // Value-preserving per channel: max over a window of an interval
        // stays inside the interval; flatten is shape-only.
        lr.out = cur;
        break;
    }
  }
  return mr;
}

bool input_domains_narrow(const std::vector<Interval>& domains) {
  const Interval grid{quant::kQmin, quant::kQmax};
  return std::any_of(domains.begin(), domains.end(), [&](const Interval& d) {
    return clamp_domain(d) != grid;
  });
}

std::vector<Interval> calibrated_input_domains(
    const quant::QuantModel& model, const std::vector<Tensor>& pool) {
  if (pool.empty()) return {};
  const std::vector<quant::QLayer>& layers = model.layers();
  DNNV_CHECK(!layers.empty() &&
                 layers.front().kind == quant::QLayerKind::kQuantize,
             "calibrated_input_domains: model has no quantize layer");
  const quant::QLayer& q = layers.front();

  const Shape& shape = pool.front().shape();
  const std::int64_t numel = shape.numel();
  const std::int64_t channels = shape.ndim() > 1 ? shape[0] : numel;
  DNNV_CHECK(channels > 0 && numel % channels == 0,
             "calibrated_input_domains: item shape " << shape
                                                     << " has no channel dim");
  quant::RangeObserver observer(channels, numel / channels);
  for (const Tensor& item : pool) {
    DNNV_CHECK(item.numel() == numel,
               "calibrated_input_domains: pool items disagree on shape");
    observer.observe(item.data(), item.numel());
  }

  // Map the float extremes through the EXACT quantize rounding (monotone:
  // input_norm_scale and out_scale are both positive).
  const double inv = 1.0 / (static_cast<double>(q.input_norm_scale) *
                            static_cast<double>(q.out_scale));
  std::vector<Interval> domains(static_cast<std::size_t>(channels));
  for (std::int64_t c = 0; c < channels; ++c) {
    const double a =
        (static_cast<double>(observer.min_of(c)) - q.input_mean) * inv;
    const double b =
        (static_cast<double>(observer.max_of(c)) - q.input_mean) * inv;
    domains[static_cast<std::size_t>(c)] = Interval{
        std::clamp<std::int64_t>(std::llround(std::min(a, b)), quant::kQmin,
                                 quant::kQmax),
        std::clamp<std::int64_t>(std::llround(std::max(a, b)), quant::kQmin,
                                 quant::kQmax)};
  }
  return domains;
}

}  // namespace dnnv::analysis
