#include "analysis/affine_domain.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include "quant/quantize.h"
#include "tensor/shape.h"
#include "util/error.h"

namespace dnnv::analysis {
namespace {

using I128 = __int128;

constexpr int kF = kAffineFracBits;
constexpr std::int64_t kUnit = std::int64_t{1} << kF;
/// Coefficient / scalar magnitude guards: a form whose fixed-point parts
/// outgrow these collapses to its interval hull (sound, just not relational)
/// instead of risking overflow further downstream.
constexpr std::int64_t kCoefLimit = std::int64_t{1} << 55;
constexpr std::int64_t kScalarLimit = std::int64_t{1} << 61;
/// Work ceiling: the pass degrades to the interval result when the densest
/// layer's neuron count times the symbol count, at 8 bytes per pair,
/// exceeds it (paper-scale conv stacks; the tiny and default zoo run fully
/// relational). Forms are sparse, so this bounds the per-layer scatter and
/// sort work rather than storage.
constexpr std::int64_t kMemoryCeiling = std::int64_t{768} << 20;
/// Segment budget of the per-channel requant walk (an int8 image has at
/// most 255 jumps; fails closed into an interval collapse).
constexpr int kSegmentBudget = 300;

constexpr std::int64_t kI32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int64_t kI32Max = std::numeric_limits<std::int32_t>::max();

std::int64_t sat32(std::int64_t v) { return std::clamp(v, kI32Min, kI32Max); }

int rq_of(std::int64_t biased_acc, const quant::Requant& rq) {
  return quant::requantize(static_cast<std::int32_t>(sat32(biased_acc)), rq);
}

/// x * 2^-sh with ties away from zero (the engine's rounding).
std::int64_t rs128(I128 x, int sh) {
  const I128 half = I128{1} << (sh - 1);
  const I128 r = x >= 0 ? (x + half) >> sh : -((-x + half) >> sh);
  return static_cast<std::int64_t>(r);
}

/// ceil(x / 2^sh) — arithmetic shift is floor, so add (2^sh - 1) first.
std::int64_t shr_ceil(I128 x, int sh) {
  return static_cast<std::int64_t>((x + ((I128{1} << sh) - 1)) >> sh);
}

/// floor(x / 2^sh).
std::int64_t shr_floor(I128 x, int sh) {
  return static_cast<std::int64_t>(x >> sh);
}

/// One nonzero coefficient of a form: coef * x_sym.
struct Term {
  std::int64_t sym = 0;
  std::int64_t coef = 0;
};

/// Uncentered affine form over the input-neuron symbols:
///   value = (bias + sum coef * x_sym + e) / 2^kF, |e| <= slack / 2^kF,
/// stored as its nonzero terms in ascending symbol order. No terms is a
/// constant form (hull [bias-slack, bias+slack] / 2^kF).
struct Form {
  std::vector<Term> terms;
  std::int64_t bias = 0;
  std::int64_t slack = 0;
};

/// Constant form covering the integer interval [iv.lo, iv.hi] exactly.
Form constant_form(const Interval& iv) {
  Form f;
  const std::int64_t width = (iv.hi - iv.lo) * kUnit;
  f.bias = iv.lo * kUnit + width / 2;
  f.slack = width - width / 2;
  return f;
}

Interval intersect_or(const Interval& a, const Interval& fallback) {
  Interval m{std::max(a.lo, fallback.lo), std::min(a.hi, fallback.hi)};
  return m.lo <= m.hi ? m : fallback;
}

/// One linearization: output = qbase + (lam40 * (t - dlo) + d40(t)) / 2^40
/// with d40(t) in [emin40, emax40] over the whole domain.
struct Linearization {
  bool ok = false;
  int qbase = 0;
  std::int64_t dlo = 0;
  std::int64_t lam40 = 0;
  std::int64_t emin40 = 0;
  std::int64_t emax40 = 0;
};

/// Segment ends of one channel's requant step function (monotone
/// nondecreasing in the accumulator) over the channel's accumulator hull:
/// last[v - kQmin] is the greatest hull point whose output code is v, for
/// every code v the hull reaches. Found by one bisection walk per channel;
/// `ok` is false when the walk needs more than kSegmentBudget segments or
/// the function decreases across the hull (fail closed).
struct SegmentTable {
  bool ok = false;
  std::array<std::int64_t, 256> last{};
};

std::size_t code_slot(int v) {
  return static_cast<std::size_t>(v - quant::kQmin);
}

SegmentTable requant_segments(const quant::Requant& rq, const Interval& hull) {
  SegmentTable table;
  if (hull.lo > hull.hi) return table;
  const int qhi = rq_of(hull.hi, rq);
  if (rq_of(hull.lo, rq) > qhi) return table;
  std::int64_t a = hull.lo;
  for (int guard = 0; guard < kSegmentBudget; ++guard) {
    const int v = rq_of(a, rq);
    std::int64_t b = hull.hi;
    if (qhi != v) {
      std::int64_t x_lo = a;
      std::int64_t x_hi = hull.hi;  // rq_of(x_lo) == v < rq_of(x_hi)
      while (x_lo + 1 < x_hi) {
        const std::int64_t mid = x_lo + (x_hi - x_lo) / 2;
        if (rq_of(mid, rq) == v) {
          x_lo = mid;
        } else {
          x_hi = mid;
        }
      }
      b = x_lo;
    }
    table.last[code_slot(v)] = b;
    if (b == hull.hi) {
      table.ok = true;
      return table;
    }
    a = b + 1;
  }
  return table;  // budget exceeded: the channel collapses to interval hulls
}

/// Exact error band of the secant line against the requant step function
/// on [dlo, dhi], a sub-domain of `table`'s hull. Within a constant segment
/// the line is nondecreasing, so the band extremes sit at segment
/// endpoints; the table supplies each segment's end.
Linearization linearize_requant(const quant::Requant& rq,
                                const SegmentTable& table, std::int64_t dlo,
                                std::int64_t dhi) {
  Linearization lin;
  lin.dlo = dlo;
  const int qlo = rq_of(dlo, rq);
  const int qhi = rq_of(dhi, rq);
  lin.qbase = qlo;
  if (qlo > qhi || dlo > dhi) return lin;  // fail closed on misbehavior
  if (qlo == qhi) {
    lin.ok = true;  // constant segment: lam40 = 0, zero band
    return lin;
  }
  if (!table.ok) return lin;
  const I128 num = I128{qhi - qlo} << 40;
  const I128 den = dhi - dlo;
  lin.lam40 = static_cast<std::int64_t>((num + den / 2) / den);

  I128 emin = 0, emax = 0;
  const auto fold = [&](int v, std::int64_t t) {
    const I128 d =
        (I128{v - qlo} << 40) - static_cast<I128>(lin.lam40) * (t - dlo);
    emin = std::min(emin, d);
    emax = std::max(emax, d);
  };
  std::int64_t a = dlo;
  int v = qlo;
  while (v < qhi) {
    const std::int64_t b = table.last[code_slot(v)];
    fold(v, a);
    fold(v, b);
    a = b + 1;
    const int next = rq_of(a, rq);
    if (next <= v || next > qhi) return lin;  // table/domain mismatch
    v = next;
  }
  fold(qhi, a);
  fold(qhi, dhi);
  lin.emin40 = static_cast<std::int64_t>(emin);
  lin.emax40 = static_cast<std::int64_t>(emax);
  lin.ok = true;
  return lin;
}

/// Least-squares / secant linearization of an arbitrary (possibly
/// non-monotone) LUT over an enumerable code domain — the error band is
/// exact by full enumeration, so ANY slope is sound; we pick the tighter of
/// the two candidates.
Linearization linearize_lut(const std::array<std::int8_t, 256>& lut,
                            std::int64_t dlo, std::int64_t dhi) {
  Linearization lin;
  lin.dlo = dlo;
  const auto at = [&](std::int64_t c) -> int {
    return lut[static_cast<std::uint8_t>(static_cast<std::int8_t>(c))];
  };
  lin.qbase = at(dlo);
  if (dlo == dhi) {
    lin.ok = true;
    return lin;
  }

  const std::int64_t n = dhi - dlo + 1;
  double sum_v = 0.0;
  for (std::int64_t c = dlo; c <= dhi; ++c) sum_v += at(c);
  const double mean_c = static_cast<double>(dlo + dhi) / 2.0;
  const double mean_v = sum_v / static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0;
  for (std::int64_t c = dlo; c <= dhi; ++c) {
    const double dc = static_cast<double>(c) - mean_c;
    sxy += dc * (static_cast<double>(at(c)) - mean_v);
    sxx += dc * dc;
  }
  const std::int64_t secant40 = static_cast<std::int64_t>(
      (I128{at(dhi) - lin.qbase} << 40) / (dhi - dlo));
  const std::int64_t ls40 =
      sxx > 0.0 ? static_cast<std::int64_t>(
                      std::llround(sxy / sxx * 1099511627776.0 /* 2^40 */))
                : secant40;

  const auto band = [&](std::int64_t lam40, std::int64_t& emin,
                        std::int64_t& emax) {
    I128 lo = 0, hi = 0;
    for (std::int64_t c = dlo; c <= dhi; ++c) {
      const I128 d = (I128{at(c) - lin.qbase} << 40) -
                     static_cast<I128>(lam40) * (c - dlo);
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    emin = static_cast<std::int64_t>(lo);
    emax = static_cast<std::int64_t>(hi);
  };
  std::int64_t emin_a = 0, emax_a = 0, emin_b = 0, emax_b = 0;
  band(secant40, emin_a, emax_a);
  band(ls40, emin_b, emax_b);
  if (emax_b - emin_b < emax_a - emin_a) {
    lin.lam40 = ls40;
    lin.emin40 = emin_b;
    lin.emax40 = emax_b;
  } else {
    lin.lam40 = secant40;
    lin.emin40 = emin_a;
    lin.emax40 = emax_a;
  }
  lin.ok = true;
  return lin;
}

/// The whole pass, one instance per analyze_ranges_affine call.
class AffinePass {
 public:
  AffinePass(const quant::QuantModel& model, const RangeOptions& options,
             ModelRange interval)
      : model_(model), options_(options), ref_(std::move(interval)) {}

  ModelRange run();

 private:
  Interval concretize(const Form& f) const {
    I128 lo = static_cast<I128>(f.bias) - f.slack;
    I128 hi = static_cast<I128>(f.bias) + f.slack;
    for (const Term& t : f.terms) {
      const std::size_t k = static_cast<std::size_t>(t.sym);
      const I128 a = static_cast<I128>(t.coef) * sym_lo_[k];
      const I128 b = static_cast<I128>(t.coef) * sym_hi_[k];
      lo += std::min(a, b);
      hi += std::max(a, b);
    }
    return Interval{shr_floor(lo, kF), shr_ceil(hi, kF)};
  }

  /// Exact sup of (fi - fj) over the joint symbol box, on the 2^kF grid: a
  /// merge of the two symbol-sorted term lists.
  I128 sup_difference(const Form& fi, const Form& fj) const {
    I128 sup = static_cast<I128>(fi.bias) - fj.bias +
               static_cast<I128>(fi.slack) + fj.slack;
    constexpr std::int64_t kEnd = std::numeric_limits<std::int64_t>::max();
    std::size_t i = 0, j = 0;
    while (i < fi.terms.size() || j < fj.terms.size()) {
      const std::int64_t si = i < fi.terms.size() ? fi.terms[i].sym : kEnd;
      const std::int64_t sj = j < fj.terms.size() ? fj.terms[j].sym : kEnd;
      const std::int64_t k = std::min(si, sj);
      std::int64_t d = 0;
      if (si == k) d += fi.terms[i++].coef;
      if (sj == k) d -= fj.terms[j++].coef;
      if (d == 0) continue;
      const std::size_t sk = static_cast<std::size_t>(k);
      sup += static_cast<I128>(d) * (d > 0 ? sym_hi_[sk] : sym_lo_[sk]);
    }
    return sup;
  }

  /// Composes `lin` onto `in`: out = lin(in) with every fixed-point
  /// rounding folded into slack. Falls back to the constant image form on a
  /// magnitude-guard trip.
  Form compose(const Form& in, const Linearization& lin,
               const Interval& image) const {
    // A zero slope carries no relational content; the enumerated/walked
    // image hull is exact and tighter than any slack reconstruction.
    if (lin.lam40 == 0) return constant_form(image);
    Form out;
    out.terms.reserve(in.terms.size());
    const std::int64_t alam = std::abs(lin.lam40);
    std::int64_t round_slack = 0;
    for (const Term& t : in.terms) {
      const std::int64_t oc = rs128(static_cast<I128>(lin.lam40) * t.coef, 40);
      if (std::abs(oc) > kCoefLimit) return constant_form(image);
      // |oc - lam40*c/2^40| <= 1/2 -> value error <= |x_k|/2 (2^kF units),
      // charged even when oc rounds to 0 and the term is dropped.
      round_slack += (sym_abs_[static_cast<std::size_t>(t.sym)] + 1) / 2;
      if (oc != 0) out.terms.push_back(Term{t.sym, oc});
    }
    const std::int64_t c40 = (lin.emin40 + lin.emax40) / 2;
    const std::int64_t h40 = std::max(lin.emax40 - c40, c40 - lin.emin40);
    const I128 bias_num =
        static_cast<I128>(lin.lam40) * (in.bias - lin.dlo * kUnit) +
        (I128{c40} << kF);
    out.bias = lin.qbase * kUnit + rs128(bias_num, 40);
    const I128 slack_num =
        static_cast<I128>(alam) * in.slack + (I128{h40} << kF);
    out.slack = shr_ceil(slack_num, 40) + round_slack + 1;
    if (std::abs(out.bias) > kScalarLimit || out.slack > kScalarLimit) {
      return constant_form(image);
    }
    return out;
  }

  void do_quantize(const quant::QLayer& q, std::size_t li);
  void do_matmul(const quant::QLayer& q, std::size_t li, ModelRange& mr);
  void do_activation(const quant::QLayer& q, std::size_t li);
  void do_maxpool(const quant::QLayer& q, std::size_t li);

  /// Met per-channel hull of the live forms against `ref` (same length —
  /// the interval pass and this one size their channel state identically).
  std::vector<Interval> met_channel_hulls(
      const std::vector<Interval>& ref) const {
    std::vector<Interval> out(ref.size());
    const std::int64_t group =
        static_cast<std::int64_t>(cur_.size()) /
        static_cast<std::int64_t>(std::max<std::size_t>(ref.size(), 1));
    for (std::size_t c = 0; c < ref.size(); ++c) {
      Interval h{std::numeric_limits<std::int64_t>::max(),
                 std::numeric_limits<std::int64_t>::min()};
      for (std::int64_t n = static_cast<std::int64_t>(c) * group;
           n < (static_cast<std::int64_t>(c) + 1) * group; ++n) {
        const Interval v = concretize(cur_[static_cast<std::size_t>(n)]);
        h.lo = std::min(h.lo, v.lo);
        h.hi = std::max(h.hi, v.hi);
      }
      out[c] = intersect_or(h, ref[c]);
    }
    return out;
  }

  const quant::QuantModel& model_;
  const RangeOptions& options_;
  ModelRange ref_;

  std::vector<std::int64_t> sym_lo_, sym_hi_, sym_abs_;
  std::vector<Form> cur_;           ///< per-neuron live forms
  std::vector<Interval> cur_ch_;    ///< met per-channel hull of cur_
  std::vector<std::int64_t> dims_;  ///< per-item dims of cur_
};

void AffinePass::do_quantize(const quant::QLayer& q, std::size_t li) {
  (void)q;
  const std::vector<Interval>& out = ref_.layers[li].out;  // 1 or C entries
  const std::size_t numel = cur_.size();
  const std::size_t group = numel / std::max<std::size_t>(out.size(), 1);
  sym_lo_.resize(numel);
  sym_hi_.resize(numel);
  sym_abs_.resize(numel);
  for (std::size_t k = 0; k < numel; ++k) {
    const Interval& d = out[std::min(k / group, out.size() - 1)];
    sym_lo_[k] = d.lo;
    sym_hi_[k] = d.hi;
    sym_abs_[k] = std::max(std::abs(d.lo), std::abs(d.hi));
    // Exact: the symbol IS this neuron's code.
    cur_[k] = Form{{Term{static_cast<std::int64_t>(k), kUnit}}, 0, 0};
  }
  cur_ch_ = out;
}

void AffinePass::do_matmul(const quant::QLayer& q, std::size_t li,
                           ModelRange& mr) {
  const bool conv = q.kind == quant::QLayerKind::kConv2d;
  const std::int64_t channels = quant::weight_channels(q);
  const std::int64_t fanin = quant::weight_fanin(q);

  std::int64_t oh = 1, ow = 1, ih = 1, iw = 1;
  if (conv) {
    ih = dims_[1];
    iw = dims_[2];
    oh = conv_out_dim(ih, q.kernel, q.stride, q.pad);
    ow = conv_out_dim(iw, q.kernel, q.stride, q.pad);
  }
  const std::int64_t plane = oh * ow;
  const std::int64_t out_numel = channels * plane;

  LayerRange& lr = mr.layers[li];
  const LayerRange& ref_lr = ref_.layers[li];
  lr.acc.resize(static_cast<std::size_t>(channels));
  lr.overflow.assign(static_cast<std::size_t>(channels), 0);
  lr.out.resize(static_cast<std::size_t>(channels));

  // Per-neuron scatter target: each tap's terms accumulate into `scratch`,
  // and `touched` lists the symbols written once each. `seen` marks them
  // rather than a zero test, because a sum that cancels back to zero may be
  // written again by a later tap.
  const std::size_t nsym = sym_lo_.size();
  std::vector<I128> scratch(nsym, 0);
  std::vector<std::uint8_t> seen(nsym, 0);
  std::vector<std::int64_t> touched;
  std::vector<Form> next(static_cast<std::size_t>(out_numel));
  std::vector<Interval> acc_hull(static_cast<std::size_t>(out_numel));
  std::vector<std::uint8_t> aff_overflow(static_cast<std::size_t>(channels),
                                         0);

  for (std::int64_t c = 0; c < channels; ++c) {
    const std::size_t sc = static_cast<std::size_t>(c);
    const std::int64_t bias =
        q.bias_i32.empty() ? 0 : q.bias_i32[sc];
    const std::int8_t* wrow =
        q.weights.data() + static_cast<std::size_t>(c * fanin);
    for (std::int64_t p = 0; p < plane; ++p) {
      const std::int64_t oy = p / ow;
      const std::int64_t ox = p % ow;
      I128 bias128 = 0, slack128 = 0;
      for (std::int64_t tap = 0; tap < fanin; ++tap) {
        const std::int64_t w = wrow[tap];
        if (w == 0) continue;
        std::int64_t in_index = tap;
        if (conv) {
          const std::int64_t ic = tap / (q.kernel * q.kernel);
          const std::int64_t ky = (tap / q.kernel) % q.kernel;
          const std::int64_t kx = tap % q.kernel;
          const std::int64_t y = oy * q.stride - q.pad + ky;
          const std::int64_t x = ox * q.stride - q.pad + kx;
          if (y < 0 || y >= ih || x < 0 || x >= iw) continue;  // pad: exact 0
          in_index = (ic * ih + y) * iw + x;
        }
        const Form& in = cur_[static_cast<std::size_t>(in_index)];
        bias128 += static_cast<I128>(w) * in.bias;
        slack128 += static_cast<I128>(std::abs(w)) * in.slack;
        for (const Term& t : in.terms) {
          const std::size_t k = static_cast<std::size_t>(t.sym);
          scratch[k] += static_cast<I128>(w) * t.coef;
          if (seen[k] == 0) {
            seen[k] = 1;
            touched.push_back(t.sym);
          }
        }
      }
      std::sort(touched.begin(), touched.end());
      // Raw gemm-sum hull on the exact grid (the taps' biases are part of
      // the raw sum; the layer bias is not).
      I128 rlo = bias128 - slack128;
      I128 rhi = bias128 + slack128;
      for (const std::int64_t k : touched) {
        const std::size_t sk = static_cast<std::size_t>(k);
        const I128 cc = scratch[sk];
        if (cc == 0) continue;
        const I128 a = cc * sym_lo_[sk];
        const I128 b = cc * sym_hi_[sk];
        rlo += std::min(a, b);
        rhi += std::max(a, b);
      }
      const std::int64_t raw_lo = shr_floor(rlo, kF);
      const std::int64_t raw_hi = shr_ceil(rhi, kF);

      Form& f = next[static_cast<std::size_t>(c * plane + p)];
      Interval& hull = acc_hull[static_cast<std::size_t>(c * plane + p)];
      bool collapse = false;
      if (raw_lo < kI32Min || raw_hi > kI32Max) {
        // The affine hull cannot rule the int32 wrap out for this neuron.
        if (ref_lr.overflow[sc] != 0) {
          // Neither pass can: anything int32 is possible after a wrap.
          aff_overflow[sc] = 1;
          hull = Interval{kI32Min, kI32Max};
        } else {
          // The interval pass proved absence; keep its (sound) hull.
          hull = ref_lr.acc[sc];
        }
        collapse = true;
      } else {
        hull = Interval{raw_lo + bias, raw_hi + bias};
        hull = intersect_or(hull, ref_lr.overflow[sc] != 0
                                      ? Interval{kI32Min, kI32Max}
                                      : ref_lr.acc[sc]);
      }

      if (!collapse) {
        for (const std::int64_t k : touched) {
          const I128 cc = scratch[static_cast<std::size_t>(k)];
          if (cc == 0) continue;
          if (cc > kCoefLimit || cc < -static_cast<I128>(kCoefLimit)) {
            collapse = true;
            break;
          }
          f.terms.push_back(Term{k, static_cast<std::int64_t>(cc)});
        }
        const I128 b128 = bias128 + static_cast<I128>(bias) * kUnit;
        if (!collapse &&
            (b128 > kScalarLimit || b128 < -static_cast<I128>(kScalarLimit) ||
             slack128 > kScalarLimit)) {
          collapse = true;
        }
        if (!collapse) {
          f.bias = static_cast<std::int64_t>(b128);
          f.slack = static_cast<std::int64_t>(slack128);
        }
      }
      if (collapse) f = constant_form(hull);
      for (const std::int64_t k : touched) {
        scratch[static_cast<std::size_t>(k)] = 0;
        seen[static_cast<std::size_t>(k)] = 0;
      }
      touched.clear();
    }
  }

  // Per-channel export: met acc hulls, merged overflow, requant/dequant out.
  for (std::int64_t c = 0; c < channels; ++c) {
    const std::size_t sc = static_cast<std::size_t>(c);
    lr.overflow[sc] =
        static_cast<std::uint8_t>(ref_lr.overflow[sc] != 0 &&
                                  aff_overflow[sc] != 0);
    Interval acc{std::numeric_limits<std::int64_t>::max(),
                 std::numeric_limits<std::int64_t>::min()};
    for (std::int64_t p = 0; p < plane; ++p) {
      const Interval& h = acc_hull[static_cast<std::size_t>(c * plane + p)];
      acc.lo = std::min(acc.lo, h.lo);
      acc.hi = std::max(acc.hi, h.hi);
    }
    if (lr.overflow[sc] != 0) {
      lr.acc[sc] = Interval{kI32Min, kI32Max};
      ++mr.overflow_channels;
    } else {
      lr.acc[sc] = intersect_or(
          acc, ref_lr.overflow[sc] != 0 ? Interval{kI32Min, kI32Max}
                                        : ref_lr.acc[sc]);
      if (lr.acc[sc].lo < kI32Min || lr.acc[sc].hi > kI32Max) {
        ++mr.saturable_channels;
      }
    }
  }

  // Through the non-linearity: requant (linearized per neuron against the
  // channel's segment table) or the logit dequant (sat32 is the identity on
  // the in-range hull).
  for (std::int64_t c = 0; c < channels; ++c) {
    const std::size_t sc = static_cast<std::size_t>(c);
    Interval out{std::numeric_limits<std::int64_t>::max(),
                 std::numeric_limits<std::int64_t>::min()};
    const auto domain_of = [&](std::int64_t p) {
      return intersect_or(acc_hull[static_cast<std::size_t>(c * plane + p)],
                          lr.acc[sc]);
    };
    if (q.dequant_output) {
      // The form (= saturated acc) is final; logits end the IR.
      for (std::int64_t p = 0; p < plane; ++p) {
        const Interval domain = domain_of(p);
        out.lo = std::min(out.lo, sat32(domain.lo));
        out.hi = std::max(out.hi, sat32(domain.hi));
      }
    } else {
      const quant::Requant rq = q.requant[sc];
      const SegmentTable table = requant_segments(rq, lr.acc[sc]);
      for (std::int64_t p = 0; p < plane; ++p) {
        Form& f = next[static_cast<std::size_t>(c * plane + p)];
        const Interval domain = domain_of(p);
        const Interval img{rq_of(domain.lo, rq), rq_of(domain.hi, rq)};
        const Linearization lin =
            linearize_requant(rq, table, domain.lo, domain.hi);
        f = lin.ok ? compose(f, lin, img) : constant_form(img);
        const Interval h = concretize(f);
        out.lo = std::min(out.lo, h.lo);
        out.hi = std::max(out.hi, h.hi);
      }
    }
    lr.out[sc] = intersect_or(out, ref_lr.out[sc]);
    if (!q.dequant_output && lr.out[sc] == Interval{0, 0}) {
      ++mr.dead_channels;
    }
  }

  cur_ = std::move(next);
  cur_ch_ = lr.out;
  dims_ = conv ? std::vector<std::int64_t>{channels, oh, ow}
               : std::vector<std::int64_t>{channels};
}

void AffinePass::do_activation(const quant::QLayer& q, std::size_t li) {
  const std::size_t group =
      cur_.size() / std::max<std::size_t>(cur_ch_.size(), 1);
  for (std::size_t n = 0; n < cur_.size(); ++n) {
    Form& f = cur_[n];
    const Interval in_ch = cur_ch_[std::min(n / group, cur_ch_.size() - 1)];
    Interval domain = intersect_or(concretize(f), in_ch);
    domain.lo = std::clamp<std::int64_t>(domain.lo, -128, 127);
    domain.hi = std::clamp<std::int64_t>(std::max(domain.lo, domain.hi),
                                         -128, 127);
    const Interval img = lut_image(q.lut, domain);
    const Linearization lin = linearize_lut(q.lut, domain.lo, domain.hi);
    f = lin.ok ? compose(f, lin, img) : constant_form(img);
  }
  cur_ch_ = met_channel_hulls(ref_.layers[li].out);
}

void AffinePass::do_maxpool(const quant::QLayer& q, std::size_t li) {
  const std::int64_t c = dims_[0], h = dims_[1], w = dims_[2];
  const std::int64_t oh = conv_out_dim(h, q.kernel, q.stride, 0);
  const std::int64_t ow = conv_out_dim(w, q.kernel, q.stride, 0);

  std::vector<Interval> hulls(cur_.size());
  for (std::size_t n = 0; n < cur_.size(); ++n) hulls[n] = concretize(cur_[n]);

  std::vector<Form> next(static_cast<std::size_t>(c * oh * ow));
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        // Window member with the greatest lower bound leads; the output is
        // its form widened by the exact worst-case gap any other window
        // member can open above it — relational content survives pooling.
        std::int64_t lead = -1;
        for (std::int64_t ky = 0; ky < q.kernel; ++ky) {
          for (std::int64_t kx = 0; kx < q.kernel; ++kx) {
            const std::int64_t n =
                (ch * h + oy * q.stride + ky) * w + ox * q.stride + kx;
            if (lead < 0 || hulls[static_cast<std::size_t>(n)].lo >
                                hulls[static_cast<std::size_t>(lead)].lo) {
              lead = n;
            }
          }
        }
        const Form& fj = cur_[static_cast<std::size_t>(lead)];
        std::int64_t gap = 0;
        for (std::int64_t ky = 0; ky < q.kernel; ++ky) {
          for (std::int64_t kx = 0; kx < q.kernel; ++kx) {
            const std::int64_t n =
                (ch * h + oy * q.stride + ky) * w + ox * q.stride + kx;
            if (n == lead) continue;
            const std::size_t sn = static_cast<std::size_t>(n);
            if (hulls[sn].hi <= hulls[static_cast<std::size_t>(lead)].lo) {
              continue;  // can never exceed the leader
            }
            gap = std::max(gap, shr_ceil(sup_difference(cur_[sn], fj), kF));
          }
        }
        Form out = fj;
        const std::int64_t add = gap * kUnit;
        out.bias += add / 2;
        out.slack += add - add / 2;
        next[static_cast<std::size_t>((ch * oh + oy) * ow + ox)] =
            std::move(out);
      }
    }
  }
  cur_ = std::move(next);
  dims_ = {c, oh, ow};
  cur_ch_ = met_channel_hulls(ref_.layers[li].out);
}

ModelRange AffinePass::run() {
  const std::vector<quant::QLayer>& layers = model_.layers();

  // Geometry pre-pass: recover the item dims (the IR carries no spatial
  // extents), validate them against every layer, and bound the densest
  // layer's work. Any mismatch — or a work blow-up at paper scale —
  // degrades to the (sound, merely not tighter) interval result.
  std::vector<std::int64_t> dims = options_.item_dims;
  if (dims.empty()) {
    for (const quant::QLayer& q : layers) {
      if (q.kind == quant::QLayerKind::kConv2d) return ref_;  // need H, W
      if (q.kind == quant::QLayerKind::kDense) {
        dims = {q.in_features};
        break;
      }
    }
    if (dims.empty()) return ref_;
  }
  const auto numel_of = [](const std::vector<std::int64_t>& d) {
    std::int64_t n = 1;
    for (const std::int64_t v : d) n *= v;
    return n;
  };
  const std::int64_t nsym = numel_of(dims);
  if (nsym <= 0 || ref_.layers.size() != layers.size()) return ref_;
  {
    std::vector<std::int64_t> sim = dims;
    std::int64_t worst = nsym;
    for (const quant::QLayer& q : layers) {
      switch (q.kind) {
        case quant::QLayerKind::kConv2d: {
          if (sim.size() != 3 || sim[0] != q.in_channels) return ref_;
          const std::int64_t oh =
              conv_out_dim(sim[1], q.kernel, q.stride, q.pad);
          const std::int64_t ow =
              conv_out_dim(sim[2], q.kernel, q.stride, q.pad);
          if (oh <= 0 || ow <= 0) return ref_;
          sim = {q.out_channels, oh, ow};
          break;
        }
        case quant::QLayerKind::kDense:
          if (numel_of(sim) != q.in_features) return ref_;
          sim = {q.out_features};
          break;
        case quant::QLayerKind::kMaxPool: {
          if (sim.size() != 3) return ref_;
          const std::int64_t oh = conv_out_dim(sim[1], q.kernel, q.stride, 0);
          const std::int64_t ow = conv_out_dim(sim[2], q.kernel, q.stride, 0);
          if (oh <= 0 || ow <= 0) return ref_;
          sim = {sim[0], oh, ow};
          break;
        }
        case quant::QLayerKind::kFlatten:
          sim = {numel_of(sim)};
          break;
        case quant::QLayerKind::kQuantize:
        case quant::QLayerKind::kActivation:
          break;
      }
      worst = std::max(worst, numel_of(sim));
    }
    if (worst * nsym * 8 > kMemoryCeiling) return ref_;
  }

  ModelRange mr;
  mr.layers.resize(layers.size());

  for (std::size_t li = 0; li < layers.size(); ++li) {
    const quant::QLayer& q = layers[li];
    LayerRange& lr = mr.layers[li];
    lr.kind = q.kind;
    lr.in = cur_ch_;

    switch (q.kind) {
      case quant::QLayerKind::kQuantize:
        dims_ = dims;
        cur_.assign(static_cast<std::size_t>(nsym), Form{});
        do_quantize(q, li);
        lr.out = cur_ch_;
        break;

      case quant::QLayerKind::kConv2d:
      case quant::QLayerKind::kDense:
        do_matmul(q, li, mr);
        lr.out = cur_ch_;
        break;

      case quant::QLayerKind::kActivation:
        do_activation(q, li);
        lr.out = cur_ch_;
        break;

      case quant::QLayerKind::kMaxPool:
        do_maxpool(q, li);
        lr.out = cur_ch_;
        break;

      case quant::QLayerKind::kFlatten:
        dims_ = {static_cast<std::int64_t>(cur_.size())};
        lr.out = cur_ch_;
        break;
    }
  }
  return mr;
}

}  // namespace

ModelRange analyze_ranges_affine(const quant::QuantModel& model,
                                 const RangeOptions& options) {
  ModelRange interval = analyze_ranges(model, options);
  AffinePass pass(model, options, std::move(interval));
  return pass.run();
}

ModelRange analyze_ranges_with(RangeDomain domain,
                               const quant::QuantModel& model,
                               const RangeOptions& options) {
  return domain == RangeDomain::kAffine ? analyze_ranges_affine(model, options)
                                        : analyze_ranges(model, options);
}

}  // namespace dnnv::analysis
