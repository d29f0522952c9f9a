// Interval range analysis over the executed QuantModel IR.
//
// An abstract-interpretation pass: starting from the input domain (by
// default the unconditional one — the quantize layer saturates every input
// to [-127, 127], so the analysis is sound for ANY float input, including
// adversarial test vectors), per-channel intervals are propagated layer by
// layer through qconv/qgemm accumulation, the saturating bias add, Q31
// requantization and LUT activations, all with the engine's exact integer
// semantics. The requant map is monotone in the accumulator, so interval
// endpoints propagate EXACTLY — no widening beyond the conv-padding zero.
//
// The result answers, per channel, statically:
//  - the reachable int8 output-code interval (dead channel == [0, 0]),
//  - the reachable biased accumulator interval the requant step sees,
//  - whether the raw int32 gemm sum can wrap (overflow) or the bias add can
//    saturate — the absence-of-overflow proof for the MAC datapath.
//
// Consumers: analysis::classify_universe (static fault testability),
// analysis::verify_model (overflow/dead-channel lint), dnnv_pipeline
// --analyze.
#ifndef DNNV_ANALYSIS_RANGE_ANALYSIS_H_
#define DNNV_ANALYSIS_RANGE_ANALYSIS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "quant/quant_model.h"

namespace dnnv::analysis {

/// Abstract domain the range pass runs under. kInterval is the PR 9
/// per-channel interval pass; kAffine is the relational affine-form
/// (zonotope) pass of analyze_ranges_affine — never wider than kInterval
/// (every exported hull is met with the interval pass's).
enum class RangeDomain : std::uint8_t {
  kInterval = 0,
  kAffine = 1,
};

const char* to_string(RangeDomain domain);

/// Parses "interval" / "affine"; throws dnnv::Error on anything else.
RangeDomain range_domain(const std::string& name);

/// Closed integer interval [lo, hi].
struct Interval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;

  bool singleton() const { return lo == hi; }
  bool contains(std::int64_t v) const { return lo <= v && v <= hi; }

  friend bool operator==(const Interval&, const Interval&) = default;
};

/// Per-layer interval state. `in` holds the code interval feeding the layer,
/// one entry per input channel (a single entry is shared by all channels —
/// the state right after the quantize layer). Dense layers map input feature
/// f to entry f / (in_features / in.size()): a flattened conv output keeps
/// one interval per source channel.
struct LayerRange {
  quant::QLayerKind kind{};
  std::vector<Interval> in;

  // Conv/dense layers only, per output channel:
  /// Biased accumulator raw + bias_i32 on the int64 grid, BEFORE the int32
  /// saturation of sat_add (the requant step sees sat32 of this).
  std::vector<Interval> acc;
  /// The raw int32 gemm sum can exceed int32 and wrap; `acc` is widened to
  /// the full int32 range for soundness and no finer claim is made.
  std::vector<std::uint8_t> overflow;

  /// Codes leaving the layer, per output channel. For the dequantizing
  /// logit layer this is the saturated biased accumulator (the int32 grid
  /// the float logits are a positive rescale of).
  std::vector<Interval> out;
};

struct RangeOptions {
  /// When set, the float inputs are assumed to lie in [input_lo, input_hi]
  /// and the quantize layer's output interval tightens accordingly. Leave
  /// unset for the unconditional (adversarial-input-sound) domain.
  bool assume_input_domain = false;
  float input_lo = 0.0f;
  float input_hi = 0.0f;

  /// Calibration-conditioned domains: one QUANTIZE-OUTPUT code interval per
  /// input channel (first dim of the item shape; every entry clamped into
  /// [kQmin, kQmax] by the pass). Non-empty overrides assume_input_domain.
  /// The resulting ModelRange is conditional — sound only for inputs whose
  /// quantized codes stay inside these domains (e.g. in-distribution data
  /// the domains were calibrated on), NOT for adversarial inputs. Domains
  /// that all span the code grid condition nothing: the pass then bounds
  /// every accumulator and output as the unconditional one does, so callers
  /// run it only when input_domains_narrow() holds. On all four zoo models
  /// calibrated_input_domains() returns the whole grid for every channel.
  /// Producers: calibrated_input_domains().
  std::vector<Interval> input_domains;

  /// Dims of one model input item (e.g. {C, H, W}). The IR does not carry
  /// spatial extents, so the affine domain needs this to unroll conv
  /// geometry; when empty, analyze_ranges_affine degrades to the interval
  /// result on conv-front models (dense fronts derive it from in_features).
  /// Ignored by the interval pass.
  std::vector<std::int64_t> item_dims;
};

struct ModelRange {
  std::vector<LayerRange> layers;  ///< parallel to model.layers()

  std::size_t dead_channels = 0;      ///< conv/dense channels proven == 0
  std::size_t overflow_channels = 0;  ///< raw gemm sum can wrap int32
  std::size_t saturable_channels = 0; ///< biased accumulator can hit sat_add's clamp
};

/// Runs the interval pass over `model`. Deterministic and exact in
/// integers. Every tap of a conv/dense layer that reads one `in` entry reads
/// the same interval [a, b] (tap_interval, ends in order), so a channel's
/// raw-sum bounds are the sums over entries of a P + b N and b P + a N,
/// where P and N are the channel's positive and negative weight sums over
/// that entry's taps: one vectorized int8 reduction per weight row and no
/// per-tap lookup, equal to bounding each tap on its own
/// (tests/analysis_reference.h).
ModelRange analyze_ranges(const quant::QuantModel& model,
                          const RangeOptions& options = {});

/// The code interval feeding tap `tap` (flat fanin index) of conv/dense
/// layer `q`, given the layer's `in` vector. Conv taps are widened to
/// include 0 when the layer pads (padding reads code 0). Throws when `in`
/// is empty (the layer has no input state).
Interval tap_interval(const quant::QLayer& q, const std::vector<Interval>& in,
                      std::int64_t tap);

/// Min/max LUT value over the input-code interval `codes` (clamped to the
/// int8 domain).
Interval lut_image(const std::array<std::int8_t, 256>& lut,
                   const Interval& codes);

/// Per-input-channel quantize-output code domains calibrated over `pool`
/// (the vendor's representative data): per-channel signed float min/max via
/// quant::RangeObserver, mapped through the exact rounding of the model's
/// quantize layer (monotone — both scales are positive). Channels are the
/// first dim of the pool items (rank-1 items: one domain per feature). Feed
/// the result to RangeOptions::input_domains / QualifyOptions::input_domains
/// — never use it to prune: it conditions the analysis on in-distribution
/// inputs.
std::vector<Interval> calibrated_input_domains(const quant::QuantModel& model,
                                               const std::vector<Tensor>& pool);

/// True iff some entry of `domains`, clamped as the range pass clamps
/// RangeOptions::input_domains, lies strictly inside [kQmin, kQmax]. When
/// false (empty, or every domain spans the grid), a pass conditioned on
/// `domains` bounds every accumulator and output exactly as the
/// unconditional pass does, so callers skip it.
bool input_domains_narrow(const std::vector<Interval>& domains);

}  // namespace dnnv::analysis

#endif  // DNNV_ANALYSIS_RANGE_ANALYSIS_H_
