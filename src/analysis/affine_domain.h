// Relational affine-form (zonotope) range analysis over the QuantModel IR.
//
// The interval pass (analyze_ranges) treats every tap of a qconv/qgemm
// fan-in as independent, so accumulator hulls are sum-of-independent-taps
// wide. This pass carries CORRELATION: every quantize-layer output neuron
// gets a noise symbol, and each downstream neuron's value is tracked as an
// uncentered affine form over those symbols
//
//   v = (bias + sum_k coef[k] * x_k + e) / 2^kAffineFracBits,
//   x_k in [sym_lo[k], sym_hi[k]],  |e| <= slack / 2^kAffineFracBits,
//
// with the engine's exact integer semantics: forms are EXACT through the
// linear qconv/qgemm accumulation and the bias add (fixed-point int64
// coefficients, __int128 intermediates, every rounding folded into slack),
// and are linearized through the non-linear Q31 requant and LUT steps with
// an exactly-computed error band (requant: a per-output-channel segment
// table; LUT: full code enumeration). MaxPool keeps the dominant window
// form and widens by the exact worst-case gap to the other windows, so
// relational content survives pooling. Sign cancellation across a layer-2
// fan-in — sum_i |sum_j w2_j lam_j w1_ji| instead of
// sum_j |w2_j| lam_j sum_i |w1_ji| — is where the tightening comes from.
//
// Representation and cost: a form stores only its nonzero terms, as a
// symbol-sorted list of {symbol, coefficient} pairs (a conv neuron reads a
// few dozen of the input's symbols, so dense storage would be ~99% zeros).
// A conv/dense neuron scatters its taps' terms into one __int128 scratch
// row and keeps the symbols it touched; the maxpool gap is a merge of two
// sorted lists. The requant step function of each output channel is walked
// once over the channel's accumulator hull, recording the last accumulator
// value of each output code; every neuron of the channel reads its segment
// ends from that table instead of bisecting the step function again. The
// pass is single-threaded. One pass takes ~0.1 s on mnist_tanh_tiny,
// ~0.25 s on cifar_relu_tiny and ~3 s on default-size cifar_relu, on one
// core of a 4-vCPU AVX-512 Xeon. Above an internal work ceiling (densest
// layer's neuron count x symbol count, reached only by paper-scale conv
// stacks) the pass returns the interval result instead.
//
// Soundness: every form is pointwise correct at the real symbol values of
// any input, so its concretization encloses the reachable set; every
// exported hull is additionally MET (intersected) with the interval pass's
// hull over the same options. The result is therefore NEVER wider than
// analyze_ranges — the enclosure the tests assert — and the overflow flag
// can only be cleared (the affine raw-sum hull proving the wrap impossible),
// never set where the interval pass proved absence.
#ifndef DNNV_ANALYSIS_AFFINE_DOMAIN_H_
#define DNNV_ANALYSIS_AFFINE_DOMAIN_H_

#include "analysis/range_analysis.h"

namespace dnnv::analysis {

/// Fixed-point fraction bits of affine-form coefficients/bias/slack.
inline constexpr int kAffineFracBits = 20;

/// Runs the affine pass over `model` under `options` (same input-domain
/// semantics as analyze_ranges). Deterministic; pure integer arithmetic.
/// Degrades to the interval result (sound, just not tighter) when the
/// model's work would exceed an internal ceiling — tiny/default zoo scales
/// run fully relational.
ModelRange analyze_ranges_affine(const quant::QuantModel& model,
                                 const RangeOptions& options = {});

/// Domain dispatch: analyze_ranges (kInterval) or analyze_ranges_affine
/// (kAffine).
ModelRange analyze_ranges_with(RangeDomain domain,
                               const quant::QuantModel& model,
                               const RangeOptions& options = {});

}  // namespace dnnv::analysis

#endif  // DNNV_ANALYSIS_AFFINE_DOMAIN_H_
