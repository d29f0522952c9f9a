// One-call fault qualification: enumerate → collapse → simulate → (compact).
//
// This is the routine both sides of the product flow share: the vendor runs
// it to qualify (and optionally compact) a generated suite before shipping,
// and the user re-runs it on the shipped model + suite to re-measure the
// manifest's detection stats — the universe is regenerated deterministically
// from the same UniverseConfig, so both sides score the same fault list.
#ifndef DNNV_FAULT_QUALIFY_H_
#define DNNV_FAULT_QUALIFY_H_

#include <cstdint>
#include <vector>

#include "analysis/testability.h"
#include "fault/collapse.h"
#include "fault/compact.h"
#include "fault/fault_model.h"
#include "fault/simulator.h"
#include "validate/test_suite.h"

namespace dnnv::fault {

struct FaultQualification {
  std::int64_t enumerated = 0;  ///< raw universe size
  std::int64_t untestable = 0;  ///< statically proven undetectable, pruned
  std::int64_t dominated = 0;   ///< merged into a detection-equivalent rep
  std::int64_t collapsed = 0;   ///< after static prune + structural collapse
  std::int64_t scored = 0;      ///< == collapsed (the simulated set)
  std::int64_t detected = 0;    ///< faults the suite detects
  std::int64_t classes = 0;     ///< detected equivalence classes
  std::int64_t core = 0;        ///< dominance core size
  std::int64_t kept_tests = 0;  ///< suite size after (optional) compaction

  /// Faults testable in general but provably masked on the calibrated
  /// in-distribution input domains. NEVER pruned — they stay in the scored
  /// set; this is reporting plus one excitation target each.
  std::int64_t conditional = 0;
  std::vector<analysis::ExcitationTarget> excitations;

  double detection_rate() const {
    return scored > 0
               ? static_cast<double>(detected) / static_cast<double>(scored)
               : 0.0;
  }
};

struct QualifyOptions {
  UniverseConfig universe;
  bool compact = false;        ///< greedily compact the suite over the core
  /// Run analysis::classify_universe first and exclude the statically
  /// untestable faults from simulation. Pruning is sound (untestable =>
  /// logits bit-identical to clean on every input), so detection counts are
  /// unchanged; both sides of the product flow prune deterministically, so
  /// vendor and user still score the identical fault list.
  bool static_prune = true;
  /// Classical ATPG dominance collapse (analysis::analyze_dominance): drop
  /// faults provably detected whenever their kept representative is —
  /// bit-identical faulted models (requant-equality) or larger same-sign
  /// logit shifts at the output layer. Rows of the kept faults are
  /// untouched, and detection stats over the kept set are a sound lower
  /// bound for the full universe. Deterministic on both sides of the
  /// product flow.
  bool dominance = true;
  /// Abstract domain the static passes run under (affine is never wider
  /// than interval, so it prunes at least as much).
  analysis::RangeDomain domain = analysis::RangeDomain::kAffine;
  /// Calibration-conditioned per-input-channel code domains (from
  /// analysis::calibrated_input_domains). When some domain narrows the
  /// input (analysis::input_domains_narrow), a second, conditioned pass
  /// classifies the conditionally-masked faults — counted and given
  /// excitation targets, never pruned. Domains that all span [-127, 127]
  /// would reproduce the unconditional range, so no fault could be
  /// conditional and the pass is skipped. On all four zoo models every
  /// calibrated domain is the whole grid.
  std::vector<analysis::Interval> input_domains;
  /// Dims of one input item ({C, H, W}); lets the affine domain unroll conv
  /// geometry. Empty is sound (degrades to the interval result there).
  std::vector<std::int64_t> item_dims;
  ThreadPool* pool = nullptr;  ///< simulation fan-out; nullptr = shared
};

/// Scores `suite` against the structural universe of `model`. When
/// options.compact is set and `compacted` non-null, also writes the
/// greedily compacted suite (same detected-fault coverage, fewer tests) —
/// or the whole suite when it detects no scored fault.
FaultQualification qualify_suite(const quant::QuantModel& model,
                                 const validate::TestSuite& suite,
                                 const QualifyOptions& options,
                                 validate::TestSuite* compacted = nullptr);

}  // namespace dnnv::fault

#endif  // DNNV_FAULT_QUALIFY_H_
