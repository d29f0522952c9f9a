#include "fault/qualify.h"

#include "analysis/affine_domain.h"
#include "analysis/range_analysis.h"
#include "analysis/testability.h"

namespace dnnv::fault {

FaultQualification qualify_suite(const quant::QuantModel& model,
                                 const validate::TestSuite& suite,
                                 const QualifyOptions& options,
                                 validate::TestSuite* compacted) {
  FaultQualification q;
  FaultUniverse universe = FaultUniverse::enumerate(model, options.universe);
  q.enumerated = static_cast<std::int64_t>(universe.size());
  // Domains that all span the code grid condition nothing: the conditioned
  // pass would reproduce the unconditional range, so no fault could be
  // conditionally masked and the tier is skipped.
  const bool conditioned =
      analysis::input_domains_narrow(options.input_domains);
  analysis::ModelRange range;  // unconditional; all pruning proofs live here
  if (options.static_prune || options.dominance || conditioned) {
    analysis::RangeOptions ropts;
    ropts.item_dims = options.item_dims;
    range = analysis::analyze_ranges_with(options.domain, model, ropts);
  }
  if (options.static_prune) {
    // Static ATPG stage, BEFORE structural collapse: every enumerated fault
    // gets an untestability proof attempt (no-excitation, requant-masked,
    // activation-masked over the UNCONDITIONAL range analysis), and the
    // proven ones never reach collapse or simulation. The structural pass
    // then only dedups equivalents among the possibly-testable remainder.
    const analysis::TestabilityReport report =
        analysis::classify_universe(model, range, universe);
    universe = analysis::prune_untestable(universe, report);
    q.untestable = static_cast<std::int64_t>(report.untestable);
  }
  if (options.dominance) {
    // Dominance collapse: every dropped fault is provably detected whenever
    // its kept representative is, so a suite covering the kept set covers
    // the dropped faults too and the scored stats are a sound lower bound.
    const analysis::DominanceReport dom =
        analysis::analyze_dominance(model, range, universe);
    universe = analysis::prune_dominated(universe, dom);
    q.dominated = static_cast<std::int64_t>(dom.count);
  }
  if (conditioned) {
    // Two-tier classification against the calibration-conditioned domains.
    // Reporting only — conditionally masked faults stay in the scored set.
    analysis::RangeOptions copts;
    copts.item_dims = options.item_dims;
    copts.input_domains = options.input_domains;
    const analysis::ModelRange cal_range =
        analysis::analyze_ranges_with(options.domain, model, copts);
    // Classification is per fault, so once the prune ran every fault left
    // is unconditionally testable; only an unpruned universe needs it.
    analysis::TestabilityReport uncond;
    if (options.static_prune) {
      uncond.reasons.assign(universe.size(),
                            analysis::UntestableReason::kTestable);
    } else {
      uncond = analysis::classify_universe(model, range, universe);
    }
    const analysis::ConditionalReport cond = analysis::classify_conditional(
        model, range, uncond, cal_range, universe);
    q.conditional = static_cast<std::int64_t>(cond.count);
    q.excitations = cond.excitations;
  }
  universe = collapse_structural(universe, model);
  q.collapsed = static_cast<std::int64_t>(universe.size());
  q.scored = static_cast<std::int64_t>(universe.size());
  q.kept_tests = static_cast<std::int64_t>(suite.size());

  FaultSimulator sim(model, suite);
  SimOptions sim_options;
  sim_options.mode = SimMode::kFullMatrix;
  sim_options.pool = options.pool;
  const SimResult result = sim.run_batched(universe, sim_options);
  q.detected = static_cast<std::int64_t>(result.detected);

  const MatrixCollapse mc = analyze_matrix(result.rows);
  q.classes = static_cast<std::int64_t>(mc.num_classes);
  q.core = static_cast<std::int64_t>(mc.core.size());

  if (options.compact && compacted != nullptr) {
    if (mc.core.empty()) {
      // The suite detects no scored fault, so there is nothing to compact
      // against: keep the suite whole (kept_tests stays its size).
      *compacted = suite;
    } else {
      const CompactionResult compaction =
          compact_tests(result.rows, mc.core, suite.size());
      *compacted = compact_suite(suite, compaction);
      q.kept_tests = static_cast<std::int64_t>(compaction.kept_tests.size());
    }
  }
  return q;
}

}  // namespace dnnv::fault
