// Combined functional test generation (paper §IV-D).
//
// Run Algorithm 1 (training-set selection) while it is the more efficient
// producer, and switch to Algorithm 2 (gradient synthesis) once the coverage
// gain per synthetic test exceeds the best remaining training sample's gain.
#ifndef DNNV_TESTGEN_COMBINED_GENERATOR_H_
#define DNNV_TESTGEN_COMBINED_GENERATOR_H_

#include "coverage/criterion.h"
#include "testgen/gradient_generator.h"
#include "testgen/greedy_selector.h"

namespace dnnv::testgen {

/// When to hand over from Algorithm 1 to Algorithm 2.
enum class SwitchPolicy {
  /// Paper behaviour: the first time Algorithm 2's per-test gain beats
  /// Algorithm 1's, commit to Algorithm 2 for the rest of the budget.
  kSwitchOnce,
  /// Ablation: keep comparing both producers at every step.
  kInterleaved,
};

/// Orchestrates the two generators against a shared coverage accumulator.
class CombinedGenerator {
 public:
  struct Options {
    int max_tests = 50;
    SwitchPolicy policy = SwitchPolicy::kSwitchOnce;
    /// Greedy commits tolerated before the cached Algorithm 2 probe batch is
    /// considered stale and regenerated against the grown covered set (the
    /// probe targets the CURRENT un-activated parameters, so its gain decays
    /// as greedy picks land).
    int probe_refresh = 8;
    GradientGenerator::Options gradient;  ///< max_tests ignored (budget shared)
  };

  explicit CombinedGenerator(Options options);

  /// Greedy gains and Algorithm 2 probe masks are measured by `criterion`
  /// (whose covered set is NOT consulted — the shared `accumulator` carries
  /// the run's covered state). `masks` are the pool's precomputed point
  /// masks under the SAME criterion. Algorithm 2's
  /// masked-model synthesis applies only when criterion.parameter_indexed()
  /// (the covered bits must address the parameter space to be zeroed out);
  /// other criteria descend on an unmasked clone.
  GenerationResult generate(cov::Criterion& criterion,
                            const nn::Sequential& model,
                            const std::vector<Tensor>& pool,
                            const std::vector<DynamicBitset>& masks,
                            const Shape& item_shape, int num_classes,
                            cov::CoverageAccumulator& accumulator) const;

 private:
  Options options_;
};

}  // namespace dnnv::testgen

#endif  // DNNV_TESTGEN_COMBINED_GENERATOR_H_
