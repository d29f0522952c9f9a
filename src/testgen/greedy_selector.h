// Algorithm 1 — judicious selection of functional tests from the training
// set: iteratively pick the sample with the largest marginal validation-
// coverage gain (paper Eq. 7).
#ifndef DNNV_TESTGEN_GREEDY_SELECTOR_H_
#define DNNV_TESTGEN_GREEDY_SELECTOR_H_

#include <vector>

#include "coverage/accumulator.h"
#include "testgen/functional_test.h"

namespace dnnv::testgen {

/// Greedy training-set selection. The marginal-gain objective is monotone
/// submodular, so CELF-style lazy evaluation yields exactly the same picks as
/// the paper's full rescan (Algorithm 1, lines 3-6) while re-evaluating only
/// a few candidates per iteration.
class GreedySelector {
 public:
  struct Options {
    int max_tests = 50;  ///< Nt
    /// Stop as soon as the best candidate adds zero new parameters (the
    /// remaining picks would be arbitrary). Off reproduces the paper's
    /// "keep selecting to Nt" behaviour.
    bool stop_on_zero_gain = false;
  };

  explicit GreedySelector(Options options) : options_(options) {}

  /// Selects from `pool` by its precomputed point masks (one per item,
  /// from a cov::Criterion's measure_pool), starting from (and updating)
  /// `accumulator`. `used` flags pool entries that must not be selected
  /// again; selected entries are flagged on return.
  GenerationResult select_with_masks(const std::vector<Tensor>& pool,
                                     const std::vector<DynamicBitset>& masks,
                                     cov::CoverageAccumulator& accumulator,
                                     std::vector<bool>& used) const;

 private:
  Options options_;
};

}  // namespace dnnv::testgen

#endif  // DNNV_TESTGEN_GREEDY_SELECTOR_H_
