// Baseline: test selection by NEURON coverage (the hardware-testing
// criterion of [10]/[11]) — what the paper's Tables II/III compare against.
#ifndef DNNV_TESTGEN_NEURON_SELECTOR_H_
#define DNNV_TESTGEN_NEURON_SELECTOR_H_

#include "testgen/functional_test.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace dnnv::testgen {

/// Greedy selection from the training pool maximising *neuron* coverage.
/// Neuron coverage saturates after a handful of tests (every neuron fires on
/// some common input); once no candidate adds a new neuron the remaining
/// budget is filled with random unused pool samples, which models the
/// baseline's behaviour of stopping at "all neurons covered".
class NeuronCoverageSelector {
 public:
  struct Options {
    int max_tests = 50;
    std::uint64_t fill_seed = 11;  ///< for the post-saturation random fill
  };

  explicit NeuronCoverageSelector(Options options) : options_(options) {}

  /// Greedy saturation + random fill over per-pool-item point masks (any
  /// cov::Criterion::measure_pool output; the "neuron" criterion's for the
  /// baseline).
  GenerationResult select_with_masks(
      const std::vector<Tensor>& pool,
      const std::vector<DynamicBitset>& masks) const;

 private:
  Options options_;
};

/// Control: uniform random selection from the pool (no coverage signal).
class RandomSelector {
 public:
  RandomSelector(int max_tests, std::uint64_t seed)
      : max_tests_(max_tests), seed_(seed) {}

  GenerationResult select(const std::vector<Tensor>& pool) const;

 private:
  int max_tests_;
  std::uint64_t seed_;
};

}  // namespace dnnv::testgen

#endif  // DNNV_TESTGEN_NEURON_SELECTOR_H_
