#include "testgen/combined_generator.h"

#include <queue>

#include "tensor/batch.h"
#include "util/error.h"

namespace dnnv::testgen {

CombinedGenerator::CombinedGenerator(Options options) : options_(options) {
  DNNV_CHECK(options_.max_tests >= 0, "negative test budget");
  DNNV_CHECK(options_.probe_refresh > 0, "probe_refresh must be positive");
}

GenerationResult CombinedGenerator::generate(
    cov::Criterion& criterion, const nn::Sequential& model,
    const std::vector<Tensor>& pool, const std::vector<DynamicBitset>& masks,
    const Shape& item_shape, int num_classes,
    cov::CoverageAccumulator& accumulator) const {
  DNNV_CHECK(pool.size() == masks.size(), "pool/mask size mismatch");

  GenerationResult result;
  Rng rng(options_.gradient.seed);
  GradientGenerator gradient(options_.gradient);

  // Lazy-greedy heap over the pool (see GreedySelector for the argument).
  struct Entry {
    std::size_t gain;
    std::size_t index;
    bool operator<(const Entry& other) const { return gain < other.gain; }
  };
  std::priority_queue<Entry> heap;
  std::vector<bool> used(pool.size(), false);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    heap.push({accumulator.marginal_gain(masks[i]), i});
  }
  // Peeks the candidate with the provably-maximal refreshed gain (the winner
  // is pushed back so a non-commit keeps it available); returns SIZE_MAX when
  // the pool is exhausted.
  auto best_greedy = [&]() -> std::pair<std::size_t, std::size_t> {
    while (!heap.empty()) {
      Entry top = heap.top();
      heap.pop();
      if (used[top.index]) continue;
      const std::size_t fresh = accumulator.marginal_gain(masks[top.index]);
      if (heap.empty() || fresh >= heap.top().gain) {
        heap.push({fresh, top.index});
        return {top.index, fresh};
      }
      top.gain = fresh;
      heap.push(top);
    }
    return {SIZE_MAX, 0};
  };

  // Cached probe batch from Algorithm 2 (inputs + activation masks on the
  // true model). Synthesis targets the CURRENT un-activated set (masked
  // model), so a cached probe goes stale as greedy picks grow the covered
  // set — it is regenerated after every options_.probe_refresh greedy
  // commits, not only when committed.
  std::vector<Tensor> probe_inputs;
  std::vector<DynamicBitset> probe_masks;  ///< storage reused across probes
  int synth_batches = 0;
  int commits_since_probe = 0;
  // Masked-model synthesis needs covered bits that index the parameter
  // space; under other criteria Algorithm 2 descends on an unmasked clone.
  const bool mask_activated =
      options_.gradient.mask_activated && criterion.parameter_indexed();
  auto make_probe = [&] {
    nn::Sequential loss_model =
        mask_activated
            ? GradientGenerator::masked_model(model, accumulator.covered())
            : model.clone();
    const Tensor probe_batch = gradient.generate_batch_tensor(
        loss_model, item_shape, num_classes, synth_batches, rng);
    ++synth_batches;
    commits_since_probe = 0;
    probe_inputs.clear();
    for (std::int64_t i = 0; i < probe_batch.shape()[0]; ++i) {
      probe_inputs.push_back(slice_batch(probe_batch, i));
    }
    // Probe masks ride the criterion's batched engine: one batched forward
    // instead of a forward per probe input, into reused mask storage.
    criterion.measure(probe_batch, probe_masks);
  };
  auto probe_gain_per_test = [&]() -> double {
    DynamicBitset joint = accumulator.covered();
    std::size_t before = joint.count();
    for (const auto& mask : probe_masks) joint |= mask;
    return static_cast<double>(joint.count() - before) /
           static_cast<double>(probe_masks.size());
  };
  auto commit_probe = [&] {
    for (std::size_t i = 0; i < probe_inputs.size() &&
                            static_cast<int>(result.tests.size()) <
                                options_.max_tests;
         ++i) {
      accumulator.add(probe_masks[i]);
      FunctionalTest test;
      test.input = probe_inputs[i];
      test.source = TestSource::kSynthetic;
      result.tests.push_back(std::move(test));
      result.coverage_after.push_back(accumulator.coverage());
    }
    // probe_masks keeps its storage for the next measure(); an empty
    // probe_inputs marks the cache invalid.
    probe_inputs.clear();
  };

  bool switched = false;
  while (static_cast<int>(result.tests.size()) < options_.max_tests) {
    if (switched) {
      make_probe();
      commit_probe();
      continue;
    }
    const auto [greedy_index, greedy_gain] = best_greedy();
    const bool refreshed =
        probe_inputs.empty() || commits_since_probe >= options_.probe_refresh;
    if (refreshed) make_probe();
    const double synth_gain = probe_gain_per_test();

    // §IV-D switch rule: move to Algorithm 2 when its per-test coverage gain
    // exceeds Algorithm 1's next pick.
    const bool choose_synth = greedy_index == SIZE_MAX ||
                              synth_gain > static_cast<double>(greedy_gain);
    result.decisions.push_back(
        {result.tests.size(),
         greedy_index == SIZE_MAX ? 0.0 : static_cast<double>(greedy_gain),
         synth_gain, choose_synth, refreshed});
    if (choose_synth) {
      commit_probe();
      if (options_.policy == SwitchPolicy::kSwitchOnce) switched = true;
      continue;
    }
    accumulator.add(masks[greedy_index]);
    used[greedy_index] = true;
    ++commits_since_probe;
    FunctionalTest test;
    test.input = pool[greedy_index];
    test.source = TestSource::kTrainingSample;
    test.pool_index = static_cast<std::int64_t>(greedy_index);
    result.tests.push_back(std::move(test));
    result.coverage_after.push_back(accumulator.coverage());
  }
  result.final_coverage = accumulator.coverage();
  return result;
}

}  // namespace dnnv::testgen
