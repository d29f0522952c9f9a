#include "testgen/neuron_selector.h"

#include <numeric>
#include <queue>

#include "util/error.h"

namespace dnnv::testgen {

GenerationResult NeuronCoverageSelector::select_with_masks(
    const std::vector<Tensor>& pool,
    const std::vector<DynamicBitset>& masks) const {
  DNNV_CHECK(!pool.empty(), "empty candidate pool");
  DNNV_CHECK(pool.size() == masks.size(), "pool/mask size mismatch");

  DynamicBitset covered(masks.front().size());
  std::vector<bool> used(pool.size(), false);

  struct Entry {
    std::size_t gain;
    std::size_t index;
    bool operator<(const Entry& other) const { return gain < other.gain; }
  };
  std::priority_queue<Entry> heap;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    heap.push({masks[i].count(), i});
  }

  GenerationResult result;
  auto add_test = [&](std::size_t index) {
    covered |= masks[index];
    used[index] = true;
    FunctionalTest test;
    test.input = pool[index];
    test.source = TestSource::kTrainingSample;
    test.pool_index = static_cast<std::int64_t>(index);
    result.tests.push_back(std::move(test));
    result.coverage_after.push_back(static_cast<double>(covered.count()) /
                                    static_cast<double>(covered.size()));
  };

  // Greedy phase (lazy evaluation, same argument as GreedySelector).
  while (static_cast<int>(result.tests.size()) < options_.max_tests &&
         !heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    if (used[top.index]) continue;
    const std::size_t fresh = covered.count_new_bits(masks[top.index]);
    if (!heap.empty() && fresh < heap.top().gain) {
      top.gain = fresh;
      heap.push(top);
      continue;
    }
    if (fresh == 0) break;  // neuron coverage saturated
    add_test(top.index);
  }

  // Random fill after saturation.
  Rng rng(options_.fill_seed);
  std::vector<int> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  for (const int idx : order) {
    if (static_cast<int>(result.tests.size()) >= options_.max_tests) break;
    if (!used[static_cast<std::size_t>(idx)]) {
      add_test(static_cast<std::size_t>(idx));
    }
  }
  result.final_coverage =
      static_cast<double>(covered.count()) / static_cast<double>(covered.size());
  return result;
}

GenerationResult RandomSelector::select(const std::vector<Tensor>& pool) const {
  DNNV_CHECK(!pool.empty(), "empty candidate pool");
  Rng rng(seed_);
  std::vector<int> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  GenerationResult result;
  const int count = std::min<int>(max_tests_, static_cast<int>(pool.size()));
  for (int i = 0; i < count; ++i) {
    FunctionalTest test;
    test.input = pool[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
    test.source = TestSource::kRandom;
    test.pool_index = order[static_cast<std::size_t>(i)];
    result.tests.push_back(std::move(test));
  }
  return result;
}

}  // namespace dnnv::testgen
