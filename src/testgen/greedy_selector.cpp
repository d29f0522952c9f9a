#include "testgen/greedy_selector.h"

#include <queue>

#include "util/error.h"

namespace dnnv::testgen {

GenerationResult GreedySelector::select_with_masks(
    const std::vector<Tensor>& pool, const std::vector<DynamicBitset>& masks,
    cov::CoverageAccumulator& accumulator, std::vector<bool>& used) const {
  DNNV_CHECK(pool.size() == masks.size(), "pool/mask size mismatch");
  DNNV_CHECK(used.size() == pool.size(), "pool/used size mismatch");
  DNNV_CHECK(options_.max_tests >= 0, "negative test budget");

  // CELF lazy greedy: priority queue of (stale gain, index). Because gains
  // only shrink as the covered set grows (submodularity), a popped entry
  // whose refreshed gain still beats the next entry's stale gain is optimal.
  struct Entry {
    std::size_t gain;
    std::size_t index;
    bool operator<(const Entry& other) const { return gain < other.gain; }
  };
  std::priority_queue<Entry> heap;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (!used[i]) heap.push({accumulator.marginal_gain(masks[i]), i});
  }

  GenerationResult result;
  while (static_cast<int>(result.tests.size()) < options_.max_tests &&
         !heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    const std::size_t fresh_gain = accumulator.marginal_gain(masks[top.index]);
    if (!heap.empty() && fresh_gain < heap.top().gain) {
      top.gain = fresh_gain;
      heap.push(top);
      continue;  // stale; try the next best
    }
    if (fresh_gain == 0 && options_.stop_on_zero_gain) break;

    accumulator.add(masks[top.index]);
    used[top.index] = true;
    FunctionalTest test;
    test.input = pool[top.index];
    test.source = TestSource::kTrainingSample;
    test.pool_index = static_cast<std::int64_t>(top.index);
    result.tests.push_back(std::move(test));
    result.coverage_after.push_back(accumulator.coverage());
  }
  result.final_coverage = accumulator.coverage();
  return result;
}

}  // namespace dnnv::testgen
