// Shared chunked pool-sweep driver for mask computation (internal).
//
// Every coverage criterion sweeps an input pool the same way: batches of
// kMaskBatch items through a batch-native measurer, one measurer instance
// per worker thread over contiguous batch ranges (deterministic, identical
// to the serial sweep), with a serial fallback when already inside a pool
// worker. Only the measurer construction and the per-batch call differ —
// they come in as callables, so this is the ONE sweep loop behind
// Criterion::measure_pool.
#ifndef DNNV_COVERAGE_POOL_SWEEP_H_
#define DNNV_COVERAGE_POOL_SWEEP_H_

#include <algorithm>
#include <vector>

#include "tensor/batch.h"
#include "tensor/tensor.h"
#include "util/bitset.h"
#include "util/thread_pool.h"

namespace dnnv::cov::detail {

/// Pool inputs are swept `kMaskBatch` at a time: large enough that the
/// batched forward amortises packing and dispatch, small enough that the
/// per-layer activation buffers stay cache-resident.
constexpr std::size_t kMaskBatch = 16;

/// Computes one mask per input. `make_measurer()` builds a per-worker
/// measurer (it must own everything it needs — typically a model clone);
/// `run_batch(measurer, batch)` returns the masks of one stacked batch in
/// order.
template <typename MakeMeasurer, typename RunBatch>
std::vector<DynamicBitset> sweep_pool(const std::vector<Tensor>& inputs,
                                      MakeMeasurer make_measurer,
                                      RunBatch run_batch) {
  std::vector<DynamicBitset> masks(inputs.size());
  if (inputs.empty()) return masks;

  const std::size_t num_batches = (inputs.size() + kMaskBatch - 1) / kMaskBatch;
  const auto sweep = [&](std::size_t batch_begin, std::size_t batch_end) {
    auto measurer = make_measurer();
    Tensor batch;
    for (std::size_t bi = batch_begin; bi < batch_end; ++bi) {
      const std::size_t begin = bi * kMaskBatch;
      const std::size_t end = std::min(inputs.size(), begin + kMaskBatch);
      stack_batch_range(inputs, begin, end, batch);
      auto batch_masks = run_batch(measurer, batch);
      for (std::size_t i = begin; i < end; ++i) {
        masks[i] = std::move(batch_masks[i - begin]);
      }
    }
  };

  ThreadPool& pool = ThreadPool::shared();
  const std::size_t num_workers = std::min(pool.num_threads(), num_batches);
  if (num_workers <= 1 || ThreadPool::in_worker()) {
    sweep(0, num_batches);
    return masks;
  }
  const std::size_t chunk = (num_batches + num_workers - 1) / num_workers;
  for (std::size_t w = 0; w < num_workers; ++w) {
    pool.submit([&, w] {
      const std::size_t begin = w * chunk;
      const std::size_t end = std::min(num_batches, begin + chunk);
      if (begin >= end) return;
      sweep(begin, end);
    });
  }
  pool.wait_all();
  return masks;
}

}  // namespace dnnv::cov::detail

#endif  // DNNV_COVERAGE_POOL_SWEEP_H_
