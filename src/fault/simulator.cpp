#include "fault/simulator.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "ip/quantized_ip.h"
#include "tensor/batch.h"
#include "util/error.h"

namespace dnnv::fault {
namespace {

/// Row-wise argmax with predict_labels' exact tie-breaking (first max wins).
std::vector<int> argmax_rows(const Tensor& logits) {
  const std::int64_t n = logits.shape()[0];
  const std::int64_t k = logits.shape()[1];
  std::vector<int> labels(static_cast<std::size_t>(n));
  for (std::int64_t row = 0; row < n; ++row) {
    const float* r = logits.data() + row * k;
    int best = 0;
    for (std::int64_t c = 1; c < k; ++c) {
      if (r[c] > r[best]) best = static_cast<int>(c);
    }
    labels[static_cast<std::size_t>(row)] = best;
  }
  return labels;
}

/// Mutex-guarded free-list of per-worker state: parallel_for indices borrow
/// a worker (cloned lazily, at most pool-width + 1 clones per sweep) and
/// return it when done.
template <typename W>
class WorkerPool {
 public:
  template <typename Make>
  std::unique_ptr<W> acquire(const Make& make) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        std::unique_ptr<W> w = std::move(free_.back());
        free_.pop_back();
        return w;
      }
    }
    return make();
  }

  void release(std::unique_ptr<W> w) {
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(w));
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<W>> free_;
};

struct ChunkPlan {
  std::vector<std::int64_t> begins;
  std::int64_t chunk = 0;
  std::int64_t total = 0;

  ChunkPlan(std::int64_t n, bool full, std::int64_t requested) : total(n) {
    chunk = full ? n : std::clamp<std::int64_t>(requested, 1, n);
    for (std::int64_t b = 0; b < n; b += chunk) begins.push_back(b);
  }
  std::int64_t end(std::size_t k) const {
    return std::min<std::int64_t>(total, begins[k] + chunk);
  }
};

}  // namespace

FaultSimulator::FaultSimulator(const quant::QuantModel& clean,
                               const validate::TestSuite& suite)
    : clean_(clean), inputs_(suite.inputs()) {
  DNNV_CHECK(!inputs_.empty(), "fault simulation needs a non-empty suite");
  item_shape_ = inputs_.front().shape();
}

SimResult FaultSimulator::run_batched(const FaultUniverse& universe,
                                      const SimOptions& options) {
  SimResult result;
  result.num_tests = inputs_.size();
  result.first_detected.assign(universe.size(), -1);
  const bool full = options.mode == SimMode::kFullMatrix;
  if (full) result.rows.assign(universe.size(), DynamicBitset());
  const auto n = static_cast<std::int64_t>(inputs_.size());
  const ChunkPlan plan(n, full, options.chunk);
  const std::size_t num_chunks = plan.begins.size();

  // One clean traced pass per test chunk. The traces (per-layer int8 input
  // caches) live in dedicated workspaces that nothing touches for the rest
  // of the sweep, so workers can replay from them concurrently.
  quant::QuantModel tracer = clean_;
  std::vector<nn::Workspace> trace_ws(num_chunks);
  std::vector<quant::QuantModel::ForwardTrace> traces(num_chunks);
  std::vector<std::vector<int>> chunk_labels(num_chunks);
  for (std::size_t k = 0; k < num_chunks; ++k) {
    const std::vector<Tensor> span(
        inputs_.begin() + static_cast<std::ptrdiff_t>(plan.begins[k]),
        inputs_.begin() + static_cast<std::ptrdiff_t>(plan.end(k)));
    const Tensor& logits =
        tracer.forward_traced(stack_batch(span), trace_ws[k], traces[k]);
    chunk_labels[k] = argmax_rows(logits);
    result.clean_labels.insert(result.clean_labels.end(),
                               chunk_labels[k].begin(),
                               chunk_labels[k].end());
  }

  struct Worker {
    quant::QuantModel model;
    nn::Workspace ws;
  };
  WorkerPool<Worker> workers;
  ThreadPool& pool = options.pool ? *options.pool : ThreadPool::shared();
  pool.parallel_for(universe.size(), [&](std::size_t fi) {
    const Fault& f = universe[fi];
    auto worker = workers.acquire([this] {
      auto w = std::make_unique<Worker>();
      w->model = clean_;
      return w;
    });
    const AppliedFault applied = apply_fault(worker->model, f);
    DynamicBitset row(full ? result.num_tests : 0);
    std::int64_t first = -1;
    if (!applied.noop) {
      for (std::size_t k = 0; k < num_chunks && (full || first < 0); ++k) {
        const Tensor& logits =
            worker->model.forward_resume(traces[k], f.layer, worker->ws);
        const std::vector<int> labels = argmax_rows(logits);
        for (std::size_t t = 0; t < labels.size(); ++t) {
          if (labels[t] == chunk_labels[k][t]) continue;
          const std::int64_t test =
              plan.begins[k] + static_cast<std::int64_t>(t);
          if (first < 0) first = test;
          if (!full) break;
          row.set(static_cast<std::size_t>(test));
        }
      }
    }
    revert_fault(worker->model, applied);
    result.first_detected[fi] = first;
    if (full) result.rows[fi] = std::move(row);
    workers.release(std::move(worker));
  });
  for (const std::int64_t first : result.first_detected) {
    if (first >= 0) ++result.detected;
  }
  return result;
}

SimResult FaultSimulator::run_sequential(const FaultUniverse& universe,
                                         const SimOptions& options) {
  SimResult result;
  result.num_tests = inputs_.size();
  result.first_detected.assign(universe.size(), -1);
  const bool full = options.mode == SimMode::kFullMatrix;
  if (full) result.rows.assign(universe.size(), DynamicBitset());

  ip::QuantizedIp device(clean_, item_shape_);
  const FaultLayout layout(clean_);
  result.clean_labels = device.predict_all(inputs_);
  const Tensor batch = stack_batch(inputs_);

  for (std::size_t fi = 0; fi < universe.size(); ++fi) {
    const Fault& f = universe[fi];
    std::vector<int> labels;
    if (is_code_fault(f.kind)) {
      // The historical loop: byte fault into the weight memory, full
      // derived-state rebuild inside predict_all, revert.
      const std::size_t address = layout.flat_address(f);
      const std::uint8_t clean_byte = device.read_byte(address);
      device.write_byte(address, static_cast<std::uint8_t>(faulted_code(
                                     static_cast<std::int8_t>(clean_byte), f)));
      labels = device.predict_all(inputs_);
      device.write_byte(address, clean_byte);
    } else {
      // Requant/accumulator faults have no byte representation; the
      // reference is a full forward on an independently faulted copy.
      quant::QuantModel faulty = clean_;
      apply_fault(faulty, f);
      labels = faulty.predict_labels(batch);
    }
    DynamicBitset row(full ? result.num_tests : 0);
    std::int64_t first = -1;
    for (std::size_t t = 0; t < labels.size(); ++t) {
      if (labels[t] == result.clean_labels[t]) continue;
      if (first < 0) first = static_cast<std::int64_t>(t);
      if (!full) break;
      row.set(t);
    }
    result.first_detected[fi] = first;
    if (full) result.rows[fi] = std::move(row);
    if (first >= 0) ++result.detected;
  }
  return result;
}

}  // namespace dnnv::fault
