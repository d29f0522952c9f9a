// Batched fault simulation: score a whole TestSuite against a whole
// FaultUniverse in sweeps.
//
// The sequential reference (run_sequential) is the literal historical loop:
// one ip::QuantizedIp, write a fault's byte into its weight memory
// (QuantizedIp::write_byte at FaultLayout::flat_address), predict_all
// (which rebuilds ALL derived execution state), write the old byte back,
// repeat — O(model) per fault before any inference runs.
//
// run_batched produces the bit-identical fault×test detection matrix
// event-style: ONE clean traced forward per test batch on the nn::Workspace
// arena caches every layer's int8 input, then each fault is applied through
// the O(layer) point-fault surface (poke_code / requant / accumulator
// masks) and re-executed only from its fault site onward
// (QuantModel::forward_resume) — layers upstream of the fault cannot
// change, so the suffix replay is exact, and integer execution is
// bit-identical across batch sizes and thread counts by the engine's core
// invariant. Faults are fanned out over the ThreadPool with per-worker
// model clones; early-exit mode stops each fault at its first detecting
// test chunk (scanning tests in index order, so first_detected is mode-
// and schedule-invariant).
#ifndef DNNV_FAULT_SIMULATOR_H_
#define DNNV_FAULT_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "fault/fault_model.h"
#include "util/bitset.h"
#include "util/thread_pool.h"
#include "validate/test_suite.h"

namespace dnnv::fault {

/// The execution engine the faults are simulated on: always the integer
/// engine (the artifact the IP executes). Single-valued; it stays only
/// because e2ebench/decomposed.cpp assigns SimOptions::backend.
enum class SimBackend : std::uint8_t {
  kInt8 = 0,
};

enum class SimMode : std::uint8_t {
  kFullMatrix = 0,  ///< complete fault×test detection matrix
  kEarlyExit = 1,   ///< stop each fault at its first detection
};

struct SimOptions {
  SimMode mode = SimMode::kFullMatrix;
  SimBackend backend = SimBackend::kInt8;
  ThreadPool* pool = nullptr;  ///< fan-out pool; nullptr = ThreadPool::shared
  std::int64_t chunk = 16;     ///< early-exit test-chunk size
};

struct SimResult {
  std::size_t num_tests = 0;

  /// Full-matrix mode only: rows[f].test(t) == fault f detected by test t
  /// (label differs from the clean device's label). Empty in early-exit
  /// mode.
  std::vector<DynamicBitset> rows;

  /// Per fault: lowest detecting test index, -1 if undetected.
  std::vector<std::int64_t> first_detected;

  std::size_t detected = 0;  ///< faults with first_detected >= 0

  /// The clean device's labels on the suite (the detection reference).
  std::vector<int> clean_labels;

  double detection_rate() const {
    return first_detected.empty()
               ? 0.0
               : static_cast<double>(detected) /
                     static_cast<double>(first_detected.size());
  }
};

class FaultSimulator {
 public:
  /// `clean` must be refreshed (as quantize()/load() leave it); the suite
  /// provides the test inputs — detection compares against the clean
  /// device's own labels, so fault effect is measured, not quantization
  /// skew.
  FaultSimulator(const quant::QuantModel& clean,
                 const validate::TestSuite& suite);

  /// Event-driven batched simulation (see file header).
  SimResult run_batched(const FaultUniverse& universe,
                        const SimOptions& options = {});

  /// The sequential inject→predict→revert reference loop.
  SimResult run_sequential(const FaultUniverse& universe,
                           const SimOptions& options = {});

 private:
  quant::QuantModel clean_;
  std::vector<Tensor> inputs_;
  Shape item_shape_;
};

}  // namespace dnnv::fault

#endif  // DNNV_FAULT_SIMULATOR_H_
