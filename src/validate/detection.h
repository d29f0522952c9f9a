// Detection-rate experiment harness (Tables II & III).
//
// For each trial: craft a parameter perturbation with the given attack,
// apply it, replay the ordered test suite, record the index of the FIRST
// test whose label changes, revert. Because greedy suites are prefix-nested,
// one pass yields the detection rate for every N simultaneously:
// detected within N tests  ⇔  first_detection_index < N.
#ifndef DNNV_VALIDATE_DETECTION_H_
#define DNNV_VALIDATE_DETECTION_H_

#include <vector>

#include "attack/attack.h"
#include "nn/sequential.h"
#include "validate/backend.h"
#include "validate/test_suite.h"

namespace dnnv::validate {

/// Detection experiment parameters.
struct DetectionConfig {
  int trials = 1000;         ///< perturbations per attack (paper used 10000)
  std::uint64_t seed = 42;
  std::vector<int> test_counts = {10, 20, 30, 40, 50};  ///< the N columns
  /// Crafting retries (fresh victim/rng) before a trial is dropped.
  int craft_retries = 4;
};

/// Detection rates for one (attack, suite) pair.
struct DetectionOutcome {
  std::vector<double> rate_per_count;  ///< aligned with config.test_counts
  int successful_trials = 0;           ///< trials with a compromising perturbation
  int dropped_trials = 0;              ///< crafting failed after retries
  double mean_first_detection = 0.0;   ///< over detected trials
};

/// THE detection loop, written once against ExecutionBackend. Per trial:
/// the attack crafts a float parameter perturbation on a worker-local clone
/// of `model` (the attacker works on the float master, as in the
/// supply-chain threat model), the backend replays the suite on the
/// deployed artifact carrying that perturbation, and the first label
/// mismatch against backend.golden_labels() is recorded. Runs in parallel
/// (per-worker replay sessions from backend.make_replay); deterministic in
/// config.seed regardless of thread count.
DetectionOutcome run_detection(const nn::Sequential& model,
                               const TestSuite& suite,
                               ExecutionBackend& backend,
                               const attack::Attack& attack,
                               const std::vector<Tensor>& victims,
                               const DetectionConfig& config);

}  // namespace dnnv::validate

#endif  // DNNV_VALIDATE_DETECTION_H_
