#include "validate/detection.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "tensor/batch.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace dnnv::validate {
namespace {

constexpr int kNotDetected = std::numeric_limits<int>::max();

void check_config(const TestSuite& suite, const std::vector<Tensor>& victims,
                  const DetectionConfig& config) {
  DNNV_CHECK(!suite.empty(), "empty suite");
  DNNV_CHECK(!victims.empty(), "empty victim pool");
  DNNV_CHECK(config.trials > 0, "need at least one trial");
  for (const int n : config.test_counts) {
    DNNV_CHECK(n > 0 && n <= static_cast<int>(suite.size()),
               "test count " << n << " exceeds suite size " << suite.size());
  }
}

/// Runs the trial loop over the shared pool. Each worker owns a float clone
/// of `model` (the attack surface) and a backend replay session; per-trial
/// rngs are derived from (seed, trial) so results are thread-count
/// independent.
std::vector<int> run_trials(const nn::Sequential& model,
                            ExecutionBackend& backend,
                            const Tensor& suite_batch,
                            const attack::Attack& attack,
                            const std::vector<Tensor>& victims,
                            const DetectionConfig& config,
                            const std::vector<int>& golden) {
  std::vector<int> first_detection(static_cast<std::size_t>(config.trials),
                                   -1);  // -1 = dropped
  ThreadPool& pool = ThreadPool::shared();
  const std::size_t num_workers = std::min<std::size_t>(
      pool.num_threads(), static_cast<std::size_t>(config.trials));
  const std::size_t chunk =
      (static_cast<std::size_t>(config.trials) + num_workers - 1) / num_workers;

  for (std::size_t w = 0; w < num_workers; ++w) {
    pool.submit([&, w] {
      nn::Sequential local = model.clone();
      ExecutionBackend::Replay replay = backend.make_replay(suite_batch);
      const std::size_t begin = w * chunk;
      const std::size_t end = std::min<std::size_t>(
          static_cast<std::size_t>(config.trials), begin + chunk);
      for (std::size_t trial = begin; trial < end; ++trial) {
        // Per-trial rng derived from (seed, trial): thread-count independent.
        Rng rng = Rng(config.seed).split(trial);

        attack::Perturbation perturbation;
        for (int retry = 0; retry <= config.craft_retries; ++retry) {
          const std::size_t victim_index =
              rng.uniform_u64(static_cast<std::uint64_t>(victims.size()));
          perturbation = attack.craft(local, victims[victim_index], rng);
          if (!perturbation.empty()) break;
        }
        if (perturbation.empty()) continue;  // dropped (stays -1)

        perturbation.apply(local);
        const std::vector<int> labels = replay(local);
        perturbation.revert(local);
        DNNV_CHECK(labels.size() == golden.size(),
                   "backend replay returned " << labels.size()
                                              << " labels for a "
                                              << golden.size()
                                              << "-test suite");

        int first = kNotDetected;
        for (std::size_t i = 0; i < golden.size(); ++i) {
          if (labels[i] != golden[i]) {
            first = static_cast<int>(i);
            break;
          }
        }
        first_detection[trial] = first;
      }
    });
  }
  pool.wait_all();
  return first_detection;
}

DetectionOutcome aggregate(const std::vector<int>& first_detection,
                           const DetectionConfig& config,
                           const attack::Attack& attack) {
  DetectionOutcome outcome;
  outcome.rate_per_count.assign(config.test_counts.size(), 0.0);
  double detection_sum = 0.0;
  int detected_count = 0;
  for (const int first : first_detection) {
    if (first < 0) {
      ++outcome.dropped_trials;
      continue;
    }
    ++outcome.successful_trials;
    if (first != kNotDetected) {
      detection_sum += first;
      ++detected_count;
    }
    for (std::size_t c = 0; c < config.test_counts.size(); ++c) {
      if (first < config.test_counts[c]) outcome.rate_per_count[c] += 1.0;
    }
  }
  DNNV_CHECK(outcome.successful_trials > 0,
             "attack '" << attack.name() << "' never produced a perturbation");
  for (auto& rate : outcome.rate_per_count) {
    rate /= static_cast<double>(outcome.successful_trials);
  }
  outcome.mean_first_detection =
      detected_count > 0 ? detection_sum / detected_count : -1.0;
  return outcome;
}

}  // namespace

DetectionOutcome run_detection(const nn::Sequential& model,
                               const TestSuite& suite,
                               ExecutionBackend& backend,
                               const attack::Attack& attack,
                               const std::vector<Tensor>& victims,
                               const DetectionConfig& config) {
  check_config(suite, victims, config);
  const Tensor suite_batch = stack_batch(suite.inputs());
  const std::vector<int> golden = backend.golden_labels(suite, suite_batch);
  DNNV_CHECK(golden.size() == suite.size(),
             "backend '" << backend.name() << "' qualified " << golden.size()
                         << " labels for a " << suite.size() << "-test suite");
  return aggregate(run_trials(model, backend, suite_batch, attack, victims,
                              config, golden),
                   config, attack);
}

}  // namespace dnnv::validate
