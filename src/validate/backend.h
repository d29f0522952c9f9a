// Execution backends: the deployment targets a test suite can be replayed
// on, behind one interface.
//
// ExecutionBackend factors out the two backend-specific ingredients of the
// detection harness: which labels the user qualifies against (the clean
// artifact's own outputs) and how a worker replays the suite once the
// attacker has perturbed the float master. The detection loop, golden-label
// qualification (VendorPipeline) and suite replay are written once against
// this interface; new targets (systolic-timed, bit-flipped memory, ...)
// plug in without touching the loop.
#ifndef DNNV_VALIDATE_BACKEND_H_
#define DNNV_VALIDATE_BACKEND_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/sequential.h"
#include "quant/quant_model.h"
#include "validate/test_suite.h"

namespace dnnv::validate {

/// One deployment target. A backend instance is shared across worker
/// threads: predict_clean/golden_labels run on the caller's thread, while
/// make_replay() is invoked once per worker and must capture all mutable
/// per-worker state inside the returned closure.
class ExecutionBackend {
 public:
  /// Per-worker replay: maps the (perturbed) float master to the labels the
  /// deployed artifact produces on the suite batch captured at creation.
  using Replay = std::function<std::vector<int>(nn::Sequential& perturbed)>;

  virtual ~ExecutionBackend() = default;

  /// Registry-style name ("float", "int8", ...).
  virtual std::string name() const = 0;

  /// Labels the clean (unperturbed, fault-free) artifact produces on
  /// `batch` — the vendor's golden-label qualification step.
  virtual std::vector<int> predict_clean(const Tensor& batch) = 0;

  /// Golden labels the detection loop compares replays against. Default:
  /// the clean artifact's own outputs on the suite inputs (the user
  /// validates the shipped artifact, not the float master). `suite_batch`
  /// is the stacked suite inputs; both must outlive the call.
  virtual std::vector<int> golden_labels(const TestSuite& suite,
                                         const Tensor& suite_batch);

  /// Builds one worker's replay closure over `suite_batch` (borrowed; must
  /// outlive the closure). Thread-safe: called concurrently from workers.
  virtual Replay make_replay(const Tensor& suite_batch) const = 0;
};

/// Float reference backend: the deployed IP executes the float master
/// as-is. golden_labels() returns the suite's SHIPPED labels (the float
/// vendor qualified on the same engine), matching the historical
/// run_detection contract bit for bit.
class FloatReferenceBackend final : public ExecutionBackend {
 public:
  explicit FloatReferenceBackend(const nn::Sequential& model);

  std::string name() const override { return "float"; }
  std::vector<int> predict_clean(const Tensor& batch) override;
  std::vector<int> golden_labels(const TestSuite& suite,
                                 const Tensor& suite_batch) override;
  Replay make_replay(const Tensor& suite_batch) const override;

 private:
  nn::Sequential model_;  ///< clean clone (predict_clean only)
};

/// Int8 accelerator backend: the artifact is a quant::QuantModel with FIXED
/// activation calibration; per trial the perturbed float weights re-quantize
/// onto that calibration (the deployment update path) and the suite replays
/// on the integer engine.
class Int8Backend final : public ExecutionBackend {
 public:
  explicit Int8Backend(const quant::QuantModel& shipped);

  std::string name() const override { return "int8"; }
  std::vector<int> predict_clean(const Tensor& batch) override;
  Replay make_replay(const Tensor& suite_batch) const override;

 private:
  quant::QuantModel shipped_;  ///< clean artifact (fixed calibration)
};

/// A single stuck memory fault in the int8 weight-code store.
struct CodeFault {
  std::size_t address = 0;  ///< flat code index (param_views order)
  int bit = 7;              ///< 0..7; 7 = sign bit
};

/// XORs the configured fault bits into `model`'s weight codes (flat
/// param_views order) and rebuilds the derived execution state.
void apply_code_faults(quant::QuantModel& model,
                       const std::vector<CodeFault>& faults);

}  // namespace dnnv::validate

#endif  // DNNV_VALIDATE_BACKEND_H_
