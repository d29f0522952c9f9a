#include "validate/backend.h"

#include "util/error.h"

namespace dnnv::validate {

std::vector<int> ExecutionBackend::golden_labels(const TestSuite& suite,
                                                 const Tensor& suite_batch) {
  (void)suite;
  return predict_clean(suite_batch);
}

// ---- FloatReferenceBackend ----

FloatReferenceBackend::FloatReferenceBackend(const nn::Sequential& model)
    : model_(model.clone()) {}

std::vector<int> FloatReferenceBackend::predict_clean(const Tensor& batch) {
  return model_.predict_labels(batch);
}

std::vector<int> FloatReferenceBackend::golden_labels(
    const TestSuite& suite, const Tensor& suite_batch) {
  (void)suite_batch;
  // The float vendor qualified the shipped labels on this same engine;
  // reusing them keeps the historical run_detection contract exactly.
  return suite.golden_labels();
}

ExecutionBackend::Replay FloatReferenceBackend::make_replay(
    const Tensor& suite_batch) const {
  return [&suite_batch](nn::Sequential& perturbed) {
    return perturbed.predict_labels(suite_batch);
  };
}

// ---- Int8Backend ----

Int8Backend::Int8Backend(const quant::QuantModel& shipped)
    : shipped_(shipped) {}

std::vector<int> Int8Backend::predict_clean(const Tensor& batch) {
  return shipped_.predict_labels(batch);
}

ExecutionBackend::Replay Int8Backend::make_replay(
    const Tensor& suite_batch) const {
  // One QuantModel clone per worker: activation calibration stays frozen,
  // weight/bias codes refresh from the perturbed float master each trial.
  auto local = std::make_shared<quant::QuantModel>(shipped_);
  return [local, &suite_batch](nn::Sequential& perturbed) {
    local->requantize_weights_from(perturbed);
    return local->predict_labels(suite_batch);
  };
}

// ---- Code faults ----

void apply_code_faults(quant::QuantModel& model,
                       const std::vector<CodeFault>& faults) {
  if (faults.empty()) return;
  // Validate the whole list before touching anything, so a bad fault never
  // leaves the model half-mutated with stale derived state.
  const std::int64_t code_count = model.param_count();
  for (const auto& fault : faults) {
    DNNV_CHECK(fault.bit >= 0 && fault.bit < 8,
               "fault bit " << fault.bit << " out of range");
    DNNV_CHECK(fault.address < static_cast<std::size_t>(code_count),
               "fault address " << fault.address
                                << " beyond the weight memory ("
                                << code_count << " codes)");
  }
  auto views = model.param_views();
  for (const auto& fault : faults) {
    std::size_t address = fault.address;
    for (auto& view : views) {
      if (address < static_cast<std::size_t>(view.size)) {
        auto byte = static_cast<std::uint8_t>(view.codes[address]);
        byte ^= static_cast<std::uint8_t>(1u << fault.bit);
        view.codes[address] = static_cast<std::int8_t>(byte);
        break;
      }
      address -= static_cast<std::size_t>(view.size);
    }
  }
  model.refresh_derived();
}

}  // namespace dnnv::validate
