#include "ip/quantized_ip.h"

#include <algorithm>
#include <cmath>

#include "tensor/batch.h"
#include "util/error.h"
#include "util/rng.h"

namespace dnnv::ip {
namespace {

/// Deterministic fallback calibration pool: half image-like ([0,1]) and half
/// signed ([-1,1]) uniform inputs, so min/max ranges cover both input
/// domains when the caller has no representative data at hand.
std::vector<Tensor> default_calibration(const Shape& item_shape) {
  Rng rng(0xCA11B8A7E);
  std::vector<Tensor> pool;
  for (int i = 0; i < 16; ++i) {
    pool.push_back(Tensor::rand_uniform(item_shape, rng, 0.0f, 1.0f));
  }
  for (int i = 0; i < 16; ++i) {
    pool.push_back(Tensor::rand_uniform(item_shape, rng, -1.0f, 1.0f));
  }
  return pool;
}

/// scale_c * code for every byte of `memory`, one channel block of
/// per_channel codes (one scale) at a time.
std::vector<float> dequantize_memory(const std::vector<QuantTensorInfo>& table,
                                     const std::vector<std::uint8_t>& memory) {
  std::vector<float> values(memory.size());
  for (const auto& info : table) {
    float* dst = values.data() + info.memory_offset;
    const std::uint8_t* src = memory.data() + info.memory_offset;
    for (std::int64_t begin = 0, ch = 0; begin < info.size;
         begin += info.per_channel, ++ch) {
      const float scale = info.channel_scales[static_cast<std::size_t>(ch)];
      const std::int64_t end = std::min(info.size, begin + info.per_channel);
      for (std::int64_t i = begin; i < end; ++i) {
        dst[i] = scale * static_cast<float>(static_cast<std::int8_t>(src[i]));
      }
    }
  }
  return values;
}

}  // namespace

QuantizedIp::QuantizedIp(const nn::Sequential& model, Shape item_shape)
    : QuantizedIp(model, item_shape, default_calibration(item_shape)) {}

QuantizedIp::QuantizedIp(const nn::Sequential& model, Shape item_shape,
                         const std::vector<Tensor>& calibration,
                         const quant::QuantConfig& config)
    : item_shape_(std::move(item_shape)) {
  std::vector<std::int64_t> dims;
  dims.push_back(1);
  dims.insert(dims.end(), item_shape_.dims().begin(), item_shape_.dims().end());
  const Shape out = model.output_shape(Shape{dims});
  DNNV_CHECK(out.ndim() == 2, "IP model must produce [N, k] logits");
  num_classes_ = static_cast<int>(out[1]);

  qmodel_ = quant::QuantModel::quantize(model, calibration, config);
  original_params_ = model.clone().snapshot_params();
  build_memory();
}

QuantizedIp::QuantizedIp(quant::QuantModel shipped, Shape item_shape)
    : qmodel_(std::move(shipped)),
      item_shape_(std::move(item_shape)),
      num_classes_(qmodel_.num_classes()) {
  build_memory();
  // The artifact is its own reference: snapshot the dequantized codes.
  original_params_ = dequantize_memory(table_, memory_);
}

void QuantizedIp::build_memory() {
  // The weight memory IS the QuantModel's code store, flattened in float
  // param order (weights before bias per layer); one byte per parameter.
  memory_.reserve(static_cast<std::size_t>(qmodel_.param_count()));
  std::size_t offset = 0;
  for (const auto& view : qmodel_.param_views()) {
    QuantTensorInfo info;
    info.memory_offset = offset;
    info.size = view.size;
    info.per_channel = view.per_channel;
    info.channel_scales = view.scales;
    info.scale = *std::max_element(view.scales.begin(), view.scales.end());
    table_.push_back(std::move(info));
    memory_.insert(memory_.end(), view.codes, view.codes + view.size);
    offset += static_cast<std::size_t>(view.size);
  }
}

void QuantizedIp::refresh_quant_if_dirty() {
  if (!quant_dirty_) return;
  // Memory bytes -> QuantModel codes, then rebuild the derived execution
  // state (transposed panels, int32 biases, requant multipliers).
  std::size_t address = 0;
  for (auto& view : qmodel_.param_views()) {
    for (std::int64_t i = 0; i < view.size; ++i, ++address) {
      view.codes[i] = static_cast<std::int8_t>(memory_[address]);
    }
  }
  qmodel_.refresh_derived();
  quant_dirty_ = false;
}

int QuantizedIp::predict(const Tensor& input) {
  DNNV_CHECK(input.shape() == item_shape_,
             "input shape " << input.shape() << " != IP input " << item_shape_);
  refresh_quant_if_dirty();
  return qmodel_.predict_labels(stack_batch({input})).front();
}

std::vector<int> QuantizedIp::predict_all(const std::vector<Tensor>& inputs) {
  if (inputs.empty()) return {};
  refresh_quant_if_dirty();
  return qmodel_.predict_labels(stack_batch(inputs));
}

std::uint8_t QuantizedIp::read_byte(std::size_t address) const {
  DNNV_CHECK(address < memory_.size(), "address " << address << " out of range");
  return memory_[address];
}

void QuantizedIp::write_byte(std::size_t address, std::uint8_t value) {
  DNNV_CHECK(address < memory_.size(), "address " << address << " out of range");
  memory_[address] = value;
  quant_dirty_ = true;
}

void QuantizedIp::flip_bit(std::size_t address, int bit) {
  DNNV_CHECK(address < memory_.size(), "address " << address << " out of range");
  DNNV_CHECK(bit >= 0 && bit < 8, "bit index " << bit << " out of range");
  memory_[address] ^= static_cast<std::uint8_t>(1u << bit);
  quant_dirty_ = true;
}

float QuantizedIp::max_quantization_error() const {
  // NOTE: compares against the float snapshot taken at construction, so it
  // reports quantisation error only while the memory is unfaulted. The
  // dequantized codes are stored before the subtraction, so it subtracts
  // two rounded floats: a multiply-subtract fused on an FMA target reported
  // the product's rounding residual (5e-8) for an unfaulted artifact.
  const std::vector<float> dequant = dequantize_memory(table_, memory_);
  float max_err = 0.0f;
  for (std::size_t a = 0; a < dequant.size(); ++a) {
    max_err = std::max(max_err, std::fabs(dequant[a] - original_params_[a]));
  }
  return max_err;
}

float QuantizedIp::quantization_error_bound() const {
  float bound = 0.0f;
  for (const auto& info : table_) {
    for (const float scale : info.channel_scales) {
      bound = std::max(bound, scale * 0.5f);
    }
  }
  return bound;
}

const quant::QuantModel& QuantizedIp::quant_model() {
  refresh_quant_if_dirty();
  return qmodel_;
}

}  // namespace dnnv::ip
