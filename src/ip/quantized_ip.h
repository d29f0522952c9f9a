// Int8 accelerator simulation with an explicit weight memory.
//
// DNN IPs ship as hardware accelerators whose quantised weights live in
// off-chip memory — exactly the surface the paper's threat model attacks
// (reverse-engineer the memory layout, substitute parameters). QuantizedIp
// simulates that deployment: parameters are symmetric int8 codes in a flat
// byte buffer, fault injection (bit flips, stuck-at, byte writes) acts on
// the BUFFER, and inference executes the codes on the quant:: integer
// engine — int8 GEMMs, int32 accumulators, fixed-point requantisation —
// the arithmetic a real IP performs.
#ifndef DNNV_IP_QUANTIZED_IP_H_
#define DNNV_IP_QUANTIZED_IP_H_

#include <cstdint>
#include <vector>

#include "ip/black_box_ip.h"
#include "nn/sequential.h"
#include "quant/quant_model.h"

namespace dnnv::ip {

/// Quantisation parameters of one tensor in the weight memory. Weights may
/// carry per-channel scales; `scale` keeps the per-tensor summary (the max
/// over channels) for error-bound style uses.
struct QuantTensorInfo {
  std::size_t memory_offset = 0;  ///< byte offset in the weight memory
  std::int64_t size = 0;          ///< scalar count
  float scale = 1.0f;             ///< max over channel_scales
  std::int64_t per_channel = 0;   ///< codes per scale entry (== size if single)
  std::vector<float> channel_scales;  ///< dequant: value = scale_c * int8
};

/// Black-box IP backed by an int8 weight memory (one byte per parameter,
/// biases included). Memory writes invalidate the execution state; the next
/// inference re-derives the engine's buffers from the bytes.
class QuantizedIp : public BlackBoxIp {
 public:
  /// Quantises with a built-in deterministic calibration pool (uniform
  /// random inputs over [0,1] and [-1,1]) — convenient for unit-scale
  /// models. Production flows should pass a representative pool.
  QuantizedIp(const nn::Sequential& model, Shape item_shape);

  /// Quantises with a caller-provided calibration pool and config.
  QuantizedIp(const nn::Sequential& model, Shape item_shape,
              const std::vector<Tensor>& calibration,
              const quant::QuantConfig& config = {});

  /// Wraps an ALREADY-quantized artifact (e.g. loaded from a
  /// pipeline::Deliverable): the weight memory is initialised from the
  /// model's codes, so the fault-injection surface works identically on
  /// delivered IPs. There is no pre-quantization float master here — the
  /// artifact is its own reference, so max_quantization_error() reads 0
  /// until the memory is faulted.
  QuantizedIp(quant::QuantModel shipped, Shape item_shape);

  int predict(const Tensor& input) override;
  std::vector<int> predict_all(const std::vector<Tensor>& inputs) override;
  Shape input_shape() const override { return item_shape_; }
  int num_classes() const override { return num_classes_; }

  // ---- Memory / fault-injection surface ----

  /// Size of the weight memory in bytes (one byte per parameter).
  std::size_t memory_size() const { return memory_.size(); }

  /// Raw memory read.
  std::uint8_t read_byte(std::size_t address) const;

  /// Raw memory write (e.g. malicious parameter substitution).
  void write_byte(std::size_t address, std::uint8_t value);

  /// Flips one bit (0..7, 7 = sign bit of the int8 weight).
  void flip_bit(std::size_t address, int bit);

  /// Per-tensor quantisation table (address layout documentation).
  const std::vector<QuantTensorInfo>& tensor_table() const { return table_; }

  /// Max |float weight − dequantised weight| over all parameters, each code
  /// dequantised with ITS OWN channel scale.
  float max_quantization_error() const;

  /// Worst-case |error| bound implied by the scales: max over every
  /// channel of scale_c / 2 (per-channel aware).
  float quantization_error_bound() const;

  // ---- Analysis hooks (vendor-side; not part of the black-box surface) ----

  /// The executed quantised model (current memory contents).
  const quant::QuantModel& quant_model();

 private:
  /// Rebuilds qmodel_'s codes and derived execution state from memory_.
  void refresh_quant_if_dirty();

  /// Builds memory_/table_ from qmodel_'s codes (in float param order).
  void build_memory();

  quant::QuantModel qmodel_;             // the executable
  std::vector<float> original_params_;   // pre-quantisation float snapshot
  Shape item_shape_;
  int num_classes_ = 0;
  std::vector<std::uint8_t> memory_;     // int8 two's complement per param
  std::vector<QuantTensorInfo> table_;
  bool quant_dirty_ = false;             // memory_ written since refresh
};

}  // namespace dnnv::ip

#endif  // DNNV_IP_QUANTIZED_IP_H_
