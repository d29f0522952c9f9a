// Quantized model representation + int8 execution engine.
//
// QuantModel is the representation an accelerator IP actually executes:
// int8 weight codes, int32 biases, fixed-point requantization multipliers,
// LUT activations — no float anywhere in the inner loops. It is produced
// from a float nn::Sequential by post-training quantization (calibrated over
// a representative pool, per-tensor or per-channel symmetric) and runs
// batch-native forwards on the nn::Workspace arena with exact integer
// arithmetic, so outputs are bit-identical across batch sizes, thread
// counts and micro-kernels.
#ifndef DNNV_QUANT_QUANT_MODEL_H_
#define DNNV_QUANT_QUANT_MODEL_H_

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "nn/activation.h"
#include "nn/sequential.h"
#include "quant/qconv.h"
#include "quant/quantize.h"
#include "util/bitset.h"

namespace dnnv::quant {

/// Executable quantized layer kinds (the flat IR of the int8 engine).
enum class QLayerKind : std::uint8_t {
  kQuantize = 0,    ///< float input -> int8 codes (folds nn::Normalize)
  kConv2d = 1,      ///< int8 im2col + qgemm + requant
  kDense = 2,       ///< int8 qgemm + requant (or dequant for the logit layer)
  kMaxPool = 3,     ///< int8 max pooling (scale passes through)
  kActivation = 4,  ///< 256-entry code LUT
  kFlatten = 5,     ///< shape-only
};

/// One quantized layer. Canonical fields are serialized; derived fields
/// (transposed weights, int32 biases, requant multipliers, LUTs) are rebuilt
/// by QuantModel::refresh_derived() — also the hook that makes memory-level
/// fault injection on the codes take effect.
struct QLayer {
  QLayerKind kind{};
  std::string name;

  float in_scale = 1.0f;   ///< activation scale of the layer input
  float out_scale = 1.0f;  ///< activation scale of the layer output

  // kQuantize: q = sat8(round(((x - input_mean) / input_norm_scale) / out_scale))
  float input_mean = 0.0f;
  float input_norm_scale = 1.0f;

  // kConv2d geometry (kernel/stride also serve kMaxPool)
  std::int64_t in_channels = 0, out_channels = 0;
  std::int64_t kernel = 0, stride = 0, pad = 0;

  // kDense geometry
  std::int64_t in_features = 0, out_features = 0;

  nn::ActivationKind activation = nn::ActivationKind::kReLU;  // kActivation

  // Weight/bias codes. Conv: [out_c, in_c*k*k]; dense: [out, in] (same
  // layout as the float layers — this IS the IP's weight memory content).
  std::vector<std::int8_t> weights;
  std::vector<float> wscales;  ///< 1 (per-tensor) or out-channel-count entries
  std::vector<std::int8_t> bias_codes;
  float bias_scale = 1.0f;
  bool dequant_output = false;  ///< logit layer: emit float, skip requant

  // ---- derived, never serialized ----
  std::vector<std::int8_t> weights_t;   ///< dense: [in, out] for qgemm
  PackedConvWeights wpack;              ///< conv: pre-packed A panels
  std::vector<std::int32_t> bias_i32;   ///< bias on the accumulator grid
  std::vector<Requant> requant;         ///< per out channel
  std::vector<float> dequant_scales;    ///< logit layer: in_scale * wscale[c]
  std::array<std::int8_t, 256> lut{};   ///< kActivation

  // Accumulator stuck-at fault surface (set via QuantModel::set_acc_fault):
  // the biased int32 accumulator of channel acc_channel is OR-ed with acc_or
  // then AND-ed with acc_and before requant/dequant. Cleared by
  // refresh_derived(); every other channel runs the same epilogue with the
  // identity masks 0 / -1.
  std::int64_t acc_channel = -1;
  std::int32_t acc_or = 0;
  std::int32_t acc_and = -1;
};

/// Mutable view of one quantized parameter tensor's codes — the
/// fault-injection / weight-memory surface. scales has one entry per
/// channel; code i dequantizes as scales[i / per_channel] * codes[i].
struct QTensorView {
  std::string name;
  std::int8_t* codes = nullptr;
  std::int64_t size = 0;
  std::int64_t per_channel = 0;  ///< codes per scale entry (== size if single)
  std::vector<float> scales;
  bool is_bias = false;
};

// ---- Layer-geometry helpers (shared by the engine, src/fault/ and
// src/analysis/) ----

/// Weight scale of output channel `channel` (per-tensor models share entry 0).
float wscale_for(const QLayer& q, std::int64_t channel);

/// Output channels (conv) / output features (dense) of a parameter layer.
std::int64_t weight_channels(const QLayer& q);

/// Codes per output channel: in_c * k * k (conv) / in_features (dense).
std::int64_t weight_fanin(const QLayer& q);

/// The accumulator-grid bias value channel `channel` would carry if its bias
/// code were `code` — bit-identical to the rounding refresh_derived() and
/// poke_code apply. Lets static analyses reason about bias-code faults
/// without mutating a model.
std::int32_t bias_code_to_i32(const QLayer& q, std::int64_t channel,
                              std::int8_t code);

/// The quantized model (value type; copies get a fresh workspace).
class QuantModel {
 public:
  QuantModel() = default;
  QuantModel(const QuantModel& other);
  QuantModel& operator=(const QuantModel& other);
  QuantModel(QuantModel&&) = default;
  QuantModel& operator=(QuantModel&&) = default;

  /// Post-training quantization of `model` (supported layers: normalize,
  /// conv2d, activation, maxpool2d, flatten, dense; the last layer must be
  /// the dense logit layer). Activation clip ranges are calibrated by
  /// running the float model over `calibration` (capped by
  /// config.max_calibration_items).
  static QuantModel quantize(const nn::Sequential& model,
                             const std::vector<Tensor>& calibration,
                             const QuantConfig& config = {});

  // ---- Execution (exact integer arithmetic end to end) ----

  /// Batch-native int8 forward: float input [N, ...] -> float logits [N, k]
  /// (the only float steps are the input quantize and the final dequant).
  /// The returned reference lives in `ws` until its next use.
  const Tensor& forward(const Tensor& input, nn::Workspace& ws);

  /// forward() on an internal workspace; returns a copy of the logits.
  Tensor forward(const Tensor& input);

  /// argmax labels for a batched input.
  std::vector<int> predict_labels(const Tensor& batch);

  /// Cached per-layer inputs of one clean forward — the replay surface of
  /// event-driven fault simulation. Entry li holds the int8 codes feeding
  /// layer li (entry 0 is unused: layer 0 consumes the float input).
  /// Pointers alias buffers inside the Workspace the trace was recorded
  /// with; they stay valid until that workspace runs another forward.
  struct ForwardTrace {
    struct Entry {
      const std::int8_t* codes = nullptr;  ///< [batch * item_numel] codes
      std::vector<std::int64_t> dims;      ///< per-item dims at layer entry
    };
    std::int64_t batch = 0;
    std::vector<Entry> entries;
  };

  /// forward() that also records the per-layer input trace into `trace`.
  const Tensor& forward_traced(const Tensor& input, nn::Workspace& ws,
                               ForwardTrace& trace);

  /// Re-runs layers [first_layer, end) from a recorded clean trace — the
  /// faulted suffix of an event-driven fault simulation. Layers before
  /// first_layer are untouched, so a fault localized at first_layer yields
  /// logits bit-identical to a full forward on the faulted model. `ws` must
  /// be a different workspace than the one the trace lives in.
  const Tensor& forward_resume(const ForwardTrace& trace,
                               std::size_t first_layer, nn::Workspace& ws);

  /// Per-item activation masks measured on the EXECUTED int8 model: one bit
  /// per activation-layer output unit, set iff its int8 code is non-zero
  /// (|value| >= out_scale/2 — the int8 grid's own activation criterion).
  /// Bit-identical for any batch size by integer exactness.
  std::vector<DynamicBitset> activation_masks_int8(const Tensor& batch,
                                                   nn::Workspace& ws);
  std::vector<DynamicBitset> activation_masks_int8(const Tensor& batch);

  // ---- Analysis / targeting hooks ----

  /// Float realization of the executed model: a nn::Sequential whose
  /// parameters are the dequantized codes (scale * int8). Feed this to
  /// cov::ParameterCoverage or the testgen generators so masks/suites
  /// target the weights the IP actually carries, not the pre-quantization
  /// float model.
  nn::Sequential dequantized_reference() const;

  /// Analytic bound on max |int8-engine logit - float-reference logit|,
  /// propagated layer by layer (weight rounding, bias rounding, requant
  /// rounding, LUT rounding, Lipschitz-1 activations/pooling). Valid under
  /// min/max calibration for inputs whose float activations stay inside the
  /// calibrated ranges (clipping is then a projection and cannot grow the
  /// error); percentile calibration clips by design and voids the bound.
  double logit_error_bound() const;

  // ---- Weight-memory surface ----

  /// Views of all parameter code tensors, in float param_views() order
  /// (weights before bias per layer). Mutating codes requires a
  /// refresh_derived() call before the next forward.
  std::vector<QTensorView> param_views();

  /// Total number of parameter codes (== the float model's param_count()).
  std::int64_t param_count() const;

  /// Rebuilds every derived buffer from the canonical codes/scales. Also
  /// clears any injected requant/accumulator faults (derived state is
  /// restored pristine).
  void refresh_derived();

  /// Single-layer refresh_derived() — rebuilds only layer `layer`.
  void refresh_layer(std::size_t layer);

  // ---- Point fault surface (src/fault/ uses these) ----
  // poke_code / set_requant_multiplier / set_acc_fault patch exactly the
  // derived state that depends on the touched value, so applying and
  // reverting one fault costs O(layer) instead of O(model) — and the next
  // forward is bit-identical to a full refresh_derived() rebuild.

  /// Reads one weight (is_bias=false) or bias (is_bias=true) code of a
  /// conv/dense layer; `index` is the flat offset within that tensor.
  std::int8_t code_at(std::size_t layer, bool is_bias,
                      std::int64_t index) const;

  /// Writes one parameter code and patches the dependent derived state
  /// (dense: one weights_t entry; conv: re-packs that layer's panels; bias:
  /// recomputes that channel's bias_i32). Returns the previous code.
  std::int8_t poke_code(std::size_t layer, bool is_bias, std::int64_t index,
                        std::int8_t code);

  /// The Q31 requant multiplier of one output channel (requantizing
  /// conv/dense layers only).
  std::int32_t requant_multiplier(std::size_t layer,
                                  std::int64_t channel) const;

  /// Overwrites one channel's requant multiplier — the per-channel
  /// requant-corruption fault surface. refresh_derived()/refresh_layer()
  /// restore the calibrated value.
  void set_requant_multiplier(std::size_t layer, std::int64_t channel,
                              std::int32_t multiplier);

  /// Arms an accumulator stuck-at fault: channel `channel` of layer
  /// `layer`'s biased accumulator is OR-ed with or_mask then AND-ed with
  /// and_mask before requant/dequant (stuck-at-1 bit b: or_mask = 1<<b;
  /// stuck-at-0: and_mask = ~(1<<b)). One armed channel per layer.
  void set_acc_fault(std::size_t layer, std::int64_t channel,
                     std::int32_t or_mask, std::int32_t and_mask);

  /// Disarms the accumulator fault on `layer`.
  void clear_acc_fault(std::size_t layer);

  /// Re-quantizes weights and biases from (a perturbed copy of) the float
  /// model while KEEPING the calibrated activation scales — the deployment
  /// update path: calibration is an offline vendor step, weight updates
  /// ship directly. Layer structure must match the quantized-from model.
  void requantize_weights_from(nn::Sequential& model);

  // ---- Persistence ----

  void save(ByteWriter& writer) const;
  static QuantModel load(ByteReader& reader);

  /// save() + CRC-32 footer over the payload.
  void save_file(const std::string& path) const;

  /// Verifies the CRC-32 footer, then load(); throws dnnv::Error on
  /// corruption.
  static QuantModel load_file(const std::string& path);

  int num_classes() const { return num_classes_; }
  const std::vector<QLayer>& layers() const { return layers_; }
  const QuantConfig& config() const { return config_; }

  /// "quantize -> conv2d(3->16,k3)[pc] -> lut(relu) -> ..." one-liner.
  std::string summary() const;

 private:
  /// Runs layers [first, end). For first == 0, `input` supplies the float
  /// batch; for a resume, `cur`/`dims`/`n` describe the cached int8 input of
  /// layer `first`. Records the per-layer input trace when `trace` is set.
  const Tensor& forward_impl(const Tensor* input, std::size_t first,
                             const std::int8_t* cur,
                             std::vector<std::int64_t> dims, std::int64_t n,
                             nn::Workspace& ws, ForwardTrace* trace,
                             std::vector<std::pair<const std::int8_t*,
                                                   std::int64_t>>* activations);

  std::vector<QLayer> layers_;
  QuantConfig config_;
  int num_classes_ = 0;
  bool has_normalize_ = false;
  nn::Workspace ws_;  ///< convenience-overload buffers
};

}  // namespace dnnv::quant

#endif  // DNNV_QUANT_QUANT_MODEL_H_
