#include "quant/quant_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "nn/activation_layer.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/maxpool2d.h"
#include "nn/normalize.h"
#include "quant/observer.h"
#include "quant/qgemm.h"
#include "quant/qops.h"
#include "tensor/batch.h"
#include "tensor/shape.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/rng.h"

namespace dnnv::quant {

float wscale_for(const QLayer& q, std::int64_t channel) {
  return q.wscales.size() > 1 ? q.wscales[static_cast<std::size_t>(channel)]
                              : q.wscales[0];
}

std::int64_t weight_channels(const QLayer& q) {
  return q.kind == QLayerKind::kConv2d ? q.out_channels : q.out_features;
}

std::int64_t weight_fanin(const QLayer& q) {
  return q.kind == QLayerKind::kConv2d ? q.in_channels * q.kernel * q.kernel
                                       : q.in_features;
}

std::int32_t bias_code_to_i32(const QLayer& q, std::int64_t channel,
                              std::int8_t code) {
  const double acc_scale = static_cast<double>(q.in_scale) *
                           static_cast<double>(wscale_for(q, channel));
  const double bias_real = static_cast<double>(q.bias_scale) * code;
  return static_cast<std::int32_t>(std::clamp<long long>(
      std::llround(bias_real / acc_scale),
      std::numeric_limits<std::int32_t>::min(),
      std::numeric_limits<std::int32_t>::max()));
}

namespace {

constexpr std::uint32_t kQuantMagic = 0x384D5144;  // "DQM8"
constexpr std::uint32_t kQuantVersion = 1;
/// Per-layer allowance for the float32 arithmetic of the reference forward
/// (the bound compares exact integer execution against a float32 baseline).
constexpr double kFloatSlack = 1e-5;

/// Quantizes one float weight tensor (+ bias vector) into a QLayer's codes.
void quantize_params(QLayer& q, const Tensor& weights, const Tensor& bias,
                     Granularity granularity) {
  const std::int64_t channels = weight_channels(q);
  const std::int64_t fanin = weight_fanin(q);
  DNNV_CHECK(weights.numel() == channels * fanin,
             q.name << ": weight tensor " << weights.shape()
                    << " does not match quantized geometry");
  DNNV_CHECK(bias.numel() == channels, q.name << ": bias size mismatch");

  q.wscales = weight_scales(weights.data(), channels, fanin, granularity);
  q.weights.resize(static_cast<std::size_t>(channels * fanin));
  for (std::int64_t c = 0; c < channels; ++c) {
    const float scale = wscale_for(q, c);
    for (std::int64_t i = 0; i < fanin; ++i) {
      q.weights[static_cast<std::size_t>(c * fanin + i)] =
          quantize_value(weights[c * fanin + i], scale);
    }
  }
  q.bias_scale = choose_scale(amax_of(bias.data(), channels));
  q.bias_codes.resize(static_cast<std::size_t>(channels));
  for (std::int64_t c = 0; c < channels; ++c) {
    q.bias_codes[static_cast<std::size_t>(c)] =
        quantize_value(bias[c], q.bias_scale);
  }
}

}  // namespace

QuantModel::QuantModel(const QuantModel& other)
    : layers_(other.layers_),
      config_(other.config_),
      num_classes_(other.num_classes_),
      has_normalize_(other.has_normalize_) {}

QuantModel& QuantModel::operator=(const QuantModel& other) {
  if (this != &other) {
    layers_ = other.layers_;
    config_ = other.config_;
    num_classes_ = other.num_classes_;
    has_normalize_ = other.has_normalize_;
    ws_.clear();
  }
  return *this;
}

QuantModel QuantModel::quantize(const nn::Sequential& model,
                                const std::vector<Tensor>& calibration,
                                const QuantConfig& config) {
  DNNV_CHECK(!calibration.empty(), "quantization needs a calibration pool");
  nn::Sequential m = model.clone();
  const std::size_t num_layers = m.num_layers();
  DNNV_CHECK(num_layers > 0, "cannot quantize an empty model");
  DNNV_CHECK(m.layer(num_layers - 1).kind() == "dense",
             "quantized models must end in the dense logit layer");

  // ---- Calibration: observe every activation site on the float model ----
  std::vector<std::unique_ptr<Observer>> obs(num_layers);
  for (std::size_t i = 0; i < num_layers; ++i) {
    const std::string kind = m.layer(i).kind();
    const bool is_site = kind == "normalize" || kind == "activation" ||
                         ((kind == "conv2d" || kind == "dense") &&
                          i + 1 < num_layers);
    if (is_site) obs[i] = make_observer(config);
  }
  std::unique_ptr<Observer> input_obs;  // raw input when nothing normalizes it
  if (m.layer(0).kind() != "normalize") input_obs = make_observer(config);

  const auto total = std::min<std::int64_t>(
      config.max_calibration_items,
      static_cast<std::int64_t>(calibration.size()));
  DNNV_CHECK(total > 0, "max_calibration_items must be positive");
  // The workspace forward computes the value forward's floats without its
  // allocations and input copies.
  constexpr std::int64_t kChunk = 32;
  nn::Workspace ws;
  Tensor batch;
  for (std::int64_t begin = 0; begin < total; begin += kChunk) {
    const std::int64_t end = std::min(total, begin + kChunk);
    stack_batch_range(calibration, static_cast<std::size_t>(begin),
                      static_cast<std::size_t>(end), batch);
    if (input_obs) input_obs->observe(batch.data(), batch.numel());
    const Tensor* x = &batch;
    for (std::size_t i = 0; i < num_layers; ++i) {
      Tensor& out =
          ws.buffer(i, nn::kSlotOutput, m.layer(i).output_shape(x->shape()));
      m.layer(i).forward_into(i, *x, out, ws);
      if (obs[i]) obs[i]->observe(out.data(), out.numel());
      x = &out;
    }
  }

  // ---- Build the quantized IR ----
  QuantModel qm;
  qm.config_ = config;
  float cur_scale = 1.0f;
  std::size_t first = 0;
  {
    QLayer q;
    q.kind = QLayerKind::kQuantize;
    q.name = "quantize";
    if (m.layer(0).kind() == "normalize") {
      const auto& norm = dynamic_cast<const nn::Normalize&>(m.layer(0));
      qm.has_normalize_ = true;
      q.input_mean = norm.mean();
      q.input_norm_scale = norm.scale();
      q.out_scale = choose_scale(obs[0]->amax());
      first = 1;
    } else {
      q.out_scale = choose_scale(input_obs->amax());
    }
    cur_scale = q.out_scale;
    qm.layers_.push_back(std::move(q));
  }
  for (std::size_t i = first; i < num_layers; ++i) {
    const std::string kind = m.layer(i).kind();
    QLayer q;
    q.name = m.layer(i).name();
    q.in_scale = cur_scale;
    if (kind == "conv2d") {
      auto& conv = dynamic_cast<nn::Conv2d&>(m.layer(i));
      q.kind = QLayerKind::kConv2d;
      q.in_channels = conv.config().in_channels;
      q.out_channels = conv.config().out_channels;
      q.kernel = conv.config().kernel;
      q.stride = conv.config().stride;
      q.pad = conv.config().pad;
      q.out_scale = choose_scale(obs[i]->amax());
      quantize_params(q, conv.weights(), conv.bias(),
                      config.weight_granularity);
    } else if (kind == "dense") {
      auto& dense = dynamic_cast<nn::Dense&>(m.layer(i));
      q.kind = QLayerKind::kDense;
      q.in_features = dense.in_features();
      q.out_features = dense.out_features();
      if (i + 1 == num_layers) {
        q.dequant_output = true;
        q.out_scale = 1.0f;
        qm.num_classes_ = static_cast<int>(q.out_features);
      } else {
        q.out_scale = choose_scale(obs[i]->amax());
      }
      quantize_params(q, dense.weights(), dense.bias(),
                      config.weight_granularity);
    } else if (kind == "activation") {
      const auto& act = dynamic_cast<const nn::ActivationLayer&>(m.layer(i));
      q.kind = QLayerKind::kActivation;
      q.activation = act.activation();
      q.out_scale = choose_scale(obs[i]->amax());
    } else if (kind == "maxpool2d") {
      const auto& pool = dynamic_cast<const nn::MaxPool2d&>(m.layer(i));
      q.kind = QLayerKind::kMaxPool;
      q.kernel = pool.kernel();
      q.stride = pool.stride();
      q.out_scale = cur_scale;
    } else if (kind == "flatten") {
      q.kind = QLayerKind::kFlatten;
      q.out_scale = cur_scale;
    } else {
      DNNV_THROW("layer kind '" << kind << "' has no int8 lowering");
    }
    cur_scale = q.out_scale;
    qm.layers_.push_back(std::move(q));
  }
  qm.refresh_derived();
  return qm;
}

namespace {

/// bias_i32 entry for one channel — the exact formula refresh uses, shared
/// with poke_code so a single-channel patch is bit-identical to a rebuild.
std::int32_t bias_i32_for(const QLayer& q, std::int64_t c) {
  return bias_code_to_i32(q, c, q.bias_codes[static_cast<std::size_t>(c)]);
}

void refresh_layer_derived(QLayer& q) {
  q.acc_channel = -1;
  q.acc_or = 0;
  q.acc_and = -1;
  if (q.kind == QLayerKind::kActivation) {
    q.lut = build_activation_lut(q.activation, q.in_scale, q.out_scale);
    return;
  }
  if (q.kind != QLayerKind::kConv2d && q.kind != QLayerKind::kDense) return;
  const std::int64_t channels = weight_channels(q);
  const std::int64_t fanin = weight_fanin(q);
  if (q.kind == QLayerKind::kConv2d) {
    // Pre-packed A panels for the fused conv (re-built here so fault
    // injection on the codes takes effect).
    q.wpack = pack_conv_weights(channels, fanin, q.weights.data());
  }
  if (q.kind == QLayerKind::kDense) {
    q.weights_t.resize(static_cast<std::size_t>(fanin * channels));
    for (std::int64_t c = 0; c < channels; ++c) {
      for (std::int64_t i = 0; i < fanin; ++i) {
        q.weights_t[static_cast<std::size_t>(i * channels + c)] =
            q.weights[static_cast<std::size_t>(c * fanin + i)];
      }
    }
  }
  q.bias_i32.resize(static_cast<std::size_t>(channels));
  q.requant.clear();
  q.dequant_scales.clear();
  for (std::int64_t c = 0; c < channels; ++c) {
    // Accumulator grid: one unit == in_scale * wscale[c].
    const double acc_scale =
        static_cast<double>(q.in_scale) * static_cast<double>(wscale_for(q, c));
    q.bias_i32[static_cast<std::size_t>(c)] = bias_i32_for(q, c);
    if (q.dequant_output) {
      q.dequant_scales.push_back(static_cast<float>(acc_scale));
    } else {
      q.requant.push_back(
          requant_from_real(acc_scale / static_cast<double>(q.out_scale)));
    }
  }
}

}  // namespace

void QuantModel::refresh_derived() {
  for (QLayer& q : layers_) refresh_layer_derived(q);
}

void QuantModel::refresh_layer(std::size_t layer) {
  DNNV_CHECK(layer < layers_.size(), "refresh_layer: bad layer " << layer);
  refresh_layer_derived(layers_[layer]);
}

std::int8_t QuantModel::code_at(std::size_t layer, bool is_bias,
                                std::int64_t index) const {
  DNNV_CHECK(layer < layers_.size(), "code_at: bad layer " << layer);
  const QLayer& q = layers_[layer];
  DNNV_CHECK(q.kind == QLayerKind::kConv2d || q.kind == QLayerKind::kDense,
             "code_at: layer " << layer << " carries no parameters");
  const auto& codes = is_bias ? q.bias_codes : q.weights;
  DNNV_CHECK(index >= 0 && index < static_cast<std::int64_t>(codes.size()),
             "code_at: index " << index << " out of range");
  return codes[static_cast<std::size_t>(index)];
}

std::int8_t QuantModel::poke_code(std::size_t layer, bool is_bias,
                                  std::int64_t index, std::int8_t code) {
  DNNV_CHECK(layer < layers_.size(), "poke_code: bad layer " << layer);
  QLayer& q = layers_[layer];
  DNNV_CHECK(q.kind == QLayerKind::kConv2d || q.kind == QLayerKind::kDense,
             "poke_code: layer " << layer << " carries no parameters");
  const std::int64_t channels = weight_channels(q);
  const std::int64_t fanin = weight_fanin(q);
  if (is_bias) {
    DNNV_CHECK(index >= 0 && index < channels,
               "poke_code: bias index " << index << " out of range");
    const auto c = static_cast<std::size_t>(index);
    const std::int8_t prev = q.bias_codes[c];
    if (prev == code) return prev;
    q.bias_codes[c] = code;
    q.bias_i32[c] = bias_i32_for(q, index);
    return prev;
  }
  DNNV_CHECK(index >= 0 && index < channels * fanin,
             "poke_code: weight index " << index << " out of range");
  const std::int8_t prev = q.weights[static_cast<std::size_t>(index)];
  if (prev == code) return prev;
  q.weights[static_cast<std::size_t>(index)] = code;
  if (q.kind == QLayerKind::kDense) {
    const std::int64_t c = index / fanin;
    const std::int64_t i = index % fanin;
    q.weights_t[static_cast<std::size_t>(i * channels + c)] = code;
  } else {
    // Panel layout is kernel-internal; re-pack the layer (still O(layer),
    // not O(model) — the event-driven simulator's per-fault cost).
    q.wpack = pack_conv_weights(channels, fanin, q.weights.data());
  }
  return prev;
}

std::int32_t QuantModel::requant_multiplier(std::size_t layer,
                                            std::int64_t channel) const {
  DNNV_CHECK(layer < layers_.size(), "requant_multiplier: bad layer");
  const QLayer& q = layers_[layer];
  DNNV_CHECK(channel >= 0 &&
                 channel < static_cast<std::int64_t>(q.requant.size()),
             "requant_multiplier: layer " << layer
                                          << " has no requant channel "
                                          << channel);
  return q.requant[static_cast<std::size_t>(channel)].multiplier;
}

void QuantModel::set_requant_multiplier(std::size_t layer,
                                        std::int64_t channel,
                                        std::int32_t multiplier) {
  DNNV_CHECK(layer < layers_.size(), "set_requant_multiplier: bad layer");
  QLayer& q = layers_[layer];
  DNNV_CHECK(channel >= 0 &&
                 channel < static_cast<std::int64_t>(q.requant.size()),
             "set_requant_multiplier: layer " << layer
                                              << " has no requant channel "
                                              << channel);
  q.requant[static_cast<std::size_t>(channel)].multiplier = multiplier;
}

void QuantModel::set_acc_fault(std::size_t layer, std::int64_t channel,
                               std::int32_t or_mask, std::int32_t and_mask) {
  DNNV_CHECK(layer < layers_.size(), "set_acc_fault: bad layer " << layer);
  QLayer& q = layers_[layer];
  DNNV_CHECK(q.kind == QLayerKind::kConv2d || q.kind == QLayerKind::kDense,
             "set_acc_fault: layer " << layer << " has no accumulator");
  DNNV_CHECK(channel >= 0 && channel < weight_channels(q),
             "set_acc_fault: channel " << channel << " out of range");
  q.acc_channel = channel;
  q.acc_or = or_mask;
  q.acc_and = and_mask;
}

void QuantModel::clear_acc_fault(std::size_t layer) {
  DNNV_CHECK(layer < layers_.size(), "clear_acc_fault: bad layer " << layer);
  QLayer& q = layers_[layer];
  q.acc_channel = -1;
  q.acc_or = 0;
  q.acc_and = -1;
}

const Tensor& QuantModel::forward(const Tensor& input, nn::Workspace& ws) {
  DNNV_CHECK(input.shape().ndim() >= 2,
             "expected a batched input, got " << input.shape());
  std::vector<std::int64_t> dims(input.shape().dims().begin() + 1,
                                 input.shape().dims().end());
  return forward_impl(&input, 0, nullptr, std::move(dims), input.shape()[0],
                      ws, nullptr, nullptr);
}

Tensor QuantModel::forward(const Tensor& input) {
  return forward(input, ws_);
}

const Tensor& QuantModel::forward_traced(const Tensor& input,
                                         nn::Workspace& ws,
                                         ForwardTrace& trace) {
  DNNV_CHECK(input.shape().ndim() >= 2,
             "expected a batched input, got " << input.shape());
  std::vector<std::int64_t> dims(input.shape().dims().begin() + 1,
                                 input.shape().dims().end());
  trace.batch = input.shape()[0];
  trace.entries.assign(layers_.size(), {});
  return forward_impl(&input, 0, nullptr, std::move(dims), input.shape()[0],
                      ws, &trace, nullptr);
}

const Tensor& QuantModel::forward_resume(const ForwardTrace& trace,
                                         std::size_t first_layer,
                                         nn::Workspace& ws) {
  DNNV_CHECK(first_layer >= 1 && first_layer < layers_.size(),
             "forward_resume: bad layer " << first_layer);
  DNNV_CHECK(trace.entries.size() == layers_.size() &&
                 trace.entries[first_layer].codes != nullptr,
             "forward_resume: trace does not cover layer " << first_layer);
  const ForwardTrace::Entry& entry = trace.entries[first_layer];
  return forward_impl(nullptr, first_layer, entry.codes, entry.dims,
                      trace.batch, ws, nullptr, nullptr);
}

const Tensor& QuantModel::forward_impl(
    const Tensor* input, std::size_t first, const std::int8_t* cur,
    std::vector<std::int64_t> dims, std::int64_t n, nn::Workspace& ws,
    ForwardTrace* trace,
    std::vector<std::pair<const std::int8_t*, std::int64_t>>* activations) {
  DNNV_CHECK(!layers_.empty(), "forward on an unquantized QuantModel");
  auto item_numel = [&dims] {
    std::int64_t numel = 1;
    for (const auto d : dims) numel *= d;
    return numel;
  };

  const Tensor* logits = nullptr;
  for (std::size_t li = first; li < layers_.size(); ++li) {
    if (trace && li > 0) {
      trace->entries[li].codes = cur;
      trace->entries[li].dims = dims;
    }
    const QLayer& q = layers_[li];
    switch (q.kind) {
      case QLayerKind::kQuantize: {
        const std::int64_t count = n * item_numel();
        DNNV_CHECK(input != nullptr && count == input->numel(),
                   "input size mismatch");
        auto& out = ws.i8_buffer(li, nn::kSlotOutput,
                                 static_cast<std::size_t>(count));
        const float inv = 1.0f / (q.input_norm_scale * q.out_scale);
        const float* x = input->data();
        std::int8_t* codes = out.data();
        for (std::int64_t e = 0; e < count; ++e) {
          codes[e] = round_to_code((x[e] - q.input_mean) * inv);
        }
        cur = codes;
        break;
      }
      case QLayerKind::kConv2d: {
        DNNV_CHECK(dims.size() == 3 && dims[0] == q.in_channels,
                   q.name << ": bad input dims");
        const std::int64_t h = dims[1], w = dims[2];
        const std::int64_t out_h = conv_out_dim(h, q.kernel, q.stride, q.pad);
        const std::int64_t out_w = conv_out_dim(w, q.kernel, q.stride, q.pad);
        const std::int64_t plane = out_h * out_w;
        const std::int64_t in_numel = item_numel();
        const QConvShape shape{q.in_channels, h,        w, q.out_channels,
                               q.kernel,      q.stride, q.pad};
        auto& acc = ws.i32_buffer(li, nn::kSlotScratch1,
                                  static_cast<std::size_t>(q.out_channels * plane));
        auto& out =
            ws.i8_buffer(li, nn::kSlotOutput,
                         static_cast<std::size_t>(n * q.out_channels * plane));
        // All scratch is Workspace-arena backed — resized in place, so a
        // warmed-up forward allocates nothing.
        const QConvScratchSizes sizes = qconv_scratch_sizes(shape);
        const QConvScratch scratch{
            ws.i8_buffer(li, nn::kSlotScratch0, sizes.b_pack).data(),
            ws.i32_buffer(li, nn::kSlotScratch2, sizes.colsum).data(),
            ws.i8_buffer(li, nn::kSlotScratch2, sizes.rowbuf).data()};
        for (std::int64_t item = 0; item < n; ++item) {
          qconv2d_fused(shape, q.wpack, cur + item * in_numel, acc.data(),
                        scratch);
          std::int8_t* dst = out.data() + item * q.out_channels * plane;
          for (std::int64_t c = 0; c < q.out_channels; ++c) {
            const auto ch = static_cast<std::size_t>(c);
            const bool armed = q.acc_channel == c;
            requantize_row(acc.data() + c * plane, plane, q.bias_i32[ch],
                           q.requant[ch], armed ? q.acc_or : 0,
                           armed ? q.acc_and : -1, dst + c * plane);
          }
        }
        dims = {q.out_channels, out_h, out_w};
        cur = out.data();
        break;
      }
      case QLayerKind::kDense: {
        DNNV_CHECK(item_numel() == q.in_features, q.name << ": bad input dims");
        auto& acc = ws.i32_buffer(li, nn::kSlotScratch1,
                                  static_cast<std::size_t>(n * q.out_features));
        qgemm(n, q.out_features, q.in_features, cur, q.weights_t.data(),
              acc.data());
        // The armed accumulator stuck-at masks one channel's biased
        // accumulator before dequant / requant; every other channel passes
        // the identity masks 0 / -1.
        const std::int64_t f = q.out_features;
        if (q.dequant_output) {
          Tensor& out = ws.buffer(li, nn::kSlotOutput,
                                  Shape{std::vector<std::int64_t>{n, f}});
          for (std::int64_t row = 0; row < n; ++row) {
            for (std::int64_t c = 0; c < f; ++c) {
              const auto ch = static_cast<std::size_t>(c);
              const bool armed = q.acc_channel == c;
              const std::int32_t a =
                  (sat_add(acc[static_cast<std::size_t>(row * f + c)],
                           q.bias_i32[ch]) |
                   (armed ? q.acc_or : 0)) &
                  (armed ? q.acc_and : -1);
              out[row * f + c] = static_cast<float>(a) * q.dequant_scales[ch];
            }
          }
          logits = &out;
        } else {
          auto& out = ws.i8_buffer(li, nn::kSlotOutput,
                                   static_cast<std::size_t>(n * f));
          // Each channel's constants change along a row: the row kernel
          // runs one element at a time here.
          for (std::int64_t row = 0; row < n; ++row) {
            for (std::int64_t c = 0; c < f; ++c) {
              const auto ch = static_cast<std::size_t>(c);
              const bool armed = q.acc_channel == c;
              requantize_row(acc.data() + row * f + c, 1, q.bias_i32[ch],
                             q.requant[ch], armed ? q.acc_or : 0,
                             armed ? q.acc_and : -1, out.data() + row * f + c);
            }
          }
          dims = {q.out_features};
          cur = out.data();
        }
        break;
      }
      case QLayerKind::kMaxPool: {
        DNNV_CHECK(dims.size() == 3, q.name << ": expects CHW input");
        const std::int64_t c = dims[0], h = dims[1], w = dims[2];
        const std::int64_t out_h = conv_out_dim(h, q.kernel, q.stride, 0);
        const std::int64_t out_w = conv_out_dim(w, q.kernel, q.stride, 0);
        const std::int64_t in_numel = item_numel();
        auto& out = ws.i8_buffer(li, nn::kSlotOutput,
                                 static_cast<std::size_t>(n * c * out_h * out_w));
        for (std::int64_t item = 0; item < n; ++item) {
          maxpool2d_s8(cur + item * in_numel, c, h, w, q.kernel, q.stride,
                       out.data() + item * c * out_h * out_w);
        }
        dims = {c, out_h, out_w};
        cur = out.data();
        break;
      }
      case QLayerKind::kActivation: {
        const std::int64_t count = n * item_numel();
        auto& out = ws.i8_buffer(li, nn::kSlotOutput,
                                 static_cast<std::size_t>(count));
        apply_lut(q.lut, cur, count, out.data());
        cur = out.data();
        if (activations) activations->emplace_back(out.data(), item_numel());
        break;
      }
      case QLayerKind::kFlatten: {
        dims = {item_numel()};
        break;
      }
    }
  }
  DNNV_CHECK(logits != nullptr, "model has no dequantizing logit layer");
  return *logits;
}

std::vector<int> QuantModel::predict_labels(const Tensor& batch) {
  const Tensor& logits = forward(batch, ws_);
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

std::vector<DynamicBitset> QuantModel::activation_masks_int8(
    const Tensor& batch, nn::Workspace& ws) {
  std::vector<std::pair<const std::int8_t*, std::int64_t>> sites;
  DNNV_CHECK(batch.shape().ndim() >= 2,
             "expected a batched input, got " << batch.shape());
  std::vector<std::int64_t> item_dims(batch.shape().dims().begin() + 1,
                                      batch.shape().dims().end());
  forward_impl(&batch, 0, nullptr, std::move(item_dims), batch.shape()[0], ws,
               nullptr, &sites);
  const std::int64_t n = batch.shape()[0];
  std::int64_t total = 0;
  for (const auto& [ptr, size] : sites) total += size;
  std::vector<DynamicBitset> masks;
  masks.reserve(static_cast<std::size_t>(n));
  for (std::int64_t item = 0; item < n; ++item) {
    DynamicBitset mask(static_cast<std::size_t>(total));
    std::size_t bit = 0;
    for (const auto& [ptr, size] : sites) {
      const std::int8_t* codes = ptr + item * size;
      for (std::int64_t u = 0; u < size; ++u, ++bit) {
        if (codes[u] != 0) mask.set(bit);
      }
    }
    masks.push_back(std::move(mask));
  }
  return masks;
}

std::vector<DynamicBitset> QuantModel::activation_masks_int8(
    const Tensor& batch) {
  return activation_masks_int8(batch, ws_);
}

nn::Sequential QuantModel::dequantized_reference() const {
  Rng rng(0);  // constructors need an Rng; every parameter is overwritten
  nn::Sequential ref;
  for (const QLayer& q : layers_) {
    switch (q.kind) {
      case QLayerKind::kQuantize:
        if (has_normalize_) {
          ref.add(std::make_unique<nn::Normalize>(q.input_mean,
                                                  q.input_norm_scale));
        }
        break;
      case QLayerKind::kConv2d: {
        nn::Conv2d::Config cfg;
        cfg.in_channels = q.in_channels;
        cfg.out_channels = q.out_channels;
        cfg.kernel = q.kernel;
        cfg.stride = q.stride;
        cfg.pad = q.pad;
        auto conv = std::make_unique<nn::Conv2d>(cfg, rng);
        const std::int64_t fanin = weight_fanin(q);
        for (std::int64_t c = 0; c < q.out_channels; ++c) {
          const float scale = wscale_for(q, c);
          for (std::int64_t i = 0; i < fanin; ++i) {
            conv->weights()[c * fanin + i] =
                scale * q.weights[static_cast<std::size_t>(c * fanin + i)];
          }
          conv->bias()[c] =
              q.bias_scale * q.bias_codes[static_cast<std::size_t>(c)];
        }
        ref.add(std::move(conv));
        break;
      }
      case QLayerKind::kDense: {
        auto dense =
            std::make_unique<nn::Dense>(q.in_features, q.out_features, rng);
        for (std::int64_t c = 0; c < q.out_features; ++c) {
          const float scale = wscale_for(q, c);
          for (std::int64_t i = 0; i < q.in_features; ++i) {
            dense->weights()[c * q.in_features + i] =
                scale *
                q.weights[static_cast<std::size_t>(c * q.in_features + i)];
          }
          dense->bias()[c] =
              q.bias_scale * q.bias_codes[static_cast<std::size_t>(c)];
        }
        ref.add(std::move(dense));
        break;
      }
      case QLayerKind::kActivation:
        ref.add(std::make_unique<nn::ActivationLayer>(q.activation));
        break;
      case QLayerKind::kMaxPool:
        ref.add(std::make_unique<nn::MaxPool2d>(q.kernel, q.stride));
        break;
      case QLayerKind::kFlatten:
        ref.add(std::make_unique<nn::Flatten>());
        break;
    }
  }
  return ref;
}

double QuantModel::logit_error_bound() const {
  DNNV_CHECK(!layers_.empty(), "bound on an unquantized QuantModel");
  double err = 0.0;
  double amax_in = 0.0;
  double bound = 0.0;
  for (const QLayer& q : layers_) {
    switch (q.kind) {
      case QLayerKind::kQuantize:
        err = 0.5 * q.out_scale;
        amax_in = 127.0 * q.out_scale;
        err += kFloatSlack * amax_in;
        break;
      case QLayerKind::kConv2d:
      case QLayerKind::kDense: {
        const std::int64_t channels = weight_channels(q);
        const std::int64_t fanin = weight_fanin(q);
        double worst = 0.0;
        for (std::int64_t c = 0; c < channels; ++c) {
          const double sw = wscale_for(q, c);
          std::int64_t abs_sum = 0;
          for (std::int64_t i = 0; i < fanin; ++i) {
            abs_sum += std::abs(static_cast<int>(
                q.weights[static_cast<std::size_t>(c * fanin + i)]));
          }
          // Dequantized row L1 norm propagates the incoming error; the
          // remaining terms are this layer's own rounding: weights vs the
          // float originals, bias int8 code, bias int32 grid snap, and (for
          // requantizing layers) the output grid + Q31 multiplier.
          double e = sw * static_cast<double>(abs_sum) * err +
                     static_cast<double>(fanin) * 0.5 * sw * amax_in +
                     0.5 * q.in_scale * sw + 0.5 * q.bias_scale;
          if (!q.dequant_output) {
            e += 0.5 * q.out_scale +
                 127.0 * q.out_scale * std::ldexp(1.0, -30);
          }
          worst = std::max(worst, e);
        }
        err = worst;
        if (q.dequant_output) {
          bound = err;
        } else {
          amax_in = 127.0 * q.out_scale;
          err += kFloatSlack * amax_in;
        }
        break;
      }
      case QLayerKind::kActivation:
        // Supported activations are 1-Lipschitz; the LUT adds its rounding.
        err += 0.5 * q.out_scale;
        amax_in = 127.0 * q.out_scale;
        err += kFloatSlack * amax_in;
        break;
      case QLayerKind::kMaxPool:   // max is 1-Lipschitz in the sup norm
      case QLayerKind::kFlatten:
        break;
    }
  }
  return bound * 1.0001 + 1e-6;
}

std::vector<QTensorView> QuantModel::param_views() {
  std::vector<QTensorView> views;
  for (QLayer& q : layers_) {
    if (q.kind != QLayerKind::kConv2d && q.kind != QLayerKind::kDense) continue;
    const std::int64_t channels = weight_channels(q);
    const std::int64_t fanin = weight_fanin(q);
    QTensorView w;
    w.name = q.name + ".weight";
    w.codes = q.weights.data();
    w.size = channels * fanin;
    w.per_channel = q.wscales.size() > 1 ? fanin : w.size;
    w.scales = q.wscales;
    views.push_back(std::move(w));
    QTensorView b;
    b.name = q.name + ".bias";
    b.codes = q.bias_codes.data();
    b.size = channels;
    b.per_channel = channels;
    b.scales = {q.bias_scale};
    b.is_bias = true;
    views.push_back(std::move(b));
  }
  return views;
}

std::int64_t QuantModel::param_count() const {
  std::int64_t count = 0;
  for (const QLayer& q : layers_) {
    if (q.kind != QLayerKind::kConv2d && q.kind != QLayerKind::kDense) continue;
    count += weight_channels(q) * (weight_fanin(q) + 1);
  }
  return count;
}

void QuantModel::requantize_weights_from(nn::Sequential& model) {
  std::size_t qi = 0;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    const std::string kind = model.layer(i).kind();
    if (kind != "conv2d" && kind != "dense") continue;
    while (qi < layers_.size() && layers_[qi].kind != QLayerKind::kConv2d &&
           layers_[qi].kind != QLayerKind::kDense) {
      ++qi;
    }
    DNNV_CHECK(qi < layers_.size(), "model has more parameter layers than "
                                    "the quantized structure");
    QLayer& q = layers_[qi++];
    if (kind == "conv2d") {
      DNNV_CHECK(q.kind == QLayerKind::kConv2d, "layer kind mismatch at " << i);
      auto& conv = dynamic_cast<nn::Conv2d&>(model.layer(i));
      quantize_params(q, conv.weights(), conv.bias(),
                      config_.weight_granularity);
    } else {
      DNNV_CHECK(q.kind == QLayerKind::kDense, "layer kind mismatch at " << i);
      auto& dense = dynamic_cast<nn::Dense&>(model.layer(i));
      quantize_params(q, dense.weights(), dense.bias(),
                      config_.weight_granularity);
    }
  }
  while (qi < layers_.size() && layers_[qi].kind != QLayerKind::kConv2d &&
         layers_[qi].kind != QLayerKind::kDense) {
    ++qi;
  }
  DNNV_CHECK(qi == layers_.size(),
             "quantized structure has more parameter layers than the model");
  refresh_derived();
}

void QuantModel::save(ByteWriter& writer) const {
  writer.write_u32(kQuantMagic);
  writer.write_u32(kQuantVersion);
  writer.write_u8(static_cast<std::uint8_t>(config_.weight_granularity));
  writer.write_u8(static_cast<std::uint8_t>(config_.calibration));
  writer.write_f64(config_.percentile);
  writer.write_i64(config_.max_calibration_items);
  writer.write_u8(has_normalize_ ? 1 : 0);
  writer.write_u64(layers_.size());
  for (const QLayer& q : layers_) {
    writer.write_u8(static_cast<std::uint8_t>(q.kind));
    writer.write_string(q.name);
    writer.write_f32(q.in_scale);
    writer.write_f32(q.out_scale);
    switch (q.kind) {
      case QLayerKind::kQuantize:
        writer.write_f32(q.input_mean);
        writer.write_f32(q.input_norm_scale);
        break;
      case QLayerKind::kConv2d:
      case QLayerKind::kDense: {
        writer.write_i64(q.in_channels);
        writer.write_i64(q.out_channels);
        writer.write_i64(q.kernel);
        writer.write_i64(q.stride);
        writer.write_i64(q.pad);
        writer.write_i64(q.in_features);
        writer.write_i64(q.out_features);
        writer.write_u8(q.dequant_output ? 1 : 0);
        writer.write_u64(q.wscales.size());
        for (const float s : q.wscales) writer.write_f32(s);
        writer.write_u64(q.weights.size());
        writer.write_bytes(q.weights.data(), q.weights.size());
        writer.write_f32(q.bias_scale);
        writer.write_u64(q.bias_codes.size());
        writer.write_bytes(q.bias_codes.data(), q.bias_codes.size());
        break;
      }
      case QLayerKind::kActivation:
        writer.write_string(nn::to_string(q.activation));
        break;
      case QLayerKind::kMaxPool:
        writer.write_i64(q.kernel);
        writer.write_i64(q.stride);
        break;
      case QLayerKind::kFlatten:
        break;
    }
  }
}

QuantModel QuantModel::load(ByteReader& reader) {
  DNNV_CHECK(reader.read_u32() == kQuantMagic, "not a QuantModel stream");
  DNNV_CHECK(reader.read_u32() == kQuantVersion,
             "unsupported QuantModel version");
  QuantModel qm;
  qm.config_.weight_granularity = static_cast<Granularity>(reader.read_u8());
  qm.config_.calibration = static_cast<CalibrationMethod>(reader.read_u8());
  qm.config_.percentile = reader.read_f64();
  qm.config_.max_calibration_items = reader.read_i64();
  qm.has_normalize_ = reader.read_u8() != 0;
  // Smallest layer record: kind u8, name (u64 length), two f32 scales.
  const std::size_t count = reader.read_count(1 + sizeof(std::uint64_t) +
                                              2 * sizeof(float));
  DNNV_CHECK(count > 0, "QuantModel stream has no layers");
  for (std::size_t li = 0; li < count; ++li) {
    QLayer q;
    q.kind = static_cast<QLayerKind>(reader.read_u8());
    q.name = reader.read_string();
    q.in_scale = reader.read_f32();
    q.out_scale = reader.read_f32();
    switch (q.kind) {
      case QLayerKind::kQuantize:
        q.input_mean = reader.read_f32();
        q.input_norm_scale = reader.read_f32();
        break;
      case QLayerKind::kConv2d:
      case QLayerKind::kDense: {
        q.in_channels = reader.read_i64();
        q.out_channels = reader.read_i64();
        q.kernel = reader.read_i64();
        q.stride = reader.read_i64();
        q.pad = reader.read_i64();
        q.in_features = reader.read_i64();
        q.out_features = reader.read_i64();
        q.dequant_output = reader.read_u8() != 0;
        // The weight geometry is bounded by the stream (one byte per code)
        // before weight_channels() or weight_fanin() multiplies it.
        const bool conv = q.kind == QLayerKind::kConv2d;
        if (conv) {
          DNNV_CHECK(nn::Conv2d::valid({q.in_channels, q.out_channels,
                                        q.kernel, q.stride, q.pad}),
                     q.name << ": corrupt conv geometry");
        } else {
          DNNV_CHECK(q.in_features > 0 && q.out_features > 0,
                     q.name << ": corrupt dense geometry");
        }
        const std::size_t weight_count =
            conv ? reader.geometry_count(
                       {q.out_channels, q.in_channels, q.kernel, q.kernel}, 1)
                 : reader.geometry_count({q.out_features, q.in_features}, 1);
        const auto channels = static_cast<std::size_t>(weight_channels(q));
        const std::size_t num_scales = reader.read_count(sizeof(float));
        DNNV_CHECK(num_scales == 1 || num_scales == channels,
                   q.name << ": " << num_scales << " weight scales for "
                          << channels << " channels");
        for (std::size_t s = 0; s < num_scales; ++s) {
          q.wscales.push_back(reader.read_f32());
        }
        const std::size_t wsize = reader.read_count(1);
        const auto wbytes = reader.read_bytes(wsize);
        q.weights.resize(wbytes.size());
        std::memcpy(q.weights.data(), wbytes.data(), wbytes.size());
        q.bias_scale = reader.read_f32();
        const std::size_t bsize = reader.read_count(1);
        const auto bbytes = reader.read_bytes(bsize);
        q.bias_codes.resize(bbytes.size());
        std::memcpy(q.bias_codes.data(), bbytes.data(), bbytes.size());
        DNNV_CHECK(wsize == weight_count && bsize == channels,
                   q.name << ": corrupt parameter sizes");
        if (q.dequant_output) {
          qm.num_classes_ = static_cast<int>(q.out_features);
        }
        break;
      }
      case QLayerKind::kActivation:
        q.activation = nn::activation_from_string(reader.read_string());
        break;
      case QLayerKind::kMaxPool:
        q.kernel = reader.read_i64();
        q.stride = reader.read_i64();
        DNNV_CHECK(q.kernel >= 1 && q.stride >= 1,
                   q.name << ": corrupt max-pool geometry k" << q.kernel
                          << " s" << q.stride);
        break;
      case QLayerKind::kFlatten:
        break;
      default:
        DNNV_THROW(q.name << ": unknown layer kind "
                          << static_cast<int>(q.kind));
    }
    qm.layers_.push_back(std::move(q));
  }
  qm.refresh_derived();
  return qm;
}

void QuantModel::save_file(const std::string& path) const {
  ByteWriter payload;
  save(payload);
  ByteWriter file;
  file.write_bytes(payload.bytes().data(), payload.bytes().size());
  file.write_u32(crc32(payload.bytes()));  // CRC-32 footer over the payload
  write_file(path, file.bytes());
}

QuantModel QuantModel::load_file(const std::string& path) {
  std::vector<std::uint8_t> bytes = read_file(path);
  DNNV_CHECK(bytes.size() > 4, "QuantModel file too small: " << path);
  const std::size_t payload_size = bytes.size() - 4;
  std::uint32_t footer = 0;
  for (int b = 0; b < 4; ++b) {
    footer |= static_cast<std::uint32_t>(bytes[payload_size + b]) << (8 * b);
  }
  DNNV_CHECK(crc32(bytes.data(), payload_size) == footer,
             "QuantModel CRC mismatch (corrupted file): " << path);
  bytes.resize(payload_size);
  ByteReader reader(std::move(bytes));
  return load(reader);
}

std::string QuantModel::summary() const {
  std::ostringstream os;
  bool sep = false;
  for (const QLayer& q : layers_) {
    if (sep) os << " -> ";
    sep = true;
    switch (q.kind) {
      case QLayerKind::kQuantize:
        os << "quantize(s=" << q.out_scale << ")";
        break;
      case QLayerKind::kConv2d:
        os << "qconv2d(" << q.in_channels << "->" << q.out_channels << ",k"
           << q.kernel << (q.wscales.size() > 1 ? ",pc" : ",pt") << ")";
        break;
      case QLayerKind::kDense:
        os << "qdense(" << q.in_features << "->" << q.out_features
           << (q.wscales.size() > 1 ? ",pc" : ",pt")
           << (q.dequant_output ? ",dequant" : "") << ")";
        break;
      case QLayerKind::kActivation:
        os << "lut(" << nn::to_string(q.activation) << ")";
        break;
      case QLayerKind::kMaxPool:
        os << "qmaxpool(" << q.kernel << ")";
        break;
      case QLayerKind::kFlatten:
        os << "flatten";
        break;
    }
  }
  return os.str();
}

}  // namespace dnnv::quant
