// Reference interpreter for the int8 QuantModel IR (the oracle). Only tests
// and bench_quant_gemm's result check use it; nothing under src/ does.
//
// Every layer is one scalar loop nest written from its definition: no qgemm,
// no qconv2d_fused, no im2col, no panel packing, and none of the engine's
// derived copies (transposed weights, packed panels, bias_i32). The oracle
// shares only the IR's semantics with the engine: the input quantize
// rounding, requantize() with each channel's multiplier, each layer's LUT,
// bias_code_to_i32() on the canonical bias codes, the saturating bias add
// and the armed accumulator stuck-at masks. It calls the scalar requantize()
// per element, never the engine's requantize_row(). Every engine path — either
// micro-kernel, any batch size or thread count, forward_resume, the batched
// fault simulator — must match it bit for bit.
#ifndef DNNV_TESTS_QUANT_REFERENCE_H_
#define DNNV_TESTS_QUANT_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "quant/qconv.h"
#include "quant/quant_model.h"
#include "quant/quantize.h"
#include "tensor/tensor.h"

namespace dnnv::quant::reference {

/// C[M,N] = A[M,K] * B[K,N] (row-major int8, exact int32 sums).
inline void gemm(std::int64_t m, std::int64_t n, std::int64_t k,
                 const std::int8_t* a, const std::int8_t* b, std::int32_t* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int32_t sum = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        sum += std::int32_t{a[i * k + p]} * std::int32_t{b[p * n + j]};
      }
      c[i * n + j] = sum;
    }
  }
}

/// Direct convolution of one CHW image: acc[out_channels, out_h, out_w] with
/// weights [out_channels, in_channels * k * k]; padding taps contribute 0.
inline void conv(const QConvShape& s, const std::int8_t* weights,
                 const std::int8_t* image, std::int32_t* acc) {
  const std::int64_t out_h = s.out_h(), out_w = s.out_w();
  for (std::int64_t oc = 0; oc < s.out_channels; ++oc) {
    for (std::int64_t oy = 0; oy < out_h; ++oy) {
      for (std::int64_t ox = 0; ox < out_w; ++ox) {
        std::int32_t sum = 0;
        for (std::int64_t c = 0; c < s.in_channels; ++c) {
          for (std::int64_t ky = 0; ky < s.kernel; ++ky) {
            for (std::int64_t kx = 0; kx < s.kernel; ++kx) {
              const std::int64_t iy = oy * s.stride - s.pad + ky;
              const std::int64_t ix = ox * s.stride - s.pad + kx;
              if (iy < 0 || iy >= s.height || ix < 0 || ix >= s.width) continue;
              sum += std::int32_t{weights[oc * s.fanin() +
                                          (c * s.kernel + ky) * s.kernel + kx]} *
                     std::int32_t{image[(c * s.height + iy) * s.width + ix]};
            }
          }
        }
        acc[(oc * out_h + oy) * out_w + ox] = sum;
      }
    }
  }
}

/// Channel c's accumulator after the bias add (saturating: hardware adders
/// clamp) and the armed accumulator stuck-at masks.
inline std::int32_t epilogue(const QLayer& q, std::int64_t c,
                             std::int32_t acc) {
  const std::int64_t sum =
      std::int64_t{acc} +
      bias_code_to_i32(q, c, q.bias_codes[static_cast<std::size_t>(c)]);
  auto a = static_cast<std::int32_t>(
      std::clamp<std::int64_t>(sum, std::numeric_limits<std::int32_t>::min(),
                               std::numeric_limits<std::int32_t>::max()));
  if (c == q.acc_channel) a = (a | q.acc_or) & q.acc_and;
  return a;
}

/// One item through every layer: float input `x` with per-item dims `dims`
/// in, that item's logits out.
inline std::vector<float> run_item(const QuantModel& model, const float* x,
                                   std::vector<std::int64_t> dims) {
  std::vector<std::int8_t> codes;
  for (const QLayer& q : model.layers()) {
    std::vector<std::int8_t> out;
    switch (q.kind) {
      case QLayerKind::kQuantize: {
        std::int64_t count = 1;
        for (const auto d : dims) count *= d;
        const float inv = 1.0f / (q.input_norm_scale * q.out_scale);
        for (std::int64_t e = 0; e < count; ++e) {
          out.push_back(round_to_code((x[e] - q.input_mean) * inv));
        }
        break;
      }
      case QLayerKind::kConv2d:
      case QLayerKind::kDense: {
        const std::int64_t channels = weight_channels(q);
        std::vector<std::int64_t> out_dims = {channels};
        std::vector<std::int32_t> acc;
        if (q.kind == QLayerKind::kConv2d) {
          const QConvShape s{q.in_channels, dims[1],  dims[2], channels,
                             q.kernel,      q.stride, q.pad};
          out_dims = {channels, s.out_h(), s.out_w()};
          acc.resize(static_cast<std::size_t>(channels * s.plane()));
          conv(s, q.weights.data(), codes.data(), acc.data());
        } else {
          acc.resize(static_cast<std::size_t>(channels));
          gemm(channels, 1, q.in_features, q.weights.data(), codes.data(),
               acc.data());
        }
        const std::int64_t plane = static_cast<std::int64_t>(acc.size()) / channels;
        if (q.dequant_output) {
          std::vector<float> logits;
          for (std::int64_t c = 0; c < channels; ++c) {
            const double acc_scale = static_cast<double>(q.in_scale) *
                                     static_cast<double>(wscale_for(q, c));
            logits.push_back(static_cast<float>(epilogue(
                                 q, c, acc[static_cast<std::size_t>(c)])) *
                             static_cast<float>(acc_scale));
          }
          return logits;
        }
        for (std::int64_t c = 0; c < channels; ++c) {
          for (std::int64_t p = 0; p < plane; ++p) {
            out.push_back(requantize(
                epilogue(q, c, acc[static_cast<std::size_t>(c * plane + p)]),
                q.requant[static_cast<std::size_t>(c)]));
          }
        }
        dims = out_dims;
        break;
      }
      case QLayerKind::kMaxPool: {
        const std::int64_t h = dims[1], w = dims[2];
        const std::int64_t out_h = (h - q.kernel) / q.stride + 1;
        const std::int64_t out_w = (w - q.kernel) / q.stride + 1;
        for (std::int64_t c = 0; c < dims[0]; ++c) {
          for (std::int64_t oy = 0; oy < out_h; ++oy) {
            for (std::int64_t ox = 0; ox < out_w; ++ox) {
              std::int8_t best = std::numeric_limits<std::int8_t>::min();
              for (std::int64_t ky = 0; ky < q.kernel; ++ky) {
                for (std::int64_t kx = 0; kx < q.kernel; ++kx) {
                  best = std::max(
                      best, codes[static_cast<std::size_t>(
                                (c * h + oy * q.stride + ky) * w +
                                ox * q.stride + kx)]);
                }
              }
              out.push_back(best);
            }
          }
        }
        dims = {dims[0], out_h, out_w};
        break;
      }
      case QLayerKind::kActivation:
        for (const std::int8_t code : codes) {
          out.push_back(q.lut[static_cast<std::uint8_t>(code)]);
        }
        break;
      case QLayerKind::kFlatten:
        out = std::move(codes);
        dims = {static_cast<std::int64_t>(out.size())};
        break;
    }
    codes = std::move(out);
  }
  return {};  // unreachable: quantized models end in the dequantizing logit layer
}

/// Batched oracle forward: float input [N, ...] -> logits [N, num_classes].
inline Tensor forward(const QuantModel& model, const Tensor& input) {
  const std::int64_t n = input.shape()[0];
  const std::vector<std::int64_t> dims(input.shape().dims().begin() + 1,
                                       input.shape().dims().end());
  const std::int64_t item = input.numel() / n;
  const std::int64_t k = model.num_classes();
  Tensor logits(Shape{n, k});
  for (std::int64_t i = 0; i < n; ++i) {
    const std::vector<float> row = run_item(model, input.data() + i * item, dims);
    std::copy(row.begin(), row.end(), logits.data() + i * k);
  }
  return logits;
}

/// argmax labels of forward(), ties to the lowest class (as predict_labels).
inline std::vector<int> labels(const QuantModel& model, const Tensor& input) {
  const Tensor logits = forward(model, input);
  const std::int64_t k = logits.shape()[1];
  std::vector<int> out;
  for (std::int64_t row = 0; row < logits.shape()[0]; ++row) {
    const float* r = logits.data() + row * k;
    out.push_back(static_cast<int>(std::max_element(r, r + k) - r));
  }
  return out;
}

}  // namespace dnnv::quant::reference

#endif  // DNNV_TESTS_QUANT_REFERENCE_H_
