// Reference float convolution, dense layer and max-pool (the oracles for
// nn::Conv2d, nn::Dense and nn::MaxPool2d). Only tests use it; nothing under
// src/ does.
//
// Every pass is a scalar loop nest written from the definition of a
// cross-correlation over NCHW tensors: no gemm, no im2col or col2im, no
// padded copies and no tiling. What they share with the engine is the
// summation order every float depends on, spelled out here:
//
//   forward   y = (0 + S_0 + S_1 + ...) + bias, where S_b sums the products
//             of taps [256 b, 256 b + 256) in (c, ky, kx) order as a chain
//             from +0; a padding tap multiplies 0.
//   gradient  dx = 0 + D(0, 0) + D(0, 1) + ... over the taps (ky, kx) that
//             some output reaches, in (ky, kx) order, where
//             D = 0 + T_0 + T_1 + ... and T_b sums the products of output
//             channels [256 b, 256 b + 256) as a chain from +0.
//   weights   dW[oc][t] = 0 + R_0 + R_1 + ... over the items in order, then
//             within an item over blocks b, where R_b sums
//             dy[oc][p] * x_t[p] over the output positions
//             p = oy * out_w + ox in [256 b, 256 b + 256) as a chain from
//             +0 (a block may end mid-row); x_t[p] is the input under tap t
//             of output p, 0 on padding.
//   bias      db[oc] = 0 + B_0 + B_1 + ... over the items, B_i summing
//             dy[oc][p] over all of item i's positions as one chain from +0.
//
// The sensitivity passes are the same loops over absolute values: the
// weight and bias sensitivities use s and |x|, the input sensitivity |W|
// and s. The 256 is the float GEMM's K slice (kGemmKBlock), the order in
// which the im2col + GEMM formulation of the same layer adds its products.
// Every Conv2d path must match these loops bit for bit.
//
// The dense layer sums as the float GEMM does, each product chain link a
// mul_add (tensor/gemm.h: fused where the target has an FMA):
//   forward   y[i][j] = (0 + S_0 + S_1 + ...) + b[j], S_b chaining
//             x[i][p] * W[j][p] from +0 over features [256 b, 256 b + 256);
//   gradient  dx[i][p] = 0 + T_0 + T_1 + ..., T_b chaining dy[i][j] * W[j][p]
//             from +0 over output units [256 b, 256 b + 256).
// Its per-item sensitivity is the value dataflow over absolute values:
//   weights   sW[j][p] = s[j] * |x[p]|, bias sb[j] = s[j];
//   input     s_in[p] = 0 + s[0] * |W[0][p]| + s[1] * |W[1][p]| + ..., one
//             chain over the output units in order.
// Max-pool takes each window's first maximum in (ky, kx) order: a tap
// replaces the running maximum only when strictly greater, so ties keep the
// earlier tap, a NaN never wins against a number and a NaN first tap stays.
// Its gradient adds each output's gradient into its winning tap, outputs in
// order.
//
// Two whole-model oracles for the parameter-coverage masks close the file:
// model_sensitivity composes the layer references above into one item's
// absolute-sensitivity pass, and per_class_exact_mask is the union over the
// logits of the value backward()'s exact gradients.
#ifndef DNNV_TESTS_NN_REFERENCE_H_
#define DNNV_TESTS_NN_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/activation_layer.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/maxpool2d.h"
#include "nn/normalize.h"
#include "nn/sequential.h"
#include "tensor/batch.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "util/bitset.h"
#include "util/error.h"

namespace dnnv::nn::reference {

/// Length of the product chains both passes sum separately.
constexpr std::int64_t kBlock = 256;

/// Forward pass of a batch: input [N, C, H, W] -> [N, out_c, out_h, out_w],
/// weights [out_c, C * k * k] in (c, ky, kx) order.
inline Tensor conv_forward(const Conv2d::Config& cfg, const float* weights,
                           const float* bias, const Tensor& input) {
  const std::int64_t n = input.shape()[0], channels = cfg.in_channels;
  const std::int64_t h = input.shape()[2], w = input.shape()[3];
  const std::int64_t k = cfg.kernel, taps = channels * k * k;
  const std::int64_t out_h = (h + 2 * cfg.pad - k) / cfg.stride + 1;
  const std::int64_t out_w = (w + 2 * cfg.pad - k) / cfg.stride + 1;
  Tensor out(Shape{n, cfg.out_channels, out_h, out_w});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t oc = 0; oc < cfg.out_channels; ++oc) {
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          float acc = 0.0f;
          for (std::int64_t t0 = 0; t0 < taps; t0 += kBlock) {
            float sum = 0.0f;
            for (std::int64_t t = t0; t < std::min(taps, t0 + kBlock); ++t) {
              const std::int64_t c = t / (k * k);
              const std::int64_t iy = oy * cfg.stride - cfg.pad + t / k % k;
              const std::int64_t ix = ox * cfg.stride - cfg.pad + t % k;
              const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < w;
              const float x =
                  inside ? input.data()[((i * channels + c) * h + iy) * w + ix]
                         : 0.0f;
              sum += weights[oc * taps + t] * x;
            }
            acc += sum;
          }
          out.data()[((i * cfg.out_channels + oc) * out_h + oy) * out_w + ox] =
              acc + bias[oc];
        }
      }
    }
  }
  return out;
}

/// Input gradient of a batch: grad_output [N, out_c, out_h, out_w] -> a
/// tensor of `input_shape` [N, C, H, W].
inline Tensor conv_input_gradient(const Conv2d::Config& cfg,
                                  const float* weights,
                                  const Shape& input_shape,
                                  const Tensor& grad_output) {
  const std::int64_t n = input_shape[0], channels = cfg.in_channels;
  const std::int64_t h = input_shape[2], w = input_shape[3];
  const std::int64_t k = cfg.kernel, taps = channels * k * k;
  const std::int64_t out_c = cfg.out_channels;
  const std::int64_t out_h = grad_output.shape()[2];
  const std::int64_t out_w = grad_output.shape()[3];
  Tensor grad(input_shape);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t c = 0; c < channels; ++c) {
      for (std::int64_t iy = 0; iy < h; ++iy) {
        for (std::int64_t ix = 0; ix < w; ++ix) {
          float acc = 0.0f;
          for (std::int64_t ky = 0; ky < k; ++ky) {
            for (std::int64_t kx = 0; kx < k; ++kx) {
              // The output whose tap (ky, kx) reads pixel (iy, ix), if any.
              const std::int64_t y = iy + cfg.pad - ky;
              const std::int64_t x = ix + cfg.pad - kx;
              if (y < 0 || x < 0 || y % cfg.stride != 0 ||
                  x % cfg.stride != 0) {
                continue;
              }
              const std::int64_t oy = y / cfg.stride, ox = x / cfg.stride;
              if (oy >= out_h || ox >= out_w) continue;
              float dot = 0.0f;
              for (std::int64_t o0 = 0; o0 < out_c; o0 += kBlock) {
                float sum = 0.0f;
                for (std::int64_t oc = o0; oc < std::min(out_c, o0 + kBlock);
                     ++oc) {
                  sum += weights[oc * taps + (c * k + ky) * k + kx] *
                         grad_output.data()[((i * out_c + oc) * out_h + oy) *
                                                out_w +
                                            ox];
                }
                dot += sum;
              }
              acc += dot;
            }
          }
          grad.data()[((i * channels + c) * h + iy) * w + ix] = acc;
        }
      }
    }
  }
  return grad;
}

/// Parameter gradients of a batch, summed from zero over its items in order.
struct ParamGrads {
  Tensor weight;  ///< [out_c, C * k * k]
  Tensor bias;    ///< [out_c]
};

/// dW and db for input [N, C, H, W] and g [N, out_c, out_h, out_w], with
/// |x| in place of x when `abs_input`.
inline ParamGrads conv_param_sums(const Conv2d::Config& cfg,
                                  const Tensor& input, const Tensor& g,
                                  bool abs_input) {
  const std::int64_t n = input.shape()[0], channels = cfg.in_channels;
  const std::int64_t h = input.shape()[2], w = input.shape()[3];
  const std::int64_t k = cfg.kernel, taps = channels * k * k;
  const std::int64_t out_c = cfg.out_channels;
  const std::int64_t out_h = g.shape()[2], out_w = g.shape()[3];
  const std::int64_t positions = out_h * out_w;
  ParamGrads grads{Tensor(Shape{out_c, taps}), Tensor(Shape{out_c})};
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      const float* gi = g.data() + (i * out_c + oc) * positions;
      for (std::int64_t t = 0; t < taps; ++t) {
        const std::int64_t c = t / (k * k);
        for (std::int64_t p0 = 0; p0 < positions; p0 += kBlock) {
          float sum = 0.0f;
          for (std::int64_t p = p0; p < std::min(positions, p0 + kBlock);
               ++p) {
            const std::int64_t iy = p / out_w * cfg.stride - cfg.pad + t / k % k;
            const std::int64_t ix = p % out_w * cfg.stride - cfg.pad + t % k;
            const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < w;
            float x =
                inside ? input.data()[((i * channels + c) * h + iy) * w + ix]
                       : 0.0f;
            if (abs_input) x = std::fabs(x);
            sum += gi[p] * x;
          }
          grads.weight.data()[oc * taps + t] += sum;
        }
      }
      float sum = 0.0f;
      for (std::int64_t p = 0; p < positions; ++p) sum += gi[p];
      grads.bias.data()[oc] += sum;
    }
  }
  return grads;
}

/// The value backward()'s parameter gradients.
inline ParamGrads conv_param_gradient(const Conv2d::Config& cfg,
                                      const Tensor& input,
                                      const Tensor& grad_output) {
  return conv_param_sums(cfg, input, grad_output, /*abs_input=*/false);
}

/// The weight and bias sensitivities: the same sums over s and |x|.
inline ParamGrads conv_param_sensitivity(const Conv2d::Config& cfg,
                                         const Tensor& input,
                                         const Tensor& sens_output) {
  return conv_param_sums(cfg, input, sens_output, /*abs_input=*/true);
}

/// The input sensitivity: the input gradient's sums over |W| and s.
inline Tensor conv_input_sensitivity(const Conv2d::Config& cfg,
                                     const float* weights,
                                     const Shape& input_shape,
                                     const Tensor& sens_output) {
  const std::int64_t size = cfg.out_channels * cfg.in_channels * cfg.kernel *
                            cfg.kernel;
  std::vector<float> abs_weights(static_cast<std::size_t>(size));
  for (std::int64_t e = 0; e < size; ++e) {
    abs_weights[static_cast<std::size_t>(e)] = std::fabs(weights[e]);
  }
  return conv_input_gradient(cfg, abs_weights.data(), input_shape,
                             sens_output);
}

/// Dense forward of a batch: input [N, in] -> [N, out], weights [out, in].
inline Tensor dense_forward(const float* weights, const float* bias,
                            std::int64_t out, const Tensor& input) {
  const std::int64_t n = input.shape()[0], in = input.shape()[1];
  Tensor y(Shape{n, out});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < out; ++j) {
      float acc = 0.0f;
      for (std::int64_t p0 = 0; p0 < in; p0 += kBlock) {
        float sum = 0.0f;
        for (std::int64_t p = p0; p < std::min(in, p0 + kBlock); ++p) {
          sum = mul_add(input.data()[i * in + p], weights[j * in + p], sum);
        }
        acc += sum;
      }
      y.data()[i * out + j] = acc + bias[j];
    }
  }
  return y;
}

/// Dense input gradient of a batch: grad_output [N, out] -> [N, in].
inline Tensor dense_input_gradient(const float* weights, std::int64_t in,
                                   const Tensor& grad_output) {
  const std::int64_t n = grad_output.shape()[0];
  const std::int64_t out = grad_output.shape()[1];
  Tensor dx(Shape{n, in});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t p = 0; p < in; ++p) {
      float acc = 0.0f;
      for (std::int64_t j0 = 0; j0 < out; j0 += kBlock) {
        float sum = 0.0f;
        for (std::int64_t j = j0; j < std::min(out, j0 + kBlock); ++j) {
          sum = mul_add(grad_output.data()[i * out + j], weights[j * in + p],
                        sum);
        }
        acc += sum;
      }
      dx.data()[i * in + p] = acc;
    }
  }
  return dx;
}

/// Dense per-item sensitivities of one item.
struct DenseSensitivity {
  Tensor weight;  ///< [out, in]
  Tensor bias;    ///< [out]
  Tensor input;   ///< [1, in]
};

/// The weight, bias and input sensitivities of item x [1, in] for the
/// output sensitivity s [1, out], weights [out, in].
inline DenseSensitivity dense_sensitivity(const float* weights,
                                          const Tensor& input,
                                          const Tensor& sens_output) {
  const std::int64_t in = input.shape()[1];
  const std::int64_t out = sens_output.shape()[1];
  DenseSensitivity sens{Tensor(Shape{out, in}), Tensor(Shape{out}),
                        Tensor(Shape{1, in})};
  for (std::int64_t j = 0; j < out; ++j) {
    const float s = sens_output.data()[j];
    for (std::int64_t p = 0; p < in; ++p) {
      sens.weight.data()[j * in + p] = s * std::fabs(input.data()[p]);
    }
    sens.bias.data()[j] = s;
  }
  for (std::int64_t p = 0; p < in; ++p) {
    float acc = 0.0f;
    for (std::int64_t j = 0; j < out; ++j) {
      acc += sens_output.data()[j] * std::fabs(weights[j * in + p]);
    }
    sens.input.data()[p] = acc;
  }
  return sens;
}

/// Max-pool of a batch [N, C, H, W] with no padding; `argmax` receives each
/// output's winning flat input index.
inline Tensor maxpool_forward(std::int64_t kernel, std::int64_t stride,
                              const Tensor& input,
                              std::vector<std::int64_t>& argmax) {
  const std::int64_t n = input.shape()[0], c = input.shape()[1];
  const std::int64_t h = input.shape()[2], w = input.shape()[3];
  const std::int64_t out_h = (h - kernel) / stride + 1;
  const std::int64_t out_w = (w - kernel) / stride + 1;
  Tensor y(Shape{n, c, out_h, out_w});
  argmax.assign(static_cast<std::size_t>(y.numel()), 0);
  std::int64_t o = 0;
  for (std::int64_t plane = 0; plane < n * c; ++plane) {
    for (std::int64_t oy = 0; oy < out_h; ++oy) {
      for (std::int64_t ox = 0; ox < out_w; ++ox, ++o) {
        std::int64_t best = (plane * h + oy * stride) * w + ox * stride;
        for (std::int64_t ky = 0; ky < kernel; ++ky) {
          for (std::int64_t kx = 0; kx < kernel; ++kx) {
            const std::int64_t at =
                (plane * h + oy * stride + ky) * w + ox * stride + kx;
            if (input.data()[at] > input.data()[best]) best = at;
          }
        }
        y.data()[o] = input.data()[best];
        argmax[static_cast<std::size_t>(o)] = best;
      }
    }
  }
  return y;
}

/// Max-pool gradient: grad_output routed to the winners of `input`.
inline Tensor maxpool_gradient(std::int64_t kernel, std::int64_t stride,
                               const Tensor& input,
                               const Tensor& grad_output) {
  std::vector<std::int64_t> argmax;
  maxpool_forward(kernel, stride, input, argmax);
  Tensor dx(input.shape());
  for (std::size_t o = 0; o < argmax.size(); ++o) {
    dx.data()[argmax[o]] += grad_output.data()[o];
  }
  return dx;
}

/// One item's absolute-sensitivity pass through `model`, composed from the
/// layer references: the forwards above carry `item` (a batch of one) to the
/// logits, the sensitivity starts at 1 on every logit and walks back through
/// every layer (an activation gates by |f'(x)|, a normalize scales by
/// |1 / scale|, a flatten reshapes). Returns each parameter's sensitivity in
/// the model's global order.
inline std::vector<float> model_sensitivity(Sequential& model,
                                            const Tensor& item) {
  const std::size_t layers = model.num_layers();
  std::vector<Tensor> inputs;
  Tensor x = item;
  for (std::size_t l = 0; l < layers; ++l) {
    inputs.push_back(x);
    Layer& layer = model.layer(l);
    if (auto* conv = dynamic_cast<Conv2d*>(&layer)) {
      x = conv_forward(conv->config(), conv->weights().data(),
                       conv->bias().data(), x);
    } else if (auto* dense = dynamic_cast<Dense*>(&layer)) {
      x = dense_forward(dense->weights().data(), dense->bias().data(),
                        dense->out_features(), x);
    } else if (auto* pool = dynamic_cast<MaxPool2d*>(&layer)) {
      std::vector<std::int64_t> argmax;
      x = maxpool_forward(pool->kernel(), pool->stride(), x, argmax);
    } else if (auto* act = dynamic_cast<ActivationLayer*>(&layer)) {
      for (std::int64_t e = 0; e < x.numel(); ++e) {
        x[e] = activate(act->activation(), x[e]);
      }
    } else if (auto* norm = dynamic_cast<Normalize*>(&layer)) {
      const float inv = 1.0f / norm->scale();
      for (std::int64_t e = 0; e < x.numel(); ++e) {
        x[e] = (x[e] - norm->mean()) * inv;
      }
    } else if (dynamic_cast<Flatten*>(&layer) != nullptr) {
      x = x.reshaped(Shape{1, x.numel()});
    } else {
      DNNV_THROW("no reference for layer kind '" << layer.kind() << "'");
    }
  }

  std::vector<std::vector<float>> params(layers);
  const auto keep = [&params](std::size_t l, const Tensor& weight,
                              const Tensor& bias) {
    params[l].assign(weight.data(), weight.data() + weight.numel());
    params[l].insert(params[l].end(), bias.data(), bias.data() + bias.numel());
  };
  Tensor s(x.shape());
  s.fill(1.0f);
  for (std::size_t l = layers; l-- > 0;) {
    Layer& layer = model.layer(l);
    const Tensor& in = inputs[l];
    if (auto* conv = dynamic_cast<Conv2d*>(&layer)) {
      const ParamGrads grads = conv_param_sensitivity(conv->config(), in, s);
      keep(l, grads.weight, grads.bias);
      s = conv_input_sensitivity(conv->config(), conv->weights().data(),
                                 in.shape(), s);
    } else if (auto* dense = dynamic_cast<Dense*>(&layer)) {
      DenseSensitivity sens = dense_sensitivity(dense->weights().data(), in, s);
      keep(l, sens.weight, sens.bias);
      s = std::move(sens.input);
    } else if (auto* pool = dynamic_cast<MaxPool2d*>(&layer)) {
      s = maxpool_gradient(pool->kernel(), pool->stride(), in, s);
    } else if (auto* act = dynamic_cast<ActivationLayer*>(&layer)) {
      for (std::int64_t e = 0; e < s.numel(); ++e) {
        s[e] = s[e] * std::fabs(activate_grad(act->activation(), in[e]));
      }
    } else if (auto* norm = dynamic_cast<Normalize*>(&layer)) {
      const float inv = std::fabs(1.0f / norm->scale());
      for (std::int64_t e = 0; e < s.numel(); ++e) s[e] = s[e] * inv;
    } else {
      s = s.reshaped(in.shape());
    }
  }
  std::vector<float> all;
  for (const std::vector<float>& p : params) {
    all.insert(all.end(), p.begin(), p.end());
  }
  return all;
}

/// Bit i set iff |values[i]| > epsilon, compared as doubles.
inline DynamicBitset threshold_mask(const std::vector<float>& values,
                                    double epsilon) {
  DynamicBitset mask(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (std::fabs(static_cast<double>(values[i])) > epsilon) mask.set(i);
  }
  return mask;
}

/// The parameter-coverage mask of one un-batched item: model_sensitivity
/// thresholded at epsilon.
inline DynamicBitset sensitivity_mask(Sequential& model, const Tensor& item,
                                      double epsilon) {
  return threshold_mask(model_sensitivity(model, stack_batch({item})),
                        epsilon);
}

/// The per-class exact mask of one un-batched item: parameter i is set iff
/// some logit j has |dF_j / d theta_i| > epsilon, each gradient from the
/// value backward() seeded with the one-hot e_j. Leaves `model`'s grad
/// buffers dirty.
inline DynamicBitset per_class_exact_mask(Sequential& model,
                                          const Tensor& item, double epsilon) {
  const Tensor logits = model.forward(stack_batch({item}));
  DynamicBitset mask(static_cast<std::size_t>(model.param_count()));
  for (std::int64_t j = 0; j < logits.shape()[1]; ++j) {
    Tensor seed(logits.shape());
    seed[j] = 1.0f;
    model.zero_grads();
    model.backward(seed);
    std::vector<float> grads;
    for (const ParamView& view : model.param_views()) {
      grads.insert(grads.end(), view.grad, view.grad + view.size);
    }
    mask |= threshold_mask(grads, epsilon);
  }
  return mask;
}

}  // namespace dnnv::nn::reference

#endif  // DNNV_TESTS_NN_REFERENCE_H_
