#include "nn/activation_layer.h"

#include <cmath>
#include <type_traits>

#include "nn/workspace.h"
#include "util/error.h"

namespace dnnv::nn {

namespace {

template <ActivationKind K>
using KindTag = std::integral_constant<ActivationKind, K>;

// Calls `body` with the kind as a compile-time constant (a KindTag), so each
// kind runs its own loop in which the inline scalar function's switch folds
// away: one switch per call instead of one per element.
template <typename Body>
void dispatch_kind(ActivationKind kind, Body&& body) {
  switch (kind) {
    case ActivationKind::kReLU:
      return body(KindTag<ActivationKind::kReLU>{});
    case ActivationKind::kTanh:
      return body(KindTag<ActivationKind::kTanh>{});
    case ActivationKind::kSigmoid:
      return body(KindTag<ActivationKind::kSigmoid>{});
    case ActivationKind::kLeakyReLU:
      return body(KindTag<ActivationKind::kLeakyReLU>{});
  }
  DNNV_THROW("unknown activation kind");
}

void activate_all(ActivationKind kind, const float* x, float* y,
                  std::int64_t count) {
  dispatch_kind(kind, [&](auto k) {
    for (std::int64_t i = 0; i < count; ++i) y[i] = activate(k, x[i]);
  });
}

// Calls `apply(i, gate)` for i in [0, count) with gate = f'(x_i): read from
// the forward output `y` when the layer holds it (activate_grad_from_output,
// bitwise equal to activate_grad), else recomputed from the input `x`.
template <typename Apply>
void for_each_gate(ActivationKind kind, const float* y, const float* x,
                   std::int64_t count, Apply&& apply) {
  dispatch_kind(kind, [&](auto k) {
    if (y != nullptr) {
      for (std::int64_t i = 0; i < count; ++i) {
        apply(i, activate_grad_from_output(k, y[i]));
      }
    } else {
      for (std::int64_t i = 0; i < count; ++i) apply(i, activate_grad(k, x[i]));
    }
  });
}

}  // namespace

ActivationLayer::ActivationLayer(ActivationKind activation)
    : activation_(activation) {}

Shape ActivationLayer::output_shape(const Shape& input_shape) const {
  return input_shape;
}

Tensor ActivationLayer::forward(const Tensor& input) {
  cached_input_ = input;
  input_view_ = nullptr;
  cached_output_view_ = nullptr;
  Tensor output(input.shape());
  activate_all(activation_, input.data(), output.data(), input.numel());
  return output;
}

void ActivationLayer::forward_into(std::size_t, const Tensor& input,
                                   Tensor& output, Workspace&) {
  input_view_ = &input;
  activate_all(activation_, input.data(), output.data(), input.numel());
  cached_output_view_ = &output;
}

void ActivationLayer::backward_into(std::size_t, const Tensor& grad_output,
                                    Tensor& grad_input, Workspace&) {
  // The training-only regularisers need batch statistics / extra passes;
  // they never run inside the batched engine, so fall back if set.
  if (sparsity_lambda_ != 0.0f || liveness_lambda_ != 0.0f) {
    grad_input = backward(grad_output);
    return;
  }
  DNNV_CHECK(grad_output.same_shape(input()),
             "activation backward shape mismatch");
  const float leak = backward_leak_;
  const float* dy = grad_output.data();
  float* dx = grad_input.data();
  // Every gate is >= 0, so `gate < leak` never fires at leak 0.
  for_each_gate(activation_, output_data(), input().data(),
                grad_input.numel(), [&](std::int64_t i, float gate) {
                  if (gate < leak) gate = leak;
                  dx[i] = dy[i] * gate;
                });
}

void ActivationLayer::sensitivity_backward_item(std::size_t, std::int64_t item,
                                                const Tensor& sens_output,
                                                Tensor& sens_input,
                                                Workspace&) {
  const std::int64_t n = input().shape()[0];
  DNNV_CHECK(item >= 0 && item < n, "item " << item << " outside cached batch");
  const std::int64_t item_numel = input().numel() / n;
  DNNV_CHECK(sens_output.numel() == item_numel,
             "per-item activation sensitivity size mismatch");
  // s_in = s_out * |f'(x)|. For ReLU the gate is the exact 0/1 propagation
  // mask; for saturating activations it attenuates sensitivity so saturated
  // units fall below the coverage epsilon (paper §IV-A).
  const std::int64_t offset = item * item_numel;
  const float* y = output_data();
  const float* s_out = sens_output.data();
  float* s_in = sens_input.data();
  for_each_gate(activation_, y != nullptr ? y + offset : nullptr,
                input().data() + offset, item_numel,
                [&](std::int64_t i, float gate) {
                  s_in[i] = s_out[i] * std::fabs(gate);
                });
}

Tensor ActivationLayer::backward(const Tensor& grad_output) {
  const Tensor& x = input();
  DNNV_CHECK(grad_output.same_shape(x),
             "activation backward shape mismatch");
  Tensor grad_input(x.shape());
  for (std::int64_t i = 0; i < grad_input.numel(); ++i) {
    float upstream = grad_output[i];
    if (sparsity_lambda_ != 0.0f) {
      const float out = activate(activation_, x[i]);
      if (out > 0.0f) {
        upstream += sparsity_lambda_;
      } else if (out < 0.0f) {
        upstream -= sparsity_lambda_;
      }
    }
    float gate = activate_grad(activation_, x[i]);
    if (backward_leak_ != 0.0f && gate < backward_leak_) gate = backward_leak_;
    grad_input[i] = upstream * gate;
  }
  if (liveness_lambda_ != 0.0f) {
    // Per-unit (dense) / per-channel (conv) batch-mean activation; units
    // below the liveness target get a direct upward pre-activation push
    // (bypassing the gate so dead ReLU units can recover).
    const Shape& shape = x.shape();
    if (shape.ndim() == 2) {
      const std::int64_t n = shape[0];
      const std::int64_t f = shape[1];
      for (std::int64_t j = 0; j < f; ++j) {
        double mean_act = 0.0;
        for (std::int64_t i = 0; i < n; ++i) {
          mean_act += activate(activation_, x[i * f + j]);
        }
        mean_act /= static_cast<double>(n);
        if (mean_act < liveness_target_) {
          for (std::int64_t i = 0; i < n; ++i) {
            grad_input[i * f + j] -= liveness_lambda_;
          }
        }
      }
    } else if (shape.ndim() == 4) {
      const std::int64_t n = shape[0];
      const std::int64_t c = shape[1];
      const std::int64_t plane = shape[2] * shape[3];
      for (std::int64_t ch = 0; ch < c; ++ch) {
        double mean_act = 0.0;
        for (std::int64_t i = 0; i < n; ++i) {
          const float* p = x.data() + (i * c + ch) * plane;
          for (std::int64_t q = 0; q < plane; ++q) {
            mean_act += activate(activation_, p[q]);
          }
        }
        mean_act /= static_cast<double>(n * plane);
        if (mean_act < liveness_target_) {
          for (std::int64_t i = 0; i < n; ++i) {
            float* g = grad_input.data() + (i * c + ch) * plane;
            for (std::int64_t q = 0; q < plane; ++q) g[q] -= liveness_lambda_;
          }
        }
      }
    }
  }
  return grad_input;
}

std::unique_ptr<Layer> ActivationLayer::clone() const {
  auto copy = std::make_unique<ActivationLayer>(activation_);
  copy->set_name(name());
  copy->sparsity_lambda_ = sparsity_lambda_;
  copy->backward_leak_ = backward_leak_;
  copy->liveness_lambda_ = liveness_lambda_;
  copy->liveness_target_ = liveness_target_;
  return copy;
}

void ActivationLayer::save(ByteWriter& writer) const {
  writer.write_string(kind());
  writer.write_string(to_string(activation_));
}

std::unique_ptr<ActivationLayer> ActivationLayer::load(ByteReader& reader) {
  return std::make_unique<ActivationLayer>(
      activation_from_string(reader.read_string()));
}

}  // namespace dnnv::nn
