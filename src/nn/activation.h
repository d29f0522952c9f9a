// Scalar activation functions, their derivatives, and kinds.
#ifndef DNNV_NN_ACTIVATION_H_
#define DNNV_NN_ACTIVATION_H_

#include <cmath>
#include <string>

#include "util/error.h"

namespace dnnv::nn {

/// Supported nonlinearities. The paper evaluates Tanh (MNIST model) and ReLU
/// (CIFAR model); Sigmoid and LeakyReLU are included for generality.
enum class ActivationKind { kReLU, kTanh, kSigmoid, kLeakyReLU };

/// Negative-side slope of kLeakyReLU.
inline constexpr float kLeakySlope = 0.01f;

// The scalar functions are inline so that a loop over one kind, with the
// kind a compile-time constant, folds the switch away and vectorizes
// (ActivationLayer's per-kind loops). A call with a run-time kind computes
// exactly the same float.

/// f(x)
inline float activate(ActivationKind kind, float x) {
  switch (kind) {
    case ActivationKind::kReLU:
      return x > 0.0f ? x : 0.0f;
    case ActivationKind::kTanh:
      return std::tanh(x);
    case ActivationKind::kSigmoid:
      return 1.0f / (1.0f + std::exp(-x));
    case ActivationKind::kLeakyReLU:
      return x > 0.0f ? x : kLeakySlope * x;
  }
  DNNV_THROW("unknown activation kind");
}

/// f'(x)
inline float activate_grad(ActivationKind kind, float x) {
  switch (kind) {
    case ActivationKind::kReLU:
      return x > 0.0f ? 1.0f : 0.0f;
    case ActivationKind::kTanh: {
      const float t = std::tanh(x);
      return 1.0f - t * t;
    }
    case ActivationKind::kSigmoid: {
      const float s = 1.0f / (1.0f + std::exp(-x));
      return s * (1.0f - s);
    }
    case ActivationKind::kLeakyReLU:
      return x > 0.0f ? 1.0f : kLeakySlope;
  }
  DNNV_THROW("unknown activation kind");
}

/// f'(x) computed from y = f(x). Bitwise identical to activate_grad(kind, x)
/// for every supported kind (tanh: 1 - y²; sigmoid: y(1-y); relu/leaky:
/// sign test on y matches the sign test on x), but skips the transcendental
/// recomputation — the batched engine's backward passes gate with this using
/// the forward outputs already sitting in the workspace.
inline float activate_grad_from_output(ActivationKind kind, float y) {
  switch (kind) {
    case ActivationKind::kReLU:
      // y = max(x, 0): y > 0 iff x > 0.
      return y > 0.0f ? 1.0f : 0.0f;
    case ActivationKind::kTanh:
      // Same expression as activate_grad with t == y bit-for-bit.
      return 1.0f - y * y;
    case ActivationKind::kSigmoid:
      return y * (1.0f - y);
    case ActivationKind::kLeakyReLU:
      // x > 0 iff y > 0 (the negative branch scales by a positive slope).
      return y > 0.0f ? 1.0f : kLeakySlope;
  }
  DNNV_THROW("unknown activation kind");
}

/// Human-readable name ("relu", "tanh", ...).
std::string to_string(ActivationKind kind);

/// Inverse of to_string; throws on unknown names.
ActivationKind activation_from_string(const std::string& name);

/// True for activations with an exact zero-gradient region (ReLU). For these
/// the paper's activation criterion is gradient != 0; saturating activations
/// (Tanh/Sigmoid) use a small epsilon threshold instead (paper §IV-A).
bool has_exact_zero_region(ActivationKind kind);

}  // namespace dnnv::nn

#endif  // DNNV_NN_ACTIVATION_H_
