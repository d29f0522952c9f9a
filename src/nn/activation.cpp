#include "nn/activation.h"

#include "util/error.h"

namespace dnnv::nn {

std::string to_string(ActivationKind kind) {
  switch (kind) {
    case ActivationKind::kReLU:
      return "relu";
    case ActivationKind::kTanh:
      return "tanh";
    case ActivationKind::kSigmoid:
      return "sigmoid";
    case ActivationKind::kLeakyReLU:
      return "leaky_relu";
  }
  DNNV_THROW("unknown activation kind");
}

ActivationKind activation_from_string(const std::string& name) {
  if (name == "relu") return ActivationKind::kReLU;
  if (name == "tanh") return ActivationKind::kTanh;
  if (name == "sigmoid") return ActivationKind::kSigmoid;
  if (name == "leaky_relu") return ActivationKind::kLeakyReLU;
  DNNV_THROW("unknown activation name '" << name << "'");
}

bool has_exact_zero_region(ActivationKind kind) {
  return kind == ActivationKind::kReLU;
}

}  // namespace dnnv::nn
