#include "nn/layer.h"

#include "nn/workspace.h"
#include "util/error.h"

namespace dnnv::nn {

void Layer::forward_into(std::size_t, const Tensor& input, Tensor& output,
                         Workspace&) {
  output = forward(input);
}

void Layer::backward_into(std::size_t, const Tensor& grad_output,
                          Tensor& grad_input, Workspace&) {
  grad_input = backward(grad_output);
}

void Layer::sensitivity_backward_into(std::size_t, const Tensor& sens_output,
                                      Tensor& sens_input, Workspace&) {
  sens_input = sensitivity_backward(sens_output);
}

void Layer::sensitivity_backward_item(std::size_t, std::int64_t, const Tensor&,
                                      Tensor&, Workspace&) {
  DNNV_THROW("layer '" << kind()
                       << "' does not implement the per-item batched "
                          "sensitivity pass");
}

void Layer::parameter_sensitivity_item(std::size_t, std::int64_t,
                                       const Tensor&, Workspace&) {
  DNNV_THROW("layer '" << kind()
                       << "' does not implement the per-item parameter "
                          "sensitivity pass");
}

std::int64_t Layer::param_count() const {
  // param_views() hands out mutable buffer pointers, so it is non-const;
  // counting their sizes is logically const.
  std::int64_t total = 0;
  for (const auto& view : const_cast<Layer*>(this)->param_views()) {
    total += view.size;
  }
  return total;
}

void Layer::zero_grads() {
  for (auto& view : param_views()) {
    for (std::int64_t i = 0; i < view.size; ++i) view.grad[i] = 0.0f;
  }
}

}  // namespace dnnv::nn
