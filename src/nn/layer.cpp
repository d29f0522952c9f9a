#include "nn/layer.h"

#include "nn/workspace.h"
#include "util/error.h"

namespace dnnv::nn {

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
