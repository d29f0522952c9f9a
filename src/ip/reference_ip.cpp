#include "ip/reference_ip.h"

#include "tensor/batch.h"
#include "util/error.h"

namespace dnnv::ip {

ReferenceIp::ReferenceIp(const nn::Sequential& model, Shape item_shape)
    : model_(model.clone()), item_shape_(std::move(item_shape)) {
  std::vector<std::int64_t> dims;
  dims.push_back(1);
  dims.insert(dims.end(), item_shape_.dims().begin(), item_shape_.dims().end());
  const Shape out = model_.output_shape(Shape{dims});
  DNNV_CHECK(out.ndim() == 2, "IP model must produce [N, k] logits");
  num_classes_ = static_cast<int>(out[1]);
}

int ReferenceIp::predict(const Tensor& input) {
  DNNV_CHECK(input.shape() == item_shape_,
             "input shape " << input.shape() << " != IP input " << item_shape_);
  return model_.predict_label(input);
}

std::vector<int> ReferenceIp::predict_all(const std::vector<Tensor>& inputs) {
  if (inputs.empty()) return {};
  return model_.predict_labels(stack_batch(inputs));
}

}  // namespace dnnv::ip
