#include "ip/black_box_ip.h"

namespace dnnv::ip {

std::vector<int> BlackBoxIp::predict_all(const std::vector<Tensor>& inputs) {
  std::vector<int> labels;
  labels.reserve(inputs.size());
  for (const Tensor& input : inputs) labels.push_back(predict(input));
  return labels;
}

}  // namespace dnnv::ip
