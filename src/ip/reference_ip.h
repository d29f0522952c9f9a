// Float reference implementation of a DNN IP.
#ifndef DNNV_IP_REFERENCE_IP_H_
#define DNNV_IP_REFERENCE_IP_H_

#include "ip/black_box_ip.h"
#include "nn/sequential.h"

namespace dnnv::ip {

/// Wraps a float model behind the black-box interface. Owns its own clone so
/// the vendor's model object cannot be observed or mutated through the IP.
class ReferenceIp : public BlackBoxIp {
 public:
  ReferenceIp(const nn::Sequential& model, Shape item_shape);

  int predict(const Tensor& input) override;
  std::vector<int> predict_all(const std::vector<Tensor>& inputs) override;
  Shape input_shape() const override { return item_shape_; }
  int num_classes() const override { return num_classes_; }

  /// Test-only escape hatch used by fault-injection experiments to model an
  /// adversary with write access to the deployed parameters. predict() and
  /// predict_all() always read the live model, so mutations through the
  /// returned reference take effect immediately.
  nn::Sequential& compromised_model() { return model_; }

 private:
  nn::Sequential model_;
  Shape item_shape_;
  int num_classes_;
};

}  // namespace dnnv::ip

#endif  // DNNV_IP_REFERENCE_IP_H_
