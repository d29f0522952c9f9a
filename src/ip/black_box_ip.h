// The IP user's view of a DNN IP: a label-only black box (paper Fig 1).
#ifndef DNNV_IP_BLACK_BOX_IP_H_
#define DNNV_IP_BLACK_BOX_IP_H_

#include <vector>

#include "tensor/tensor.h"

namespace dnnv::ip {

/// Black-box inference interface. Deliberately exposes ONLY what the paper's
/// threat model grants the user: feed an input, read the predicted label.
/// No parameters, no logits, no intermediate activations.
class BlackBoxIp {
 public:
  virtual ~BlackBoxIp() = default;

  /// Top-1 class label for one un-batched input.
  virtual int predict(const Tensor& input) = 0;

  /// Labels for a set of inputs, in input order. The default is a serial
  /// loop over predict(); batching backends (QuantizedIp, ReferenceIp)
  /// override it with one batched forward.
  virtual std::vector<int> predict_all(const std::vector<Tensor>& inputs);

  /// Expected input shape (CHW).
  virtual Shape input_shape() const = 0;

  virtual int num_classes() const = 0;
};

}  // namespace dnnv::ip

#endif  // DNNV_IP_BLACK_BOX_IP_H_
