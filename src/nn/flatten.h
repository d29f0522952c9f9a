// Flatten layer: NCHW -> [N, C*H*W].
#ifndef DNNV_NN_FLATTEN_H_
#define DNNV_NN_FLATTEN_H_

#include "nn/layer.h"

namespace dnnv::nn {

/// Reshapes a batched tensor to rank 2, preserving the batch axis.
class Flatten : public Layer {
 public:
  Flatten() = default;

  std::string kind() const override { return "flatten"; }
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void forward_into(std::size_t index, const Tensor& input, Tensor& output,
                    Workspace& ws) override;
  void backward_into(std::size_t index, const Tensor& grad_output,
                     Tensor& grad_input, Workspace& ws) override;
  void sensitivity_backward_item(std::size_t index, std::int64_t item,
                                 const Tensor& sens_output, Tensor& sens_input,
                                 Workspace& ws) override;
  Shape output_shape(const Shape& input_shape) const override;
  std::unique_ptr<Layer> clone() const override;
  void save(ByteWriter& writer) const override;
  static std::unique_ptr<Flatten> load(ByteReader& reader);

 private:
  Shape cached_input_shape_;
};

}  // namespace dnnv::nn

#endif  // DNNV_NN_FLATTEN_H_
