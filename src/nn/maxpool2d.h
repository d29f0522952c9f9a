// Max pooling layer.
#ifndef DNNV_NN_MAXPOOL2D_H_
#define DNNV_NN_MAXPOOL2D_H_

#include <vector>

#include "nn/layer.h"

namespace dnnv::nn {

/// Non-overlapping-by-default max pooling over NCHW inputs. Backward and
/// sensitivity passes route to the argmax tap of each window (first on ties).
class MaxPool2d : public Layer {
 public:
  MaxPool2d(std::int64_t kernel, std::int64_t stride);

  std::string kind() const override { return "maxpool2d"; }
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
  static std::unique_ptr<MaxPool2d> load(ByteReader& reader);

  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }

 private:
  void fill_forward(const Tensor& input, Tensor& output);
  void route_back_into(const Tensor& upstream, Tensor& downstream) const;

  std::int64_t kernel_ = 2;
  std::int64_t stride_ = 2;
  Shape cached_input_shape_;
  std::vector<std::int64_t> argmax_;  // flat input index per output element
};

}  // namespace dnnv::nn

#endif  // DNNV_NN_MAXPOOL2D_H_
