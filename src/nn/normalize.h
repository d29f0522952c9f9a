// Input normalisation layer: y = (x - mean) / scale.
#ifndef DNNV_NN_NORMALIZE_H_
#define DNNV_NN_NORMALIZE_H_

#include "nn/layer.h"

namespace dnnv::nn {

/// Parameter-free preprocessing baked into the model so every consumer
/// (IPs, coverage, test generation, attacks) keeps working in the raw [0,1]
/// pixel domain. Centring the input removes the DC component from first-
/// layer responses, which is what lets trained filters be selective (an
/// unstructured input no longer excites every unit through its mean).
class Normalize : public Layer {
 public:
  Normalize(float mean, float scale);

  std::string kind() const override { return "normalize"; }
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
  static std::unique_ptr<Normalize> load(ByteReader& reader);

  float mean() const { return mean_; }
  float scale() const { return scale_; }

 private:
  float mean_;
  float scale_;
};

}  // namespace dnnv::nn

#endif  // DNNV_NN_NORMALIZE_H_
