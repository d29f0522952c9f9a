// Layer interface: forward, reverse-mode autodiff, and per-item
// absolute-sensitivity propagation (the coverage engine's fault-propagation
// pass).
#ifndef DNNV_NN_LAYER_H_
#define DNNV_NN_LAYER_H_

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/serialize.h"

namespace dnnv::nn {

class Workspace;

/// Non-owning view of one named parameter tensor and its gradient buffer.
/// `data` and `grad` are flat arrays of `size` floats owned by the layer.
struct ParamView {
  std::string name;   ///< e.g. "conv0.weight"
  float* data;        ///< parameter values
  float* grad;        ///< gradient / sensitivity accumulator (same layout)
  std::int64_t size;  ///< number of scalars
  bool is_bias;       ///< true for bias vectors (SBA targets biases)
};

/// Base class for all layers.
///
/// Protocol (single-threaded per instance; clone() for parallel use):
///   1. forward(x) / forward_into caches whatever the reverse passes need.
///   2. backward(grad_out) is the value path (training and the attacks): it
///      ACCUMULATES parameter gradients into the grad buffers and returns
///      the gradient w.r.t. the layer input.
///   3. backward_into(grad_out) is the workspace path behind
///      Sequential::input_gradient: it writes the same input gradient and
///      nothing else — the grad buffers are left untouched. A layer with
///      parameters therefore overrides both, its backward() accumulating
///      dW/db and then calling backward_into() for the input gradient; for
///      a layer without parameters the two compute the same thing.
///   4. sensitivity_backward_item(item, sens_out) is the absolute-value
///      analogue behind the parameter-coverage masks, run per item against
///      the most recent workspace forward: sens_out is elementwise
///      nonnegative, propagation uses |W| and |activation'|, and the
///      resulting parameter sensitivities are ACCUMULATED INTO THE SAME grad
///      buffers (gradients and sensitivities are never needed
///      simultaneously).
/// Callers zero the grad buffers (zero_grads) between uses.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Stable type tag, also used in the serialisation format ("dense", ...).
  virtual std::string kind() const = 0;

  /// Instance name used to prefix parameter names (set by Sequential).
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  virtual Tensor forward(const Tensor& input) = 0;
  virtual Tensor backward(const Tensor& grad_output) = 0;

  // ---- Batched engine entry points (see nn/workspace.h) ----
  //
  // The *_into variants write into a caller-provided buffer (already shaped
  // via output_shape) and take scratch from the workspace, so a warmed-up
  // pass performs no allocations. `index` is the layer's position in its
  // Sequential and namespaces its workspace slots. forward_into computes
  // the same function as forward; backward_into computes only the input
  // gradient (protocol step 3).

  /// Batched forward into `output`; must also populate the layer's reverse
  /// caches exactly like forward().
  virtual void forward_into(std::size_t index, const Tensor& input,
                            Tensor& output, Workspace& ws) = 0;

  /// Input gradient into `grad_input` (shaped like the cached input); never
  /// touches the parameter-gradient buffers.
  virtual void backward_into(std::size_t index, const Tensor& grad_output,
                             Tensor& grad_input, Workspace& ws) = 0;

  /// Per-item absolute-sensitivity pass against the caches of the most
  /// recent BATCHED forward: propagates `sens_output` (leading dim 1) for
  /// batch item `item` into `sens_input` (leading dim 1), accumulating that
  /// item's parameter sensitivities into the grad buffers. This is the
  /// primitive behind ParameterCoverage::activation_masks_batched — one
  /// batched forward amortised across per-item coverage passes.
  virtual void sensitivity_backward_item(std::size_t index, std::int64_t item,
                                         const Tensor& sens_output,
                                         Tensor& sens_input,
                                         Workspace& ws) = 0;

  /// sensitivity_backward_item without the input sensitivity: accumulates
  /// this layer's parameter sensitivities only. Sequential runs it on its
  /// first layer with parameters, whose input sensitivity nothing reads.
  virtual void parameter_sensitivity_item(std::size_t index, std::int64_t item,
                                          const Tensor& sens_output,
                                          Workspace& ws);

  /// Output shape for a given (un-batched or batched) input shape.
  virtual Shape output_shape(const Shape& input_shape) const = 0;

  /// Parameter views in a stable order (weights before biases). Default: none.
  virtual std::vector<ParamView> param_views() { return {}; }

  /// Total scalar parameter count.
  std::int64_t param_count() const;

  /// Zeroes all gradient buffers.
  void zero_grads();

  /// True for activation layers (their outputs define "neurons" for the
  /// neuron-coverage baseline).
  virtual bool is_activation() const { return false; }

  /// Deep copy (parameters included, caches excluded).
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Serialises layer config + parameters.
  virtual void save(ByteWriter& writer) const = 0;

 protected:
  Layer() = default;
  Layer(const Layer&) = default;
  Layer& operator=(const Layer&) = default;

 private:
  std::string name_;
};

}  // namespace dnnv::nn

#endif  // DNNV_NN_LAYER_H_
