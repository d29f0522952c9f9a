// Sequential model container and global parameter registry.
#ifndef DNNV_NN_SEQUENTIAL_H_
#define DNNV_NN_SEQUENTIAL_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/workspace.h"

namespace dnnv::nn {

/// A feed-forward stack of layers with:
///  - forward / backward / sensitivity passes chained across layers,
///  - a flat global parameter index space (the coordinate system used by
///    coverage bitsets and attack deltas): parameters are numbered in layer
///    order, weights before biases within a layer,
///  - binary (de)serialisation and deep cloning.
///
/// The model's outputs are logits; softmax is applied by the loss (training)
/// or implied by argmax (inference). A Sequential instance is NOT safe for
/// concurrent use — clone() per thread.
class Sequential {
 public:
  Sequential() = default;

  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Appends a layer; returns *this for chaining. Layer gets a stable
  /// auto-generated instance name ("<kind><index>").
  Sequential& add(std::unique_ptr<Layer> layer);

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t index);
  const Layer& layer(std::size_t index) const;

  /// Forward pass over a batched input; returns logits.
  Tensor forward(const Tensor& input);

  /// Reverse-mode pass; call after forward. Accumulates parameter gradients
  /// and returns the gradient w.r.t. the model input (training and the
  /// attacks run on it).
  Tensor backward(const Tensor& grad_logits);

  // ---- Batched engine (see nn/workspace.h) ----
  //
  // Every intermediate activation lives in `ws`, so a warmed-up pass
  // performs no allocations. The returned references point into `ws` and
  // stay valid until its next use. Layers keep pointers to their forward
  // inputs instead of copies, so the reverse passes read the caller's
  // `input` of the latest forward: it must stay alive and unchanged until
  // they have run. One Workspace serves one model instance on one thread.
  // The forward computes the same floats as the value forward above.
  // Parameter gradients come from the value path alone: the workspace
  // reverse passes are the input gradient and the per-item sensitivity.

  /// Batched forward; returns the logits buffer.
  const Tensor& forward(const Tensor& input, Workspace& ws);

  /// Batched forward capturing pointers to every activation layer's output
  /// (in order). The pointees live in `ws`.
  const Tensor& forward_with_activations(const Tensor& input, Workspace& ws,
                                         std::vector<const Tensor*>& activations);

  /// Gradient w.r.t. the model input of the most recent workspace forward:
  /// bit for bit the value backward()'s result, but no parameter gradient
  /// is computed and every grad buffer is left as it was. This is all that
  /// input synthesis (Algorithm 2: x <- x - eta * dL/dx) needs.
  const Tensor& input_gradient(const Tensor& grad_logits, Workspace& ws);

  /// Per-item absolute-sensitivity pass against the caches of the most
  /// recent BATCHED workspace forward: propagates `sens_logits` (shape
  /// [1, k]) for batch item `item` only, accumulating that item's parameter
  /// sensitivities into the grad buffers. The chain stops at the first
  /// layer with parameters, whose input sensitivity reaches no parameter.
  /// One batched forward + N of these is the engine behind
  /// cov::ParameterCoverage::activation_masks_batched.
  void sensitivity_backward_item(std::int64_t item, const Tensor& sens_logits,
                                 Workspace& ws);

  /// Zeroes all parameter gradient buffers.
  void zero_grads();

  /// Predicted class label (argmax of logits) for a single un-batched input.
  int predict_label(const Tensor& input);

  /// Predicted labels for a batched input.
  std::vector<int> predict_labels(const Tensor& batch);

  // ---- Global parameter registry ----

  /// All parameter views in global order.
  std::vector<ParamView> param_views();

  /// Total number of scalar parameters.
  std::int64_t param_count() const;

  float get_param(std::int64_t global_index);
  void set_param(std::int64_t global_index, float value);
  void add_to_param(std::int64_t global_index, float delta);
  float get_grad(std::int64_t global_index);

  /// "dense3.bias[7]"-style name for diagnostics.
  std::string param_name(std::int64_t global_index);

  /// True when the global index addresses a bias scalar.
  bool param_is_bias(std::int64_t global_index);

  /// Copies all parameters into a flat vector (global order).
  std::vector<float> snapshot_params();

  /// Restores parameters from snapshot_params() output.
  void restore_params(const std::vector<float>& snapshot);

  // ---- Persistence / copying ----

  void save(ByteWriter& writer) const;
  static Sequential load(ByteReader& reader);

  void save_file(const std::string& path) const;
  static Sequential load_file(const std::string& path);

  Sequential clone() const;

  /// Output shape for a given batched input shape.
  Shape output_shape(const Shape& input_shape) const;

  /// One-line architecture summary ("conv2d(1->8,k3) -> relu -> ...").
  std::string summary() const;

 private:
  struct ParamLocation {
    std::size_t layer;
    std::size_t view;        // index into that layer's param_views()
    std::int64_t offset;     // offset within the view
  };
  ParamLocation locate(std::int64_t global_index);

  std::vector<std::unique_ptr<Layer>> layers_;
  /// Index of the first layer with parameters (>= layers_.size() when
  /// none), kept by add() so the per-item sensitivity pass builds no
  /// ParamViews.
  std::size_t first_params_ = 0;
};

}  // namespace dnnv::nn

#endif  // DNNV_NN_SEQUENTIAL_H_
