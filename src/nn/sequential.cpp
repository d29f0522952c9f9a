#include "nn/sequential.h"

#include <sstream>

#include "nn/activation_layer.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/maxpool2d.h"
#include "nn/normalize.h"
#include "tensor/batch.h"
#include "util/error.h"

namespace dnnv::nn {

namespace {
constexpr std::uint32_t kModelMagic = 0x564E4E44;  // "DNNV"
constexpr std::uint32_t kModelVersion = 1;
}  // namespace

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  DNNV_CHECK(layer != nullptr, "cannot add null layer");
  std::ostringstream name;
  name << layer->kind() << layers_.size();
  layer->set_name(name.str());
  if (first_params_ >= layers_.size()) {
    // No layer with parameters yet: this one is the first, or none is.
    first_params_ = layers_.size() + (layer->param_count() == 0 ? 1 : 0);
  }
  layers_.push_back(std::move(layer));
  return *this;
}

Layer& Sequential::layer(std::size_t index) {
  DNNV_CHECK(index < layers_.size(), "layer index " << index << " out of range");
  return *layers_[index];
}

const Layer& Sequential::layer(std::size_t index) const {
  DNNV_CHECK(index < layers_.size(), "layer index " << index << " out of range");
  return *layers_[index];
}

Tensor Sequential::forward(const Tensor& input) {
  DNNV_CHECK(!layers_.empty(), "empty model");
  Tensor value = input;
  for (auto& layer : layers_) value = layer->forward(value);
  return value;
}

Tensor Sequential::backward(const Tensor& grad_logits) {
  DNNV_CHECK(!layers_.empty(), "empty model");
  Tensor grad = grad_logits;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad = (*it)->backward(grad);
  }
  return grad;
}

const Tensor& Sequential::forward(const Tensor& input, Workspace& ws) {
  DNNV_CHECK(!layers_.empty(), "empty model");
  auto& shapes = ws.shapes();
  shapes.clear();
  shapes.reserve(layers_.size());
  const Tensor* value = &input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    shapes.push_back(value->shape());
    Tensor& out =
        ws.buffer(i, kSlotOutput, layers_[i]->output_shape(value->shape()));
    layers_[i]->forward_into(i, *value, out, ws);
    value = &out;
  }
  return *value;
}

const Tensor& Sequential::forward_with_activations(
    const Tensor& input, Workspace& ws,
    std::vector<const Tensor*>& activations) {
  DNNV_CHECK(!layers_.empty(), "empty model");
  activations.clear();
  auto& shapes = ws.shapes();
  shapes.clear();
  shapes.reserve(layers_.size());
  const Tensor* value = &input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    shapes.push_back(value->shape());
    Tensor& out =
        ws.buffer(i, kSlotOutput, layers_[i]->output_shape(value->shape()));
    layers_[i]->forward_into(i, *value, out, ws);
    value = &out;
    if (layers_[i]->is_activation()) activations.push_back(value);
  }
  return *value;
}

const Tensor& Sequential::input_gradient(const Tensor& grad_logits,
                                        Workspace& ws) {
  const auto& shapes = ws.shapes();
  DNNV_CHECK(shapes.size() == layers_.size(),
             "input gradient without a prior workspace forward");
  const Tensor* grad = &grad_logits;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    Tensor& grad_in = ws.buffer(i, kSlotGrad, shapes[i]);
    layers_[i]->backward_into(i, *grad, grad_in, ws);
    grad = &grad_in;
  }
  return *grad;
}

void Sequential::sensitivity_backward_item(std::int64_t item,
                                           const Tensor& sens_logits,
                                           Workspace& ws) {
  const auto& shapes = ws.shapes();
  DNNV_CHECK(shapes.size() == layers_.size(),
             "per-item sensitivity pass without a prior workspace forward");
  const std::size_t first = first_params_;
  if (first >= layers_.size()) return;
  const Tensor* sens = &sens_logits;
  for (std::size_t i = layers_.size() - 1; i > first; --i) {
    // This layer's input shape with the batch axis collapsed to one item.
    std::vector<std::int64_t> dims = shapes[i].dims();
    dims[0] = 1;
    Tensor& sens_in = ws.buffer(i, kSlotSens, Shape(dims));
    layers_[i]->sensitivity_backward_item(i, item, *sens, sens_in, ws);
    sens = &sens_in;
  }
  layers_[first]->parameter_sensitivity_item(first, item, *sens, ws);
}

void Sequential::zero_grads() {
  for (auto& layer : layers_) layer->zero_grads();
}

int Sequential::predict_label(const Tensor& input) {
  const Tensor logits = forward(stack_batch({input}));
  return static_cast<int>(argmax(logits));
}

std::vector<int> Sequential::predict_labels(const Tensor& batch) {
  const Tensor logits = forward(batch);
  const std::int64_t n = logits.shape()[0];
  const std::int64_t k = logits.shape()[1];
  std::vector<int> labels(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * k;
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < k; ++j) {
      if (row[j] > row[best]) best = j;
    }
    labels[static_cast<std::size_t>(i)] = static_cast<int>(best);
  }
  return labels;
}

std::vector<ParamView> Sequential::param_views() {
  std::vector<ParamView> views;
  for (auto& layer : layers_) {
    for (auto& view : layer->param_views()) views.push_back(view);
  }
  return views;
}

std::int64_t Sequential::param_count() const {
  std::int64_t total = 0;
  for (const auto& layer : layers_) total += layer->param_count();
  return total;
}

Sequential::ParamLocation Sequential::locate(std::int64_t global_index) {
  DNNV_CHECK(global_index >= 0, "negative parameter index");
  std::int64_t remaining = global_index;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const auto views = layers_[li]->param_views();
    for (std::size_t vi = 0; vi < views.size(); ++vi) {
      if (remaining < views[vi].size) {
        return ParamLocation{li, vi, remaining};
      }
      remaining -= views[vi].size;
    }
  }
  DNNV_THROW("parameter index " << global_index << " out of range "
                                << param_count());
}

float Sequential::get_param(std::int64_t global_index) {
  const auto loc = locate(global_index);
  return layers_[loc.layer]->param_views()[loc.view].data[loc.offset];
}

void Sequential::set_param(std::int64_t global_index, float value) {
  const auto loc = locate(global_index);
  layers_[loc.layer]->param_views()[loc.view].data[loc.offset] = value;
}

void Sequential::add_to_param(std::int64_t global_index, float delta) {
  const auto loc = locate(global_index);
  layers_[loc.layer]->param_views()[loc.view].data[loc.offset] += delta;
}

float Sequential::get_grad(std::int64_t global_index) {
  const auto loc = locate(global_index);
  return layers_[loc.layer]->param_views()[loc.view].grad[loc.offset];
}

std::string Sequential::param_name(std::int64_t global_index) {
  const auto loc = locate(global_index);
  const auto view = layers_[loc.layer]->param_views()[loc.view];
  std::ostringstream os;
  os << view.name << '[' << loc.offset << ']';
  return os.str();
}

bool Sequential::param_is_bias(std::int64_t global_index) {
  const auto loc = locate(global_index);
  return layers_[loc.layer]->param_views()[loc.view].is_bias;
}

std::vector<float> Sequential::snapshot_params() {
  std::vector<float> snapshot;
  snapshot.reserve(static_cast<std::size_t>(param_count()));
  for (const auto& view : param_views()) {
    snapshot.insert(snapshot.end(), view.data, view.data + view.size);
  }
  return snapshot;
}

void Sequential::restore_params(const std::vector<float>& snapshot) {
  DNNV_CHECK(static_cast<std::int64_t>(snapshot.size()) == param_count(),
             "snapshot size " << snapshot.size() << " does not match model ("
                              << param_count() << " params)");
  std::size_t pos = 0;
  for (const auto& view : param_views()) {
    for (std::int64_t i = 0; i < view.size; ++i) view.data[i] = snapshot[pos++];
  }
}

void Sequential::save(ByteWriter& writer) const {
  writer.write_u32(kModelMagic);
  writer.write_u32(kModelVersion);
  writer.write_u64(layers_.size());
  for (const auto& layer : layers_) layer->save(writer);
}

Sequential Sequential::load(ByteReader& reader) {
  DNNV_CHECK(reader.read_u32() == kModelMagic, "not a dnnv model stream");
  DNNV_CHECK(reader.read_u32() == kModelVersion, "unsupported model version");
  // Every layer record opens with its kind string (u64 length prefix).
  const std::size_t count = reader.read_count(sizeof(std::uint64_t));
  Sequential model;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string kind = reader.read_string();
    if (kind == "dense") {
      model.add(Dense::load(reader));
    } else if (kind == "conv2d") {
      model.add(Conv2d::load(reader));
    } else if (kind == "maxpool2d") {
      model.add(MaxPool2d::load(reader));
    } else if (kind == "flatten") {
      model.add(Flatten::load(reader));
    } else if (kind == "activation") {
      model.add(ActivationLayer::load(reader));
    } else if (kind == "normalize") {
      model.add(Normalize::load(reader));
    } else {
      DNNV_THROW("unknown layer kind '" << kind << "' in model stream");
    }
  }
  return model;
}

void Sequential::save_file(const std::string& path) const {
  ByteWriter writer;
  save(writer);
  write_file(path, writer.bytes());
}

Sequential Sequential::load_file(const std::string& path) {
  ByteReader reader(read_file(path));
  return load(reader);
}

Sequential Sequential::clone() const {
  Sequential copy;
  for (const auto& layer : layers_) {
    copy.layers_.push_back(layer->clone());  // keep original names
  }
  copy.first_params_ = first_params_;
  return copy;
}

Shape Sequential::output_shape(const Shape& input_shape) const {
  Shape shape = input_shape;
  for (const auto& layer : layers_) shape = layer->output_shape(shape);
  return shape;
}

std::string Sequential::summary() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i != 0) os << " -> ";
    const Layer& l = *layers_[i];
    if (l.kind() == "conv2d") {
      const auto& conv = static_cast<const Conv2d&>(l);
      os << "conv2d(" << conv.config().in_channels << "->"
         << conv.config().out_channels << ",k" << conv.config().kernel << ")";
    } else if (l.kind() == "dense") {
      const auto& dense = static_cast<const Dense&>(l);
      os << "dense(" << dense.in_features() << "->" << dense.out_features()
         << ")";
    } else if (l.kind() == "activation") {
      os << to_string(static_cast<const ActivationLayer&>(l).activation());
    } else {
      os << l.kind();
    }
  }
  return os.str();
}

}  // namespace dnnv::nn
