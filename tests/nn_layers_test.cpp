// Layer-level tests: shapes, semantics, finite-difference gradient
// verification across every layer type and activation kind, and the
// reverse-pass contract (input_gradient vs the value-path backward).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "nn/activation_layer.h"
#include "nn/builder.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/loss.h"
#include "nn/maxpool2d.h"
#include "nn/normalize.h"
#include "nn/sequential.h"
#include "nn/workspace.h"
#include "tensor/batch.h"
#include "tests/gradcheck.h"
#include "tests/nn_reference.h"
#include "tests/test_nets.h"
#include "util/error.h"

namespace dnnv::nn {
namespace {

// ---------- Activation scalar functions ----------

TEST(ActivationTest, ReluSemantics) {
  EXPECT_EQ(activate(ActivationKind::kReLU, -1.0f), 0.0f);
  EXPECT_EQ(activate(ActivationKind::kReLU, 2.5f), 2.5f);
  EXPECT_EQ(activate_grad(ActivationKind::kReLU, -1.0f), 0.0f);
  EXPECT_EQ(activate_grad(ActivationKind::kReLU, 1.0f), 1.0f);
}

TEST(ActivationTest, TanhSemantics) {
  EXPECT_NEAR(activate(ActivationKind::kTanh, 0.0f), 0.0f, 1e-6);
  EXPECT_NEAR(activate_grad(ActivationKind::kTanh, 0.0f), 1.0f, 1e-6);
  EXPECT_LT(activate_grad(ActivationKind::kTanh, 5.0f), 1e-3f);
}

TEST(ActivationTest, SigmoidSemantics) {
  EXPECT_NEAR(activate(ActivationKind::kSigmoid, 0.0f), 0.5f, 1e-6);
  EXPECT_NEAR(activate_grad(ActivationKind::kSigmoid, 0.0f), 0.25f, 1e-6);
}

TEST(ActivationTest, NamesRoundTrip) {
  for (const auto kind :
       {ActivationKind::kReLU, ActivationKind::kTanh, ActivationKind::kSigmoid,
        ActivationKind::kLeakyReLU}) {
    EXPECT_EQ(activation_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(activation_from_string("swish"), Error);
}

TEST(ActivationTest, ZeroRegionFlag) {
  EXPECT_TRUE(has_exact_zero_region(ActivationKind::kReLU));
  EXPECT_FALSE(has_exact_zero_region(ActivationKind::kTanh));
}

// ---------- Dense ----------

TEST(DenseTest, ForwardMatchesManual) {
  Rng rng(1);
  Dense layer(2, 3, rng);
  layer.weights() = Tensor(Shape{3, 2}, {1, 2, 3, 4, 5, 6});
  layer.bias() = Tensor(Shape{3}, {0.5f, -0.5f, 0.0f});
  const Tensor x(Shape{1, 2}, {1.0f, -1.0f});
  const Tensor y = layer.forward(x);
  EXPECT_FLOAT_EQ(y[0], 1 - 2 + 0.5f);
  EXPECT_FLOAT_EQ(y[1], 3 - 4 - 0.5f);
  EXPECT_FLOAT_EQ(y[2], 5 - 6);
}

TEST(DenseTest, OutputShapeValidation) {
  Rng rng(1);
  Dense layer(4, 2, rng);
  EXPECT_EQ(layer.output_shape(Shape{7, 4}), Shape({7, 2}));
  EXPECT_THROW(layer.output_shape(Shape{7, 3}), Error);
  EXPECT_THROW(layer.output_shape(Shape{4}), Error);
}

TEST(DenseTest, ParamViewsLayout) {
  Rng rng(1);
  Dense layer(3, 2, rng);
  layer.set_name("dense0");
  const auto views = layer.param_views();
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0].name, "dense0.weight");
  EXPECT_EQ(views[0].size, 6);
  EXPECT_FALSE(views[0].is_bias);
  EXPECT_EQ(views[1].name, "dense0.bias");
  EXPECT_EQ(views[1].size, 2);
  EXPECT_TRUE(views[1].is_bias);
  EXPECT_EQ(layer.param_count(), 8);
}

TEST(DenseTest, SaveLoadRoundTrip) {
  Rng rng(2);
  Dense layer(3, 2, rng);
  ByteWriter writer;
  layer.save(writer);
  ByteReader reader(writer.take());
  EXPECT_EQ(reader.read_string(), "dense");
  auto loaded = Dense::load(reader);
  EXPECT_EQ(loaded->in_features(), 3);
  EXPECT_EQ(loaded->out_features(), 2);
  for (std::int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(loaded->weights()[i], layer.weights()[i]);
  }
}

// ---------- Conv2d ----------

TEST(Conv2dTest, KnownConvolution) {
  Rng rng(1);
  Conv2d::Config config;
  config.in_channels = 1;
  config.out_channels = 1;
  config.kernel = 3;
  config.stride = 1;
  config.pad = 0;
  Conv2d layer(config, rng);
  layer.weights().fill(1.0f);  // 3x3 box filter
  layer.bias().fill(0.0f);
  Tensor x(Shape{1, 1, 3, 3});
  x.fill(2.0f);
  const Tensor y = layer.forward(x);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 18.0f);
}

TEST(Conv2dTest, PaddedShapePreserved) {
  Rng rng(1);
  Conv2d::Config config;
  config.in_channels = 2;
  config.out_channels = 4;
  config.kernel = 3;
  config.pad = 1;
  Conv2d layer(config, rng);
  EXPECT_EQ(layer.output_shape(Shape{3, 2, 8, 8}), Shape({3, 4, 8, 8}));
  EXPECT_THROW(layer.output_shape(Shape{3, 1, 8, 8}), Error);
}

TEST(Conv2dTest, BiasAddsUniformOffset) {
  Rng rng(1);
  Conv2d::Config config;
  config.in_channels = 1;
  config.out_channels = 1;
  config.kernel = 1;
  Conv2d layer(config, rng);
  layer.weights().fill(0.0f);
  layer.bias().fill(3.5f);
  Tensor x(Shape{1, 1, 2, 2});
  const Tensor y = layer.forward(x);
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y[i], 3.5f);
}

// ---------- MaxPool ----------

TEST(MaxPoolTest, SelectsWindowMaximum) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2}, {1, 5, 3, 2});
  const Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 5.0f);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2}, {1, 5, 3, 2});
  pool.forward(x);
  Tensor grad_out(Shape{1, 1, 1, 1}, {7.0f});
  const Tensor grad_in = pool.backward(grad_out);
  EXPECT_FLOAT_EQ(grad_in[0], 0.0f);
  EXPECT_FLOAT_EQ(grad_in[1], 7.0f);  // position of the max
  EXPECT_FLOAT_EQ(grad_in[2], 0.0f);
}

TEST(MaxPoolTest, HalvesSpatialDims) {
  MaxPool2d pool(2, 2);
  EXPECT_EQ(pool.output_shape(Shape{1, 3, 8, 6}), Shape({1, 3, 4, 3}));
}

// ---------- Flatten / Normalize ----------

TEST(FlattenTest, RoundTrip) {
  Flatten flatten;
  Tensor x(Shape{2, 3, 4, 5});
  const Tensor y = flatten.forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 60}));
  const Tensor back = flatten.backward(Tensor(Shape{2, 60}));
  EXPECT_EQ(back.shape(), x.shape());
}

TEST(NormalizeTest, CentresAndScales) {
  Normalize norm(0.5f, 0.5f);
  Tensor x(Shape{1, 4}, {0.0f, 0.5f, 1.0f, 0.75f});
  const Tensor y = norm.forward(x);
  EXPECT_FLOAT_EQ(y[0], -1.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 1.0f);
  EXPECT_FLOAT_EQ(y[3], 0.5f);
  const Tensor g = norm.backward(Tensor(Shape{1, 4}, {1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(g[0], 2.0f);  // 1/scale
}

TEST(NormalizeTest, ZeroScaleRejected) {
  EXPECT_THROW(Normalize(0.5f, 0.0f), Error);
}

// ---------- Gradient checks (property sweeps) ----------

struct GradCase {
  std::string name;
  ActivationKind activation;
};

class ModelGradCheck : public ::testing::TestWithParam<GradCase> {};

TEST_P(ModelGradCheck, MlpParamAndInputGradients) {
  Rng rng(77);
  Sequential model = build_mlp(12, {10, 8}, 4, GetParam().activation, rng);
  Rng data_rng(5);
  const Tensor x = Tensor::rand_uniform(Shape{12}, data_rng, -1.0f, 1.0f);

  Rng check_rng(9);
  const auto params = check_param_gradients(model, x, 2, check_rng, 80, 1e-3);
  EXPECT_LT(params.bad_fraction(2e-2), 0.06) << "param gradients diverge";
  const auto inputs = check_input_gradients(model, x, 2, check_rng, 12, 1e-3);
  EXPECT_LT(inputs.bad_fraction(2e-2), 0.10) << "input gradients diverge";
}

TEST_P(ModelGradCheck, ConvNetParamAndInputGradients) {
  Rng rng(78);
  ConvNetSpec spec;
  spec.in_channels = 2;
  spec.in_height = 8;
  spec.in_width = 8;
  spec.conv_channels = {3, 3};
  spec.dense_units = {10};
  spec.num_classes = 3;
  spec.activation = GetParam().activation;
  Sequential model = build_convnet(spec, rng);

  Rng data_rng(6);
  const Tensor x = Tensor::rand_uniform(Shape{2, 8, 8}, data_rng, 0.0f, 1.0f);
  Rng check_rng(10);
  const auto params = check_param_gradients(model, x, 1, check_rng, 80, 1e-3);
  EXPECT_LT(params.bad_fraction(3e-2), 0.06) << "param gradients diverge";
  const auto inputs = check_input_gradients(model, x, 1, check_rng, 60, 1e-3);
  EXPECT_LT(inputs.bad_fraction(3e-2), 0.08) << "input gradients diverge";
}

INSTANTIATE_TEST_SUITE_P(
    Activations, ModelGradCheck,
    ::testing::Values(GradCase{"relu", ActivationKind::kReLU},
                      GradCase{"tanh", ActivationKind::kTanh},
                      GradCase{"sigmoid", ActivationKind::kSigmoid},
                      GradCase{"leaky", ActivationKind::kLeakyReLU}),
    [](const auto& info) { return info.param.name; });

// Sweep conv geometries with a fixed activation.
struct ConvGeom {
  std::string name;
  std::int64_t kernel;
  std::int64_t stride;
  std::int64_t pad;
};

class ConvGeometryGradCheck : public ::testing::TestWithParam<ConvGeom> {};

TEST_P(ConvGeometryGradCheck, GradientsMatchFiniteDifference) {
  const auto geom = GetParam();
  Rng rng(80);
  Sequential model;
  Conv2d::Config config;
  config.in_channels = 2;
  config.out_channels = 3;
  config.kernel = geom.kernel;
  config.stride = geom.stride;
  config.pad = geom.pad;
  model.add(std::make_unique<Conv2d>(config, rng));
  model.add(std::make_unique<ActivationLayer>(ActivationKind::kTanh));
  model.add(std::make_unique<Flatten>());
  const Shape out = model.output_shape(Shape{1, 2, 9, 9});
  model.add(std::make_unique<Dense>(out[1], 3, rng));

  Rng data_rng(4);
  const Tensor x = Tensor::rand_uniform(Shape{2, 9, 9}, data_rng, -1.0f, 1.0f);
  Rng check_rng(12);
  const auto result = check_param_gradients(model, x, 0, check_rng, 60, 1e-3);
  EXPECT_LT(result.bad_fraction(3e-2), 0.07);
}

INSTANTIATE_TEST_SUITE_P(Geometries, ConvGeometryGradCheck,
                         ::testing::Values(ConvGeom{"k3s1p0", 3, 1, 0},
                                           ConvGeom{"k3s1p1", 3, 1, 1},
                                           ConvGeom{"k5s1p2", 5, 1, 2},
                                           ConvGeom{"k3s2p1", 3, 2, 1},
                                           ConvGeom{"k1s1p0", 1, 1, 0}),
                         [](const auto& info) { return info.param.name; });

// ---------- Batched vs per-item consistency ----------

TEST(BatchConsistencyTest, BatchedForwardEqualsPerItem) {
  Rng rng(90);
  ConvNetSpec spec;
  spec.in_channels = 1;
  spec.in_height = 10;
  spec.in_width = 10;
  spec.conv_channels = {4, 4};
  spec.dense_units = {8};
  spec.num_classes = 5;
  Sequential model = build_convnet(spec, rng);

  Rng data_rng(91);
  std::vector<Tensor> items;
  for (int i = 0; i < 4; ++i) {
    items.push_back(Tensor::rand_uniform(Shape{1, 10, 10}, data_rng, 0.0f, 1.0f));
  }
  const Tensor batched = model.forward(stack_batch(items));
  for (int i = 0; i < 4; ++i) {
    const Tensor single = model.forward(stack_batch({items[static_cast<std::size_t>(i)]}));
    for (std::int64_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(batched[i * 5 + j], single[j], 1e-4f);
    }
  }
}

// ---------- Reverse-pass contract ----------

constexpr ActivationKind kAllKinds[] = {
    ActivationKind::kReLU, ActivationKind::kTanh, ActivationKind::kSigmoid,
    ActivationKind::kLeakyReLU};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

void set_backward_leak(Sequential& model, float leak) {
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    if (auto* act = dynamic_cast<ActivationLayer*>(&model.layer(l))) {
      act->set_backward_leak(leak);
    }
  }
}

TEST(ReversePassTest, InputGradientMatchesValueBackwardAndLeavesGradsZero) {
  struct Net {
    std::string name;
    Sequential model;
    Tensor batch;
  };
  std::vector<Net> nets;
  for (const auto& c : test_nets::random_conv_cases()) {
    nets.push_back({c.name, c.model(), stack_batch(c.probes())});
  }
  for (const ActivationKind kind : kAllKinds) {
    Rng rng(60);
    Net net{"mlp-" + to_string(kind), build_mlp(7, {9, 6}, 4, kind, rng), {}};
    // Non-zero biases, so no unit sits exactly at its kink for every input.
    for (const ParamView& view : net.model.param_views()) {
      if (!view.is_bias) continue;
      for (std::int64_t i = 0; i < view.size; ++i) {
        view.data[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
      }
    }
    net.batch = stack_batch(test_nets::probe_pool(5, Shape{7}, 61));
    nets.push_back(std::move(net));
  }

  for (Net& net : nets) {
    for (const float leak : {0.0f, 0.05f}) {
      SCOPED_TRACE(net.name + " leak " + std::to_string(leak));
      set_backward_leak(net.model, leak);
      const Shape logits_shape = net.model.output_shape(net.batch.shape());
      Rng grad_rng(62);
      const Tensor grad_logits = Tensor::randn(logits_shape, grad_rng);

      net.model.zero_grads();
      Workspace ws;
      net.model.forward(net.batch, ws);
      const Tensor input_grad = net.model.input_gradient(grad_logits, ws);
      for (const ParamView& view : net.model.param_views()) {
        for (std::int64_t i = 0; i < view.size; ++i) {
          ASSERT_EQ(view.grad[i], 0.0f) << view.name << "[" << i << "]";
        }
      }

      net.model.forward(net.batch);
      const Tensor value_grad = net.model.backward(grad_logits);
      EXPECT_TRUE(same_bits(input_grad, value_grad));
      EXPECT_GT(max_abs(input_grad), 0.0f);
      // The value path did accumulate parameter gradients.
      float grad_norm = 0.0f;
      for (const ParamView& view : net.model.param_views()) {
        for (std::int64_t i = 0; i < view.size; ++i) {
          grad_norm += std::fabs(view.grad[i]);
        }
      }
      EXPECT_GT(grad_norm, 0.0f);
      net.model.zero_grads();
    }
  }
}

TEST(ReversePassTest, PerKindActivationLoopsMatchScalarFunctions) {
  const float denormal = std::numeric_limits<float>::denorm_min() * 3.0f;
  const std::vector<float> row{0.0f,  -0.0f, denormal, -denormal, 1e-3f,
                               -1e-3f, 1.0f, -1.0f,    30.0f,     -30.0f};
  const auto width = static_cast<std::int64_t>(row.size());
  // Item 1 holds the same values in reverse order, so the per-item pass
  // must pick the right slice of the cached forward output.
  std::vector<float> x_data(row);
  x_data.insert(x_data.end(), row.rbegin(), row.rend());
  const Tensor x(Shape{2, width}, x_data);
  // Alternating signs: a zero gate under a negative upstream value must give
  // -0.0f, as the scalar product does.
  std::vector<float> g_data;
  for (std::int64_t i = 0; i < 2 * width; ++i) {
    g_data.push_back((i % 2 == 0 ? -1.0f : 1.0f) *
                     (0.75f + 0.25f * static_cast<float>(i)));
  }
  const Tensor upstream(Shape{2, width}, g_data);

  for (const ActivationKind kind : kAllKinds) {
    SCOPED_TRACE(to_string(kind));
    ActivationLayer layer(kind);
    Workspace ws;
    Tensor y(x.shape());
    layer.forward_into(0, x, y, ws);
    Tensor expected_y(x.shape());
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      expected_y[i] = activate(kind, x[i]);
    }
    EXPECT_TRUE(same_bits(y, expected_y));

    for (const float leak : {0.0f, 0.05f}) {
      layer.set_backward_leak(leak);
      Tensor dx(x.shape());
      layer.backward_into(0, upstream, dx, ws);
      Tensor expected_dx(x.shape());
      for (std::int64_t i = 0; i < x.numel(); ++i) {
        float gate = activate_grad(kind, x[i]);
        if (leak != 0.0f && gate < leak) gate = leak;
        expected_dx[i] = upstream[i] * gate;
      }
      EXPECT_TRUE(same_bits(dx, expected_dx)) << "leak " << leak;
    }

    for (std::int64_t item = 0; item < 2; ++item) {
      const Tensor s_out(Shape{1, width},
                         std::vector<float>(g_data.begin() + item * width,
                                            g_data.begin() + (item + 1) * width));
      Tensor s_in(Shape{1, width});
      layer.sensitivity_backward_item(0, item, s_out, s_in, ws);
      Tensor expected_s(Shape{1, width});
      for (std::int64_t i = 0; i < width; ++i) {
        expected_s[i] =
            s_out[i] * std::fabs(activate_grad(kind, x[item * width + i]));
      }
      EXPECT_TRUE(same_bits(s_in, expected_s)) << "item " << item;
    }
  }
}


// Every reverse pass reads the input of the latest forward: the workspace
// forward keeps a pointer to its input rather than a copy, so after a
// forward of A and then of B on one workspace, with A overwritten, each pass
// must equal that of a clone that has only ever seen B. The nets run a conv
// straight on the caller's tensor, then activations, a pool and the dense
// layers on the workspace's buffers.
TEST(ReversePassTest, EveryPassReadsTheLatestWorkspaceForward) {
  for (const auto& c : test_nets::random_conv_cases()) {
    SCOPED_TRACE(c.name);
    const std::vector<Tensor> probes = c.probes();
    Tensor batch_a = stack_batch({probes[0], probes[1], probes[2]});
    const Tensor batch_b = stack_batch({probes[3], probes[4], probes[5]});
    Sequential model = c.model();
    Sequential fresh = model.clone();
    const Shape logits = model.output_shape(batch_b.shape());
    Rng rng(9);
    const Tensor grad_logits = Tensor::randn(logits, rng);
    Tensor item_seed(Shape{1, logits[1]});
    item_seed.fill(1.0f);

    // Every parameter's grad buffer of `model` equals `fresh`'s bit for bit.
    const auto same_grads = [&] {
      const std::vector<ParamView> got = model.param_views();
      const std::vector<ParamView> want = fresh.param_views();
      for (std::size_t v = 0; v < got.size(); ++v) {
        const auto bytes =
            sizeof(float) * static_cast<std::size_t>(got[v].size);
        if (std::memcmp(got[v].grad, want[v].grad, bytes) != 0) return false;
      }
      return true;
    };

    Workspace ws;
    model.forward(batch_a, ws);
    model.forward(batch_b, ws);
    batch_a.fill(std::numeric_limits<float>::quiet_NaN());
    Workspace fresh_ws;
    fresh.forward(batch_b, fresh_ws);

    EXPECT_TRUE(same_bits(model.input_gradient(grad_logits, ws),
                          fresh.input_gradient(grad_logits, fresh_ws)));
    for (std::int64_t i = 0; i < batch_b.shape()[0]; ++i) {
      model.zero_grads();
      fresh.zero_grads();
      model.sensitivity_backward_item(i, item_seed, ws);
      fresh.sensitivity_backward_item(i, item_seed, fresh_ws);
      EXPECT_TRUE(same_grads()) << "item " << i;
    }
  }
}

// ---------- Dense and max-pool against the reference ----------

// Dense's direct kernels (forward_into, backward_into) and its value passes
// against tests/nn_reference.h: batches across and off the 8-row and
// 16-lane tiles, feature counts with and without a partial lane group
// (48, 300, 2048: up to 8 blocks of 256), unit counts not a multiple of 8,
// and one 260-unit layer whose input gradient sums over two blocks.
TEST(DenseReferenceTest, DirectAndValuePassesMatchReferenceBitForBit) {
  struct Geometry {
    std::int64_t batch, in, out;
  };
  std::vector<Geometry> cases;
  for (const std::int64_t batch : {1, 10, 16, 17, 33}) {
    for (const std::int64_t in : {48, 300, 2048}) {
      for (const std::int64_t out : {10, 13, 48}) {
        cases.push_back({batch, in, out});
      }
    }
  }
  cases.push_back({3, 20, 260});
  for (const Geometry& g : cases) {
    SCOPED_TRACE(testing::Message() << g.batch << "x" << g.in << "->" << g.out);
    Rng rng(static_cast<std::uint64_t>(g.batch * 7919 + g.in * 31 + g.out));
    Dense dense(g.in, g.out, rng);
    for (std::int64_t j = 0; j < g.out; ++j) {
      dense.bias()[j] = static_cast<float>(rng.uniform(-0.5, 0.5));
    }
    // Half the features zero, as after a ReLU.
    Tensor x = Tensor::randn(Shape{g.batch, g.in}, rng);
    for (std::int64_t e = 0; e < x.numel(); ++e) {
      if (x[e] < 0.0f) x[e] = 0.0f;
    }
    const Tensor dy = Tensor::randn(Shape{g.batch, g.out}, rng);
    const Tensor want_y = reference::dense_forward(
        dense.weights().data(), dense.bias().data(), g.out, x);
    const Tensor want_dx =
        reference::dense_input_gradient(dense.weights().data(), g.in, dy);

    Workspace ws;
    Tensor y(dense.output_shape(x.shape()));
    dense.forward_into(0, x, y, ws);
    EXPECT_TRUE(same_bits(y, want_y));
    Tensor dx(x.shape());
    dense.backward_into(0, dy, dx, ws);
    EXPECT_TRUE(same_bits(dx, want_dx));

    EXPECT_TRUE(same_bits(dense.forward(x), want_y));
    EXPECT_TRUE(same_bits(dense.backward(dy), want_dx));
  }
}

// MaxPool2d's forward and its gradient routes against the reference:
// ReLU plateaus (whole windows of zeros), windows mixing -0.0, +0.0, NaN
// and repeated values, odd planes that drop a row and a column, and
// overlapping windows (stride < kernel), through the workspace, value and
// per-item sensitivity passes.
TEST(MaxPoolReferenceTest, ForwardAndRoutesMatchReferenceBitForBit) {
  enum class Fill { kRelu, kSpecial };
  struct PoolCase {
    const char* name;
    std::int64_t kernel, stride;
    Shape shape;
    Fill fill;
  };
  const PoolCase cases[] = {
      {"relu 2x2 s2", 2, 2, Shape{10, 8, 32, 32}, Fill::kRelu},
      {"special 2x2 s2 odd", 2, 2, Shape{3, 2, 9, 7}, Fill::kSpecial},
      {"special 3x3 s2", 3, 2, Shape{2, 3, 11, 9}, Fill::kSpecial},
      {"relu 3x3 s1", 3, 1, Shape{1, 2, 6, 5}, Fill::kRelu},
      {"special 2x2 s1", 2, 1, Shape{2, 2, 5, 5}, Fill::kSpecial},
  };
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {-0.0f, 0.0f, nan, 1.0f, -1.0f, 0.5f, 1.0f};
  for (const PoolCase& c : cases) {
    SCOPED_TRACE(c.name);
    Rng rng(static_cast<std::uint64_t>(c.shape.numel()));
    Tensor x = Tensor::randn(c.shape, rng);
    for (std::int64_t e = 0; e < x.numel(); ++e) {
      if (c.fill == Fill::kRelu) {
        // Mostly negative pre-activations: many windows are all zeros.
        x[e] = std::max(0.0f, x[e] - 1.0f);
      } else {
        x[e] = specials[rng.uniform_int(0, 6)];
      }
    }
    MaxPool2d pool(c.kernel, c.stride);
    std::vector<std::int64_t> argmax;
    const Tensor want_y = reference::maxpool_forward(c.kernel, c.stride, x,
                                                     argmax);
    const Tensor dy = Tensor::randn(want_y.shape(), rng);
    const Tensor want_dx =
        reference::maxpool_gradient(c.kernel, c.stride, x, dy);

    Workspace ws;
    Tensor y(pool.output_shape(x.shape()));
    pool.forward_into(0, x, y, ws);
    EXPECT_TRUE(same_bits(y, want_y));
    Tensor dx(x.shape());
    pool.backward_into(0, dy, dx, ws);
    EXPECT_TRUE(same_bits(dx, want_dx));
    for (std::int64_t i = 0; i < x.shape()[0]; ++i) {
      const Tensor item = stack_batch({slice_batch(x, i)});
      const Tensor item_dy = stack_batch({slice_batch(dy, i)});
      Tensor item_sx(item.shape());
      pool.sensitivity_backward_item(0, i, item_dy, item_sx, ws);
      EXPECT_TRUE(same_bits(item_sx, reference::maxpool_gradient(
                                         c.kernel, c.stride, item, item_dy)))
          << "item " << i;
    }

    EXPECT_TRUE(same_bits(pool.forward(x), want_y));
    EXPECT_TRUE(same_bits(pool.backward(dy), want_dx));
  }
}

}  // namespace
}  // namespace dnnv::nn
