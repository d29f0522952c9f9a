// Conv2d against the test-only float reference (tests/nn_reference.h):
// forward_into, backward_into, the value backward()'s input, weight and bias
// gradients, and the per-item sensitivity passes (parameter and input
// sensitivities, and the parameter-only pass) must match it bit for bit on
// every random_conv_cases() conv, on both tiny zoo models' convs over pool
// items, and on two convs whose sums cross a 256-term block. The stride-2
// cases cover the polyphase layout, and the zoo convs' 784- and
// 1024-position planes split the weight reduction into blocks, the mnist
// ones mid-row. A second test checks that nothing cached by one forward
// leaks into a pass after the next. Like MIOpen's convolution tests, the
// comparison prints one row per case and a summary.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "exp/model_zoo.h"
#include "nn/conv2d.h"
#include "nn/sequential.h"
#include "nn/workspace.h"
#include "tensor/batch.h"
#include "tests/nn_reference.h"
#include "tests/test_nets.h"
#include "util/rng.h"

namespace dnnv::nn {
namespace {

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

exp::ZooOptions tiny_options() {
  exp::ZooOptions options;
  options.tiny = true;
  options.cache_dir =
      (std::filesystem::temp_directory_path() / "dnnv_nn_conv_test_zoo")
          .string();
  return options;
}

/// One conv layer and the batch it sees.
struct ConvCase {
  std::string suite;
  std::string name;
  std::unique_ptr<Conv2d> conv;
  Tensor input;
};

/// Every conv of `model` with its input when `batch` runs through it.
void add_model_convs(const std::string& suite, const std::string& name,
                     Sequential& model, const Tensor& batch,
                     std::vector<ConvCase>& cases) {
  Tensor value = batch;
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    Layer& layer = model.layer(l);
    if (dynamic_cast<Conv2d*>(&layer) != nullptr) {
      std::unique_ptr<Layer> copy = layer.clone();
      cases.push_back({suite, name + "/" + layer.name(),
                       std::unique_ptr<Conv2d>(
                           static_cast<Conv2d*>(copy.release())),
                       value});
    }
    value = layer.forward(value);
  }
}

ConvCase synthetic_case(const std::string& name, const Conv2d::Config& cfg,
                        const Shape& input_shape, std::uint64_t seed) {
  Rng rng(seed);
  auto conv = std::make_unique<Conv2d>(cfg, rng);
  for (std::int64_t i = 0; i < conv->bias().numel(); ++i) {
    conv->bias()[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  return {"synthetic", name, std::move(conv),
          Tensor::rand_uniform(input_shape, rng, -1.0f, 1.0f)};
}

std::vector<ConvCase> all_cases() {
  std::vector<ConvCase> cases;
  for (const auto& c : test_nets::random_conv_cases()) {
    Sequential model = c.model();
    add_model_convs("random_conv_cases", c.name, model, stack_batch(c.probes()),
                    cases);
  }
  const exp::ZooOptions zoo = tiny_options();
  exp::TrainedModel mnist = exp::mnist_tanh(zoo);
  add_model_convs("zoo", mnist.name, mnist.model,
                  stack_batch(exp::digits_train(6).images), cases);
  exp::TrainedModel cifar = exp::cifar_relu(zoo);
  add_model_convs("zoo", cifar.name, cifar.model,
                  stack_batch(exp::shapes_train(6).images), cases);
  // 288 forward taps: the default cifar model's 32-channel 3x3 conv.
  cases.push_back(
      synthetic_case("288taps", {32, 5, 3, 1, 1}, Shape{2, 32, 7, 9}, 71));
  // 260 output channels: an input-gradient dot product over two blocks.
  cases.push_back(
      synthetic_case("260oc", {3, 260, 3, 1, 1}, Shape{2, 3, 4, 5}, 72));
  return cases;
}

std::string geometry(const ConvCase& c) {
  const Conv2d::Config& cfg = c.conv->config();
  const Shape& s = c.input.shape();
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "[%lld,%lld,%lld,%lld]->%lld k%lld s%lld p%lld",
                static_cast<long long>(s[0]), static_cast<long long>(s[1]),
                static_cast<long long>(s[2]), static_cast<long long>(s[3]),
                static_cast<long long>(cfg.out_channels),
                static_cast<long long>(cfg.kernel),
                static_cast<long long>(cfg.stride),
                static_cast<long long>(cfg.pad));
  return buf;
}

const char* verdict(bool pass) { return pass ? "PASS" : "FAIL"; }

/// The conv's weight (0) or bias (1) grad buffer equals `want` bit for bit.
bool same_grad(Conv2d& conv, std::size_t view, const Tensor& want) {
  const ParamView v = conv.param_views()[view];
  return v.size == want.numel() &&
         std::memcmp(v.grad, want.data(),
                     sizeof(float) * static_cast<std::size_t>(v.size)) == 0;
}

bool same_param_grads(Conv2d& conv, const reference::ParamGrads& want) {
  return same_grad(conv, 0, want.weight) && same_grad(conv, 1, want.bias);
}

/// Item `item` of a batch, as a batch of one.
Tensor item_of(const Tensor& batch, std::int64_t item) {
  return stack_batch({slice_batch(batch, item)});
}

TEST(ConvReferenceTest, DirectAndValuePassesMatchReferenceBitForBit) {
  std::vector<ConvCase> cases = all_cases();
  const char* rule =
      "+-------------------+-------------------------------+"
      "--------------------------------+---------+----------+--------+"
      "--------+--------+------+-----------+\n";
  std::printf("%s| %-17s | %-29s | %-30s | %-7s | %-8s | %-6s | %-6s | %-6s "
              "| %-4s | %-9s |\n%s",
              rule, "Suite", "Case", "Geometry", "forward", "bwd_into",
              "bwd_dx", "bwd_dW", "bwd_db", "par", "sens_item", rule);
  int failed = 0;
  for (ConvCase& c : cases) {
    SCOPED_TRACE(c.suite + " " + c.name);
    Conv2d& conv = *c.conv;
    const Conv2d::Config& cfg = conv.config();
    const Tensor want_y = reference::conv_forward(cfg, conv.weights().data(),
                                                  conv.bias().data(), c.input);
    Rng grad_rng(5);
    const Tensor dy = Tensor::randn(want_y.shape(), grad_rng);
    const Tensor want_dx = reference::conv_input_gradient(
        cfg, conv.weights().data(), c.input.shape(), dy);
    const reference::ParamGrads want_grads =
        reference::conv_param_gradient(cfg, c.input, dy);
    Tensor sens = Tensor::randn(want_y.shape(), grad_rng);
    for (std::int64_t e = 0; e < sens.numel(); ++e) {
      sens[e] = std::fabs(sens[e]);
    }

    Workspace ws;
    Tensor y(conv.output_shape(c.input.shape()));
    conv.forward_into(0, c.input, y, ws);
    Tensor dx(c.input.shape());
    conv.backward_into(0, dy, dx, ws);
    const bool forward_ok = same_bits(y, want_y);
    const bool into_ok = same_bits(dx, want_dx);

    // The value path; its forward caches the same input.
    const bool value_forward_ok = same_bits(conv.forward(c.input), want_y);
    conv.zero_grads();
    const bool dx_ok = value_forward_ok && same_bits(conv.backward(dy), want_dx);
    const bool dw_ok = same_grad(conv, 0, want_grads.weight);
    const bool db_ok = same_grad(conv, 1, want_grads.bias);

    // The per-item passes against the same workspace forward, one item at a
    // time, each against the reference on a batch of that item alone: the
    // parameter-only pass, then the full one.
    conv.forward_into(0, c.input, y, ws);
    bool par_ok = true;
    bool item_ok = true;
    for (std::int64_t i = 0; i < c.input.shape()[0]; ++i) {
      const Tensor item = item_of(c.input, i);
      const Tensor item_sens = item_of(sens, i);
      const reference::ParamGrads want =
          reference::conv_param_sensitivity(cfg, item, item_sens);
      conv.zero_grads();
      conv.parameter_sensitivity_item(0, i, item_sens, ws);
      par_ok = par_ok && same_param_grads(conv, want);
      conv.zero_grads();
      Tensor item_sdx(item.shape());
      conv.sensitivity_backward_item(0, i, item_sens, item_sdx, ws);
      item_ok = item_ok && same_param_grads(conv, want) &&
                same_bits(item_sdx,
                          reference::conv_input_sensitivity(
                              cfg, conv.weights().data(), item.shape(),
                              item_sens));
    }

    const bool all_ok = forward_ok && into_ok && dx_ok && dw_ok && db_ok &&
                        par_ok && item_ok;
    EXPECT_TRUE(forward_ok);
    EXPECT_TRUE(into_ok);
    EXPECT_TRUE(dx_ok);
    EXPECT_TRUE(dw_ok);
    EXPECT_TRUE(db_ok);
    EXPECT_TRUE(par_ok);
    EXPECT_TRUE(item_ok);
    failed += all_ok ? 0 : 1;
    std::printf("| %-17s | %-29s | %-30s | %-7s | %-8s | %-6s | %-6s | %-6s "
                "| %-4s | %-9s |\n",
                c.suite.c_str(), c.name.c_str(), geometry(c).c_str(),
                verdict(forward_ok), verdict(into_ok), verdict(dx_ok),
                verdict(dw_ok), verdict(db_ok), verdict(par_ok),
                verdict(item_ok));
  }
  const char* summary_rule =
      "+-------------+--------+--------+--------------+\n";
  std::printf("%s%s| Total cases | Passed | Failed | Final result |\n%s"
              "| %-11zu | %-6zu | %-6d | %-12s |\n%s",
              rule, summary_rule, summary_rule, cases.size(),
              cases.size() - static_cast<std::size_t>(failed), failed,
              verdict(failed == 0), summary_rule);
  // 10 random_conv_cases convs, 2 per zoo model and the 2 synthetic convs.
  EXPECT_EQ(cases.size(), 16u);
}

/// Every parameter's grad buffer, concatenated.
std::vector<float> grads_of(Sequential& model) {
  std::vector<float> out;
  for (const ParamView& view : model.param_views()) {
    out.insert(out.end(), view.grad, view.grad + view.size);
  }
  return out;
}

bool same_floats(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Every reverse pass reads the input cached by the latest forward, so after
// a forward of batch A and then of batch B, each pass must equal the pass of
// a fresh clone that has only ever seen B, or the reference on B.
TEST(ConvReferenceTest, ColumnCacheIsRebuiltAfterEveryForward) {
  const auto c = test_nets::random_conv_cases()[1];
  const std::vector<Tensor> probes = c.probes();
  const Tensor batch_a = stack_batch({probes[0], probes[1], probes[2]});
  const Tensor batch_b = stack_batch({probes[3], probes[4], probes[5]});
  Sequential model = c.model();
  const Shape logits = model.output_shape(batch_b.shape());
  Tensor item_seed(Shape{1, logits[1]});
  item_seed.fill(1.0f);

  // The per-item pass after a forward of A, then of B, against a fresh
  // clone that has only ever seen B.
  const auto per_item = [&](Sequential& m, Workspace& ws) {
    m.zero_grads();
    for (std::int64_t i = 0; i < batch_b.shape()[0]; ++i) {
      m.sensitivity_backward_item(i, item_seed, ws);
    }
  };
  Workspace ws;
  model.forward(batch_a, ws);
  per_item(model, ws);
  const std::vector<float> on_a = grads_of(model);
  model.forward(batch_b, ws);
  per_item(model, ws);
  const std::vector<float> on_b = grads_of(model);
  {
    Sequential fresh = model.clone();
    Workspace fresh_ws;
    fresh.forward(batch_b, fresh_ws);
    per_item(fresh, fresh_ws);
    EXPECT_TRUE(same_floats(on_b, grads_of(fresh)));
    EXPECT_FALSE(same_floats(on_a, on_b));
  }

  // So must the value backward's weight gradient.
  Rng grad_rng(6);
  const Tensor grad_logits = Tensor::randn(logits, grad_rng);
  model.forward(batch_a);
  model.zero_grads();
  model.backward(grad_logits);
  model.forward(batch_b);
  model.zero_grads();
  model.backward(grad_logits);
  Sequential fresh = model.clone();
  fresh.forward(batch_b);
  fresh.zero_grads();
  fresh.backward(grad_logits);
  EXPECT_TRUE(same_floats(grads_of(model), grads_of(fresh)));

  // A second forward may change the input's height and width; the passes
  // after it must read taps at the new geometry's offsets.
  Rng conv_rng(8);
  Conv2d conv({2, 3, 3, 2, 1}, conv_rng);
  Workspace conv_ws;
  for (const Shape& shape : {Shape{2, 2, 9, 7}, Shape{3, 2, 12, 10}}) {
    SCOPED_TRACE(shape.to_string());
    const Tensor x = Tensor::rand_uniform(shape, conv_rng, -1.0f, 1.0f);
    Tensor y(conv.output_shape(shape));
    conv.forward_into(0, x, y, conv_ws);
    const Tensor s = Tensor::rand_uniform(y.shape(), conv_rng, 0.0f, 1.0f);
    for (std::int64_t i = 0; i < shape[0]; ++i) {
      const Tensor item = item_of(x, i);
      const Tensor item_s = item_of(s, i);
      conv.zero_grads();
      Tensor sx(item.shape());
      conv.sensitivity_backward_item(0, i, item_s, sx, conv_ws);
      EXPECT_TRUE(same_param_grads(
          conv, reference::conv_param_sensitivity(conv.config(), item, item_s)))
          << "item " << i;
      EXPECT_TRUE(same_bits(sx, reference::conv_input_sensitivity(
                                    conv.config(), conv.weights().data(),
                                    item.shape(), item_s)))
          << "item " << i;
    }
  }
}

}  // namespace
}  // namespace dnnv::nn
