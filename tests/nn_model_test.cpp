// Model-level tests: Sequential registry, serialisation, losses, optimisers,
// and training convergence.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>

#include "nn/activation_layer.h"
#include "nn/builder.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "nn/trainer.h"
#include "tensor/batch.h"
#include "util/error.h"

namespace dnnv::nn {
namespace {

Sequential tiny_mlp(std::uint64_t seed = 3) {
  Rng rng(seed);
  return build_mlp(4, {6}, 3, ActivationKind::kReLU, rng);
}

// ---------- Parameter registry ----------

TEST(SequentialTest, ParamCountMatchesViews) {
  Sequential model = tiny_mlp();
  // dense(4->6): 24+6, dense(6->3): 18+3.
  EXPECT_EQ(model.param_count(), 24 + 6 + 18 + 3);
  std::int64_t total = 0;
  for (const auto& view : model.param_views()) total += view.size;
  EXPECT_EQ(total, model.param_count());
}

TEST(SequentialTest, GlobalIndexingRoundTrip) {
  Sequential model = tiny_mlp();
  const std::int64_t n = model.param_count();
  for (const std::int64_t idx : {std::int64_t{0}, n / 2, n - 1}) {
    const float original = model.get_param(idx);
    model.set_param(idx, 42.0f);
    EXPECT_EQ(model.get_param(idx), 42.0f);
    model.add_to_param(idx, 1.0f);
    EXPECT_EQ(model.get_param(idx), 43.0f);
    model.set_param(idx, original);
  }
  EXPECT_THROW(model.get_param(n), Error);
  EXPECT_THROW(model.get_param(-1), Error);
}

TEST(SequentialTest, ParamNamesAndBiasFlags) {
  Sequential model = tiny_mlp();
  EXPECT_EQ(model.param_name(0), "dense0.weight[0]");
  EXPECT_FALSE(model.param_is_bias(0));
  EXPECT_EQ(model.param_name(24), "dense0.bias[0]");
  EXPECT_TRUE(model.param_is_bias(24));
}

TEST(SequentialTest, SnapshotRestoreRoundTrip) {
  Sequential model = tiny_mlp();
  const auto snapshot = model.snapshot_params();
  model.set_param(0, 123.0f);
  model.set_param(10, -7.0f);
  model.restore_params(snapshot);
  EXPECT_EQ(model.get_param(0), snapshot[0]);
  EXPECT_EQ(model.get_param(10), snapshot[10]);
  EXPECT_THROW(model.restore_params(std::vector<float>(3)), Error);
}

TEST(SequentialTest, CloneIsDeepAndIndependent) {
  Sequential model = tiny_mlp();
  Sequential copy = model.clone();
  EXPECT_EQ(copy.param_count(), model.param_count());
  const float before = model.get_param(0);
  copy.set_param(0, before + 5.0f);
  EXPECT_EQ(model.get_param(0), before);

  Rng rng(4);
  const Tensor x = Tensor::rand_uniform(Shape{1, 4}, rng, -1.0f, 1.0f);
  copy.set_param(0, before);
  const Tensor a = model.forward(x);
  const Tensor b = copy.forward(x);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(SequentialTest, SaveLoadPreservesBehaviour) {
  Sequential model = tiny_mlp(11);
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnnv_model_test.bin").string();
  model.save_file(path);
  Sequential loaded = Sequential::load_file(path);
  std::filesystem::remove(path);

  Rng rng(5);
  const Tensor x = Tensor::rand_uniform(Shape{2, 4}, rng, -1.0f, 1.0f);
  const Tensor a = model.forward(x);
  const Tensor b = loaded.forward(x);
  ASSERT_EQ(a.shape(), b.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(SequentialTest, LoadRejectsGarbage) {
  ByteWriter writer;
  writer.write_u32(0x12345678);
  ByteReader reader(writer.take());
  EXPECT_THROW(Sequential::load(reader), Error);
}

// The layer count is untrusted: one claiming more records than the stream
// can hold (each opens with an 8-byte kind length) is rejected from the
// count alone, before any record is decoded.
TEST(SequentialTest, LoadRejectsForgedLayerCount) {
  ByteWriter writer;
  tiny_mlp().save(writer);
  const std::vector<std::uint8_t> clean = writer.take();
  constexpr std::size_t kCountOffset = 8;  // after magic and version
  const std::size_t records = clean.size() - kCountOffset - 8;
  for (const std::uint64_t count :
       {std::uint64_t{records / 8 + 1}, std::uint64_t{1} << 40}) {
    std::vector<std::uint8_t> forged = clean;
    std::memcpy(forged.data() + kCountOffset, &count, sizeof count);
    ByteReader reader(forged);
    EXPECT_THROW(Sequential::load(reader), Error) << count;
    EXPECT_EQ(reader.remaining(), records) << count;
  }
}

// The dropout layer is gone: a model file carrying a dropout record (as the
// layer once saved it: kind, rate, seed) after valid layers fails with a
// typed error naming the kind.
TEST(SequentialTest, LoadRejectsDropoutRecord) {
  ByteWriter writer;
  tiny_mlp().save(writer);
  std::vector<std::uint8_t> bytes = writer.take();
  constexpr std::size_t kCountOffset = 8;  // after magic and version
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + kCountOffset, sizeof count);
  ++count;
  std::memcpy(bytes.data() + kCountOffset, &count, sizeof count);
  ByteWriter dropout;
  dropout.write_string("dropout");
  dropout.write_f32(0.5f);
  dropout.write_u64(0x12D0);
  const std::vector<std::uint8_t> record = dropout.take();
  bytes.insert(bytes.end(), record.begin(), record.end());

  ByteReader reader(bytes);
  try {
    Sequential::load(reader);
    ADD_FAILURE() << "a dropout record loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'dropout'"), std::string::npos)
        << e.what();
  }
}

// Layer records store a geometry, not a length: a forged one whose weight
// count wraps past 2^64 must be rejected before any multiplication.
TEST(SequentialTest, ConvLoadRejectsOverflowingGeometry) {
  ByteWriter writer;
  writer.write_i64(std::int64_t{1} << 40);  // in_channels
  writer.write_i64(2);                       // out_channels
  writer.write_i64(std::int64_t{1} << 20);  // kernel
  writer.write_i64(1);                       // stride
  writer.write_i64(0);                       // pad
  const float bias[2] = {0.5f, -0.5f};
  writer.write_f32_array(bias, 2);
  ByteReader reader(writer.take());
  EXPECT_THROW(Conv2d::load(reader), Error);
}

// A conv record whose stride or padding reaches past its kernel is
// rejected on load: the stream bounds the kernel through its weight count,
// and the kernel bounds stride and padding, so the padded-item and output
// sizes cannot overflow. Pad 2^40 once loaded and then overflowed the first
// forward's output size.
TEST(SequentialTest, ConvLoadRejectsUnboundedStrideAndPadding) {
  const auto record = [](std::int64_t stride, std::int64_t pad) {
    ByteWriter writer;
    writer.write_i64(1);  // in_channels
    writer.write_i64(1);  // out_channels
    writer.write_i64(3);  // kernel
    writer.write_i64(stride);
    writer.write_i64(pad);
    const std::vector<float> weights(9, 0.5f);
    writer.write_f32_array(weights.data(), weights.size());
    const float bias = 0.25f;
    writer.write_f32_array(&bias, 1);
    return ByteReader(writer.take());
  };
  ByteReader ok = record(3, 2);
  EXPECT_EQ(Conv2d::load(ok)->config().pad, 2);
  ByteReader pad = record(1, std::int64_t{1} << 40);
  EXPECT_THROW(Conv2d::load(pad), Error);
  ByteReader stride = record(4, 0);
  EXPECT_THROW(Conv2d::load(stride), Error);
}

TEST(SequentialTest, DenseLoadRejectsOverflowingGeometry) {
  ByteWriter writer;
  writer.write_i64(std::int64_t{1} << 62);  // in_features
  writer.write_i64(4);                       // out_features
  const float bias[4] = {0.5f, -0.5f, 1.0f, -1.0f};
  writer.write_f32_array(bias, 4);
  ByteReader reader(writer.take());
  EXPECT_THROW(Dense::load(reader), Error);
}

TEST(SequentialTest, SummaryMentionsLayers) {
  Sequential model = tiny_mlp();
  const std::string summary = model.summary();
  EXPECT_NE(summary.find("dense(4->6)"), std::string::npos);
  EXPECT_NE(summary.find("relu"), std::string::npos);
}

TEST(SequentialTest, PredictLabelsMatchArgmax) {
  Sequential model = tiny_mlp();
  Rng rng(6);
  std::vector<Tensor> items;
  for (int i = 0; i < 3; ++i) {
    items.push_back(Tensor::rand_uniform(Shape{4}, rng, -1.0f, 1.0f));
  }
  const auto labels = model.predict_labels(stack_batch(items));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(labels[static_cast<std::size_t>(i)],
              model.predict_label(items[static_cast<std::size_t>(i)]));
  }
}

// ---------- Losses ----------

TEST(LossTest, SoftmaxRowsSumToOne) {
  const Tensor logits(Shape{2, 3}, {1, 2, 3, -1, 0, 1});
  const Tensor probs = softmax(logits);
  for (int row = 0; row < 2; ++row) {
    double total = 0.0;
    for (int j = 0; j < 3; ++j) total += probs[row * 3 + j];
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
}

TEST(LossTest, SoftmaxStableForHugeLogits) {
  const Tensor logits(Shape{1, 2}, {1000.0f, 0.0f});
  const Tensor probs = softmax(logits);
  EXPECT_NEAR(probs[0], 1.0f, 1e-6);
  EXPECT_FALSE(std::isnan(probs[1]));
}

TEST(LossTest, CrossEntropyOfPerfectPredictionIsSmall) {
  const Tensor logits(Shape{1, 3}, {20.0f, 0.0f, 0.0f});
  const auto result = softmax_cross_entropy(logits, {0});
  EXPECT_LT(result.loss, 1e-6);
}

TEST(LossTest, CrossEntropyGradientSignsAndSum) {
  const Tensor logits(Shape{1, 3}, {1.0f, 2.0f, 0.5f});
  const auto result = softmax_cross_entropy(logits, {1});
  // Gradient rows of CE w.r.t. logits sum to zero; true class negative.
  double total = 0.0;
  for (int j = 0; j < 3; ++j) total += result.grad_logits[j];
  EXPECT_NEAR(total, 0.0, 1e-6);
  EXPECT_LT(result.grad_logits[1], 0.0f);
  EXPECT_GT(result.grad_logits[0], 0.0f);
}

TEST(LossTest, CrossEntropyValidatesLabels) {
  const Tensor logits(Shape{1, 3});
  EXPECT_THROW(softmax_cross_entropy(logits, {3}), Error);
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 1}), Error);
}

TEST(LossTest, MseZeroAtTarget) {
  const Tensor a(Shape{3}, {1, 2, 3});
  const auto result = mse_loss(a, a);
  EXPECT_DOUBLE_EQ(result.loss, 0.0);
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_EQ(result.grad_logits[i], 0.0f);
}

TEST(LossTest, AccuracyCounting) {
  const Tensor logits(Shape{2, 2}, {2.0f, 1.0f, 0.0f, 3.0f});
  EXPECT_DOUBLE_EQ(accuracy(logits, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(accuracy(logits, {1, 1}), 0.5);
}

// ---------- Optimisers ----------

TEST(OptimizerTest, SgdDescendsQuadratic) {
  // Minimise f(w) = 0.5*w^2 via its gradient w.
  Rng rng(7);
  Sequential model;
  model.add(std::make_unique<Dense>(1, 1, rng, InitKind::kZero));
  model.set_param(0, 4.0f);  // weight w
  Sgd opt(0.1f, 0.0f);
  for (int i = 0; i < 100; ++i) {
    const auto views = model.param_views();
    views[0].grad[0] = model.get_param(0);  // df/dw = w
    views[1].grad[0] = 0.0f;
    opt.step(model);
  }
  EXPECT_NEAR(model.get_param(0), 0.0f, 1e-3f);
}

TEST(OptimizerTest, AdamDescendsQuadratic) {
  Rng rng(7);
  Sequential model;
  model.add(std::make_unique<Dense>(1, 1, rng, InitKind::kZero));
  model.set_param(0, 4.0f);
  Adam opt(0.2f);
  for (int i = 0; i < 200; ++i) {
    const auto views = model.param_views();
    views[0].grad[0] = model.get_param(0);
    views[1].grad[0] = 0.0f;
    opt.step(model);
  }
  EXPECT_NEAR(model.get_param(0), 0.0f, 5e-2f);
}

TEST(OptimizerTest, WeightDecayShrinksParamsWithZeroGrad) {
  Rng rng(7);
  Sequential model;
  model.add(std::make_unique<Dense>(1, 1, rng, InitKind::kZero));
  model.set_param(0, 1.0f);
  Sgd opt(0.1f, 0.0f, /*weight_decay=*/0.5f);
  model.zero_grads();
  opt.step(model);
  // w -= lr * wd * w  ->  1 - 0.1*0.5 = 0.95
  EXPECT_NEAR(model.get_param(0), 0.95f, 1e-6f);
}

TEST(OptimizerTest, RejectsBadHyperparams) {
  EXPECT_THROW(Sgd(-0.1f), Error);
  EXPECT_THROW(Sgd(0.1f, 1.5f), Error);
  EXPECT_THROW(Adam(0.0f), Error);
}

// ---------- Trainer ----------

TEST(TrainerTest, LearnsLinearlySeparableTask) {
  // Two Gaussian blobs in 2-D; a tiny MLP must reach near-perfect accuracy.
  Rng rng(8);
  std::vector<Tensor> inputs;
  std::vector<int> labels;
  for (int i = 0; i < 200; ++i) {
    const int label = i % 2;
    const float cx = label == 0 ? -1.0f : 1.0f;
    Tensor x(Shape{2});
    x[0] = cx + static_cast<float>(rng.normal(0.0, 0.3));
    x[1] = -cx + static_cast<float>(rng.normal(0.0, 0.3));
    inputs.push_back(std::move(x));
    labels.push_back(label);
  }
  Rng model_rng(9);
  Sequential model = build_mlp(2, {8}, 2, ActivationKind::kTanh, model_rng);

  TrainConfig config;
  config.epochs = 30;
  config.batch_size = 16;
  config.learning_rate = 0.02f;
  int epochs_seen = 0;
  config.on_epoch = [&](int, double) { ++epochs_seen; };
  const auto result = fit(model, inputs, labels, config);
  EXPECT_EQ(result.epochs_run, 30);
  EXPECT_EQ(epochs_seen, 30);
  EXPECT_GT(evaluate_accuracy(model, inputs, labels), 0.97);
  EXPECT_LT(result.final_loss, 0.2);
}

TEST(TrainerTest, DeterministicAcrossRuns) {
  auto run = [] {
    Rng rng(8);
    std::vector<Tensor> inputs;
    std::vector<int> labels;
    for (int i = 0; i < 64; ++i) {
      inputs.push_back(Tensor::rand_uniform(Shape{3}, rng, -1.0f, 1.0f));
      labels.push_back(i % 3);
    }
    Rng model_rng(10);
    Sequential model = build_mlp(3, {5}, 3, ActivationKind::kReLU, model_rng);
    TrainConfig config;
    config.epochs = 3;
    config.batch_size = 16;
    fit(model, inputs, labels, config);
    return model.snapshot_params();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

TEST(TrainerTest, ValidatesInputs) {
  Sequential model = tiny_mlp();
  TrainConfig config;
  EXPECT_THROW(fit(model, {}, {}, config), Error);
  std::vector<Tensor> inputs{Tensor(Shape{4})};
  EXPECT_THROW(fit(model, inputs, {0, 1}, config), Error);
}

}  // namespace
}  // namespace dnnv::nn
