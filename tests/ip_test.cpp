// IP substrate tests: black-box semantics, quantisation fidelity, and
// memory-level faults (bit flips and byte writes) on the weight memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "ip/quantized_ip.h"
#include "ip/reference_ip.h"
#include "nn/builder.h"
#include "nn/trainer.h"
#include "util/error.h"
#include "util/rng.h"

namespace dnnv::ip {
namespace {

using nn::ActivationKind;
using nn::Sequential;

Sequential trained_net(std::uint64_t seed = 5) {
  Rng rng(seed);
  Sequential model = nn::build_mlp(6, {10}, 3, ActivationKind::kReLU, rng);
  Rng data_rng(seed + 1);
  std::vector<Tensor> inputs;
  std::vector<int> labels;
  for (int i = 0; i < 120; ++i) {
    const int label = i % 3;
    Tensor x(Shape{6});
    for (std::int64_t j = 0; j < 6; ++j) {
      x[j] = static_cast<float>(data_rng.normal(j == label * 2 ? 1.0 : 0.0, 0.3));
    }
    inputs.push_back(std::move(x));
    labels.push_back(label);
  }
  nn::TrainConfig config;
  config.epochs = 10;
  config.batch_size = 16;
  nn::fit(model, inputs, labels, config);
  return model;
}

std::vector<Tensor> probe_inputs(int count, std::uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<Tensor> inputs;
  for (int i = 0; i < count; ++i) {
    inputs.push_back(Tensor::rand_uniform(Shape{6}, rng, -1.0f, 1.0f));
  }
  return inputs;
}

// ---------- ReferenceIp ----------

TEST(ReferenceIpTest, MatchesUnderlyingModel) {
  Sequential model = trained_net();
  ReferenceIp ip(model, Shape{6});
  EXPECT_EQ(ip.num_classes(), 3);
  EXPECT_EQ(ip.input_shape(), Shape({6}));
  for (const auto& x : probe_inputs(10)) {
    EXPECT_EQ(ip.predict(x), model.predict_label(x));
  }
}

TEST(ReferenceIpTest, BatchMatchesSingle) {
  Sequential model = trained_net();
  ReferenceIp ip(model, Shape{6});
  const auto inputs = probe_inputs(7);
  const auto batch = ip.predict_all(inputs);
  ASSERT_EQ(batch.size(), 7u);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(batch[i], ip.predict(inputs[i]));
  }
}

TEST(ReferenceIpTest, IsIsolatedFromVendorModel) {
  Sequential model = trained_net();
  ReferenceIp ip(model, Shape{6});
  const auto x = probe_inputs(1).front();
  const int before = ip.predict(x);
  // Corrupting the vendor's model object must not affect the shipped IP.
  for (const auto& view : model.param_views()) {
    for (std::int64_t i = 0; i < view.size; ++i) view.data[i] = 0.0f;
  }
  EXPECT_EQ(ip.predict(x), before);
}

TEST(ReferenceIpTest, RejectsWrongInputShape) {
  Sequential model = trained_net();
  ReferenceIp ip(model, Shape{6});
  EXPECT_THROW(ip.predict(Tensor(Shape{5})), Error);
}

// ---------- QuantizedIp ----------

TEST(QuantizedIpTest, MemoryLayoutCoversAllParams) {
  Sequential model = trained_net();
  const auto params = model.param_count();
  QuantizedIp ip(model, Shape{6});
  EXPECT_EQ(ip.memory_size(), static_cast<std::size_t>(params));
  std::int64_t table_total = 0;
  for (const auto& info : ip.tensor_table()) table_total += info.size;
  EXPECT_EQ(table_total, params);
}

TEST(QuantizedIpTest, QuantizationErrorWithinBound) {
  Sequential model = trained_net();
  QuantizedIp ip(model, Shape{6});
  EXPECT_LE(ip.max_quantization_error(), ip.quantization_error_bound() + 1e-6f);
  EXPECT_GT(ip.quantization_error_bound(), 0.0f);
}

TEST(QuantizedIpTest, AgreesWithFloatModelOnMostInputs) {
  Sequential model = trained_net();
  QuantizedIp quant(model, Shape{6});
  ReferenceIp ref(model, Shape{6});
  const auto inputs = probe_inputs(50);
  int agree = 0;
  for (const auto& x : inputs) {
    if (quant.predict(x) == ref.predict(x)) ++agree;
  }
  // Int8 weight quantisation shifts decisions only near boundaries.
  EXPECT_GE(agree, 45);
}

TEST(QuantizedIpTest, PerChannelErrorBoundSemantics) {
  // The error accounting must dequantize every code with ITS channel's
  // scale: per-channel grids are finer, so the per-channel bound can never
  // exceed the per-tensor bound, and measured error obeys each bound.
  Sequential model = trained_net();
  const auto pool = probe_inputs(32, 21);
  QuantizedIp per_channel(model, Shape{6}, pool);  // per-channel default
  quant::QuantConfig per_tensor_config;
  per_tensor_config.weight_granularity = quant::Granularity::kPerTensor;
  QuantizedIp per_tensor(model, Shape{6}, pool, per_tensor_config);

  EXPECT_LE(per_channel.max_quantization_error(),
            per_channel.quantization_error_bound() + 1e-6f);
  EXPECT_LE(per_tensor.max_quantization_error(),
            per_tensor.quantization_error_bound() + 1e-6f);
  EXPECT_LE(per_channel.quantization_error_bound(),
            per_tensor.quantization_error_bound() + 1e-6f);
  EXPECT_LE(per_channel.max_quantization_error(),
            per_tensor.quantization_error_bound() + 1e-6f);

  // The address-layout table documents the channel structure: the first
  // weight tensor (dense 6->10) carries one scale per output unit.
  const auto& first = per_channel.tensor_table().front();
  EXPECT_EQ(first.channel_scales.size(), 10u);
  EXPECT_EQ(first.per_channel, 6);
  EXPECT_EQ(first.scale, *std::max_element(first.channel_scales.begin(),
                                           first.channel_scales.end()));
  EXPECT_EQ(per_tensor.tensor_table().front().channel_scales.size(), 1u);
}

TEST(QuantizedIpTest, BitFlipChangesMemoryAndCanChangeOutput) {
  Sequential model = trained_net();
  QuantizedIp ip(model, Shape{6});
  const std::uint8_t before = ip.read_byte(0);
  ip.flip_bit(0, 7);  // sign bit of the first weight
  EXPECT_NE(ip.read_byte(0), before);
  ip.flip_bit(0, 7);
  EXPECT_EQ(ip.read_byte(0), before);
}

TEST(QuantizedIpTest, MemoryWriteAffectsInference) {
  Sequential model = trained_net();
  QuantizedIp ip(model, Shape{6});
  const auto inputs = probe_inputs(30, 9);
  const auto clean = ip.predict_all(inputs);

  // Corrupt a large slab of weight memory: predictions must change somewhere.
  for (std::size_t a = 0; a < ip.memory_size() / 2; ++a) {
    ip.write_byte(a, static_cast<std::uint8_t>(0x7F));
  }
  const auto corrupted = ip.predict_all(inputs);
  int changed = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (clean[i] != corrupted[i]) ++changed;
  }
  EXPECT_GT(changed, 0);
}

TEST(QuantizedIpTest, AddressValidation) {
  Sequential model = trained_net();
  QuantizedIp ip(model, Shape{6});
  EXPECT_THROW(ip.read_byte(ip.memory_size()), Error);
  EXPECT_THROW(ip.flip_bit(0, 8), Error);
  EXPECT_THROW(ip.write_byte(ip.memory_size(), 0), Error);
}

TEST(QuantizedIpTest, ShippedArtifactMatchesPerElementDefinition) {
  // The shipped-artifact constructor copies each tensor's codes into the
  // weight memory in bulk and snapshots every channel block with its one
  // scale. Per element: byte `a` is code i of its view, the table mirrors
  // the views, the snapshot reads error 0 (every value it holds is its
  // code's scale_c * code), and after a bit flip the error is that byte's
  // own scale * |new - old|.
  const Sequential model = trained_net();
  const auto pool = probe_inputs(32, 21);
  for (const auto granularity :
       {quant::Granularity::kPerChannel, quant::Granularity::kPerTensor}) {
    quant::QuantConfig config;
    config.weight_granularity = granularity;
    quant::QuantModel shipped = quant::QuantModel::quantize(model, pool, config);
    QuantizedIp ip(shipped, Shape{6});
    const std::vector<quant::QTensorView> views = shipped.param_views();
    ASSERT_EQ(ip.tensor_table().size(), views.size());
    std::size_t address = 0;
    for (std::size_t v = 0; v < views.size(); ++v) {
      const QuantTensorInfo& info = ip.tensor_table()[v];
      const quant::QTensorView& view = views[v];
      EXPECT_EQ(info.memory_offset, address) << view.name;
      EXPECT_EQ(info.size, view.size) << view.name;
      EXPECT_EQ(info.per_channel, view.per_channel) << view.name;
      EXPECT_EQ(info.channel_scales, view.scales) << view.name;
      EXPECT_EQ(info.scale,
                *std::max_element(view.scales.begin(), view.scales.end()));
      for (std::int64_t i = 0; i < view.size; ++i, ++address) {
        ASSERT_EQ(ip.read_byte(address), static_cast<std::uint8_t>(view.codes[i]))
            << view.name << "[" << i << "]";
      }
    }
    EXPECT_EQ(address, ip.memory_size());
    EXPECT_EQ(ip.max_quantization_error(), 0.0f);

    // A code in the last channel block of the first weight tensor.
    const QuantTensorInfo& first = ip.tensor_table().front();
    const std::int64_t i = first.size - 2;
    const std::size_t a = first.memory_offset + static_cast<std::size_t>(i);
    const float scale =
        first.channel_scales[static_cast<std::size_t>(i / first.per_channel)];
    const auto before = static_cast<std::int8_t>(ip.read_byte(a));
    ip.flip_bit(a, 6);
    const auto after = static_cast<std::int8_t>(ip.read_byte(a));
    EXPECT_FLOAT_EQ(ip.max_quantization_error(),
                    scale * static_cast<float>(std::abs(after - before)));
  }
}

// ---------- Memory faults through flip_bit ----------

TEST(QuantizedIpTest, BitFlipRevertRestoresMemory) {
  Sequential model = trained_net();
  QuantizedIp ip(model, Shape{6});
  std::vector<std::uint8_t> snapshot;
  for (std::size_t a = 0; a < ip.memory_size(); ++a) {
    snapshot.push_back(ip.read_byte(a));
  }
  Rng rng(13);
  for (int i = 0; i < 20; ++i) {
    const auto address =
        static_cast<std::size_t>(rng.uniform_u64(ip.memory_size()));
    const int bit = static_cast<int>(rng.uniform_u64(8));
    ip.flip_bit(address, bit);
    EXPECT_NE(ip.read_byte(address), snapshot[address]);
    ip.flip_bit(address, bit);  // the same flip again is the revert
  }
  for (std::size_t a = 0; a < ip.memory_size(); ++a) {
    EXPECT_EQ(ip.read_byte(a), snapshot[a]);
  }
}

TEST(QuantizedIpTest, SignBitFlipIsLargePerturbation) {
  // Flipping bit 7 of a two's complement int8 moves the weight by 128 quanta
  // — the most damaging single-bit fault, mirroring published bit-flip
  // attack findings.
  Sequential model = trained_net();
  QuantizedIp ip(model, Shape{6});
  const float scale = ip.tensor_table()[0].scale;
  const auto before = static_cast<std::int8_t>(ip.read_byte(0));
  ip.flip_bit(0, 7);
  const auto after = static_cast<std::int8_t>(ip.read_byte(0));
  EXPECT_NEAR(std::fabs(static_cast<float>(after) - before) * scale,
              128.0f * scale, 1e-6f);
}

}  // namespace
}  // namespace dnnv::ip
