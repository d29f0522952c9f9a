// Tests for the experiment support library (model zoo + dataset registry)
// and for the systolic timing model.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "exp/model_zoo.h"
#include "ip/systolic.h"
#include "nn/builder.h"
#include "nn/loss.h"
#include "tensor/batch.h"
#include "util/error.h"
#include "util/serialize.h"

namespace dnnv {
namespace {

exp::ZooOptions tiny_options() {
  exp::ZooOptions options;
  options.tiny = true;
  options.cache_dir =
      (std::filesystem::temp_directory_path() / "dnnv_exp_test_zoo").string();
  return options;
}

// ---------- Dataset registry ----------

TEST(ExpDataTest, TrainTestSplitsAreDisjointUniverses) {
  const auto train = exp::digits_train(20);
  const auto test = exp::digits_test(20);
  // Different seeds: the same index must (almost surely) give different
  // images across splits.
  double diff = 0.0;
  for (std::int64_t i = 0; i < train.images[0].numel(); ++i) {
    diff += std::abs(train.images[0][i] - test.images[0][i]);
  }
  EXPECT_GT(diff, 1.0);
}

TEST(ExpDataTest, RegistryIsDeterministic) {
  const auto a = exp::shapes_train(10);
  const auto b = exp::shapes_train(10);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_DOUBLE_EQ(squared_distance(a.images[3], b.images[3]), 0.0);
}

TEST(ExpDataTest, PoolsMatchModelGeometry) {
  auto trained = exp::mnist_tanh(tiny_options());
  const auto ood = exp::ood_pool(trained, 4);
  const auto noise = exp::noise_pool(trained, 4);
  EXPECT_EQ(ood.images[0].shape(), trained.item_shape);
  EXPECT_EQ(noise.images[0].shape(), trained.item_shape);
  EXPECT_EQ(ood.labels[0], -1);
}

TEST(ExpZooTest, CacheDirResolution) {
  exp::ZooOptions options;
  options.cache_dir = "/custom/path";
  EXPECT_EQ(exp::cache_dir(options), "/custom/path");
  options.cache_dir.clear();
  // Falls back to env or default; both are non-empty.
  EXPECT_FALSE(exp::cache_dir(options).empty());
}

TEST(ExpZooTest, RetrainFlagBypassesCache) {
  auto options = tiny_options();
  const auto first = exp::mnist_tanh(options);
  options.retrain = true;
  const auto second = exp::mnist_tanh(options);
  // Deterministic training: retraining reproduces the same parameters.
  auto a = first.model.clone();
  auto b = second.model.clone();
  EXPECT_EQ(a.snapshot_params(), b.snapshot_params());
}

// A cache entry's rank is untrusted: one claiming more dims than the file
// holds fails as a typed error from the count itself (the message names its
// 8-byte entries), not after reading the rest of the file as dims.
TEST(ExpZooTest, CacheLoadRejectsForgedRank) {
  auto options = tiny_options();
  options.cache_dir = (std::filesystem::temp_directory_path() /
                       "dnnv_exp_test_forged_zoo")
                          .string();
  ByteWriter writer;
  writer.write_u32(0x4F4F5A44);  // "DZOO"
  writer.write_u32(1);           // version
  writer.write_string("mnist_tanh_tiny");
  writer.write_u64(std::uint64_t{1} << 40);  // rank
  for (const std::int64_t dim : {1, 28, 28, 10}) writer.write_i64(dim);
  write_file(options.cache_dir + "/mnist_tanh_tiny.dnnv", writer.bytes());
  try {
    exp::mnist_tanh(options);
    ADD_FAILURE() << "a forged cache entry loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("entries of 8 bytes"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(options.cache_dir);
}

// ---------- Systolic timing model ----------

TEST(SystolicTest, CountsMacsExactly) {
  Rng rng(1);
  nn::ConvNetSpec spec;
  spec.in_channels = 1;
  spec.in_height = 8;
  spec.in_width = 8;
  spec.conv_channels = {4, 4};
  spec.dense_units = {16};
  spec.num_classes = 3;
  auto model = nn::build_convnet(spec, rng);
  const auto cost = ip::estimate_cost(model, Shape{1, 8, 8});

  // conv0: k=1*3*3=9, out 4x8x8 (pad 1). conv after pool: k=4*9=36, out 4x8x8
  // then pooled to 4x4. dense: 4*4*4=64 -> 16 -> 3.
  double expected_macs = 9.0 * 4 * 64 + 36.0 * 4 * 64 + 64.0 * 16 + 16.0 * 3;
  EXPECT_DOUBLE_EQ(cost.total_macs, expected_macs);
  EXPECT_GT(cost.total_cycles, 0);
}

TEST(SystolicTest, BiggerArrayIsFasterButLessUtilised) {
  Rng rng(2);
  auto model = nn::build_mlp(256, {256}, 10, nn::ActivationKind::kReLU, rng);
  ip::SystolicConfig small;
  small.rows = 8;
  small.cols = 8;
  ip::SystolicConfig big;
  big.rows = 64;
  big.cols = 64;
  const auto cost_small = ip::estimate_cost(model, Shape{256}, small);
  const auto cost_big = ip::estimate_cost(model, Shape{256}, big);
  EXPECT_LT(cost_big.total_cycles, cost_small.total_cycles);
  EXPECT_LT(cost_big.utilization(big), cost_small.utilization(small) + 1e-9);
}

TEST(SystolicTest, MemoryBoundDetection) {
  Rng rng(3);
  // A huge dense layer with tiny bandwidth must be memory-bound.
  auto model = nn::build_mlp(2048, {1024}, 10, nn::ActivationKind::kReLU, rng);
  ip::SystolicConfig starved;
  starved.memory_bytes_per_cycle = 0.5;
  const auto cost = ip::estimate_cost(model, Shape{2048}, starved);
  bool any_memory_bound = false;
  for (const auto& layer : cost.layers) {
    if (layer.memory_bound()) any_memory_bound = true;
  }
  EXPECT_TRUE(any_memory_bound);
}

TEST(SystolicTest, SuiteReplayAmortisesWeightStreaming) {
  Rng rng(4);
  auto model = nn::build_mlp(512, {256}, 10, nn::ActivationKind::kReLU, rng);
  ip::SystolicConfig config;
  config.memory_bytes_per_cycle = 1.0;  // make weights expensive
  const auto cost = ip::estimate_cost(model, Shape{512}, config);
  const auto one = ip::suite_replay_cycles(cost, config, 1);
  const auto fifty = ip::suite_replay_cycles(cost, config, 50);
  EXPECT_EQ(one, cost.total_cycles);
  // 50 replays must cost far less than 50x the first inference.
  EXPECT_LT(fifty, 50 * one);
  EXPECT_EQ(ip::suite_replay_cycles(cost, config, 0), 0);
}

TEST(SystolicTest, LatencyScalesWithClock) {
  Rng rng(5);
  auto model = nn::build_mlp(64, {32}, 4, nn::ActivationKind::kReLU, rng);
  ip::SystolicConfig slow;
  slow.frequency_mhz = 100.0;
  ip::SystolicConfig fast = slow;
  fast.frequency_mhz = 1000.0;
  const auto cost = ip::estimate_cost(model, Shape{64}, slow);
  EXPECT_NEAR(cost.latency_us(slow), 10.0 * cost.latency_us(fast), 1e-9);
}

}  // namespace
}  // namespace dnnv
