// Validation-protocol tests: suite construction, packaging, user-side
// replay, and the detection-rate harness.
#include <gtest/gtest.h>

#include <filesystem>

#include "attack/random_perturbation.h"
#include "attack/sba.h"
#include "ip/reference_ip.h"
#include "nn/builder.h"
#include "nn/trainer.h"
#include "util/error.h"
#include "validate/detection.h"
#include "validate/test_suite.h"
#include "validate/validator.h"

namespace dnnv::validate {
namespace {

using nn::ActivationKind;
using nn::Sequential;

Sequential trained_net(std::uint64_t seed = 5) {
  Rng rng(seed);
  Sequential model = nn::build_mlp(6, {12}, 3, ActivationKind::kReLU, rng);
  Rng data_rng(seed + 1);
  std::vector<Tensor> inputs;
  std::vector<int> labels;
  for (int i = 0; i < 150; ++i) {
    const int label = i % 3;
    Tensor x(Shape{6});
    for (std::int64_t j = 0; j < 6; ++j) {
      x[j] = static_cast<float>(data_rng.normal(j == label * 2 ? 1.2 : 0.0, 0.35));
    }
    inputs.push_back(std::move(x));
    labels.push_back(label);
  }
  nn::TrainConfig config;
  config.epochs = 12;
  config.batch_size = 16;
  nn::fit(model, inputs, labels, config);
  return model;
}

std::vector<Tensor> some_inputs(int count, std::uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<Tensor> inputs;
  for (int i = 0; i < count; ++i) {
    inputs.push_back(Tensor::rand_uniform(Shape{6}, rng, -1.0f, 1.0f));
  }
  return inputs;
}

// ---------- TestSuite ----------

TEST(TestSuiteTest, GoldenLabelsMatchModel) {
  Sequential model = trained_net();
  const auto inputs = some_inputs(8);
  const TestSuite suite = TestSuite::create(model, inputs);
  ASSERT_EQ(suite.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(suite.golden_labels()[i], model.predict_label(inputs[i]));
  }
}

TEST(TestSuiteTest, PrefixKeepsOrder) {
  Sequential model = trained_net();
  const TestSuite suite = TestSuite::create(model, some_inputs(10));
  const TestSuite prefix = suite.prefix(4);
  EXPECT_EQ(prefix.size(), 4u);
  EXPECT_EQ(prefix.golden_labels()[3], suite.golden_labels()[3]);
  EXPECT_THROW(suite.prefix(11), Error);
}

TEST(TestSuiteTest, PackageRoundTrip) {
  Sequential model = trained_net();
  const TestSuite suite = TestSuite::create(model, some_inputs(6));
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnnv_suite_test.pkg").string();
  suite.save_package(path, /*key=*/0xFEEDFACE);
  const TestSuite loaded = TestSuite::load_package(path, 0xFEEDFACE);
  std::filesystem::remove(path);
  ASSERT_EQ(loaded.size(), suite.size());
  EXPECT_EQ(loaded.golden_labels(), suite.golden_labels());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_DOUBLE_EQ(squared_distance(loaded.inputs()[i], suite.inputs()[i]), 0.0);
  }
}

TEST(TestSuiteTest, WrongKeyRejected) {
  Sequential model = trained_net();
  const TestSuite suite = TestSuite::create(model, some_inputs(4));
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnnv_suite_key.pkg").string();
  suite.save_package(path, 111);
  EXPECT_THROW(TestSuite::load_package(path, 222), Error);
  std::filesystem::remove(path);
}

TEST(TestSuiteTest, CorruptionDetectedByCrc) {
  Sequential model = trained_net();
  const TestSuite suite = TestSuite::create(model, some_inputs(4));
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnnv_suite_crc.pkg").string();
  suite.save_package(path, 333);
  auto bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x40;  // corrupt the ciphertext
  write_file(path, bytes);
  EXPECT_THROW(TestSuite::load_package(path, 333), Error);
  std::filesystem::remove(path);
}

TEST(TestSuiteTest, PackageIsObfuscated) {
  // The plaintext float pattern of the first input must not appear verbatim.
  Sequential model = trained_net();
  auto inputs = some_inputs(2);
  inputs[0].fill(0.0f);  // all-zero floats are easy to spot in plaintext
  const TestSuite suite = TestSuite::create(model, inputs);
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnnv_suite_obf.pkg").string();
  suite.save_package(path, 444);
  const auto bytes = read_file(path);
  std::filesystem::remove(path);
  int zero_run = 0;
  int longest = 0;
  for (const auto b : bytes) {
    zero_run = b == 0 ? zero_run + 1 : 0;
    longest = std::max(longest, zero_run);
  }
  EXPECT_LT(longest, 16);  // 24 zero floats would be 96 zero bytes in the clear
}

// A geometry whose dims product wraps 2^64 (2^19 * 2^19 * 2^19 * 2^19 * 256
// = 2^84) once loaded as a one-test suite of zero-element inputs; a count the
// stream cannot hold must fail before any test is read.
TEST(TestSuiteTest, LoadRejectsForgedCountAndGeometry) {
  const auto stream = [](std::uint64_t count,
                         const std::vector<std::int64_t>& dims) {
    ByteWriter writer;
    writer.write_u64(count);
    writer.write_u64(dims.size());
    for (const std::int64_t d : dims) writer.write_i64(d);
    writer.write_f32(1.0f);
    writer.write_i64(3);  // label
    return ByteReader(writer.take());
  };
  const std::int64_t big = std::int64_t{1} << 19;
  ByteReader wrapping = stream(1, {big, big, big, big, 256});
  EXPECT_THROW(TestSuite::load(wrapping), Error);
  ByteReader too_many = stream(std::uint64_t{1} << 40, {1});
  EXPECT_THROW(TestSuite::load(too_many), Error);
  ByteReader zero_dim = stream(1, {1, 0});
  EXPECT_THROW(TestSuite::load(zero_dim), Error);

  ByteReader valid = stream(1, {1});
  const TestSuite suite = TestSuite::load(valid);
  ASSERT_EQ(suite.size(), 1u);
  EXPECT_EQ(suite.inputs()[0].shape(), Shape({1}));
  EXPECT_EQ(suite.golden_labels()[0], 3);
}

// ---------- Validator ----------

TEST(ValidatorTest, IntactIpPasses) {
  Sequential model = trained_net();
  const TestSuite suite = TestSuite::create(model, some_inputs(10));
  ip::ReferenceIp ip(model, Shape{6});
  const Verdict verdict = validate_ip(ip, suite);
  EXPECT_TRUE(verdict.passed);
  EXPECT_EQ(verdict.first_failure, -1);
  EXPECT_EQ(verdict.num_failures, 0);
  EXPECT_EQ(verdict.tests_run, 10);
}

TEST(ValidatorTest, TamperedIpFails) {
  Sequential model = trained_net();
  const TestSuite suite = TestSuite::create(model, some_inputs(10));
  ip::ReferenceIp ip(model, Shape{6});
  // Zero the whole first layer inside the deployed IP (gross tampering).
  auto& compromised = ip.compromised_model();
  const auto views = compromised.param_views();
  for (std::int64_t i = 0; i < views[0].size; ++i) views[0].data[i] = 0.0f;
  const Verdict verdict = validate_ip(ip, suite);
  EXPECT_FALSE(verdict.passed);
  EXPECT_GE(verdict.first_failure, 0);
  EXPECT_GT(verdict.num_failures, 0);
}

TEST(ValidatorTest, EarlyExitStopsAtFirstFailure) {
  Sequential model = trained_net();
  const TestSuite suite = TestSuite::create(model, some_inputs(10));
  ip::ReferenceIp ip(model, Shape{6});
  auto& compromised = ip.compromised_model();
  const auto views = compromised.param_views();
  for (std::int64_t i = 0; i < views[0].size; ++i) views[0].data[i] = 0.0f;
  const Verdict verdict = validate_ip(ip, suite, /*early_exit=*/true);
  EXPECT_FALSE(verdict.passed);
  EXPECT_EQ(verdict.tests_run, verdict.first_failure + 1);
}

// ---------- Detection experiment ----------

TEST(DetectionTest, RandomPerturbationRatesAreMonotoneInN) {
  Sequential model = trained_net(41);
  const auto suite_inputs = some_inputs(20, 42);
  const TestSuite suite = TestSuite::create(model, suite_inputs);
  const auto victims = some_inputs(10, 43);

  attack::RandomPerturbation::Options opt;
  opt.num_params = 4;
  opt.relative_sigma = 6.0f;
  attack::RandomPerturbation attack(opt);

  DetectionConfig config;
  config.trials = 120;
  config.test_counts = {5, 10, 20};
  FloatReferenceBackend backend(model);
  const DetectionOutcome outcome =
      run_detection(model, suite, backend, attack, victims, config);
  ASSERT_EQ(outcome.rate_per_count.size(), 3u);
  EXPECT_EQ(outcome.successful_trials, 120);
  // More tests can only detect more (prefix property).
  EXPECT_LE(outcome.rate_per_count[0], outcome.rate_per_count[1] + 1e-12);
  EXPECT_LE(outcome.rate_per_count[1], outcome.rate_per_count[2] + 1e-12);
  for (const double rate : outcome.rate_per_count) {
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
  }
}

TEST(DetectionTest, DeterministicAcrossRuns) {
  Sequential model = trained_net(51);
  const TestSuite suite = TestSuite::create(model, some_inputs(10, 52));
  const auto victims = some_inputs(5, 53);
  attack::SingleBiasAttack attack;
  DetectionConfig config;
  config.trials = 40;
  config.test_counts = {5, 10};
  config.seed = 99;
  FloatReferenceBackend backend(model);
  const auto a = run_detection(model, suite, backend, attack, victims, config);
  const auto b = run_detection(model, suite, backend, attack, victims, config);
  EXPECT_EQ(a.rate_per_count, b.rate_per_count);
  EXPECT_EQ(a.successful_trials, b.successful_trials);
}

TEST(DetectionTest, LeavesModelUnperturbed) {
  Sequential model = trained_net(61);
  const TestSuite suite = TestSuite::create(model, some_inputs(10, 62));
  const auto victims = some_inputs(5, 63);
  const auto snapshot = model.snapshot_params();
  attack::SingleBiasAttack attack;
  DetectionConfig config;
  config.trials = 30;
  config.test_counts = {10};
  FloatReferenceBackend backend(model);
  run_detection(model, suite, backend, attack, victims, config);
  EXPECT_EQ(model.snapshot_params(), snapshot);
}

TEST(DetectionTest, ValidatesConfig) {
  Sequential model = trained_net(71);
  const TestSuite suite = TestSuite::create(model, some_inputs(5, 72));
  const auto victims = some_inputs(3, 73);
  attack::SingleBiasAttack attack;
  DetectionConfig config;
  config.test_counts = {6};  // exceeds suite size
  FloatReferenceBackend backend(model);
  EXPECT_THROW(run_detection(model, suite, backend, attack, victims, config),
               Error);
}

}  // namespace
}  // namespace dnnv::validate
