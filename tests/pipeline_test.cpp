// Pipeline/API-redesign tests: the generator registry must be bit-identical
// to each method's own entry point, the ExecutionBackends must agree on
// golden labels and code faults, and the Deliverable must round-trip (and
// reject corruption, including forged element counts) and catch a tampered
// device.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <utility>

#include "exp/model_zoo.h"
#include "ip/quantized_ip.h"
#include "nn/builder.h"
#include "pipeline/user.h"
#include "pipeline/vendor.h"
#include "quant/quant_model.h"
#include "tensor/batch.h"
#include "testgen/generator.h"
#include "testgen/gradient_generator.h"
#include "testgen/greedy_selector.h"
#include "testgen/neuron_selector.h"
#include "util/error.h"
#include "validate/backend.h"

namespace dnnv {
namespace {

using nn::ActivationKind;
using nn::Sequential;

Sequential small_relu_net(std::uint64_t seed = 21) {
  Rng rng(seed);
  return nn::build_mlp(6, {10, 8}, 4, ActivationKind::kReLU, rng);
}

std::vector<Tensor> random_pool(int count, std::uint64_t seed = 22) {
  Rng rng(seed);
  std::vector<Tensor> pool;
  for (int i = 0; i < count; ++i) {
    pool.push_back(Tensor::rand_uniform(Shape{6}, rng, -1.0f, 1.0f));
  }
  return pool;
}

/// Exact equality of two generation results (inputs compared by distance).
void expect_identical(const testgen::GenerationResult& a,
                      const testgen::GenerationResult& b) {
  ASSERT_EQ(a.tests.size(), b.tests.size());
  for (std::size_t i = 0; i < a.tests.size(); ++i) {
    EXPECT_EQ(a.tests[i].source, b.tests[i].source) << "test " << i;
    EXPECT_EQ(a.tests[i].pool_index, b.tests[i].pool_index) << "test " << i;
    EXPECT_DOUBLE_EQ(
        squared_distance(a.tests[i].input, b.tests[i].input), 0.0)
        << "test " << i;
  }
  EXPECT_EQ(a.coverage_after, b.coverage_after);
  EXPECT_EQ(a.final_coverage, b.final_coverage);
  EXPECT_EQ(a.decisions.size(), b.decisions.size());
}

exp::ZooOptions tiny_options() {
  exp::ZooOptions options;
  options.tiny = true;
  options.cache_dir =
      (std::filesystem::temp_directory_path() / "dnnv_test_zoo").string();
  return options;
}

// ---------- Generator registry ----------

TEST(GeneratorRegistryTest, AllFiveMethodsRegistered) {
  const std::vector<std::string> expected = {"greedy", "gradient", "combined",
                                             "neuron", "random"};
  // Built-ins register first; custom generators (other tests register one
  // into the process-wide registry) append after them.
  const auto names = testgen::generator_names();
  ASSERT_GE(names.size(), expected.size());
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), names.begin()))
      << "built-in generators missing or reordered";
  for (const auto& name : expected) {
    EXPECT_TRUE(testgen::generator_registered(name));
    const auto generator = testgen::make_generator(name);
    ASSERT_NE(generator, nullptr);
    EXPECT_EQ(generator->name(), name);
  }
  EXPECT_FALSE(testgen::generator_registered("nope"));
  EXPECT_THROW(testgen::make_generator("nope"), Error);
}

TEST(GeneratorRegistryTest, CustomGeneratorsCanRegister) {
  testgen::register_generator(
      "custom-empty", [](const testgen::GeneratorConfig&) {
        class Empty final : public testgen::Generator {
         public:
          std::string name() const override { return "custom-empty"; }
          testgen::GenerationResult generate(
              const testgen::GenContext&) const override {
            return {};
          }
        };
        return std::make_unique<Empty>();
      });
  EXPECT_TRUE(testgen::generator_registered("custom-empty"));
  EXPECT_TRUE(
      testgen::make_generator("custom-empty")->generate({}).tests.empty());
}

TEST(GeneratorRegistryTest, MissingContextFieldsThrow) {
  const Sequential model = small_relu_net();
  testgen::GenContext ctx;  // everything missing
  EXPECT_THROW(testgen::make_generator("greedy")->generate(ctx), Error);
  ctx.model = &model;
  EXPECT_THROW(testgen::make_generator("combined")->generate(ctx), Error);
  EXPECT_THROW(testgen::make_generator("gradient")->generate(ctx), Error);
  EXPECT_THROW(testgen::make_generator("random")->generate(ctx), Error);
}

/// Pool masks under the "neuron" criterion over a 6-feature model.
std::vector<DynamicBitset> neuron_masks(const Sequential& model,
                                        const std::vector<Tensor>& pool) {
  cov::CriterionContext ctx;
  ctx.model = &model;
  ctx.item_shape = Shape{6};
  return cov::make_criterion("neuron", ctx)->measure_pool(pool);
}

TEST(GeneratorRegistryTest, MasksWithoutTheirCriterionThrow) {
  const Sequential model = small_relu_net(25);
  const auto pool = random_pool(10, 26);
  const auto masks =
      cov::make_parameter_criterion(model, {})->measure_pool(pool);
  testgen::GenContext ctx;
  ctx.model = &model;
  ctx.pool = &pool;
  ctx.masks = &masks;
  ctx.item_shape = Shape{6};
  ctx.num_classes = 4;
  testgen::GeneratorConfig config;
  config.max_tests = 4;
  config.gradient.steps = 2;
  for (const char* method :
       {"greedy", "gradient", "combined", "neuron", "random"}) {
    EXPECT_THROW(testgen::make_generator(method, config)->generate(ctx), Error)
        << method;
  }
}

TEST(GeneratorRegistryTest, GreedyMatchesDirectEntryPoint) {
  const Sequential model = small_relu_net(31);
  const auto pool = random_pool(30, 32);
  const auto universe = static_cast<std::size_t>(model.param_count());
  testgen::GeneratorConfig config;
  config.max_tests = 12;
  const auto criterion = cov::make_parameter_criterion(model, config.coverage);
  const auto masks = criterion->measure_pool(pool);

  testgen::GreedySelector::Options direct_options;
  direct_options.max_tests = 12;
  cov::CoverageAccumulator direct_acc(universe);
  std::vector<bool> used(pool.size(), false);
  const auto direct = testgen::GreedySelector(direct_options)
                          .select_with_masks(pool, masks, direct_acc, used);

  // Without a criterion the adapter builds its default one and measures
  // the pool itself.
  cov::CoverageAccumulator registry_acc(universe);
  testgen::GenContext ctx;
  ctx.model = &model;
  ctx.pool = &pool;
  ctx.accumulator = &registry_acc;
  const auto via_registry =
      testgen::make_generator("greedy", config)->generate(ctx);
  expect_identical(direct, via_registry);
  EXPECT_EQ(direct_acc.covered_count(), registry_acc.covered_count());

  // With the criterion and its precomputed masks it must land on the same
  // picks.
  cov::CoverageAccumulator masked_acc(universe);
  ctx.criterion = criterion.get();
  ctx.masks = &masks;
  ctx.accumulator = &masked_acc;
  expect_identical(direct,
                   testgen::make_generator("greedy", config)->generate(ctx));
}

TEST(GeneratorRegistryTest, GradientMatchesDirectEntryPoint) {
  const Sequential model = small_relu_net(41);
  const auto universe = static_cast<std::size_t>(model.param_count());

  testgen::GradientGenerator::Options direct_options;
  direct_options.max_tests = 8;
  direct_options.steps = 15;
  cov::CoverageAccumulator direct_acc(universe);
  const auto criterion = cov::make_parameter_criterion(model, {});
  const auto direct = testgen::GradientGenerator(direct_options)
                          .generate(*criterion, model, Shape{6}, 4, direct_acc);

  testgen::GeneratorConfig config;
  config.max_tests = 8;
  config.gradient.steps = 15;
  cov::CoverageAccumulator registry_acc(universe);
  testgen::GenContext ctx;
  ctx.model = &model;
  ctx.item_shape = Shape{6};
  ctx.num_classes = 4;
  ctx.accumulator = &registry_acc;
  expect_identical(direct,
                   testgen::make_generator("gradient", config)->generate(ctx));
}

TEST(GeneratorRegistryTest, CombinedMatchesDirectEntryPoint) {
  const Sequential model = small_relu_net(51);
  const auto pool = random_pool(20, 52);
  const auto universe = static_cast<std::size_t>(model.param_count());

  testgen::CombinedGenerator::Options direct_options;
  direct_options.max_tests = 16;
  direct_options.gradient.steps = 20;
  cov::CoverageAccumulator direct_acc(universe);
  const auto criterion = cov::make_parameter_criterion(model, {});
  const auto direct =
      testgen::CombinedGenerator(direct_options)
          .generate(*criterion, model, pool, criterion->measure_pool(pool),
                    Shape{6}, 4, direct_acc);

  testgen::GeneratorConfig config;
  config.max_tests = 16;
  config.gradient.steps = 20;
  cov::CoverageAccumulator registry_acc(universe);
  testgen::GenContext ctx;
  ctx.model = &model;
  ctx.pool = &pool;
  ctx.item_shape = Shape{6};
  ctx.num_classes = 4;
  ctx.accumulator = &registry_acc;
  const auto via_registry =
      testgen::make_generator("combined", config)->generate(ctx);
  expect_identical(direct, via_registry);

  // Decision traces must agree step for step, not just in size.
  for (std::size_t i = 0; i < direct.decisions.size(); ++i) {
    EXPECT_EQ(direct.decisions[i].step, via_registry.decisions[i].step);
    EXPECT_EQ(direct.decisions[i].chose_synthetic,
              via_registry.decisions[i].chose_synthetic);
    EXPECT_DOUBLE_EQ(direct.decisions[i].greedy_gain,
                     via_registry.decisions[i].greedy_gain);
    EXPECT_DOUBLE_EQ(direct.decisions[i].synthetic_gain,
                     via_registry.decisions[i].synthetic_gain);
  }
}

TEST(GeneratorRegistryTest, NeuronMatchesDirectEntryPoint) {
  const Sequential model = small_relu_net(61);
  const auto pool = random_pool(15, 62);

  testgen::NeuronCoverageSelector::Options direct_options;
  direct_options.max_tests = 10;
  const auto direct = testgen::NeuronCoverageSelector(direct_options)
                          .select_with_masks(pool, neuron_masks(model, pool));

  testgen::GeneratorConfig config;
  config.max_tests = 10;
  testgen::GenContext ctx;
  ctx.model = &model;
  ctx.pool = &pool;
  ctx.item_shape = Shape{6};
  ctx.num_classes = 4;
  expect_identical(direct,
                   testgen::make_generator("neuron", config)->generate(ctx));
}

TEST(GeneratorRegistryTest, RandomMatchesDirectEntryPoint) {
  const Sequential model = small_relu_net(71);
  const auto pool = random_pool(12, 72);
  const auto direct = testgen::RandomSelector(6, 17).select(pool);

  // Without a model there is no criterion to measure by: selection only.
  testgen::GeneratorConfig config;
  config.max_tests = 6;
  config.random_seed = 17;
  testgen::GenContext ctx;
  ctx.pool = &pool;
  const auto via_registry =
      testgen::make_generator("random", config)->generate(ctx);
  expect_identical(direct, via_registry);

  // With a criterion and its masks the control also reports the trajectory
  // Fig 3 plots; the default criterion over ctx.model reports the same one.
  const auto criterion = cov::make_parameter_criterion(model, {});
  const auto masks = criterion->measure_pool(pool);
  const auto universe = static_cast<std::size_t>(model.param_count());
  cov::CoverageAccumulator acc(universe);
  ctx.model = &model;
  ctx.criterion = criterion.get();
  ctx.masks = &masks;
  ctx.accumulator = &acc;
  const auto traced = testgen::make_generator("random", config)->generate(ctx);
  ASSERT_EQ(traced.coverage_after.size(), traced.tests.size());
  EXPECT_EQ(traced.final_coverage, acc.coverage());
  for (std::size_t i = 0; i < traced.tests.size(); ++i) {
    EXPECT_EQ(traced.tests[i].pool_index, direct.tests[i].pool_index);
  }
  testgen::GenContext default_ctx;
  default_ctx.model = &model;
  default_ctx.pool = &pool;
  expect_identical(traced,
                   testgen::make_generator("random", config)->generate(
                       default_ctx));
}

// ---------- ExecutionBackend ----------

TEST(ExecutionBackendTest, FloatGoldenLabelsAreTheSuiteLabels) {
  Sequential model = small_relu_net(85);
  const auto inputs = random_pool(6, 86);
  const validate::TestSuite suite = validate::TestSuite::create(model, inputs);
  const Tensor batch = stack_batch(suite.inputs());
  validate::FloatReferenceBackend backend(model);
  EXPECT_EQ(backend.golden_labels(suite, batch), suite.golden_labels());
  EXPECT_EQ(backend.predict_clean(batch), suite.golden_labels());
}

TEST(ExecutionBackendTest, FaultApplicationIsAnInvolution) {
  Sequential model = small_relu_net(91);
  const auto calibration = random_pool(16, 92);
  auto qmodel = quant::QuantModel::quantize(model, calibration);
  std::vector<std::int8_t> before;
  for (auto& view : qmodel.param_views()) {
    before.insert(before.end(), view.codes, view.codes + view.size);
  }

  const std::vector<validate::CodeFault> faults = {
      {0, 7}, {3, 0}, {before.size() - 1, 4}};
  validate::apply_code_faults(qmodel, faults);
  std::vector<std::int8_t> faulted;
  for (auto& view : qmodel.param_views()) {
    faulted.insert(faulted.end(), view.codes, view.codes + view.size);
  }
  EXPECT_NE(before, faulted);

  validate::apply_code_faults(qmodel, faults);  // XOR twice = identity
  std::vector<std::int8_t> restored;
  for (auto& view : qmodel.param_views()) {
    restored.insert(restored.end(), view.codes, view.codes + view.size);
  }
  EXPECT_EQ(before, restored);

  EXPECT_THROW(
      validate::apply_code_faults(
          qmodel, {{static_cast<std::size_t>(qmodel.param_count()), 0}}),
      Error);
}

// ---------- Backend parity on a zoo model ----------

TEST(BackendParityTest, FloatAndInt8QualificationAgreeOnZooModel) {
  auto trained = exp::cifar_relu(tiny_options());
  const auto pool = exp::shapes_train(60);
  auto qmodel = quant::QuantModel::quantize(trained.model, pool.images);

  std::vector<Tensor> inputs(pool.images.begin(), pool.images.begin() + 20);
  const Tensor batch = stack_batch(inputs);
  validate::FloatReferenceBackend float_backend(trained.model);
  validate::Int8Backend int8_backend(qmodel);
  const auto float_labels = float_backend.predict_clean(batch);
  const auto int8_labels = int8_backend.predict_clean(batch);
  ASSERT_EQ(float_labels.size(), int8_labels.size());
  int agree = 0;
  for (std::size_t i = 0; i < float_labels.size(); ++i) {
    agree += float_labels[i] == int8_labels[i];
  }
  // Post-training int8 on a trained model: near-total agreement expected.
  EXPECT_GE(agree, static_cast<int>(float_labels.size()) - 2)
      << "int8 engine disagrees with float on too many inputs";
}

// ---------- Deliverable / pipeline ----------

TEST(PipelineTest, DeliverableRoundTripsAndReproducesVerdict) {
  auto trained = exp::cifar_relu(tiny_options());
  const auto pool = exp::shapes_train(60);

  pipeline::VendorOptions options;
  options.method = "combined";
  options.backend = "int8";
  options.num_tests = 10;
  options.generator.coverage = trained.coverage;
  options.generator.gradient.steps = 15;
  options.model_name = trained.name;

  pipeline::VendorReport report;
  pipeline::Deliverable shipped =
      pipeline::VendorPipeline(options).run(trained.model, trained.item_shape,
                                            trained.num_classes, pool.images,
                                            &report);
  EXPECT_EQ(shipped.manifest.method, "combined");
  EXPECT_EQ(shipped.manifest.backend, "int8");
  EXPECT_EQ(shipped.manifest.num_tests, 10);
  EXPECT_TRUE(shipped.has_quant);
  EXPECT_EQ(shipped.suite.size(), 10u);
  EXPECT_GT(report.coverage, 0.0);
  EXPECT_GE(report.backend_float_agreement, 0);

  // The vendor's own bundle must validate SECURE before shipping.
  EXPECT_TRUE(
      pipeline::UserValidator(std::move(shipped)).validate().passed);
}

TEST(PipelineTest, SaveLoadValidateAndCorruptionRejection) {
  auto trained = exp::cifar_relu(tiny_options());
  const auto pool = exp::shapes_train(60);

  pipeline::VendorOptions options;
  options.method = "greedy";
  options.backend = "float";
  options.num_tests = 8;
  options.generator.coverage = trained.coverage;
  options.model_name = trained.name;

  const pipeline::Deliverable shipped =
      pipeline::VendorPipeline(options).run(trained.model, trained.item_shape,
                                            trained.num_classes, pool.images);
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnnv_deliverable.bin").string();
  constexpr std::uint64_t kKey = 0xBEEFCAFE;
  shipped.save_file(path, kKey);

  // Round trip: the user loads the one file and reproduces the verdict.
  const auto validator = pipeline::UserValidator::load_file(path, kKey);
  EXPECT_EQ(validator.deliverable().manifest.method, "greedy");
  EXPECT_EQ(validator.deliverable().suite.size(), 8u);
  EXPECT_EQ(validator.deliverable().suite.golden_labels(),
            shipped.suite.golden_labels());
  const auto verdict = validator.validate();
  EXPECT_TRUE(verdict.passed);
  EXPECT_EQ(verdict.tests_run, 8);

  // Wrong key: plausibility checks reject the garbage plaintext.
  EXPECT_THROW(pipeline::Deliverable::load_file(path, kKey + 1), Error);

  // Corrupted payload byte: the CRC footer rejects before parsing.
  auto bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x08;
  write_file(path, bytes);
  EXPECT_THROW(pipeline::Deliverable::load_file(path, kKey), Error);
  std::filesystem::remove(path);
}

TEST(PipelineTest, ManifestRejectsCountsTheStreamCannotHold) {
  pipeline::Manifest manifest;
  manifest.analysis_domain = "forged-count-marker";
  ByteWriter writer;
  manifest.save(writer);
  const std::vector<std::uint8_t> clean = writer.take();
  {
    ByteReader reader(clean);
    EXPECT_NO_THROW(pipeline::Manifest::load(reader));
  }
  // The input_domains count follows the analysis_domain string; the
  // excitations count follows it after two i64 fields.
  const std::string& marker = manifest.analysis_domain;
  const auto at = std::search(clean.begin(), clean.end(), marker.begin(),
                              marker.end());
  ASSERT_NE(at, clean.end());
  const auto domains_count =
      static_cast<std::size_t>(at - clean.begin()) + marker.size();
  for (const std::size_t offset : {domains_count, domains_count + 24}) {
    std::vector<std::uint8_t> forged = clean;
    const std::uint64_t count = std::uint64_t{1} << 40;
    std::memcpy(forged.data() + offset, &count, sizeof count);
    ByteReader reader(forged);
    EXPECT_THROW(pipeline::Manifest::load(reader), Error) << "offset " << offset;
  }
}

// Runs on mnist_tanh_tiny: its unthinned universe is about a third of
// cifar_relu_tiny's, which keeps the test inside the sanitizer jobs' time.
// The three-channel round trip is pinned by the hand-built manifest test
// below.
TEST(PipelineTest, ManifestV4StaticAnalysisRoundTrip) {
  auto trained = exp::mnist_tanh(tiny_options());
  const auto pool = exp::digits_train(60);

  pipeline::VendorOptions options;
  options.method = "greedy";
  options.backend = "int8";
  options.num_tests = 8;
  options.generator.coverage = trained.coverage;
  options.model_name = trained.name;
  options.fault_model = "full";
  options.fault_budget = 0;  // full universe: dominance pairs need neighbours
  options.analysis_domain = "affine";
  options.calibrated = true;

  pipeline::VendorReport report;
  const pipeline::Deliverable shipped =
      pipeline::VendorPipeline(options).run(trained.model, trained.item_shape,
                                            trained.num_classes, pool.images,
                                            &report);

  // The static-analysis provenance lands in the manifest, coherently with
  // the run's own stats.
  const auto& m = shipped.manifest;
  EXPECT_EQ(m.analysis_domain, "affine");
  ASSERT_EQ(m.input_domains.size(), 1u);  // one domain per input channel
  for (const auto& domain : m.input_domains) {
    EXPECT_LE(domain.lo, domain.hi);
  }
  EXPECT_GT(m.fault_dominated, 0);
  EXPECT_EQ(m.fault_dominated, report.fault_stats.dominated);
  EXPECT_EQ(m.fault_conditional, report.fault_stats.conditional);
  EXPECT_EQ(static_cast<std::int64_t>(m.excitations.size()),
            m.fault_conditional);

  // Byte round trip preserves every v4 field.
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnnv_deliverable_v4.bin")
          .string();
  constexpr std::uint64_t kKey = 0xFEEDF00D;
  shipped.save_file(path, kKey);
  const auto loaded = pipeline::Deliverable::load_file(path, kKey);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded.manifest.analysis_domain, m.analysis_domain);
  ASSERT_EQ(loaded.manifest.input_domains.size(), m.input_domains.size());
  for (std::size_t i = 0; i < m.input_domains.size(); ++i) {
    EXPECT_EQ(loaded.manifest.input_domains[i], m.input_domains[i]);
  }
  EXPECT_EQ(loaded.manifest.fault_dominated, m.fault_dominated);
  EXPECT_EQ(loaded.manifest.fault_conditional, m.fault_conditional);
  ASSERT_EQ(loaded.manifest.excitations.size(), m.excitations.size());
  for (std::size_t i = 0; i < m.excitations.size(); ++i) {
    EXPECT_EQ(loaded.manifest.excitations[i].fault_id,
              m.excitations[i].fault_id);
    EXPECT_EQ(loaded.manifest.excitations[i].layer, m.excitations[i].layer);
    EXPECT_EQ(loaded.manifest.excitations[i].channel,
              m.excitations[i].channel);
    EXPECT_EQ(loaded.manifest.excitations[i].acc, m.excitations[i].acc);
  }

  // The user side re-runs the vendor's classification from the manifest
  // alone (same domain, same calibrated conditioning) and reproduces every
  // count exactly — the vendor-user contract of the fault stage.
  const auto remeasured = pipeline::fault_coverage(loaded);
  EXPECT_EQ(remeasured.enumerated, report.fault_stats.enumerated);
  EXPECT_EQ(remeasured.untestable, report.fault_stats.untestable);
  EXPECT_EQ(remeasured.dominated, report.fault_stats.dominated);
  EXPECT_EQ(remeasured.conditional, report.fault_stats.conditional);
  EXPECT_EQ(remeasured.scored, m.fault_universe);
  EXPECT_EQ(remeasured.detected, m.fault_detected);
  ASSERT_EQ(remeasured.excitations.size(), m.excitations.size());
  for (std::size_t i = 0; i < m.excitations.size(); ++i) {
    EXPECT_EQ(remeasured.excitations[i].fault_id, m.excitations[i].fault_id);
    EXPECT_EQ(remeasured.excitations[i].acc, m.excitations[i].acc);
  }
}

TEST(PipelineTest, ManifestV4RoundTripsEveryInputDomainAndExcitation) {
  pipeline::Manifest manifest;
  manifest.analysis_domain = "interval";
  manifest.input_domains = {{-127, 127}, {-3, 90}, {5, 5}};
  manifest.fault_dominated = 17;
  manifest.fault_conditional = 2;
  manifest.excitations = {{41, 0, 2, {-300, 1200}}, {9000, 3, -1, {7, 7}}};
  ByteWriter writer;
  manifest.save(writer);
  const std::vector<std::uint8_t> bytes = writer.take();
  ByteReader reader(bytes);
  const auto loaded = pipeline::Manifest::load(reader);

  EXPECT_EQ(loaded.analysis_domain, "interval");
  EXPECT_EQ(loaded.input_domains, manifest.input_domains);
  EXPECT_EQ(loaded.fault_dominated, 17);
  EXPECT_EQ(loaded.fault_conditional, 2);
  ASSERT_EQ(loaded.excitations.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(loaded.excitations[i].fault_id, manifest.excitations[i].fault_id);
    EXPECT_EQ(loaded.excitations[i].layer, manifest.excitations[i].layer);
    EXPECT_EQ(loaded.excitations[i].channel, manifest.excitations[i].channel);
    EXPECT_EQ(loaded.excitations[i].acc, manifest.excitations[i].acc);
  }
}

TEST(PipelineTest, TamperedDeviceIsCaught) {
  auto trained = exp::cifar_relu(tiny_options());
  const auto pool = exp::shapes_train(60);

  pipeline::VendorOptions options;
  options.method = "combined";
  options.backend = "int8";
  options.num_tests = 12;
  options.generator.coverage = trained.coverage;
  options.generator.gradient.steps = 15;

  pipeline::UserValidator validator(
      pipeline::VendorPipeline(options).run(trained.model, trained.item_shape,
                                            trained.num_classes, pool.images));
  EXPECT_TRUE(validator.validate().passed);

  // Sign-bit-flip a swath of the delivered device's weight memory: the
  // replay must flag TAMPERED.
  auto device = validator.make_device();
  auto* quantized = dynamic_cast<ip::QuantizedIp*>(device.get());
  ASSERT_NE(quantized, nullptr);
  const auto& first_tensor = quantized->tensor_table().front();
  for (std::int64_t i = 0; i < first_tensor.size; ++i) {
    quantized->flip_bit(first_tensor.memory_offset +
                            static_cast<std::size_t>(i),
                        7);
  }
  EXPECT_FALSE(validator.validate(*quantized).passed);
}

}  // namespace
}  // namespace dnnv
