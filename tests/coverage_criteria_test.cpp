// Coverage-criterion API tests: the registry's built-ins must be
// bit-identical to the concrete classes (masks, counts and greedy pick
// order, float and int8, on both zoo models), the registry must fail
// loudly on unknown/duplicate names, CoverageMap merging must be
// associative, gains must shrink monotonically under observe, and the
// criterion name + config must round-trip through a Deliverable manifest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "coverage/criterion.h"
#include "coverage/neuron_coverage.h"
#include "coverage/parameter_coverage.h"
#include "coverage/report.h"
#include "exp/model_zoo.h"
#include "nn/builder.h"
#include "pipeline/service.h"
#include "pipeline/user.h"
#include "pipeline/vendor.h"
#include "quant/quant_model.h"
#include "tensor/batch.h"
#include "testgen/combined_generator.h"
#include "testgen/generator.h"
#include "testgen/gradient_generator.h"
#include "testgen/greedy_selector.h"
#include "testgen/neuron_selector.h"
#include "util/error.h"
#include "util/protected_file.h"

namespace dnnv {
namespace {

using nn::ActivationKind;
using nn::Sequential;

Sequential small_relu_net(std::uint64_t seed = 31) {
  Rng rng(seed);
  return nn::build_mlp(6, {10, 8}, 4, ActivationKind::kReLU, rng);
}

std::vector<Tensor> random_pool(int count, std::uint64_t seed = 32) {
  Rng rng(seed);
  std::vector<Tensor> pool;
  for (int i = 0; i < count; ++i) {
    pool.push_back(Tensor::rand_uniform(Shape{6}, rng, -1.0f, 1.0f));
  }
  return pool;
}

exp::ZooOptions tiny_options() {
  exp::ZooOptions options;
  options.tiny = true;
  options.cache_dir =
      (std::filesystem::temp_directory_path() / "dnnv_criteria_test_zoo")
          .string();
  return options;
}

cov::CriterionContext small_ctx(const Sequential& model,
                                const std::vector<Tensor>* calibration) {
  cov::CriterionContext ctx;
  ctx.model = &model;
  ctx.item_shape = Shape{6};
  ctx.calibration = calibration;
  return ctx;
}

void expect_identical(const testgen::GenerationResult& a,
                      const testgen::GenerationResult& b) {
  ASSERT_EQ(a.tests.size(), b.tests.size());
  for (std::size_t i = 0; i < a.tests.size(); ++i) {
    EXPECT_EQ(a.tests[i].source, b.tests[i].source) << "test " << i;
    EXPECT_EQ(a.tests[i].pool_index, b.tests[i].pool_index) << "test " << i;
    EXPECT_DOUBLE_EQ(squared_distance(a.tests[i].input, b.tests[i].input), 0.0)
        << "test " << i;
  }
  EXPECT_EQ(a.coverage_after, b.coverage_after);
  EXPECT_EQ(a.final_coverage, b.final_coverage);
  EXPECT_EQ(a.decisions.size(), b.decisions.size());
}

// ---------- registry ----------

TEST(CriterionRegistryTest, BuiltInsRegistered) {
  const std::vector<std::string> expected = {"parameter", "neuron", "ksection",
                                             "boundary", "topk"};
  const auto names = cov::criterion_names();
  ASSERT_GE(names.size(), expected.size());
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), names.begin()))
      << "built-in criteria missing or reordered";
  for (const auto& name : expected) {
    EXPECT_TRUE(cov::criterion_registered(name)) << name;
  }
  EXPECT_FALSE(cov::criterion_registered("nope"));
}

TEST(CriterionRegistryTest, UnknownNameThrowsListingKnownOnes) {
  const Sequential model = small_relu_net();
  try {
    cov::make_criterion("nope", small_ctx(model, nullptr));
    FAIL() << "unknown criterion did not throw";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("parameter"), std::string::npos)
        << "error should list registered names: " << error.what();
  }
}

TEST(CriterionRegistryTest, MissingContextThrows) {
  EXPECT_THROW(cov::make_criterion("parameter", cov::CriterionContext{}),
               Error);
  const Sequential model = small_relu_net();
  cov::CriterionContext no_shape;
  no_shape.model = &model;
  EXPECT_THROW(cov::make_criterion("neuron", no_shape), Error);
  // Range criteria additionally need a calibration pool (or shipped ranges).
  EXPECT_THROW(cov::make_criterion("ksection", small_ctx(model, nullptr)),
               Error);
  EXPECT_THROW(cov::make_criterion("boundary", small_ctx(model, nullptr)),
               Error);
}

TEST(CriterionRegistryTest, DuplicateRegisterThrowsUnlessReplace) {
  const auto factory = [](const cov::CriterionContext& ctx,
                          const cov::CriterionConfig& config) {
    return cov::make_criterion("neuron", ctx, config);
  };
  cov::register_criterion("custom-criterion", factory);
  EXPECT_TRUE(cov::criterion_registered("custom-criterion"));
  EXPECT_THROW(cov::register_criterion("custom-criterion", factory), Error);
  EXPECT_THROW(cov::register_criterion("parameter", factory), Error);
  // Explicit replacement is the deliberate override path.
  cov::register_criterion("custom-criterion", factory, /*replace=*/true);

  const Sequential model = small_relu_net();
  const auto custom =
      cov::make_criterion("custom-criterion", small_ctx(model, nullptr));
  EXPECT_EQ(custom->name(), "neuron");  // delegates to the built-in
}

// ---------- CoverageMap ----------

TEST(CoverageMapTest, MergeIsAssociativeAndCommutative) {
  Rng rng(5);
  const auto random_map = [&rng] {
    cov::CoverageMap map(100);
    DynamicBitset bits(100);
    for (int i = 0; i < 30; ++i) {
      bits.set(static_cast<std::size_t>(rng.uniform_int(0, 99)));
    }
    map.add(bits);
    return map;
  };
  const cov::CoverageMap a = random_map();
  const cov::CoverageMap b = random_map();
  const cov::CoverageMap c = random_map();

  cov::CoverageMap ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  cov::CoverageMap bc = b;
  bc.merge(c);
  cov::CoverageMap a_bc = a;
  a_bc.merge(bc);
  EXPECT_TRUE(ab_c == a_bc);

  cov::CoverageMap ab = a;
  ab.merge(b);
  cov::CoverageMap ba = b;
  ba.merge(a);
  EXPECT_TRUE(ab == ba);
  EXPECT_GE(ab.covered_count(), a.covered_count());
  EXPECT_GE(ab.covered_count(), b.covered_count());
}

TEST(CoverageMapTest, GainMatchesSetDifference) {
  cov::CoverageMap map(10);
  DynamicBitset a(10);
  a.set(1);
  a.set(2);
  DynamicBitset b(10);
  b.set(2);
  b.set(3);
  EXPECT_EQ(map.gain(a), 2u);
  map.add(a);
  EXPECT_EQ(map.gain(b), 1u);
  map.add(b);
  EXPECT_EQ(map.covered_count(), 3u);
  EXPECT_DOUBLE_EQ(map.fraction(), 0.3);
}

// ---------- observe / gain monotonicity ----------

TEST(CriterionTest, CoverageMonotoneAndGainShrinksUnderObserve) {
  const Sequential model = small_relu_net();
  const auto pool = random_pool(24);
  for (const char* name : {"parameter", "neuron", "ksection", "topk"}) {
    const auto criterion =
        cov::make_criterion(name, small_ctx(model, &pool));
    // A fixed candidate whose gain we track while the covered set grows.
    const DynamicBitset candidate =
        criterion->measure(stack_batch({pool.front()})).front();

    double last_coverage = 0.0;
    std::size_t last_gain = criterion->gain(candidate);
    EXPECT_EQ(last_gain, candidate.count()) << name << ": empty-map gain";
    for (std::size_t i = 0; i < pool.size(); i += 4) {
      const std::size_t end = std::min(pool.size(), i + 4);
      const std::vector<Tensor> chunk(
          pool.begin() + static_cast<std::ptrdiff_t>(i),
          pool.begin() + static_cast<std::ptrdiff_t>(end));
      criterion->observe(stack_batch(chunk));
      EXPECT_GE(criterion->coverage(), last_coverage) << name;
      last_coverage = criterion->coverage();
      const std::size_t gain = criterion->gain(candidate);
      EXPECT_LE(gain, last_gain) << name << ": gain must shrink";
      last_gain = gain;
    }
    EXPECT_EQ(criterion->gain(candidate), 0u)
        << name << ": observed candidate keeps nonzero gain";
    EXPECT_GT(criterion->coverage(), 0.0) << name;
  }
}

TEST(CriterionTest, ObserveReturnsNewlyCoveredPoints) {
  const Sequential model = small_relu_net();
  const auto pool = random_pool(8);
  const auto criterion =
      cov::make_criterion("parameter", small_ctx(model, nullptr));
  const std::size_t first = criterion->observe(stack_batch({pool[0]}));
  EXPECT_EQ(first, criterion->covered().covered_count());
  const std::size_t again = criterion->observe(stack_batch({pool[0]}));
  EXPECT_EQ(again, 0u) << "re-observing the same input adds nothing";
}

// ---------- adapter bit-identity (float + int8, both zoo models) ----------

TEST(CriterionAdapterTest, ParameterAndNeuronBitIdenticalToLegacyClasses) {
  const auto zoo = tiny_options();
  struct Case {
    exp::TrainedModel trained;
    data::MaterializedData pool;
  };
  std::vector<Case> cases;
  cases.push_back({exp::mnist_tanh(zoo), exp::digits_test(24)});
  cases.push_back({exp::cifar_relu(zoo), exp::shapes_test(24)});

  for (auto& c : cases) {
    quant::QuantModel qmodel =
        quant::QuantModel::quantize(c.trained.model, c.pool.images);
    for (const bool int8 : {false, true}) {
      // The artifact under measurement: the float master, or the int8
      // model's dequantized reference (the weights the IP executes).
      nn::Sequential target =
          int8 ? qmodel.dequantized_reference() : c.trained.model.clone();

      cov::CriterionContext ctx;
      ctx.model = int8 ? nullptr : &c.trained.model;
      ctx.qmodel = int8 ? &qmodel : nullptr;
      ctx.item_shape = c.trained.item_shape;
      cov::CriterionConfig config;
      config.parameter = c.trained.coverage;

      // "parameter" == ParameterCoverage, mask for mask.
      const auto parameter = cov::make_criterion("parameter", ctx, config);
      EXPECT_TRUE(parameter->parameter_indexed());
      nn::Sequential reference_model = target.clone();
      cov::ParameterCoverage legacy_parameter(reference_model,
                                              c.trained.coverage);
      const auto parameter_masks = parameter->measure_pool(c.pool.images);
      ASSERT_EQ(parameter_masks.size(), c.pool.images.size());
      for (std::size_t i = 0; i < c.pool.images.size(); ++i) {
        EXPECT_TRUE(parameter_masks[i] ==
                    legacy_parameter.activation_mask(c.pool.images[i]))
            << c.trained.name << (int8 ? " int8" : " float") << " item " << i;
      }

      // "neuron" == NeuronCoverage, mask for mask.
      const auto neuron = cov::make_criterion("neuron", ctx, config);
      nn::Sequential neuron_model = target.clone();
      cov::NeuronCoverage legacy_neuron(neuron_model, c.trained.item_shape);
      EXPECT_EQ(neuron->total_points(), legacy_neuron.neuron_count());
      const auto neuron_masks = neuron->measure_pool(c.pool.images);
      for (std::size_t i = 0; i < c.pool.images.size(); ++i) {
        EXPECT_TRUE(neuron_masks[i] ==
                    legacy_neuron.neuron_mask(c.pool.images[i]))
            << c.trained.name << (int8 ? " int8" : " float") << " item " << i;
      }
    }
  }
}

TEST(CriterionAdapterTest, GreedyPickOrderMatchesDirectSelectorOnZooModels) {
  const auto zoo = tiny_options();
  struct Case {
    exp::TrainedModel trained;
    data::MaterializedData pool;
  };
  std::vector<Case> cases;
  cases.push_back({exp::mnist_tanh(zoo), exp::digits_train(40)});
  cases.push_back({exp::cifar_relu(zoo), exp::shapes_train(40)});

  for (auto& c : cases) {
    quant::QuantModel qmodel =
        quant::QuantModel::quantize(c.trained.model, c.pool.images);
    for (const bool int8 : {false, true}) {
      nn::Sequential target =
          int8 ? qmodel.dequantized_reference() : c.trained.model.clone();
      cov::CriterionContext ctx;
      ctx.model = int8 ? nullptr : &c.trained.model;
      ctx.qmodel = int8 ? &qmodel : nullptr;
      ctx.item_shape = c.trained.item_shape;
      cov::CriterionConfig criterion_config;
      criterion_config.parameter = c.trained.coverage;

      testgen::GeneratorConfig config;
      config.max_tests = 12;
      config.coverage = c.trained.coverage;

      // Algorithm 1 straight over the target model's parameter masks.
      testgen::GreedySelector::Options direct_options;
      direct_options.max_tests = config.max_tests;
      cov::CoverageAccumulator direct_accumulator(
          static_cast<std::size_t>(target.param_count()));
      std::vector<bool> used(c.pool.images.size(), false);
      const auto direct =
          testgen::GreedySelector(direct_options)
              .select_with_masks(
                  c.pool.images,
                  cov::make_parameter_criterion(target, c.trained.coverage)
                      ->measure_pool(c.pool.images),
                  direct_accumulator, used);

      // Registry greedy selecting by a "parameter" criterion bound through
      // the context (the int8 artifact itself on the int8 axis).
      const auto criterion =
          cov::make_criterion("parameter", ctx, criterion_config);
      cov::CoverageAccumulator accumulator(criterion->total_points());
      testgen::GenContext gen_ctx;
      gen_ctx.model = &target;
      gen_ctx.pool = &c.pool.images;
      gen_ctx.item_shape = c.trained.item_shape;
      gen_ctx.num_classes = c.trained.num_classes;
      gen_ctx.criterion = criterion.get();
      gen_ctx.accumulator = &accumulator;
      const auto via_criterion =
          testgen::make_generator("greedy", config)->generate(gen_ctx);

      expect_identical(via_criterion, direct);
      EXPECT_EQ(accumulator.covered_count(),
                direct_accumulator.covered_count())
          << c.trained.name << (int8 ? " int8" : " float");
    }
  }
}

TEST(CriterionAdapterTest, AllFiveGeneratorsBitIdenticalUnderMatchingCriterion) {
  // The float master of one zoo model is enough here — the int8 axis and
  // the second model are exercised by the greedy/mask tests above.
  const auto zoo = tiny_options();
  auto trained = exp::mnist_tanh(zoo);
  const auto pool = exp::digits_train(30);

  testgen::GeneratorConfig config;
  config.max_tests = 10;
  config.coverage = trained.coverage;
  config.gradient.steps = 6;

  cov::CriterionContext ctx;
  ctx.model = &trained.model;
  ctx.item_shape = trained.item_shape;
  ctx.calibration = &pool.images;
  cov::CriterionConfig criterion_config;
  criterion_config.parameter = trained.coverage;

  // Each method's default criterion is "parameter", except the "neuron"
  // method's, which is "neuron".
  for (const char* method :
       {"greedy", "gradient", "combined", "random", "neuron"}) {
    SCOPED_TRACE(method);
    // Default criterion: none in the context.
    testgen::GenContext default_ctx;
    default_ctx.model = &trained.model;
    default_ctx.pool = &pool.images;
    default_ctx.item_shape = trained.item_shape;
    default_ctx.num_classes = trained.num_classes;
    const auto by_default =
        testgen::make_generator(method, config)->generate(default_ctx);

    // Same run selecting by the matching criterion, named explicitly.
    const auto criterion = cov::make_criterion(
        std::string(method) == "neuron" ? "neuron" : "parameter", ctx,
        criterion_config);
    testgen::GenContext criterion_ctx = default_ctx;
    criterion_ctx.criterion = criterion.get();
    const auto via_criterion =
        testgen::make_generator(method, config)->generate(criterion_ctx);
    EXPECT_EQ(via_criterion.coverage_after.size(), via_criterion.tests.size());
    expect_identical(via_criterion, by_default);
  }
}

// The neuron-coverage baseline of Tables II/III runs without a criterion;
// its default must pick exactly what an explicit "neuron" criterion picks.
TEST(CriterionAdapterTest, NeuronDefaultPicksLikeExplicitCriterionOnZooModels) {
  const auto zoo = tiny_options();
  struct Case {
    exp::TrainedModel trained;
    data::MaterializedData pool;
  };
  std::vector<Case> cases;
  cases.push_back({exp::mnist_tanh(zoo), exp::digits_train(60)});
  cases.push_back({exp::cifar_relu(zoo), exp::shapes_train(60)});

  testgen::GeneratorConfig config;
  config.max_tests = 24;
  for (auto& c : cases) {
    SCOPED_TRACE(c.trained.name);
    testgen::GenContext gen_ctx;
    gen_ctx.model = &c.trained.model;
    gen_ctx.pool = &c.pool.images;
    gen_ctx.item_shape = c.trained.item_shape;
    gen_ctx.num_classes = c.trained.num_classes;
    const auto by_default =
        testgen::make_generator("neuron", config)->generate(gen_ctx);

    cov::CriterionContext ctx;
    ctx.model = &c.trained.model;
    ctx.item_shape = c.trained.item_shape;
    const auto criterion = cov::make_criterion("neuron", ctx);
    gen_ctx.criterion = criterion.get();
    const auto explicit_run =
        testgen::make_generator("neuron", config)->generate(gen_ctx);

    ASSERT_EQ(by_default.tests.size(), 24u);
    ASSERT_EQ(explicit_run.tests.size(), by_default.tests.size());
    for (std::size_t i = 0; i < by_default.tests.size(); ++i) {
      EXPECT_EQ(explicit_run.tests[i].pool_index, by_default.tests[i].pool_index)
          << "test " << i;
    }
  }
}

// ---------- the new criteria ----------

TEST(NewCriteriaTest, KSectionPointSpaceAndInRangeSemantics) {
  const Sequential model = small_relu_net();
  const auto pool = random_pool(20);
  cov::CriterionConfig config;
  config.sections = 5;
  const auto criterion =
      cov::make_criterion("ksection", small_ctx(model, &pool), config);

  const auto neuron = cov::make_criterion("neuron", small_ctx(model, nullptr));
  const std::size_t neurons = neuron->total_points();
  EXPECT_EQ(criterion->total_points(), neurons * 5);

  // Every calibration item lands inside its own calibrated ranges: exactly
  // one section per neuron, no corners missed.
  for (const auto& input : pool) {
    const auto mask = criterion->measure(stack_batch({input})).front();
    EXPECT_EQ(mask.count(), neurons);
  }

  // Materialised ranges reconstruct the same criterion without the pool.
  const auto shipped = criterion->config();
  EXPECT_EQ(shipped.range_low.size(), neurons);
  const auto rebuilt =
      cov::make_criterion("ksection", small_ctx(model, nullptr), shipped);
  for (const auto& input : pool) {
    EXPECT_TRUE(rebuilt->measure(stack_batch({input})).front() ==
                criterion->measure(stack_batch({input})).front());
  }
}

TEST(NewCriteriaTest, BoundaryCoversOnlyOutOfRangeActivations) {
  const Sequential model = small_relu_net();
  const auto pool = random_pool(20);
  const auto criterion =
      cov::make_criterion("boundary", small_ctx(model, &pool));
  const auto neuron = cov::make_criterion("neuron", small_ctx(model, nullptr));
  EXPECT_EQ(criterion->total_points(), 2 * neuron->total_points());

  // Calibration items never exceed their own ranges.
  for (const auto& input : pool) {
    EXPECT_EQ(criterion->measure(stack_batch({input})).front().count(), 0u);
  }
  // An amplified input drives activations past the calibrated highs.
  Tensor extreme = pool.front();
  for (std::int64_t i = 0; i < extreme.numel(); ++i) extreme[i] *= 50.0f;
  EXPECT_GT(criterion->measure(stack_batch({extreme})).front().count(), 0u);
}

TEST(NewCriteriaTest, TopKCoversExactlyKPerLayer) {
  const Sequential model = small_relu_net();  // layers of 10 and 8 neurons
  cov::CriterionConfig config;
  config.top_k = 3;
  const auto criterion =
      cov::make_criterion("topk", small_ctx(model, nullptr), config);
  EXPECT_EQ(criterion->total_points(), 18u);
  const auto pool = random_pool(6);
  for (const auto& input : pool) {
    // 3 from the 10-unit layer + 3 from the 8-unit layer.
    EXPECT_EQ(criterion->measure(stack_batch({input})).front().count(), 6u);
  }
  cov::CriterionConfig huge;
  huge.top_k = 100;  // clamped per layer
  const auto all =
      cov::make_criterion("topk", small_ctx(model, nullptr), huge);
  EXPECT_EQ(all->measure(stack_batch({pool.front()})).front().count(), 18u);
}

TEST(NewCriteriaTest, MeasurePoolMatchesSerialMeasure) {
  const Sequential model = small_relu_net();
  const auto pool = random_pool(37);  // not a multiple of the sweep batch
  for (const char* name : {"ksection", "boundary", "topk"}) {
    const auto criterion = cov::make_criterion(name, small_ctx(model, &pool));
    const auto pooled = criterion->measure_pool(pool);
    ASSERT_EQ(pooled.size(), pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      EXPECT_TRUE(pooled[i] ==
                  criterion->measure(stack_batch({pool[i]})).front())
          << name << " item " << i;
    }
  }
}

// ---------- config + manifest round-trip ----------

TEST(CriterionConfigTest, SerializationRoundTrips) {
  cov::CriterionConfig config;
  config.parameter.epsilon = 1e-4;
  config.neuron_threshold = 0.25;
  config.sections = 7;
  config.top_k = 4;
  config.range_low = {-1.5f, 0.0f, 2.25f};
  config.range_high = {3.0f, 4.5f, 9.0f};

  ByteWriter writer;
  config.save(writer);
  // The retired engine byte still leads the record, always 0.
  ASSERT_FALSE(writer.bytes().empty());
  EXPECT_EQ(writer.bytes().front(), 0u);
  ByteReader reader(writer.take());
  const auto loaded = cov::CriterionConfig::load(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(loaded.parameter.epsilon, config.parameter.epsilon);
  EXPECT_EQ(loaded.neuron_threshold, config.neuron_threshold);
  EXPECT_EQ(loaded.sections, config.sections);
  EXPECT_EQ(loaded.top_k, config.top_k);
  EXPECT_EQ(loaded.range_low, config.range_low);
  EXPECT_EQ(loaded.range_high, config.range_high);
}

/// A saved CriterionConfig record with the given engine tag, sections and
/// top_k, and no calibrated ranges.
std::vector<std::uint8_t> forged_config(std::uint8_t engine,
                                        std::int64_t sections,
                                        std::int64_t top_k) {
  ByteWriter writer;
  writer.write_u8(engine);
  writer.write_f64(1e-4);  // epsilon
  writer.write_f64(0.0);   // neuron threshold
  writer.write_i64(sections);
  writer.write_i64(top_k);
  writer.write_u64(0);  // range_low
  writer.write_u64(0);  // range_high
  return writer.take();
}

// sections and top_k are saved as i64 and held as int: a value int cannot
// hold must fail to load instead of loading truncated (2^32 + 7 as 7). Any
// value that fits loads, zero and negatives included: the parameter
// criterion saves whatever --sections held.
TEST(CriterionConfigTest, LoadRejectsCountsOutsideInt) {
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
  for (const std::int64_t bad :
       {(std::int64_t{1} << 32) + 7, kIntMax + 1, kIntMin - 1,
        std::numeric_limits<std::int64_t>::min()}) {
    SCOPED_TRACE(bad);
    ByteReader sections(forged_config(0, bad, 2));
    EXPECT_THROW(cov::CriterionConfig::load(sections), Error);
    ByteReader top_k(forged_config(0, 10, bad));
    EXPECT_THROW(cov::CriterionConfig::load(top_k), Error);
  }
  for (const std::int64_t fits : {kIntMax, kIntMin, std::int64_t{0},
                                  std::int64_t{-3}}) {
    SCOPED_TRACE(fits);
    ByteReader reader(forged_config(0, fits, fits));
    const auto loaded = cov::CriterionConfig::load(reader);
    EXPECT_TRUE(reader.exhausted());
    EXPECT_EQ(loaded.sections, fits);
    EXPECT_EQ(loaded.top_k, fits);
  }
}

// Tag 1 selected the per-class exact engine, which is gone; no other tag
// was ever written.
TEST(CriterionConfigTest, LoadRejectsRetiredEngineTag) {
  for (const int tag : {1, 2, 255}) {
    SCOPED_TRACE(tag);
    ByteReader reader(forged_config(static_cast<std::uint8_t>(tag), 10, 2));
    try {
      cov::CriterionConfig::load(reader);
      ADD_FAILURE() << "engine tag " << tag << " loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("per-class exact"),
                std::string::npos)
          << e.what();
    }
  }
}

// A whole deliverable whose manifest carries engine tag 1 (re-sealed with a
// valid CRC, so only the tag is wrong) fails to load with a typed error.
TEST(PipelineCriterionTest, DeliverableWithRetiredEngineTagFailsToLoad) {
  const auto zoo = tiny_options();
  auto trained = exp::cifar_relu(zoo);
  const auto pool = exp::shapes_train(12);
  pipeline::VendorOptions options;
  options.method = "greedy";
  options.num_tests = 4;
  options.generator.coverage = trained.coverage;
  options.model_name = trained.name;
  const auto deliverable =
      pipeline::VendorPipeline(options).run(trained.model, trained.item_shape,
                                            trained.num_classes, pool.images);
  const auto path =
      (std::filesystem::temp_directory_path() / "dnnv_retired_engine.bin")
          .string();
  constexpr std::uint64_t kKey = 4242;
  deliverable.save_file(path, kKey);
  EXPECT_NO_THROW(pipeline::Deliverable::load_file(path, kKey));

  // The container header opens with its magic and version; the payload
  // opens with the manifest's four strings, then the criterion config.
  ByteReader header(read_file(path));
  const std::uint32_t magic = header.read_u32();
  const std::uint32_t version = header.read_u32();
  std::vector<std::uint8_t> payload =
      read_protected_file(path, kKey, magic, version, "deliverable");
  const auto& m = deliverable.manifest;
  std::size_t engine_at = 0;
  for (const std::string* field :
       {&m.model_name, &m.method, &m.backend, &m.criterion}) {
    engine_at += sizeof(std::uint64_t) + field->size();
  }
  ASSERT_LT(engine_at, payload.size());
  ASSERT_EQ(payload[engine_at], 0u);
  payload[engine_at] = 1;
  write_protected_file(path, payload, kKey, magic, version, "deliverable");

  EXPECT_THROW(pipeline::Deliverable::load_file(path, kKey), Error);
  EXPECT_THROW(pipeline::UserValidator::load_file(path, kKey), Error);
  std::filesystem::remove(path);
}

TEST(PipelineCriterionTest, DeliverableManifestRoundTripsCriterion) {
  const auto zoo = tiny_options();
  auto trained = exp::cifar_relu(zoo);
  const auto pool = exp::shapes_train(30);

  pipeline::VendorOptions options;
  options.method = "greedy";
  options.backend = "int8";
  options.criterion = "ksection";
  options.criterion_config.sections = 6;
  options.num_tests = 8;
  options.generator.coverage = trained.coverage;
  options.model_name = trained.name;

  const auto deliverable =
      pipeline::VendorPipeline(options).run(trained.model, trained.item_shape,
                                            trained.num_classes, pool.images);
  EXPECT_EQ(deliverable.manifest.criterion, "ksection");
  EXPECT_EQ(deliverable.manifest.criterion_config.sections, 6);
  EXPECT_FALSE(deliverable.manifest.criterion_config.range_low.empty())
      << "vendor must ship materialised calibration ranges";
  EXPECT_GT(deliverable.manifest.coverage, 0.0);

  const auto path =
      (std::filesystem::temp_directory_path() / "dnnv_criteria_deliverable.bin")
          .string();
  deliverable.save_file(path, 4242);
  const auto loaded = pipeline::Deliverable::load_file(path, 4242);
  EXPECT_EQ(loaded.manifest.criterion, "ksection");
  EXPECT_EQ(loaded.manifest.criterion_config.sections, 6);
  EXPECT_EQ(loaded.manifest.criterion_config.range_low,
            deliverable.manifest.criterion_config.range_low);
  EXPECT_EQ(loaded.manifest.criterion_config.range_high,
            deliverable.manifest.criterion_config.range_high);

  // The user side rebuilds the exact criterion and reports coverage.
  const auto validator = pipeline::UserValidator::load_file(path, 4242);
  const auto coverage = validator.suite_coverage();
  EXPECT_EQ(coverage.criterion, "ksection");
  EXPECT_GT(coverage.map.covered_count(), 0u);
  EXPECT_EQ(coverage.map.total_points(),
            loaded.manifest.criterion_config.range_low.size() * 6);
  EXPECT_TRUE(validator.validate().passed);

  // And a service handle's deliverable measures the same.
  pipeline::ValidationService service;
  const auto handle =
      service.adopt(pipeline::Deliverable::load_file(path, 4242), "criteria");
  const auto service_coverage = pipeline::suite_coverage(handle.deliverable());
  EXPECT_EQ(service_coverage.map.covered_count(),
            coverage.map.covered_count());
  std::filesystem::remove(path);
}

// ---------- per-criterion report ----------

TEST(CriteriaReportTest, ReportsEveryRequestedCriterion) {
  const Sequential model = small_relu_net();
  const auto pool = random_pool(12);
  const auto report = cov::criteria_report(
      {"parameter", "neuron", "topk"}, small_ctx(model, &pool), {}, pool);
  ASSERT_EQ(report.size(), 3u);
  EXPECT_EQ(report[0].name, "parameter");
  EXPECT_GT(report[0].covered, 0u);
  EXPECT_EQ(report[1].name, "neuron");
  EXPECT_LE(report[1].covered, report[1].total_points);
  EXPECT_EQ(report[2].name, "topk");
  EXPECT_FALSE(report[2].description.empty());
}

}  // namespace
}  // namespace dnnv
