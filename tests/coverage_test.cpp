// Coverage-engine tests: hand-computed activation sets on tiny networks, the
// batched masks against the test-only oracles (tests/nn_reference.h: the
// per-item sensitivity reference and the per-class exact masks), accumulator
// algebra and neuron coverage.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "coverage/accumulator.h"
#include "coverage/criterion.h"
#include "coverage/neuron_coverage.h"
#include "coverage/parameter_coverage.h"
#include "coverage/report.h"
#include "exp/model_zoo.h"
#include "nn/activation_layer.h"
#include "nn/builder.h"
#include "nn/dense.h"
#include "nn/sequential.h"
#include "nn/workspace.h"
#include "tensor/batch.h"
#include "tests/nn_reference.h"
#include "util/error.h"

namespace dnnv::cov {
namespace {

using nn::ActivationKind;
using nn::ActivationLayer;
using nn::Dense;
using nn::Sequential;

// Builds dense(2->2) -> ReLU -> dense(2->2) with hand-set weights.
// Global parameter order: W1 (4), b1 (2), W2 (4), b2 (2) = 12 params.
Sequential hand_network() {
  Rng rng(1);
  Sequential model;
  auto d1 = std::make_unique<Dense>(2, 2, rng);
  d1->weights() = Tensor(Shape{2, 2}, {1, 0,    // unit0 reads x0
                                       0, 1});  // unit1 reads x1
  d1->bias() = Tensor(Shape{2}, {0, 0});
  model.add(std::move(d1));
  model.add(std::make_unique<ActivationLayer>(ActivationKind::kReLU));
  auto d2 = std::make_unique<Dense>(2, 2, rng);
  d2->weights() = Tensor(Shape{2, 2}, {1, 1, 1, 1});
  d2->bias() = Tensor(Shape{2}, {0, 0});
  model.add(std::move(d2));
  return model;
}

TEST(ParameterCoverageTest, HandComputedActivationSet) {
  // Input (1, -1): hidden pre-acts (1, -1); ReLU kills unit1.
  //  - W1 row0 (params 0,1): unit0 alive, |x| = (1,1) -> both activated.
  //  - W1 row1 (params 2,3): unit1 dead (zero downstream grad) -> inactive.
  //  - b1: param 4 active (unit0), param 5 inactive.
  //  - W2 (params 6..9): inputs to d2 are h=(1,0): weights reading h0
  //    (params 6, 8) active; weights reading h1 (7, 9) inactive (h1 = 0).
  //  - b2 (params 10, 11): always active.
  Sequential model = hand_network();
  ParameterCoverage coverage(model, CoverageConfig{});
  const Tensor x(Shape{2}, {1.0f, -1.0f});
  const DynamicBitset mask = coverage.activation_mask(x);

  const std::vector<bool> expected = {true,  true,  false, false,  // W1
                                      true,  false,                // b1
                                      true,  false, true,  false,  // W2
                                      true,  true};                // b2
  ASSERT_EQ(mask.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(mask.test(i), expected[i]) << "param " << i;
  }
  EXPECT_EQ(mask.count(), 7u);  // validation coverage 7/12 (Eq. 3)
}

// The sensitivity masks against the per-class exact oracle, and the batched
// masks against the per-item sensitivity reference, on inputs that kill
// neither, one or both hidden units.
TEST(ParameterCoverageTest, BothEnginesAgreeOnHandNetwork) {
  const std::vector<Tensor> inputs = {
      Tensor(Shape{2}, {1.0f, -1.0f}), Tensor(Shape{2}, {-1.0f, -1.0f}),
      Tensor(Shape{2}, {0.5f, 2.0f}), Tensor(Shape{2}, {-0.25f, 3.0f})};
  Sequential model = hand_network();
  ParameterCoverage coverage(model, CoverageConfig{});
  const auto masks = coverage.activation_masks_batched(stack_batch(inputs));
  Sequential oracle = hand_network();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_TRUE(masks[i] ==
                nn::reference::per_class_exact_mask(oracle, inputs[i], 0.0))
        << "input " << i;
    EXPECT_TRUE(masks[i] ==
                nn::reference::sensitivity_mask(oracle, inputs[i], 0.0))
        << "input " << i;
  }
}

TEST(ParameterCoverageTest, AllDeadInputActivatesOnlyTailBiases) {
  // Input (-1, -1) -> both hidden units dead: only the downstream-of-ReLU
  // parameters with direct output paths remain: b2 (and nothing else).
  Sequential model = hand_network();
  ParameterCoverage coverage(model, CoverageConfig{});
  const DynamicBitset mask = coverage.activation_mask(Tensor(Shape{2}, {-1, -1}));
  EXPECT_EQ(mask.count(), 2u);
  EXPECT_TRUE(mask.test(10));
  EXPECT_TRUE(mask.test(11));
}

// Property sweep: the absolute-sensitivity masks equal the per-class exact
// oracle on random ReLU networks (cancellation sets have measure zero), and
// the batched masks equal the per-item sensitivity reference.
class EngineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineEquivalence, AbsSensitivityMatchesPerClassExact) {
  Rng rng(GetParam());
  nn::ConvNetSpec spec;
  spec.in_channels = 1;
  spec.in_height = 8;
  spec.in_width = 8;
  spec.conv_channels = {3, 3};
  spec.dense_units = {12};
  spec.num_classes = 4;
  spec.activation = ActivationKind::kReLU;
  Sequential model = nn::build_convnet(spec, rng);

  Rng data_rng(GetParam() + 1000);
  std::vector<Tensor> inputs;
  for (int trial = 0; trial < 3; ++trial) {
    inputs.push_back(
        Tensor::rand_uniform(Shape{1, 8, 8}, data_rng, 0.0f, 1.0f));
  }
  Sequential oracle = model.clone();
  ParameterCoverage coverage(model, CoverageConfig{});
  const auto masks = coverage.activation_masks_batched(stack_batch(inputs));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const DynamicBitset exact =
        nn::reference::per_class_exact_mask(oracle, inputs[i], 0.0);
    EXPECT_TRUE(masks[i] == exact)
        << "engines disagree: abs=" << masks[i].count()
        << " exact=" << exact.count();
    EXPECT_TRUE(masks[i] ==
                nn::reference::sensitivity_mask(oracle, inputs[i], 0.0))
        << "input " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomModels, EngineEquivalence,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

TEST(ParameterCoverageTest, EpsilonMonotonicallyShrinksCoverage) {
  Rng rng(3);
  Sequential model = nn::build_mlp(6, {8}, 3, ActivationKind::kTanh, rng);
  Rng data_rng(4);
  const Tensor x = Tensor::rand_uniform(Shape{6}, data_rng, -1.0f, 1.0f);
  std::size_t previous = SIZE_MAX;
  for (const double eps : {0.0, 1e-3, 1e-2, 1e-1, 1.0}) {
    Sequential clone = model.clone();
    CoverageConfig config;
    config.epsilon = eps;
    ParameterCoverage coverage(clone, config);
    const std::size_t count = coverage.activation_mask(x).count();
    EXPECT_LE(count, previous) << "eps " << eps;
    previous = count;
  }
}

TEST(ParameterCoverageTest, TanhActivatesEverythingAtZeroEpsilon) {
  // Tanh has no exact zero-gradient region, so with eps = 0 every parameter
  // on a path to the output is activated for generic inputs.
  Rng rng(5);
  Sequential model = nn::build_mlp(4, {6}, 2, ActivationKind::kTanh, rng);
  ParameterCoverage coverage(model, CoverageConfig{});
  Rng data_rng(6);
  const Tensor x = Tensor::rand_uniform(Shape{4}, data_rng, -1.0f, 1.0f);
  EXPECT_EQ(coverage.activation_mask(x).count(),
            static_cast<std::size_t>(coverage.param_count()));
}

TEST(ParameterCoverageTest, ParallelMasksMatchSequential) {
  Rng rng(7);
  Sequential model = nn::build_mlp(5, {7}, 3, ActivationKind::kReLU, rng);
  Rng data_rng(8);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 9; ++i) {
    inputs.push_back(Tensor::rand_uniform(Shape{5}, data_rng, -1.0f, 1.0f));
  }
  const auto parallel =
      make_parameter_criterion(model, CoverageConfig{})->measure_pool(inputs);
  ParameterCoverage coverage(model, CoverageConfig{});
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_TRUE(parallel[i] == coverage.activation_mask(inputs[i])) << i;
  }
}

// Batch-position independence: item i's mask from one 40-item batched
// forward is BIT-identical to that item's mask alone (a batch of one), on
// both zoo models (Tanh CNN / ReLU CNN) at epsilon 0 and 1e-4.
TEST(ParameterCoverageTest, BatchedMasksBitIdenticalToPerItemOnZooModels) {
  exp::ZooOptions zoo;
  zoo.tiny = true;
  zoo.cache_dir =
      (std::filesystem::temp_directory_path() / "dnnv_cov_test_zoo").string();
  struct Case {
    exp::TrainedModel trained;
    data::MaterializedData pool;
  };
  std::vector<Case> cases;
  cases.push_back({exp::mnist_tanh(zoo), exp::digits_test(40)});
  cases.push_back({exp::cifar_relu(zoo), exp::shapes_test(40)});

  for (auto& c : cases) {
    for (const double epsilon : {0.0, 1e-4}) {
      CoverageConfig config;
      config.epsilon = epsilon;

      // Each item alone.
      nn::Sequential ref_model = c.trained.model.clone();
      ParameterCoverage ref(ref_model, config);
      std::vector<DynamicBitset> expected;
      for (const auto& input : c.pool.images) {
        expected.push_back(ref.activation_mask(input));
      }

      // Batched engine, driven directly...
      nn::Sequential batch_model = c.trained.model.clone();
      ParameterCoverage batched(batch_model, config);
      const Tensor batch = stack_batch(c.pool.images);
      const auto actual = batched.activation_masks_batched(batch);
      ASSERT_EQ(actual.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_TRUE(actual[i] == expected[i])
            << c.trained.name << " eps=" << epsilon << " item " << i;
      }

      // ...and through the criterion's pool sweep (chunked + threaded).
      const auto pooled = make_parameter_criterion(c.trained.model, config)
                              ->measure_pool(c.pool.images);
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_TRUE(pooled[i] == expected[i])
            << c.trained.name << " eps=" << epsilon << " pooled item " << i;
      }
    }
  }
}

// The batched masks against the whole-model per-item sensitivity reference
// (tests/nn_reference.h), on both zoo models at epsilon 0 and 1e-4.
TEST(ParameterCoverageTest, BatchedMasksMatchSensitivityReferenceOnZooModels) {
  exp::ZooOptions zoo;
  zoo.tiny = true;
  zoo.cache_dir =
      (std::filesystem::temp_directory_path() / "dnnv_cov_test_zoo").string();
  struct Case {
    exp::TrainedModel trained;
    data::MaterializedData pool;
  };
  std::vector<Case> cases;
  cases.push_back({exp::mnist_tanh(zoo), exp::digits_test(40)});
  cases.push_back({exp::cifar_relu(zoo), exp::shapes_test(40)});
  for (auto& c : cases) {
    nn::Sequential oracle = c.trained.model.clone();
    std::vector<std::vector<float>> sensitivities;
    for (const Tensor& input : c.pool.images) {
      sensitivities.push_back(
          nn::reference::model_sensitivity(oracle, stack_batch({input})));
    }
    for (const double epsilon : {0.0, 1e-4}) {
      CoverageConfig config;
      config.epsilon = epsilon;
      nn::Sequential model = c.trained.model.clone();
      ParameterCoverage coverage(model, config);
      const auto masks =
          coverage.activation_masks_batched(stack_batch(c.pool.images));
      std::size_t set_bits = 0;
      for (std::size_t i = 0; i < masks.size(); ++i) {
        const DynamicBitset want =
            nn::reference::threshold_mask(sensitivities[i], epsilon);
        set_bits += want.count();
        EXPECT_TRUE(masks[i] == want)
            << c.trained.name << " eps=" << epsilon << " item " << i;
      }
      EXPECT_GT(set_bits, 0u) << c.trained.name << " eps=" << epsilon;
    }
  }
}

// The mask threshold |g| > epsilon compares each float gradient as a double.
// At every epsilon the batched masks must equal that scalar rule applied to
// the grad buffers one item's sensitivity pass leaves behind.
TEST(ParameterCoverageTest, MasksEqualScalarDoubleThresholdOnZooModels) {
  exp::ZooOptions zoo;
  zoo.tiny = true;
  zoo.cache_dir =
      (std::filesystem::temp_directory_path() / "dnnv_cov_test_zoo").string();
  struct Case {
    exp::TrainedModel trained;
    data::MaterializedData pool;
  };
  std::vector<Case> cases;
  cases.push_back({exp::mnist_tanh(zoo), exp::digits_test(12)});
  cases.push_back({exp::cifar_relu(zoo), exp::shapes_test(12)});
  for (auto& c : cases) {
    const Tensor batch = stack_batch(c.pool.images);
    for (const double epsilon : {0.1, 1e-3, 0.0}) {
      CoverageConfig config;
      config.epsilon = epsilon;
      nn::Sequential model = c.trained.model.clone();
      ParameterCoverage coverage(model, config);
      const std::vector<DynamicBitset> masks =
          coverage.activation_masks_batched(batch);

      nn::Sequential ref = c.trained.model.clone();
      nn::Workspace ws;
      const Tensor& logits = ref.forward(batch, ws);
      Tensor seed(Shape{1, logits.shape()[1]});
      seed.fill(1.0f);
      std::size_t set_bits = 0;
      for (std::int64_t i = 0; i < batch.shape()[0]; ++i) {
        ref.zero_grads();
        ref.sensitivity_backward_item(i, seed, ws);
        DynamicBitset want(static_cast<std::size_t>(ref.param_count()));
        std::size_t bit = 0;
        for (const nn::ParamView& view : ref.param_views()) {
          for (std::int64_t e = 0; e < view.size; ++e, ++bit) {
            if (std::fabs(static_cast<double>(view.grad[e])) > epsilon) {
              want.set(bit);
            }
          }
        }
        set_bits += want.count();
        EXPECT_TRUE(masks[static_cast<std::size_t>(i)] == want)
            << c.trained.name << " eps=" << epsilon << " item " << i;
      }
      EXPECT_GT(set_bits, 0u) << c.trained.name << " eps=" << epsilon;
    }
  }
}

// ---------- CoverageAccumulator ----------

TEST(AccumulatorTest, UnionSemantics) {
  CoverageAccumulator acc(10);
  EXPECT_DOUBLE_EQ(acc.coverage(), 0.0);
  DynamicBitset a(10);
  a.set(1);
  a.set(2);
  DynamicBitset b(10);
  b.set(2);
  b.set(3);
  EXPECT_EQ(acc.marginal_gain(a), 2u);
  acc.add(a);
  EXPECT_EQ(acc.marginal_gain(b), 1u);
  acc.add(b);
  EXPECT_EQ(acc.covered_count(), 3u);
  EXPECT_DOUBLE_EQ(acc.coverage(), 0.3);
  EXPECT_EQ(acc.num_tests(), 2u);
}

TEST(AccumulatorTest, RejectsEmptyUniverse) {
  EXPECT_THROW(CoverageAccumulator(0), Error);
}

// ---------- Neuron coverage ----------

TEST(NeuronCoverageTest, CountsUnitsAndChannels) {
  Rng rng(9);
  nn::ConvNetSpec spec;
  spec.in_channels = 1;
  spec.in_height = 8;
  spec.in_width = 8;
  spec.conv_channels = {4, 6};
  spec.dense_units = {12};
  spec.num_classes = 3;
  Sequential model = nn::build_convnet(spec, rng);
  NeuronCoverage coverage(model, Shape{1, 8, 8});
  // conv channels 4 + 6, dense units 12 (logit layer has no activation).
  EXPECT_EQ(coverage.neuron_count(), 4u + 6u + 12u);
}

TEST(NeuronCoverageTest, HandComputedNeuronMask) {
  Sequential model = hand_network();  // 2 hidden ReLU neurons
  NeuronCoverage coverage(model, Shape{2});
  const auto mask = coverage.neuron_mask(Tensor(Shape{2}, {1.0f, -1.0f}));
  ASSERT_EQ(mask.size(), 2u);
  EXPECT_TRUE(mask.test(0));   // unit0 fires
  EXPECT_FALSE(mask.test(1));  // unit1 dead
}

TEST(NeuronCoverageTest, ThresholdRaisesBar) {
  Sequential model = hand_network();
  NeuronCoverageConfig config;
  config.threshold = 10.0;
  NeuronCoverage coverage(model, Shape{2}, config);
  const auto mask = coverage.neuron_mask(Tensor(Shape{2}, {1.0f, -1.0f}));
  EXPECT_EQ(mask.count(), 0u);  // activation 1.0 below threshold 10
}

TEST(NeuronCoverageTest, ParallelMatchesSequential) {
  Rng rng(10);
  Sequential model = nn::build_mlp(4, {5, 6}, 2, ActivationKind::kReLU, rng);
  Rng data_rng(11);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 6; ++i) {
    inputs.push_back(Tensor::rand_uniform(Shape{4}, data_rng, -1.0f, 1.0f));
  }
  CriterionContext ctx;
  ctx.model = &model;
  ctx.item_shape = Shape{4};
  const auto parallel = make_criterion("neuron", ctx)->measure_pool(inputs);
  NeuronCoverage coverage(model, Shape{4});
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_TRUE(parallel[i] == coverage.neuron_mask(inputs[i])) << i;
  }
}

// ---------- per-layer report ----------

TEST(ReportTest, SplitsByTensor) {
  Sequential model = hand_network();
  DynamicBitset covered(12);
  covered.set(0);
  covered.set(1);
  covered.set(10);
  const auto report = per_layer_coverage(model, covered);
  ASSERT_EQ(report.size(), 4u);  // W1, b1, W2, b2
  EXPECT_EQ(report[0].name, "dense0.weight");
  EXPECT_EQ(report[0].covered, 2u);
  EXPECT_EQ(report[0].total, 4u);
  EXPECT_DOUBLE_EQ(report[0].fraction(), 0.5);
  EXPECT_EQ(report[1].covered, 0u);
  EXPECT_TRUE(report[3].is_bias);
  EXPECT_EQ(report[3].covered, 1u);
}

TEST(ReportTest, SizeMismatchThrows) {
  Sequential model = hand_network();
  EXPECT_THROW(per_layer_coverage(model, DynamicBitset(5)), Error);
}

}  // namespace
}  // namespace dnnv::cov
