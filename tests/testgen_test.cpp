// Test-generation algorithm tests: greedy optimality and laziness, gradient
// synthesis, the combined switch rule, and the baselines.
#include <gtest/gtest.h>

#include <cstring>

#include "coverage/criterion.h"
#include "nn/activation_layer.h"
#include "nn/builder.h"
#include "nn/loss.h"
#include "tensor/batch.h"
#include "testgen/combined_generator.h"
#include "testgen/gradient_generator.h"
#include "testgen/greedy_selector.h"
#include "testgen/neuron_selector.h"
#include "tests/test_nets.h"
#include "util/error.h"

namespace dnnv::testgen {
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

// Pool masks under the default "parameter" criterion.
std::vector<DynamicBitset> parameter_masks(const Sequential& model,
                                           const std::vector<Tensor>& pool) {
  return cov::make_parameter_criterion(model, {})->measure_pool(pool);
}

// Algorithm 1 over freshly measured pool masks.
GenerationResult greedy_select(const GreedySelector::Options& options,
                               const Sequential& model,
                               const std::vector<Tensor>& pool,
                               cov::CoverageAccumulator& acc) {
  std::vector<bool> used(pool.size(), false);
  return GreedySelector(options).select_with_masks(
      pool, parameter_masks(model, pool), acc, used);
}

// Pool masks under the default "neuron" criterion.
std::vector<DynamicBitset> neuron_masks(const Sequential& model,
                                        const std::vector<Tensor>& pool) {
  cov::CriterionContext ctx;
  ctx.model = &model;
  ctx.item_shape = Shape{6};
  return cov::make_criterion("neuron", ctx)->measure_pool(pool);
}

// Naive Algorithm 1 exactly as printed in the paper (full rescan per round).
std::vector<std::size_t> naive_greedy(const std::vector<DynamicBitset>& masks,
                                      std::size_t universe, int budget) {
  DynamicBitset covered(universe);
  std::vector<bool> used(masks.size(), false);
  std::vector<std::size_t> picks;
  for (int round = 0; round < budget; ++round) {
    std::size_t best = SIZE_MAX;
    std::size_t best_gain = 0;
    for (std::size_t i = 0; i < masks.size(); ++i) {
      if (used[i]) continue;
      const std::size_t gain = covered.count_new_bits(masks[i]);
      // Strict > keeps the first-best tie rule of a linear scan.
      if (best == SIZE_MAX || gain > best_gain) {
        best = i;
        best_gain = gain;
      }
    }
    if (best == SIZE_MAX) break;
    covered |= masks[best];
    used[best] = true;
    picks.push_back(best);
  }
  return picks;
}

// ---------- GreedySelector ----------

TEST(GreedySelectorTest, CoverageTrajectoryIsMonotone) {
  Sequential model = small_relu_net();
  const auto pool = random_pool(30);
  cov::CoverageAccumulator acc(static_cast<std::size_t>(model.param_count()));
  GreedySelector::Options options;
  options.max_tests = 10;
  const auto result = greedy_select(options, model, pool, acc);
  ASSERT_EQ(result.tests.size(), 10u);
  ASSERT_EQ(result.coverage_after.size(), 10u);
  for (std::size_t i = 1; i < result.coverage_after.size(); ++i) {
    EXPECT_GE(result.coverage_after[i], result.coverage_after[i - 1]);
  }
  EXPECT_DOUBLE_EQ(result.final_coverage, acc.coverage());
  for (const auto& test : result.tests) {
    EXPECT_EQ(test.source, TestSource::kTrainingSample);
    EXPECT_GE(test.pool_index, 0);
  }
}

TEST(GreedySelectorTest, LazyGreedyCoverageMatchesNaive) {
  // Lazy (CELF) greedy may break exact ties differently from a linear scan,
  // but the resulting coverage after every round must match the naive
  // Algorithm 1 (both are exact greedy maximisers of a submodular gain).
  Sequential model = small_relu_net(31);
  const auto pool = random_pool(40, 32);
  const auto masks = parameter_masks(model, pool);
  const auto universe = static_cast<std::size_t>(model.param_count());

  const auto naive = naive_greedy(masks, universe, 12);

  cov::CoverageAccumulator acc(universe);
  GreedySelector::Options options;
  options.max_tests = 12;
  std::vector<bool> used(pool.size(), false);
  const auto lazy =
      GreedySelector(options).select_with_masks(pool, masks, acc, used);

  ASSERT_EQ(lazy.tests.size(), naive.size());
  DynamicBitset naive_covered(universe);
  for (std::size_t round = 0; round < naive.size(); ++round) {
    naive_covered |= masks[naive[round]];
    EXPECT_NEAR(lazy.coverage_after[round],
                static_cast<double>(naive_covered.count()) /
                    static_cast<double>(universe),
                1e-12)
        << "round " << round;
  }
}

TEST(GreedySelectorTest, FirstPickHasMaximalSingleCoverage) {
  Sequential model = small_relu_net(41);
  const auto pool = random_pool(25, 42);
  const auto masks = parameter_masks(model, pool);
  std::size_t best_count = 0;
  for (const auto& mask : masks) best_count = std::max(best_count, mask.count());

  cov::CoverageAccumulator acc(static_cast<std::size_t>(model.param_count()));
  GreedySelector::Options options;
  options.max_tests = 1;
  std::vector<bool> used(pool.size(), false);
  const auto result =
      GreedySelector(options).select_with_masks(pool, masks, acc, used);
  ASSERT_EQ(result.tests.size(), 1u);
  EXPECT_EQ(masks[static_cast<std::size_t>(result.tests[0].pool_index)].count(),
            best_count);
}

TEST(GreedySelectorTest, StopOnZeroGainTerminatesEarly) {
  Sequential model = small_relu_net(51);
  // A pool of identical inputs: after the first pick every gain is zero.
  std::vector<Tensor> pool(8, random_pool(1, 52).front());
  cov::CoverageAccumulator acc(static_cast<std::size_t>(model.param_count()));
  GreedySelector::Options options;
  options.max_tests = 8;
  options.stop_on_zero_gain = true;
  const auto result = greedy_select(options, model, pool, acc);
  EXPECT_EQ(result.tests.size(), 1u);
}

TEST(GreedySelectorTest, NeverSelectsSamePoolEntryTwice) {
  Sequential model = small_relu_net(61);
  const auto pool = random_pool(5, 62);
  cov::CoverageAccumulator acc(static_cast<std::size_t>(model.param_count()));
  GreedySelector::Options options;
  options.max_tests = 10;  // more than the pool
  const auto result = greedy_select(options, model, pool, acc);
  EXPECT_EQ(result.tests.size(), 5u);
  std::set<std::int64_t> picked;
  for (const auto& test : result.tests) picked.insert(test.pool_index);
  EXPECT_EQ(picked.size(), 5u);
}

// ---------- GradientGenerator ----------

TEST(GradientGeneratorTest, SynthesisedBatchTargetsEachClass) {
  Sequential model = small_relu_net(71);
  // Freshly-initialised models have all-zero biases, making the all-zero
  // input a stationary point of the loss (every ReLU pre-activation is
  // exactly 0). Trained models never have that property; emulate it.
  Rng bias_rng(70);
  for (const auto& view : model.param_views()) {
    if (view.is_bias) {
      for (std::int64_t i = 0; i < view.size; ++i) {
        view.data[i] = static_cast<float>(bias_rng.normal(0.0, 0.3));
      }
    }
  }
  GradientGenerator::Options options;
  options.steps = 300;
  options.learning_rate = 0.03f;
  options.clamp_lo = -2.0f;
  options.clamp_hi = 2.0f;
  GradientGenerator generator(options);
  Rng rng(7);
  Sequential loss_model = model.clone();
  const auto batch = generator.generate_batch(loss_model, Shape{6}, 4, 0, rng);
  ASSERT_EQ(batch.size(), 4u);
  int classified_as_target = 0;
  for (int i = 0; i < 4; ++i) {
    if (model.predict_label(batch[static_cast<std::size_t>(i)]) == i) {
      ++classified_as_target;
    }
  }
  // Gradient descent should steer most class inputs to their target label.
  EXPECT_GE(classified_as_target, 3);
}

TEST(GradientGeneratorTest, FirstBatchStartsFromZeros) {
  Sequential model = small_relu_net(72);
  GradientGenerator::Options options;
  options.steps = 0;  // no updates: output must be the initialisation
  GradientGenerator generator(options);
  Rng rng(8);
  Sequential loss_model = model.clone();
  const auto batch = generator.generate_batch(loss_model, Shape{6}, 4, 0, rng);
  for (const auto& input : batch) {
    EXPECT_FLOAT_EQ(max_abs(input), 0.0f);
  }
  // Later batches jitter their init.
  const auto batch1 = generator.generate_batch(loss_model, Shape{6}, 4, 1, rng);
  EXPECT_GT(max_abs(batch1.front()), 0.0f);
}

TEST(GradientGeneratorTest, MaskedModelZeroesCoveredParams) {
  Sequential model = small_relu_net(73);
  DynamicBitset covered(static_cast<std::size_t>(model.param_count()));
  covered.set(0);
  covered.set(5);
  Sequential masked = GradientGenerator::masked_model(model, covered);
  EXPECT_EQ(masked.get_param(0), 0.0f);
  EXPECT_EQ(masked.get_param(5), 0.0f);
  EXPECT_EQ(masked.get_param(1), model.get_param(1));
}

TEST(GradientGeneratorTest, GenerateFillsBudgetInClassBatches) {
  Sequential model = small_relu_net(74);
  GradientGenerator::Options options;
  options.steps = 20;
  const auto criterion = cov::make_parameter_criterion(model, {});
  auto run = [&](int budget) {
    cov::CoverageAccumulator acc(
        static_cast<std::size_t>(model.param_count()));
    options.max_tests = budget;
    return GradientGenerator(options).generate(*criterion, model, Shape{6}, 4,
                                               acc);
  };
  // Budget 10 with k = 4: two whole batches, then the first 2 items of a
  // third.
  const auto result = run(10);
  ASSERT_EQ(result.tests.size(), 10u);
  ASSERT_EQ(result.coverage_after.size(), 10u);
  for (const auto& test : result.tests) {
    EXPECT_EQ(test.source, TestSource::kSynthetic);
    EXPECT_EQ(test.pool_index, -1);
  }
  for (std::size_t i = 1; i < result.coverage_after.size(); ++i) {
    EXPECT_GE(result.coverage_after[i], result.coverage_after[i - 1]);
  }
  // A budget that is a multiple of k is a prefix of the longer run.
  const auto whole = run(8);
  ASSERT_EQ(whole.tests.size(), 8u);
  for (std::size_t i = 0; i < whole.tests.size(); ++i) {
    EXPECT_TRUE(whole.tests[i].input.same_shape(result.tests[i].input));
    EXPECT_EQ(std::memcmp(whole.tests[i].input.data(),
                          result.tests[i].input.data(),
                          sizeof(float) * static_cast<std::size_t>(
                                              whole.tests[i].input.numel())),
              0)
        << "test " << i;
    EXPECT_EQ(whole.coverage_after[i], result.coverage_after[i]);
  }
  // A budget below k ships part of the first batch instead of nothing.
  EXPECT_EQ(run(3).tests.size(), 3u);
}

// Algorithm 2 written on the value path: Sequential::forward(x) and
// backward(g) with the generator's init, step, leak and clamp. The
// workspace descent of generate_batch_tensor must reproduce it bit for bit.
Tensor reference_descent(Sequential& loss_model,
                         const GradientGenerator::Options& options,
                         const Shape& item_shape, int num_classes,
                         int batch_index, Rng& rng) {
  for (std::size_t l = 0; l < loss_model.num_layers(); ++l) {
    if (auto* act = dynamic_cast<nn::ActivationLayer*>(&loss_model.layer(l))) {
      act->set_backward_leak(options.backward_leak);
    }
  }
  std::vector<std::int64_t> dims{num_classes};
  dims.insert(dims.end(), item_shape.dims().begin(), item_shape.dims().end());
  Tensor batch{Shape(dims)};
  if (batch_index > 0 && options.init_stddev > 0.0f) {
    for (std::int64_t i = 0; i < batch.numel(); ++i) {
      batch[i] = static_cast<float>(
          rng.normal(0.0, static_cast<double>(options.init_stddev)));
    }
    clamp_(batch, options.clamp_lo, options.clamp_hi);
  }
  std::vector<int> labels;
  for (int i = 0; i < num_classes; ++i) labels.push_back(i);
  const float step = options.learning_rate * static_cast<float>(num_classes);
  for (int t = 0; t < options.steps; ++t) {
    const Tensor logits = loss_model.forward(batch);
    const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
    loss_model.zero_grads();
    const Tensor grad = loss_model.backward(loss.grad_logits);
    for (std::int64_t i = 0; i < batch.numel(); ++i) {
      batch[i] -= step * grad[i];
    }
    clamp_(batch, options.clamp_lo, options.clamp_hi);
  }
  return batch;
}

TEST(GradientGeneratorTest, WorkspaceDescentMatchesValuePathReference) {
  struct Case {
    const char* name;
    Sequential model;
    Shape item_shape;
  };
  std::vector<Case> cases;
  const auto conv = test_nets::random_conv_cases().front();
  ASSERT_EQ(conv.activation, ActivationKind::kReLU);
  cases.push_back({"relu-conv", conv.model(), Shape{conv.c, conv.h, conv.w}});
  Rng mlp_rng(75);
  Sequential mlp = nn::build_mlp(6, {10, 8}, 4, ActivationKind::kTanh, mlp_rng);
  for (const auto& view : mlp.param_views()) {
    if (!view.is_bias) continue;
    for (std::int64_t i = 0; i < view.size; ++i) {
      view.data[i] = static_cast<float>(mlp_rng.uniform(-0.5, 0.5));
    }
  }
  cases.push_back({"tanh-mlp", std::move(mlp), Shape{6}});

  GradientGenerator::Options options;
  options.steps = 25;
  const GradientGenerator generator(options);
  for (Case& c : cases) {
    std::vector<std::int64_t> one_item{1};
    one_item.insert(one_item.end(), c.item_shape.dims().begin(),
                    c.item_shape.dims().end());
    const int k = static_cast<int>(c.model.output_shape(Shape(one_item))[1]);
    for (int batch_index : {0, 1}) {
      SCOPED_TRACE(std::string(c.name) + " batch " +
                   std::to_string(batch_index));
      Rng rng(76);
      Sequential loss_model = c.model.clone();
      const Tensor got = generator.generate_batch_tensor(
          loss_model, c.item_shape, k, batch_index, rng);
      Rng ref_rng(76);
      Sequential ref_model = c.model.clone();
      const Tensor want = reference_descent(ref_model, options, c.item_shape,
                                            k, batch_index, ref_rng);
      ASSERT_TRUE(got.same_shape(want));
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            sizeof(float) * static_cast<std::size_t>(
                                                got.numel())),
                0);
      EXPECT_GT(max_abs(got), 0.0f);
    }
  }
}

// ---------- CombinedGenerator ----------

TEST(CombinedGeneratorTest, FillsBudgetAndMixesSources) {
  Sequential model = small_relu_net(81);
  const auto pool = random_pool(20, 82);
  cov::CoverageAccumulator acc(static_cast<std::size_t>(model.param_count()));
  CombinedGenerator::Options options;
  options.max_tests = 16;
  options.gradient.steps = 20;
  options.gradient.seed = 5;
  const auto criterion = cov::make_parameter_criterion(model, {});
  const auto result = CombinedGenerator(options).generate(
      *criterion, model, pool, criterion->measure_pool(pool), Shape{6}, 4, acc);
  EXPECT_EQ(result.tests.size(), 16u);
  for (std::size_t i = 1; i < result.coverage_after.size(); ++i) {
    EXPECT_GE(result.coverage_after[i], result.coverage_after[i - 1]);
  }
  // The early picks should come from the training pool (real samples win
  // early, as the paper argues).
  EXPECT_EQ(result.tests.front().source, TestSource::kTrainingSample);
}

TEST(CombinedGeneratorTest, AtLeastMatchesGreedyAloneOnFinalCoverage) {
  Sequential model = small_relu_net(91);
  const auto pool = random_pool(20, 92);
  const auto universe = static_cast<std::size_t>(model.param_count());
  const auto masks = parameter_masks(model, pool);

  cov::CoverageAccumulator greedy_acc(universe);
  GreedySelector::Options greedy_options;
  greedy_options.max_tests = 16;
  std::vector<bool> used(pool.size(), false);
  const auto greedy = GreedySelector(greedy_options)
                          .select_with_masks(pool, masks, greedy_acc, used);

  cov::CoverageAccumulator combined_acc(universe);
  CombinedGenerator::Options options;
  options.max_tests = 16;
  options.gradient.steps = 30;
  const auto criterion = cov::make_parameter_criterion(model, {});
  const auto combined = CombinedGenerator(options).generate(
      *criterion, model, pool, masks, Shape{6}, 4, combined_acc);

  EXPECT_GE(combined.final_coverage + 1e-9, greedy.final_coverage);
}

TEST(CombinedGeneratorTest, SwitchesToSyntheticWhenPoolExhausted) {
  Sequential model = small_relu_net(93);
  // Pool of one sample: after it, only Algorithm 2 can add coverage.
  const auto pool = random_pool(1, 94);
  cov::CoverageAccumulator acc(static_cast<std::size_t>(model.param_count()));
  CombinedGenerator::Options options;
  options.max_tests = 9;  // 1 pool + 2 batches of 4
  options.gradient.steps = 10;
  const auto criterion = cov::make_parameter_criterion(model, {});
  const auto result = CombinedGenerator(options).generate(
      *criterion, model, pool, criterion->measure_pool(pool), Shape{6}, 4, acc);
  ASSERT_EQ(result.tests.size(), 9u);
  int synthetic = 0;
  for (const auto& test : result.tests) {
    if (test.source == TestSource::kSynthetic) ++synthetic;
  }
  EXPECT_EQ(synthetic, 8);
}

// Satellite check for the §IV-D machinery: replay the recorded decision
// trace of a deterministic run and verify (a) the lazy-greedy heap reported
// exactly the gain a naive full rescan would (staleness handled), (b) the
// probe batch was regenerated exactly on the probe_refresh cadence, and
// (c) the switch rule fired exactly when the synthetic per-test gain
// exceeded the next greedy gain — never before.
TEST(CombinedGeneratorTest, DecisionTraceVerifiesSwitchRuleAndProbeStaleness) {
  Sequential model = small_relu_net(101);
  // Small pool + larger budget: greedy gains decay as masks overlap, so the
  // run provably ends in Algorithm 2 (organically or at pool exhaustion).
  const auto pool = random_pool(8, 102);
  const auto universe = static_cast<std::size_t>(model.param_count());
  const auto masks = parameter_masks(model, pool);

  cov::CoverageAccumulator acc(universe);
  CombinedGenerator::Options options;
  options.max_tests = 16;
  options.probe_refresh = 3;  // tight cadence so staleness logic is exercised
  options.gradient.steps = 15;
  const auto criterion = cov::make_parameter_criterion(model, {});
  const auto result = CombinedGenerator(options).generate(
      *criterion, model, pool, masks, Shape{6}, 4, acc);
  ASSERT_FALSE(result.decisions.empty());

  // Replay state: the covered set and pool usage as of each decision.
  Sequential mask_model = model.clone();
  cov::ParameterCoverage coverage(mask_model, cov::CoverageConfig{});
  DynamicBitset covered(universe);
  std::vector<bool> used(pool.size(), false);
  std::size_t test_idx = 0;
  int commits_since_probe = 0;
  bool have_probe = false;

  auto consume_tests_until = [&](std::size_t stop) {
    for (; test_idx < stop && test_idx < result.tests.size(); ++test_idx) {
      const auto& test = result.tests[test_idx];
      if (test.source == TestSource::kTrainingSample) {
        ASSERT_GE(test.pool_index, 0);
        covered |= masks[static_cast<std::size_t>(test.pool_index)];
        used[static_cast<std::size_t>(test.pool_index)] = true;
        ++commits_since_probe;
      } else {
        covered |= coverage.activation_mask(test.input);
      }
    }
  };

  for (std::size_t di = 0; di < result.decisions.size(); ++di) {
    const auto& d = result.decisions[di];
    consume_tests_until(d.step);
    ASSERT_EQ(test_idx, d.step);

    // (b) staleness cadence: refresh iff no probe yet or probe_refresh
    // greedy commits landed since the last refresh.
    EXPECT_EQ(d.probe_refreshed,
              !have_probe || commits_since_probe >= options.probe_refresh)
        << "decision " << di;
    if (d.probe_refreshed) {
      have_probe = true;
      commits_since_probe = 0;
    }

    // (a) lazy-greedy == naive full rescan on the replayed covered set.
    std::size_t naive_best = 0;
    bool pool_left = false;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (used[i]) continue;
      pool_left = true;
      naive_best = std::max(naive_best, covered.count_new_bits(masks[i]));
    }
    if (pool_left) {
      EXPECT_DOUBLE_EQ(d.greedy_gain, static_cast<double>(naive_best))
          << "decision " << di;
    }

    // (c) the switch rule, exactly.
    EXPECT_EQ(d.chose_synthetic,
              !pool_left || d.synthetic_gain > d.greedy_gain)
        << "decision " << di;

    // kSwitchOnce: the first synthetic choice ends the decision trace.
    if (d.chose_synthetic) EXPECT_EQ(di, result.decisions.size() - 1);
  }

  // The run must have exercised both producers for the assertions above to
  // mean anything.
  EXPECT_GT(result.decisions.size(), 1u);
  EXPECT_TRUE(result.decisions.back().chose_synthetic);
  for (std::size_t di = 0; di + 1 < result.decisions.size(); ++di) {
    EXPECT_FALSE(result.decisions[di].chose_synthetic);
  }
}

// ---------- NeuronCoverageSelector / RandomSelector ----------

TEST(NeuronSelectorTest, SelectsBudgetAndSaturates) {
  Sequential model = small_relu_net(95);
  const auto pool = random_pool(15, 96);
  NeuronCoverageSelector::Options options;
  options.max_tests = 10;
  const auto result =
      NeuronCoverageSelector(options).select_with_masks(
          pool, neuron_masks(model, pool));
  EXPECT_EQ(result.tests.size(), 10u);
  // Neuron coverage of an MLP saturates almost immediately; the trajectory
  // must be monotone and hit its ceiling early.
  for (std::size_t i = 1; i < result.coverage_after.size(); ++i) {
    EXPECT_GE(result.coverage_after[i], result.coverage_after[i - 1]);
  }
  EXPECT_NEAR(result.coverage_after[2], result.final_coverage, 0.15);
}

TEST(NeuronSelectorTest, NoDuplicatePicks) {
  Sequential model = small_relu_net(97);
  const auto pool = random_pool(12, 98);
  NeuronCoverageSelector::Options options;
  options.max_tests = 12;
  const auto result =
      NeuronCoverageSelector(options).select_with_masks(
          pool, neuron_masks(model, pool));
  std::set<std::int64_t> picked;
  for (const auto& test : result.tests) picked.insert(test.pool_index);
  EXPECT_EQ(picked.size(), result.tests.size());
}

TEST(RandomSelectorTest, DeterministicAndBounded) {
  const auto pool = random_pool(9, 99);
  const auto a = RandomSelector(5, 7).select(pool);
  const auto b = RandomSelector(5, 7).select(pool);
  ASSERT_EQ(a.tests.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(a.tests[i].pool_index, b.tests[i].pool_index);
  }
  const auto all = RandomSelector(50, 7).select(pool);
  EXPECT_EQ(all.tests.size(), 9u);  // clamped to pool size
}

}  // namespace
}  // namespace dnnv::testgen
