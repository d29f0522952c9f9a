// src/analysis/ tests: interval range analysis soundness against traced
// executions and its exact equality with the tap-by-tap reference pass
// (tests/analysis_reference.h), the affine (zonotope) domain's
// enclosure-in-interval property, the equal_on_interval / difference_hull
// step-function walks, static fault
// testability — including the load-bearing contracts that every statically
// untestable fault is undetected by exhaustive fault simulation, every
// dominated fault's detection row contains its representative's on the full
// fault x test matrix, and conditionally-masked faults go undetected by
// in-distribution inputs — and the IR verifier (model, bundle, and systolic
// timing-model rules) against seeded corruptions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/affine_domain.h"
#include "analysis/range_analysis.h"
#include "analysis/testability.h"
#include "analysis/verifier.h"
#include "exp/model_zoo.h"
#include "fault/collapse.h"
#include "fault/fault_model.h"
#include "fault/qualify.h"
#include "fault/simulator.h"
#include "ip/systolic.h"
#include "nn/builder.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/maxpool2d.h"
#include "nn/workspace.h"
#include "quant/observer.h"
#include "quant/quant_model.h"
#include "quant/quantize.h"
#include "tensor/batch.h"
#include "tests/analysis_reference.h"
#include "tests/test_nets.h"
#include "util/error.h"
#include "util/serialize.h"
#include "validate/test_suite.h"

namespace dnnv {

namespace analysis {
// gtest prints a mismatched interval as [lo, hi].
void PrintTo(const Interval& x, std::ostream* os) {
  *os << "[" << x.lo << ", " << x.hi << "]";
}
}  // namespace analysis

namespace {

exp::ZooOptions tiny_options() {
  exp::ZooOptions options;
  options.tiny = true;
  options.cache_dir =
      (std::filesystem::temp_directory_path() / "dnnv_test_zoo").string();
  return options;
}

quant::QuantModel small_qmodel(std::uint64_t seed = 21) {
  Rng rng(seed);
  auto net = nn::build_mlp(6, {10}, 4, nn::ActivationKind::kReLU, rng);
  Rng pool_rng(seed + 1);
  std::vector<Tensor> pool;
  for (int i = 0; i < 32; ++i) {
    pool.push_back(Tensor::rand_uniform(Shape{6}, pool_rng, -1.0f, 1.0f));
  }
  return quant::QuantModel::quantize(net, pool);
}

std::size_t count_rule(const std::vector<analysis::Finding>& findings,
                       const std::string& rule,
                       analysis::Severity severity = analysis::Severity::kError) {
  std::size_t n = 0;
  for (const auto& f : findings) {
    if (f.rule == rule && f.severity == severity) ++n;
  }
  return n;
}

// ---------- equal_on_interval ----------

TEST(EqualOnIntervalTest, AgreesOnIdenticalStepFunctions) {
  const auto f = [](std::int64_t t) -> int {
    return static_cast<int>(std::clamp<std::int64_t>(t / 100, -127, 127));
  };
  EXPECT_TRUE(analysis::equal_on_interval(f, f, -20000, 20000));
  EXPECT_TRUE(analysis::equal_on_interval(f, f, 5, 5));
  EXPECT_TRUE(analysis::equal_on_interval(f, f, 10, 5));  // empty interval
}

TEST(EqualOnIntervalTest, CatchesSinglePointDisagreement) {
  const auto f = [](std::int64_t t) -> int {
    return static_cast<int>(std::clamp<std::int64_t>(t / 100, -127, 127));
  };
  // g differs from f only on the single segment [700, 799].
  const auto g = [&](std::int64_t t) -> int {
    return t >= 700 && t < 800 ? f(t) + 1 : f(t);
  };
  EXPECT_FALSE(analysis::equal_on_interval(f, g, -20000, 20000));
  EXPECT_FALSE(analysis::equal_on_interval(f, g, 799, 799));
  EXPECT_TRUE(analysis::equal_on_interval(f, g, 800, 20000));
  EXPECT_TRUE(analysis::equal_on_interval(f, g, -20000, 699));
}

TEST(EqualOnIntervalTest, FailsClosedOnNonMonotoneInput) {
  const auto f = [](std::int64_t t) -> int { return static_cast<int>(-t); };
  const auto g = f;
  // Decreasing endpoints are detected and the proof is refused.
  EXPECT_FALSE(analysis::equal_on_interval(f, g, 0, 10));
}

TEST(EqualOnIntervalTest, MatchesExhaustiveCheckOnRequantCurves) {
  quant::Requant rq1{1518500250, 38};
  quant::Requant rq2 = rq1;
  rq2.multiplier ^= 1 << 15;
  const auto f1 = [&](std::int64_t t) -> int {
    return quant::requantize(static_cast<std::int32_t>(t), rq1);
  };
  const auto f2 = [&](std::int64_t t) -> int {
    return quant::requantize(static_cast<std::int32_t>(t), rq2);
  };
  for (const std::int64_t lo : {std::int64_t{-70000}, std::int64_t{-257},
                                std::int64_t{0}, std::int64_t{40000}}) {
    const std::int64_t hi = lo + 4096;
    bool brute_equal = true;
    for (std::int64_t t = lo; t <= hi; ++t) {
      if (f1(t) != f2(t)) {
        brute_equal = false;
        break;
      }
    }
    EXPECT_EQ(analysis::equal_on_interval(f1, f2, lo, hi), brute_equal)
        << "[" << lo << ", " << hi << "]";
  }
}

// ---------- range analysis ----------

TEST(RangeAnalysisTest, LutImageScansTheCodeInterval) {
  std::array<std::int8_t, 256> lut{};
  for (int c = -128; c <= 127; ++c) {
    lut[static_cast<std::size_t>(c & 0xFF)] =
        static_cast<std::int8_t>(std::clamp(c / 2, -127, 127));
  }
  const auto image = analysis::lut_image(lut, analysis::Interval{-10, 20});
  EXPECT_EQ(image, (analysis::Interval{-5, 10}));
  EXPECT_TRUE(
      analysis::lut_image(lut, analysis::Interval{4, 5}).singleton());
}

/// The output channel a flat index of a traced layer-input buffer belongs
/// to, given the per-item dims and the per-channel interval count.
std::int64_t channel_of(std::int64_t idx,
                        const std::vector<std::int64_t>& dims,
                        std::size_t channels) {
  std::int64_t numel = 1;
  for (const std::int64_t d : dims) numel *= d;
  return idx / (numel / static_cast<std::int64_t>(channels));
}

void expect_trace_enclosed(quant::QuantModel& qmodel, const Tensor& batch,
                           const std::string& tag,
                           const analysis::ModelRange* given = nullptr) {
  const analysis::ModelRange range =
      given != nullptr ? *given : analysis::analyze_ranges(qmodel);
  ASSERT_EQ(range.layers.size(), qmodel.layers().size()) << tag;

  nn::Workspace ws;
  quant::QuantModel::ForwardTrace trace;
  qmodel.forward_traced(batch, ws, trace);
  ASSERT_EQ(trace.entries.size(), qmodel.layers().size()) << tag;

  // Entry li holds the codes FEEDING layer li, i.e. the output of layer
  // li-1 — every observed code must sit inside that layer's out interval.
  for (std::size_t li = 1; li < trace.entries.size(); ++li) {
    const auto& entry = trace.entries[li];
    const auto& out = range.layers[li - 1].out;
    ASSERT_FALSE(out.empty()) << tag << " L" << li - 1;
    std::int64_t numel = 1;
    for (const std::int64_t d : entry.dims) numel *= d;
    for (std::int64_t n = 0; n < trace.batch; ++n) {
      const std::int8_t* codes = entry.codes + n * numel;
      for (std::int64_t i = 0; i < numel; ++i) {
        const auto ch = static_cast<std::size_t>(
            channel_of(i, entry.dims, out.size()));
        ASSERT_TRUE(out[ch].contains(codes[i]))
            << tag << " L" << li - 1 << " ch" << ch << ": code "
            << static_cast<int>(codes[i]) << " outside [" << out[ch].lo
            << ", " << out[ch].hi << "]";
      }
    }
  }
}

TEST(RangeAnalysisTest, IntervalsEncloseTracedExecutionSmallMlp) {
  auto qmodel = small_qmodel();
  Rng rng(77);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 24; ++i) {
    // Deliberately exceeds the calibration range: the unconditional domain
    // must still enclose saturating inputs.
    inputs.push_back(Tensor::rand_uniform(Shape{6}, rng, -3.0f, 3.0f));
  }
  expect_trace_enclosed(qmodel, stack_batch(inputs), "small-mlp");
}

TEST(RangeAnalysisTest, IntervalsEncloseTracedExecutionOnZooModels) {
  for (const bool use_cifar : {false, true}) {
    const auto trained = use_cifar ? exp::cifar_relu(tiny_options())
                                   : exp::mnist_tanh(tiny_options());
    const auto pool =
        use_cifar ? exp::shapes_train(64) : exp::digits_train(64);
    auto qmodel = quant::QuantModel::quantize(trained.model, pool.images);
    expect_trace_enclosed(qmodel, stack_batch(pool.images), trained.name);
  }
}

TEST(RangeAnalysisTest, HealthyModelsHaveNoOverflowCapableChannels) {
  const auto trained = exp::mnist_tanh(tiny_options());
  const auto pool = exp::digits_train(64);
  const auto qmodel = quant::QuantModel::quantize(trained.model, pool.images);
  const auto range = analysis::analyze_ranges(qmodel);
  EXPECT_EQ(range.overflow_channels, 0u);
  EXPECT_EQ(range.saturable_channels, 0u);
}

// ---------- the interval pass against the tap-by-tap reference ----------

/// analyze_ranges(qmodel, options) equals reference::interval_ranges
/// exactly: every layer's in/acc/overflow/out and the three counters.
analysis::ModelRange expect_reference_ranges(
    const quant::QuantModel& qmodel, const analysis::RangeOptions& options,
    const std::string& tag) {
  const analysis::ModelRange got = analysis::analyze_ranges(qmodel, options);
  const analysis::ModelRange want =
      analysis::reference::interval_ranges(qmodel, options);
  EXPECT_EQ(got.layers.size(), want.layers.size()) << tag;
  for (std::size_t li = 0;
       li < std::min(got.layers.size(), want.layers.size()); ++li) {
    const analysis::LayerRange& g = got.layers[li];
    const analysis::LayerRange& w = want.layers[li];
    EXPECT_EQ(g.kind, w.kind) << tag << " L" << li;
    EXPECT_EQ(g.in, w.in) << tag << " L" << li;
    EXPECT_EQ(g.acc, w.acc) << tag << " L" << li;
    EXPECT_EQ(g.overflow, w.overflow) << tag << " L" << li;
    EXPECT_EQ(g.out, w.out) << tag << " L" << li;
  }
  EXPECT_EQ(got.dead_channels, want.dead_channels) << tag;
  EXPECT_EQ(got.overflow_channels, want.overflow_channels) << tag;
  EXPECT_EQ(got.saturable_channels, want.saturable_channels) << tag;
  return got;
}

/// One domain per input channel, each a different window of the code grid:
/// some exclude 0 (so a padded first conv widens them), one is reversed
/// (the pass reads it as the singleton {lo}).
std::vector<analysis::Interval> per_channel_domains(std::size_t channels) {
  const std::vector<analysis::Interval> windows = {
      {-100, 50}, {20, 90}, {-60, -7}, {5, -40}, {-127, 127}, {0, 3}};
  std::vector<analysis::Interval> domains;
  for (std::size_t c = 0; c < channels; ++c) {
    domains.push_back(windows[c % windows.size()]);
  }
  return domains;
}

/// Index of the `nth` layer of `kind` in `qmodel` (0 = the first).
std::size_t layer_index(const quant::QuantModel& qmodel,
                        quant::QLayerKind kind, std::size_t nth = 0) {
  for (std::size_t li = 0; li < qmodel.layers().size(); ++li) {
    if (qmodel.layers()[li].kind == kind && nth-- == 0) return li;
  }
  ADD_FAILURE() << "no layer of that kind";
  return 0;
}

TEST(RangeReferenceTest, ZooModelsMatchTapByTapReference) {
  for (const bool use_cifar : {false, true}) {
    const auto trained = use_cifar ? exp::cifar_relu(tiny_options())
                                   : exp::mnist_tanh(tiny_options());
    const auto pool = use_cifar ? exp::shapes_train(64) : exp::digits_train(64);
    const auto qmodel = quant::QuantModel::quantize(trained.model, pool.images);
    expect_reference_ranges(qmodel, {}, trained.name + " unconditional");

    analysis::RangeOptions options;
    options.input_domains = per_channel_domains(
        static_cast<std::size_t>(trained.item_shape[0]));
    expect_reference_ranges(qmodel, options, trained.name + " domains");

    analysis::RangeOptions assumed;
    assumed.assume_input_domain = true;
    assumed.input_lo = 0.25f;
    assumed.input_hi = 0.75f;
    expect_reference_ranges(qmodel, assumed, trained.name + " assumed");
  }
}

TEST(RangeReferenceTest, RandomConvNetsMatchTapByTapReference) {
  for (const test_nets::RandomConvCase& c : test_nets::random_conv_cases()) {
    const nn::Sequential model = c.model();
    const auto pool = c.probes();
    for (const quant::Granularity granularity :
         {quant::Granularity::kPerTensor, quant::Granularity::kPerChannel}) {
      quant::QuantConfig config;
      config.weight_granularity = granularity;
      const auto qmodel = quant::QuantModel::quantize(model, pool, config);
      const std::string tag =
          std::string(c.name) +
          (granularity == quant::Granularity::kPerTensor ? " per-tensor"
                                                         : " per-channel");
      expect_reference_ranges(qmodel, {}, tag);
      analysis::RangeOptions options;
      options.input_domains =
          per_channel_domains(static_cast<std::size_t>(c.c));
      expect_reference_ranges(qmodel, options, tag + " domains");
    }
  }
}

TEST(RangeReferenceTest, DenseTapMappingEdges) {
  // A dense front reads the per-channel input domains directly, so their
  // count sets in.size() against in_features = 6: 4 and 5 domains leave a
  // tail that clamps onto the last entry, 8 domains outnumber the features
  // (every tap reads entry 0).
  const auto qmodel = small_qmodel();
  const std::size_t dense = layer_index(qmodel, quant::QLayerKind::kDense);
  ASSERT_EQ(qmodel.layers()[dense].in_features, 6);
  for (const std::size_t count : {1u, 2u, 4u, 5u, 6u, 8u}) {
    analysis::RangeOptions options;
    options.input_domains = per_channel_domains(count);
    const auto range = expect_reference_ranges(
        qmodel, options, std::to_string(count) + " domains");
    ASSERT_EQ(range.layers[dense].in.size(), count);
  }
}

TEST(RangeReferenceTest, ZeroRowsWideLayersAndReversedEntries) {
  // An all-zero weight row: its accumulator is exactly its bias.
  {
    auto qmodel = small_qmodel();
    const std::size_t dense = layer_index(qmodel, quant::QLayerKind::kDense);
    const std::int64_t fanin = quant::weight_fanin(qmodel.layers()[dense]);
    for (std::int64_t i = 0; i < fanin; ++i) {
      qmodel.poke_code(dense, false, 2 * fanin + i, 0);
    }
    const auto range = expect_reference_ranges(qmodel, {}, "zero row");
    const std::int64_t bias = qmodel.layers()[dense].bias_i32[2];
    EXPECT_EQ(range.layers[dense].acc[2], (analysis::Interval{bias, bias}));
  }

  // A 140,000-tap dense layer: the all-ones row (codes 127) can wrap the
  // int32 accumulator, the row with 100 ones cannot.
  {
    constexpr std::int64_t kWide = 140000;
    Rng rng(9);
    nn::Sequential net;
    net.add(std::make_unique<nn::Dense>(kWide, 2, rng));
    nn::ParamView weights = net.param_views()[0];
    for (std::int64_t i = 0; i < kWide; ++i) {
      weights.data[i] = 1.0f;
      weights.data[kWide + i] = i < 100 ? -1.0f : 0.0f;
    }
    const auto qmodel = quant::QuantModel::quantize(
        net, test_nets::probe_pool(2, Shape{kWide}));
    const auto range = expect_reference_ranges(qmodel, {}, "wide");
    const auto& acc = range.layers[1];
    EXPECT_EQ(acc.overflow, (std::vector<std::uint8_t>{1, 0}));
    EXPECT_EQ(range.overflow_channels, 1u);
    EXPECT_EQ(acc.acc[1].hi - acc.acc[1].lo, 2 * 100 * 127 * 127);
  }

  // Negative requant multipliers turn channel intervals around (lo > hi):
  // conv1's channel 0 feeds the padded conv2 (which widens it with the
  // padding 0), conv2's channel 1 passes the pool into the unpadded 1x1
  // conv3, and conv3's output reaches the dense layer.
  {
    Rng rng(12);
    nn::Sequential net;
    net.add(std::make_unique<nn::Conv2d>(nn::Conv2d::Config{2, 3, 3, 1, 0},
                                         rng));
    net.add(std::make_unique<nn::Conv2d>(nn::Conv2d::Config{3, 2, 3, 1, 1},
                                         rng));
    net.add(std::make_unique<nn::MaxPool2d>(2, 2));
    net.add(std::make_unique<nn::Conv2d>(nn::Conv2d::Config{2, 2, 1, 1, 0},
                                         rng));
    net.add(std::make_unique<nn::Flatten>());
    net.add(std::make_unique<nn::Dense>(2 * 4 * 4, 3, rng));
    const auto pool = test_nets::probe_pool(16, Shape{2, 10, 10});
    for (const quant::Granularity granularity :
         {quant::Granularity::kPerTensor, quant::Granularity::kPerChannel}) {
      quant::QuantConfig config;
      config.weight_granularity = granularity;
      auto qmodel = quant::QuantModel::quantize(net, pool, config);
      const std::size_t conv1 = layer_index(qmodel, quant::QLayerKind::kConv2d);
      const std::size_t conv2 =
          layer_index(qmodel, quant::QLayerKind::kConv2d, 1);
      const std::size_t conv3 =
          layer_index(qmodel, quant::QLayerKind::kConv2d, 2);
      qmodel.set_requant_multiplier(conv1, 0, -(1 << 30));
      qmodel.set_requant_multiplier(conv2, 1, -(1 << 30));
      qmodel.set_requant_multiplier(conv3, 0, -(1 << 30));
      const auto range = expect_reference_ranges(
          qmodel, {},
          granularity == quant::Granularity::kPerTensor ? "reversed pt"
                                                        : "reversed pc");
      for (const std::size_t li : {conv2, conv3}) {
        const auto& in = range.layers[li].in;
        EXPECT_TRUE(std::any_of(in.begin(), in.end(),
                                [](const analysis::Interval& x) {
                                  return x.lo > x.hi;
                                }))
            << "L" << li << " reads no reversed entry";
      }
    }
  }
}

TEST(RangeReferenceTest, LayerWithoutInputStateThrowsOnANonzeroWeight) {
  // A stream whose first layer is the dense layer (no quantize stage before
  // it): the pass has no interval for its taps.
  const auto qmodel = small_qmodel();
  ByteWriter writer;
  qmodel.save(writer);
  // Header fields before the layer count, then the quantize record: kind,
  // name, two scales, mean and norm scale.
  constexpr std::size_t kHeader = 4 + 4 + 1 + 1 + 8 + 8 + 1;
  ByteReader probe(writer.bytes());
  probe.read_bytes(kHeader);
  const std::uint64_t count = probe.read_u64();
  ASSERT_EQ(probe.read_u8(),
            static_cast<std::uint8_t>(quant::QLayerKind::kQuantize));
  probe.read_string();
  for (int f = 0; f < 4; ++f) probe.read_f32();
  const auto quantize_end = static_cast<std::ptrdiff_t>(
      writer.bytes().size() - probe.remaining());
  ByteWriter forged;
  forged.write_bytes(writer.bytes().data(), kHeader);
  forged.write_u64(count - 1);
  forged.write_bytes(writer.bytes().data() + quantize_end,
                     writer.bytes().size() -
                         static_cast<std::size_t>(quantize_end));
  ByteReader reader(forged.take());
  auto headless = quant::QuantModel::load(reader);
  ASSERT_EQ(headless.layers().front().kind, quant::QLayerKind::kDense);
  EXPECT_THROW(analysis::analyze_ranges(headless), Error);
  EXPECT_THROW(analysis::reference::interval_ranges(headless), Error);

  // With every weight of that layer zero, no tap reads the missing state:
  // both passes bound it by its bias alone.
  const auto weights =
      static_cast<std::int64_t>(headless.layers().front().weights.size());
  for (std::int64_t i = 0; i < weights; ++i) {
    headless.poke_code(0, false, i, 0);
  }
  const auto range = expect_reference_ranges(headless, {}, "headless zero");
  const std::int64_t bias = headless.layers().front().bias_i32[0];
  EXPECT_EQ(range.layers[0].acc[0], (analysis::Interval{bias, bias}));
}

// ---------- static testability ----------

TEST(TestabilityTest, PrunedFaultsAreUndetectedByExhaustiveSimulation) {
  for (const bool use_cifar : {false, true}) {
    const auto trained = use_cifar ? exp::cifar_relu(tiny_options())
                                   : exp::mnist_tanh(tiny_options());
    const auto pool =
        use_cifar ? exp::shapes_train(80) : exp::digits_train(80);
    auto qmodel = quant::QuantModel::quantize(trained.model, pool.images);
    const std::vector<Tensor> inputs(pool.images.begin(),
                                     pool.images.begin() + 12);
    const auto suite = validate::TestSuite::from_labels(
        inputs, qmodel.predict_labels(stack_batch(inputs)));

    auto config = fault::universe_config("full");
    config.max_faults = 2048;
    const auto universe = fault::FaultUniverse::enumerate(qmodel, config);
    const auto range = analysis::analyze_ranges(qmodel);
    const auto report = analysis::classify_universe(qmodel, range, universe);

    // Acceptance floor: at least 10% of the full-preset universe is proven
    // untestable before any simulation.
    EXPECT_GE(static_cast<double>(report.untestable),
              0.10 * static_cast<double>(universe.size()))
        << trained.name << ": " << report.summary(universe.size());

    // Soundness: exhaustively simulate EXACTLY the pruned set. Detection is
    // faulted-vs-clean label difference, so a single set bit in any row
    // would falsify an untestability proof.
    fault::FaultUniverse pruned;
    for (std::size_t i = 0; i < universe.size(); ++i) {
      if (report.is_untestable(i)) pruned.add(universe[i]);
    }
    ASSERT_EQ(pruned.size(), report.untestable) << trained.name;
    fault::FaultSimulator sim(qmodel, suite);
    fault::SimOptions options;
    options.mode = fault::SimMode::kFullMatrix;
    const fault::SimResult result = sim.run_batched(pruned, options);
    EXPECT_EQ(result.detected, 0u) << trained.name;
    ASSERT_EQ(result.rows.size(), pruned.size()) << trained.name;
    for (std::size_t i = 0; i < result.rows.size(); ++i) {
      EXPECT_TRUE(result.rows[i].none())
          << trained.name << ": statically untestable fault "
          << pruned[i].describe() << " detected by simulation";
    }
  }
}

TEST(TestabilityTest, ClassificationIsUniformAcrossEquivalentFaults) {
  // classify_fault depends only on (layer, tensor, unit, resulting code),
  // so pruning before structural collapse cannot change which equivalence
  // classes survive: two faults collapsing to the same key get the same
  // verdict. Spot-check with a stuck-at pair vs a byte-write to same code.
  auto qmodel = small_qmodel();
  const auto range = analysis::analyze_ranges(qmodel);
  std::size_t dense = 0;
  for (std::size_t i = 0; i < qmodel.layers().size(); ++i) {
    if (qmodel.layers()[i].kind == quant::QLayerKind::kDense) {
      dense = i;
      break;
    }
  }
  fault::FaultUniverse pair;
  const std::int8_t prev = qmodel.code_at(dense, false, 0);
  fault::Fault a;
  a.kind = fault::FaultKind::kStuckAt1;
  a.layer = static_cast<std::uint8_t>(dense);
  a.bit = 3;
  a.unit = 0;
  fault::Fault b;
  b.kind = fault::FaultKind::kByteWrite;
  b.layer = static_cast<std::uint8_t>(dense);
  b.value = static_cast<std::uint8_t>(fault::faulted_code(prev, a));
  b.unit = 0;
  ASSERT_EQ(fault::faulted_code(prev, a), fault::faulted_code(prev, b));
  pair.add(a);
  pair.add(b);
  const auto report = analysis::classify_universe(qmodel, range, pair);
  EXPECT_EQ(report.reasons[0], report.reasons[1]);
}

TEST(TestabilityTest, QualifyDetectionUnchangedByStaticPrune) {
  const auto trained = exp::mnist_tanh(tiny_options());
  const auto pool = exp::digits_train(60);
  auto qmodel = quant::QuantModel::quantize(trained.model, pool.images);
  const std::vector<Tensor> inputs(pool.images.begin(),
                                   pool.images.begin() + 8);
  const auto suite = validate::TestSuite::from_labels(
      inputs, qmodel.predict_labels(stack_batch(inputs)));

  fault::QualifyOptions options;
  options.universe = fault::universe_config("full");
  options.universe.max_faults = 512;
  options.static_prune = false;
  const auto baseline = fault::qualify_suite(qmodel, suite, options);
  options.static_prune = true;
  const auto pruned = fault::qualify_suite(qmodel, suite, options);

  // Pruning is sound, so the detected set — and with it every downstream
  // qualification number — must not move.
  EXPECT_EQ(pruned.enumerated, baseline.enumerated);
  EXPECT_GT(pruned.untestable, 0);
  EXPECT_EQ(baseline.untestable, 0);
  EXPECT_EQ(pruned.detected, baseline.detected);
  EXPECT_EQ(pruned.classes, baseline.classes);
  EXPECT_EQ(pruned.core, baseline.core);
  EXPECT_LE(pruned.scored, baseline.scored);
}

// ---------- IR verifier ----------

TEST(VerifierTest, HealthyModelsAreClean) {
  const auto qmodel = small_qmodel();
  const auto findings = analysis::verify_model(qmodel);
  EXPECT_FALSE(analysis::has_errors(findings));

  const auto trained = exp::mnist_tanh(tiny_options());
  const auto pool = exp::digits_train(64);
  const auto zoo = quant::QuantModel::quantize(trained.model, pool.images);
  EXPECT_FALSE(analysis::has_errors(analysis::verify_model(zoo)));
}

TEST(VerifierTest, CatchesCorruptedRequantMultiplier) {
  auto qmodel = small_qmodel();
  std::size_t dense = 0;
  for (std::size_t i = 0; i < qmodel.layers().size(); ++i) {
    if (qmodel.layers()[i].kind == quant::QLayerKind::kDense &&
        !qmodel.layers()[i].dequant_output) {
      dense = i;
      break;
    }
  }
  // 12345 is outside the Q31 normalization band [2^30, 2^31) and not the
  // dead-channel 0 — derived-state corruption the engine would silently run.
  qmodel.set_requant_multiplier(dense, 0, 12345);
  const auto findings = analysis::verify_model(qmodel);
  EXPECT_EQ(count_rule(findings, "requant-multiplier-range"), 1u);
  EXPECT_THROW(analysis::require_valid(findings, "test gate"), Error);

  qmodel.refresh_derived();
  EXPECT_FALSE(analysis::has_errors(analysis::verify_model(qmodel)));
}

TEST(VerifierTest, CatchesShapeMismatch) {
  const auto qmodel = small_qmodel();
  auto layers = qmodel.layers();
  for (auto& q : layers) {
    if (q.kind == quant::QLayerKind::kDense) {
      q.in_features += 1;  // weights no longer match the declared geometry
      break;
    }
  }
  const auto findings = analysis::verify_layers(layers, qmodel.num_classes());
  EXPECT_TRUE(analysis::has_errors(findings));
  EXPECT_GE(count_rule(findings, "weight-size") +
                count_rule(findings, "shape-chain"),
            1u);
}

TEST(VerifierTest, CatchesTamperedActivationLut) {
  const auto trained = exp::mnist_tanh(tiny_options());
  const auto pool = exp::digits_train(64);
  const auto qmodel = quant::QuantModel::quantize(trained.model, pool.images);
  auto layers = qmodel.layers();
  bool tampered = false;
  for (auto& q : layers) {
    if (q.kind == quant::QLayerKind::kActivation) {
      q.lut[10] = static_cast<std::int8_t>(q.lut[10] ^ 1);
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered);
  const auto findings = analysis::verify_layers(layers, qmodel.num_classes());
  EXPECT_EQ(count_rule(findings, "lut-domain"), 1u);
}

TEST(VerifierTest, CatchesForbiddenCodeAndScaleCorruption) {
  const auto qmodel = small_qmodel();
  auto layers = qmodel.layers();
  for (auto& q : layers) {
    if (q.kind == quant::QLayerKind::kDense) {
      q.weights[0] = -128;  // symmetric grid bans the asymmetric code
      q.out_scale = -q.out_scale;
      break;
    }
  }
  const auto findings = analysis::verify_layers(layers, qmodel.num_classes());
  EXPECT_GE(count_rule(findings, "code-range"), 1u);
  EXPECT_GE(count_rule(findings, "scale-positive"), 1u);
}

TEST(VerifierTest, CatchesLogitWidthMismatch) {
  const auto qmodel = small_qmodel();
  const auto findings =
      analysis::verify_layers(qmodel.layers(), qmodel.num_classes() + 1);
  EXPECT_GE(count_rule(findings, "num-classes"), 1u);
}

TEST(VerifierTest, SystolicConfigRules) {
  ip::SystolicConfig config;  // defaults are a sane datasheet
  EXPECT_TRUE(analysis::verify_systolic(config).empty());

  config.rows = 0;
  EXPECT_EQ(count_rule(analysis::verify_systolic(config), "systolic-dims"),
            1u);
  config.rows = 2048;  // runs, but no shipping accelerator looks like this
  EXPECT_EQ(count_rule(analysis::verify_systolic(config), "systolic-dims",
                       analysis::Severity::kWarning),
            1u);
  config = ip::SystolicConfig();

  config.frequency_mhz = -800.0;
  EXPECT_EQ(
      count_rule(analysis::verify_systolic(config), "systolic-frequency"),
      1u);
  config = ip::SystolicConfig();

  config.memory_bytes_per_cycle = 0.0;
  EXPECT_EQ(
      count_rule(analysis::verify_systolic(config), "systolic-bandwidth"),
      1u);
  config = ip::SystolicConfig();

  config.tile_overhead_cycles = -1;
  EXPECT_EQ(
      count_rule(analysis::verify_systolic(config), "systolic-overhead"), 1u);
}

TEST(VerifierTest, SystolicCostBoundsGateEstimates) {
  const auto trained = exp::mnist_tanh(tiny_options());
  const ip::SystolicConfig config;
  const auto cost =
      ip::estimate_cost(trained.model, trained.item_shape, config);
  EXPECT_FALSE(
      analysis::has_errors(analysis::verify_systolic_cost(cost, config)));

  // Tampered per-layer cycles break the max(compute, memory) identity.
  auto broken = cost;
  for (auto& layer : broken.layers) {
    if (layer.macs > 0) {
      layer.cycles -= 1;
      break;
    }
  }
  EXPECT_GE(count_rule(analysis::verify_systolic_cost(broken, config),
                       "systolic-cycle-bound"),
            1u);

  // A compute count below ceil(macs / (rows * cols)) claims super-peak
  // throughput.
  broken = cost;
  for (auto& layer : broken.layers) {
    if (layer.macs > 0) {
      layer.compute_cycles =
          layer.macs / (static_cast<std::int64_t>(config.rows) * config.cols) /
          2;
      layer.cycles = std::max(layer.compute_cycles, layer.memory_cycles);
      break;
    }
  }
  EXPECT_GE(count_rule(analysis::verify_systolic_cost(broken, config),
                       "systolic-cycle-bound"),
            1u);

  // Totals must be the per-layer sum.
  broken = cost;
  broken.total_cycles += 7;
  EXPECT_EQ(count_rule(analysis::verify_systolic_cost(broken, config),
                       "systolic-total"),
            1u);
}

// ---------- affine (zonotope) domain ----------

/// Per-channel containment of `inner`'s acc/out hulls in `outer`'s.
void expect_hulls_enclosed(const analysis::ModelRange& inner,
                           const analysis::ModelRange& outer,
                           const std::string& tag) {
  ASSERT_EQ(inner.layers.size(), outer.layers.size()) << tag;
  for (std::size_t li = 0; li < inner.layers.size(); ++li) {
    const auto& in_layer = inner.layers[li];
    const auto& out_layer = outer.layers[li];
    ASSERT_EQ(in_layer.acc.size(), out_layer.acc.size()) << tag << " L" << li;
    for (std::size_t c = 0; c < in_layer.acc.size(); ++c) {
      EXPECT_GE(in_layer.acc[c].lo, out_layer.acc[c].lo)
          << tag << " L" << li << " ch" << c;
      EXPECT_LE(in_layer.acc[c].hi, out_layer.acc[c].hi)
          << tag << " L" << li << " ch" << c;
    }
    ASSERT_EQ(in_layer.out.size(), out_layer.out.size()) << tag << " L" << li;
    for (std::size_t c = 0; c < in_layer.out.size(); ++c) {
      EXPECT_GE(in_layer.out[c].lo, out_layer.out[c].lo)
          << tag << " L" << li << " ch" << c;
      EXPECT_LE(in_layer.out[c].hi, out_layer.out[c].hi)
          << tag << " L" << li << " ch" << c;
    }
  }
}

double total_acc_width(const analysis::ModelRange& range) {
  double width = 0.0;
  for (const auto& layer : range.layers) {
    for (const auto& acc : layer.acc) {
      width += static_cast<double>(acc.hi - acc.lo);
    }
  }
  return width;
}

TEST(AffineDomainTest, HullsNeverWiderThanIntervalOnRandomModels) {
  for (const std::uint64_t seed : {21u, 51u, 91u}) {
    for (const auto act :
         {nn::ActivationKind::kReLU, nn::ActivationKind::kTanh}) {
      Rng rng(seed);
      auto net = nn::build_mlp(6, {12, 10}, 4, act, rng);
      Rng pool_rng(seed + 1);
      std::vector<Tensor> pool;
      for (int i = 0; i < 32; ++i) {
        pool.push_back(Tensor::rand_uniform(Shape{6}, pool_rng, -1.0f, 1.0f));
      }
      auto qmodel = quant::QuantModel::quantize(net, pool);
      analysis::RangeOptions options;
      options.item_dims = {6};
      const auto interval = analysis::analyze_ranges(qmodel, options);
      const auto affine = analysis::analyze_ranges_affine(qmodel, options);
      expect_hulls_enclosed(affine, interval,
                            "mlp-seed" + std::to_string(seed));
    }
  }
}

TEST(AffineDomainTest, TightensAndStaysSoundOnZooModels) {
  for (const bool use_cifar : {false, true}) {
    const auto trained = use_cifar ? exp::cifar_relu(tiny_options())
                                   : exp::mnist_tanh(tiny_options());
    const auto pool = use_cifar ? exp::shapes_train(64) : exp::digits_train(64);
    auto qmodel = quant::QuantModel::quantize(trained.model, pool.images);
    analysis::RangeOptions options;
    options.item_dims = trained.item_shape.dims();
    const auto interval = analysis::analyze_ranges(qmodel, options);
    const auto affine = analysis::analyze_ranges_affine(qmodel, options);
    // Never wider anywhere...
    expect_hulls_enclosed(affine, interval, trained.name);
    // ...strictly tighter in aggregate (the relational terms must buy
    // something on a real conv stack, not just tie the interval pass)...
    EXPECT_LT(total_acc_width(affine), total_acc_width(interval))
        << trained.name;
    // ...and still an enclosure of real executions.
    expect_trace_enclosed(qmodel, stack_batch(pool.images), trained.name,
                          &affine);
  }
}

TEST(AffineDomainTest, EnclosesExecutionOnRandomConvNets) {
  // Conv geometry the zoo lacks (strided, unpadded, 1x1, 5x5, even kernels),
  // under both weight granularities.
  for (const test_nets::RandomConvCase& c : test_nets::random_conv_cases()) {
    const nn::Sequential model = c.model();
    const auto pool = c.probes();
    for (const quant::Granularity granularity :
         {quant::Granularity::kPerTensor, quant::Granularity::kPerChannel}) {
      quant::QuantConfig config;
      config.weight_granularity = granularity;
      auto qmodel = quant::QuantModel::quantize(model, pool, config);
      const std::string tag =
          std::string(c.name) +
          (granularity == quant::Granularity::kPerTensor ? " per-tensor"
                                                         : " per-channel");
      analysis::RangeOptions options;
      options.item_dims = {c.c, c.h, c.w};
      const auto interval = analysis::analyze_ranges(qmodel, options);
      const auto affine = analysis::analyze_ranges_affine(qmodel, options);
      expect_hulls_enclosed(affine, interval, tag);
      expect_trace_enclosed(qmodel, stack_batch(pool), tag, &affine);
    }
  }
}

TEST(AffineDomainTest, ConstantFormsIntoALayerDoNotAbort) {
  // The strided conv's two output channels are identical and the 1x1 conv
  // takes half their difference, so its coefficients cancel exactly: every
  // form the dense layer reads is a constant with no symbol terms.
  Rng rng(5);
  nn::Sequential net;
  net.add(std::make_unique<nn::Conv2d>(nn::Conv2d::Config{1, 2, 3, 2, 1}, rng));
  net.add(std::make_unique<nn::MaxPool2d>(2, 2));
  net.add(std::make_unique<nn::Conv2d>(nn::Conv2d::Config{2, 1, 1, 1, 0}, rng));
  net.add(std::make_unique<nn::Flatten>());
  net.add(std::make_unique<nn::Dense>(4, 3, rng));
  std::vector<nn::ParamView> views = net.param_views();
  ASSERT_EQ(views.size(), 6u);
  std::copy(views[0].data, views[0].data + 9, views[0].data + 9);
  views[1].data[1] = views[1].data[0];
  views[2].data[0] = 0.5f;
  views[2].data[1] = -0.5f;

  const auto pool = test_nets::probe_pool(16, Shape{1, 9, 9});
  auto qmodel = quant::QuantModel::quantize(net, pool);
  analysis::RangeOptions options;
  options.item_dims = {1, 9, 9};
  const auto interval = analysis::analyze_ranges(qmodel, options);
  analysis::ModelRange affine;
  ASSERT_NO_THROW(affine = analysis::analyze_ranges_affine(qmodel, options));
  expect_hulls_enclosed(affine, interval, "cancelling-1x1");
  expect_trace_enclosed(qmodel, stack_batch(pool), "cancelling-1x1", &affine);
}

/// A tanh MLP quantized on a wide pool, plus a pool 20x narrower: faults
/// excitable only by out-of-distribution codes become conditionally masked
/// on input domains calibrated over the narrow one (tanh's saturating LUT
/// is what plateaus).
struct NarrowPoolCase {
  quant::QuantModel qmodel;
  std::vector<Tensor> narrow;
};

NarrowPoolCase narrow_pool_mlp() {
  Rng rng(21);
  auto net = nn::build_mlp(6, {10}, 4, nn::ActivationKind::kTanh, rng);
  Rng pool_rng(22);
  std::vector<Tensor> pool;
  std::vector<Tensor> narrow;
  for (int i = 0; i < 32; ++i) {
    auto t = Tensor::rand_uniform(Shape{6}, pool_rng, -1.0f, 1.0f);
    Tensor s = Tensor::zeros(t.shape());
    const float* src = t.data();
    float* dst = s.data();
    for (std::int64_t j = 0; j < s.numel(); ++j) dst[j] = src[j] * 0.05f;
    pool.push_back(std::move(t));
    narrow.push_back(std::move(s));
  }
  return {quant::QuantModel::quantize(net, pool), std::move(narrow)};
}

TEST(AffineDomainTest, ConditionalFaultsAreMaskedInDistribution) {
  auto [qmodel, narrow] = narrow_pool_mlp();
  analysis::RangeOptions options;
  options.item_dims = {6};
  const auto range = analysis::analyze_ranges_affine(qmodel, options);
  auto conditioned = options;
  conditioned.input_domains =
      analysis::calibrated_input_domains(qmodel, narrow);
  const auto cal_range = analysis::analyze_ranges_affine(qmodel, conditioned);

  const auto universe =
      fault::FaultUniverse::enumerate(qmodel, fault::universe_config("full"));
  const auto uncond = analysis::classify_universe(qmodel, range, universe);
  const auto cond = analysis::classify_conditional(qmodel, range, uncond,
                                                   cal_range, universe);
  ASSERT_GT(cond.count, 0u);
  ASSERT_EQ(cond.excitations.size(), cond.count);
  fault::FaultUniverse masked;
  for (std::size_t i = 0; i < universe.size(); ++i) {
    if (cond.conditional[i] == 0) continue;
    // Two-tier split is exclusive: a fault the unconditional pass already
    // proved untestable is pruned, never "conditional".
    EXPECT_FALSE(uncond.is_untestable(i)) << universe[i].describe();
    masked.add(universe[i]);
  }
  for (const auto& target : cond.excitations) {
    EXPECT_LE(target.acc.lo, target.acc.hi);
  }

  // Soundness of the conditioning: the narrow pool's codes lie inside the
  // calibrated domains by construction, so exhaustive simulation of the
  // conditionally-masked faults on those inputs must detect NOTHING.
  const auto suite = validate::TestSuite::from_labels(
      narrow, qmodel.predict_labels(stack_batch(narrow)));
  fault::FaultSimulator sim(qmodel, suite);
  fault::SimOptions sim_options;
  sim_options.mode = fault::SimMode::kFullMatrix;
  const auto result = sim.run_batched(masked, sim_options);
  EXPECT_EQ(result.detected, 0u);
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    EXPECT_TRUE(result.rows[i].none())
        << "conditionally masked fault " << masked[i].describe()
        << " detected by an in-distribution input";
  }
}

TEST(TestabilityTest, QualifyConditionalUnchangedByStaticPrune) {
  // After the static prune every remaining fault is unconditionally
  // testable, so qualify_suite skips re-classifying it; the conditional
  // report must equal the one classified over the unpruned universe.
  auto [qmodel, narrow] = narrow_pool_mlp();
  const auto suite = validate::TestSuite::from_labels(
      narrow, qmodel.predict_labels(stack_batch(narrow)));
  fault::QualifyOptions options;
  options.universe = fault::universe_config("full");
  options.dominance = false;
  options.item_dims = {6};
  options.input_domains = analysis::calibrated_input_domains(qmodel, narrow);
  // A narrowing domain: qualify_suite runs the conditioned pass.
  ASSERT_TRUE(analysis::input_domains_narrow(options.input_domains));
  options.static_prune = false;
  const auto baseline = fault::qualify_suite(qmodel, suite, options);
  options.static_prune = true;
  const auto pruned = fault::qualify_suite(qmodel, suite, options);

  ASSERT_GT(baseline.conditional, 0);
  EXPECT_EQ(pruned.conditional, baseline.conditional);
  ASSERT_EQ(pruned.excitations.size(), baseline.excitations.size());
  for (std::size_t i = 0; i < pruned.excitations.size(); ++i) {
    const auto& a = pruned.excitations[i];
    const auto& b = baseline.excitations[i];
    EXPECT_EQ(a.fault_id, b.fault_id) << i;
    EXPECT_EQ(a.layer, b.layer) << i;
    EXPECT_EQ(a.channel, b.channel) << i;
    EXPECT_EQ(a.acc, b.acc) << i;
  }
}

// ---------- calibrated domains that span the code grid ----------

TEST(RangeAnalysisTest, InputDomainsNarrowEdges) {
  using analysis::Interval;
  const Interval grid{quant::kQmin, quant::kQmax};
  const std::vector<std::pair<std::vector<Interval>, bool>> cases = {
      {{}, false},
      {{grid, grid, grid}, false},
      {{grid, Interval{-127, 126}, grid}, true},
      {{Interval{-128, 128}}, false},  // clamps to the grid
      {{grid, Interval{5, -3}}, true},  // lo > hi reads as {5}
  };
  // The predicate must clamp exactly as the range pass does: it narrows iff
  // some quantize-output interval of the conditioned pass is not the grid.
  const auto qmodel = small_qmodel();
  for (const auto& [domains, narrows] : cases) {
    EXPECT_EQ(analysis::input_domains_narrow(domains), narrows)
        << domains.size() << " domains";
    analysis::RangeOptions options;
    options.input_domains = domains;
    const auto range = analysis::analyze_ranges(qmodel, options);
    ASSERT_EQ(range.layers[0].kind, quant::QLayerKind::kQuantize);
    const auto& out = range.layers[0].out;
    EXPECT_EQ(std::any_of(out.begin(), out.end(),
                          [&](const Interval& x) { return x != grid; }),
              narrows)
        << domains.size() << " domains";
  }
}

/// Tiny zoo model quantized on its 64-item pool, with the input domains
/// calibrated over that pool.
struct CalibratedZooCase {
  std::string name;
  std::vector<std::int64_t> item_dims;
  quant::QuantModel qmodel;
  std::vector<Tensor> pool;
  std::vector<analysis::Interval> domains;
};

CalibratedZooCase calibrated_zoo_case(bool use_cifar) {
  const auto trained = use_cifar ? exp::cifar_relu(tiny_options())
                                 : exp::mnist_tanh(tiny_options());
  auto pool = use_cifar ? exp::shapes_train(64) : exp::digits_train(64);
  auto qmodel = quant::QuantModel::quantize(trained.model, pool.images);
  auto domains = analysis::calibrated_input_domains(qmodel, pool.images);
  return {trained.name, trained.item_shape.dims(), std::move(qmodel),
          std::move(pool.images), std::move(domains)};
}

/// Entry `c` of a per-channel vector; a single entry is shared by every
/// channel (the unconditional state after the quantize layer).
analysis::Interval channel_entry(const std::vector<analysis::Interval>& v,
                                 std::size_t c) {
  return v.size() == 1 ? v.front() : v[c];
}

void expect_same_channels(const std::vector<analysis::Interval>& a,
                          const std::vector<analysis::Interval>& b,
                          const std::string& tag) {
  ASSERT_TRUE(a.size() == b.size() || a.size() == 1 || b.size() == 1) << tag;
  for (std::size_t c = 0; c < std::max(a.size(), b.size()); ++c) {
    EXPECT_EQ(channel_entry(a, c), channel_entry(b, c)) << tag << " ch" << c;
  }
}

// The premise behind qualify_suite reusing the unconditional range: on the
// zoo models every calibrated domain is the whole code grid, and the pass
// conditioned on them reproduces the unconditional one hull for hull.
TEST(RangeAnalysisTest, GridDomainsReproduceUnconditionalRangesOnZooModels) {
  for (const bool use_cifar : {false, true}) {
    const auto zoo = calibrated_zoo_case(use_cifar);
    ASSERT_FALSE(zoo.domains.empty()) << zoo.name;
    ASSERT_FALSE(analysis::input_domains_narrow(zoo.domains)) << zoo.name;
    for (const auto domain :
         {analysis::RangeDomain::kInterval, analysis::RangeDomain::kAffine}) {
      const std::string tag =
          zoo.name + " " + analysis::to_string(domain);
      analysis::RangeOptions options;
      options.item_dims = zoo.item_dims;
      const auto uncond =
          analysis::analyze_ranges_with(domain, zoo.qmodel, options);
      options.input_domains = zoo.domains;
      const auto cond =
          analysis::analyze_ranges_with(domain, zoo.qmodel, options);
      ASSERT_EQ(cond.layers.size(), uncond.layers.size()) << tag;
      for (std::size_t li = 0; li < uncond.layers.size(); ++li) {
        const auto& u = uncond.layers[li];
        const auto& c = cond.layers[li];
        const std::string at = tag + " L" + std::to_string(li);
        EXPECT_EQ(c.kind, u.kind) << at;
        EXPECT_EQ(c.acc, u.acc) << at;
        EXPECT_EQ(c.overflow, u.overflow) << at;
        expect_same_channels(c.in, u.in, at + " in");
        expect_same_channels(c.out, u.out, at + " out");
      }
      EXPECT_EQ(cond.dead_channels, uncond.dead_channels) << tag;
      EXPECT_EQ(cond.overflow_channels, uncond.overflow_channels) << tag;
      EXPECT_EQ(cond.saturable_channels, uncond.saturable_channels) << tag;
    }
  }
}

// qualify_suite with grid domains (which skips the conditioned pass) against
// its stages called one by one, the conditioned pass computed explicitly.
TEST(TestabilityTest, QualifyWithGridDomainsMatchesConditionedPassOnZooModels) {
  for (const bool use_cifar : {false, true}) {
    auto zoo = calibrated_zoo_case(use_cifar);
    ASSERT_FALSE(analysis::input_domains_narrow(zoo.domains)) << zoo.name;
    const std::vector<Tensor> inputs(zoo.pool.begin(), zoo.pool.begin() + 8);
    const auto suite = validate::TestSuite::from_labels(
        inputs, zoo.qmodel.predict_labels(stack_batch(inputs)));
    for (const auto domain :
         {analysis::RangeDomain::kInterval, analysis::RangeDomain::kAffine}) {
      const std::string tag =
          zoo.name + " " + analysis::to_string(domain);
      fault::QualifyOptions options;
      // Every 64th weight unit with all its bits: same-site neighbours stay
      // together, so the dominance rules find pairs to merge.
      options.universe = fault::universe_config("full");
      options.universe.stride = 64;
      options.domain = domain;
      options.item_dims = zoo.item_dims;
      options.input_domains = zoo.domains;
      const auto q = fault::qualify_suite(zoo.qmodel, suite, options);

      analysis::RangeOptions ropts;
      ropts.item_dims = zoo.item_dims;
      const auto range =
          analysis::analyze_ranges_with(domain, zoo.qmodel, ropts);
      ropts.input_domains = zoo.domains;
      const auto cal_range =
          analysis::analyze_ranges_with(domain, zoo.qmodel, ropts);
      auto universe = fault::FaultUniverse::enumerate(zoo.qmodel,
                                                      options.universe);
      const auto report =
          analysis::classify_universe(zoo.qmodel, range, universe);
      universe = analysis::prune_untestable(universe, report);
      const auto dom =
          analysis::analyze_dominance(zoo.qmodel, range, universe);
      universe = analysis::prune_dominated(universe, dom);
      const auto uncond =
          analysis::classify_universe(zoo.qmodel, range, universe);
      const auto cond = analysis::classify_conditional(
          zoo.qmodel, range, uncond, cal_range, universe);
      universe = fault::collapse_structural(universe, zoo.qmodel);
      fault::FaultSimulator sim(zoo.qmodel, suite);
      fault::SimOptions sim_options;
      sim_options.mode = fault::SimMode::kFullMatrix;
      const auto result = sim.run_batched(universe, sim_options);

      EXPECT_GT(q.untestable, 0) << tag;
      EXPECT_GT(q.dominated, 0) << tag;
      EXPECT_EQ(q.untestable, static_cast<std::int64_t>(report.untestable))
          << tag;
      EXPECT_EQ(q.dominated, static_cast<std::int64_t>(dom.count)) << tag;
      EXPECT_EQ(q.conditional, static_cast<std::int64_t>(cond.count)) << tag;
      EXPECT_EQ(q.detected, static_cast<std::int64_t>(result.detected))
          << tag;
      ASSERT_EQ(q.excitations.size(), cond.excitations.size()) << tag;
      for (std::size_t i = 0; i < q.excitations.size(); ++i) {
        EXPECT_EQ(q.excitations[i].fault_id, cond.excitations[i].fault_id)
            << tag << " " << i;
        EXPECT_EQ(q.excitations[i].layer, cond.excitations[i].layer)
            << tag << " " << i;
        EXPECT_EQ(q.excitations[i].channel, cond.excitations[i].channel)
            << tag << " " << i;
        EXPECT_EQ(q.excitations[i].acc, cond.excitations[i].acc)
            << tag << " " << i;
      }
    }
  }
}

// ---------- dominance vs the full fault x test matrix ----------

TEST(TestabilityTest, DominatedDetectionImpliedOnFullMatrix) {
  auto qmodel = small_qmodel();
  Rng rng(23);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 48; ++i) {
    inputs.push_back(Tensor::rand_uniform(Shape{6}, rng, -2.0f, 2.0f));
  }
  const auto suite = validate::TestSuite::from_labels(
      inputs, qmodel.predict_labels(stack_batch(inputs)));

  const auto universe =
      fault::FaultUniverse::enumerate(qmodel, fault::universe_config("full"));
  const auto range = analysis::analyze_ranges_affine(qmodel);
  const auto report = analysis::classify_universe(qmodel, range, universe);
  const auto pruned = analysis::prune_untestable(universe, report);
  const auto dom = analysis::analyze_dominance(qmodel, range, pruned);
  ASSERT_GT(dom.count, 0u);

  // The dominance contract, checked against the FULL fault x test matrix:
  // every test detecting a kept representative also detects each fault it
  // dominates — row(rep) is a subset of row(dominated).
  fault::FaultSimulator sim(qmodel, suite);
  fault::SimOptions sim_options;
  sim_options.mode = fault::SimMode::kFullMatrix;
  const auto result = sim.run_batched(pruned, sim_options);
  ASSERT_EQ(result.rows.size(), pruned.size());
  std::size_t checked = 0;
  for (std::size_t i = 0; i < pruned.size(); ++i) {
    if (dom.dominated[i] == 0) continue;
    const auto& rep_row = result.rows[dom.representative[i]];
    EXPECT_EQ(rep_row.count_common_bits(result.rows[i]), rep_row.count())
        << pruned[dom.representative[i]].describe() << " does not imply "
        << pruned[i].describe();
    ++checked;
  }
  EXPECT_EQ(checked, dom.count);
}

// ---------- difference_hull ----------

TEST(DifferenceHullTest, MatchesBruteForceOnRequantCurves) {
  quant::Requant rq1{1518500250, 38};
  quant::Requant rq2 = rq1;
  rq2.multiplier ^= 1 << 15;
  const auto f1 = [&](std::int64_t t) -> int {
    return quant::requantize(static_cast<std::int32_t>(t), rq1);
  };
  const auto f2 = [&](std::int64_t t) -> int {
    return quant::requantize(static_cast<std::int32_t>(t), rq2);
  };
  for (const std::int64_t lo : {std::int64_t{-70000}, std::int64_t{-257},
                                std::int64_t{0}, std::int64_t{40000}}) {
    const std::int64_t hi = lo + 4096;
    std::int64_t first = hi + 1;
    std::int64_t last = lo - 1;
    for (std::int64_t t = lo; t <= hi; ++t) {
      if (f1(t) != f2(t)) {
        first = std::min(first, t);
        last = std::max(last, t);
      }
    }
    const auto hull = analysis::difference_hull(f1, f2, lo, hi);
    if (first > last) {
      EXPECT_FALSE(hull.has_value()) << "[" << lo << ", " << hi << "]";
    } else {
      ASSERT_TRUE(hull.has_value()) << "[" << lo << ", " << hi << "]";
      // Monotone step curves inside the segment budget: the walk is exact.
      EXPECT_EQ(hull->lo, first) << "[" << lo << ", " << hi << "]";
      EXPECT_EQ(hull->hi, last) << "[" << lo << ", " << hi << "]";
    }
  }
  // Identical curves over an interval: no difference, no hull.
  EXPECT_FALSE(analysis::difference_hull(f1, f1, -4096, 4096).has_value());
  // Empty interval.
  EXPECT_FALSE(analysis::difference_hull(f1, f2, 10, 5).has_value());
}

// ---------- RangeObserver ----------

TEST(RangeObserverTest, TracksPerChannelSignedExtremes) {
  quant::RangeObserver observer(2, 3);
  const float item1[] = {0.5f, -1.0f, 0.25f, 2.0f, 0.0f, 1.0f};
  const float item2[] = {-0.5f, 0.75f, 0.1f, -3.0f, 0.5f, 0.2f};
  observer.observe(item1, 6);
  observer.observe(item2, 6);
  EXPECT_FLOAT_EQ(observer.min_of(0), -1.0f);
  EXPECT_FLOAT_EQ(observer.max_of(0), 0.75f);
  EXPECT_FLOAT_EQ(observer.min_of(1), -3.0f);
  EXPECT_FLOAT_EQ(observer.max_of(1), 2.0f);
  EXPECT_FLOAT_EQ(observer.amax(), 3.0f);  // largest magnitude, any channel
}

}  // namespace
}  // namespace dnnv
