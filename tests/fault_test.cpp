// src/fault/ tests: fault identity/serialization, deterministic universe
// enumeration, structural + matrix collapsing, greedy suite compaction, the
// O(layer) point-fault surface vs a full derived-state rebuild, and the
// core contract of the batched simulator — bit-identity with the sequential
// inject→predict→revert loop on both zoo models, float and int8 backends,
// across thread counts, on universes that include no-op stuck-at faults —
// and forward_resume / run_batched against the reference oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exp/model_zoo.h"
#include "fault/collapse.h"
#include "fault/compact.h"
#include "fault/fault_model.h"
#include "fault/qualify.h"
#include "fault/simulator.h"
#include "nn/builder.h"
#include "nn/workspace.h"
#include "pipeline/user.h"
#include "pipeline/vendor.h"
#include "quant/quant_model.h"
#include "tensor/batch.h"
#include "tests/quant_reference.h"
#include "util/error.h"
#include "util/thread_pool.h"
#include "validate/test_suite.h"

namespace dnnv {
namespace {

using nn::ActivationKind;
using nn::Sequential;

Sequential small_net(std::uint64_t seed = 11) {
  Rng rng(seed);
  return nn::build_mlp(6, {10}, 4, ActivationKind::kReLU, rng);
}

std::vector<Tensor> random_pool(int count, std::uint64_t seed = 12) {
  Rng rng(seed);
  std::vector<Tensor> pool;
  for (int i = 0; i < count; ++i) {
    pool.push_back(Tensor::rand_uniform(Shape{6}, rng, -1.0f, 1.0f));
  }
  return pool;
}

quant::QuantModel small_qmodel(std::uint64_t seed = 11) {
  return quant::QuantModel::quantize(small_net(seed), random_pool(32, seed + 1));
}

validate::TestSuite suite_from(quant::QuantModel& qmodel,
                               const std::vector<Tensor>& inputs) {
  return validate::TestSuite::from_labels(
      inputs, qmodel.predict_labels(stack_batch(inputs)));
}

exp::ZooOptions tiny_options() {
  exp::ZooOptions options;
  options.tiny = true;
  options.cache_dir =
      (std::filesystem::temp_directory_path() / "dnnv_test_zoo").string();
  return options;
}

fault::Fault make_fault(fault::FaultKind kind, std::uint8_t layer, bool is_bias,
                        std::uint8_t bit, std::int64_t unit,
                        std::uint8_t value = 0) {
  fault::Fault f;
  f.kind = kind;
  f.layer = layer;
  f.is_bias = is_bias ? 1 : 0;
  f.bit = bit;
  f.value = value;
  f.unit = unit;
  return f;
}

std::size_t first_dense_layer(const quant::QuantModel& qmodel) {
  for (std::size_t i = 0; i < qmodel.layers().size(); ++i) {
    if (qmodel.layers()[i].kind == quant::QLayerKind::kDense) return i;
  }
  ADD_FAILURE() << "no dense layer";
  return 0;
}

/// param_views() index of (layer, is_bias): weights before bias, per
/// parameterized layer, layers ascending.
std::size_t view_index(const quant::QuantModel& qmodel, std::size_t layer,
                       bool is_bias) {
  std::size_t ordinal = 0;
  for (std::size_t i = 0; i < layer; ++i) {
    const auto kind = qmodel.layers()[i].kind;
    if (kind == quant::QLayerKind::kConv2d ||
        kind == quant::QLayerKind::kDense) {
      ++ordinal;
    }
  }
  return 2 * ordinal + (is_bias ? 1 : 0);
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << what << " at " << i;
  }
}

void expect_same_result(const fault::SimResult& a, const fault::SimResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.num_tests, b.num_tests) << what;
  EXPECT_EQ(a.clean_labels, b.clean_labels) << what;
  EXPECT_EQ(a.first_detected, b.first_detected) << what;
  EXPECT_EQ(a.detected, b.detected) << what;
  ASSERT_EQ(a.rows.size(), b.rows.size()) << what;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_TRUE(a.rows[i] == b.rows[i]) << what << " row " << i;
  }
}

// ---------- Fault identity, serialization, enumeration ----------

TEST(FaultModelTest, FaultedCodeSemantics) {
  const auto code = static_cast<std::int8_t>(0x55);  // 0b01010101
  EXPECT_EQ(fault::faulted_code(
                code, make_fault(fault::FaultKind::kStuckAt0, 1, false, 0, 0)),
            static_cast<std::int8_t>(0x54));
  EXPECT_EQ(fault::faulted_code(
                code, make_fault(fault::FaultKind::kStuckAt1, 1, false, 1, 0)),
            static_cast<std::int8_t>(0x57));
  EXPECT_EQ(fault::faulted_code(
                code, make_fault(fault::FaultKind::kBitFlip, 1, false, 7, 0)),
            static_cast<std::int8_t>(0xD5));
  EXPECT_EQ(fault::faulted_code(code, make_fault(fault::FaultKind::kByteWrite,
                                                 1, false, 0, 0, 0x80)),
            static_cast<std::int8_t>(0x80));
  // Stuck-at at the current value is the identity (a structural no-op).
  EXPECT_EQ(fault::faulted_code(
                code, make_fault(fault::FaultKind::kStuckAt1, 1, false, 0, 0)),
            code);
  // Non-code kinds never touch the byte.
  EXPECT_EQ(fault::faulted_code(code, make_fault(fault::FaultKind::kRequantMult,
                                                 1, false, 30, 0)),
            code);
}

TEST(FaultModelTest, IdsAreUniqueAndSerializationRoundTrips) {
  const auto qmodel = small_qmodel();
  auto universe =
      fault::FaultUniverse::enumerate(qmodel, fault::universe_config("full"));
  ASSERT_FALSE(universe.empty());
  // Cover the remaining kinds the presets do not enumerate.
  universe.add(make_fault(fault::FaultKind::kBitFlip, 1, false, 6, 3));
  universe.add(make_fault(fault::FaultKind::kByteWrite, 1, true, 0, 2, 0x7F));

  std::set<std::uint64_t> ids;
  for (const fault::Fault& f : universe.faults()) {
    ids.insert(f.id());
    EXPECT_FALSE(f.describe().empty());
  }
  EXPECT_EQ(ids.size(), universe.size()) << "fault ids collide";

  ByteWriter writer;
  universe.save(writer);
  ByteReader reader(writer.bytes());
  const auto loaded = fault::FaultUniverse::load(reader);
  EXPECT_EQ(loaded.faults(), universe.faults());
}

TEST(FaultModelTest, EnumerationIsDeterministicAndThinningRespectsBudget) {
  const auto qmodel = small_qmodel();
  const auto config = fault::universe_config("stuck-at");
  const auto first = fault::FaultUniverse::enumerate(qmodel, config);
  const auto second = fault::FaultUniverse::enumerate(qmodel, config);
  EXPECT_EQ(first.faults(), second.faults());
  ASSERT_GT(first.size(), 100u);

  std::set<std::uint64_t> full_ids;
  for (const fault::Fault& f : first.faults()) full_ids.insert(f.id());

  auto strided = config;
  strided.stride = 3;
  const auto thin = fault::FaultUniverse::enumerate(qmodel, strided);
  EXPECT_LT(thin.size(), first.size());
  for (const fault::Fault& f : thin.faults()) {
    EXPECT_TRUE(full_ids.count(f.id())) << f.describe();
  }

  auto capped = config;
  capped.max_faults = 50;
  const auto budget = fault::FaultUniverse::enumerate(qmodel, capped);
  EXPECT_LE(budget.size(), 50u);
  EXPECT_GT(budget.size(), 0u);
  for (const fault::Fault& f : budget.faults()) {
    EXPECT_TRUE(full_ids.count(f.id())) << f.describe();
  }
}

TEST(FaultModelTest, PresetsAndConfigRoundTrip) {
  const auto stuck = fault::universe_config("stuck-at");
  EXPECT_TRUE(stuck.weight_stuck_at);
  EXPECT_TRUE(stuck.bias_stuck_at);
  EXPECT_FALSE(stuck.requant);
  EXPECT_FALSE(stuck.accumulator);

  const auto full = fault::universe_config("full");
  EXPECT_TRUE(full.requant);
  EXPECT_TRUE(full.accumulator);
  EXPECT_THROW(fault::universe_config("bogus"), Error);

  fault::UniverseConfig config;
  config.bits = {7, 3};
  config.requant = true;
  config.requant_bits = {28};
  config.stride = 5;
  config.max_faults = 123;
  ByteWriter writer;
  config.save(writer);
  ByteReader reader(writer.bytes());
  const auto loaded = fault::UniverseConfig::load(reader);
  EXPECT_EQ(loaded.weight_stuck_at, config.weight_stuck_at);
  EXPECT_EQ(loaded.bias_stuck_at, config.bias_stuck_at);
  EXPECT_EQ(loaded.requant, config.requant);
  EXPECT_EQ(loaded.accumulator, config.accumulator);
  EXPECT_EQ(loaded.bits, config.bits);
  EXPECT_EQ(loaded.requant_bits, config.requant_bits);
  EXPECT_EQ(loaded.acc_bits, config.acc_bits);
  EXPECT_EQ(loaded.stride, config.stride);
  EXPECT_EQ(loaded.max_faults, config.max_faults);
  EXPECT_FALSE(config.summary().empty());
}

// UniverseConfig arrives inside every deliverable manifest, so its counts
// are untrusted: a forged count must fail as a typed error, never as a
// multi-terabyte allocation.
TEST(FaultModelTest, ConfigLoadRejectsForgedBitCount) {
  ByteWriter writer;
  for (int flag = 0; flag < 4; ++flag) writer.write_u8(1);
  writer.write_u64(std::uint64_t{1} << 40);  // `bits` count
  writer.write_i64(7);
  writer.write_i64(3);
  ByteReader reader(writer.take());
  EXPECT_THROW(fault::UniverseConfig::load(reader), Error);
}

TEST(FaultModelTest, UniverseLoadRejectsForgedCount) {
  ByteWriter writer;
  writer.write_u64(std::uint64_t{1} << 40);  // fault count
  make_fault(fault::FaultKind::kBitFlip, 1, false, 6, 3).save(writer);
  ByteReader reader(writer.take());
  EXPECT_THROW(fault::FaultUniverse::load(reader), Error);
}

TEST(FaultLayoutTest, FlatAddressLandsOnTheFaultsOwnCode) {
  auto qmodel = small_qmodel();
  const fault::FaultLayout layout(qmodel);
  EXPECT_EQ(layout.memory_size(),
            static_cast<std::size_t>(qmodel.param_count()));

  // The weight memory: every code in param_views() order.
  const auto flat_codes = [&qmodel] {
    std::vector<std::int8_t> codes;
    for (const auto& view : qmodel.param_views()) {
      codes.insert(codes.end(), view.codes, view.codes + view.size);
    }
    return codes;
  };
  const std::vector<std::int8_t> clean = flat_codes();

  // Mark each code fault's own code through the structural surface: the
  // one byte that moves must be the one at its flat address.
  const auto universe =
      fault::FaultUniverse::enumerate(qmodel, fault::universe_config("full"));
  bool saw_weight = false, saw_bias = false;
  for (const fault::Fault& f : universe.faults()) {
    if (!fault::is_code_fault(f.kind)) continue;
    const std::size_t address = layout.flat_address(f);
    ASSERT_LT(address, clean.size()) << f.describe();
    const auto mark = static_cast<std::int8_t>(~clean[address]);
    const std::int8_t previous =
        qmodel.poke_code(f.layer, f.is_bias != 0, f.unit, mark);
    EXPECT_EQ(previous, clean[address]) << f.describe();
    std::vector<std::int8_t> expected = clean;
    expected[address] = mark;
    EXPECT_EQ(flat_codes(), expected) << f.describe();
    qmodel.poke_code(f.layer, f.is_bias != 0, f.unit, previous);
    (f.is_bias ? saw_bias : saw_weight) = true;
  }
  EXPECT_TRUE(saw_weight);
  EXPECT_TRUE(saw_bias);
}

// ---------- Collapsing ----------

TEST(CollapseTest, StructuralCollapseDropsNoopsAndMergesEquivalents) {
  const auto qmodel = small_qmodel();
  const auto layer = static_cast<std::uint8_t>(first_dense_layer(qmodel));
  const std::int8_t code = qmodel.code_at(layer, false, 0);
  const auto bits = static_cast<std::uint8_t>(code);
  const std::uint8_t set_bit = (bits & 0x01) ? 0 : (bits & 0x02) ? 1 : 2;
  const bool bit_is_one = ((bits >> set_bit) & 1) != 0;

  fault::FaultUniverse universe;
  // No-op: stuck-at the value the bit already holds.
  universe.add(make_fault(bit_is_one ? fault::FaultKind::kStuckAt1
                                     : fault::FaultKind::kStuckAt0,
                          layer, false, set_bit, 0));
  // Effective fault, then a byte-write producing the SAME faulted code —
  // structurally equivalent, the second must merge into the first.
  universe.add(make_fault(fault::FaultKind::kBitFlip, layer, false, 7, 0));
  universe.add(make_fault(fault::FaultKind::kByteWrite, layer, false, 0, 0,
                          static_cast<std::uint8_t>(bits ^ 0x80)));
  // An unrelated survivor on another unit.
  universe.add(make_fault(fault::FaultKind::kBitFlip, layer, false, 7, 1));

  fault::CollapseStats stats;
  const auto kept = fault::collapse_structural(universe, qmodel, &stats);
  EXPECT_EQ(stats.input, 4u);
  EXPECT_EQ(stats.dropped_noop, 1u);
  EXPECT_EQ(stats.dropped_equivalent, 1u);
  EXPECT_EQ(stats.kept, 2u);
  EXPECT_EQ(stats.input, stats.kept + stats.dropped_noop +
                             stats.dropped_equivalent + stats.dropped_dead);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].kind, fault::FaultKind::kBitFlip);
  EXPECT_EQ(kept[0].unit, 0);
  EXPECT_EQ(kept[1].unit, 1);
}

TEST(CollapseTest, MatrixAnalysisGroupsClassesAndReducesDominance) {
  // 5 faults x 4 tests: f0 == f1 (one class), f2's row is a strict subset of
  // f0's (f0 dominated), f3 undetected, f4 detected by test 2 only.
  std::vector<DynamicBitset> rows(5, DynamicBitset(4));
  rows[0].set(0);
  rows[0].set(1);
  rows[1].set(0);
  rows[1].set(1);
  rows[2].set(0);
  rows[4].set(2);

  const fault::MatrixCollapse mc = fault::analyze_matrix(rows);
  EXPECT_EQ(mc.representative[0], 0u);
  EXPECT_EQ(mc.representative[1], 0u);
  EXPECT_EQ(mc.representative[2], 2u);
  EXPECT_EQ(mc.representative[3], 3u);
  EXPECT_EQ(mc.representative[4], 4u);
  EXPECT_EQ(mc.num_classes, 3u);
  EXPECT_EQ(mc.undetected, (std::vector<std::size_t>{3}));
  // Core: {f2, f4} — covering them covers f0/f1 for free.
  EXPECT_EQ(mc.core, (std::vector<std::size_t>{2, 4}));
}

// ---------- Compaction ----------

TEST(CompactTest, GreedyCoverKeepsMinimalDeterministicSet) {
  std::vector<DynamicBitset> rows(5, DynamicBitset(4));
  rows[0].set(0);
  rows[0].set(1);
  rows[1].set(0);
  rows[1].set(1);
  rows[2].set(0);
  rows[4].set(2);

  const fault::CompactionResult compaction =
      fault::compact_tests(rows, {2, 4}, 4);
  // Test 0 covers f2 (ties with test 2's gain of 1 — lowest index wins),
  // then test 2 covers f4; tests 1 and 3 are dropped.
  EXPECT_EQ(compaction.kept_tests, (std::vector<std::int64_t>{0, 2}));
  EXPECT_EQ(compaction.original_tests, 4u);
  EXPECT_EQ(compaction.target_faults, 2u);
  EXPECT_EQ(compaction.covered_faults, 2u);
  EXPECT_DOUBLE_EQ(compaction.keep_ratio(), 0.5);

  // compact_suite materializes the kept (input, label) pairs in order.
  auto qmodel = small_qmodel();
  const auto inputs = random_pool(4, 77);
  const auto suite = suite_from(qmodel, inputs);
  const auto kept = fault::compact_suite(suite, compaction);
  ASSERT_EQ(kept.size(), 2u);
  expect_bitwise_equal(kept.inputs()[0], suite.inputs()[0], "kept input 0");
  expect_bitwise_equal(kept.inputs()[1], suite.inputs()[2], "kept input 1");
  EXPECT_EQ(kept.golden_labels()[0], suite.golden_labels()[0]);
  EXPECT_EQ(kept.golden_labels()[1], suite.golden_labels()[2]);
}

// ---------- Point-fault surface ----------

TEST(ApplyFaultTest, PointPatchMatchesFullRefreshAndRevertsExactly) {
  auto clean = small_qmodel();
  const Tensor batch = stack_batch(random_pool(8, 99));
  const Tensor clean_logits = clean.forward(batch);
  const auto dense = first_dense_layer(clean);
  const auto layer = static_cast<std::uint8_t>(dense);
  const auto logit_layer =
      static_cast<std::uint8_t>(clean.layers().size() - 1);

  // Code faults: apply_fault's O(layer) patch must land bit-identical to
  // mutating the canonical codes + a FULL refresh_derived() rebuild.
  const std::vector<fault::Fault> code_faults = {
      make_fault(fault::FaultKind::kStuckAt1, layer, false, 7, 3),
      make_fault(fault::FaultKind::kStuckAt0, layer, true, 4, 1),
      make_fault(fault::FaultKind::kByteWrite, logit_layer, false, 0, 2, 0x55),
  };
  for (const fault::Fault& f : code_faults) {
    auto patched = clean;
    const fault::AppliedFault applied = fault::apply_fault(patched, f);
    const std::int8_t target = fault::faulted_code(applied.prev_code, f);

    auto rebuilt = clean;
    auto views = rebuilt.param_views();
    views[view_index(rebuilt, f.layer, f.is_bias != 0)].codes[f.unit] = target;
    rebuilt.refresh_derived();

    expect_bitwise_equal(patched.forward(batch), rebuilt.forward(batch),
                         "patched vs rebuilt: " + f.describe());
    fault::revert_fault(patched, applied);
    EXPECT_EQ(patched.code_at(f.layer, f.is_bias != 0, f.unit),
              applied.prev_code);
    expect_bitwise_equal(patched.forward(batch), clean_logits,
                         "revert: " + f.describe());
  }

  // A stuck-at matching the current bit is a no-op: flagged, zero effect.
  auto noop_model = clean;
  const std::int8_t c0 = clean.code_at(dense, false, 0);
  const bool bit0 = (static_cast<std::uint8_t>(c0) & 1) != 0;
  const fault::AppliedFault noop = fault::apply_fault(
      noop_model, make_fault(bit0 ? fault::FaultKind::kStuckAt1
                                  : fault::FaultKind::kStuckAt0,
                             layer, false, 0, 0));
  EXPECT_TRUE(noop.noop);
  expect_bitwise_equal(noop_model.forward(batch), clean_logits, "noop");

  // Requant-multiplier corruption: bit 30 of the Q31 multiplier flips, the
  // revert record restores the calibrated value exactly.
  auto requant_model = clean;
  const std::int32_t calibrated = clean.requant_multiplier(dense, 0);
  const fault::AppliedFault rq = fault::apply_fault(
      requant_model, make_fault(fault::FaultKind::kRequantMult, layer, false,
                                30, 0));
  EXPECT_EQ(rq.prev_multiplier, calibrated);
  EXPECT_EQ(requant_model.requant_multiplier(dense, 0),
            calibrated ^ (std::int32_t{1} << 30));
  fault::revert_fault(requant_model, rq);
  EXPECT_EQ(requant_model.requant_multiplier(dense, 0), calibrated);
  expect_bitwise_equal(requant_model.forward(batch), clean_logits,
                       "requant revert");

  // Accumulator stuck-at: armed by apply, disarmed by revert.
  auto acc_model = clean;
  const fault::AppliedFault acc = fault::apply_fault(
      acc_model,
      make_fault(fault::FaultKind::kAccStuckAt1, layer, false, 23, 0));
  fault::revert_fault(acc_model, acc);
  expect_bitwise_equal(acc_model.forward(batch), clean_logits, "acc revert");
}

// ---------- Simulator ----------

TEST(SimulatorTest, EarlyExitFirstDetectionMatchesFullMatrix) {
  auto qmodel = small_qmodel();
  const auto inputs = random_pool(12, 55);
  const auto suite = suite_from(qmodel, inputs);
  auto config = fault::universe_config("stuck-at");
  config.max_faults = 200;
  const auto universe = fault::FaultUniverse::enumerate(qmodel, config);

  fault::FaultSimulator sim(qmodel, suite);
  const fault::SimResult full = sim.run_batched(universe, {});
  ASSERT_GT(full.detected, 0u) << "universe too benign to exercise detection";

  for (const std::int64_t chunk : {std::int64_t{1}, std::int64_t{3},
                                   std::int64_t{16}}) {
    fault::SimOptions options;
    options.mode = fault::SimMode::kEarlyExit;
    options.chunk = chunk;
    const fault::SimResult early = sim.run_batched(universe, options);
    EXPECT_TRUE(early.rows.empty());
    EXPECT_EQ(early.first_detected, full.first_detected)
        << "chunk " << chunk;
    EXPECT_EQ(early.detected, full.detected);

    const fault::SimResult seq_early = sim.run_sequential(universe, options);
    EXPECT_EQ(seq_early.first_detected, full.first_detected)
        << "sequential, chunk " << chunk;
  }
}

TEST(SimulatorTest, BatchedMatchesSequentialOnZooModels) {
  for (const bool use_cifar : {false, true}) {
    const auto trained =
        use_cifar ? exp::cifar_relu(tiny_options()) : exp::mnist_tanh(tiny_options());
    const auto pool =
        use_cifar ? exp::shapes_train(80) : exp::digits_train(80);
    auto qmodel = quant::QuantModel::quantize(trained.model, pool.images);
    const std::vector<Tensor> inputs(pool.images.begin(),
                                     pool.images.begin() + 10);
    const auto suite = suite_from(qmodel, inputs);

    // Deliberately NOT structurally collapsed: the scored universe keeps its
    // genuine no-op stuck-at faults, which both loops must agree are
    // undetectable.
    auto config = fault::universe_config("stuck-at");
    config.max_faults = 96;
    const auto universe = fault::FaultUniverse::enumerate(qmodel, config);
    std::size_t noops = 0;
    for (const fault::Fault& f : universe.faults()) {
      const std::int8_t prev = qmodel.code_at(f.layer, f.is_bias != 0, f.unit);
      if (fault::faulted_code(prev, f) == prev) ++noops;
    }
    ASSERT_GT(noops, 0u) << "universe carries no no-op faults";

    fault::FaultSimulator sim(qmodel, suite);
    fault::SimOptions options;
    const fault::SimResult seq = sim.run_sequential(universe, options);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                      std::size_t{16}}) {
      ThreadPool pool_override(threads);
      options.pool = &pool_override;
      const fault::SimResult batched = sim.run_batched(universe, options);
      expect_same_result(seq, batched,
                         trained.name + " x" + std::to_string(threads));
    }
  }
}

// ---------- Reference oracle (tests/quant_reference.h) ----------

TEST(FaultOracleTest, ForwardResumeMatchesOracleOnFaultedZooModels) {
  for (const bool use_cifar : {false, true}) {
    const auto trained = use_cifar ? exp::cifar_relu(tiny_options())
                                   : exp::mnist_tanh(tiny_options());
    const auto pool = use_cifar ? exp::shapes_train(20) : exp::digits_train(20);
    quant::QuantModel clean =
        quant::QuantModel::quantize(trained.model, pool.images);
    const Tensor batch = stack_batch(std::vector<Tensor>(
        pool.images.begin(), pool.images.begin() + 5));
    nn::Workspace trace_ws;
    quant::QuantModel::ForwardTrace trace;
    const Tensor clean_logits = clean.forward_traced(batch, trace_ws, trace);

    // One fault of each kind at every conv/dense layer, resumed from that
    // layer on a faulted copy: the resumed logits must equal the oracle's
    // full forward of the faulted model.
    std::size_t changed = 0, checked = 0;
    for (std::size_t li = 1; li < clean.layers().size(); ++li) {
      const quant::QLayer& q = clean.layers()[li];
      if (q.kind != quant::QLayerKind::kConv2d &&
          q.kind != quant::QLayerKind::kDense) {
        continue;
      }
      const auto layer = static_cast<std::uint8_t>(li);
      const std::int64_t channel = quant::weight_channels(q) / 2;
      std::vector<fault::Fault> faults = {
          make_fault(fault::FaultKind::kBitFlip, layer, false, 6,
                     channel * quant::weight_fanin(q)),
          make_fault(fault::FaultKind::kBitFlip, layer, true, 6, channel),
          make_fault(fault::FaultKind::kAccStuckAt1, layer, false, 23,
                     channel)};
      if (!q.dequant_output) {
        faults.push_back(
            make_fault(fault::FaultKind::kRequantMult, layer, false, 29,
                       channel));
      }
      for (const fault::Fault& f : faults) {
        quant::QuantModel faulted = clean;
        fault::apply_fault(faulted, f);
        nn::Workspace ws;
        const Tensor resumed = faulted.forward_resume(trace, li, ws);
        expect_bitwise_equal(quant::reference::forward(faulted, batch),
                             resumed, trained.name + " " + f.describe());
        for (std::int64_t i = 0; i < resumed.numel(); ++i) {
          if (resumed[i] != clean_logits[i]) {
            ++changed;
            break;
          }
        }
        ++checked;
      }
    }
    EXPECT_GT(checked, 8u) << trained.name;
    EXPECT_GT(changed, checked / 2) << trained.name << ": faults too benign";
  }
}

TEST(FaultOracleTest, BatchedRowsMatchOracleLabelsOnZooModels) {
  for (const bool use_cifar : {false, true}) {
    const auto trained = use_cifar ? exp::cifar_relu(tiny_options())
                                   : exp::mnist_tanh(tiny_options());
    const auto pool = use_cifar ? exp::shapes_train(40) : exp::digits_train(40);
    auto qmodel = quant::QuantModel::quantize(trained.model, pool.images);
    const std::vector<Tensor> inputs(pool.images.begin(),
                                     pool.images.begin() + 12);
    const Tensor batch = stack_batch(inputs);
    // Thinned "full" universe: every 1024th weight unit keeps the mix of
    // code and per-channel (bias, requant, accumulator) faults balanced, so
    // the matrix holds both detected and undetected rows.
    auto config = fault::universe_config("full");
    config.stride = 1024;
    config.max_faults = 48;
    const auto universe = fault::FaultUniverse::enumerate(qmodel, config);

    fault::FaultSimulator sim(qmodel, suite_from(qmodel, inputs));
    const fault::SimResult result = sim.run_batched(universe);
    EXPECT_GT(result.detected, 0u) << trained.name;
    EXPECT_LT(result.detected, universe.size()) << trained.name;
    const std::vector<int> clean = quant::reference::labels(qmodel, batch);
    EXPECT_EQ(result.clean_labels, clean) << trained.name;
    ASSERT_EQ(result.rows.size(), universe.size());
    for (std::size_t f = 0; f < universe.size(); ++f) {
      const fault::AppliedFault applied = fault::apply_fault(qmodel, universe[f]);
      const std::vector<int> labels = quant::reference::labels(qmodel, batch);
      fault::revert_fault(qmodel, applied);
      for (std::size_t t = 0; t < labels.size(); ++t) {
        EXPECT_EQ(result.rows[f].test(t), labels[t] != clean[t])
            << trained.name << " " << universe[f].describe() << " test " << t;
      }
    }
  }
}

// ---------- Product flow ----------

TEST(QualifyTest, EmptyCoreKeepsTheWholeSuite) {
  // Every fault kind off: nothing is scored, nothing detected, so the
  // dominance core is empty and compaction has nothing to cover.
  auto qmodel = small_qmodel();
  const auto suite = suite_from(qmodel, random_pool(6, 77));
  fault::QualifyOptions options;
  options.universe.weight_stuck_at = false;
  options.universe.bias_stuck_at = false;
  options.compact = true;
  validate::TestSuite compacted;
  const fault::FaultQualification q =
      fault::qualify_suite(qmodel, suite, options, &compacted);
  EXPECT_EQ(q.scored, 0);
  EXPECT_EQ(q.core, 0);
  EXPECT_EQ(q.kept_tests, static_cast<std::int64_t>(suite.size()));
  EXPECT_EQ(compacted.size(), suite.size());
  EXPECT_EQ(compacted.golden_labels(), suite.golden_labels());
}

TEST(QualifyTest, VendorShipsFaultQualifiedBundleAndUserReproduces) {
  const auto trained = exp::mnist_tanh(tiny_options());
  const auto pool = exp::digits_train(60);

  pipeline::VendorOptions options;
  options.method = "greedy";
  options.backend = "int8";
  options.num_tests = 12;
  options.generator.coverage = trained.coverage;
  options.model_name = trained.name;
  options.fault_model = "stuck-at";
  options.fault_budget = 256;
  options.compact = true;

  pipeline::VendorReport report;
  pipeline::Deliverable shipped = pipeline::VendorPipeline(options).run(
      trained.model, trained.item_shape, trained.num_classes, pool.images,
      &report);

  EXPECT_EQ(shipped.manifest.fault_model, "stuck-at");
  EXPECT_GT(shipped.manifest.fault_universe, 0);
  EXPECT_EQ(shipped.manifest.fault_universe, report.fault_stats.scored);
  EXPECT_EQ(report.fault_stats.scored, report.fault_stats.collapsed);
  EXPECT_GT(report.fault_stats.untestable, 0);
  EXPECT_GE(report.fault_stats.enumerated - report.fault_stats.untestable,
            report.fault_stats.collapsed);
  EXPECT_EQ(shipped.manifest.fault_detected, report.fault_stats.detected);
  EXPECT_EQ(shipped.suite.size(),
            static_cast<std::size_t>(report.fault_stats.kept_tests));
  EXPECT_LE(shipped.suite.size(), 12u);
  EXPECT_EQ(shipped.manifest.num_tests,
            static_cast<std::int64_t>(shipped.suite.size()));
  EXPECT_NE(shipped.manifest.summary().find("faults"), std::string::npos);

  // Ship it and have the user re-measure: the universe regenerates from the
  // manifest's UniverseConfig, so detected/collapsed must REPRODUCE exactly
  // — including after compaction (its contract preserves the detected set).
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnnv_fault_deliverable.bin")
          .string();
  constexpr std::uint64_t kKey = 0xFA171CAFE;
  shipped.save_file(path, kKey);
  const auto validator = pipeline::UserValidator::load_file(path, kKey);
  EXPECT_TRUE(validator.validate().passed);
  const fault::FaultQualification remeasured = validator.fault_coverage();
  EXPECT_EQ(remeasured.scored, shipped.manifest.fault_universe);
  EXPECT_EQ(remeasured.detected, shipped.manifest.fault_detected);
  std::filesystem::remove(path);

  // Guard rails: fault qualification needs the int8 backend, compaction
  // needs a fault model.
  auto bad_backend = options;
  bad_backend.backend = "float";
  EXPECT_THROW(pipeline::VendorPipeline{bad_backend}, Error);
  auto bad_compact = options;
  bad_compact.fault_model.clear();
  EXPECT_THROW(pipeline::VendorPipeline{bad_compact}, Error);
}

}  // namespace
}  // namespace dnnv
