// Quantized engine tests: fixed-point requantization edge cases, the int8
// GEMM and fused conv against direct loops, QuantModel::forward against the
// reference oracle (tests/quant_reference.h), calibration observers, batch
// invariance, serialization round trips, analytic error bounds on the zoo
// models and the quantized detection harness end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>

#include "attack/sba.h"
#include "coverage/criterion.h"
#include "exp/model_zoo.h"
#include "ip/quantized_ip.h"
#include "nn/builder.h"
#include "nn/trainer.h"
#include "quant/observer.h"
#include "quant/qconv.h"
#include "quant/qgemm.h"
#include "quant/quant_model.h"
#include "quant/quantize.h"
#include "tensor/batch.h"
#include "tests/quant_reference.h"
#include "tests/test_nets.h"
#include "util/error.h"
#include "util/serialize.h"
#include "util/thread_pool.h"
#include "validate/detection.h"

namespace dnnv::quant {
namespace {

using nn::ActivationKind;
using nn::Sequential;
using test_nets::probe_pool;

// ---------- Fixed-point requantization ----------

// amax_of reduces over independent lanes; max |v| ignores NaNs and every
// |v| is at least +0, so it must return the serial loop's float for any
// length, with NaNs, signed zeros and denormals anywhere.
TEST(QuantizeMathTest, LaneSplitAmaxEqualsSerialLoop) {
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            -0.0f,
                            0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min() * 3.0f,
                            0.75f,
                            -2.5f};
  Rng rng(12);
  for (const std::int64_t count : {0, 1, 7, 15, 16, 17, 31, 33, 100, 1000}) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<float> values(static_cast<std::size_t>(count));
      for (float& v : values) {
        v = rng.flip(0.5) ? specials[rng.uniform_int(0, 6)]
                          : static_cast<float>(rng.normal(0.0, 1.0));
      }
      if (trial == 3) {
        for (float& v : values) v = specials[rng.uniform_int(0, 4)];
      }
      float serial = 0.0f;
      for (const float v : values) serial = std::max(serial, std::fabs(v));
      const float lanes = amax_of(values.data(), count);
      EXPECT_EQ(std::memcmp(&lanes, &serial, sizeof(float)), 0)
          << "count " << count << " trial " << trial;
    }
  }
}

TEST(RequantizeTest, TiesRoundHalfAwayFromZero) {
  // ratio 1/2: acc=1 -> 0.5 -> 1, acc=3 -> 1.5 -> 2 (and mirrored).
  const Requant rq = requant_from_real(0.5);
  EXPECT_EQ(requantize(1, rq), 1);
  EXPECT_EQ(requantize(3, rq), 2);
  EXPECT_EQ(requantize(-1, rq), -1);
  EXPECT_EQ(requantize(-3, rq), -2);
  EXPECT_EQ(requantize(4, rq), 2);  // exact, no tie
}

TEST(RequantizeTest, Int32AccumulatorSaturation) {
  // Unit ratio at the accumulator extremes must clamp to the code range,
  // not wrap.
  const Requant rq = requant_from_real(1.0);
  EXPECT_EQ(requantize(std::numeric_limits<std::int32_t>::max(), rq), kQmax);
  EXPECT_EQ(requantize(std::numeric_limits<std::int32_t>::min(), rq), kQmin);
  EXPECT_EQ(requantize(200, rq), kQmax);
  EXPECT_EQ(requantize(-200, rq), kQmin);
  EXPECT_EQ(requantize(100, rq), 100);
  EXPECT_EQ(requantize(-100, rq), -100);
}

TEST(RequantizeTest, FixedPointMatchesRealArithmetic) {
  // Across magnitudes: the Q31 encoding reproduces round(acc * r) exactly
  // for every in-range result (the mantissa error is < 2^-30 relative).
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const double r = std::exp(rng.uniform(-12.0, 2.0));
    const auto acc = static_cast<std::int32_t>(rng.uniform_int(-100000, 100000));
    const double real = static_cast<double>(acc) * r;
    if (std::fabs(real) > 126.4) continue;  // keep away from the clamp edge
    const double rounded = std::round(std::fabs(real)) *
                           (real < 0 ? -1.0 : 1.0);  // half away from zero
    // Near-tie results can legitimately differ by the mantissa ulp; skip the
    // knife-edge cases.
    if (std::fabs(std::fabs(real) - (std::floor(std::fabs(real)) + 0.5)) < 1e-6) {
      continue;
    }
    EXPECT_EQ(requantize(acc, requant_from_real(r)),
              static_cast<std::int8_t>(rounded))
        << "acc=" << acc << " r=" << r;
  }
}

TEST(RequantizeTest, ZeroRatioAndZeroChannels) {
  EXPECT_EQ(requant_from_real(0.0).multiplier, 0);
  EXPECT_EQ(requantize(12345, requant_from_real(0.0)), 0);
  // Near-dead ratios (below the Q31 range) collapse to the zero encoding
  // instead of throwing — the continuous limit of the amax==0 fallback.
  EXPECT_EQ(requant_from_real(1e-15).multiplier, 0);
  EXPECT_EQ(requantize(std::numeric_limits<std::int32_t>::max(),
                       requant_from_real(1e-15)),
            0);
  // All-zero channels quantize to scale 1 with exact zero codes.
  EXPECT_EQ(choose_scale(0.0f), 1.0f);
  const float weights[6] = {0.0f, 0.0f, 0.0f, 1.0f, -2.0f, 0.5f};
  const auto scales = weight_scales(weights, 2, 3, Granularity::kPerChannel);
  ASSERT_EQ(scales.size(), 2u);
  EXPECT_EQ(scales[0], 1.0f);
  EXPECT_EQ(quantize_value(0.0f, scales[0]), 0);
  EXPECT_FLOAT_EQ(scales[1], 2.0f / 127.0f);
}

TEST(QuantizeValueTest, TiesAndClamping) {
  EXPECT_EQ(quantize_value(0.5f, 1.0f), 1);
  EXPECT_EQ(quantize_value(-0.5f, 1.0f), -1);
  EXPECT_EQ(quantize_value(1000.0f, 1.0f), kQmax);
  EXPECT_EQ(quantize_value(-1000.0f, 1.0f), kQmin);
}

// ---------- int8 GEMM ----------

std::vector<std::int8_t> random_codes(std::int64_t count, Rng& rng) {
  std::vector<std::int8_t> v(static_cast<std::size_t>(count));
  for (auto& x : v) x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  return v;
}

TEST(QgemmTest, TiledAndSerialMatchDirectLoops) {
  Rng rng(3);
  // The last shape clears the ~1M-MAC parallel gate with several macro
  // tiles, so the pools really split it.
  const std::int64_t shapes[][3] = {{1, 1, 1},     {3, 5, 7},
                                    {8, 32, 64},   {33, 17, 70},
                                    {64, 72, 300}, {130, 48, 9},
                                    {130, 600, 80}};
  for (const auto& s : shapes) {
    const auto m = s[0], n = s[1], k = s[2];
    const auto a = random_codes(m * k, rng);
    const auto b = random_codes(k * n, rng);
    std::vector<std::int32_t> expected(static_cast<std::size_t>(m * n));
    reference::gemm(m, n, k, a.data(), b.data(), expected.data());
    std::vector<std::int32_t> actual(static_cast<std::size_t>(m * n), -1);
    QGemmOptions serial;
    serial.force_serial = true;
    qgemm(m, n, k, a.data(), b.data(), actual.data(), serial);
    EXPECT_EQ(expected, actual) << "serial m=" << m << " n=" << n << " k=" << k;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                      std::size_t{16}}) {
      ThreadPool pool(threads);
      QGemmOptions tiled;
      tiled.pool = &pool;
      std::fill(actual.begin(), actual.end(), -1);
      qgemm(m, n, k, a.data(), b.data(), actual.data(), tiled);
      EXPECT_EQ(expected, actual) << qgemm_kernel_name() << " threads="
                                  << threads << " m=" << m << " n=" << n
                                  << " k=" << k;
    }
  }
}

TEST(QgemmTest, ExtremeCodesNoOverflow) {
  // All-(-127) times all-(+127) at a K large enough to stress the unsigned
  // offset headroom.
  const std::int64_t m = 4, n = 4, k = 4096;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k), -127);
  std::vector<std::int8_t> b(static_cast<std::size_t>(k * n), 127);
  std::vector<std::int32_t> c(static_cast<std::size_t>(m * n));
  qgemm(m, n, k, a.data(), b.data(), c.data());
  for (const auto v : c) EXPECT_EQ(v, -127 * 127 * k);
}

TEST(QgemmTest, RejectsOversizedK) {
  std::vector<std::int8_t> a(1), b(1);
  std::vector<std::int32_t> c(1);
  EXPECT_THROW(qgemm(1, 1, 70000, a.data(), b.data(), c.data()), Error);
}

TEST(QgemmTest, TiledParallelNestedInsideParallelForStaysExact) {
  Rng rng(23);
  const std::int64_t m = 96, n = 512, k = 64;
  const auto a = random_codes(m * k, rng);
  const auto b = random_codes(k * n, rng);
  std::vector<std::int32_t> expected(static_cast<std::size_t>(m * n));
  reference::gemm(m, n, k, a.data(), b.data(), expected.data());

  // The ValidationService shape: lanes run inside pool workers, and each
  // lane's GEMM tiles split across the same pool. Every lane must still
  // produce the exact result.
  ThreadPool pool(4);
  constexpr std::size_t kLanes = 8;
  std::vector<std::vector<std::int32_t>> lane_out(
      kLanes, std::vector<std::int32_t>(static_cast<std::size_t>(m * n), -1));
  pool.parallel_for(kLanes, [&](std::size_t lane) {
    QGemmOptions opts;
    opts.pool = &pool;
    qgemm(m, n, k, a.data(), b.data(), lane_out[lane].data(), opts);
  });
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(expected, lane_out[lane]) << "lane " << lane;
  }
}

// ---------- Fused int8 convolution ----------

TEST(QConvFusedTest, MatchesDirectConvolutionAcrossShapes) {
  // Odd planes, stride > 1, asymmetric H/W, padless and padded, 1x1 — the
  // fused packer's fast and general row paths all get hit.
  const QConvShape shapes[] = {
      {1, 7, 9, 3, 3, 1, 1},    // odd "same"-pad plane (contiguous fast path)
      {2, 11, 5, 4, 3, 2, 1},   // stride 2
      {3, 9, 9, 5, 5, 1, 2},    // 5x5 same pad
      {2, 9, 7, 4, 3, 1, 0},    // no pad (out_w != width: general path)
      {4, 6, 10, 8, 2, 2, 0},   // even kernel, stride 2
      {1, 1, 1, 1, 1, 1, 0},    // degenerate 1x1
      {3, 13, 13, 33, 3, 1, 1}, // out_channels past one kMR panel span
  };
  Rng rng(29);
  for (const QConvShape& s : shapes) {
    const std::int64_t m = s.out_channels, n = s.plane(), k = s.fanin();
    const auto weights = random_codes(m * k, rng);
    const auto image = random_codes(s.in_channels * s.height * s.width, rng);
    std::vector<std::int32_t> expected(static_cast<std::size_t>(m * n));
    reference::conv(s, weights.data(), image.data(), expected.data());

    const PackedConvWeights packed = pack_conv_weights(m, k, weights.data());
    const QConvScratchSizes sizes = qconv_scratch_sizes(s);
    std::vector<std::int8_t> b_pack(sizes.b_pack);
    std::vector<std::int32_t> colsum(sizes.colsum);
    std::vector<std::int8_t> rowbuf(sizes.rowbuf);
    std::vector<std::int32_t> fused(static_cast<std::size_t>(m * n), -1);
    qconv2d_fused(s, packed, image.data(), fused.data(),
                  {b_pack.data(), colsum.data(), rowbuf.data()});
    EXPECT_EQ(expected, fused) << qgemm_kernel_name() << " fused vs direct";
  }
}

// ---------- Observers ----------

TEST(ObserverTest, MinMaxTracksPeak) {
  MinMaxObserver obs;
  const float chunk1[] = {0.5f, -2.0f, 1.0f};
  const float chunk2[] = {-0.25f, 1.5f};
  obs.observe(chunk1, 3);
  obs.observe(chunk2, 2);
  EXPECT_FLOAT_EQ(obs.amax(), 2.0f);
}

TEST(ObserverTest, PercentileIgnoresOutliers) {
  PercentileObserver obs(0.99);
  std::vector<float> values;
  for (int i = 0; i < 1000; ++i) values.push_back(static_cast<float>(i % 10));
  values.push_back(1000.0f);  // lone outlier
  obs.observe(values.data(), static_cast<std::int64_t>(values.size()));
  EXPECT_LT(obs.amax(), 50.0f);
  EXPECT_GE(obs.amax(), 9.0f);

  MinMaxObserver minmax;
  minmax.observe(values.data(), static_cast<std::int64_t>(values.size()));
  EXPECT_FLOAT_EQ(minmax.amax(), 1000.0f);
}

TEST(ObserverTest, PercentileAllZeros) {
  PercentileObserver obs(0.999);
  const float zeros[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  obs.observe(zeros, 4);
  EXPECT_FLOAT_EQ(obs.amax(), 0.0f);
}

// ---------- QuantModel ----------

Sequential trained_mlp(std::uint64_t seed = 5) {
  Rng rng(seed);
  Sequential model = nn::build_mlp(6, {12}, 3, ActivationKind::kReLU, rng);
  Rng data_rng(seed + 1);
  std::vector<Tensor> inputs;
  std::vector<int> labels;
  for (int i = 0; i < 150; ++i) {
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

TEST(QuantModelTest, BatchSizeInvarianceDense) {
  Sequential model = trained_mlp();
  const auto pool = probe_pool(32, Shape{6});
  QuantModel qm = QuantModel::quantize(model, pool);

  const Tensor batch = stack_batch(pool);
  const Tensor batched = qm.forward(batch);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Tensor single = qm.forward(stack_batch({pool[i]}));
    for (std::int64_t c = 0; c < single.numel(); ++c) {
      EXPECT_EQ(batched[static_cast<std::int64_t>(i) * single.numel() + c],
                single[c])
          << "item " << i << " logit " << c;  // bit-identical, not just close
    }
  }
}

TEST(QuantModelTest, BatchSizeInvarianceConv) {
  Rng rng(11);
  nn::ConvNetSpec spec;
  spec.in_channels = 1;
  spec.in_height = 12;
  spec.in_width = 12;
  spec.conv_channels = {4, 4};
  spec.dense_units = {16};
  spec.activation = ActivationKind::kTanh;
  Sequential model = nn::build_convnet(spec, rng);
  const auto pool = probe_pool(9, Shape{1, 12, 12}, 13);
  QuantModel qm = QuantModel::quantize(model, pool);

  const Tensor batched = qm.forward(stack_batch(pool));
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Tensor single = qm.forward(stack_batch({pool[i]}));
    for (std::int64_t c = 0; c < single.numel(); ++c) {
      EXPECT_EQ(batched[static_cast<std::int64_t>(i) * single.numel() + c],
                single[c]);
    }
  }
}

TEST(QuantModelTest, ActivationMasksBatchInvariantAndOnInt8) {
  Sequential model = trained_mlp();
  const auto pool = probe_pool(16, Shape{6});
  QuantModel qm = QuantModel::quantize(model, pool);

  const auto batched = qm.activation_masks_int8(stack_batch(pool));
  ASSERT_EQ(batched.size(), pool.size());
  EXPECT_EQ(batched.front().size(), 12u);  // one bit per hidden LUT unit
  std::size_t any_set = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const auto single = qm.activation_masks_int8(stack_batch({pool[i]}));
    EXPECT_TRUE(batched[i] == single.front()) << "item " << i;
    any_set += batched[i].count();
  }
  EXPECT_GT(any_set, 0u);
}

TEST(QuantModelTest, DequantizedReferenceTargetsExecutedWeights) {
  Sequential model = trained_mlp();
  const auto pool = probe_pool(24, Shape{6});
  QuantModel qm = QuantModel::quantize(model, pool);

  Sequential ref = qm.dequantized_reference();
  // The reference must carry the quantized (not original) weights…
  const auto qviews = qm.param_views();
  auto rviews = ref.param_views();
  ASSERT_EQ(qviews.size(), rviews.size());
  for (std::size_t v = 0; v < qviews.size(); ++v) {
    ASSERT_EQ(qviews[v].size, rviews[v].size);
    for (std::int64_t i = 0; i < qviews[v].size; ++i) {
      const float scale =
          qviews[v].scales[static_cast<std::size_t>(i / qviews[v].per_channel)];
      EXPECT_FLOAT_EQ(rviews[v].data[i], scale * qviews[v].codes[i]);
    }
  }
  // …and feed the coverage engine so masks target the executed int8 model.
  cov::ParameterCoverage coverage(ref);
  const auto mask = coverage.activation_mask(pool.front());
  EXPECT_EQ(mask.size(), static_cast<std::size_t>(ref.param_count()));
  EXPECT_GT(mask.count(), 0u);
}

TEST(QuantModelTest, PerTensorVsPerChannelAgreementWithFloat) {
  Sequential model = trained_mlp();
  const auto pool = probe_pool(40, Shape{6});
  QuantConfig per_tensor;
  per_tensor.weight_granularity = Granularity::kPerTensor;
  QuantModel qt = QuantModel::quantize(model, pool, per_tensor);
  QuantModel qc = QuantModel::quantize(model, pool);  // per-channel default

  const Tensor batch = stack_batch(pool);
  const auto float_labels = model.predict_labels(batch);
  int agree_t = 0, agree_c = 0;
  const auto labels_t = qt.predict_labels(batch);
  const auto labels_c = qc.predict_labels(batch);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    agree_t += labels_t[i] == float_labels[i];
    agree_c += labels_c[i] == float_labels[i];
  }
  EXPECT_GE(agree_t, static_cast<int>(pool.size()) - 6);
  EXPECT_GE(agree_c, static_cast<int>(pool.size()) - 6);
  // Per-channel grids are never coarser than the per-tensor grid.
  EXPECT_LE(qc.logit_error_bound(), qt.logit_error_bound() + 1e-9);
}

TEST(QuantModelTest, NearDeadChannelQuantizesWithoutThrowing) {
  // A hidden unit whose weights are tiny-but-nonzero (weight decay, or an
  // attack zeroing a row) must not abort quantization or the per-trial
  // requantize path — it collapses to a silent channel.
  Sequential model = trained_mlp();
  auto views = model.param_views();
  for (std::int64_t i = 0; i < 6; ++i) views[0].data[i] = 1e-12f;
  const auto pool = probe_pool(16, Shape{6});
  QuantModel qm = QuantModel::quantize(model, pool);
  const Tensor logits = qm.forward(stack_batch(pool));
  EXPECT_EQ(logits.shape()[0], 16);

  QuantModel updated = qm;
  updated.requantize_weights_from(model);  // the detection-trial path
  EXPECT_EQ(updated.predict_labels(stack_batch(pool)),
            qm.predict_labels(stack_batch(pool)));
}

TEST(QuantModelTest, PercentileCalibrationRunsEndToEnd) {
  Sequential model = trained_mlp();
  const auto pool = probe_pool(40, Shape{6});
  QuantConfig config;
  config.calibration = CalibrationMethod::kPercentile;
  config.percentile = 0.995;
  QuantModel qm = QuantModel::quantize(model, pool, config);

  const Tensor batch = stack_batch(pool);
  const auto float_labels = model.predict_labels(batch);
  const auto quant_labels = qm.predict_labels(batch);
  int agree = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    agree += quant_labels[i] == float_labels[i];
  }
  // Percentile clipping trades range for grid resolution; agreement should
  // stay high on a well-separated classifier.
  EXPECT_GE(agree, static_cast<int>(pool.size()) - 8);
}

TEST(QuantModelTest, SerializeRoundTripWithCrcFooter) {
  Sequential model = trained_mlp();
  const auto pool = probe_pool(16, Shape{6});
  QuantModel qm = QuantModel::quantize(model, pool);

  const std::string path = ::testing::TempDir() + "quant_model.dqm8";
  qm.save_file(path);
  QuantModel loaded = QuantModel::load_file(path);
  EXPECT_EQ(loaded.summary(), qm.summary());
  EXPECT_EQ(loaded.num_classes(), qm.num_classes());
  EXPECT_EQ(loaded.param_count(), qm.param_count());

  const Tensor batch = stack_batch(pool);
  EXPECT_EQ(loaded.predict_labels(batch), qm.predict_labels(batch));
  const Tensor a = qm.forward(batch);
  const Tensor b = loaded.forward(batch);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);

  // A corrupted payload byte must trip the CRC-32 footer.
  auto bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x40;
  const std::string bad_path = ::testing::TempDir() + "quant_model_bad.dqm8";
  write_file(bad_path, bytes);
  EXPECT_THROW(QuantModel::load_file(bad_path), Error);
  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

// ---------- Forged model streams ----------

/// The fields of one conv record that the forged streams vary.
struct ConvRecord {
  std::int64_t in_channels = 1;
  std::int64_t out_channels = 4;
  std::int64_t kernel = 3;
  std::int64_t stride = 1;
  std::int64_t pad = 1;
  std::uint64_t scales = 1;  ///< weight-scale entries written
  std::uint8_t kind = static_cast<std::uint8_t>(QLayerKind::kConv2d);
  /// A max-pool record after the conv, when `pool` is set.
  bool pool = false;
  std::int64_t pool_kernel = 2;
  std::int64_t pool_stride = 2;
  /// Written in place of the true layer count, when set.
  std::optional<std::uint64_t> layer_count;
};

/// A QuantModel stream of one conv layer, laid out field by field as
/// QuantModel::save writes it, with 36 weight and 4 bias codes, and an
/// optional max-pool record after it.
ByteReader conv_stream(const ConvRecord& r) {
  ByteWriter w;
  w.write_u32(0x384D5144);  // "DQM8"
  w.write_u32(1);           // version
  w.write_u8(static_cast<std::uint8_t>(Granularity::kPerChannel));
  w.write_u8(0);  // calibration
  w.write_f64(99.99);
  w.write_i64(64);
  w.write_u8(0);  // no Normalize
  w.write_u64(r.layer_count.value_or(r.pool ? 2 : 1));
  w.write_u8(r.kind);
  w.write_string("conv2d0");
  w.write_f32(0.05f);  // in_scale
  w.write_f32(0.1f);   // out_scale
  for (const std::int64_t v :
       {r.in_channels, r.out_channels, r.kernel, r.stride, r.pad}) {
    w.write_i64(v);
  }
  w.write_i64(0);  // in_features
  w.write_i64(0);  // out_features
  w.write_u8(0);   // dequant_output
  w.write_u64(r.scales);
  for (std::uint64_t i = 0; i < r.scales; ++i) w.write_f32(0.01f);
  const std::vector<std::uint8_t> weights(36, 3), bias(4, 1);
  w.write_u64(weights.size());
  w.write_bytes(weights.data(), weights.size());
  w.write_f32(0.02f);  // bias_scale
  w.write_u64(bias.size());
  w.write_bytes(bias.data(), bias.size());
  if (r.pool) {
    w.write_u8(static_cast<std::uint8_t>(QLayerKind::kMaxPool));
    w.write_string("maxpool1");
    w.write_f32(0.1f);  // in_scale
    w.write_f32(0.1f);  // out_scale
    w.write_i64(r.pool_kernel);
    w.write_i64(r.pool_stride);
  }
  return ByteReader(w.take());
}

TEST(QuantModelTest, ForgedConvStreamLoadsWhenWellFormed) {
  ByteReader per_tensor = conv_stream({});
  EXPECT_EQ(QuantModel::load(per_tensor).param_count(), 40);
  ConvRecord per_channel;
  per_channel.scales = 4;
  ByteReader reader = conv_stream(per_channel);
  EXPECT_EQ(QuantModel::load(reader).param_count(), 40);
}

// The layer count is untrusted: zero, or more records than the stream can
// hold (the smallest takes 17 bytes: kind, name length, two scales), is
// rejected from the count alone, before any record is decoded. The middle
// count lies far below 2^16, so only the byte bound can reject it.
TEST(QuantModelTest, LoadRejectsForgedLayerCount) {
  constexpr std::size_t kHeader = 4 + 4 + 1 + 1 + 8 + 8 + 1 + 8;
  ByteReader clean = conv_stream({});
  const std::size_t records = clean.remaining() - kHeader;
  for (const std::uint64_t count :
       {std::uint64_t{0}, std::uint64_t{records / 17 + 1},
        std::uint64_t{1} << 40}) {
    ConvRecord r;
    r.layer_count = count;
    ByteReader reader = conv_stream(r);
    EXPECT_THROW(QuantModel::load(reader), Error) << count;
    EXPECT_EQ(reader.remaining(), records) << count;
  }
}

// Each record below crashed or overflowed before load checked it: no scale
// at all (wscale_for dereferenced an empty vector), fewer scales than
// channels (a heap over-read) and a geometry whose weight count overflows a
// signed 64-bit product.
TEST(QuantModelTest, LoadRejectsConvWithoutWeightScales) {
  ConvRecord r;
  r.scales = 0;
  ByteReader reader = conv_stream(r);
  EXPECT_THROW(QuantModel::load(reader), Error);
}

TEST(QuantModelTest, LoadRejectsTooFewWeightScales) {
  ConvRecord r;
  r.scales = 2;
  ByteReader reader = conv_stream(r);
  EXPECT_THROW(QuantModel::load(reader), Error);
}

TEST(QuantModelTest, LoadRejectsOverflowingConvGeometry) {
  ConvRecord r;
  r.in_channels = std::int64_t{1} << 32;
  r.kernel = std::int64_t{1} << 16;
  ByteReader reader = conv_stream(r);
  EXPECT_THROW(QuantModel::load(reader), Error);
}

// A kind byte outside QLayerKind once loaded as a layer with no fields.
TEST(QuantModelTest, LoadRejectsUnknownLayerKind) {
  ConvRecord r;
  r.kind = 9;
  ByteReader reader = conv_stream(r);
  EXPECT_THROW(QuantModel::load(reader), Error);
}

TEST(QuantModelTest, LoadRejectsUnboundedConvStrideAndPadding) {
  ConvRecord pad;
  pad.pad = std::int64_t{1} << 40;
  ByteReader pad_reader = conv_stream(pad);
  EXPECT_THROW(QuantModel::load(pad_reader), Error);
  ConvRecord stride;
  stride.stride = 4;  // past the 3-wide kernel
  ByteReader stride_reader = conv_stream(stride);
  EXPECT_THROW(QuantModel::load(stride_reader), Error);
}

// A max-pool kernel or stride below 1 is rejected by load itself, not only
// by the verifier after it.
TEST(QuantModelTest, LoadRejectsInvalidMaxPoolGeometry) {
  ConvRecord pooled;
  pooled.pool = true;
  ByteReader reader = conv_stream(pooled);
  EXPECT_EQ(QuantModel::load(reader).layers().size(), 2u);
  for (const auto& [kernel, stride] :
       {std::pair<std::int64_t, std::int64_t>{0, 2}, {2, 0}, {-3, 2},
        {2, std::numeric_limits<std::int64_t>::min()}}) {
    ConvRecord bad = pooled;
    bad.pool_kernel = kernel;
    bad.pool_stride = stride;
    ByteReader bad_reader = conv_stream(bad);
    EXPECT_THROW(QuantModel::load(bad_reader), Error)
        << "k" << kernel << " s" << stride;
  }
}

TEST(QuantModelTest, LogitErrorBoundHoldsOnZooModels) {
  // The satellite cross-check: int8-engine logits stay within the analytic
  // bound of the float reference on both zoo models, per-channel AND
  // per-tensor. Min/max calibration over the evaluation inputs keeps every
  // requant clamp a projection, so the bound is sound by construction.
  exp::ZooOptions options;
  options.tiny = true;
  struct Case {
    exp::TrainedModel trained;
    std::vector<Tensor> pool;
  };
  Case cases[] = {
      {exp::mnist_tanh(options), exp::digits_train(48).images},
      {exp::cifar_relu(options), exp::shapes_train(48).images},
  };
  for (auto& [trained, pool] : cases) {
    for (const Granularity granularity :
         {Granularity::kPerChannel, Granularity::kPerTensor}) {
      QuantConfig config;
      config.weight_granularity = granularity;
      QuantModel qm = QuantModel::quantize(trained.model, pool, config);
      const double bound = qm.logit_error_bound();
      EXPECT_GT(bound, 0.0);
      ASSERT_TRUE(std::isfinite(bound));

      const Tensor batch = stack_batch(pool);
      const Tensor quant_logits = qm.forward(batch);
      const Tensor float_logits = trained.model.forward(batch);
      double max_diff = 0.0;
      for (std::int64_t i = 0; i < quant_logits.numel(); ++i) {
        max_diff = std::max(
            max_diff,
            static_cast<double>(std::fabs(quant_logits[i] - float_logits[i])));
      }
      EXPECT_LE(max_diff, bound)
          << trained.name << " granularity "
          << (granularity == Granularity::kPerChannel ? "per-channel"
                                                      : "per-tensor");
    }
  }
}

TEST(QuantModelTest, RequantizeWeightsFromTracksPerturbedModel) {
  Sequential model = trained_mlp();
  const auto pool = probe_pool(16, Shape{6});
  QuantModel qm = QuantModel::quantize(model, pool);

  Sequential perturbed = model.clone();
  perturbed.set_param(0, perturbed.get_param(0) + 1.5f);
  QuantModel updated = qm;
  updated.requantize_weights_from(perturbed);

  // Codes now reflect the perturbed float weights; re-quantizing from the
  // clean model restores the original behaviour exactly.
  QuantModel fresh = QuantModel::quantize(perturbed, pool);
  // (fresh re-calibrates activations; compare against a same-calibration
  // re-quantization instead)
  QuantModel back = updated;
  back.requantize_weights_from(model);
  const Tensor batch = stack_batch(pool);
  EXPECT_EQ(back.predict_labels(batch), qm.predict_labels(batch));
  const Tensor a = back.forward(batch);
  const Tensor b = qm.forward(batch);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);
  (void)fresh;
}

// ---------- Reference oracle (tests/quant_reference.h) ----------

void expect_matches_oracle(QuantModel& qm, const Tensor& batch,
                           const std::string& what) {
  const Tensor expected = reference::forward(qm, batch);
  const Tensor actual = qm.forward(batch);
  ASSERT_EQ(expected.shape(), actual.shape()) << what;
  for (std::int64_t i = 0; i < expected.numel(); ++i) {
    ASSERT_EQ(expected[i], actual[i]) << what << " logit " << i;
  }
}

TEST(QuantOracleTest, ForwardMatchesOracleOnZooModels) {
  exp::ZooOptions options;
  options.tiny = true;
  exp::TrainedModel cases[] = {exp::mnist_tanh(options),
                               exp::cifar_relu(options)};
  std::vector<Tensor> pools[] = {exp::digits_train(12).images,
                                 exp::shapes_train(12).images};
  for (std::size_t ci = 0; ci < 2; ++ci) {
    QuantModel qm = QuantModel::quantize(cases[ci].model, pools[ci]);
    for (const std::int64_t batch_size : {std::int64_t{1}, std::int64_t{7}}) {
      const std::vector<Tensor> items(pools[ci].begin(),
                                      pools[ci].begin() + batch_size);
      expect_matches_oracle(qm, stack_batch(items),
                            cases[ci].name + " batch " +
                                std::to_string(batch_size));
    }
  }
}

TEST(QuantOracleTest, ForwardMatchesOracleOnRandomConvNets) {
  for (const test_nets::RandomConvCase& c : test_nets::random_conv_cases()) {
    const Sequential model = c.model();
    const auto pool = c.probes();
    for (const Granularity granularity :
         {Granularity::kPerTensor, Granularity::kPerChannel}) {
      QuantConfig config;
      config.weight_granularity = granularity;
      QuantModel qm = QuantModel::quantize(model, pool, config);
      const std::string what =
          std::string(c.name) +
          (granularity == Granularity::kPerTensor ? " per-tensor"
                                                  : " per-channel");
      expect_matches_oracle(qm, stack_batch({pool[0]}), what + " batch 1");
      expect_matches_oracle(qm, stack_batch(pool), what + " batch 9");
    }
  }
}

// ---------- Quantized detection (end-to-end smoke) ----------

TEST(QuantDetectionTest, RunsEndToEndOnInt8Backend) {
  Sequential model = trained_mlp();
  const auto pool = probe_pool(40, Shape{6});
  QuantModel shipped = QuantModel::quantize(model, pool);

  // Masks computed on the executed int8 model steer the suite order.
  Sequential ref = shipped.dequantized_reference();
  const auto masks = cov::make_parameter_criterion(ref, {})->measure_pool(pool);
  std::vector<std::pair<std::size_t, std::size_t>> scored;  // (count, index)
  for (std::size_t i = 0; i < masks.size(); ++i) {
    scored.emplace_back(masks[i].count(), i);
  }
  std::sort(scored.rbegin(), scored.rend());
  std::vector<Tensor> suite_inputs;
  for (std::size_t i = 0; i < 10; ++i) {
    suite_inputs.push_back(pool[scored[i].second]);
  }
  // Golden labels from the int8 artifact itself.
  QuantModel clean = shipped;
  auto suite = validate::TestSuite::from_labels(
      suite_inputs, clean.predict_labels(stack_batch(suite_inputs)));

  validate::DetectionConfig config;
  config.trials = 12;
  config.test_counts = {5, 10};
  validate::Int8Backend backend(shipped);
  const auto outcome = validate::run_detection(
      model, suite, backend, attack::SingleBiasAttack(), pool, config);
  EXPECT_GT(outcome.successful_trials, 0);
  ASSERT_EQ(outcome.rate_per_count.size(), 2u);
  for (const double rate : outcome.rate_per_count) {
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
  }
  EXPECT_GE(outcome.rate_per_count[1], outcome.rate_per_count[0]);

  // Determinism: the integer engine makes reruns bit-identical.
  const auto rerun = validate::run_detection(
      model, suite, backend, attack::SingleBiasAttack(), pool, config);
  EXPECT_EQ(rerun.rate_per_count, outcome.rate_per_count);
  EXPECT_EQ(rerun.successful_trials, outcome.successful_trials);
}

// ---------- QuantizedIp ----------

TEST(QuantizedIpBackendTest, FaultInjectionReachesInt8Engine) {
  Sequential model = trained_mlp();
  const auto pool = probe_pool(30, Shape{6});
  ip::QuantizedIp quantized(model, Shape{6}, pool);
  const auto clean = quantized.predict_all(pool);
  for (std::size_t a = 0; a < quantized.memory_size() / 2; ++a) {
    quantized.write_byte(a, 0x7F);
  }
  const auto corrupted = quantized.predict_all(pool);
  int changed = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    changed += clean[i] != corrupted[i];
  }
  EXPECT_GT(changed, 0);
}

}  // namespace
}  // namespace dnnv::quant
