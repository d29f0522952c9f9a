// Int8 conv/GEMM roofline — the quantized engine's speed claim, recorded.
//
// Two axes per shape on the micro-kernel compiled into this binary (AVX-512
// VNNI when the build targets it, scalar otherwise): scheduling (serial vs
// tiled-parallel over the shared pool) and, for convolutions, the fused
// panel packer with pre-packed weights. Square GEMMs anchor against the
// float blocked kernel; the zoo conv shapes are the layers the vendor/user
// pipelines actually spend their cycles in. Every timed variant is verified
// (naive probes for GEMM, fused == direct convolution for conv) — a
// throughput number from a wrong kernel is worthless, so any mismatch exits 1.
//
// With --json the run is written as BENCH_quant_gemm.json (config, hardware,
// kernel, metric series); with --baseline it diffs against a committed
// snapshot and fails on >--max-regress% regressions (enforced only when the
// baseline hardware matches — see bench_json.h).
//
// Usage: ./build/bench_quant_gemm [--sizes 128,256,384] [--reps N] [--quick]
//          [--json [path]] [--baseline BENCH_quant_gemm.json] [--max-regress 15]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "quant/qconv.h"
#include "quant/qgemm.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "tests/quant_reference.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using namespace dnnv;

double gops(std::int64_t m, std::int64_t n, std::int64_t k, double seconds,
            int reps) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k) * reps / seconds / 1e9;
}

/// Best of three measurement windows. On a shared host, interference only
/// ever slows a window down, so the max is the low-noise estimate — single
/// windows were seen swinging 20%+ between runs, which no regression gate
/// can sit on top of.
template <class Fn>
double best_gops(std::int64_t m, std::int64_t n, std::int64_t k, int reps,
                 Fn&& fn) {
  double best = 0.0;
  for (int window = 0; window < 3; ++window) {
    Stopwatch timer;
    for (int r = 0; r < reps; ++r) fn();
    best = std::max(best, gops(m, n, k, timer.elapsed_seconds(), reps));
  }
  return best;
}

/// Spot-check a few int8 results against naive accumulation.
bool verify_qgemm(std::int64_t n, const std::vector<std::int8_t>& a,
                  const std::vector<std::int8_t>& b,
                  const std::vector<std::int32_t>& c) {
  Rng rng(99);
  for (int probe = 0; probe < 64; ++probe) {
    const auto i = static_cast<std::int64_t>(rng.uniform_u64(
        static_cast<std::uint64_t>(n)));
    const auto j = static_cast<std::int64_t>(rng.uniform_u64(
        static_cast<std::uint64_t>(n)));
    std::int32_t acc = 0;
    for (std::int64_t p = 0; p < n; ++p) {
      acc += static_cast<std::int32_t>(a[static_cast<std::size_t>(i * n + p)]) *
             static_cast<std::int32_t>(b[static_cast<std::size_t>(p * n + j)]);
    }
    if (acc != c[static_cast<std::size_t>(i * n + j)]) return false;
  }
  return true;
}

/// Conv layer shapes of the two zoo models (full-scale channel plans) — the
/// inference cycles the generators, qualification and serving actually burn.
struct ConvCase {
  const char* name;
  quant::QConvShape shape;
  bool quick;  ///< part of the --quick subset
};

const ConvCase kConvCases[] = {
    {"mnist_c1", {1, 28, 28, 8, 3, 1, 1}, true},
    {"mnist_c2", {8, 28, 28, 8, 3, 1, 1}, false},
    {"mnist_c3", {8, 14, 14, 16, 3, 1, 1}, true},
    {"mnist_c4", {16, 14, 14, 16, 3, 1, 1}, false},
    {"cifar_c1", {3, 32, 32, 16, 3, 1, 1}, false},
    {"cifar_c2", {16, 32, 32, 16, 3, 1, 1}, true},
    {"cifar_c3", {16, 16, 16, 32, 3, 1, 1}, true},
    {"cifar_c4", {32, 16, 16, 32, 3, 1, 1}, false},
};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"sizes", "reps", "quick", "json", "baseline",
                                  "max-regress"});
  const bool quick = args.get_bool("quick", false);
  bench::banner("bench_quant_gemm",
                "int8 conv/GEMM roofline: scheduling x shape");
  std::cout << "engine: " << quant::qgemm_config_string() << "\n\n";

  std::vector<std::int64_t> sizes = quick
                                        ? std::vector<std::int64_t>{128}
                                        : std::vector<std::int64_t>{128, 256, 384};
  if (const std::string s = args.get_string("sizes", ""); !s.empty()) {
    sizes.clear();
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) sizes.push_back(std::atoll(item.c_str()));
  }
  const int gemm_reps = args.get_int("reps", quick ? 5 : 10);
  const int conv_reps = quick ? 60 : 300;
  ThreadPool& pool = ThreadPool::shared();
  const bool tiled_differs = pool.num_threads() > 1;

  std::vector<bench::BenchMetric> metrics;
  bool all_ok = true;

  const std::string kernel = quant::qgemm_kernel_name();

  // ---- Square GEMM anchor: int8 vs float blocked ----
  for (const std::int64_t n : sizes) {
    Rng rng(1);
    const Tensor fa = Tensor::randn(Shape{n, n}, rng);
    const Tensor fb = Tensor::randn(Shape{n, n}, rng);
    Tensor fc(Shape{n, n});
    const auto qa = bench::random_int8_codes(n * n, rng);
    const auto qb = bench::random_int8_codes(n * n, rng);
    std::vector<std::int32_t> qc(static_cast<std::size_t>(n * n));

    Stopwatch timer;
    for (int r = 0; r < gemm_reps; ++r) {
      gemm(false, false, n, n, n, 1.0f, fa.data(), fb.data(), 0.0f, fc.data());
    }
    const double float_s = timer.elapsed_seconds();
    std::cout << "gemm n=" << n << ": float blocked "
              << gops(n, n, n, float_s, gemm_reps) << " GFLOP/s\n";

    const std::string tag = "gemm" + std::to_string(n) + "_" + kernel;
    quant::QGemmOptions serial;
    serial.force_serial = true;
    quant::qgemm(n, n, n, qa.data(), qb.data(), qc.data(), serial);  // warmup
    const double serial_gops = best_gops(n, n, n, gemm_reps, [&] {
      quant::qgemm(n, n, n, qa.data(), qb.data(), qc.data(), serial);
    });
    const bool ok = verify_qgemm(n, qa, qb, qc);
    all_ok = all_ok && ok;

    const double tiled_gops = best_gops(n, n, n, gemm_reps, [&] {
      quant::qgemm(n, n, n, qa.data(), qb.data(), qc.data());
    });
    all_ok = all_ok && verify_qgemm(n, qa, qb, qc);

    std::cout << "  " << tag << ": serial " << serial_gops << " GOP/s, tiled "
              << tiled_gops << " GOP/s (" << tiled_gops / serial_gops << "x)"
              << (ok ? "" : "  [VERIFY FAILED]") << "\n";
    metrics.push_back({tag + "_serial", serial_gops, "gops", true});
    metrics.push_back({tag + "_tiled", tiled_gops, "gops", true});
  }

  // ---- Zoo conv roofline: fused conv, serial vs tiled ----
  std::cout << "\nconv roofline (zoo shapes, GOP/s; fused = panel-fused "
               "im2col + pre-packed weights):\n";
  for (const ConvCase& c : kConvCases) {
    if (quick && !c.quick) continue;
    const quant::QConvShape& s = c.shape;
    const std::int64_t m = s.out_channels, n = s.plane(), k = s.fanin();
    Rng rng(7);
    const auto image =
        bench::random_int8_codes(s.in_channels * s.height * s.width, rng);
    const auto weights = bench::random_int8_codes(m * k, rng);
    std::vector<std::int32_t> acc(static_cast<std::size_t>(m * n));
    const std::string tag = std::string("conv_") + c.name + "_" + kernel;

    // Pre-packed weights (once, outside the timer — that is the deployment
    // shape) + panel-fused im2col.
    const quant::PackedConvWeights packed =
        quant::pack_conv_weights(m, k, weights.data());
    const quant::QConvScratchSizes sizes = quant::qconv_scratch_sizes(s);
    std::vector<std::int8_t> b_pack(sizes.b_pack);
    std::vector<std::int32_t> colsum(sizes.colsum);
    std::vector<std::int8_t> rowbuf(sizes.rowbuf);
    const quant::QConvScratch scratch{b_pack.data(), colsum.data(),
                                      rowbuf.data()};
    auto fused = [&](const quant::QGemmOptions& o) {
      quant::qconv2d_fused(s, packed, image.data(), acc.data(), scratch, o);
    };

    std::vector<std::int32_t> expected(acc.size());
    quant::reference::conv(s, weights.data(), image.data(), expected.data());
    auto time_variant = [&](const quant::QGemmOptions& o) {
      fused(o);  // warmup, and the result the check below reads
      const double g = best_gops(m, n, k, conv_reps, [&] { fused(o); });
      return std::pair{g, acc == expected};
    };
    quant::QGemmOptions serial;
    serial.force_serial = true;
    const auto [fused_serial, serial_exact] = time_variant(serial);
    const auto [fused_tiled, tiled_exact] =
        tiled_differs ? time_variant(quant::QGemmOptions{})
                      : std::pair{fused_serial, serial_exact};
    const bool exact = serial_exact && tiled_exact;
    all_ok = all_ok && exact;

    std::cout << "  " << tag << " (M=" << m << " N=" << n << " K=" << k
              << "): fused serial " << fused_serial << ", tiled "
              << fused_tiled << (exact ? "" : "  [FUSED != DIRECT]") << "\n";
    metrics.push_back({tag + "_fused_serial", fused_serial, "gops", true});
    metrics.push_back({tag + "_fused_tiled", fused_tiled, "gops", true});
  }

  if (!all_ok) {
    std::cerr << "kernel verification FAILED\n";
    return 1;
  }

  if (args.has("json")) {
    const std::string path =
        bench::resolve_json_out("quant_gemm", args.get_string("json", ""));
    std::map<std::string, std::string> config;
    config["quick"] = quick ? "1" : "0";
    config["gemm_reps"] = std::to_string(gemm_reps);
    config["conv_reps"] = std::to_string(conv_reps);
    bench::write_bench_json(path, "quant_gemm", config, metrics);
  }
  if (args.has("baseline")) {
    const std::string baseline =
        args.get_string("baseline", "BENCH_quant_gemm.json");
    const double max_regress = args.get_double("max-regress", 15.0);
    std::cout << "\ndiff vs " << baseline << " (max regression " << max_regress
              << "%):\n";
    const int regressions =
        bench::diff_against_baseline(metrics, baseline, max_regress);
    if (regressions > 0) {
      std::cerr << regressions << " metric(s) regressed beyond " << max_regress
                << "%\n";
      return 1;
    }
  }
  return 0;
}
