// Micro-benchmarks (google-benchmark) for the hot kernels: GEMM, conv
// forward/backward, the direct conv and dense passes, max-pool, one
// Algorithm 2 synthesis step, one int8 test replay, the two coverage passes,
// and bitset set algebra.
//
// On top of google-benchmark's own flags (--benchmark_filter,
// --benchmark_min_time, ...) this main speaks the repo's BENCH_*.json
// schema: --json [path|family] snapshots one metric per benchmark
// (items/sec where the benchmark reports it, ns/iteration otherwise) and
// --baseline path / --max-regress pct diff this run against a committed
// snapshot with the same per-host family rules as every other bench.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "coverage/parameter_coverage.h"
#include "nn/activation_layer.h"
#include "nn/builder.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/maxpool2d.h"
#include "quant/quant_model.h"
#include "tensor/batch.h"
#include "tensor/gemm.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace {

using namespace dnnv;

void BM_Gemm(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::randn(Shape{n, n}, rng);
  const Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    gemm(false, false, n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

nn::Sequential bench_convnet(Rng& rng) {
  nn::ConvNetSpec spec;
  spec.in_channels = 3;
  spec.in_height = 32;
  spec.in_width = 32;
  spec.conv_channels = {16, 16, 32, 32};
  spec.dense_units = {128};
  spec.num_classes = 10;
  return nn::build_convnet(spec, rng);
}

void BM_ConvNetForward(benchmark::State& state) {
  Rng rng(2);
  auto model = bench_convnet(rng);
  const auto batch = state.range(0);
  Rng data_rng(3);
  const Tensor input =
      Tensor::rand_uniform(Shape{batch, 3, 32, 32}, data_rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor logits = model.forward(input);
    benchmark::DoNotOptimize(logits.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ConvNetForward)->Arg(1)->Arg(16)->Arg(50);

void BM_ConvNetBackward(benchmark::State& state) {
  Rng rng(4);
  auto model = bench_convnet(rng);
  Rng data_rng(5);
  const Tensor input =
      Tensor::rand_uniform(Shape{8, 3, 32, 32}, data_rng, 0.0f, 1.0f);
  const std::vector<int> labels{0, 1, 2, 3, 4, 5, 6, 7};
  for (auto _ : state) {
    const Tensor logits = model.forward(input);
    const auto loss = nn::softmax_cross_entropy(logits, labels);
    model.zero_grads();
    Tensor grad = model.backward(loss.grad_logits);
    benchmark::DoNotOptimize(grad.data());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_ConvNetBackward);

// One descent step of Algorithm 2 as GradientGenerator::generate_batch_tensor
// runs it: a workspace forward of a k = 10 batch (one input per class), the
// cross-entropy toward each class, and the input-only reverse pass, with the
// generator's default backward leak on the activations.
void BM_SynthesisStep(benchmark::State& state) {
  Rng rng(9);
  auto model = bench_convnet(rng);
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    if (auto* act = dynamic_cast<nn::ActivationLayer*>(&model.layer(l))) {
      act->set_backward_leak(0.05f);
    }
  }
  Rng data_rng(10);
  const Tensor batch =
      Tensor::rand_uniform(Shape{10, 3, 32, 32}, data_rng, -1.0f, 1.0f);
  const std::vector<int> labels{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  nn::Workspace ws;
  for (auto _ : state) {
    const Tensor& logits = model.forward(batch, ws);
    const auto loss = nn::softmax_cross_entropy(logits, labels);
    const Tensor& grad = model.input_gradient(loss.grad_logits, ws);
    benchmark::DoNotOptimize(grad.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_SynthesisStep);

// Conv2d's direct passes on a k = 10 batch: shape 0 is cifar_relu_tiny's
// second conv ([10, 8, 32, 32] -> 8), shape 1 bench_convnet's third
// ([10, 16, 16, 16] -> 32, 144 taps); both 3x3, pad 1. Items are
// multiply-accumulates, so items/s reads as MAC/s. Forward and input
// gradient are Algorithm 2's descent step; the sensitivity pass is one item
// of the coverage sweep, the value backward one training step.
struct ConvShape {
  std::int64_t channels, size, out_channels;
};
constexpr ConvShape kConvShapes[] = {{8, 32, 8}, {16, 16, 32}};

struct ConvBench {
  explicit ConvBench(const ConvShape& s, Rng& rng)
      : conv({s.channels, s.out_channels, 3, 1, 1}, rng),
        input(Tensor::rand_uniform(Shape{10, s.channels, s.size, s.size}, rng,
                                   -1.0f, 1.0f)),
        output(conv.output_shape(input.shape())),
        macs(output.numel() * s.channels * 9) {}
  nn::Conv2d conv;
  Tensor input;
  Tensor output;
  std::int64_t macs;
  nn::Workspace ws;
};

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(11);
  ConvBench b(kConvShapes[state.range(0)], rng);
  for (auto _ : state) {
    b.conv.forward_into(0, b.input, b.output, b.ws);
    benchmark::DoNotOptimize(b.output.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * b.macs);
}
BENCHMARK(BM_Conv2dForward)->Arg(0)->Arg(1)->ArgNames({"shape"});

void BM_Conv2dInputGradient(benchmark::State& state) {
  Rng rng(12);
  ConvBench b(kConvShapes[state.range(0)], rng);
  b.conv.forward_into(0, b.input, b.output, b.ws);
  const Tensor grad_output = Tensor::randn(b.output.shape(), rng);
  Tensor grad_input(b.input.shape());
  for (auto _ : state) {
    b.conv.backward_into(0, grad_output, grad_input, b.ws);
    benchmark::DoNotOptimize(grad_input.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * b.macs);
}
BENCHMARK(BM_Conv2dInputGradient)->Arg(0)->Arg(1)->ArgNames({"shape"});

// One item's sensitivity pass after a 10-item forward, as the coverage
// sweep runs it: the weight reduction over s and |x|, the bias sums and the
// input sensitivity through |W| (the MACs of two passes over one item).
void BM_Conv2dSensitivity(benchmark::State& state) {
  Rng rng(13);
  ConvBench b(kConvShapes[state.range(0)], rng);
  b.conv.forward_into(0, b.input, b.output, b.ws);
  Tensor sens = Tensor::randn(slice_batch(b.output, 0).shape(), rng);
  for (std::int64_t e = 0; e < sens.numel(); ++e) sens[e] = std::fabs(sens[e]);
  sens = stack_batch({sens});
  Tensor sens_input(stack_batch({slice_batch(b.input, 0)}).shape());
  for (auto _ : state) {
    b.conv.zero_grads();
    b.conv.sensitivity_backward_item(0, 3, sens, sens_input, b.ws);
    benchmark::DoNotOptimize(sens_input.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * b.macs / 10);
}
BENCHMARK(BM_Conv2dSensitivity)->Arg(0)->Arg(1)->ArgNames({"shape"});

// The value backward() of the batch: the weight gradient, the bias sums and
// the input gradient (the MACs of two passes).
void BM_Conv2dWeightGradient(benchmark::State& state) {
  Rng rng(14);
  ConvBench b(kConvShapes[state.range(0)], rng);
  b.conv.forward_into(0, b.input, b.output, b.ws);
  const Tensor grad_output = Tensor::randn(b.output.shape(), rng);
  for (auto _ : state) {
    b.conv.zero_grads();
    Tensor grad_input = b.conv.backward(grad_output);
    benchmark::DoNotOptimize(grad_input.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * b.macs);
}
BENCHMARK(BM_Conv2dWeightGradient)->Arg(0)->Arg(1)->ArgNames({"shape"});

// cifar_relu_tiny's hidden dense layer (2048 -> 48) on a k = 10 batch, as
// Algorithm 2's descent step runs it, and on a 16-item pool-sweep batch.
// Items are multiply-accumulates.
void BM_DenseForward(benchmark::State& state) {
  const std::int64_t batch = state.range(0);
  Rng rng(15);
  nn::Dense dense(2048, 48, rng);
  const Tensor input =
      Tensor::rand_uniform(Shape{batch, 2048}, rng, 0.0f, 1.0f);
  Tensor output(dense.output_shape(input.shape()));
  nn::Workspace ws;
  for (auto _ : state) {
    dense.forward_into(0, input, output, ws);
    benchmark::DoNotOptimize(output.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch * 2048 * 48);
}
BENCHMARK(BM_DenseForward)->Arg(10)->Arg(16)->ArgNames({"batch"});

void BM_DenseInputGradient(benchmark::State& state) {
  const std::int64_t batch = state.range(0);
  Rng rng(16);
  nn::Dense dense(2048, 48, rng);
  const Tensor input =
      Tensor::rand_uniform(Shape{batch, 2048}, rng, 0.0f, 1.0f);
  Tensor output(dense.output_shape(input.shape()));
  nn::Workspace ws;
  dense.forward_into(0, input, output, ws);
  const Tensor grad_output = Tensor::randn(output.shape(), rng);
  Tensor grad_input(input.shape());
  for (auto _ : state) {
    dense.backward_into(0, grad_output, grad_input, ws);
    benchmark::DoNotOptimize(grad_input.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch * 2048 * 48);
}
BENCHMARK(BM_DenseInputGradient)->Arg(10)->Arg(16)->ArgNames({"batch"});

// cifar_relu_tiny's 2x2 stride-2 max-pool on a k = 10 batch of ReLU
// outputs (about half the taps zero). Items are input values.
void BM_MaxPoolForward(benchmark::State& state) {
  Rng rng(17);
  nn::MaxPool2d pool(2, 2);
  Tensor input = Tensor::randn(Shape{10, 8, 32, 32}, rng);
  for (std::int64_t e = 0; e < input.numel(); ++e) {
    input[e] = std::max(0.0f, input[e]);
  }
  Tensor output(pool.output_shape(input.shape()));
  nn::Workspace ws;
  for (auto _ : state) {
    pool.forward_into(0, input, output, ws);
    benchmark::DoNotOptimize(output.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * input.numel());
}
BENCHMARK(BM_MaxPoolForward);

// One 24-test replay on the int8 engine, as a receipt's validate(), a served
// tampered request and a fault-simulation row run it: a warmed
// QuantModel::forward of 24 items. Arg 0 has mnist_tanh_tiny's geometry,
// arg 1 cifar_relu_tiny's, with random weights, quantized on 32 random
// items. Items are replayed tests; macs_per_s counts the conv and dense
// multiply-accumulates.
void BM_QuantReplay(benchmark::State& state) {
  const bool cifar = state.range(0) == 1;
  nn::ConvNetSpec spec;
  spec.in_channels = cifar ? 3 : 1;
  spec.in_height = spec.in_width = cifar ? 32 : 28;
  spec.conv_channels = cifar ? std::vector<std::int64_t>{8, 8}
                             : std::vector<std::int64_t>{6, 6};
  spec.dense_units = {cifar ? 48 : 32};
  spec.activation =
      cifar ? nn::ActivationKind::kReLU : nn::ActivationKind::kTanh;
  Rng rng(18);
  const nn::Sequential model = nn::build_convnet(spec, rng);
  const Shape item{spec.in_channels, spec.in_height, spec.in_width};
  std::vector<Tensor> pool;
  for (int i = 0; i < 32; ++i) {
    pool.push_back(Tensor::rand_uniform(item, rng, 0.0f, 1.0f));
  }
  quant::QuantModel qm = quant::QuantModel::quantize(model, pool);
  constexpr std::int64_t kTests = 24;
  const Tensor batch = stack_batch(
      std::vector<Tensor>(pool.begin(), pool.begin() + kTests));

  std::int64_t macs = 0;  // per item
  Shape shape{1, spec.in_channels, spec.in_height, spec.in_width};
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    const nn::Layer& layer = model.layer(l);
    const Shape out = layer.output_shape(shape);
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer)) {
      const auto& c = conv->config();
      macs += out.numel() * c.in_channels * c.kernel * c.kernel;
    } else if (const auto* dense = dynamic_cast<const nn::Dense*>(&layer)) {
      macs += dense->in_features() * dense->out_features();
    }
    shape = out;
  }

  nn::Workspace ws;
  qm.forward(batch, ws);  // sizes the workspace arenas
  for (auto _ : state) {
    const Tensor& logits = qm.forward(batch, ws);
    benchmark::DoNotOptimize(logits.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kTests);
  state.counters["macs_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kTests * macs),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_QuantReplay)->Arg(0)->Arg(1);

// The mask pipeline: one batched forward + per-item sensitivity passes on a
// shared workspace (batch 1 is ParameterCoverage::activation_mask).
void BM_CoverageMasksBatched(benchmark::State& state) {
  const auto batch_size = state.range(0);
  Rng rng(6);
  auto model = bench_convnet(rng);
  cov::ParameterCoverage coverage(model, cov::CoverageConfig{});
  Rng data_rng(7);
  const Tensor batch = Tensor::rand_uniform(Shape{batch_size, 3, 32, 32},
                                            data_rng, 0.0f, 1.0f);
  for (auto _ : state) {
    auto masks = coverage.activation_masks_batched(batch);
    benchmark::DoNotOptimize(masks.front().count());
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
BENCHMARK(BM_CoverageMasksBatched)->Arg(1)->Arg(16)->Arg(32);

void BM_BitsetMarginalGain(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  DynamicBitset covered(bits);
  DynamicBitset candidate(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    if (rng.flip(0.4)) covered.set(i);
    if (rng.flip(0.4)) candidate.set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(covered.count_new_bits(candidate));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(bits));
}
BENCHMARK(BM_BitsetMarginalGain)->Arg(55042)->Arg(280218);

/// ConsoleReporter that also collects one BenchMetric per benchmark run:
/// "BM_Gemm/128" -> {"BM_Gemm_128_items_per_s", ...} when the benchmark
/// reports items processed, {"BM_Gemm_128_ns_per_iter", ...} otherwise.
class MetricCollector : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      std::string name = run.benchmark_name();
      for (char& c : name) {
        if (c == '/' || c == ':' || c == '=') c = '_';
      }
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        metrics.push_back(
            {name + "_items_per_s", items->second.value, "items/s", true});
      } else if (run.iterations > 0) {
        metrics.push_back({name + "_ns_per_iter",
                           run.real_accumulated_time * 1e9 /
                               static_cast<double>(run.iterations),
                           "ns", false});
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }

  std::vector<dnnv::bench::BenchMetric> metrics;
};

}  // namespace

int main(int argc, char** argv) {
  // Partition argv: the BENCH_*.json flags are ours, everything else passes
  // through to google-benchmark untouched.
  bool has_json = false;
  bool has_baseline = false;
  std::string json_value;
  std::string baseline_value;
  double max_regress = 25.0;
  std::vector<char*> bm_argv{argv[0]};
  const auto value_of = [&](int& i) -> std::string {
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      return argv[++i];
    }
    return "";
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      has_json = true;
      json_value = value_of(i);
    } else if (std::strcmp(argv[i], "--baseline") == 0) {
      has_baseline = true;
      baseline_value = value_of(i);
    } else if (std::strcmp(argv[i], "--max-regress") == 0) {
      const std::string v = value_of(i);
      if (!v.empty()) max_regress = std::stod(v);
    } else {
      bm_argv.push_back(argv[i]);
    }
  }
  int bm_argc = static_cast<int>(bm_argv.size());
  benchmark::Initialize(&bm_argc, bm_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bm_argc, bm_argv.data())) {
    return 1;
  }

  MetricCollector reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (has_json) {
    const std::string path =
        dnnv::bench::resolve_json_out("ops_micro", json_value);
    dnnv::bench::write_bench_json(path, "ops_micro", {}, reporter.metrics);
  }
  if (has_baseline) {
    const std::string baseline =
        dnnv::bench::resolve_baseline_arg("ops_micro", baseline_value);
    std::cout << "\ndiff vs " << baseline << " (max regression " << max_regress
              << "%):\n";
    const int regressions = dnnv::bench::diff_against_baseline(
        reporter.metrics, baseline, max_regress);
    if (regressions > 0) {
      std::cerr << regressions << " metric(s) regressed beyond " << max_regress
                << "%\n";
      return 1;
    }
  }
  return 0;
}
