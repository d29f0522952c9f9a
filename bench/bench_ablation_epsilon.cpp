// Ablation — the Tanh activation threshold ε (paper §IV-A): sweep ε and show
// how pool coverage (and the Fig-2 ordering) responds. ReLU models use the
// exact zero-gradient criterion and are ε-insensitive by construction.
#include <iostream>

#include "bench/bench_common.h"
#include "coverage/criterion.h"
#include "util/table.h"

namespace {

double mean_coverage(const dnnv::nn::Sequential& model,
                     const std::vector<dnnv::Tensor>& images, double epsilon,
                     std::int64_t param_count) {
  dnnv::cov::CoverageConfig config;
  config.epsilon = epsilon;
  const auto masks =
      dnnv::cov::make_parameter_criterion(model, config)->measure_pool(images);
  double total = 0.0;
  for (const auto& mask : masks) {
    total += static_cast<double>(mask.count()) / static_cast<double>(param_count);
  }
  return total / static_cast<double>(masks.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dnnv;
  const CliArgs args(argc, argv, {"images", "paper-scale", "retrain"});
  const auto count = static_cast<std::int64_t>(args.get_int("images", 120));
  bench::banner("bench_ablation_epsilon",
                "§IV-A — activation threshold ε sweep (Tanh model)");

  const auto options = bench::zoo_options(args);
  auto trained = exp::mnist_tanh(options);
  const auto params = trained.model.param_count();
  const auto train_pool = exp::digits_train(count);
  const auto ood = exp::ood_pool(trained, count);
  const auto noise = exp::noise_pool(trained, count);

  TablePrinter table({"epsilon", "train VC", "ood VC", "noise VC",
                      "train>ood>noise?"});
  for (const double eps : {1e-4, 1e-3, 1e-2, 0.05, 0.15, 0.3, 0.6}) {
    const double t = mean_coverage(trained.model, train_pool.images, eps, params);
    const double o = mean_coverage(trained.model, ood.images, eps, params);
    const double n = mean_coverage(trained.model, noise.images, eps, params);
    table.add_row({format_double(eps, 4), format_percent(t), format_percent(o),
                   format_percent(n), (t > o && o > n) ? "yes" : "no"});
  }
  table.print(std::cout);
  std::cout << "\nzoo default epsilon for " << trained.name << ": "
            << trained.coverage.epsilon
            << " (chosen so the Fig-2 ordering holds with stable margins)\n";
  return 0;
}
