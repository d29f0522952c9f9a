// Fig 2 — mean validation coverage of different image pools.
//
// Paper (1000 images per pool): MNIST noise 13% / ImageNet 22% / training 46%;
// CIFAR noise 12% / ImageNet 18% / training 36%. The reproduction must show
// the same ordering: training set > out-of-distribution images > noise.
#include <iostream>

#include "bench/bench_common.h"
#include "coverage/criterion.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {

double mean_coverage(const dnnv::nn::Sequential& model,
                     const std::vector<dnnv::Tensor>& images,
                     const dnnv::cov::CoverageConfig& config,
                     std::int64_t param_count) {
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
  const auto count = static_cast<std::int64_t>(
      args.get_int("images", 300));  // paper used 1000; --images 1000 to match
  bench::banner("bench_fig2_image_sets",
                "Fig 2 — validation coverage of noise / OOD / training pools");
  std::cout << "pool size: " << count << " images (paper: 1000)\n\n";

  const auto options = bench::zoo_options(args);
  struct PoolRow {
    std::string pool;
    double mnist;
    double cifar;
  };
  std::vector<PoolRow> rows = {{"Noisy Images", 0, 0},
                               {"OOD Images (ImageNet stand-in)", 0, 0},
                               {"Training Set", 0, 0}};

  Stopwatch timer;
  {
    auto trained = exp::mnist_tanh(options);
    const auto params = trained.model.param_count();
    rows[0].mnist = mean_coverage(trained.model,
                                  exp::noise_pool(trained, count).images,
                                  trained.coverage, params);
    rows[1].mnist = mean_coverage(trained.model,
                                  exp::ood_pool(trained, count).images,
                                  trained.coverage, params);
    rows[2].mnist = mean_coverage(trained.model,
                                  exp::digits_train(count).images,
                                  trained.coverage, params);
  }
  {
    auto trained = exp::cifar_relu(options);
    const auto params = trained.model.param_count();
    rows[0].cifar = mean_coverage(trained.model,
                                  exp::noise_pool(trained, count).images,
                                  trained.coverage, params);
    rows[1].cifar = mean_coverage(trained.model,
                                  exp::ood_pool(trained, count).images,
                                  trained.coverage, params);
    rows[2].cifar = mean_coverage(trained.model,
                                  exp::shapes_train(count).images,
                                  trained.coverage, params);
  }

  TablePrinter table({"image set", "MNIST VC (paper)", "CIFAR VC (paper)"});
  const char* mnist_paper[] = {"13%", "22%", "46%"};
  const char* cifar_paper[] = {"12%", "18%", "36%"};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    table.add_row({rows[i].pool,
                   format_percent(rows[i].mnist) + " (" + mnist_paper[i] + ")",
                   format_percent(rows[i].cifar) + " (" + cifar_paper[i] + ")"});
  }
  table.print(std::cout);

  const bool mnist_ordered = rows[2].mnist > rows[1].mnist &&
                             rows[1].mnist > rows[0].mnist;
  const bool cifar_ordered = rows[2].cifar > rows[1].cifar &&
                             rows[1].cifar > rows[0].cifar;
  std::cout << "\nordering train > ood > noise:  MNIST "
            << (mnist_ordered ? "REPRODUCED" : "NOT REPRODUCED") << ", CIFAR "
            << (cifar_ordered ? "REPRODUCED" : "NOT REPRODUCED") << "\n";
  std::cout << "(elapsed " << timer.elapsed_seconds() << "s)\n";
  return 0;
}
