// Ablation — combined-method switch policy: the paper's one-way switch vs
// continuously interleaving Algorithm 1 and Algorithm 2.
#include <iostream>

#include "bench/bench_common.h"
#include "coverage/criterion.h"
#include "testgen/combined_generator.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace dnnv;
  const CliArgs args(argc, argv, {"budget", "pool", "paper-scale", "retrain"});
  const int budget = args.get_int("budget", 50);
  const auto pool_size = static_cast<std::int64_t>(args.get_int("pool", 400));
  bench::banner("bench_ablation_switch_policy",
                "§IV-D switch rule — switch-once vs interleaved");

  const auto options = bench::zoo_options(args);
  auto trained = exp::cifar_relu(options);
  const auto pool = exp::shapes_train(pool_size);
  const auto universe = static_cast<std::size_t>(trained.model.param_count());
  const auto criterion =
      cov::make_parameter_criterion(trained.model, trained.coverage);
  const auto masks = criterion->measure_pool(pool.images);

  auto run = [&](testgen::SwitchPolicy policy) {
    cov::CoverageAccumulator acc(universe);
    testgen::CombinedGenerator::Options combined_options;
    combined_options.max_tests = budget;
    combined_options.policy = policy;
    combined_options.gradient.steps = 60;
    return testgen::CombinedGenerator(combined_options)
        .generate(*criterion, trained.model, pool.images, masks,
                  trained.item_shape, trained.num_classes, acc);
  };

  const auto once = run(testgen::SwitchPolicy::kSwitchOnce);
  const auto interleaved = run(testgen::SwitchPolicy::kInterleaved);

  auto count_synthetic = [](const testgen::GenerationResult& r) {
    int synthetic = 0;
    for (const auto& test : r.tests) {
      if (test.source == testgen::TestSource::kSynthetic) ++synthetic;
    }
    return synthetic;
  };

  TablePrinter table({"#tests", "switch-once (paper)", "interleaved"});
  for (const int n : {10, 20, 30, 40, 50}) {
    if (n > budget) break;
    const auto idx = static_cast<std::size_t>(n) - 1;
    auto value = [&](const testgen::GenerationResult& r) {
      return idx < r.coverage_after.size() ? format_percent(r.coverage_after[idx])
                                           : std::string("-");
    };
    table.add_row({std::to_string(n), value(once), value(interleaved)});
  }
  table.print(std::cout);
  std::cout << "\nsynthetic tests used: switch-once " << count_synthetic(once)
            << "/" << once.tests.size() << ", interleaved "
            << count_synthetic(interleaved) << "/" << interleaved.tests.size()
            << "\nfinal coverage: switch-once "
            << format_percent(once.final_coverage) << " vs interleaved "
            << format_percent(interleaved.final_coverage) << "\n";
  return 0;
}
