// Ablation — Algorithm 2 targeting: the paper-text "un-activated
// sub-network" masking vs verbatim Algorithm 2 (loss on the full model).
// Masked synthesis should keep finding fresh parameters; verbatim saturates.
#include <iostream>

#include "bench/bench_common.h"
#include "coverage/criterion.h"
#include "testgen/gradient_generator.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace dnnv;
  const CliArgs args(argc, argv, {"budget", "paper-scale", "retrain"});
  const int budget = args.get_int("budget", 50);
  bench::banner("bench_ablation_masking",
                "DESIGN.md §5.3 — Algorithm 2 masked-subnetwork targeting");

  const auto options = bench::zoo_options(args);
  for (const bool use_mnist : {false, true}) {
  auto trained = use_mnist ? exp::mnist_tanh(options) : exp::cifar_relu(options);
  const auto universe = static_cast<std::size_t>(trained.model.param_count());
  const auto criterion =
      cov::make_parameter_criterion(trained.model, trained.coverage);

  auto run = [&](bool masked) {
    cov::CoverageAccumulator acc(universe);
    testgen::GradientGenerator::Options gen_options;
    gen_options.max_tests = budget;
    gen_options.steps = 60;
    gen_options.mask_activated = masked;
    return testgen::GradientGenerator(gen_options)
        .generate(*criterion, trained.model, trained.item_shape,
                  trained.num_classes, acc);
  };

  const auto masked = run(true);
  const auto verbatim = run(false);

  TablePrinter table({"#tests", "masked (paper text)", "verbatim Alg 2"});
  for (const int n : {10, 20, 30, 40, 50}) {
    if (n > budget) break;
    const auto idx = static_cast<std::size_t>(n) - 1;
    auto value = [&](const testgen::GenerationResult& r) {
      return idx < r.coverage_after.size() ? format_percent(r.coverage_after[idx])
                                           : std::string("-");
    };
    table.add_row({std::to_string(n), value(masked), value(verbatim)});
  }
  table.print(std::cout);
  std::cout << "\n" << trained.name << " final coverage: masked "
            << format_percent(masked.final_coverage) << " vs verbatim "
            << format_percent(verbatim.final_coverage) << "\n\n";
  }
  std::cout << "FINDING: in this substrate, verbatim Algorithm 2 (full-model "
               "loss, jittered inits) consistently OUT-covers the paper-text "
               "masked-subnetwork targeting — the masked remnant network is "
               "mostly dead units whose gradients are weak even with the "
               "backward leak, so its synthesis drifts less far from the "
               "already-covered manifold. The library defaults to the "
               "paper's described mechanism; set mask_activated=false to use "
               "the stronger verbatim variant.\n";
  return 0;
}
