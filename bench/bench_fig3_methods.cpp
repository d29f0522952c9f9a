// Fig 3 — validation coverage vs number of functional tests for the three
// generation methods (training-set selection / gradient synthesis / combined)
// plus a random-selection control, on the CIFAR model.
//
// Paper shape: selection is best early (20 tests ≈ 82%) but saturates (the
// whole training set leaves ~8% never activated); gradient synthesis starts
// lower but keeps climbing; the combined method dominates (30 tests ≈ 92%).
//
// All methods run through the generator registry against one shared
// criterion and its pool mask pass (GenContext.criterion + .masks).
//
//   ./build/bench_fig3_methods [--pool 400] [--budget 60] [--model both]
//                              [--quick] [--json [path|family]]
//                              [--baseline path] [--max-regress pct]
//
// --quick shrinks to a CI-smoke footprint; --json/--baseline emit and gate
// the coverage-at-checkpoint series (deterministic under the fixed seed).
#include <iostream>
#include <map>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "coverage/criterion.h"
#include "testgen/generator.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {

using namespace dnnv;

/// Coverage value after `n` tests from a trajectory (coverage_after).
std::string at(const testgen::GenerationResult& result, int n) {
  if (result.coverage_after.empty()) return "-";
  const std::size_t idx =
      std::min<std::size_t>(static_cast<std::size_t>(n), result.coverage_after.size()) - 1;
  return format_percent(result.coverage_after[idx]);
}

/// The compared methods, by registry name (Fig 3's four curves).
struct MethodRow {
  const char* method;       ///< testgen registry name
  const char* timer_label;  ///< progress line (nullptr = untimed control)
  const char* column;       ///< table header
};
constexpr MethodRow kMethods[] = {
    {"greedy", "Algorithm 1 (training-set selection): ", "Alg 1 (select)"},
    {"gradient", "Algorithm 2 (gradient synthesis):     ", "Alg 2 (gradient)"},
    {"combined", "Combined method:                      ", "Combined"},
    {"random", nullptr, "Random control"},
};

/// Numeric coverage after `n` tests, for the metric series.
double coverage_at(const testgen::GenerationResult& result, int n) {
  if (result.coverage_after.empty()) return 0.0;
  const std::size_t idx =
      std::min<std::size_t>(static_cast<std::size_t>(n),
                            result.coverage_after.size()) -
      1;
  return result.coverage_after[idx];
}

int run_for_model(const std::string& which, std::int64_t pool_size, int budget,
                  const exp::ZooOptions& options,
                  std::vector<bench::BenchMetric>& metrics) {
  auto trained = which == "mnist" ? exp::mnist_tanh(options)
                                  : exp::cifar_relu(options);
  const auto pool = which == "mnist" ? exp::digits_train(pool_size)
                                     : exp::shapes_train(pool_size);
  const auto universe = static_cast<std::size_t>(trained.model.param_count());
  std::cout << "model: " << trained.name << ", candidate pool: " << pool_size
            << " training samples, budget: " << budget << " tests\n\n";

  Stopwatch timer;
  std::cout << "computing pool activation masks (parallel)...\n";
  const auto criterion =
      cov::make_parameter_criterion(trained.model, trained.coverage);
  const auto masks = criterion->measure_pool(pool.images);
  std::cout << "  done in " << timer.elapsed_seconds() << "s\n";

  // Shared config; every method draws the knobs it understands.
  testgen::GeneratorConfig config;
  config.max_tests = budget;
  config.coverage = trained.coverage;
  config.gradient.steps = 60;
  config.random_seed = 17;

  testgen::GenContext ctx;
  ctx.model = &trained.model;
  ctx.pool = &pool.images;
  ctx.criterion = criterion.get();
  ctx.masks = &masks;
  ctx.item_shape = trained.item_shape;
  ctx.num_classes = trained.num_classes;

  std::vector<testgen::GenerationResult> results;
  for (const MethodRow& row : kMethods) {
    timer.reset();
    cov::CoverageAccumulator accumulator(universe);
    ctx.accumulator = &accumulator;
    results.push_back(testgen::make_generator(row.method, config)->generate(ctx));
    if (row.timer_label != nullptr) {
      std::cout << row.timer_label << timer.elapsed_seconds() << "s\n";
    }
  }

  // Whole-pool ceiling: how much the entire candidate set can ever activate
  // (paper: ~8% of CIFAR parameters are never activated by the training set).
  cov::CoverageAccumulator ceiling(universe);
  for (const auto& mask : masks) ceiling.add(mask);

  std::cout << "\n";
  std::vector<std::string> headers = {"#tests"};
  for (const MethodRow& row : kMethods) headers.push_back(row.column);
  TablePrinter table(std::move(headers));
  for (const int n : {1, 5, 10, 20, 30, 40, 50, 80, 120}) {
    if (n > budget) break;
    std::vector<std::string> cells = {std::to_string(n)};
    for (const auto& result : results) cells.push_back(at(result, n));
    table.add_row(std::move(cells));
    for (std::size_t m = 0; m < std::size(kMethods); ++m) {
      metrics.push_back({which + "_" + kMethods[m].method + "_cov_at_" +
                             std::to_string(n),
                         coverage_at(results[m], n), "frac", true});
    }
  }
  table.print(std::cout);
  metrics.push_back({which + "_pool_ceiling", ceiling.coverage(), "frac",
                     true});

  std::cout << "\nwhole-pool ceiling (" << pool_size
            << " samples): " << format_percent(ceiling.coverage())
            << "  -> never activated by the candidate set: "
            << format_percent(1.0 - ceiling.coverage())
            << " (paper: ~8% for the full CIFAR training set)\n";
  int synthetic = 0;
  std::size_t combined_tests = 0;
  for (std::size_t m = 0; m < std::size(kMethods); ++m) {
    if (std::string(kMethods[m].method) != "combined") continue;
    combined_tests = results[m].tests.size();
    for (const auto& test : results[m].tests) {
      if (test.source == testgen::TestSource::kSynthetic) ++synthetic;
    }
  }
  std::cout << "combined method switch profile: "
            << (static_cast<int>(combined_tests) - synthetic)
            << " training samples, then " << synthetic << " synthetic tests\n";
  std::cout << "paper reference points (CIFAR): Alg1 20->82%, Alg2 10->66%, "
               "combined 30->92%\n";
  if (which != "mnist") {
    std::cout << "NOTE (ReLU model): parameters behind permanently-dead ReLU "
                 "units are unreachable by ANY input in this scaled-down "
                 "substrate (see EXPERIMENTS.md), which caps all methods at "
                 "the same ceiling; the Tanh model below shows the full "
                 "crossover dynamics.\n";
  }
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"pool", "budget", "model", "paper-scale", "retrain",
                      "quick", "json", "baseline", "max-regress"});
  const bool quick = args.get_bool("quick", false);
  const auto pool_size =
      static_cast<std::int64_t>(args.get_int("pool", quick ? 60 : 400));
  const int budget = args.get_int("budget", quick ? 20 : 60);
  const std::string which = args.get_string("model", "both");
  bench::banner("bench_fig3_methods",
                "Fig 3 — coverage vs #tests: selection / gradient / combined");
  auto options = bench::zoo_options(args);
  if (quick) options.tiny = true;

  std::vector<bench::BenchMetric> metrics;
  int rc = 0;
  if (which == "both") {
    rc |= run_for_model("cifar", pool_size, budget, options, metrics);
    rc |= run_for_model("mnist", pool_size, budget, options, metrics);
  } else {
    rc = run_for_model(which, pool_size, budget, options, metrics);
  }

  if (args.has("json")) {
    const std::string path =
        bench::resolve_json_out("fig3_methods", args.get_string("json", ""));
    std::map<std::string, std::string> config;
    config["quick"] = quick ? "1" : "0";
    config["pool"] = std::to_string(pool_size);
    config["budget"] = std::to_string(budget);
    config["model"] = which;
    bench::write_bench_json(path, "fig3_methods", config, metrics);
  }
  if (args.has("baseline")) {
    const std::string baseline = bench::resolve_baseline_arg(
        "fig3_methods", args.get_string("baseline", ""));
    const double max_regress = args.get_double("max-regress", 10.0);
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
  return rc;
}
