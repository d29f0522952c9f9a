// e2e_bench: end-to-end benchmark of the vendor release, the user audit and
// mixed TCP serving. Prints each metric by name, then one JSON result line.
//
//   e2e_bench --prepare --cache DIR
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             --cache DIR --workdir DIR [--trace-dir DIR]
//
// Usually started through run.py, which builds it and prepares the cache.
#include <filesystem>
#include <iostream>
#include <set>
#include <string>

#include "phases.h"
#include "util/cli.h"
#include "workload.h"

int main(int argc, char** argv) {
  using namespace e2e;
  try {
    const dnnv::CliArgs args(argc, argv,
                             {"prepare", "workload", "seed", "seconds", "trace",
                              "cache", "workdir", "trace-dir"});
    RunConfig config;
    config.cache_dir = args.get_string("cache", ".bench_build/zoo");
    if (args.get_bool("prepare", false)) {
      prepare_models(config.cache_dir);
      return 0;
    }
    config.workload = args.get_string("workload", "");
    const std::set<std::string> workloads = {"release-cifar-affine", "serve-mixed"};
    if (workloads.count(config.workload) == 0) {
      std::cerr << "e2e_bench: unknown workload '" << config.workload << "'\n";
      return 2;
    }
    config.seed = std::stoull(args.get_string("seed", "1"));
    config.seconds = args.get_double("seconds", 10.0);
    const int trace = args.get_int("trace", 0);
    if (config.seconds <= 0.0 || (trace != 0 && trace != 1)) {
      std::cerr << "e2e_bench: --seconds must be positive and --trace 0 or 1\n";
      return 2;
    }
    config.trace = trace == 1;
    config.work_dir = args.get_string("workdir", ".bench_build/work");
    config.trace_dir = args.get_string("trace-dir", ".bench_build/traces");
    std::filesystem::create_directories(config.work_dir);

    const Outcome outcome = config.workload == "serve-mixed"
                                ? run_serve_workload(config)
                                : run_release_workload(config);
    const std::vector<double> reference = reference_samples();
    if (!reference.empty()) {
      const double ms = 1e3 * median(reference);
      std::cout << "host: reference kernel median " << ms << " ms CPU over "
                << reference.size() << " runs; timings are scaled by about "
                << 1e3 * kReferenceSeconds / ms << "\n";
    }
    for (const Metric& m : outcome.metrics.metrics()) {
      std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
    }
    const bool correct = outcome.failed == 0;
    std::cout << result_json(correct, outcome.attempted, outcome.failed,
                             outcome.metrics)
              << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 2;
  }
}
