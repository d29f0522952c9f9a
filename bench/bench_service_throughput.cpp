// bench_service_throughput — the ValidationService perf headline.
//
// Scenario: N end users concurrently qualify the same shipped deliverables
// (paper §V's deployment story at fleet scale). Baseline: N independent
// one-shot UserValidator::validate() calls, run back to back — each rebuilds
// the deployed device and replays the full suite alone, as one batched
// forward on the calling thread (validate::validate_ip; no service,
// scheduler thread or session). Service: N concurrent sessions over one
// ValidationService — shared decoded bundles, one reused device per lane,
// and cross-session micro-batches that apply each test pattern once per
// deliverable+backend.
//
//   bench_service_throughput [--sessions 16] [--tests 50] [--tiny]
//                            [--backend int8] [--min-speedup 0] [--quick]
//                            [--json [path]] [--baseline path]
//                            [--max-regress 15]
//
// Prints per-model wall-clock for both paths, the aggregate speedup (the
// acceptance bar is >= 3x at 16 sessions), per-session latency percentiles,
// and the scheduler's sharing counters. The speedup is a ratio over the
// sequential side, so a cheaper receipt lowers it while the service's own
// time stays put: read the *_speedup rows together with the absolute
// *_sequential_s and *_service_s rows. Exits non-zero when --min-speedup
// is set and not met, when any verdict is not SECURE, or when --baseline
// finds a hardware-matched metric regressed by more than --max-regress %.
// --quick shrinks to tiny zoo models for CI smoke runs; --json writes the
// BENCH_service_throughput.json snapshot (see bench/bench_json.h).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "exp/model_zoo.h"
#include "pipeline/service.h"
#include "pipeline/user.h"
#include "pipeline/vendor.h"
#include "quant/qgemm.h"
#include "util/cli.h"
#include "util/error.h"

namespace {

using namespace dnnv;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct ModelRun {
  std::string name;
  double baseline_seconds = 0.0;
  double service_seconds = 0.0;
  bool all_secure = true;
  std::vector<double> session_latencies;  // seconds, service path
};

ModelRun run_model(const exp::TrainedModel& trained,
                   const std::vector<Tensor>& pool, const std::string& backend,
                   int num_tests, int num_sessions) {
  ModelRun result;
  result.name = trained.name;

  pipeline::VendorOptions options;
  options.method = "greedy";
  options.backend = backend;
  options.num_tests = num_tests;
  options.generator.coverage = trained.coverage;
  options.model_name = trained.name;
  pipeline::Deliverable bundle = pipeline::VendorPipeline(options).run(
      trained.model, trained.item_shape, trained.num_classes, pool);
  const std::string path = trained.name + "-bench-deliverable.bin";
  constexpr std::uint64_t kKey = 0xBE7C4;
  bundle.save_file(path, kKey);

  // ---- Baseline: N sequential one-shot validations (the pre-service user
  // flow: load once, then validate() per qualification request, each call
  // rebuilding its device and replaying the whole suite).
  const auto validator = pipeline::UserValidator::load_file(path, kKey);
  {
    const auto start = Clock::now();
    for (int s = 0; s < num_sessions; ++s) {
      result.all_secure &= validator.validate().passed;
    }
    result.baseline_seconds = seconds_since(start);
  }

  // ---- Service: N concurrent sessions over one shared deliverable entry.
  {
    pipeline::ValidationService service;
    const auto handle = service.load_file(path, kKey);
    result.session_latencies.assign(static_cast<std::size_t>(num_sessions),
                                    0.0);
    // char, not bool: vector<bool> bit-packs, and the workers write
    // concurrently to distinct slots.
    std::vector<char> secure(static_cast<std::size_t>(num_sessions), 0);
    const auto start = Clock::now();
    std::vector<std::thread> users;
    users.reserve(static_cast<std::size_t>(num_sessions));
    for (int s = 0; s < num_sessions; ++s) {
      users.emplace_back([&, s] {
        const auto session_start = Clock::now();
        auto session = service.open_session(handle);
        const auto verdict = session->submit().get();
        secure[static_cast<std::size_t>(s)] = verdict.passed;
        result.session_latencies[static_cast<std::size_t>(s)] =
            seconds_since(session_start);
      });
    }
    for (auto& user : users) user.join();
    result.service_seconds = seconds_since(start);
    for (const char passed : secure) result.all_secure &= passed != 0;

    const auto stats = service.stats();
    std::cout << "  scheduler: " << stats.batches << " micro-batches, "
              << stats.predicted << " tests inferred, " << stats.cache_served
              << " served by cross-session reuse\n";
  }
  std::remove(path.c_str());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv,
                       {"sessions", "tests", "tiny", "backend", "min-speedup",
                        "paper-scale", "retrain", "quick", "json", "baseline",
                        "max-regress"});
    const bool quick = args.get_bool("quick", false);
    const int num_sessions = args.get_int("sessions", 16);
    DNNV_CHECK(num_sessions > 0, "--sessions must be positive");
    const int num_tests = args.get_int("tests", quick ? 24 : 50);
    const std::string backend = args.get_string("backend", "int8");
    const double min_speedup = args.get_double("min-speedup", 0.0);

    bench::banner("validation service throughput",
                  "SS V deployment at scale: concurrent user qualification");
    std::cout << "engine: " << quant::qgemm_config_string() << "\n";
    auto zoo = bench::zoo_options(args);
    zoo.tiny = quick || args.get_bool("tiny", false);

    std::vector<ModelRun> runs;
    {
      const auto mnist = exp::mnist_tanh(zoo);
      runs.push_back(run_model(mnist, exp::digits_train(300).images, backend,
                               num_tests, num_sessions));
    }
    {
      const auto cifar = exp::cifar_relu(zoo);
      runs.push_back(run_model(cifar, exp::shapes_train(300).images, backend,
                               num_tests, num_sessions));
    }

    bool ok = true;
    std::vector<bench::BenchMetric> metrics;
    std::cout << std::fixed << std::setprecision(3);
    for (const auto& run : runs) {
      const double speedup = run.service_seconds > 0.0
                                 ? run.baseline_seconds / run.service_seconds
                                 : 0.0;
      std::cout << run.name << ": " << num_sessions << " validations ("
                << backend << ", " << num_tests << " tests)\n"
                << "  sequential UserValidator  " << run.baseline_seconds
                << " s\n"
                << "  concurrent service        " << run.service_seconds
                << " s  -> " << std::setprecision(2) << speedup << "x"
                << std::setprecision(3) << "\n"
                << "  session latency p50/p90/p99  "
                << bench::latency_percentile(run.session_latencies, 0.50)
                << " / "
                << bench::latency_percentile(run.session_latencies, 0.90)
                << " / "
                << bench::latency_percentile(run.session_latencies, 0.99)
                << " s\n"
                << "  verdicts: "
                << (run.all_secure ? "all SECURE" : "NOT all SECURE — BUG")
                << "\n";
      ok &= run.all_secure;
      if (min_speedup > 0.0 && speedup < min_speedup) {
        std::cout << "  FAIL: speedup " << speedup << " < required "
                  << min_speedup << "\n";
        ok = false;
      }
      const double per_second =
          run.service_seconds > 0.0 ? num_sessions / run.service_seconds : 0.0;
      metrics.push_back(
          {run.name + "_sequential_s", run.baseline_seconds, "s", false});
      metrics.push_back(
          {run.name + "_service_s", run.service_seconds, "s", false});
      metrics.push_back({run.name + "_service_speedup", speedup, "x", true});
      metrics.push_back(
          {run.name + "_validations_per_s", per_second, "1/s", true});
      // Tail latency stays a printed diagnostic only: single-digit-ms p90
      // swings 50%+ between runs, which no regression gate can sit on.
    }

    if (args.has("json")) {
      const std::string path = bench::resolve_json_out(
          "service_throughput", args.get_string("json", ""));
      std::map<std::string, std::string> config;
      config["quick"] = quick ? "1" : "0";
      config["sessions"] = std::to_string(num_sessions);
      config["tests"] = std::to_string(num_tests);
      config["backend"] = backend;
      config["tiny"] = zoo.tiny ? "1" : "0";
      bench::write_bench_json(path, "service_throughput", config, metrics);
    }
    if (args.has("baseline")) {
      std::cout << "diff vs baseline:\n";
      const int regressions =
          bench::diff_against_baseline(metrics, args.get_string("baseline", ""),
                                       args.get_double("max-regress", 15.0));
      if (regressions > 0) {
        std::cerr << regressions << " metric(s) regressed beyond the gate\n";
        ok = false;
      }
    }
    return ok ? 0 : 1;
  } catch (const dnnv::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
