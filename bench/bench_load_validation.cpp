// bench_load_validation — million-request-class load harness for the
// network-facing validation server (net::ValidationServer).
//
// An in-process server is started on an ephemeral loopback port and driven
// by real TCP clients (net::ValidationClient), so every number includes the
// full wire path: framing, admission, per-connection backpressure, the
// micro-batched scheduler, and verdict streaming.
//
// Two phases:
//   * matrix — a declarative cell per model × backend × stream-policy
//     combination, each run with --matrix-clients closed-loop connections;
//     per-cell throughput and p50/p99/p999 request latency.
//   * headline — the mixed arrival mix (every cell config interleaved)
//     three ways: one NAIVE sequential client (fresh connection + load +
//     open per request — the pre-serving flow on the wire), one persistent
//     pipelined client, and --clients persistent concurrent clients. The
//     acceptance number (>= 3x at 16 clients) is persistent-16 over
//     naive-1: what the serving subsystem's session reuse, shard cache and
//     cross-session scheduler buy over per-request qualification. The
//     persistent-1 row is printed too, so single-connection wire overhead
//     is visible rather than folded into the headline.
//
//   bench_load_validation [--clients 16] [--matrix-clients 4]
//                         [--requests 30] [--tests 50] [--quick]
//                         [--open-loop] [--rate 50] [--min-scaling 0]
//                         [--json [path|family]] [--baseline path]
//                         [--max-regress pct]
//
// --open-loop switches the generator from closed loop (next request after
// the previous verdict) to open loop: each client fires at a fixed --rate
// (requests/s), submits are pipelined, and latency is measured from the
// SCHEDULED arrival — queueing delay is charged, not hidden (no
// coordinated omission). --quick shrinks to tiny zoo models for CI smoke;
// --json/--baseline emit and gate the machine-readable table
// (per-host baseline families, see bench/bench_json.h).
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "exp/model_zoo.h"
#include "net/client.h"
#include "net/server.h"
#include "pipeline/service.h"
#include "pipeline/vendor.h"
#include "quant/qgemm.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/table.h"

namespace {

using namespace dnnv;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kKey = 0x10AD;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One cell of the declarative load matrix.
struct Workload {
  std::string model;  ///< zoo model name
  std::string path;   ///< deliverable file the clients load over the wire
  pipeline::BackendKind backend = pipeline::BackendKind::kFloat;
  pipeline::StreamPolicy policy = pipeline::StreamPolicy::kFullReplay;

  std::string label() const {
    return model + "_" +
           (backend == pipeline::BackendKind::kInt8 ? "int8" : "float") + "_" +
           (policy == pipeline::StreamPolicy::kEarlyExit ? "early" : "full");
  }
};

struct CellResult {
  std::string label;
  int clients = 0;
  std::size_t requests = 0;
  double seconds = 0.0;
  double rps = 0.0;
  double p50 = 0.0, p99 = 0.0, p999 = 0.0;  // seconds
  bool all_passed = true;
};

/// Releases all client threads at one instant so the cell clock measures
/// concurrent load, not connection setup.
struct StartGate {
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t ready = 0;
  bool released = false;
  Clock::time_point start;

  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex);
    ++ready;
    cv.notify_all();
    cv.wait(lock, [this] { return released; });
  }

  Clock::time_point release(std::size_t expected) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return ready >= expected; });
    released = true;
    start = Clock::now();
    cv.notify_all();
    return start;
  }
};

/// One closed- or open-loop client: connect, load + open every workload in
/// the mix, then drive `requests` submits round-robin across the mix.
void run_client(const std::string& host, std::uint16_t port,
                const std::vector<Workload>& mix, int idx, int requests,
                double interval, StartGate& gate,
                std::vector<double>& latencies, char& all_passed) {
  auto client = net::ValidationClient::connect(host, port);
  struct OpenSession {
    std::uint32_t id = 0;
    bool stream = false;
  };
  std::vector<OpenSession> sessions;
  sessions.reserve(mix.size());
  for (const Workload& w : mix) {
    const net::LoadResponse loaded = client.load(w.path, kKey);
    pipeline::SessionConfig config;
    config.backend = w.backend;
    config.policy = w.policy;
    const net::OpenResponse opened = client.open(loaded.deliverable_id, config);
    sessions.push_back(
        {opened.session_id, w.policy == pipeline::StreamPolicy::kEarlyExit});
  }
  gate.arrive_and_wait();
  bool ok = true;
  if (interval <= 0.0) {
    // Closed loop: one request in flight, next submitted on its verdict.
    for (int k = 0; k < requests; ++k) {
      const OpenSession& s = sessions[(idx + k) % sessions.size()];
      const auto t0 = Clock::now();
      const validate::Verdict verdict =
          client.await_verdict(client.submit(s.id, s.stream));
      latencies[static_cast<std::size_t>(k)] = seconds_since(t0);
      ok &= verdict.passed;
    }
  } else {
    // Open loop: arrivals on a fixed schedule, submits pipelined, latency
    // charged from the scheduled arrival (queueing delay included).
    constexpr std::size_t kDepth = 8;
    struct InFlight {
      std::uint32_t submit_id = 0;
      Clock::time_point scheduled;
      std::size_t slot = 0;
    };
    std::deque<InFlight> inflight;
    const auto begin = gate.start;
    auto drain_one = [&] {
      const InFlight head = inflight.front();
      inflight.pop_front();
      ok &= client.await_verdict(head.submit_id).passed;
      latencies[head.slot] =
          std::chrono::duration<double>(Clock::now() - head.scheduled).count();
    };
    for (int k = 0; k < requests; ++k) {
      const auto scheduled =
          begin + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(k * interval));
      std::this_thread::sleep_until(scheduled);
      const OpenSession& s = sessions[(idx + k) % sessions.size()];
      inflight.push_back({client.submit(s.id, s.stream), scheduled,
                          static_cast<std::size_t>(k)});
      while (inflight.size() >= kDepth) drain_one();
    }
    while (!inflight.empty()) drain_one();
  }
  client.goodbye();
  all_passed = ok ? 1 : 0;
}

CellResult run_cell(const std::string& label, const std::string& host,
                    std::uint16_t port, const std::vector<Workload>& mix,
                    int clients, int requests_per_client, double interval) {
  CellResult cell;
  cell.label = label;
  cell.clients = clients;
  cell.requests =
      static_cast<std::size_t>(clients) *
      static_cast<std::size_t>(requests_per_client);
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients),
      std::vector<double>(static_cast<std::size_t>(requests_per_client), 0.0));
  std::vector<char> passed(static_cast<std::size_t>(clients), 1);
  StartGate gate;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      run_client(host, port, mix, c, requests_per_client, interval, gate,
                 latencies[static_cast<std::size_t>(c)],
                 passed[static_cast<std::size_t>(c)]);
    });
  }
  const auto start = gate.release(static_cast<std::size_t>(clients));
  for (auto& t : threads) t.join();
  cell.seconds = seconds_since(start);
  std::vector<double> all;
  all.reserve(cell.requests);
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  for (const char p : passed) cell.all_passed &= p != 0;
  cell.rps = cell.seconds > 0.0
                 ? static_cast<double>(cell.requests) / cell.seconds
                 : 0.0;
  cell.p50 = bench::latency_percentile(all, 0.50);
  cell.p99 = bench::latency_percentile(all, 0.99);
  cell.p999 = bench::latency_percentile(all, 0.999);
  return cell;
}

/// The naive sequential baseline: every request pays the whole wire flow —
/// fresh TCP connection, deliverable load, session open, verdict, goodbye —
/// the way one-shot qualification would use the server.
CellResult run_naive(const std::string& host, std::uint16_t port,
                     const std::vector<Workload>& mix, int requests) {
  CellResult cell;
  cell.label = "naive";
  cell.clients = 1;
  cell.requests = static_cast<std::size_t>(requests);
  std::vector<double> latencies(static_cast<std::size_t>(requests), 0.0);
  const auto start = Clock::now();
  for (int k = 0; k < requests; ++k) {
    const Workload& w = mix[static_cast<std::size_t>(k) % mix.size()];
    const auto t0 = Clock::now();
    auto client = net::ValidationClient::connect(host, port);
    const net::LoadResponse loaded = client.load(w.path, kKey);
    pipeline::SessionConfig config;
    config.backend = w.backend;
    config.policy = w.policy;
    const net::OpenResponse opened = client.open(loaded.deliverable_id, config);
    cell.all_passed &= client.validate(opened.session_id).passed;
    client.goodbye();
    latencies[static_cast<std::size_t>(k)] = seconds_since(t0);
  }
  cell.seconds = seconds_since(start);
  cell.rps = cell.seconds > 0.0
                 ? static_cast<double>(cell.requests) / cell.seconds
                 : 0.0;
  cell.p50 = bench::latency_percentile(latencies, 0.50);
  cell.p99 = bench::latency_percentile(latencies, 0.99);
  cell.p999 = bench::latency_percentile(latencies, 0.999);
  return cell;
}

/// Best-of-`reps` wrapper for the gated headline cells: raw throughput on
/// an oversubscribed host is bimodal (scheduler luck), and the upper
/// envelope is the stable, comparable number. Verdict correctness is
/// demanded of EVERY repetition, not just the kept one.
template <typename RunCell>
CellResult best_of(int reps, const RunCell& run) {
  CellResult best = run();
  bool all_passed = best.all_passed;
  for (int r = 1; r < reps; ++r) {
    CellResult next = run();
    all_passed &= next.all_passed;
    if (next.rps > best.rps) best = next;
  }
  best.all_passed = all_passed;
  return best;
}

std::string ms(double seconds) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(2) << seconds * 1e3;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv,
                       {"clients", "matrix-clients", "requests", "reps",
                        "tests",
                        "quick", "open-loop", "rate", "min-scaling",
                        "paper-scale", "retrain", "json", "baseline",
                        "max-regress"});
    const bool quick = args.get_bool("quick", false);
    const int clients = args.get_int("clients", 16);
    const int matrix_clients = args.get_int("matrix-clients", 4);
    // Even --quick needs a few dozen requests per client: the gated
    // aggregate rates are means over this sample.
    const int requests = args.get_int("requests", quick ? 40 : 100);
    const int reps = args.get_int("reps", 3);
    DNNV_CHECK(reps > 0, "--reps must be positive");
    const int num_tests = args.get_int("tests", quick ? 24 : 50);
    const bool open_loop = args.get_bool("open-loop", false);
    const double rate = args.get_double("rate", 50.0);
    const double interval = open_loop ? 1.0 / rate : 0.0;
    const double min_scaling = args.get_double("min-scaling", 0.0);
    DNNV_CHECK(clients > 0 && matrix_clients > 0 && requests > 0,
               "--clients/--matrix-clients/--requests must be positive");

    bench::banner("validation server load",
                  "network serving of SS V's deployment story: load/open/"
                  "submit/stream over TCP");
    std::cout << "engine: " << quant::qgemm_config_string() << "\n"
              << "generator: " << (open_loop ? "open loop" : "closed loop");
    if (open_loop) std::cout << " @ " << rate << " req/s per client";
    std::cout << "\n";

    auto zoo = bench::zoo_options(args);
    zoo.tiny = quick;

    // ---- Vendor side: one int8-qualified deliverable per zoo model.
    std::vector<std::string> cleanup;
    std::vector<Workload> matrix;
    for (const bool use_cifar : {false, true}) {
      const auto trained = use_cifar ? exp::cifar_relu(zoo) : exp::mnist_tanh(zoo);
      const auto pool = use_cifar ? exp::shapes_train(300) : exp::digits_train(300);
      pipeline::VendorOptions options;
      options.method = "greedy";
      options.backend = "int8";
      options.num_tests = num_tests;
      options.generator.coverage = trained.coverage;
      options.model_name = trained.name;
      pipeline::Deliverable bundle = pipeline::VendorPipeline(options).run(
          trained.model, trained.item_shape, trained.num_classes, pool.images);
      const std::string path = trained.name + "-load-bench.bin";
      bundle.save_file(path, kKey);
      cleanup.push_back(path);
      for (const auto backend :
           {pipeline::BackendKind::kFloat, pipeline::BackendKind::kInt8}) {
        for (const auto policy : {pipeline::StreamPolicy::kFullReplay,
                                  pipeline::StreamPolicy::kEarlyExit}) {
          matrix.push_back({trained.name, path, backend, policy});
        }
      }
    }

    // ---- Server: in-process, ephemeral loopback port, real TCP clients.
    net::ServerConfig server_config;
    server_config.max_connections = static_cast<std::size_t>(clients) + 4;
    server_config.admission_queue = 8;
    net::ValidationServer server(server_config);
    const std::uint16_t port = server.port();
    std::cout << "server: 127.0.0.1:" << port << ", "
              << server_config.max_connections << " connection slots\n\n";

    // Warmup: one pass over every cell config builds the lane devices and
    // fills the lane label caches, so the cells measure steady-state serving.
    run_cell("warmup", "127.0.0.1", port, matrix, 1, static_cast<int>(matrix.size()),
             0.0);

    // ---- Matrix phase.
    std::vector<bench::BenchMetric> metrics;
    std::vector<CellResult> cells;
    for (const Workload& w : matrix) {
      const std::vector<Workload> mix = {w};
      cells.push_back(run_cell(w.label(), "127.0.0.1", port, mix,
                               matrix_clients, requests, interval));
    }

    // ---- Headline phase: the mixed mix — naive sequential, persistent
    // sequential, persistent concurrent.
    const CellResult naive = best_of(reps, [&] {
      return run_naive("127.0.0.1", port, matrix, requests * 2);
    });
    const CellResult mixed_1 = best_of(reps, [&] {
      return run_cell("mixed", "127.0.0.1", port, matrix, 1, requests,
                      interval);
    });
    const CellResult mixed_n = best_of(reps, [&] {
      return run_cell("mixed", "127.0.0.1", port, matrix, clients, requests,
                      interval);
    });
    const double scaling = naive.rps > 0.0 ? mixed_n.rps / naive.rps : 0.0;
    const double conn_scaling =
        mixed_1.rps > 0.0 ? mixed_n.rps / mixed_1.rps : 0.0;

    // ---- Report: human table + machine-readable metric series.
    TablePrinter table({"cell", "clients", "requests", "req/s", "p50 ms",
                        "p99 ms", "p99.9 ms", "verdicts"});
    bool ok = true;
    // Per-matrix-cell numbers (a few dozen requests each) swing 40%+ between
    // runs on a loaded host, so they stay printed diagnostics; only the
    // aggregate mixed/naive throughputs enter the gated metric series.
    // Latency percentiles never gate at all — microsecond-scale tails over
    // these sample sizes spike 4x on scheduler noise (the same call
    // bench_service_throughput made).
    auto add = [&](const CellResult& cell, bool gate) {
      table.add_row({cell.label, std::to_string(cell.clients),
                     std::to_string(cell.requests),
                     format_double(cell.rps, 1), ms(cell.p50), ms(cell.p99),
                     ms(cell.p999), cell.all_passed ? "SECURE" : "BUG"});
      ok &= cell.all_passed;
      if (!gate) return;
      const std::string prefix =
          cell.label + "_c" + std::to_string(cell.clients);
      metrics.push_back({prefix + "_rps", cell.rps, "1/s", true});
    };
    for (const CellResult& cell : cells) add(cell, false);
    add(naive, true);
    add(mixed_1, true);
    add(mixed_n, true);
    table.print(std::cout);

    std::cout << "\nheadline: " << format_double(naive.rps, 1)
              << " req/s naive sequential -> " << format_double(mixed_n.rps, 1)
              << " req/s @ " << clients << " persistent clients = "
              << format_double(scaling, 2) << "x serving scaling"
              << " (persistent 1-client: " << format_double(mixed_1.rps, 1)
              << " req/s, connection scaling " << format_double(conn_scaling, 2)
              << "x)\n";
    // connection_scaling (mixed_n vs mixed_1) is printed but not gated: on a
    // single-core host both sides are syscall-bound and the ratio jitters
    // past any useful threshold.
    metrics.push_back({"serving_scaling", scaling, "x", true});

    const auto sstats = server.stats();
    const auto vstats = server.service().stats();
    std::cout << "server: " << sstats.accepted << " accepted, "
              << sstats.rejected_busy << " busy-rejected, " << sstats.requests
              << " frames, " << sstats.submits << " submits (peak "
              << sstats.peak_inflight_submits << " in flight/conn)\n"
              << "scheduler: " << vstats.batches << " micro-batches, "
              << vstats.predicted << " tests inferred, " << vstats.cache_served
              << " served from lane caches\n";
    server.stop();
    for (const std::string& path : cleanup) std::remove(path.c_str());

    if (!ok) {
      std::cerr << "FAIL: not every verdict was SECURE\n";
      return 1;
    }
    if (min_scaling > 0.0 && scaling < min_scaling) {
      std::cerr << "FAIL: serving scaling " << scaling << "x < required "
                << min_scaling << "x\n";
      return 1;
    }

    if (args.has("json")) {
      const std::string path = bench::resolve_json_out(
          "load_validation", args.get_string("json", ""));
      std::map<std::string, std::string> config;
      config["quick"] = quick ? "1" : "0";
      config["clients"] = std::to_string(clients);
      config["matrix_clients"] = std::to_string(matrix_clients);
      config["requests"] = std::to_string(requests);
      config["tests"] = std::to_string(num_tests);
      config["open_loop"] = open_loop ? "1" : "0";
      bench::write_bench_json(path, "load_validation", config, metrics);
    }
    if (args.has("baseline")) {
      const std::string baseline = bench::resolve_baseline_arg(
          "load_validation", args.get_string("baseline", ""));
      // Wide by design: this gate is for catching structural serving
      // regressions (losing the shard cache, serializing the scheduler —
      // integer-factor drops), and on an oversubscribed single-core host
      // even best-of-N throughput keeps ~±35% of scheduler-luck spread.
      const double max_regress = args.get_double("max-regress", 45.0);
      std::cout << "\ndiff vs " << baseline << " (max regression "
                << max_regress << "%):\n";
      const int regressions =
          bench::diff_against_baseline(metrics, baseline, max_regress);
      if (regressions > 0) {
        std::cerr << regressions << " metric(s) regressed beyond "
                  << max_regress << "%\n";
        return 1;
      }
    }
    return 0;
  } catch (const dnnv::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
