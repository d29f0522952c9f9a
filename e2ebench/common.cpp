#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "data/digits.h"
#include "data/shapes.h"
#include "ip/quantized_ip.h"
#include "phases.h"
#include "pipeline/user.h"
#include "tensor/batch.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "workload.h"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

exp::ZooOptions zoo_options(const std::string& cache_dir) {
  exp::ZooOptions zoo;
  zoo.tiny = true;
  zoo.cache_dir = cache_dir;
  return zoo;
}

/// Number of candidates drawn from the model's training distribution.
constexpr std::int64_t kPoolSize = 300;

/// Larger than any suite the benchmark ships.
constexpr std::size_t kWholeSuiteBatch = 64;

/// Clean request spans are sampled 1 in this many: a cache hit takes tens of
/// microseconds, and recording every one would swamp the trace file.
constexpr std::uint64_t kCleanSpanEvery = 1024;

bool same_verdict(const validate::Verdict& a, const validate::Verdict& b) {
  return a.passed == b.passed && a.first_failure == b.first_failure &&
         a.num_failures == b.num_failures && a.tests_run == b.tests_run;
}

validate::Verdict reference_verdict(
    const pipeline::Deliverable& bundle,
    const std::vector<validate::CodeFault>& faults) {
  quant::QuantModel faulted = bundle.qmodel;
  validate::apply_code_faults(faulted, faults);
  const std::vector<int> labels =
      faulted.predict_labels(stack_batch(bundle.suite.inputs()));
  validate::Verdict verdict;
  verdict.passed = true;
  validate::accumulate_chunk(verdict,
                             validate::compare_chunk(bundle.suite, 0, labels));
  return verdict;
}

pipeline::ValidationService::Config serve_service_config() {
  pipeline::ValidationService::Config config;
  config.max_inflight_batches = 1;
  return config;
}

pipeline::SessionConfig session_config(const Part& part) {
  pipeline::SessionConfig config;
  config.backend = pipeline::BackendKind::kInt8;
  config.policy = pipeline::StreamPolicy::kFullReplay;
  config.faults = part.faults;
  // One micro-batch per full replay, so a tampered request is one scheduler
  // batch and the two tampered lanes alternate batch by batch. With the
  // default 16, a 24-test replay splits into 16 + 8, and the order in which
  // the halves of the two lanes interleave is left to timing.
  config.micro_batch = kWholeSuiteBatch;
  return config;
}

template <typename Rig>
void warm_up_rig(Rig& rig, const ServeMix& mix) {
  for (std::size_t conn = 0; conn < mix.connections.size(); ++conn) {
    for (std::size_t part = 0; part < mix.connections[conn].size(); ++part) {
      if (!same_verdict(rig.request(conn, part),
                        mix.connections[conn][part].expected)) {
        throw std::runtime_error("warm-up verdict differs from the reference");
      }
    }
  }
}

}  // namespace

void Outcome::op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cerr << "check failed: " << what << "\n";
  }
}

void prepare_models(const std::string& cache_dir) {
  std::filesystem::create_directories(cache_dir);
  exp::ZooOptions zoo = zoo_options(cache_dir);
  zoo.verbose = true;
  exp::mnist_tanh(zoo);
  exp::cifar_relu(zoo);
}

Model load_model(ZooModel which, const RunConfig& config, Tracer& tracer) {
  const bool mnist = which == ZooModel::kMnist;
  const std::string cached = config.cache_dir + "/" +
                             (mnist ? "mnist_tanh_tiny" : "cifar_relu_tiny") +
                             ".dnnv";
  if (!std::filesystem::exists(cached)) {
    // Training here would be timed as set-up; the runner prepares first.
    throw std::runtime_error("zoo cache " + cached +
                             " is missing; run with --prepare first");
  }
  Model model;
  {
    auto span = tracer.span("exp.load");
    const exp::ZooOptions zoo = zoo_options(config.cache_dir);
    model.trained = mnist ? exp::mnist_tanh(zoo) : exp::cifar_relu(zoo);
  }
  auto span = tracer.span("data.pool");
  const std::uint64_t pool_seed = mix_seed(config.seed, mnist ? 1 : 2);
  model.pool = mnist ? data::materialize(data::DigitsDataset(pool_seed, kPoolSize),
                                         kPoolSize)
                           .images
                     : data::materialize(data::ShapesDataset(pool_seed, kPoolSize),
                                         kPoolSize)
                           .images;
  return model;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

ServeMix make_mix(const std::vector<const pipeline::Deliverable*>& bundles,
                  std::uint64_t seed) {
  constexpr int kPartsPerModel = 2;
  constexpr int kFaultsPerPart = 4;
  ServeMix mix;
  mix.connections.resize(2 * ServeMix::kTamperedConnections);
  Rng rng(mix_seed(seed, 3));
  for (std::size_t conn = 0; conn < mix.connections.size(); ++conn) {
    for (std::size_t m = 0; m < bundles.size(); ++m) {
      const pipeline::Deliverable& bundle = *bundles[m];
      if (conn >= ServeMix::kTamperedConnections) {
        Part clean;
        clean.model = m;
        clean.expected.passed = true;
        clean.expected.tests_run = static_cast<int>(bundle.suite.size());
        mix.connections[conn].push_back(clean);
        continue;
      }
      const auto codes = static_cast<std::uint64_t>(bundle.qmodel.param_count());
      for (int k = 0; k < kPartsPerModel; ++k) {
        Part part;
        part.model = m;
        for (int f = 0; f < kFaultsPerPart; ++f) {
          part.faults.push_back({static_cast<std::size_t>(rng.uniform_u64(codes)), 7});
        }
        part.expected = reference_verdict(bundle, part.faults);
        mix.connections[conn].push_back(part);
      }
    }
  }
  return mix;
}

namespace {

/// What one connection's closed loop saw: latencies in ms per model.
struct ConnectionLog {
  std::vector<std::vector<double>> ms;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// Closed loop of connection `conn`: cycles through its parts in a seeded
/// order until `more()` is false, checking every verdict.
void run_connection(const ServeMix& mix, std::size_t conn, std::uint64_t seed,
                    const RequestFn& request, Tracer& tracer, std::int64_t parent,
                    const std::string& prefix, const std::function<bool()>& more,
                    ConnectionLog& log) {
  const bool tampered = conn < ServeMix::kTamperedConnections;
  const std::vector<Part>& parts = mix.connections[conn];
  const std::string span_name = prefix + (tampered ? ".tampered" : ".clean");
  std::vector<std::size_t> order(parts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(mix_seed(seed, 100 + conn));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniform_u64(i))]);
  }
  std::uint64_t seq = 0;
  do {
    const std::size_t part = order[seq % order.size()];
    const std::uint64_t request_id = (std::uint64_t{conn + 1} << 40) | ++seq;
    const bool record = tampered || seq % kCleanSpanEvery == 0;
    bool ok = false;
    const Stopwatch watch;
    try {
      if (record) {
        auto span = tracer.span_under(span_name, parent, request_id);
        ok = same_verdict(request(conn, part), parts[part].expected);
      } else {
        ok = same_verdict(request(conn, part), parts[part].expected);
      }
    } catch (const std::exception& e) {
      if (log.failed == 0) {
        std::cerr << prefix << " connection " << conn << ": " << e.what() << "\n";
      }
    }
    log.ms[parts[part].model].push_back(watch.elapsed_ms());
    ++log.attempted;
    if (!ok) ++log.failed;
  } while (more());
}

/// Runs `loop(conn, log)` on one thread per connection in `conns` and
/// gathers what they saw.
WindowStats run_connections(
    const ServeMix& mix, const std::vector<std::size_t>& conns,
    const std::string& prefix,
    const std::function<void(std::size_t, ConnectionLog&)>& loop) {
  std::size_t models = 0;
  for (const auto& parts : mix.connections) {
    for (const Part& part : parts) models = std::max(models, part.model + 1);
  }
  std::vector<ConnectionLog> logs(conns.size());
  for (ConnectionLog& log : logs) log.ms.resize(models);
  std::vector<std::thread> threads;
  threads.reserve(conns.size());
  for (std::size_t i = 0; i < conns.size(); ++i) {
    threads.emplace_back([&, i] { loop(conns[i], logs[i]); });
  }
  for (auto& thread : threads) thread.join();

  WindowStats stats;
  stats.tampered_ms.resize(models);
  stats.clean_ms.resize(models);
  for (std::size_t i = 0; i < conns.size(); ++i) {
    auto& into = conns[i] < ServeMix::kTamperedConnections ? stats.tampered_ms
                                                           : stats.clean_ms;
    for (std::size_t m = 0; m < models; ++m) {
      into[m].insert(into[m].end(), logs[i].ms[m].begin(), logs[i].ms[m].end());
    }
    stats.attempted += logs[i].attempted;
    stats.failed += logs[i].failed;
  }
  if (stats.failed > 0) {
    std::cerr << "check failed: " << stats.failed << " of " << stats.attempted
              << " " << prefix << " verdicts differ from the reference\n";
  }
  return stats;
}

Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Appends `more` to `into`: latencies, counts and seconds.
void merge(WindowStats& into, const WindowStats& more) {
  into.tampered_ms.resize(std::max(into.tampered_ms.size(), more.tampered_ms.size()));
  into.clean_ms.resize(std::max(into.clean_ms.size(), more.clean_ms.size()));
  for (std::size_t m = 0; m < more.tampered_ms.size(); ++m) {
    into.tampered_ms[m].insert(into.tampered_ms[m].end(), more.tampered_ms[m].begin(),
                               more.tampered_ms[m].end());
    into.clean_ms[m].insert(into.clean_ms[m].end(), more.clean_ms[m].begin(),
                            more.clean_ms[m].end());
  }
  into.tampered_seconds += more.tampered_seconds;
  into.attempted += more.attempted;
  into.failed += more.failed;
}

}  // namespace

WindowStats drive_mix(const ServeMix& mix, double seconds, std::uint64_t seed,
                      const RequestFn& request, Tracer& tracer,
                      std::int64_t parent, const std::string& prefix) {
  std::atomic<std::size_t> tampered_running{ServeMix::kTamperedConnections};
  std::mutex done_mutex;
  Clock::time_point last_tampered_done;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = deadline_after(seconds);
  std::vector<std::size_t> conns(mix.connections.size());
  for (std::size_t c = 0; c < conns.size(); ++c) conns[c] = c;
  WindowStats stats =
      run_connections(mix, conns, prefix, [&](std::size_t conn, ConnectionLog& log) {
        const bool tampered = conn < ServeMix::kTamperedConnections;
        run_connection(mix, conn, seed, request, tracer, parent, prefix,
                       [&] {
                         return tampered ? Clock::now() < deadline
                                         : tampered_running.load() > 0;
                       },
                       log);
        if (tampered) {
          std::lock_guard<std::mutex> lock(done_mutex);
          last_tampered_done = Clock::now();
          --tampered_running;
        }
      });
  stats.tampered_seconds =
      std::chrono::duration<double>(last_tampered_done - start).count();
  return stats;
}

WindowStats drive_class(const ServeMix& mix, bool tampered, double seconds,
                        std::uint64_t seed, const RequestFn& request) {
  Tracer off(false);
  std::vector<std::size_t> conns;
  for (std::size_t c = 0; c < mix.connections.size(); ++c) {
    if ((c < ServeMix::kTamperedConnections) == tampered) conns.push_back(c);
  }
  const std::string prefix = tampered ? "serve.tampered" : "serve.clean";
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = deadline_after(seconds);
  WindowStats stats =
      run_connections(mix, conns, prefix, [&](std::size_t conn, ConnectionLog& log) {
        run_connection(mix, conn, seed, request, off, -1, "serve",
                       [&] { return Clock::now() < deadline; }, log);
      });
  if (tampered) {
    stats.tampered_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  }
  return stats;
}

void serve_segment(const ServeMix& mix, double seconds, std::uint64_t seed,
                   const RequestFn& request, ServeSamples& samples) {
  const ScaledWatch tampered_watch;
  const WindowStats tampered = drive_class(mix, true, seconds / 2, seed, request);
  samples.tampered_ms.push_back(1e3 * scaled_seconds(tampered_watch.stop()) /
                                static_cast<double>(tampered.attempted));
  const ScaledWatch clean_watch;
  const WindowStats clean = drive_class(mix, false, seconds / 2, seed, request);
  samples.clean_us.push_back(1e6 * scaled_seconds(clean_watch.stop()) /
                             static_cast<double>(clean.attempted));
  merge(samples.tampered, tampered);
  merge(samples.clean, clean);
}

std::vector<double> receipts(const std::string& path, int count, Tracer& tracer,
                             Outcome& outcome) {
  std::vector<CallTime> calls;
  for (int r = 0; r < count; ++r) {
    const ScaledWatch watch;
    auto phase = tracer.span("receipt");
    const pipeline::UserValidator user = [&] {
      auto span = tracer.span("pipeline.load");
      return pipeline::UserValidator::load_file(path, kReleaseKey);
    }();
    validate::Verdict verdict;
    {
      auto span = tracer.span("pipeline.validate");
      verdict = user.validate();
    }
    calls.push_back(watch.stop());
    outcome.op(verdict.passed &&
                   verdict.tests_run == static_cast<int>(user.deliverable().suite.size()),
               "receipt verdict is not SECURE");
  }
  std::vector<double> ms;
  for (const CallTime& call : calls) ms.push_back(1e3 * scaled_seconds(call));
  return ms;
}

TcpRig::TcpRig(const std::vector<std::string>& paths, const ServeMix& mix) {
  net::ServerConfig config;
  config.max_connections = 8;
  config.service = serve_service_config();
  server_ = std::make_unique<net::ValidationServer>(config);
  std::vector<std::uint32_t> ids;
  for (const std::string& path : paths) {
    ids.push_back(server_->preload(path, kReleaseKey));
  }
  for (const auto& parts : mix.connections) {
    clients_.push_back(net::ValidationClient::connect("127.0.0.1", server_->port()));
    std::vector<std::uint32_t> sessions;
    for (const Part& part : parts) {
      sessions.push_back(
          clients_.back().open(ids[part.model], session_config(part)).session_id);
    }
    sessions_.push_back(std::move(sessions));
  }
  warm_up_rig(*this, mix);
}

TcpRig::~TcpRig() {
  for (auto& client : clients_) {
    try {
      client.goodbye();
    } catch (const std::exception& e) {
      std::cerr << "goodbye: " << e.what() << "\n";
    }
  }
  server_->stop();
}

validate::Verdict TcpRig::request(std::size_t conn, std::size_t part) {
  return clients_[conn].validate(sessions_[conn][part]);
}

void add_serve_metrics(const ServeSamples& samples, Outcome& outcome) {
  const WindowStats& tampered = samples.tampered;
  const WindowStats& clean = samples.clean;
  outcome.attempted += tampered.attempted + clean.attempted;
  outcome.failed += tampered.failed + clean.failed;
  outcome.metrics.add("tampered_ref_ms", median(samples.tampered_ms), "ms");
  outcome.metrics.add("clean_ref_us", median(samples.clean_us), "us");
  std::cout << "serve: " << samples.tampered_ms.size()
            << " tampered and clean windows; tampered "
            << static_cast<double>(tampered.attempted) / tampered.tampered_seconds
            << " /s, p50 " << mean_percentile(tampered.tampered_ms, 50) << " ms, p90 "
            << mean_percentile(tampered.tampered_ms, 90) << " ms; clean p50 "
            << mean_percentile(clean.clean_ms, 50)
            << " ms (wall clock, per-model percentiles averaged)\n";
  for (std::size_t m = 0; m < tampered.tampered_ms.size(); ++m) {
    std::cout << "serve: model " << m << " tampered p99 "
              << percentile(tampered.tampered_ms[m], 99) << " ms over "
              << tampered.tampered_ms[m].size() << " requests, clean p99 "
              << percentile(clean.clean_ms[m], 99) << " ms over "
              << clean.clean_ms[m].size() << " requests\n";
  }
}

namespace {

/// The serving mix through ValidationService sessions, without TCP.
class ServiceRig {
 public:
  ServiceRig(const std::vector<std::string>& paths, const ServeMix& mix);
  validate::Verdict request(std::size_t conn, std::size_t part);

 private:
  pipeline::ValidationService service_;
  std::vector<pipeline::DeliverableHandle> handles_;
  std::vector<std::vector<std::shared_ptr<pipeline::Session>>> sessions_;
};

ServiceRig::ServiceRig(const std::vector<std::string>& paths,
                       const ServeMix& mix)
    : service_(serve_service_config()) {
  for (const std::string& path : paths) {
    handles_.push_back(service_.load_file(path, kReleaseKey));
  }
  for (const auto& parts : mix.connections) {
    std::vector<std::shared_ptr<pipeline::Session>> sessions;
    for (const Part& part : parts) {
      sessions.push_back(
          service_.open_session(handles_[part.model], session_config(part)));
    }
    sessions_.push_back(std::move(sessions));
  }
  warm_up_rig(*this, mix);
}

validate::Verdict ServiceRig::request(std::size_t conn, std::size_t part) {
  return sessions_[conn][part]->submit().get();
}

/// Median ms of a full int8 suite replay on a faulted device of each model
/// ("quant.forward" spans), averaged over the models. The first replay
/// syncs the faulted weights and is one of the samples the median drops.
double measure_faulted_forward_ms(
    const std::vector<const pipeline::Deliverable*>& bundles,
    const ServeMix& mix, Tracer& tracer) {
  constexpr int kRepeats = 7;
  double total = 0.0;
  for (std::size_t m = 0; m < bundles.size(); ++m) {
    const Part* part = nullptr;
    for (const Part& candidate : mix.connections.front()) {
      if (candidate.model == m) {
        part = &candidate;
        break;
      }
    }
    // The device a tampered session replays on, faulted the same way.
    const std::unique_ptr<ip::BlackBoxIp> device =
        pipeline::make_device(*bundles[m], pipeline::BackendKind::kInt8);
    auto& faulted = dynamic_cast<ip::QuantizedIp&>(*device);
    for (const validate::CodeFault& fault : part->faults) {
      faulted.flip_bit(fault.address, fault.bit);
    }
    std::vector<double> times;
    for (int r = 0; r < kRepeats; ++r) {
      const Stopwatch watch;
      auto span = tracer.span("quant.forward");
      faulted.predict_all(bundles[m]->suite.inputs());
      times.push_back(watch.elapsed_ms());
    }
    total += median(times);
  }
  return total / static_cast<double>(bundles.size());
}

}  // namespace

void add_serving_layer_metrics(
    const std::vector<std::string>& paths,
    const std::vector<const pipeline::Deliverable*>& bundles,
    const ServeMix& mix, TcpRig& rig, double seconds, const RunConfig& config,
    Tracer& tracer, Outcome& outcome, LayerValues& values) {
  values["quant.forward_ms"] = measure_faulted_forward_ms(bundles, mix, tracer);

  {
    ServiceRig in_process(paths, mix);
    auto phase = tracer.span("pipeline.window");
    const WindowStats window =
        drive_mix(mix, seconds, config.seed,
                  [&](std::size_t c, std::size_t p) { return in_process.request(c, p); },
                  tracer, phase.index(), "pipeline");
    outcome.attempted += window.attempted;
    outcome.failed += window.failed;
    values["pipeline.tampered_p50_ms"] = mean_percentile(window.tampered_ms, 50);
    values["pipeline.clean_p50_ms"] = mean_percentile(window.clean_ms, 50);
  }

  const auto service_before = rig.server().service().stats();
  const auto net_before = rig.server().stats();
  WindowStats window;
  {
    auto phase = tracer.span("serve.window");
    window = drive_mix(mix, seconds, config.seed,
                       [&](std::size_t c, std::size_t p) { return rig.request(c, p); },
                       tracer, phase.index(), "serve");
  }
  outcome.attempted += window.attempted;
  outcome.failed += window.failed;
  const auto service_after = rig.server().service().stats();
  const auto net_after = rig.server().stats();
  const auto delta = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double batches = delta(service_after.batches, service_before.batches);
  const double predicted = delta(service_after.predicted, service_before.predicted);
  const double cached = delta(service_after.cache_served, service_before.cache_served);
  values["service.batches"] = batches;
  values["service.predicted"] = predicted;
  values["service.cache_served"] = cached;
  values["service.cache_hit_pct"] = 100.0 * cached / (cached + predicted);
  values["service.batch_mean"] = predicted / batches;
  values["net.tampered_rps"] =
      static_cast<double>(sample_count(window.tampered_ms)) / window.tampered_seconds;
  values["net.tampered_p50_ms"] = mean_percentile(window.tampered_ms, 50);
  values["net.tampered_p90_ms"] = mean_percentile(window.tampered_ms, 90);
  values["net.clean_p50_ms"] = mean_percentile(window.clean_ms, 50);
  values["net.clean_overhead_ms"] =
      values["net.clean_p50_ms"] - values["pipeline.clean_p50_ms"];
  values["net.frames"] = delta(net_after.requests, net_before.requests);
  values["net.peak_inflight"] = static_cast<double>(net_after.peak_inflight_submits);
  const double rejected = delta(net_after.rejected_busy, net_before.rejected_busy);
  values["net.rejected_busy"] = rejected;
  outcome.op(rejected == 0.0, "server turned connections away with kBusy");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace e2e
