// Shared pieces of the end-to-end benchmark's workloads: run configuration,
// operation accounting, zoo model + seeded pool loading, and the 2+2
// tampered/clean serving mix driven over TCP or in process.
#ifndef E2EBENCH_WORKLOAD_H_
#define E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exp/model_zoo.h"
#include "net/client.h"
#include "net/server.h"
#include "pipeline/deliverable.h"
#include "pipeline/service.h"
#include "stats.h"
#include "trace.h"
#include "validate/backend.h"
#include "validate/validator.h"

namespace e2e {

// The benchmark drives every layer of the library.
using namespace dnnv;

/// Release key every deliverable of the benchmark is sealed with.
constexpr std::uint64_t kReleaseKey = 0xE2EB;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir;  ///< zoo model cache (prepared before the run)
  std::string work_dir;   ///< scratch directory for deliverable files
  std::string trace_dir;  ///< where traced runs write their trace file
};

/// Attempted/failed operation counts of a run plus its metrics.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  MetricSet metrics;

  /// Counts one operation; a false `ok` is a failure, reported on stderr.
  void op(bool ok, const std::string& what);
};

enum class ZooModel { kMnist, kCifar };

/// A tiny zoo model plus the candidate pool drawn for this run's seed.
struct Model {
  exp::TrainedModel trained;
  std::vector<Tensor> pool;
};

/// Trains (when the cache is cold) and caches both tiny zoo models.
void prepare_models(const std::string& cache_dir);

/// Loads a cached tiny zoo model ("exp.load" span) and draws its seeded
/// pool ("data.pool" span).
Model load_model(ZooModel which, const RunConfig& config, Tracer& tracer);

/// 64-bit seed mixer (splitmix64 finaliser) for deriving per-purpose seeds.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// One session a connection drives.
struct Part {
  std::size_t model = 0;  ///< index into the served deliverables
  std::vector<validate::CodeFault> faults;  ///< empty = clean part
  validate::Verdict expected;
};

/// Connections 0 and 1 validate tampered parts, 2 and 3 clean ones.
struct ServeMix {
  static constexpr std::size_t kTamperedConnections = 2;
  std::vector<std::vector<Part>> connections;
};

/// Seeded mix over `bundles`: each tampered connection gets two parts per
/// model with four sign-bit code faults each, each clean connection one
/// part per model.
ServeMix make_mix(const std::vector<const pipeline::Deliverable*>& bundles,
                  std::uint64_t seed);

struct WindowStats {
  /// Request latencies in ms, per served model. Latency is reported per
  /// model and averaged over models: pooled, the two models' latencies form
  /// two modes and a pooled median would jump between them.
  std::vector<std::vector<double>> tampered_ms;
  std::vector<std::vector<double>> clean_ms;
  double tampered_seconds = 0.0;  ///< window start to last tampered verdict
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// One validation request of connection `conn` on its part `part`.
using RequestFn =
    std::function<validate::Verdict(std::size_t conn, std::size_t part)>;

/// Closed loop, one thread per connection: tampered connections send until
/// `seconds` have passed, clean connections until the tampered ones are
/// done. Each connection cycles through its parts in a seeded order; every
/// verdict is checked against its part's expected verdict. With tracing on,
/// each request gets a span named `<prefix>.tampered` / `<prefix>.clean`
/// under `parent`.
WindowStats drive_mix(const ServeMix& mix, double seconds, std::uint64_t seed,
                      const RequestFn& request, Tracer& tracer,
                      std::int64_t parent, const std::string& prefix);

/// The connections of one class alone (tampered or clean), closed loop, one
/// thread each, for `seconds`. Parts are cycled as in drive_mix, so every
/// window spreads its requests evenly over the parts and models.
WindowStats drive_class(const ServeMix& mix, bool tampered, double seconds,
                        std::uint64_t seed, const RequestFn& request);

/// The serving samples of a run: scaled CPU time per request of each class,
/// one value per window, and the merged windows for the latency summary.
struct ServeSamples {
  std::vector<double> tampered_ms;
  std::vector<double> clean_us;
  WindowStats tampered;
  WindowStats clean;
};

/// One tampered window, then one clean window, each `seconds` / 2.
void serve_segment(const ServeMix& mix, double seconds, std::uint64_t seed,
                   const RequestFn& request, ServeSamples& samples);

/// In-process server on an ephemeral loopback port serving `paths`, with
/// one connected client per mix connection and one open session per part;
/// every session is validated once before the rig is returned (warm-up).
/// The service runs one micro-batch at a time, so every tampered batch
/// runs on the scheduler thread.
class TcpRig {
 public:
  TcpRig(const std::vector<std::string>& paths, const ServeMix& mix);
  ~TcpRig();
  TcpRig(const TcpRig&) = delete;
  TcpRig& operator=(const TcpRig&) = delete;

  validate::Verdict request(std::size_t conn, std::size_t part);
  net::ValidationServer& server() { return *server_; }

 private:
  std::unique_ptr<net::ValidationServer> server_;
  std::vector<net::ValidationClient> clients_;
  std::vector<std::vector<std::uint32_t>> sessions_;
};

/// UserValidator::load_file + validate() of `path`, `count` times, each
/// checked SECURE over the whole suite; returns each receipt's scaled CPU
/// ms. The two calls get pipeline.load / pipeline.validate spans under
/// "receipt".
std::vector<double> receipts(const std::string& path, int count, Tracer& tracer,
                             Outcome& outcome);

/// Adds tampered_ref_ms and clean_ref_us (medians over the windows) and
/// the windows' attempted and failed requests. Prints the wall-clock
/// latencies and rates: they follow the host's speed too closely to hold a
/// bound, so they are printed, and the traced run reports them.
void add_serve_metrics(const ServeSamples& samples, Outcome& outcome);

// ---- Per-layer metrics of a traced run ----

struct LayerMetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run prints, in print order.
const std::vector<LayerMetricSpec>& layer_metric_specs();

/// Per-layer values gathered by a traced run, keyed by metric name.
using LayerValues = std::map<std::string, double>;

/// Span-derived per-layer values, once the traced phases are over: the
/// total self time of the spans behind each "<span>_ms" metric, except
/// exp.load and data.pool (per set-up) and pipeline.save, .load and
/// .validate (median per call), plus trace.unaccounted_pct over the
/// release, receipt and audit phases.
void finish_layer_values(const Tracer& tracer, LayerValues& values);

/// Set-up repetitions of every workload (setup_s is their median).
constexpr int kSetupRepeats = 9;

/// Static-prune and fault counts of a qualification over `tests` tests;
/// needs fault.simulate_ms already in `values`.
void add_fault_counts(const fault::FaultQualification& q, std::int64_t tests,
                      LayerValues& values);

/// Adds every per-layer metric to `metrics`, 0 for a layer the workload
/// does not run; throws on a key that is not a per-layer metric.
void add_layer_metrics(const LayerValues& values, MetricSet& metrics);

/// Serving layers of a traced run: the faulted int8 replay (quant.forward),
/// the mix in process (pipeline.*), then over `rig` (service.*, net.*).
void add_serving_layer_metrics(const std::vector<std::string>& paths,
                               const std::vector<const pipeline::Deliverable*>& bundles,
                               const ServeMix& mix, TcpRig& rig, double seconds,
                               const RunConfig& config, Tracer& tracer,
                               Outcome& outcome, LayerValues& values);

/// Process peak resident set size in MB.
double peak_rss_mb();

/// Untimed warm-up before set-up is timed.
constexpr double kWarmUpSeconds = 1.5;

/// Writes the trace file and prints the self-time table of a traced run.
void finish_trace(const Tracer& tracer, const RunConfig& config);

/// Runs one workload; returns its outcome (metrics per config.trace).
Outcome run_release_workload(const RunConfig& config);
Outcome run_serve_workload(const RunConfig& config);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOAD_H_
