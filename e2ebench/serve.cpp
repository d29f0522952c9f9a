// serve-mixed: both tiny models shipped as int8 deliverables (greedy, 24
// tests, no fault stage) and served over loopback TCP to two connections
// validating tampered parts and two validating clean ones.
#include <memory>

#include "decomposed.h"
#include "phases.h"
#include "pipeline/user.h"
#include "pipeline/vendor.h"
#include "workload.h"

namespace e2e {
namespace {

/// The serving window runs in this many segments with a round of releases,
/// receipts and audits before each, so the short timings are sampled across
/// the whole run rather than in one burst a host slowdown can cover.
constexpr int kSegments = 8;
constexpr int kReceiptsPerSegment = 3;  ///< per model
constexpr int kAuditsPerSegment = 2;

/// Everything one set-up builds; the last set-up's state is measured.
struct ServeState {
  std::vector<Model> models;
  std::vector<pipeline::Deliverable> bundles;
  std::vector<std::string> paths;
  ServeMix mix;
  std::unique_ptr<TcpRig> rig;

  std::vector<const pipeline::Deliverable*> bundle_ptrs() const {
    std::vector<const pipeline::Deliverable*> out;
    for (const auto& bundle : bundles) out.push_back(&bundle);
    return out;
  }
};

/// One int8 release of `model` (greedy, 24 tests, no fault stage) saved to
/// `path`.
pipeline::Deliverable release(const Model& model, const std::string& path,
                              Tracer& tracer) {
  pipeline::VendorOptions options;
  options.method = "greedy";
  options.backend = "int8";
  options.num_tests = 24;
  options.generator.coverage = model.trained.coverage;
  options.model_name = model.trained.name;
  const exp::TrainedModel& trained = model.trained;
  pipeline::Deliverable bundle = pipeline::VendorPipeline(options).run(
      trained.model, trained.item_shape, trained.num_classes, model.pool);
  auto span = tracer.span("pipeline.save");
  bundle.save_file(path, kReleaseKey);
  return bundle;
}

/// Builds one set-up: loads both models, releases them and starts serving.
std::unique_ptr<ServeState> set_up(const RunConfig& config, Tracer& tracer) {
  auto state = std::make_unique<ServeState>();
  for (const ZooModel which : {ZooModel::kMnist, ZooModel::kCifar}) {
    state->models.push_back(load_model(which, config, tracer));
  }
  for (std::size_t m = 0; m < state->models.size(); ++m) {
    const std::string path =
        config.work_dir + "/" + state->models[m].trained.name + ".dnnv";
    state->bundles.push_back(release(state->models[m], path, tracer));
    state->paths.push_back(path);
  }
  state->mix = make_mix(state->bundle_ptrs(), config.seed);
  state->rig = std::make_unique<TcpRig>(state->paths, state->mix);
  return state;
}

/// suite_coverage() of every served deliverable (none ships a fault claim),
/// `rounds` times; returns each round's scaled CPU seconds.
std::vector<double> audits(const ServeState& state, int rounds, Tracer& tracer,
                           Outcome& outcome) {
  std::vector<pipeline::UserValidator> users;
  for (const std::string& path : state.paths) {
    users.push_back(pipeline::UserValidator::load_file(path, kReleaseKey));
  }
  std::vector<CallTime> calls;
  for (int r = 0; r < rounds; ++r) {
    const ScaledWatch watch;
    auto phase = tracer.span("audit");
    for (const auto& user : users) {
      const pipeline::SuiteCoverage coverage =
          tracer.enabled() ? traced_suite_coverage(user.deliverable(), tracer)
                           : user.suite_coverage();
      outcome.op(audit_reproduces(user.deliverable().manifest, coverage, nullptr),
                 "the audit does not reproduce the manifest's coverage");
    }
    calls.push_back(watch.stop());
  }
  std::vector<double> seconds;
  for (const CallTime& call : calls) seconds.push_back(scaled_seconds(call));
  return seconds;
}

/// Mean over the served models of each model's median receipt ms.
double receipt_ms(const ServeState& state, Tracer& tracer, Outcome& outcome) {
  std::vector<std::vector<double>> ms;
  for (const std::string& path : state.paths) {
    ms.push_back(receipts(path, kSegments * kReceiptsPerSegment, tracer, outcome));
  }
  return mean_percentile(ms, 50);
}

void measure(const ServeState& state, const RunConfig& config, Tracer& tracer,
             Outcome& outcome) {
  std::vector<std::vector<double>> release_s(state.paths.size());
  std::vector<std::vector<double>> receipt_ms(state.paths.size());
  std::vector<double> audit_s;
  ServeSamples samples;
  for (int segment = 0; segment < kSegments; ++segment) {
    for (std::size_t m = 0; m < state.paths.size(); ++m) {
      // A fresh release per model and segment, to a file nobody serves.
      const ScaledWatch watch;
      const pipeline::Deliverable again =
          release(state.models[m], config.work_dir + "/again.dnnv", tracer);
      release_s[m].push_back(scaled_seconds(watch.stop()));
      outcome.op(again.manifest.coverage == state.bundles[m].manifest.coverage,
                 "a repeated release changed the manifest's coverage");
      const std::vector<double> ms =
          receipts(state.paths[m], kReceiptsPerSegment, tracer, outcome);
      receipt_ms[m].insert(receipt_ms[m].end(), ms.begin(), ms.end());
    }
    const std::vector<double> s = audits(state, kAuditsPerSegment, tracer, outcome);
    audit_s.insert(audit_s.end(), s.begin(), s.end());
    serve_segment(state.mix, config.seconds / kSegments,
                  mix_seed(config.seed, 200 + segment),
                  [&](std::size_t c, std::size_t p) { return state.rig->request(c, p); },
                  samples);
  }
  outcome.op(state.rig->server().stats().rejected_busy == 0,
             "server turned connections away with kBusy");

  double coverage = 0.0;
  for (const auto& bundle : state.bundles) coverage += bundle.manifest.coverage;
  MetricSet& metrics = outcome.metrics;
  metrics.add("release_ref_s", mean_percentile(release_s, 50), "s");
  metrics.add("receipt_ref_ms", mean_percentile(receipt_ms, 50), "ms");
  metrics.add("audit_ref_s", median(audit_s), "s");
  metrics.add("coverage_pct",
              100.0 * coverage / static_cast<double>(state.bundles.size()), "%");
  add_serve_metrics(samples, outcome);
}

void measure_traced(const ServeState& state, const RunConfig& config,
                    Tracer& tracer, Outcome& outcome, LayerValues& values) {
  Tracer off(false);
  const double untraced_ms = receipt_ms(state, off, outcome);
  const double traced_ms = receipt_ms(state, tracer, outcome);
  audits(state, kSegments * kAuditsPerSegment, tracer, outcome);
  add_serving_layer_metrics(state.paths, state.bundle_ptrs(), state.mix,
                            *state.rig, config.seconds, config, tracer, outcome,
                            values);
  values["trace.overhead_pct"] = 100.0 * (traced_ms - untraced_ms) / untraced_ms;
  finish_layer_values(tracer, values);
}

}  // namespace

Outcome run_serve_workload(const RunConfig& config) {
  Tracer tracer(config.trace);
  Outcome outcome;
  LayerValues values;
  std::unique_ptr<ServeState> state;
  PhasePlan plan;
  plan.setup_repeats = kSetupRepeats;
  plan.warm_up = [] { spin_all_threads(kWarmUpSeconds); };
  plan.setup = [&] {
    state.reset();
    auto phase = tracer.span("setup");
    state = set_up(config, tracer);
  };
  plan.measure = [&] {
    if (config.trace) {
      measure_traced(*state, config, tracer, outcome, values);
    } else {
      measure(*state, config, tracer, outcome);
    }
  };
  const PhaseTimes times = run_phases(plan);
  state.reset();
  if (config.trace) {
    add_layer_metrics(values, outcome.metrics);
    finish_trace(tracer, config);
  } else {
    outcome.metrics.add("setup_s", times.setup_median_s(), "s");
    outcome.metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  }
  return outcome;
}

}  // namespace e2e
