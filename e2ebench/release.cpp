// release-cifar-affine: rounds of a vendor release, user receipts and a
// user audit, then a short serving phase over the released part.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "decomposed.h"
#include "phases.h"
#include "pipeline/user.h"
#include "pipeline/vendor.h"
#include "util/stopwatch.h"
#include "workload.h"

namespace e2e {
namespace {

/// Receipts timed per round; receipt_ref_ms is their median.
constexpr int kReceipts = 30;

/// Seconds of each serving segment (one tampered and one clean window).
/// A round serves one segment after each group of receipts, so the serving
/// samples are spread through the run like the others.
constexpr double kServeSegmentSeconds = 2.0;

/// Seconds each serving window of a traced run lasts.
constexpr double kTracedServeSeconds = 3.0;

struct ReleaseSpec {
  ZooModel model = ZooModel::kCifar;
  pipeline::VendorOptions options;
  /// Wall time of one release-receipts-audit round on an unloaded 4-vCPU
  /// host. A run does ceil(seconds / this) rounds, a fixed count, so that a
  /// slow host stretches the run instead of changing which samples the
  /// medians and the peak RSS are taken over.
  double nominal_round_s = 10.0;
};

ReleaseSpec release_spec(const std::string& workload) {
  if (workload != "release-cifar-affine") {
    throw std::invalid_argument("not a release workload: " + workload);
  }
  ReleaseSpec spec;
  pipeline::VendorOptions& o = spec.options;
  o.method = "combined";
  o.backend = "int8";
  o.num_tests = 24;
  o.fault_model = "full";
  o.fault_budget = 2048;
  o.analysis_domain = "affine";
  o.calibrated = true;
  o.compact = false;
  return spec;
}

pipeline::VendorOptions options_for(const ReleaseSpec& spec, const Model& model) {
  pipeline::VendorOptions options = spec.options;
  options.generator.coverage = model.trained.coverage;
  options.model_name = model.trained.name;
  return options;
}

void measure(const ReleaseSpec& spec, const Model& model, const RunConfig& config,
             Tracer& tracer, Outcome& outcome) {
  const pipeline::VendorOptions options = options_for(spec, model);
  const exp::TrainedModel& trained = model.trained;
  const std::string path = config.work_dir + "/release.dnnv";
  std::vector<double> release_s;
  std::vector<double> release_wall_s;
  std::vector<double> receipt_ms;
  std::vector<double> audit_s;
  pipeline::Manifest first;
  // The part served is the first release; later rounds must make the same
  // claims, so the served verdicts stay valid.
  std::unique_ptr<pipeline::Deliverable> shipped;
  ServeMix mix;
  std::unique_ptr<TcpRig> rig;
  ServeSamples samples;
  const auto serve = [&] {
    serve_segment(mix, kServeSegmentSeconds,
                  mix_seed(config.seed, 300 + samples.tampered_ms.size()),
                  [&](std::size_t c, std::size_t p) { return rig->request(c, p); },
                  samples);
  };
  const int rounds =
      std::max(1, static_cast<int>(std::ceil(config.seconds / spec.nominal_round_s)));
  for (int round = 0; round < rounds; ++round) {
    const ScaledWatch watch;
    pipeline::Deliverable bundle = pipeline::VendorPipeline(options).run(
        trained.model, trained.item_shape, trained.num_classes, model.pool);
    bundle.save_file(path, kReleaseKey);
    const CallTime call = watch.stop();
    release_s.push_back(scaled_seconds(call));
    release_wall_s.push_back(call.wall_seconds());
    if (round == 0) {
      first = bundle.manifest;
      shipped = std::make_unique<pipeline::Deliverable>(
          pipeline::Deliverable::load_file(path, kReleaseKey));
      mix = make_mix({shipped.get()}, config.seed);
      rig = std::make_unique<TcpRig>(std::vector<std::string>{path}, mix);
    }
    outcome.op(same_claims(bundle.manifest, first),
               "a repeated release changed the manifest's claims");

    // Receipts and serving are sampled before and after the audit, so a
    // host slowdown that lasts a few seconds cannot move all of them.
    std::vector<double> ms = receipts(path, kReceipts / 2, tracer, outcome);
    receipt_ms.insert(receipt_ms.end(), ms.begin(), ms.end());
    serve();

    const pipeline::UserValidator user =
        pipeline::UserValidator::load_file(path, kReleaseKey);
    const ScaledWatch audit_watch;
    const pipeline::SuiteCoverage coverage = user.suite_coverage();
    const fault::FaultQualification faults = user.fault_coverage();
    audit_s.push_back(scaled_seconds(audit_watch.stop()));
    outcome.op(audit_reproduces(bundle.manifest, coverage, &faults),
               "the audit does not reproduce the manifest");

    ms = receipts(path, kReceipts - kReceipts / 2, tracer, outcome);
    receipt_ms.insert(receipt_ms.end(), ms.begin(), ms.end());
    serve();
  }
  outcome.op(rig->server().stats().rejected_busy == 0,
             "server turned connections away with kBusy");
  rig.reset();

  MetricSet& metrics = outcome.metrics;
  metrics.add("release_ref_s", median(release_s), "s");
  metrics.add("receipt_ref_ms", median(receipt_ms), "ms");
  metrics.add("audit_ref_s", median(audit_s), "s");
  metrics.add("coverage_pct", 100.0 * first.coverage, "%");
  add_serve_metrics(samples, outcome);
  std::cout << config.workload << ": " << release_s.size() << " releases (wall median "
            << median(release_wall_s) << " s), " << receipt_ms.size() << " receipts, "
            << audit_s.size() << " audits; detected " << first.fault_detected << "/"
            << first.fault_universe << " faults, " << first.num_tests
            << " tests shipped\n";
}

void measure_traced(const ReleaseSpec& spec, const Model& model,
                    const RunConfig& config, Tracer& tracer, Outcome& outcome,
                    LayerValues& values) {
  const pipeline::VendorOptions options = options_for(spec, model);
  const exp::TrainedModel& trained = model.trained;
  const std::string path = config.work_dir + "/release.dnnv";
  const std::string reference_path = config.work_dir + "/reference.dnnv";

  Stopwatch watch;
  pipeline::Deliverable reference = pipeline::VendorPipeline(options).run(
      trained.model, trained.item_shape, trained.num_classes, model.pool);
  reference.save_file(reference_path, kReleaseKey);
  const double untraced_s = watch.elapsed_seconds();

  watch.reset();
  ReleaseTrace release;
  pipeline::Deliverable bundle;
  {
    auto phase = tracer.span("release");
    bundle = traced_release(trained, model.pool, options, tracer, release);
    auto span = tracer.span("pipeline.save");
    bundle.save_file(path, kReleaseKey);
  }
  const double traced_s = watch.elapsed_seconds();
  outcome.op(same_claims(bundle.manifest, reference.manifest),
             "the decomposed release differs from VendorPipeline::run");

  receipts(path, kReceipts, tracer, outcome);

  const pipeline::UserValidator user =
      pipeline::UserValidator::load_file(path, kReleaseKey);
  {
    auto phase = tracer.span("audit");
    const pipeline::SuiteCoverage coverage =
        traced_suite_coverage(user.deliverable(), tracer);
    const fault::FaultQualification faults =
        traced_fault_coverage(user.deliverable(), tracer);
    outcome.op(audit_reproduces(bundle.manifest, coverage, &faults),
               "the decomposed audit does not reproduce the manifest");
  }

  const ServeMix mix = make_mix({&bundle}, config.seed);
  {
    TcpRig rig({path}, mix);
    add_serving_layer_metrics({path}, {&bundle}, mix, rig, kTracedServeSeconds,
                              config, tracer, outcome, values);
  }

  values["testgen.tests"] = static_cast<double>(release.generated);
  values["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s;
  finish_layer_values(tracer, values);
  add_fault_counts(release.faults, static_cast<std::int64_t>(bundle.suite.size()),
                   values);
  std::cout << config.workload << ": traced release " << traced_s
            << " s, untraced " << untraced_s << " s\n";
}

}  // namespace

Outcome run_release_workload(const RunConfig& config) {
  const ReleaseSpec spec = release_spec(config.workload);
  Tracer tracer(config.trace);
  Outcome outcome;
  LayerValues values;
  std::unique_ptr<Model> model;
  PhasePlan plan;
  plan.setup_repeats = kSetupRepeats;
  plan.warm_up = [] { spin_all_threads(kWarmUpSeconds); };
  plan.setup = [&] {
    model.reset();
    auto phase = tracer.span("setup");
    model = std::make_unique<Model>(load_model(spec.model, config, tracer));
  };
  plan.measure = [&] {
    if (config.trace) {
      measure_traced(spec, *model, config, tracer, outcome, values);
    } else {
      measure(spec, *model, config, tracer, outcome);
    }
  };
  const PhaseTimes times = run_phases(plan);
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
