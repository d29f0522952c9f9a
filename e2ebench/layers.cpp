#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "workload.h"

namespace e2e {

namespace {

/// Median ms of every span named `name`; 0 when there is none.
double median_span_ms(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> durations;
  for (const Span& span : spans) {
    if (span.name == name && span.end_ns >= 0) {
      durations.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return durations.empty() ? 0.0 : median(durations);
}

/// Share of the time of the spans named in `phases` that no child span
/// covers, in percent.
double unaccounted_pct(const std::vector<Span>& spans,
                       const std::vector<std::string>& phases) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  double uncovered = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (const std::string& phase : phases) {
      if (spans[i].name != phase || spans[i].end_ns < 0) continue;
      uncovered += static_cast<double>(self[i]);
      total += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    }
  }
  return total > 0.0 ? 100.0 * uncovered / total : 0.0;
}

}  // namespace

const std::vector<LayerMetricSpec>& layer_metric_specs() {
  static const std::vector<LayerMetricSpec> specs = {
      {"analysis.ranges_ms", "ms"},
      {"analysis.ranges_calibrated_ms", "ms"},
      {"analysis.classify_ms", "ms"},
      {"analysis.dominance_ms", "ms"},
      {"analysis.conditional_ms", "ms"},
      {"analysis.verify_ms", "ms"},
      {"analysis.untestable", "count"},
      {"analysis.dominated", "count"},
      {"analysis.static_prune_pct", "%"},
      {"testgen.generate_ms", "ms"},
      {"testgen.tests", "count"},
      {"coverage.criterion_ms", "ms"},
      {"coverage.remeasure_ms", "ms"},
      {"fault.enumerate_ms", "ms"},
      {"fault.collapse_ms", "ms"},
      {"fault.simulate_ms", "ms"},
      {"fault.matrix_ms", "ms"},
      {"fault.compact_ms", "ms"},
      {"fault.sim_pairs_per_s", "1/s"},
      {"fault.enumerated", "count"},
      {"fault.scored", "count"},
      {"fault.detected", "count"},
      {"fault.detected_pct", "%"},
      {"fault.kept_tests", "count"},
      {"quant.quantize_ms", "ms"},
      {"quant.forward_ms", "ms"},
      {"validate.golden_ms", "ms"},
      {"pipeline.save_ms", "ms"},
      {"pipeline.load_ms", "ms"},
      {"pipeline.validate_ms", "ms"},
      {"pipeline.tampered_p50_ms", "ms"},
      {"pipeline.clean_p50_ms", "ms"},
      {"service.batches", "count"},
      {"service.predicted", "count"},
      {"service.cache_served", "count"},
      {"service.cache_hit_pct", "%"},
      {"service.batch_mean", "count"},
      {"net.tampered_rps", "1/s"},
      {"net.tampered_p50_ms", "ms"},
      {"net.tampered_p90_ms", "ms"},
      {"net.clean_p50_ms", "ms"},
      {"net.clean_overhead_ms", "ms"},
      {"net.frames", "count"},
      {"net.peak_inflight", "count"},
      {"net.rejected_busy", "count"},
      {"exp.load_ms", "ms"},
      {"data.pool_ms", "ms"},
      {"audit.analysis.ranges_ms", "ms"},
      {"audit.analysis.ranges_calibrated_ms", "ms"},
      {"audit.analysis.classify_ms", "ms"},
      {"audit.analysis.dominance_ms", "ms"},
      {"audit.analysis.conditional_ms", "ms"},
      {"audit.coverage.criterion_ms", "ms"},
      {"audit.coverage.remeasure_ms", "ms"},
      {"audit.fault.enumerate_ms", "ms"},
      {"audit.fault.collapse_ms", "ms"},
      {"audit.fault.simulate_ms", "ms"},
      {"audit.fault.matrix_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"trace.unaccounted_pct", "%"},
  };
  return specs;
}

void finish_layer_values(const Tracer& tracer, LayerValues& values) {
  const std::vector<Span> spans = tracer.spans();
  for (const auto& [name, ms] : self_ms_by_name(spans)) {
    const std::string metric = name + "_ms";
    for (const LayerMetricSpec& spec : layer_metric_specs()) {
      if (metric == spec.name) values[metric] = ms;
    }
  }
  values["exp.load_ms"] /= kSetupRepeats;
  values["data.pool_ms"] /= kSetupRepeats;
  for (const char* name : {"pipeline.save", "pipeline.load", "pipeline.validate"}) {
    values[std::string(name) + "_ms"] = median_span_ms(spans, name);
  }
  values["trace.unaccounted_pct"] =
      unaccounted_pct(spans, {"release", "receipt", "audit"});
}

void add_fault_counts(const fault::FaultQualification& q, std::int64_t tests,
                      LayerValues& values) {
  const auto count = [](std::int64_t n) { return static_cast<double>(n); };
  values["analysis.untestable"] = count(q.untestable);
  values["analysis.dominated"] = count(q.dominated);
  values["analysis.static_prune_pct"] =
      100.0 * count(q.untestable + q.dominated) / count(q.enumerated);
  values["fault.enumerated"] = count(q.enumerated);
  values["fault.scored"] = count(q.scored);
  values["fault.detected"] = count(q.detected);
  values["fault.detected_pct"] = 100.0 * q.detection_rate();
  values["fault.kept_tests"] = count(q.kept_tests);
  const double simulate_s = values["fault.simulate_ms"] / 1e3;
  values["fault.sim_pairs_per_s"] = count(q.scored) * count(tests) / simulate_s;
}

void add_layer_metrics(const LayerValues& values, MetricSet& metrics) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const LayerMetricSpec& spec : layer_metric_specs()) known |= name == spec.name;
    if (!known) throw std::logic_error("unknown per-layer metric '" + name + "'");
  }
  for (const LayerMetricSpec& spec : layer_metric_specs()) {
    const auto it = values.find(spec.name);
    metrics.add(spec.name, it == values.end() ? 0.0 : it->second, spec.unit);
  }
}

void finish_trace(const Tracer& tracer, const RunConfig& config) {
  std::filesystem::create_directories(config.trace_dir);
  const std::string path = config.trace_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + ".json";
  std::ofstream out(path);
  tracer.write_chrome_json(out);
  if (!out) throw std::runtime_error("cannot write trace file " + path);

  struct Row {
    std::string name;
    std::size_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  const std::vector<Span> spans = tracer.spans();
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Row& row = rows[spans[i].name];
    row.name = spans[i].name;
    ++row.calls;
    row.total_ms += static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    row.self_ms += static_cast<double>(self[i]) / 1e6;
  }
  std::vector<Row> sorted;
  for (const auto& [name, row] : rows) sorted.push_back(row);
  std::sort(sorted.begin(), sorted.end(),
            [](const Row& a, const Row& b) { return a.self_ms > b.self_ms; });
  std::ostringstream table;
  table << "trace: " << spans.size() << " spans written to " << path << "\n"
            << std::left << std::setw(36) << "span" << std::right << std::setw(8)
            << "calls" << std::setw(14) << "total ms" << std::setw(14) << "self ms\n";
  for (const Row& row : sorted) {
    table << std::left << std::setw(36) << row.name << std::right
              << std::setw(8) << row.calls << std::fixed << std::setprecision(2)
              << std::setw(14) << row.total_ms << std::setw(14) << row.self_ms
              << "\n";
  }
  std::cout << table.str();
}

}  // namespace e2e
