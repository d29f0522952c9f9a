// The vendor release and the user audit rebuilt from the same public calls
// VendorPipeline::run, pipeline::suite_coverage and pipeline::fault_coverage
// make, in the same order, with a span around each call. The traced run
// checks that the result reproduces the untraced manifest exactly.
#include <memory>
#include <utility>

#include "analysis/affine_domain.h"
#include "analysis/range_analysis.h"
#include "analysis/testability.h"
#include "analysis/verifier.h"
#include "coverage/accumulator.h"
#include "coverage/criterion.h"
#include "decomposed.h"
#include "quant/quant_model.h"
#include "tensor/batch.h"
#include "testgen/generator.h"
#include "util/error.h"
#include "validate/backend.h"

namespace e2e {

fault::FaultQualification traced_qualify(const quant::QuantModel& model,
                                         const validate::TestSuite& suite,
                                         const fault::QualifyOptions& options,
                                         validate::TestSuite* compacted,
                                         Tracer& tracer, const std::string& prefix) {
  fault::FaultQualification q;
  fault::FaultUniverse universe;
  {
    auto span = tracer.span(prefix + "fault.enumerate");
    universe = fault::FaultUniverse::enumerate(model, options.universe);
  }
  q.enumerated = static_cast<std::int64_t>(universe.size());
  analysis::ModelRange range;
  {
    auto span = tracer.span(prefix + "analysis.ranges");
    analysis::RangeOptions ropts;
    ropts.item_dims = options.item_dims;
    range = analysis::analyze_ranges_with(options.domain, model, ropts);
  }
  {
    auto span = tracer.span(prefix + "analysis.classify");
    const analysis::TestabilityReport report =
        analysis::classify_universe(model, range, universe);
    universe = analysis::prune_untestable(universe, report);
    q.untestable = static_cast<std::int64_t>(report.untestable);
  }
  {
    auto span = tracer.span(prefix + "analysis.dominance");
    const analysis::DominanceReport dom =
        analysis::analyze_dominance(model, range, universe);
    universe = analysis::prune_dominated(universe, dom);
    q.dominated = static_cast<std::int64_t>(dom.count);
  }
  if (!options.input_domains.empty()) {
    analysis::ModelRange cal_range;
    {
      auto span = tracer.span(prefix + "analysis.ranges_calibrated");
      analysis::RangeOptions copts;
      copts.item_dims = options.item_dims;
      copts.input_domains = options.input_domains;
      cal_range = analysis::analyze_ranges_with(options.domain, model, copts);
    }
    analysis::TestabilityReport uncond;
    {
      auto span = tracer.span(prefix + "analysis.classify");
      uncond = analysis::classify_universe(model, range, universe);
    }
    auto span = tracer.span(prefix + "analysis.conditional");
    const analysis::ConditionalReport cond = analysis::classify_conditional(
        model, range, uncond, cal_range, universe);
    q.conditional = static_cast<std::int64_t>(cond.count);
    q.excitations = cond.excitations;
  }
  {
    auto span = tracer.span(prefix + "fault.collapse");
    universe = fault::collapse_structural(universe, model);
  }
  q.collapsed = static_cast<std::int64_t>(universe.size());
  q.scored = q.collapsed;
  q.kept_tests = static_cast<std::int64_t>(suite.size());

  fault::SimResult result;
  {
    auto span = tracer.span(prefix + "fault.simulate");
    fault::FaultSimulator sim(model, suite);
    fault::SimOptions sim_options;
    sim_options.mode = fault::SimMode::kFullMatrix;
    sim_options.backend = fault::SimBackend::kInt8;
    sim_options.pool = options.pool;
    result = sim.run_batched(universe, sim_options);
  }
  q.detected = static_cast<std::int64_t>(result.detected);
  fault::MatrixCollapse mc;
  {
    auto span = tracer.span(prefix + "fault.matrix");
    mc = fault::analyze_matrix(result.rows);
  }
  q.classes = static_cast<std::int64_t>(mc.num_classes);
  q.core = static_cast<std::int64_t>(mc.core.size());
  if (options.compact && compacted != nullptr) {
    auto span = tracer.span(prefix + "fault.compact");
    const fault::CompactionResult compaction =
        fault::compact_tests(result.rows, mc.core, suite.size());
    *compacted = fault::compact_suite(suite, compaction);
    q.kept_tests = static_cast<std::int64_t>(compaction.kept_tests.size());
  }
  return q;
}

pipeline::Deliverable traced_release(const exp::TrainedModel& trained,
                                     const std::vector<Tensor>& pool,
                                     const pipeline::VendorOptions& options,
                                     Tracer& tracer, ReleaseTrace& out) {
  DNNV_CHECK(options.backend == "int8" && !options.fault_model.empty(),
             "the decomposed release covers int8 releases with a fault stage");
  const nn::Sequential& model = trained.model;
  pipeline::Deliverable deliverable;
  deliverable.model = model.clone();
  {
    auto span = tracer.span("quant.quantize");
    deliverable.qmodel = quant::QuantModel::quantize(model, pool, options.quant);
  }
  deliverable.has_quant = true;
  {
    auto span = tracer.span("analysis.verify");
    analysis::require_valid(analysis::verify_model(deliverable.qmodel),
                            "vendor pre-qualification");
  }

  testgen::GeneratorConfig config = options.generator;
  config.max_tests = options.num_tests;
  cov::CriterionConfig criterion_config = options.criterion_config;
  criterion_config.parameter = config.coverage;
  cov::CriterionContext criterion_ctx;
  criterion_ctx.model = &model;
  criterion_ctx.qmodel = &deliverable.qmodel;
  criterion_ctx.item_shape = trained.item_shape;
  criterion_ctx.calibration = &pool;
  std::unique_ptr<cov::Criterion> criterion;
  {
    auto span = tracer.span("coverage.criterion");
    criterion = cov::make_criterion(options.criterion, criterion_ctx, criterion_config);
  }

  cov::CoverageAccumulator accumulator(criterion->total_points());
  testgen::GenerationResult generation;
  {
    auto span = tracer.span("testgen.generate");
    const auto generator = testgen::make_generator(options.method, config);
    testgen::GenContext ctx;
    ctx.model = &model;
    ctx.pool = &pool;
    ctx.item_shape = trained.item_shape;
    ctx.num_classes = trained.num_classes;
    ctx.criterion = criterion.get();
    ctx.accumulator = &accumulator;
    generation = generator->generate(ctx);
  }
  DNNV_CHECK(!generation.tests.empty(), "method produced no tests");
  out.generated = static_cast<std::int64_t>(generation.tests.size());
  std::vector<Tensor> inputs;
  inputs.reserve(generation.tests.size());
  for (const auto& test : generation.tests) inputs.push_back(test.input);
  if (accumulator.covered_count() == 0) {
    auto span = tracer.span("coverage.remeasure");
    for (const auto& mask : criterion->measure_pool(inputs)) accumulator.add(mask);
  }

  std::vector<int> golden;
  {
    auto span = tracer.span("validate.golden");
    validate::Int8Backend backend(deliverable.qmodel);
    golden = backend.predict_clean(stack_batch(inputs));
  }
  deliverable.suite = validate::TestSuite::from_labels(inputs, golden);

  fault::UniverseConfig fault_config = fault::universe_config(options.fault_model);
  fault_config.max_faults = options.fault_budget;
  fault::QualifyOptions qualify_options;
  qualify_options.universe = fault_config;
  qualify_options.compact = options.compact;
  qualify_options.domain = analysis::range_domain(options.analysis_domain);
  qualify_options.item_dims = trained.item_shape.dims();
  std::vector<analysis::Interval> input_domains;
  if (options.calibrated) {
    auto span = tracer.span("analysis.ranges_calibrated");
    input_domains = analysis::calibrated_input_domains(deliverable.qmodel, pool);
    qualify_options.input_domains = input_domains;
  }
  validate::TestSuite compacted;
  out.faults = traced_qualify(deliverable.qmodel, deliverable.suite,
                              qualify_options, &compacted, tracer, "");
  if (options.compact && compacted.size() < deliverable.suite.size()) {
    deliverable.suite = std::move(compacted);
    auto span = tracer.span("coverage.remeasure");
    accumulator = cov::CoverageAccumulator(criterion->total_points());
    for (const auto& mask : criterion->measure_pool(deliverable.suite.inputs())) {
      accumulator.add(mask);
    }
  }

  pipeline::Manifest& manifest = deliverable.manifest;
  manifest.model_name = options.model_name;
  manifest.method = options.method;
  manifest.backend = "int8";
  manifest.criterion = options.criterion;
  manifest.criterion_config = criterion->config();
  manifest.num_tests = static_cast<std::int64_t>(deliverable.suite.size());
  manifest.coverage = accumulator.coverage();
  manifest.fault_model = options.fault_model;
  manifest.fault_config = fault_config;
  manifest.fault_universe = out.faults.scored;
  manifest.fault_detected = out.faults.detected;
  manifest.analysis_domain = options.analysis_domain;
  manifest.input_domains = std::move(input_domains);
  manifest.fault_dominated = out.faults.dominated;
  manifest.fault_conditional = out.faults.conditional;
  manifest.excitations = out.faults.excitations;
  {
    auto span = tracer.span("analysis.verify");
    analysis::require_valid(analysis::verify_deliverable(deliverable),
                            "vendor ship gate");
  }
  return deliverable;
}

pipeline::SuiteCoverage traced_suite_coverage(const pipeline::Deliverable& bundle,
                                              Tracer& tracer) {
  cov::CriterionContext ctx;
  ctx.model = &bundle.model;
  if (bundle.has_quant) ctx.qmodel = &bundle.qmodel;
  ctx.item_shape = bundle.suite.inputs().front().shape();
  ctx.calibration = &bundle.suite.inputs();
  std::unique_ptr<cov::Criterion> criterion;
  {
    auto span = tracer.span("audit.coverage.criterion");
    criterion = cov::make_criterion(bundle.manifest.criterion, ctx,
                                    bundle.manifest.criterion_config);
  }
  pipeline::SuiteCoverage result;
  result.criterion = bundle.manifest.criterion;
  result.description = criterion->describe();
  result.map = cov::CoverageMap(criterion->total_points());
  auto span = tracer.span("audit.coverage.remeasure");
  for (const auto& mask : criterion->measure_pool(bundle.suite.inputs())) {
    result.map.add(mask);
  }
  return result;
}

fault::FaultQualification traced_fault_coverage(const pipeline::Deliverable& bundle,
                                                Tracer& tracer) {
  fault::QualifyOptions options;
  options.universe = bundle.manifest.fault_config;
  options.domain = analysis::range_domain(bundle.manifest.analysis_domain);
  options.input_domains = bundle.manifest.input_domains;
  options.item_dims = bundle.suite.inputs().front().shape().dims();
  return traced_qualify(bundle.qmodel, bundle.suite, options, nullptr, tracer,
                        "audit.");
}

bool same_claims(const pipeline::Manifest& a, const pipeline::Manifest& b) {
  return a.coverage == b.coverage && a.num_tests == b.num_tests &&
         a.fault_universe == b.fault_universe &&
         a.fault_detected == b.fault_detected &&
         a.fault_dominated == b.fault_dominated &&
         a.fault_conditional == b.fault_conditional;
}

bool audit_reproduces(const pipeline::Manifest& manifest,
                      const pipeline::SuiteCoverage& coverage,
                      const fault::FaultQualification* faults) {
  if (coverage.fraction() != manifest.coverage) return false;
  if (faults == nullptr) return manifest.fault_model.empty();
  return faults->scored == manifest.fault_universe &&
         faults->detected == manifest.fault_detected &&
         faults->dominated == manifest.fault_dominated &&
         faults->conditional == manifest.fault_conditional;
}

}  // namespace e2e
