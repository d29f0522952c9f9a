#include "pipeline/vendor.h"

#include <memory>
#include <utility>

#include "analysis/range_analysis.h"
#include "analysis/verifier.h"
#include "coverage/criterion.h"
#include "quant/qgemm.h"
#include "tensor/batch.h"
#include "util/error.h"
#include "validate/backend.h"

namespace dnnv::pipeline {

VendorPipeline::VendorPipeline(VendorOptions options)
    : options_(std::move(options)) {
  DNNV_CHECK(options_.num_tests > 0, "need a positive test budget");
  DNNV_CHECK(testgen::generator_registered(options_.method),
             "unknown generation method '" << options_.method << "'");
  DNNV_CHECK(cov::criterion_registered(options_.criterion),
             "unknown coverage criterion '" << options_.criterion << "'");
  DNNV_CHECK(options_.backend == "float" || options_.backend == "int8",
             "unknown qualification backend '" << options_.backend
                                               << "' (float|int8)");
  if (!options_.fault_model.empty()) {
    DNNV_CHECK(options_.backend == "int8",
               "fault qualification scores the integer artifact; it needs "
               "backend == \"int8\" (got '"
                   << options_.backend << "')");
    fault::universe_config(options_.fault_model);  // throws on unknown preset
    analysis::range_domain(options_.analysis_domain);  // "interval"|"affine"
  } else {
    DNNV_CHECK(!options_.compact,
               "suite compaction needs a fault model to compact against "
               "(set fault_model)");
  }
}

Deliverable VendorPipeline::run(const nn::Sequential& model,
                                const Shape& item_shape, int num_classes,
                                const std::vector<Tensor>& pool,
                                VendorReport* report) const {
  DNNV_CHECK(!pool.empty(), "vendor pipeline needs a candidate pool");

  Deliverable deliverable;
  deliverable.model = model.clone();

  // 1. Calibrate + quantize when the shipped artifact executes int8.
  if (options_.backend == "int8") {
    deliverable.qmodel =
        quant::QuantModel::quantize(model, pool, options_.quant);
    deliverable.has_quant = true;
    // Pre-qualification IR gate: refuse to generate against, qualify, or
    // ship a malformed quantized artifact.
    analysis::require_valid(analysis::verify_model(deliverable.qmodel),
                            "vendor pre-qualification");
  }

  // 2. Build the named coverage criterion the run selects and is measured
  // under. The parameter knobs come from the generator config — one source
  // of truth — and range criteria calibrate on the candidate pool. An int8
  // release binds the criterion to the quantized artifact (its dequantized
  // reference — the weights the IP executes), so the manifest's coverage is
  // the SAME number the user side re-measures from the shipped bundle.
  testgen::GeneratorConfig config = options_.generator;
  config.max_tests = options_.num_tests;
  cov::CriterionConfig criterion_config = options_.criterion_config;
  criterion_config.parameter = config.coverage;
  cov::CriterionContext criterion_ctx;
  criterion_ctx.model = &model;
  if (deliverable.has_quant) criterion_ctx.qmodel = &deliverable.qmodel;
  criterion_ctx.item_shape = item_shape;
  criterion_ctx.calibration = &pool;
  const auto criterion =
      cov::make_criterion(options_.criterion, criterion_ctx, criterion_config);

  // 3. Generate the functional tests with the named method, selecting by
  // criterion gain.
  const auto generator = testgen::make_generator(options_.method, config);
  cov::CoverageAccumulator accumulator(criterion->total_points());
  testgen::GenContext ctx;
  ctx.model = &model;
  ctx.pool = &pool;
  ctx.item_shape = item_shape;
  ctx.num_classes = num_classes;
  ctx.criterion = criterion.get();
  ctx.accumulator = &accumulator;
  testgen::GenerationResult generation = generator->generate(ctx);
  DNNV_CHECK(!generation.tests.empty(),
             "method '" << options_.method << "' produced no tests");

  std::vector<Tensor> inputs;
  inputs.reserve(generation.tests.size());
  for (const auto& test : generation.tests) inputs.push_back(test.input);

  // Methods that do not feed the shared accumulator while generating
  // ("neuron"'s saturation selector) leave it empty; sweep the generated
  // suite itself so the manifest records the criterion coverage — the same
  // provenance metric — for every method.
  if (accumulator.covered_count() == 0) {
    for (const auto& mask : criterion->measure_pool(inputs)) {
      accumulator.add(mask);
    }
  }

  // 4. Qualify: golden labels are the BACKEND's own outputs on the test
  // inputs — the user validates the shipped artifact, not the float master.
  const Tensor batch = stack_batch(inputs);
  std::unique_ptr<validate::ExecutionBackend> backend;
  if (options_.backend == "int8") {
    backend = std::make_unique<validate::Int8Backend>(deliverable.qmodel);
  } else {
    backend = std::make_unique<validate::FloatReferenceBackend>(model);
  }
  std::vector<int> golden = backend->predict_clean(batch);
  deliverable.suite = validate::TestSuite::from_labels(inputs, golden);

  // 4b. Fault qualification: score the suite against the structural fault
  // universe of the shipped artifact (batched simulation, full matrix),
  // optionally replacing the suite with its greedy compaction — fewer
  // tests, same detected-fault set. The effective UniverseConfig ships in
  // the manifest so the user side regenerates the identical universe and
  // re-measures the same detection rate.
  fault::FaultQualification fault_stats;
  fault::UniverseConfig fault_config;
  std::vector<analysis::Interval> input_domains;
  if (!options_.fault_model.empty()) {
    fault_config = fault::universe_config(options_.fault_model);
    fault_config.max_faults = options_.fault_budget;
    fault::QualifyOptions qualify_options;
    qualify_options.universe = fault_config;
    qualify_options.compact = options_.compact;
    // Static passes run under the configured abstract domain with the conv
    // geometry unrolled; when calibrated and a calibrated domain narrows the
    // grid, a second conditioned pass classifies the in-distribution-masked
    // faults (reported + excitation targets, never pruned).
    qualify_options.domain = analysis::range_domain(options_.analysis_domain);
    qualify_options.item_dims = item_shape.dims();
    if (options_.calibrated) {
      input_domains =
          analysis::calibrated_input_domains(deliverable.qmodel, pool);
      qualify_options.input_domains = input_domains;
    }
    validate::TestSuite compacted;
    fault_stats = fault::qualify_suite(deliverable.qmodel, deliverable.suite,
                                       qualify_options, &compacted);
    if (options_.compact && compacted.size() < deliverable.suite.size()) {
      deliverable.suite = std::move(compacted);
      // The manifest's criterion coverage must describe the SHIPPED tests;
      // re-sweep the kept subset under the same criterion.
      accumulator = cov::CoverageAccumulator(criterion->total_points());
      for (const auto& mask :
           criterion->measure_pool(deliverable.suite.inputs())) {
        accumulator.add(mask);
      }
    }
  }

  // 5. Manifest. The criterion config ships EFFECTIVE (calibrated ranges
  // materialised), so the user side reconstructs the exact criterion.
  deliverable.manifest.model_name = options_.model_name;
  deliverable.manifest.method = options_.method;
  deliverable.manifest.backend = backend->name();
  deliverable.manifest.criterion = options_.criterion;
  deliverable.manifest.criterion_config = criterion->config();
  deliverable.manifest.num_tests =
      static_cast<std::int64_t>(deliverable.suite.size());
  deliverable.manifest.coverage = accumulator.coverage();
  deliverable.manifest.fault_model = options_.fault_model;
  deliverable.manifest.fault_config = fault_config;
  deliverable.manifest.fault_universe = fault_stats.scored;
  deliverable.manifest.fault_detected = fault_stats.detected;
  deliverable.manifest.analysis_domain = options_.analysis_domain;
  deliverable.manifest.input_domains = std::move(input_domains);
  deliverable.manifest.fault_dominated = fault_stats.dominated;
  deliverable.manifest.fault_conditional = fault_stats.conditional;
  deliverable.manifest.excitations = fault_stats.excitations;

  // Ship gate: the exact bundle a user will load must verify clean
  // (manifest-vs-model agreement included).
  const std::vector<analysis::Finding> findings =
      analysis::verify_deliverable(deliverable);
  analysis::require_valid(findings, "vendor ship gate");

  if (report != nullptr) {
    report->findings = findings;
    report->coverage = accumulator.coverage();
    report->covered = accumulator.covered();
    report->golden = std::move(golden);
    report->backend_float_agreement = -1;
    if (options_.backend == "int8") {
      const std::vector<int> float_labels =
          deliverable.model.predict_labels(batch);
      int agree = 0;
      for (std::size_t i = 0; i < float_labels.size(); ++i) {
        agree += report->golden[i] == float_labels[i];
      }
      report->backend_float_agreement = agree;
      report->kernel_config = quant::qgemm_config_string();
    }
    report->fault_stats = fault_stats;
    report->generation = std::move(generation);
  }
  return deliverable;
}

}  // namespace dnnv::pipeline
