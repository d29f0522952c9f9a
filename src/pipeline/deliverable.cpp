#include "pipeline/deliverable.h"

#include <iomanip>
#include <sstream>
#include <utility>

#include "analysis/range_analysis.h"
#include "analysis/verifier.h"
#include "util/error.h"
#include "util/protected_file.h"

namespace dnnv::pipeline {
namespace {

constexpr std::uint32_t kDeliverableMagic = 0x4C444E44;  // "DNDL"
// v2: manifest carries the coverage-criterion name + config.
// v3: manifest carries the fault-qualification provenance (universe preset,
// effective UniverseConfig, scored/detected fault counts).
// v4: manifest carries the static-analysis provenance (abstract domain,
// calibrated input domains, dominance-dropped count, conditionally-masked
// fault count + per-fault excitation targets).
constexpr std::uint32_t kDeliverableVersion = 4;

}  // namespace

void Manifest::save(ByteWriter& writer) const {
  writer.write_string(model_name);
  writer.write_string(method);
  writer.write_string(backend);
  writer.write_string(criterion);
  criterion_config.save(writer);
  writer.write_i64(num_tests);
  writer.write_f64(coverage);
  writer.write_string(fault_model);
  fault_config.save(writer);
  writer.write_i64(fault_universe);
  writer.write_i64(fault_detected);
  writer.write_string(analysis_domain);
  writer.write_u64(input_domains.size());
  for (const auto& domain : input_domains) {
    writer.write_i64(domain.lo);
    writer.write_i64(domain.hi);
  }
  writer.write_i64(fault_dominated);
  writer.write_i64(fault_conditional);
  writer.write_u64(excitations.size());
  for (const auto& target : excitations) {
    writer.write_u64(target.fault_id);
    writer.write_u8(target.layer);
    writer.write_i64(target.channel);
    writer.write_i64(target.acc.lo);
    writer.write_i64(target.acc.hi);
  }
}

Manifest Manifest::load(ByteReader& reader) {
  Manifest manifest;
  manifest.model_name = reader.read_string();
  manifest.method = reader.read_string();
  manifest.backend = reader.read_string();
  manifest.criterion = reader.read_string();
  manifest.criterion_config = cov::CriterionConfig::load(reader);
  manifest.num_tests = reader.read_i64();
  manifest.coverage = reader.read_f64();
  manifest.fault_model = reader.read_string();
  manifest.fault_config = fault::UniverseConfig::load(reader);
  manifest.fault_universe = reader.read_i64();
  manifest.fault_detected = reader.read_i64();
  manifest.analysis_domain = reader.read_string();
  manifest.input_domains.resize(reader.read_count(16));  // lo, hi
  for (auto& domain : manifest.input_domains) {
    domain.lo = reader.read_i64();
    domain.hi = reader.read_i64();
  }
  manifest.fault_dominated = reader.read_i64();
  manifest.fault_conditional = reader.read_i64();
  // fault_id, layer, channel, acc.lo, acc.hi
  manifest.excitations.resize(reader.read_count(8 + 1 + 3 * 8));
  for (auto& target : manifest.excitations) {
    target.fault_id = reader.read_u64();
    target.layer = reader.read_u8();
    target.channel = reader.read_i64();
    target.acc.lo = reader.read_i64();
    target.acc.hi = reader.read_i64();
  }
  return manifest;
}

std::string Manifest::summary() const {
  std::ostringstream os;
  os << model_name << ": " << num_tests << " '" << method
     << "' tests qualified on '" << backend << "', '" << criterion
     << "' coverage " << std::fixed << std::setprecision(1)
     << coverage * 100.0 << "%";
  if (!fault_model.empty()) {
    const double rate =
        fault_universe > 0 ? static_cast<double>(fault_detected) /
                                 static_cast<double>(fault_universe)
                           : 0.0;
    os << ", detects " << std::fixed << std::setprecision(1) << rate * 100.0
       << "% of " << fault_universe << " '" << fault_model << "' faults";
    if (fault_conditional > 0) {
      os << " (" << fault_conditional << " conditionally masked in-dist)";
    }
  }
  return os.str();
}

void Deliverable::save(ByteWriter& writer) const {
  manifest.save(writer);
  model.save(writer);
  writer.write_u8(has_quant ? 1 : 0);
  if (has_quant) qmodel.save(writer);
  suite.save(writer);
}

Deliverable Deliverable::load(ByteReader& reader) {
  Deliverable deliverable;
  deliverable.manifest = Manifest::load(reader);
  deliverable.model = nn::Sequential::load(reader);
  deliverable.has_quant = reader.read_u8() != 0;
  if (deliverable.has_quant) {
    deliverable.qmodel = quant::QuantModel::load(reader);
  }
  deliverable.suite = validate::TestSuite::load(reader);
  return deliverable;
}

void Deliverable::save_file(const std::string& path, std::uint64_t key) const {
  DNNV_CHECK(!suite.empty(), "refusing to ship a deliverable without tests");
  ByteWriter payload;
  save(payload);
  write_protected_file(path, payload.take(), key, kDeliverableMagic,
                       kDeliverableVersion, "deliverable");
}

Deliverable Deliverable::load_file(const std::string& path, std::uint64_t key,
                                   bool verify) {
  ByteReader payload(read_protected_file(path, key, kDeliverableMagic,
                                         kDeliverableVersion, "deliverable"));
  // The CRC already passed, so parse failures past this point mean the
  // keystream decoded garbage — i.e. the key is wrong, not the file.
  Deliverable deliverable;
  try {
    deliverable = load(payload);
  } catch (const Error& error) {
    DNNV_THROW("deliverable rejected — wrong key? (" << error.what() << ")");
  }
  // The CRC protects the bytes in transit; the IR verifier protects the
  // SEMANTICS — a bundle that parses but violates engine invariants (bad
  // multipliers, stale LUTs, manifest/model disagreement) is rejected before
  // any validation runs on it. `verify = false` is the lint path: callers
  // that want the findings rather than an exception.
  if (verify) {
    analysis::require_valid(analysis::verify_deliverable(deliverable),
                            "deliverable load");
  }
  return deliverable;
}

SuiteCoverage suite_coverage(const Deliverable& deliverable) {
  DNNV_CHECK(!deliverable.suite.empty(),
             "deliverable carries no tests to measure");
  cov::CriterionContext ctx;
  ctx.model = &deliverable.model;
  if (deliverable.has_quant) ctx.qmodel = &deliverable.qmodel;
  ctx.item_shape = deliverable.suite.inputs().front().shape();
  // Manifests normally ship materialised ranges; the suite itself is the
  // only calibration material available if a custom criterion wants one.
  ctx.calibration = &deliverable.suite.inputs();
  const auto criterion =
      cov::make_criterion(deliverable.manifest.criterion, ctx,
                          deliverable.manifest.criterion_config);

  SuiteCoverage result;
  result.criterion = deliverable.manifest.criterion;
  result.description = criterion->describe();
  result.map = cov::CoverageMap(criterion->total_points());
  for (const auto& mask : criterion->measure_pool(deliverable.suite.inputs())) {
    result.map.add(mask);
  }
  return result;
}

fault::FaultQualification fault_coverage(const Deliverable& deliverable) {
  DNNV_CHECK(!deliverable.manifest.fault_model.empty(),
             "deliverable was not fault-qualified (manifest has no fault "
             "model)");
  DNNV_CHECK(deliverable.has_quant,
             "fault coverage needs the shipped int8 artifact");
  fault::QualifyOptions options;
  options.universe = deliverable.manifest.fault_config;
  // Mirror the vendor's static-analysis configuration exactly — same
  // abstract domain, same calibrated conditioning, same conv geometry — so
  // the user-side untestable/dominated/conditional counts and excitation
  // targets reproduce the manifest's bit for bit.
  options.domain =
      analysis::range_domain(deliverable.manifest.analysis_domain);
  options.input_domains = deliverable.manifest.input_domains;
  if (!deliverable.suite.empty()) {
    options.item_dims = deliverable.suite.inputs().front().shape().dims();
  }
  return fault::qualify_suite(deliverable.qmodel, deliverable.suite, options);
}

}  // namespace dnnv::pipeline
