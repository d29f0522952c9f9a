// Traced decompositions of the vendor release and the user audit, plus the
// output checks that compare them with the manifest.
#ifndef E2EBENCH_DECOMPOSED_H_
#define E2EBENCH_DECOMPOSED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exp/model_zoo.h"
#include "fault/qualify.h"
#include "pipeline/deliverable.h"
#include "pipeline/vendor.h"
#include "trace.h"

namespace e2e {

// The benchmark drives every layer of the library.
using namespace dnnv;

/// fault::qualify_suite with a span around each stage, named
/// `<prefix><layer>.<stage>` (prefix "" for the release, "audit." for the
/// user's re-measure).
fault::FaultQualification traced_qualify(const quant::QuantModel& model,
                                         const validate::TestSuite& suite,
                                         const fault::QualifyOptions& options,
                                         validate::TestSuite* compacted,
                                         Tracer& tracer, const std::string& prefix);

/// Counts the decomposed release reports beside its bundle.
struct ReleaseTrace {
  std::int64_t generated = 0;  ///< tests the generator produced
  fault::FaultQualification faults;
};

/// VendorPipeline::run for an int8 release with a fault stage, one span per
/// call. Produces the same Deliverable.
pipeline::Deliverable traced_release(const exp::TrainedModel& trained,
                                     const std::vector<Tensor>& pool,
                                     const pipeline::VendorOptions& options,
                                     Tracer& tracer, ReleaseTrace& out);

/// pipeline::suite_coverage with "audit.coverage.*" spans.
pipeline::SuiteCoverage traced_suite_coverage(const pipeline::Deliverable& bundle,
                                              Tracer& tracer);

/// pipeline::fault_coverage with "audit.*" spans.
fault::FaultQualification traced_fault_coverage(const pipeline::Deliverable& bundle,
                                                Tracer& tracer);

/// Coverage, suite size and every fault count agree.
bool same_claims(const pipeline::Manifest& a, const pipeline::Manifest& b);

/// The user's re-measure reproduces the manifest's coverage and, when the
/// bundle was fault-qualified (`faults` non-null), its fault_universe,
/// fault_detected, fault_dominated and fault_conditional exactly.
bool audit_reproduces(const pipeline::Manifest& manifest,
                      const pipeline::SuiteCoverage& coverage,
                      const fault::FaultQualification* faults);

}  // namespace e2e

#endif  // E2EBENCH_DECOMPOSED_H_
