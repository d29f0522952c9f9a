// User-side façade: load a Deliverable, reconstruct the deployed device,
// replay the suite (paper Fig 1, right half, as one call).
//
// A receipt is a device and a replay: validate() builds the device and runs
// validate::validate_ip on the caller's thread, with no service, scheduler
// thread or session in between. Concurrent callers, streaming verdicts,
// cross-session batching and faulted sessions live in
// pipeline::ValidationService (service.h).
#ifndef DNNV_PIPELINE_USER_H_
#define DNNV_PIPELINE_USER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "ip/black_box_ip.h"
#include "pipeline/deliverable.h"
#include "validate/validator.h"

namespace dnnv::pipeline {

/// Replays a deliverable's suite against the IP it shipped with (or any
/// external device) and reports the SECURE / TAMPERED verdict. Move-only,
/// like the Deliverable it owns.
class UserValidator {
 public:
  /// Takes ownership of an in-memory bundle.
  explicit UserValidator(Deliverable deliverable);

  /// Loads the bundle from `path` with the shared release key; throws
  /// dnnv::Error on corruption or a wrong key.
  static UserValidator load_file(const std::string& path, std::uint64_t key);

  /// Reconstructs a fresh deployed device from the bundle: the int8
  /// artifact (ip::QuantizedIp with its memory/fault surface) when one was
  /// shipped, the float reference otherwise. Each call returns a new
  /// instance — tamper with it freely.
  std::unique_ptr<ip::BlackBoxIp> make_device() const;

  /// Replays the bundled suite against a freshly reconstructed device
  /// (validate::validate_ip on make_device()). An intact bundle must come
  /// back SECURE (passed == true) — the qualification verdict the vendor
  /// shipped.
  validate::Verdict validate(bool early_exit = false) const;

  /// Replays the bundled suite against an external (possibly tampered)
  /// device — the path for devices the caller builds or faults itself.
  validate::Verdict validate(ip::BlackBoxIp& device,
                             bool early_exit = false) const;

  /// Re-measures the bundled suite under the manifest's criterion (rebuilt
  /// from its shipped name + config against the shipped artifact) — what
  /// the received tests actually exercise, reported per criterion.
  SuiteCoverage suite_coverage() const {
    return pipeline::suite_coverage(deliverable_);
  }

  /// Re-measures the shipped fault coverage: regenerates the manifest's
  /// fault universe from the bundled int8 artifact and scores the bundled
  /// suite (see pipeline::fault_coverage). An intact bundle reproduces the
  /// manifest's fault_universe/fault_detected exactly.
  fault::FaultQualification fault_coverage() const {
    return pipeline::fault_coverage(deliverable_);
  }

  const Deliverable& deliverable() const { return deliverable_; }

 private:
  Deliverable deliverable_;
};

}  // namespace dnnv::pipeline

#endif  // DNNV_PIPELINE_USER_H_
