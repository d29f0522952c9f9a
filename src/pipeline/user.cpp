#include "pipeline/user.h"

#include <utility>

#include "pipeline/service.h"
#include "util/error.h"

namespace dnnv::pipeline {

UserValidator::UserValidator(Deliverable deliverable)
    : deliverable_(std::move(deliverable)) {
  DNNV_CHECK(!deliverable_.suite.empty(), "deliverable carries no tests");
}

UserValidator UserValidator::load_file(const std::string& path,
                                       std::uint64_t key) {
  return UserValidator(Deliverable::load_file(path, key));
}

std::unique_ptr<ip::BlackBoxIp> UserValidator::make_device() const {
  return pipeline::make_device(deliverable_);
}

validate::Verdict UserValidator::validate(bool early_exit) const {
  const std::unique_ptr<ip::BlackBoxIp> device = make_device();
  return validate::validate_ip(*device, deliverable_.suite, early_exit);
}

validate::Verdict UserValidator::validate(ip::BlackBoxIp& device,
                                          bool early_exit) const {
  return validate::validate_ip(device, deliverable_.suite, early_exit);
}

}  // namespace dnnv::pipeline
