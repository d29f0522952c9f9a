#include "validate/validator.h"

#include "util/error.h"

namespace dnnv::validate {

Verdict validate_ip(ip::BlackBoxIp& ip, const TestSuite& suite,
                    bool early_exit) {
  DNNV_CHECK(!suite.empty(), "cannot validate with an empty suite");
  Verdict verdict;
  if (early_exit) {
    for (std::size_t i = 0; i < suite.size(); ++i) {
      ++verdict.tests_run;
      if (ip.predict(suite.inputs()[i]) != suite.golden_labels()[i]) {
        verdict.first_failure = static_cast<int>(i);
        verdict.num_failures = 1;
        verdict.passed = false;
        return verdict;
      }
    }
    verdict.passed = true;
    return verdict;
  }
  accumulate_chunk(verdict,
                   compare_chunk(suite, 0, ip.predict_all(suite.inputs())));
  return verdict;
}

ChunkVerdict compare_chunk(const TestSuite& suite, std::size_t begin,
                           const std::vector<int>& labels) {
  DNNV_CHECK(begin + labels.size() <= suite.size(),
             "labels for [" << begin << ", " << begin + labels.size()
                            << ") overrun suite of " << suite.size());
  ChunkVerdict chunk;
  chunk.begin = begin;
  chunk.end = begin + labels.size();
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] != suite.golden_labels()[begin + i]) {
      if (chunk.first_failure < 0) {
        chunk.first_failure = static_cast<int>(begin + i);
      }
      ++chunk.mismatches;
    }
  }
  return chunk;
}

void accumulate_chunk(Verdict& verdict, const ChunkVerdict& chunk) {
  verdict.tests_run += static_cast<int>(chunk.end - chunk.begin);
  if (chunk.mismatches > 0 && verdict.first_failure < 0) {
    verdict.first_failure = chunk.first_failure;
  }
  verdict.num_failures += chunk.mismatches;
  verdict.passed = verdict.num_failures == 0;
}

}  // namespace dnnv::validate
