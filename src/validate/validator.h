// User-side validation: replay the suite against a black-box IP.
//
// validate_ip() replays a whole suite in one call on the caller's thread —
// the definition of both verdict shapes, the full replay and the
// item-by-item early exit (pipeline::UserValidator is this call). Callers
// that batch inference themselves — the streaming validation service, the
// e2e benchmark — score their labels with compare_chunk() and fold the
// chunk verdicts into a whole-suite Verdict with accumulate_chunk().
#ifndef DNNV_VALIDATE_VALIDATOR_H_
#define DNNV_VALIDATE_VALIDATOR_H_

#include <cstddef>
#include <vector>

#include "ip/black_box_ip.h"
#include "validate/test_suite.h"

namespace dnnv::validate {

/// Outcome of replaying a suite (paper Fig 1's "Are Y and Y' identical?").
struct Verdict {
  bool passed = false;
  int first_failure = -1;  ///< index of the first mismatching test, -1 if none
  int num_failures = 0;
  int tests_run = 0;
};

/// Outcome of replaying one contiguous range of a suite. Indices are global
/// suite indices, so chunks from different ranges compose.
struct ChunkVerdict {
  std::size_t begin = 0;   ///< first test index of the chunk
  std::size_t end = 0;     ///< one past the last test index
  int mismatches = 0;      ///< failing tests within [begin, end)
  int first_failure = -1;  ///< global index of the chunk's first mismatch
};

/// Runs every test through the IP and compares labels against the golden
/// outputs. With `early_exit` the replay stops at the first mismatch
/// (cheapest tamper detection); otherwise all failures are counted.
Verdict validate_ip(ip::BlackBoxIp& ip, const TestSuite& suite,
                    bool early_exit = false);

/// Scores already-predicted labels for suite tests [begin, begin +
/// labels.size()) — the path for drivers that batch inference themselves.
ChunkVerdict compare_chunk(const TestSuite& suite, std::size_t begin,
                           const std::vector<int>& labels);

/// Folds `chunk` into a running whole-suite verdict. Chunks must be fed in
/// ascending index order; `verdict.passed` stays true until a mismatch
/// arrives.
void accumulate_chunk(Verdict& verdict, const ChunkVerdict& chunk);

}  // namespace dnnv::validate

#endif  // DNNV_VALIDATE_VALIDATOR_H_
