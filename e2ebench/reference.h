// The reference kernel: fixed work that the benchmark's host sampler runs
// every 20 ms while the timed calls run, to tell how fast the host runs at
// each moment (see phases.h). It uses no library code and is built as its
// own target with fixed flags (see CMakeLists.txt), so no change to the
// library or to its build flags can change it.
#ifndef E2EBENCH_REFERENCE_H_
#define E2EBENCH_REFERENCE_H_

namespace e2e {

/// Runs the reference kernel once: int8 dot products, a float multiply-add
/// sweep, a dependent walk through 8 MiB and hash-map inserts, about 2 ms on
/// a quiet 4-vCPU cloud VM. Returns the CPU seconds the calling thread spent.
double run_reference_kernel();

}  // namespace e2e

#endif  // E2EBENCH_REFERENCE_H_
