// Phase sequencing shared by every workload: an untimed warm-up, the set-up
// repeated and timed, then the measured phase; and the clock every
// end-to-end timing is read from.
//
// The benchmark runs on cloud VMs whose speed changes under it. The host
// takes CPU time away in bursts (steal), which wall time counts and the
// process CPU clock does not: the guest kernel subtracts stolen time from
// what it charges a task. The host can also run the VM at half speed for
// minutes, with no steal, and then CPU time doubles too; its speed also
// drifts within seconds. So every timed call is charged its process CPU
// time, scaled by how fast a background thread ran the reference kernel
// (reference.h) while the call ran.
//
// A VM that sat idle runs its first second or so of CPU work several times
// slower, so set-up is timed only after a warm-up has absorbed that ramp,
// and setup_s is the median of several repetitions (each repetition
// rebuilds the workload's state from scratch; the last one is kept).
#ifndef E2EBENCH_PHASES_H_
#define E2EBENCH_PHASES_H_

#include <chrono>
#include <functional>
#include <vector>

namespace e2e {

/// CPU seconds one run of the reference kernel takes on the reference host,
/// which defines the unit of every scaled timing. It is about what the
/// kernel takes beside the workloads on a quiet 4-vCPU cloud VM.
constexpr double kReferenceSeconds = 0.003;

/// CPU seconds used so far by every thread of this process.
double process_cpu_seconds();

/// Wall-clock interval and unscaled process CPU seconds of one timed call.
struct CallTime {
  std::chrono::steady_clock::time_point from;
  std::chrono::steady_clock::time_point to;
  double cpu_s = 0.0;

  double wall_seconds() const;
};

/// Times one call: the process CPU between construction and stop(), less
/// what the host sampler used meanwhile. The first watch of a process
/// starts the host sampler, a thread that runs the reference kernel every
/// 20 ms until the process exits.
class ScaledWatch {
 public:
  ScaledWatch();
  CallTime stop() const;

 private:
  std::chrono::steady_clock::time_point from_;
  double cpu_start_ = 0.0;
  double sampler_cpu_start_ = 0.0;
};

/// Seconds either side of a call whose reference runs still count for it.
constexpr std::chrono::milliseconds kSampleMargin{50};

/// The call's CPU seconds on the reference host: its CPU time times
/// kReferenceSeconds over the median CPU time of the reference runs made
/// from kSampleMargin before the call to kSampleMargin after it. Waits
/// until the sampler has run past that margin.
double scaled_seconds(const CallTime& call);

/// Every reference kernel run of the host sampler so far, in CPU seconds.
std::vector<double> reference_samples();

struct PhasePlan {
  std::function<void()> warm_up;
  std::function<void()> setup;    ///< run `setup_repeats` times, each timed
  std::function<void()> measure;  ///< run once, after the last set-up
  int setup_repeats = 3;
};

struct PhaseTimes {
  double warm_up_s = 0.0;       ///< wall time
  std::vector<double> setup_s;  ///< scaled CPU time, one per repetition
  double measure_s = 0.0;       ///< wall time

  double setup_median_s() const;
};

/// Runs warm_up, then setup `setup_repeats` times, then measure.
PhaseTimes run_phases(const PhasePlan& plan);

/// Keeps every hardware thread busy for `seconds` of wall time (the warm-up
/// the benchmark uses before timing anything).
void spin_all_threads(double seconds);

}  // namespace e2e

#endif  // E2EBENCH_PHASES_H_
