#include "phases.h"

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "reference.h"
#include "stats.h"
#include "util/stopwatch.h"

namespace e2e {

double process_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    throw std::runtime_error("cannot read the process CPU clock");
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double CallTime::wall_seconds() const {
  return std::chrono::duration<double>(to - from).count();
}

namespace {

using Clock = std::chrono::steady_clock;

/// Runs the reference kernel on its own thread every 20 ms and keeps when
/// each run happened and how much CPU it took.
class HostSampler {
 public:
  HostSampler() : thread_([this] { loop(); }) {
    if (pthread_getcpuclockid(thread_.native_handle(), &cpu_clock_) != 0) {
      throw std::runtime_error("cannot read the sampler's CPU clock");
    }
  }

  ~HostSampler() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    changed_.notify_all();
    thread_.join();
  }

  /// CPU seconds the sampler thread has used so far.
  double cpu_seconds() const {
    timespec ts{};
    clock_gettime(cpu_clock_, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  /// Median CPU seconds of the runs whose midpoint lies in [from, to].
  double median_between(Clock::time_point from, Clock::time_point to) {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [&] { return !runs_.empty() && runs_.back().begin > to; });
    std::vector<double> cpu;
    for (const Run& run : runs_) {
      const Clock::time_point mid = run.begin + (run.end - run.begin) / 2;
      if (mid >= from && mid <= to) cpu.push_back(run.cpu_s);
    }
    if (cpu.empty()) throw std::logic_error("no reference run in a sampled interval");
    return median(cpu);
  }

  std::vector<double> samples() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> cpu;
    for (const Run& run : runs_) cpu.push_back(run.cpu_s);
    return cpu;
  }

 private:
  struct Run {
    Clock::time_point begin;
    Clock::time_point end;
    double cpu_s;
  };

  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
      lock.unlock();
      Run run;
      run.begin = Clock::now();
      run.cpu_s = run_reference_kernel();
      run.end = Clock::now();
      lock.lock();
      runs_.push_back(run);
      changed_.notify_all();
      changed_.wait_for(lock, std::chrono::milliseconds(20), [&] { return stopping_; });
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable changed_;
  std::vector<Run> runs_;
  bool stopping_ = false;
  clockid_t cpu_clock_{};
  std::thread thread_;  // last: starts once the members above exist
};

HostSampler& host_sampler() {
  static HostSampler sampler;
  return sampler;
}

}  // namespace

ScaledWatch::ScaledWatch() {
  HostSampler& sampler = host_sampler();
  from_ = Clock::now();
  sampler_cpu_start_ = sampler.cpu_seconds();
  cpu_start_ = process_cpu_seconds();
}

CallTime ScaledWatch::stop() const {
  CallTime call;
  call.cpu_s = process_cpu_seconds() - cpu_start_ -
               (host_sampler().cpu_seconds() - sampler_cpu_start_);
  call.from = from_;
  call.to = Clock::now();
  return call;
}

double scaled_seconds(const CallTime& call) {
  const double reference_s = host_sampler().median_between(
      call.from - kSampleMargin, call.to + kSampleMargin);
  return call.cpu_s * kReferenceSeconds / reference_s;
}

std::vector<double> reference_samples() { return host_sampler().samples(); }

double PhaseTimes::setup_median_s() const { return median(setup_s); }

PhaseTimes run_phases(const PhasePlan& plan) {
  if (plan.setup_repeats < 1) {
    throw std::invalid_argument("setup_repeats must be at least 1");
  }
  PhaseTimes times;
  dnnv::Stopwatch watch;
  if (plan.warm_up) plan.warm_up();
  times.warm_up_s = watch.elapsed_seconds();
  for (int r = 0; r < plan.setup_repeats; ++r) {
    const ScaledWatch scaled;
    plan.setup();
    times.setup_s.push_back(scaled_seconds(scaled.stop()));
  }
  watch.reset();
  plan.measure();
  times.measure_s = watch.elapsed_seconds();
  return times;
}

void spin_all_threads(double seconds) {
  using Clock = std::chrono::steady_clock;
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (unsigned t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t x = 0x9E3779B97F4A7C15ull + t;
      while (Clock::now() < deadline) {
        for (int i = 0; i < 100000; ++i) x = x * 6364136223846793005ull + 1;
      }
      sink += x;
    });
  }
  for (auto& thread : threads) thread.join();
}

}  // namespace e2e
