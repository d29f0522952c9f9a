#include "reference.h"

#include <time.h>

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace e2e {
namespace {

double thread_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) {
    throw std::runtime_error("cannot read the thread CPU clock");
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Inputs of the kernel, built once so that no run pays for page faults.
struct Inputs {
  static constexpr std::size_t kBytes = 64 * 1024;
  static constexpr std::size_t kFloats = 16 * 1024;
  static constexpr std::size_t kWalk = 2 * 1024 * 1024;  // 8 MiB of indices

  std::vector<std::int8_t> a, b;
  std::vector<float> x, y;
  std::vector<std::uint32_t> next;  // one cycle through every slot

  Inputs() : a(kBytes), b(kBytes), x(kFloats), y(kFloats), next(kWalk) {
    std::uint64_t s = 0x243F6A8885A308D3ull;
    const auto draw = [&s] {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<std::uint32_t>(s >> 33);
    };
    for (std::size_t i = 0; i < kBytes; ++i) {
      a[i] = static_cast<std::int8_t>(draw());
      b[i] = static_cast<std::int8_t>(draw());
    }
    for (std::size_t i = 0; i < kFloats; ++i) {
      x[i] = static_cast<float>(draw() % 1000) * 1e-3f;
    }
    // Sattolo's shuffle: a single cycle, so the walk visits every slot.
    std::vector<std::uint32_t> order(kWalk);
    for (std::size_t i = 0; i < kWalk; ++i) order[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = kWalk - 1; i > 0; --i) std::swap(order[i], order[draw() % i]);
    for (std::size_t i = 0; i < kWalk; ++i) next[order[i]] = order[(i + 1) % kWalk];
  }
};

volatile std::uint64_t g_sink = 0;

}  // namespace

double run_reference_kernel() {
  // Never freed: the host sampler thread may still run the kernel while
  // the process exits and destroys its statics.
  static const Inputs& in = *new Inputs;
  thread_local std::vector<float> y(in.y);
  const double start = thread_cpu_seconds();

  std::int64_t dot = 0;
  for (int pass = 0; pass < 16; ++pass) {
    std::int32_t acc = 0;
    for (std::size_t i = 0; i < Inputs::kBytes; ++i) acc += in.a[i] * in.b[i];
    dot += acc;
  }

  for (int pass = 0; pass < 48; ++pass) {
    const float k = 0.5f + static_cast<float>(pass) * 1e-3f;
    for (std::size_t i = 0; i < Inputs::kFloats; ++i) y[i] = y[i] * 0.999f + k * in.x[i];
  }

  std::uint32_t at = 0;
  for (int step = 0; step < 24 * 1024; ++step) at = in.next[at];

  std::unordered_map<std::uint64_t, double> map;
  for (std::uint64_t i = 0; i < 8 * 1024; ++i) map[i * 0x9E3779B97F4A7C15ull] = 0.5 * i;

  g_sink = g_sink + static_cast<std::uint64_t>(dot) + at + map.size() +
           static_cast<std::uint64_t>(y[at % Inputs::kFloats]);
  return thread_cpu_seconds() - start;
}

}  // namespace e2e
