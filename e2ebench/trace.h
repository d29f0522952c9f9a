// In-memory span recorder for the benchmark's traced mode.
//
// The benchmark opens a span around each call it makes into a layer of the
// library. Spans nest per thread (a span's parent is the innermost span
// still open on the same thread) unless the caller names a parent, which is
// how request spans on client threads attach to the phase that drives them.
// Nothing is written until the run ends: write_chrome_json() emits Chrome
// trace-event JSON (open it in chrome://tracing or https://ui.perfetto.dev).
#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer was created
  std::int64_t end_ns = -1;   ///< -1 while the span is open
  std::int64_t parent = -1;   ///< index of the parent span, -1 for a root
  std::uint64_t request = 0;  ///< request id (0 = not a request)
  std::uint32_t thread = 0;   ///< small per-tracer thread number
};

class Tracer {
 public:
  /// A disabled tracer records nothing and its scopes cost one branch.
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: recorded from construction to destruction.
  class Scope {
   public:
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Index of the span (for explicit parents); -1 when tracing is off.
    std::int64_t index() const { return index_; }

   private:
    friend class Tracer;
    Scope(Tracer* tracer, std::int64_t index, std::int64_t saved)
        : tracer_(tracer), index_(index), saved_(saved) {}

    Tracer* tracer_;
    std::int64_t index_;
    std::int64_t saved_;  ///< thread's innermost open span before this one
  };

  bool enabled() const { return enabled_; }

  /// Opens a span whose parent is this thread's innermost open span.
  [[nodiscard]] Scope span(const std::string& name, std::uint64_t request = 0);

  /// Opens a span under an explicit parent index (another thread's span).
  [[nodiscard]] Scope span_under(const std::string& name, std::int64_t parent,
                                 std::uint64_t request = 0);

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const;

  void write_chrome_json(std::ostream& out) const;

 private:
  Scope open(const std::string& name, std::int64_t parent, bool explicit_parent,
             std::uint64_t request);
  void close(std::int64_t index, std::int64_t saved);

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;  ///< guards spans_ and threads_
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::uint32_t> threads_;
};

/// Self time of each span in ns: its duration minus the union of the
/// intervals its direct children cover (clipped to the span), so children
/// that overlap each other are not subtracted twice.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Total self time per span name, in ms.
std::map<std::string, double> self_ms_by_name(const std::vector<Span>& spans);

}  // namespace e2e

#endif  // E2EBENCH_TRACE_H_
