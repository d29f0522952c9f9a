#include "trace.h"

#include <algorithm>
#include <functional>
#include <thread>
#include <utility>

namespace e2e {
namespace {

/// Innermost open span of the calling thread, per tracer.
thread_local const Tracer* tls_tracer = nullptr;
thread_local std::int64_t tls_current = -1;

std::int64_t current_for(const Tracer* tracer) {
  return tls_tracer == tracer ? tls_current : -1;
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

Tracer::Scope Tracer::span(const std::string& name, std::uint64_t request) {
  return open(name, -1, false, request);
}

Tracer::Scope Tracer::span_under(const std::string& name, std::int64_t parent,
                                 std::uint64_t request) {
  return open(name, parent, true, request);
}

Tracer::Scope Tracer::open(const std::string& name, std::int64_t parent,
                           bool explicit_parent, std::uint64_t request) {
  if (!enabled_) return Scope(nullptr, -1, -1);
  const std::int64_t saved = current_for(this);
  Span span;
  span.name = name;
  span.parent = explicit_parent ? parent : saved;
  span.request = request;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - origin_)
                      .count();
  std::int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto tid = static_cast<std::uint64_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
    const auto [it, inserted] =
        threads_.try_emplace(tid, static_cast<std::uint32_t>(threads_.size()));
    span.thread = it->second;
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(span));
  }
  tls_tracer = this;
  tls_current = index;
  return Scope(this, index, saved);
}

void Tracer::close(std::int64_t index, std::int64_t saved) {
  const std::int64_t end = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - origin_)
                               .count();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_ns = end;
  }
  tls_current = saved;
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(index_, saved_);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write_chrome_json(std::ostream& out) const {
  const std::vector<Span> all = spans();
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    const std::int64_t end = s.end_ns >= 0 ? s.end_ns : s.start_ns;
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"cat\": \"e2e\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << s.thread << ", \"ts\": " << static_cast<double>(s.start_ns) / 1e3
        << ", \"dur\": " << static_cast<double>(end - s.start_ns) / 1e3
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}}";
  }
  out << "\n]}\n";
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || s.end_ns < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= spans.size()) continue;
    const Span& parent = spans[p];
    const std::int64_t begin = std::max(s.start_ns, parent.start_ns);
    const std::int64_t end = std::min(s.end_ns, parent.end_ns);
    if (end > begin) children[p].emplace_back(begin, end);
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ns < 0) continue;
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_begin = 0;
    std::int64_t run_end = -1;
    for (const auto& [begin, end] : intervals) {
      if (begin > run_end) {
        if (run_end > run_begin) covered += run_end - run_begin;
        run_begin = begin;
        run_end = end;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    if (run_end > run_begin) covered += run_end - run_begin;
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return self;
}

std::map<std::string, double> self_ms_by_name(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, double> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    totals[spans[i].name] += static_cast<double>(self[i]) / 1e6;
  }
  return totals;
}

}  // namespace e2e
