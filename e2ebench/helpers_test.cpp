// Tests for the benchmark's own helpers: percentiles, span self time,
// metric names, the phase sequencing, the CPU clocks and the serving windows.
//
//   cmake --build .bench_build --target e2e_bench_test && .bench_build/e2e_bench_test
#include <gtest/gtest.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "phases.h"
#include "reference.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace e2e {
namespace {

TEST(Percentile, NearestRank) {
  const std::vector<double> v = {50, 15, 40, 20, 35};
  EXPECT_EQ(percentile(v, 5), 15);
  EXPECT_EQ(percentile(v, 30), 20);
  EXPECT_EQ(percentile(v, 40), 20);
  EXPECT_EQ(percentile(v, 50), 35);
  EXPECT_EQ(percentile(v, 90), 50);
  EXPECT_EQ(percentile(v, 100), 50);
  EXPECT_EQ(percentile(v, 0), 15);
  EXPECT_EQ(percentile({7}, 99), 7);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(Percentile, Median) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({9}), 9);
  EXPECT_THROW(median({}), std::invalid_argument);
}

Span make_span(const std::string& name, std::int64_t start, std::int64_t end,
               std::int64_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, NestedChildren) {
  const std::vector<Span> spans = {make_span("phase", 0, 100, -1),
                                   make_span("layer", 10, 30, 0),
                                   make_span("inner", 15, 20, 1)};
  EXPECT_EQ(self_times_ns(spans), (std::vector<std::int64_t>{80, 15, 5}));
}

TEST(SelfTime, OverlappingChildrenAreCountedOnce) {
  const std::vector<Span> spans = {make_span("phase", 0, 100, -1),
                                   make_span("a", 10, 50, 0),
                                   make_span("b", 30, 70, 0),
                                   make_span("c", 70, 75, 0)};
  EXPECT_EQ(self_times_ns(spans)[0], 100 - 65);
}

TEST(SelfTime, ChildOutsideParentIsClipped) {
  const std::vector<Span> spans = {make_span("phase", 0, 100, -1),
                                   make_span("late", 90, 130, 0)};
  EXPECT_EQ(self_times_ns(spans)[0], 90);
  EXPECT_EQ(self_times_ns(spans)[1], 40);
}

TEST(SelfTime, TotalsByName) {
  const std::vector<Span> spans = {make_span("phase", 0, 4'000'000, -1),
                                   make_span("layer", 0, 1'000'000, 0),
                                   make_span("layer", 2'000'000, 3'000'000, 0)};
  const auto totals = self_ms_by_name(spans);
  EXPECT_DOUBLE_EQ(totals.at("layer"), 2.0);
  EXPECT_DOUBLE_EQ(totals.at("phase"), 2.0);
}

TEST(Tracer, NestsPerThreadAndAcceptsExplicitParents) {
  Tracer tracer(true);
  {
    auto phase = tracer.span("phase");
    { auto child = tracer.span("child", 7); }
    std::thread worker([&] { auto remote = tracer.span_under("remote", phase.index(), 9); });
    worker.join();
    auto sibling = tracer.span("sibling");
  }
  { auto root = tracer.span("root"); }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_NE(spans[2].thread, spans[0].thread);
  EXPECT_EQ(spans[3].parent, 0);
  EXPECT_EQ(spans[4].parent, -1);
  for (const Span& s : spans) EXPECT_GE(s.end_ns, s.start_ns);
  std::ostringstream json;
  tracer.write_chrome_json(json);
  EXPECT_NE(json.str().find("\"name\": \"remote\""), std::string::npos);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer(false);
  { auto span = tracer.span("x"); EXPECT_EQ(span.index(), -1); }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(MetricNames, Validation) {
  for (const std::string good : {"setup_s", "analysis.ranges_ms", "a-b_c.d", "9lives"}) {
    EXPECT_TRUE(valid_metric_name(good)) << good;
  }
  for (const std::string bad : {"", ".x", "_x", "-x", "a b", "a/b", "x%", "é"}) {
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  }
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(MetricNames, SetRejectsBadEntriesAndPrintsJson) {
  MetricSet metrics;
  metrics.add("latency_ms", 1.25, "ms");
  EXPECT_THROW(metrics.add("latency_ms", 2.0, "ms"), std::invalid_argument);
  EXPECT_THROW(metrics.add("bad name", 2.0, "ms"), std::invalid_argument);
  EXPECT_THROW(metrics.add("nan_ms", std::nan(""), "ms"), std::invalid_argument);
  EXPECT_EQ(result_json(true, 3, 0, metrics),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}");
}

TEST(MetricNames, EveryLayerMetricIsValidAndPrinted) {
  MetricSet metrics;
  add_layer_metrics({{"fault.detected", 3.0}}, metrics);
  ASSERT_EQ(metrics.metrics().size(), layer_metric_specs().size());
  for (const Metric& m : metrics.metrics()) {
    EXPECT_EQ(m.value, m.name == "fault.detected" ? 3.0 : 0.0) << m.name;
  }
  MetricSet other;
  EXPECT_THROW(add_layer_metrics({{"fault.detectd", 1.0}}, other), std::logic_error);
}

TEST(Phases, WarmUpThenEverySetUpThenMeasure) {
  std::vector<std::string> order;
  PhasePlan plan;
  plan.setup_repeats = 3;
  plan.warm_up = [&] {
    order.push_back("warm_up");
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  };
  plan.setup = [&] { order.push_back("setup"); };
  plan.measure = [&] { order.push_back("measure"); };
  const PhaseTimes times = run_phases(plan);
  EXPECT_EQ(order, (std::vector<std::string>{"warm_up", "setup", "setup", "setup",
                                             "measure"}));
  ASSERT_EQ(times.setup_s.size(), 3u);
  EXPECT_GE(times.warm_up_s, 0.06);
  // The warm-up is never charged to set-up.
  EXPECT_LT(times.setup_median_s(), 0.03);
}

/// Runs the reference kernel `runs` times: work whose scaled CPU time is
/// `runs` * kReferenceSeconds on any host.
void reference_work(int runs) {
  for (int r = 0; r < runs; ++r) run_reference_kernel();
}

TEST(Phases, SetUpMedianIgnoresOneSlowRepetition) {
  int calls = 0;
  PhasePlan plan;
  plan.setup_repeats = 3;
  plan.setup = [&] { reference_work(++calls == 1 ? 40 : 4); };
  plan.measure = [] {};
  const PhaseTimes times = run_phases(plan);
  EXPECT_GT(times.setup_median_s(), 2 * kReferenceSeconds);
  EXPECT_LT(times.setup_median_s(), 8 * kReferenceSeconds);
  EXPECT_THROW(run_phases(PhasePlan{nullptr, [] {}, [] {}, 0}), std::invalid_argument);
}

TEST(Phases, SetUpIsChargedCpuTimeNotWaiting) {
  PhasePlan plan;
  plan.setup_repeats = 1;
  plan.setup = [] { std::this_thread::sleep_for(std::chrono::milliseconds(60)); };
  plan.measure = [] {};
  EXPECT_LT(run_phases(plan).setup_median_s(), 0.03);
}

TEST(ScaledWatch, FixedWorkReadsItsReferenceTime) {
  const ScaledWatch watch;
  reference_work(20);
  const CallTime call = watch.stop();
  const double scaled = scaled_seconds(call);
  EXPECT_GT(scaled, 10 * kReferenceSeconds);
  EXPECT_LT(scaled, 40 * kReferenceSeconds);
  EXPECT_GT(call.cpu_s, 0.0);
  EXPECT_GE(call.wall_seconds(), call.cpu_s * 0.5);
  EXPECT_FALSE(reference_samples().empty());
}

TEST(ScaledWatch, TheSamplerIsNotChargedToTheCall) {
  const ScaledWatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // The sampler ran its kernel about eight times meanwhile.
  EXPECT_LT(watch.stop().cpu_s, 0.004);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Keeps the calling thread busy for `seconds` of its own CPU time.
void burn_cpu(double seconds) {
  const double until = thread_cpu_seconds() + seconds;
  volatile std::uint64_t x = 1;
  while (thread_cpu_seconds() < until) {
    for (int i = 0; i < 10000; ++i) x = x * 6364136223846793005ull + 1;
  }
}

TEST(ProcessCpu, CountsEveryThreadOfTheProcess) {
  const double start = process_cpu_seconds();
  std::thread other([] { burn_cpu(0.03); });
  burn_cpu(0.03);
  other.join();
  EXPECT_GE(process_cpu_seconds() - start, 0.06);
}

TEST(ServeWindow, OneClassCyclesEvenlyOverItsParts) {
  ServeMix mix;
  mix.connections.resize(4);
  for (std::size_t conn = 0; conn < mix.connections.size(); ++conn) {
    for (std::size_t model = 0; model < 3; ++model) {
      Part part;
      part.model = model;
      part.expected.passed = conn >= ServeMix::kTamperedConnections;
      mix.connections[conn].push_back(part);
    }
  }
  std::mutex mutex;
  std::vector<std::vector<int>> sent(4, std::vector<int>(3, 0));
  const RequestFn request = [&](std::size_t conn, std::size_t part) {
    std::lock_guard<std::mutex> lock(mutex);
    ++sent[conn][part];
    return mix.connections[conn][part].expected;
  };
  const WindowStats stats = drive_class(mix, true, 0.02, 7, request);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_GE(stats.attempted, 2);
  EXPECT_EQ(sample_count(stats.clean_ms), 0u);
  EXPECT_EQ(static_cast<std::int64_t>(sample_count(stats.tampered_ms)), stats.attempted);
  for (std::size_t conn = 0; conn < 4; ++conn) {
    const auto [lo, hi] = std::minmax_element(sent[conn].begin(), sent[conn].end());
    if (conn < ServeMix::kTamperedConnections) {
      EXPECT_LE(*hi - *lo, 1) << "connection " << conn;
    } else {
      EXPECT_EQ(*hi, 0) << "a clean connection sent in a tampered window";
    }
  }
}

}  // namespace
}  // namespace e2e
