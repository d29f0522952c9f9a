// bench_json tests: the BENCH_<name>.json snapshot must round-trip through
// its own reader, --json destinations must resolve per convention, and the
// baseline gate must (a) prefer a committed per-host family member over the
// generic snapshot and (b) hard-enforce only on matching hardware — a
// baseline recorded on a foreign kernel/thread shape reports regressions
// without failing the run.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "quant/qgemm.h"
#include "util/thread_pool.h"

namespace dnnv {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<bench::BenchMetric> sample_metrics() {
  return {{"alpha_gops", 4.0, "gops", true},
          {"beta_latency_s", 0.5, "s", false}};
}

TEST(BenchJsonTest, WriteLoadRoundTrip) {
  const auto path = temp_path("dnnv_bench_roundtrip.json");
  bench::write_bench_json(path, "roundtrip", {{"quick", "1"}},
                          sample_metrics());

  const auto baseline = bench::load_bench_metrics(path);
  EXPECT_EQ(baseline.kernel, quant::qgemm_kernel_name());
  EXPECT_EQ(baseline.threads,
            static_cast<std::int64_t>(ThreadPool::shared().num_threads()));
  ASSERT_EQ(baseline.metrics.size(), 2u);
  EXPECT_DOUBLE_EQ(baseline.metrics.at("alpha_gops").value, 4.0);
  EXPECT_TRUE(baseline.metrics.at("alpha_gops").higher_is_better);
  EXPECT_DOUBLE_EQ(baseline.metrics.at("beta_latency_s").value, 0.5);
  EXPECT_FALSE(baseline.metrics.at("beta_latency_s").higher_is_better);
  std::filesystem::remove(path);
}

TEST(BenchJsonTest, JsonOutResolution) {
  EXPECT_EQ(bench::resolve_json_out("x", ""), "BENCH_x.json");
  EXPECT_EQ(bench::resolve_json_out("x", "true"), "BENCH_x.json");
  EXPECT_EQ(bench::resolve_json_out("x", "family"),
            "BENCH_x." + bench::hardware_fingerprint() + ".json");
  EXPECT_EQ(bench::resolve_json_out("x", "custom.json"), "custom.json");
  EXPECT_EQ(bench::family_member_path("a/b/BENCH_x.json"),
            "a/b/BENCH_x." + bench::hardware_fingerprint() + ".json");
}

TEST(BenchJsonTest, FamilyMemberPreferredOverGenericSnapshot) {
  const auto generic = temp_path("dnnv_bench_family.json");
  const auto member = bench::family_member_path(generic);
  // Generic baseline carries a value the current run would regress against;
  // the per-host family member carries the honest one. Resolution must pick
  // the member, so the gate sees no regression.
  bench::write_bench_json(generic, "family",
                          {}, {{"alpha_gops", 400.0, "gops", true}});
  bench::write_bench_json(member, "family", {}, sample_metrics());
  EXPECT_EQ(bench::resolve_baseline_path(generic), member);
  EXPECT_EQ(bench::diff_against_baseline(sample_metrics(), generic, 5.0), 0);

  // Without the member the generic snapshot gates (same hardware stanza,
  // recorded by this very process) and the 100x drop is a regression.
  std::filesystem::remove(member);
  EXPECT_EQ(bench::resolve_baseline_path(generic), generic);
  EXPECT_EQ(bench::diff_against_baseline(sample_metrics(), generic, 5.0), 1);
  std::filesystem::remove(generic);
}

TEST(BenchJsonTest, ForeignHardwareBaselineReportsButDoesNotEnforce) {
  const auto path = temp_path("dnnv_bench_foreign.json");
  // Hand-written snapshot from a machine this host can never match.
  std::ofstream out(path);
  out << "{\n  \"bench\": \"foreign\",\n  \"config\": {},\n"
      << "  \"hardware\": {\"threads\": 96, \"kernel\": \"unobtainium\", "
      << "\"vnni_available\": 0, \"engine\": \"kernel=unobtainium\"},\n"
      << "  \"metrics\": [\n"
      << "    {\"name\": \"alpha_gops\", \"value\": 400.0, \"unit\": "
      << "\"gops\", \"higher_is_better\": 1}\n  ]\n}\n";
  out.close();

  // 100x below the foreign baseline, yet not a counted regression.
  EXPECT_EQ(bench::diff_against_baseline(sample_metrics(), path, 5.0), 0);
  std::filesystem::remove(path);
}

TEST(BenchJsonTest, GateDirectionFollowsHigherIsBetter) {
  const auto path = temp_path("dnnv_bench_direction.json");
  bench::write_bench_json(path, "direction", {}, sample_metrics());

  // Throughput up + latency down: both improvements, no regressions.
  std::vector<bench::BenchMetric> improved = {
      {"alpha_gops", 8.0, "gops", true}, {"beta_latency_s", 0.25, "s", false}};
  EXPECT_EQ(bench::diff_against_baseline(improved, path, 5.0), 0);

  // Throughput down + latency up: both count, and a metric the baseline
  // has never seen is informational only.
  std::vector<bench::BenchMetric> regressed = {
      {"alpha_gops", 2.0, "gops", true},
      {"beta_latency_s", 1.0, "s", false},
      {"gamma_new_metric", 1.0, "x", true}};
  EXPECT_EQ(bench::diff_against_baseline(regressed, path, 5.0), 2);
  std::filesystem::remove(path);
}

TEST(BenchJsonTest, BaselineRowsMissingFromTheRunAreListed) {
  const auto path = temp_path("dnnv_bench_missing.json");
  bench::write_bench_json(path, "missing", {},
                          {{"alpha_gops", 4.0, "gops", true},
                           {"beta_latency_s", 0.5, "s", false},
                           {"delta_rows", 7.0, "count", true}});

  // A filtered run emits only alpha: beta and delta are listed and counted,
  // and the return value still counts regressions only.
  std::ostringstream captured;
  std::streambuf* const saved = std::cout.rdbuf(captured.rdbuf());
  const int subset = bench::diff_against_baseline(
      {{"alpha_gops", 4.0, "gops", true}}, path, 5.0);
  const int complete = bench::diff_against_baseline(sample_metrics(), path, 5.0);
  std::cout.rdbuf(saved);
  EXPECT_EQ(subset, 0);
  EXPECT_EQ(complete, 0);

  const std::string out = captured.str();
  EXPECT_NE(out.find("  [missing] beta_latency_s = 0.5\n"), std::string::npos)
      << out;
  EXPECT_NE(out.find("  [missing] delta_rows = 7\n"), std::string::npos)
      << out;
  EXPECT_EQ(out.find("[missing] alpha_gops"), std::string::npos) << out;
  const std::string first_count =
      "baseline rows not in this run: 2 of 3 (reported, not gated)\n";
  const std::string second_count =
      "baseline rows not in this run: 1 of 3 (reported, not gated)\n";
  ASSERT_NE(out.find(first_count), std::string::npos) << out;
  EXPECT_NE(out.find(second_count, out.find(first_count)), std::string::npos)
      << out;
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace dnnv
