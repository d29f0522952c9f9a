// Small statistics and reporting helpers for the end-to-end benchmark:
// nearest-rank percentiles, medians, metric-name validation and the one-line
// JSON result the benchmark prints last.
#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// Nearest-rank percentile: the smallest sample with at least `q` percent of
/// the samples at or below it (rank ceil(q/100 * n), 1-based). `q` is in
/// (0, 100]; q <= 0 returns the minimum. Throws on an empty sample.
double percentile(std::vector<double> values, double q);

/// Median: the middle sample, or the mean of the two middle samples when
/// the count is even. Throws on an empty sample.
double median(std::vector<double> values);

/// Mean over the non-empty groups of each group's nearest-rank percentile
/// `q`. Throws when every group is empty.
double mean_percentile(const std::vector<std::vector<double>>& groups, double q);

/// Total number of samples over all groups.
std::size_t sample_count(const std::vector<std::vector<double>>& groups);

/// True when `name` is 1-64 characters of [A-Za-z0-9_.-] starting with a
/// letter or digit.
bool valid_metric_name(const std::string& name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric list; add() rejects invalid or repeated names and
/// non-finite values.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} on
/// one line, every value printed with full double precision.
std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed, const MetricSet& metrics);

}  // namespace e2e

#endif  // E2EBENCH_STATS_H_
