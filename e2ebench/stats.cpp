#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace e2e {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(values.begin(), values.end());
  if (q <= 0.0) return values.front();
  const double n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(std::min(q, 100.0) / 100.0 * n));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double mean_percentile(const std::vector<std::vector<double>>& groups, double q) {
  double sum = 0.0;
  int used = 0;
  for (const auto& group : groups) {
    if (group.empty()) continue;
    sum += percentile(group, q);
    ++used;
  }
  if (used == 0) throw std::invalid_argument("percentile of no samples");
  return sum / used;
}

std::size_t sample_count(const std::vector<std::vector<double>>& groups) {
  std::size_t n = 0;
  for (const auto& group : groups) n += group.size();
  return n;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name '" + name + "'");
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("metric '" + name + "' is not finite");
  }
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      throw std::invalid_argument("metric '" + name + "' reported twice");
    }
  }
  metrics_.push_back({name, value, unit});
}

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed, const MetricSet& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.metrics()) {
    char value[32];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    out << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace e2e
