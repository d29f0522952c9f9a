// Structured bench output: every perf bench can emit a BENCH_<name>.json
// snapshot (config, hardware, kernel, metric series) and diff itself against
// a committed baseline — the repo's persistent perf trajectory. The schema
// is deliberately tiny and owned by this header:
//
//   {
//     "bench": "quant_gemm",
//     "config": {"reps": "5", "quick": "0"},
//     "hardware": {"threads": 1, "kernel": "scalar", "vnni_available": 0,
//                  "engine": "kernel=scalar mr=8 ..."},
//     "metrics": [
//       {"name": "conv_mnist_c1_fused_tiled_gops", "value": 1.234,
//        "unit": "gops", "higher_is_better": 1}
//     ]
//   }
//
// load_bench_metrics() parses exactly what write_bench_json() writes (one
// metric object per line) — it is a baseline reader, not a JSON library.
//
// Baselines come in per-host FAMILIES: next to a generic BENCH_x.json the
// repo may commit BENCH_x.<kernel>-t<threads>.json members, and
// diff_against_baseline() picks the member matching this host's
// hardware_fingerprint() (hard gate) before falling back to the generic
// snapshot (informational unless the hardware stanza happens to match).
#ifndef DNNV_BENCH_BENCH_JSON_H_
#define DNNV_BENCH_BENCH_JSON_H_

#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "quant/qgemm.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace dnnv::bench {

struct BenchMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool higher_is_better = true;
};

/// This host's baseline-family key: qgemm kernel + pool width, the two
/// hardware facts the regression gate conditions on (e.g. "scalar-t1",
/// "avx512vnni-t16").
inline std::string hardware_fingerprint() {
  return std::string(quant::qgemm_kernel_name()) + "-t" +
         std::to_string(ThreadPool::shared().num_threads());
}

/// The per-host family member of a baseline path:
/// BENCH_x.json → BENCH_x.<fingerprint>.json.
inline std::string family_member_path(const std::string& path) {
  const std::string suffix = ".json";
  if (path.size() >= suffix.size() &&
      path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return path.substr(0, path.size() - suffix.size()) + "." +
           hardware_fingerprint() + ".json";
  }
  return path + "." + hardware_fingerprint();
}

/// Family-aware baseline resolution: a committed
/// BENCH_x.<fingerprint>.json matching this host wins over the generic
/// BENCH_x.json, so one repo can carry one hard-gated baseline per CI
/// runner shape instead of a single snapshot that only gates on the
/// machine that recorded it.
inline std::string resolve_baseline_path(const std::string& path) {
  const std::string member = family_member_path(path);
  if (std::ifstream(member).good()) return member;
  return path;
}

/// Resolves a --json argument: empty/"true" names the conventional
/// BENCH_<bench>.json, the literal "family" names this host's family
/// member BENCH_<bench>.<fingerprint>.json (how per-host baselines are
/// recorded), anything else is a verbatim path.
inline std::string resolve_json_out(const std::string& bench,
                                    const std::string& value) {
  const std::string generic = "BENCH_" + bench + ".json";
  if (value.empty() || value == "true") return generic;
  if (value == "family") return family_member_path(generic);
  return value;
}

/// Resolves a --baseline argument the same way: a bare flag (empty or the
/// literal "true") means the conventional committed BENCH_<bench>.json,
/// anything else is a verbatim path. Family members are resolved later, at
/// diff time (resolve_baseline_path).
inline std::string resolve_baseline_arg(const std::string& bench,
                                        const std::string& value) {
  if (value.empty() || value == "true") return "BENCH_" + bench + ".json";
  return value;
}

struct BenchBaseline {
  std::string kernel;        ///< hardware stanza of the baseline run
  std::int64_t threads = 0;  ///< pool width of the baseline run
  std::map<std::string, BenchMetric> metrics;
};

/// Writes the bench snapshot. `config` entries are emitted as strings in
/// insertion-independent (sorted) order so diffs of committed baselines are
/// stable.
inline void write_bench_json(const std::string& path, const std::string& bench,
                             const std::map<std::string, std::string>& config,
                             const std::vector<BenchMetric>& metrics) {
  std::ofstream out(path);
  DNNV_CHECK(out.good(), "cannot write " << path);
  out << "{\n  \"bench\": \"" << bench << "\",\n  \"config\": {";
  bool first = true;
  for (const auto& [key, value] : config) {
    out << (first ? "" : ", ") << "\"" << key << "\": \"" << value << "\"";
    first = false;
  }
  out << "},\n  \"hardware\": {\"threads\": "
      << ThreadPool::shared().num_threads() << ", \"kernel\": \""
      << quant::qgemm_kernel_name() << "\", \"vnni_available\": "
      << (quant::qgemm_vnni_available() ? 1 : 0) << ", \"engine\": \""
      << quant::qgemm_config_string() << "\"},\n  \"metrics\": [\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const BenchMetric& m = metrics[i];
    out << "    {\"name\": \"" << m.name << "\", \"value\": " << m.value
        << ", \"unit\": \"" << m.unit << "\", \"higher_is_better\": "
        << (m.higher_is_better ? 1 : 0) << "}"
        << (i + 1 < metrics.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << " (" << metrics.size() << " metrics)\n";
}

/// Reads back a write_bench_json() file. Throws on unreadable files; metric
/// lines that do not parse are skipped.
inline BenchBaseline load_bench_metrics(const std::string& path) {
  std::ifstream in(path);
  DNNV_CHECK(in.good(), "cannot read baseline " << path);
  BenchBaseline baseline;
  auto field = [](const std::string& line, const std::string& key,
                  std::string* out_value) {
    const std::string tag = "\"" + key + "\": ";
    const auto pos = line.find(tag);
    if (pos == std::string::npos) return false;
    std::size_t begin = pos + tag.size();
    std::size_t end;
    if (line[begin] == '"') {
      ++begin;
      end = line.find('"', begin);
    } else {
      end = line.find_first_of(",}", begin);
    }
    if (end == std::string::npos) return false;
    *out_value = line.substr(begin, end - begin);
    return true;
  };
  std::string line;
  while (std::getline(in, line)) {
    std::string value;
    if (line.find("\"hardware\"") != std::string::npos) {
      if (field(line, "kernel", &value)) baseline.kernel = value;
      if (field(line, "threads", &value)) baseline.threads = std::stoll(value);
      continue;
    }
    BenchMetric m;
    if (!field(line, "name", &m.name) || m.name == "") continue;
    if (!field(line, "value", &value)) continue;
    m.value = std::stod(value);
    if (field(line, "higher_is_better", &value)) {
      m.higher_is_better = value != "0";
    }
    baseline.metrics[m.name] = m;
  }
  return baseline;
}

/// Diffs `current` against the baseline at `path`. Returns the number of
/// metrics regressed by more than `max_regress_pct`. The hard gate only
/// applies when the baseline was recorded on matching hardware (same kernel
/// and pool width) — on foreign hardware the diff is reported as
/// informational so CI runners of a different shape cannot flap the gate.
/// Baseline rows the run did not emit are listed as [missing] with a count,
/// and not counted: a filtered run emits a subset on purpose.
inline int diff_against_baseline(const std::vector<BenchMetric>& current,
                                 const std::string& path_in,
                                 double max_regress_pct) {
  const std::string path = resolve_baseline_path(path_in);
  if (path != path_in) {
    std::cout << "baseline family: using " << path << " (fingerprint "
              << hardware_fingerprint() << ")\n";
  }
  const BenchBaseline baseline = load_bench_metrics(path);
  const bool hardware_match =
      baseline.kernel == quant::qgemm_kernel_name() &&
      baseline.threads ==
          static_cast<std::int64_t>(ThreadPool::shared().num_threads());
  if (!hardware_match) {
    std::cout << "baseline " << path << " was recorded on kernel="
              << baseline.kernel << " threads=" << baseline.threads
              << " (this run: " << quant::qgemm_kernel_name() << "/"
              << ThreadPool::shared().num_threads()
              << ") — regressions reported but not enforced\n";
  }
  int regressions = 0;
  std::set<std::string> emitted;
  for (const BenchMetric& m : current) {
    emitted.insert(m.name);
    const auto it = baseline.metrics.find(m.name);
    if (it == baseline.metrics.end()) {
      std::cout << "  [new]     " << m.name << " = " << m.value << " " << m.unit
                << "\n";
      continue;
    }
    const BenchMetric& b = it->second;
    if (b.value == 0.0) continue;
    const double delta_pct = (m.value - b.value) / b.value * 100.0;
    const double regress_pct = m.higher_is_better ? -delta_pct : delta_pct;
    std::ostringstream row;
    row << m.name << ": " << b.value << " -> " << m.value << " " << m.unit
        << " (" << (delta_pct >= 0 ? "+" : "") << delta_pct << "%)";
    if (regress_pct > max_regress_pct) {
      std::cout << "  [REGRESS] " << row.str() << "\n";
      if (hardware_match) ++regressions;
    } else {
      std::cout << "  [ok]      " << row.str() << "\n";
    }
  }
  std::size_t missing = 0;
  for (const auto& [name, b] : baseline.metrics) {
    if (emitted.count(name) != 0) continue;
    std::cout << "  [missing] " << name << " = " << b.value << "\n";
    ++missing;
  }
  std::cout << "baseline rows not in this run: " << missing << " of "
            << baseline.metrics.size() << " (reported, not gated)\n";
  return regressions;
}

}  // namespace dnnv::bench

#endif  // DNNV_BENCH_BENCH_JSON_H_
