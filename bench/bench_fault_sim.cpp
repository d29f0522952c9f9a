// bench_fault_sim — batched fault simulation vs the sequential
// inject→predict→revert loop, on both zoo models.
//
// For each model: quantize, generate a functional suite, enumerate the FULL
// fault universe (stuck-at + requant + accumulator) UNCAPPED, then run the
// static ATPG stage over the affine range analysis:
//   1. untestable prune (analysis::classify_universe) — every pruned fault
//      is also simulated once and REQUIRED undetected (soundness contract);
//   2. dominance collapse (analysis::analyze_dominance) — a sample of the
//      dropped faults is simulated next to its representatives and every
//      test detecting a representative is REQUIRED to detect its dominated
//      fault (the implication contract).
// static_prune_pct = (untestable + dominated) / raw is the headline static
// metric; affine_ranges_ms is the affine range pass alone, best of --reps.
// The surviving set is structurally collapsed and evenly thinned to
// --fault-budget, then scored twice — run_sequential (one QuantizedIp, each
// code fault's byte written by QuantizedIp::write_byte at
// FaultLayout::flat_address, full derived-state rebuild per fault) and
// run_batched (one clean traced forward, O(layer) point faults, resume from
// the fault site). The two fault×test matrices are REQUIRED to be
// bit-identical (first_detected, clean labels and every row compared; any
// mismatch is a hard failure, not a metric). The headline perf metric is
// the batched/sequential speedup, gated by --min-speedup (default 3).
//
// The detection matrix then drives the dominance analysis + greedy suite
// compaction, and the compacted suite's detected-fault set is verified
// EQUAL to the full suite's (the compaction contract); the kept-test drop
// is gated by --min-compact (default 20%, acceptance: at least one model).
//
//   bench_fault_sim [--quick] [--tests N] [--fault-budget N] [--reps 3]
//                   [--min-speedup 3] [--min-compact 20]
//                   [--json [path|family]] [--baseline path]
//                   [--max-regress pct]
#include <chrono>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "analysis/affine_domain.h"
#include "analysis/range_analysis.h"
#include "analysis/testability.h"
#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "fault/collapse.h"
#include "fault/compact.h"
#include "fault/fault_model.h"
#include "fault/simulator.h"
#include "quant/quantize.h"
#include "tensor/batch.h"
#include "testgen/generator.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/table.h"

namespace {

using namespace dnnv;
using Clock = std::chrono::steady_clock;

struct ModelRun {
  std::string name;
  std::size_t enumerated = 0;
  std::size_t untestable = 0;
  std::size_t dominated = 0;
  double static_prune_pct = 0.0;
  double affine_ranges_ms = 0.0;
  std::size_t scored = 0;
  std::size_t tests = 0;
  double seq_ms = 0.0;
  double batched_ms = 0.0;
  double speedup = 0.0;
  double detection_rate = 0.0;
  std::size_t core = 0;
  std::size_t kept_tests = 0;
  double compact_drop_pct = 0.0;
};

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Evenly thins `universe` to at most `budget` faults (same spacing rule as
/// UniverseConfig::max_faults, applied after the static stage so pruning is
/// measured on the whole universe but simulation stays bounded).
fault::FaultUniverse thin_universe(const fault::FaultUniverse& universe,
                                   std::int64_t budget) {
  const auto size = static_cast<std::int64_t>(universe.size());
  if (budget <= 0 || size <= budget) {
    fault::FaultUniverse all;
    for (std::size_t i = 0; i < universe.size(); ++i) all.add(universe[i]);
    return all;
  }
  fault::FaultUniverse thinned;
  for (std::int64_t j = 0; j < budget; ++j) {
    thinned.add(universe[static_cast<std::size_t>(j * size / budget)]);
  }
  return thinned;
}

/// Hard bit-identity check between the two simulators' results.
void require_identical(const fault::SimResult& seq,
                       const fault::SimResult& batched,
                       const std::string& what) {
  DNNV_CHECK(seq.clean_labels == batched.clean_labels,
             what << ": clean labels diverge");
  DNNV_CHECK(seq.first_detected == batched.first_detected,
             what << ": first_detected diverges");
  DNNV_CHECK(seq.rows.size() == batched.rows.size(),
             what << ": row counts diverge");
  for (std::size_t i = 0; i < seq.rows.size(); ++i) {
    DNNV_CHECK(seq.rows[i] == batched.rows[i],
               what << ": detection row " << i << " diverges");
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv,
                       {"quick", "tests", "fault-budget", "reps",
                        "min-speedup", "min-compact", "paper-scale", "retrain",
                        "json", "baseline", "max-regress"});
    const bool quick = args.get_bool("quick", false);
    const int num_tests = args.get_int("tests", quick ? 24 : 40);
    const auto budget =
        static_cast<std::int64_t>(args.get_int("fault-budget", 2048));
    const int reps = args.get_int("reps", 3);
    const double min_speedup = args.get_double("min-speedup", 3.0);
    const double min_compact = args.get_double("min-compact", 20.0);
    DNNV_CHECK(num_tests > 0 && reps > 0, "--tests/--reps must be positive");

    bench::banner("fault simulation",
                  "batched whole-universe fault scoring vs the sequential "
                  "inject/predict/revert loop");

    auto zoo = bench::zoo_options(args);
    zoo.tiny = quick;

    std::vector<bench::BenchMetric> metrics;
    std::vector<ModelRun> runs;
    double best_compact_drop = 0.0;

    for (const bool use_cifar : {false, true}) {
      const auto trained =
          use_cifar ? exp::cifar_relu(zoo) : exp::mnist_tanh(zoo);
      const auto pool =
          use_cifar ? exp::shapes_train(300) : exp::digits_train(300);

      ModelRun run;
      run.name = trained.name;
      auto qmodel = quant::QuantModel::quantize(
          trained.model, pool.images, quant::QuantConfig{});

      // Functional suite, golden labels from the artifact under test.
      testgen::GeneratorConfig gen_config;
      gen_config.max_tests = num_tests;
      gen_config.coverage = trained.coverage;
      cov::CoverageAccumulator acc(
          static_cast<std::size_t>(trained.model.param_count()));
      testgen::GenContext gen_ctx;
      gen_ctx.model = &trained.model;
      gen_ctx.pool = &pool.images;
      gen_ctx.item_shape = trained.item_shape;
      gen_ctx.num_classes = trained.num_classes;
      gen_ctx.accumulator = &acc;
      const auto generated =
          testgen::make_generator("greedy", gen_config)->generate(gen_ctx);
      std::vector<Tensor> inputs;
      for (const auto& test : generated.tests) inputs.push_back(test.input);
      const auto golden = qmodel.predict_labels(stack_batch(inputs));
      const auto suite = validate::TestSuite::from_labels(inputs, golden);
      run.tests = suite.size();

      // FULL fault universe, uncapped: the static ATPG stage (affine range
      // analysis, untestable prune, dominance collapse) is cheap enough to
      // run over every enumerated fault — the same staging qualify_suite
      // runs; only simulation is thinned to the budget.
      const auto raw =
          fault::FaultUniverse::enumerate(qmodel, fault::universe_config("full"));
      run.enumerated = raw.size();
      analysis::RangeOptions range_options;
      range_options.item_dims = trained.item_shape.dims();
      analysis::ModelRange range;
      run.affine_ranges_ms = 1e300;
      for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        range = analysis::analyze_ranges_affine(qmodel, range_options);
        run.affine_ranges_ms = std::min(run.affine_ranges_ms, ms_since(t0));
      }
      const auto report = analysis::classify_universe(qmodel, range, raw);
      const auto possibly = analysis::prune_untestable(raw, report);
      const auto dom = analysis::analyze_dominance(qmodel, range, possibly);
      const auto kept = analysis::prune_dominated(possibly, dom);
      run.untestable = report.untestable;
      run.dominated = dom.count;
      run.static_prune_pct =
          raw.empty() ? 0.0
                      : 100.0 *
                            static_cast<double>(report.untestable + dom.count) /
                            static_cast<double>(raw.size());
      const auto universe =
          thin_universe(fault::collapse_structural(kept, qmodel), budget);
      run.scored = universe.size();

      fault::FaultSimulator sim(qmodel, suite);
      fault::SimOptions sim_options;  // full matrix, int8, shared pool

      // Soundness cross-check, enforced like the bit-identity contract:
      // every statically pruned fault must be undetected when simulated.
      fault::FaultUniverse pruned_set;
      for (std::size_t i = 0; i < raw.size(); ++i) {
        if (report.is_untestable(i)) pruned_set.add(raw[i]);
      }
      pruned_set = thin_universe(pruned_set, budget);
      if (!pruned_set.empty()) {
        const fault::SimResult check = sim.run_batched(pruned_set, sim_options);
        DNNV_CHECK(check.detected == 0,
                   run.name << ": " << check.detected
                            << " statically pruned fault(s) detected by "
                               "simulation — prune is UNSOUND");
      }

      // Implication cross-check for the dominance collapse: on an even
      // sample of dropped faults, every test that detects the kept
      // representative must also detect the dropped fault (det(rep) =>
      // det(dominated) is exactly what justified dropping it).
      {
        std::vector<std::size_t> dom_idx;
        for (std::size_t i = 0; i < possibly.size(); ++i) {
          if (dom.dominated[i] != 0) dom_idx.push_back(i);
        }
        const std::size_t sample = 128;
        const std::size_t step =
            dom_idx.size() > sample ? dom_idx.size() / sample : 1;
        fault::FaultUniverse dropped;
        fault::FaultUniverse reps;
        for (std::size_t s = 0; s < dom_idx.size(); s += step) {
          dropped.add(possibly[dom_idx[s]]);
          reps.add(possibly[dom.representative[dom_idx[s]]]);
        }
        if (!dropped.empty()) {
          const fault::SimResult dr = sim.run_batched(dropped, sim_options);
          const fault::SimResult rr = sim.run_batched(reps, sim_options);
          for (std::size_t p = 0; p < dr.rows.size(); ++p) {
            DNNV_CHECK(rr.rows[p].count_common_bits(dr.rows[p]) ==
                           rr.rows[p].count(),
                       run.name << ": dominated fault " << dropped[p].describe()
                                << " missed by a test that detects its "
                                   "representative "
                                << reps[p].describe()
                                << " — dominance is UNSOUND");
          }
        }
      }

      // Best-of-reps wall time for both loops; results must agree on EVERY
      // repetition (correctness is not sampled).
      fault::SimResult seq;
      fault::SimResult batched;
      run.seq_ms = 1e300;
      run.batched_ms = 1e300;
      for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        fault::SimResult s = sim.run_sequential(universe, sim_options);
        run.seq_ms = std::min(run.seq_ms, ms_since(t0));
        t0 = Clock::now();
        fault::SimResult b = sim.run_batched(universe, sim_options);
        run.batched_ms = std::min(run.batched_ms, ms_since(t0));
        require_identical(s, b, run.name);
        seq = std::move(s);
        batched = std::move(b);
      }
      run.speedup = run.batched_ms > 0.0 ? run.seq_ms / run.batched_ms : 0.0;
      run.detection_rate = batched.detection_rate();

      // Dominance analysis + greedy compaction, with the contract checked:
      // the kept tests detect EXACTLY the faults the full suite detects.
      const fault::MatrixCollapse mc = fault::analyze_matrix(batched.rows);
      run.core = mc.core.size();
      run.kept_tests = run.tests;
      if (!mc.core.empty()) {
        const fault::CompactionResult compaction =
            fault::compact_tests(batched.rows, mc.core, suite.size());
        run.kept_tests = compaction.kept_tests.size();
        DynamicBitset kept(suite.size());
        for (const std::int64_t t : compaction.kept_tests) {
          kept.set(static_cast<std::size_t>(t));
        }
        for (std::size_t f = 0; f < batched.rows.size(); ++f) {
          if (batched.rows[f].none()) continue;
          DNNV_CHECK(kept.count_common_bits(batched.rows[f]) > 0,
                     run.name << ": compaction lost detection of fault " << f);
        }
      }
      run.compact_drop_pct =
          run.tests > 0 ? 100.0 *
                              static_cast<double>(run.tests - run.kept_tests) /
                              static_cast<double>(run.tests)
                        : 0.0;
      best_compact_drop = std::max(best_compact_drop, run.compact_drop_pct);
      runs.push_back(run);

      metrics.push_back(
          {run.name + "_speedup_x", run.speedup, "x", true});
      metrics.push_back({run.name + "_detection_rate_pct",
                         100.0 * run.detection_rate, "%", true});
      metrics.push_back({run.name + "_compact_drop_pct", run.compact_drop_pct,
                         "%", true});
      metrics.push_back({run.name + "_static_prune_pct", run.static_prune_pct,
                         "%", true});
      metrics.push_back({run.name + "_affine_ranges_ms", run.affine_ranges_ms,
                         "ms", false});
      metrics.push_back(
          {run.name + "_pruned_sim_ms", run.batched_ms, "ms", false});
    }

    TablePrinter table({"model", "faults (raw)", "static prune", "affine ms",
                        "tests", "seq ms", "batched ms", "speedup", "detected",
                        "core", "kept tests", "compact drop"});
    for (const ModelRun& run : runs) {
      table.add_row({run.name,
                     std::to_string(run.scored) + " (" +
                         std::to_string(run.enumerated) + ")",
                     std::to_string(run.untestable) + "+" +
                         std::to_string(run.dominated) + " (" +
                         format_double(run.static_prune_pct, 1) + "%)",
                     format_double(run.affine_ranges_ms, 1),
                     std::to_string(run.tests), format_double(run.seq_ms, 1),
                     format_double(run.batched_ms, 1),
                     format_double(run.speedup, 2) + "x",
                     format_percent(run.detection_rate),
                     std::to_string(run.core), std::to_string(run.kept_tests),
                     format_double(run.compact_drop_pct, 1) + "%"});
    }
    table.print(std::cout);
    std::cout << "\nbatched == sequential: every fault x test matrix was "
                 "bit-identical across "
              << reps << " repetitions\n";

    bool ok = true;
    for (const ModelRun& run : runs) {
      // The speedup acceptance is defined on the >= 1k-fault universe; a
      // --fault-budget small enough to duck under that is exploratory, so
      // the gate only arms at full scale.
      if (run.scored >= 1000 && run.speedup < min_speedup) {
        std::cerr << "FAIL: " << run.name << " batched speedup "
                  << format_double(run.speedup, 2) << "x < required "
                  << min_speedup << "x over " << run.scored << " faults\n";
        ok = false;
      }
    }
    if (best_compact_drop < min_compact) {
      std::cerr << "FAIL: best suite compaction " << best_compact_drop
                << "% < required " << min_compact << "%\n";
      ok = false;
    }
    if (!ok) return 1;

    if (args.has("json")) {
      const std::string path =
          bench::resolve_json_out("fault_sim", args.get_string("json", ""));
      std::map<std::string, std::string> config;
      config["quick"] = quick ? "1" : "0";
      config["preset"] = "full";
      config["domain"] = "affine";
      config["tests"] = std::to_string(num_tests);
      config["fault_budget"] = std::to_string(budget);
      config["reps"] = std::to_string(reps);
      bench::write_bench_json(path, "fault_sim", config, metrics);
    }
    if (args.has("baseline")) {
      const std::string baseline = bench::resolve_baseline_arg(
          "fault_sim", args.get_string("baseline", ""));
      // The speedup is a ratio of two same-process loops, so host load
      // largely cancels; detection/compaction are deterministic. 25% keeps
      // the gate meaningful without flaking on scheduler noise.
      const double max_regress = args.get_double("max-regress", 25.0);
      std::cout << "\ndiff vs " << baseline << " (max regression "
                << max_regress << "%):\n";
      const int regressions =
          bench::diff_against_baseline(metrics, baseline, max_regress);
      if (regressions > 0) {
        std::cerr << regressions << " metric(s) regressed beyond "
                  << max_regress << "%\n";
        return 1;
      }
    }
    return 0;
  } catch (const dnnv::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
