// dnnv_pipeline — minimal CLI over the vendor→user pipeline façade.
//
// Vendor side (default): train/load a zoo model, run
// pipeline::VendorPipeline with a registry-named generation method,
// coverage criterion and qualification backend, and write the single
// release deliverable:
//
//   dnnv_pipeline --method combined --backend int8 --tests 50 \
//                 --coverage parameter|neuron|ksection|boundary|topk \
//                 --out deliverable.bin [--model mnist|cifar] [--tiny] \
//                 [--pool 500] [--key 12345] [--sections 10] [--topk 2]
//
// User side (--in): load a deliverable, reconstruct the deployed device and
// replay the suite; exit 0 = SECURE, 2 = TAMPERED:
//
//   dnnv_pipeline --in deliverable.bin [--key 12345]
//
// Service mode (--serve): drive the concurrent ValidationService end to end
// — N sessions validate the deliverable through the micro-batch scheduler,
// optionally streaming per-chunk verdicts, and per-session latency
// percentiles are printed; exit 0 = all SECURE, 2 = any TAMPERED:
//
//   dnnv_pipeline --serve --in deliverable.bin [--sessions 16]
//                 [--backend auto|float|int8] [--stream] [--key 12345]
//
// TCP server mode (--serve-tcp): bind the net::ValidationServer and serve
// the wire protocol until SIGINT/SIGTERM (then drain in-flight verdicts and
// exit 0). --preload pins a deliverable server-side as id 1:
//
//   dnnv_pipeline --serve-tcp [--host 127.0.0.1] [--port 7433]
//                 [--max-connections 16] [--idle-timeout 30]
//                 [--preload deliverable.bin] [--key 12345]
//
// TCP client mode (--validate-tcp): connect to a running server, load +
// open + validate one deliverable by its server-side path, print the
// verdict; exit 0 = SECURE, 2 = TAMPERED:
//
//   dnnv_pipeline --validate-tcp --in deliverable.bin [--host 127.0.0.1]
//                 [--port 7433] [--backend auto|float|int8] [--stream]
//                 [--key 12345]
//
// Fault qualification (vendor side, backend int8): --fault-universe
// [stuck-at|full] scores the suite against the structural fault universe of
// the int8 artifact and ships the detection stats in the manifest
// (--fault-budget caps the universe); --compact greedily drops tests that
// detect no fault the kept ones miss. The user side re-measures the shipped
// fault coverage automatically when the manifest carries a fault model.
//
// Static analysis (--analyze): quantize the chosen zoo model and print the
// range analysis under the chosen abstract domain (per-layer accumulator /
// code hulls — with the affine domain's hull width as a percentage of the
// interval baseline — dead and overflow-capable channels), the IR-verifier
// findings, the static fault-testability + dominance summaries for the
// chosen universe preset, and (--calibrated) whether the calibrated input
// domains narrow the int8 grid (the conditioned pass runs only then) and the
// conditionally-masked in-distribution faults with their excitation targets:
//
//   dnnv_pipeline --analyze [--model mnist|cifar] [--tiny]
//                 [--domain interval|affine] [--calibrated]
//                 [--fault-universe stuck-at|full] [--fault-budget 2048]
//
// The vendor side takes the same --domain/--calibrated pair to pick the
// abstract domain the fault-qualification static passes run under and to
// ship the calibrated conditioning (domains, conditional counts, excitation
// targets) in the manifest.
//
// Lint (--lint): load a deliverable WITHOUT the load-time verification gate
// and print every typed finding; exit 0 = clean (warnings allowed), 3 =
// errors:
//
//   dnnv_pipeline --lint --in deliverable.bin [--key 12345]
//
// --list prints the registered generation methods, --list-coverage the
// registered coverage criteria, --list-faults the collapsed fault universe
// of the chosen (quantized) zoo model; all exit.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/affine_domain.h"
#include "analysis/range_analysis.h"
#include "analysis/testability.h"
#include "analysis/verifier.h"
#include "bench/bench_common.h"
#include "exp/model_zoo.h"
#include "fault/collapse.h"
#include "fault/fault_model.h"
#include "net/client.h"
#include "net/server.h"
#include "pipeline/service.h"
#include "pipeline/user.h"
#include "pipeline/vendor.h"
#include "quant/qgemm.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/table.h"

namespace {

using namespace dnnv;

/// "--fault-universe" alone means the default preset; with a value it names
/// one ("stuck-at", "full").
std::string fault_preset(const CliArgs& args) {
  std::string preset = args.get_string("fault-universe", "stuck-at");
  if (preset == "true" || preset.empty()) preset = "stuck-at";
  return preset;
}

int run_vendor(const CliArgs& args) {
  const std::string which = args.get_string("model", "cifar");
  const std::string out = args.get_string("out", "deliverable.bin");
  const auto key = static_cast<std::uint64_t>(args.get_int("key", 12345));

  exp::ZooOptions zoo;
  zoo.tiny = args.get_bool("tiny", false);
  zoo.verbose = true;
  auto trained =
      which == "mnist" ? exp::mnist_tanh(zoo) : exp::cifar_relu(zoo);
  const auto pool_size = static_cast<std::int64_t>(args.get_int("pool", 300));
  const auto pool = which == "mnist" ? exp::digits_train(pool_size)
                                     : exp::shapes_train(pool_size);

  pipeline::VendorOptions options;
  options.method = args.get_string("method", "combined");
  options.backend = args.get_string("backend", "float");
  options.criterion = args.get_string("coverage", "parameter");
  options.criterion_config.sections = args.get_int("sections", 10);
  options.criterion_config.top_k = args.get_int("topk", 2);
  options.num_tests = args.get_int("tests", 50);
  options.generator.coverage = trained.coverage;
  options.generator.gradient.steps = args.get_int("steps", 40);
  options.model_name = trained.name;
  if (args.has("fault-universe")) {
    options.fault_model = fault_preset(args);
    options.fault_budget = args.get_int("fault-budget", 2048);
    options.compact = args.get_bool("compact", false);
    options.analysis_domain = args.get_string("domain", "affine");
    options.calibrated = args.get_bool("calibrated", true);
  }

  std::cout << "vendor: " << trained.name << ", method '" << options.method
            << "', criterion '" << options.criterion << "', backend '"
            << options.backend << "', " << options.num_tests << " tests\n";
  pipeline::VendorReport report;
  const auto deliverable =
      pipeline::VendorPipeline(options).run(trained.model, trained.item_shape,
                                            trained.num_classes, pool.images,
                                            &report);
  deliverable.save_file(out, key);
  std::cout << "coverage " << format_percent(report.coverage);
  if (report.backend_float_agreement >= 0) {
    std::cout << ", int8/float golden agreement " << report.backend_float_agreement
              << "/" << report.generation.tests.size();
  }
  if (!report.kernel_config.empty()) {
    std::cout << "\nqualification engine: " << report.kernel_config;
  }
  if (!options.fault_model.empty()) {
    const auto& fs = report.fault_stats;
    std::cout << "\nfault universe '" << options.fault_model << "': "
              << fs.enumerated << " enumerated, " << fs.collapsed
              << " collapsed, " << fs.untestable
              << " statically untestable, " << fs.dominated
              << " dominated, " << fs.scored << " scored, "
              << fs.detected << " detected ("
              << format_percent(fs.detection_rate()) << "), dominance core "
              << fs.core;
    if (options.calibrated) {
      std::cout << "\nconditionally masked in-distribution: "
                << fs.conditional << " fault(s), " << fs.excitations.size()
                << " excitation target(s) shipped in the manifest";
    }
    if (options.compact) {
      std::cout << "\ncompacted suite: " << fs.kept_tests << "/"
                << report.generation.tests.size()
                << " tests kept at unchanged detected-fault coverage";
    }
  }
  std::cout << "\nwrote " << out << " (" << deliverable.manifest.summary()
            << ")\n";
  return 0;
}

int run_list_faults(const CliArgs& args) {
  const std::string which = args.get_string("model", "cifar");
  exp::ZooOptions zoo;
  zoo.tiny = args.get_bool("tiny", false);
  const auto trained =
      which == "mnist" ? exp::mnist_tanh(zoo) : exp::cifar_relu(zoo);
  const auto pool_size = static_cast<std::int64_t>(args.get_int("pool", 300));
  const auto pool = which == "mnist" ? exp::digits_train(pool_size)
                                     : exp::shapes_train(pool_size);
  const auto qmodel = quant::QuantModel::quantize(
      trained.model, pool.images, quant::QuantConfig{});

  fault::UniverseConfig config = fault::universe_config(fault_preset(args));
  config.max_faults = args.get_int("fault-budget", 2048);
  const auto universe = fault::FaultUniverse::enumerate(qmodel, config);
  fault::CollapseStats stats;
  const auto collapsed = fault::collapse_structural(universe, qmodel, &stats);
  std::cout << trained.name << " fault universe [" << config.summary()
            << "]: " << stats.input << " enumerated, " << stats.kept
            << " kept (" << stats.dropped_noop << " no-op, "
            << stats.dropped_equivalent << " equivalent, "
            << stats.dropped_dead << " dead-channel)\n";
  for (const auto& fault : collapsed.faults()) {
    std::cout << "  " << fault.describe() << "\n";
  }
  return 0;
}

int run_analyze(const CliArgs& args) {
  const std::string which = args.get_string("model", "cifar");
  exp::ZooOptions zoo;
  zoo.tiny = args.get_bool("tiny", false);
  const auto trained =
      which == "mnist" ? exp::mnist_tanh(zoo) : exp::cifar_relu(zoo);
  const auto pool_size = static_cast<std::int64_t>(args.get_int("pool", 300));
  const auto pool = which == "mnist" ? exp::digits_train(pool_size)
                                     : exp::shapes_train(pool_size);
  const auto qmodel = quant::QuantModel::quantize(
      trained.model, pool.images, quant::QuantConfig{});

  const std::string domain_name = args.get_string("domain", "affine");
  const auto domain = analysis::range_domain(domain_name);
  const bool calibrated = args.get_bool("calibrated", false);

  analysis::RangeOptions ropts;
  ropts.item_dims = trained.item_shape.dims();
  const auto interval_range = analysis::analyze_ranges(qmodel, ropts);
  const auto range =
      domain == analysis::RangeDomain::kInterval
          ? interval_range
          : analysis::analyze_ranges_affine(qmodel, ropts);
  std::cout << trained.name << " static range analysis ('" << domain_name
            << "' domain)\n  " << qmodel.summary() << "\n";
  const auto& layers = qmodel.layers();
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const auto& lr = range.layers[li];
    if (lr.acc.empty()) continue;
    analysis::Interval acc = lr.acc.front();
    analysis::Interval out = lr.out.front();
    std::size_t dead = 0;
    std::size_t overflow = 0;
    // Summed per-channel hull widths under each domain — the relational
    // domain's tightening shows up as a width ratio < 100%.
    double width = 0.0;
    double interval_width = 0.0;
    for (std::size_t c = 0; c < lr.acc.size(); ++c) {
      acc.lo = std::min(acc.lo, lr.acc[c].lo);
      acc.hi = std::max(acc.hi, lr.acc[c].hi);
      out.lo = std::min(out.lo, lr.out[c].lo);
      out.hi = std::max(out.hi, lr.out[c].hi);
      dead += lr.out[c] == analysis::Interval{0, 0} ? 1u : 0u;
      overflow += lr.overflow[c];
      width += static_cast<double>(lr.acc[c].hi - lr.acc[c].lo);
      interval_width += static_cast<double>(
          interval_range.layers[li].acc[c].hi -
          interval_range.layers[li].acc[c].lo);
    }
    std::cout << "  L" << li << " " << layers[li].name << ": acc [" << acc.lo
              << ", " << acc.hi << "], out [" << out.lo << ", " << out.hi
              << "], " << dead << "/" << lr.acc.size() << " dead, "
              << overflow << " overflow-capable";
    if (domain == analysis::RangeDomain::kAffine && interval_width > 0.0) {
      std::cout << ", hull width " << format_percent(width / interval_width)
                << " of interval";
    }
    std::cout << "\n";
  }
  std::cout << "channels: " << range.dead_channels << " dead, "
            << range.overflow_channels << " overflow-capable, "
            << range.saturable_channels << " bias-saturable\n";

  const auto findings = analysis::verify_model(qmodel);
  std::cout << "verifier: " << findings.size() << " finding(s)\n";
  for (const auto& finding : findings) {
    std::cout << "  " << finding.format() << "\n";
  }

  // Classify the raw enumerated universe: the prune runs before structural
  // collapse in qualify_suite, so this is the same set it sees.
  fault::UniverseConfig config = fault::universe_config(fault_preset(args));
  config.max_faults = args.get_int("fault-budget", 2048);
  const auto universe = fault::FaultUniverse::enumerate(qmodel, config);
  const auto report = analysis::classify_universe(qmodel, range, universe);
  std::cout << "static testability [" << config.summary()
            << "]: " << report.summary(universe.size()) << "\n";
  const auto dom = analysis::analyze_dominance(qmodel, range, universe);
  std::cout << "dominance: " << dom.summary(universe.size()) << "\n";

  if (calibrated) {
    // Conditioned pass: same domain, input hull tightened to the calibrated
    // per-channel code domains. Conditionally masked faults are reported
    // with excitation targets — never pruned. As in fault::qualify_suite,
    // the pass runs only when a domain narrows the code grid; otherwise it
    // would reproduce `range` and no fault could be conditional.
    analysis::RangeOptions copts = ropts;
    copts.input_domains =
        analysis::calibrated_input_domains(qmodel, pool.images);
    const std::size_t channels = copts.input_domains.size();
    analysis::ConditionalReport cond;
    if (analysis::input_domains_narrow(copts.input_domains)) {
      std::cout << "calibrated: an input-channel domain (of " << channels
                << ") narrows [-127, 127]; conditioned range pass runs\n";
      const auto cal_range =
          analysis::analyze_ranges_with(domain, qmodel, copts);
      cond = analysis::classify_conditional(qmodel, range, report, cal_range,
                                            universe);
    } else {
      std::cout << "calibrated: all input-channel domains (" << channels
                << ") are [-127, 127]; unconditional ranges reused, "
                   "conditioned pass skipped\n";
    }
    std::cout << "calibrated (" << channels
              << " input-channel domains): " << cond.summary(universe.size())
              << "\n";
    const std::size_t show = std::min<std::size_t>(cond.excitations.size(), 5);
    for (std::size_t i = 0; i < show; ++i) {
      const auto& t = cond.excitations[i];
      std::cout << "  excite fault #" << t.fault_id << ": L"
                << static_cast<int>(t.layer) << " channel " << t.channel
                << " acc into [" << t.acc.lo << ", " << t.acc.hi << "]\n";
    }
    if (cond.excitations.size() > show) {
      std::cout << "  ... " << (cond.excitations.size() - show)
                << " more excitation target(s)\n";
    }
  }
  return 0;
}

int run_lint(const CliArgs& args) {
  const std::string in = args.get_string("in", "deliverable.bin");
  const auto key = static_cast<std::uint64_t>(args.get_int("key", 12345));
  const auto bundle = pipeline::Deliverable::load_file(in, key,
                                                       /*verify=*/false);
  const auto findings = analysis::verify_deliverable(bundle);
  std::cout << "lint " << in << " (" << bundle.manifest.summary() << "): "
            << findings.size() << " finding(s)\n";
  for (const auto& finding : findings) {
    std::cout << "  " << finding.format() << "\n";
  }
  const bool errors = analysis::has_errors(findings);
  std::cout << (errors ? "FAIL" : "OK") << "\n";
  return errors ? 3 : 0;
}

int run_user(const CliArgs& args) {
  const std::string in = args.get_string("in", "deliverable.bin");
  const auto key = static_cast<std::uint64_t>(args.get_int("key", 12345));
  const auto validator = pipeline::UserValidator::load_file(in, key);
  std::cout << "loaded " << in << " ("
            << validator.deliverable().manifest.summary() << ")\n";
  // Re-measure what the shipped suite exercises under the manifest's own
  // criterion (rebuilt from the shipped name + config). Reporting must
  // never block the security verdict: a criterion this binary does not
  // have registered (out-of-tree vendor) just skips the measurement.
  if (cov::criterion_registered(validator.deliverable().manifest.criterion)) {
    const auto coverage = validator.suite_coverage();
    std::cout << "suite covers " << coverage.map.covered_count() << "/"
              << coverage.map.total_points() << " points ("
              << format_percent(coverage.fraction()) << ") of "
              << coverage.description << "\n";
  } else {
    std::cout << "suite coverage not re-measured: criterion '"
              << validator.deliverable().manifest.criterion
              << "' is not registered in this binary\n";
  }
  // Same for the fault side: when the manifest carries a fault model, the
  // universe regenerates deterministically from the shipped artifact and the
  // suite's detection rate is re-measured locally.
  const auto& manifest = validator.deliverable().manifest;
  if (!manifest.fault_model.empty()) {
    const auto fault = validator.fault_coverage();
    std::cout << "fault coverage re-measured: " << fault.detected << "/"
              << fault.scored << " '" << manifest.fault_model
              << "' faults detected (" << fault.untestable
              << " statically pruned; "
              << format_percent(fault.detection_rate()) << "; manifest says "
              << manifest.fault_detected << "/" << manifest.fault_universe
              << ")\n";
  }
  const auto verdict = validator.validate();
  std::cout << "replayed " << verdict.tests_run << " tests: "
            << (verdict.passed ? "SECURE" : "TAMPERED") << "\n";
  return verdict.passed ? 0 : 2;
}

int run_serve(const CliArgs& args) {
  using Clock = std::chrono::steady_clock;
  const std::string in = args.get_string("in", "deliverable.bin");
  const auto key = static_cast<std::uint64_t>(args.get_int("key", 12345));
  const int num_sessions = args.get_int("sessions", 16);
  DNNV_CHECK(num_sessions > 0, "--sessions must be positive");
  const bool stream_verdicts = args.get_bool("stream", false);
  const auto backend =
      pipeline::backend_kind_from_string(args.get_string("backend", "auto"));

  pipeline::ValidationService service;
  const auto handle = service.load_file(in, key);
  std::cout << "serving " << in << " ("
            << handle.deliverable().manifest.summary() << ") to "
            << num_sessions << " concurrent sessions\n";

  std::vector<double> latencies(static_cast<std::size_t>(num_sessions), 0.0);
  // char, not bool: vector<bool> bit-packs, and the workers write
  // concurrently to distinct slots.
  std::vector<char> secure(static_cast<std::size_t>(num_sessions), 0);
  std::vector<std::thread> users;
  users.reserve(static_cast<std::size_t>(num_sessions));
  const auto start = Clock::now();
  for (int s = 0; s < num_sessions; ++s) {
    users.emplace_back([&, s] {
      const auto session_start = Clock::now();
      pipeline::SessionConfig config;
      config.backend = backend;
      auto session = service.open_session(handle, config);
      validate::Verdict verdict;
      if (stream_verdicts) {
        auto stream = session->stream();
        pipeline::VerdictStream::Chunk chunk;
        while (stream.next(chunk)) {
          if (s == 0) {  // narrate one session; the rest just consume
            std::cout << "  session 0 chunk [" << chunk.begin << ", "
                      << chunk.end << "): " << chunk.mismatches
                      << " mismatches\n";
          }
        }
        verdict = stream.verdict();
      } else {
        verdict = session->submit().get();
      }
      secure[static_cast<std::size_t>(s)] = verdict.passed;
      latencies[static_cast<std::size_t>(s)] =
          std::chrono::duration<double>(Clock::now() - session_start).count();
    });
  }
  for (auto& user : users) user.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  const int tampered = static_cast<int>(
      std::count(secure.begin(), secure.end(), static_cast<char>(0)));
  const auto stats = service.stats();
  std::cout << "validated " << num_sessions << " sessions in " << wall
            << " s (latency p50 " << bench::latency_percentile(latencies, 0.50)
            << " s, p90 " << bench::latency_percentile(latencies, 0.90)
            << " s, p99 " << bench::latency_percentile(latencies, 0.99)
            << " s)\n"
            << "scheduler: " << stats.batches << " micro-batches, "
            << stats.predicted << " tests inferred, " << stats.cache_served
            << " served by cross-session reuse\n"
            << "engine: " << quant::qgemm_config_string() << "\n"
            << "verdicts: " << (num_sessions - tampered) << " SECURE, "
            << tampered << " TAMPERED\n";
  return tampered == 0 ? 0 : 2;
}

// Set by the signal handler; the serve-tcp loop polls it. sig_atomic_t is
// the only type a handler may touch portably.
volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int) { g_stop_requested = 1; }

int run_serve_tcp(const CliArgs& args) {
  net::ServerConfig config;
  config.host = args.get_string("host", "127.0.0.1");
  config.port = static_cast<std::uint16_t>(args.get_int("port", 7433));
  config.max_connections =
      static_cast<std::size_t>(args.get_int("max-connections", 16));
  config.idle_timeout_seconds = args.get_double("idle-timeout", 0.0);

  net::ValidationServer server(config);
  if (args.has("preload")) {
    const std::string path = args.get_string("preload", "deliverable.bin");
    const auto key = static_cast<std::uint64_t>(args.get_int("key", 12345));
    const auto id = server.preload(path, key);
    std::cout << "preloaded " << path << " as deliverable id " << id << "\n";
  }
  std::cout << "serving on " << config.host << ":" << server.port() << " ("
            << config.max_connections << " connection slots";
  if (config.idle_timeout_seconds > 0) {
    std::cout << ", idle timeout " << config.idle_timeout_seconds << "s";
  }
  std::cout << ")\nengine: " << quant::qgemm_config_string() << "\n"
            << "Ctrl-C to drain and stop\n";

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cout << "\nshutting down: draining in-flight verdicts...\n";
  server.stop();
  const auto stats = server.stats();
  std::cout << "served " << stats.accepted << " connections ("
            << stats.rejected_busy << " busy-rejected, " << stats.evicted_idle
            << " idle-evicted), " << stats.requests << " frames, "
            << stats.submits << " submits\n";
  return 0;
}

int run_validate_tcp(const CliArgs& args) {
  const std::string host = args.get_string("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.get_int("port", 7433));
  const std::string in = args.get_string("in", "deliverable.bin");
  const auto key = static_cast<std::uint64_t>(args.get_int("key", 12345));
  const bool stream_verdicts = args.get_bool("stream", false);

  auto client = net::ValidationClient::connect(host, port);
  const auto loaded = client.load(in, key);
  std::cout << "server loaded " << in << " as id " << loaded.deliverable_id
            << " (" << loaded.summary << ")\n";

  pipeline::SessionConfig config;
  config.backend =
      pipeline::backend_kind_from_string(args.get_string("backend", "auto"));
  const auto opened = client.open(loaded.deliverable_id, config);
  const auto backend_kind = static_cast<pipeline::BackendKind>(opened.backend);
  std::cout << "session " << opened.session_id << " open ("
            << opened.suite_size << " tests, backend "
            << (backend_kind == pipeline::BackendKind::kInt8 ? "int8" : "float")
            << ")\n";

  validate::Verdict verdict;
  if (stream_verdicts) {
    const auto submit_id = client.submit(opened.session_id, /*stream=*/true);
    net::ValidationClient::Event event;
    while (client.next_event(event)) {
      if (event.kind == net::ValidationClient::Event::Kind::kChunk) {
        std::cout << "  chunk [" << event.chunk.begin << ", "
                  << event.chunk.end << "): " << event.chunk.mismatches
                  << " mismatches\n";
        continue;
      }
      if (event.kind == net::ValidationClient::Event::Kind::kVerdict &&
          event.submit_id == submit_id) {
        verdict = event.verdict;
        break;
      }
      if (event.kind == net::ValidationClient::Event::Kind::kError) {
        throw net::NetError(event.error, event.message);
      }
    }
  } else {
    verdict = client.validate(opened.session_id);
  }
  client.close_session(opened.session_id);
  client.goodbye();
  std::cout << "replayed " << verdict.tests_run << " tests: "
            << (verdict.passed ? "SECURE" : "TAMPERED") << "\n";
  return verdict.passed ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv,
                       {"method", "backend", "coverage", "sections", "topk",
                        "tests", "out", "in", "model", "tiny", "pool", "key",
                        "steps", "list", "list-coverage", "serve", "sessions",
                        "stream", "serve-tcp", "validate-tcp", "host", "port",
                        "max-connections", "idle-timeout", "preload",
                        "fault-universe", "fault-budget", "compact",
                        "list-faults", "analyze", "lint", "domain",
                        "calibrated"});
    if (args.get_bool("list", false)) {
      std::cout << "registered generation methods:\n";
      for (const auto& name : testgen::generator_names()) {
        std::cout << "  " << name << "\n";
      }
      return 0;
    }
    if (args.get_bool("list-coverage", false)) {
      std::cout << "registered coverage criteria:\n";
      for (const auto& name : cov::criterion_names()) {
        std::cout << "  " << name << "\n";
      }
      return 0;
    }
    if (args.get_bool("list-faults", false)) return run_list_faults(args);
    if (args.get_bool("analyze", false)) return run_analyze(args);
    if (args.get_bool("lint", false)) return run_lint(args);
    if (args.get_bool("serve-tcp", false)) return run_serve_tcp(args);
    if (args.get_bool("validate-tcp", false)) return run_validate_tcp(args);
    if (args.get_bool("serve", false)) return run_serve(args);
    return args.has("in") ? run_user(args) : run_vendor(args);
  } catch (const dnnv::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
