// ValidationService tests: a registered session's verdict must equal
// validate_ip on a fresh device carrying the same flips, on both zoo models
// and backends, clean and faulted, under both stream policies; a fault
// outside the device memory must fail the open; 16 concurrent sessions must
// produce deterministic verdicts across runs and thread counts, the
// early-exit stream must agree with the full replay, concurrent clean
// sessions must infer each test once per shared lane at any in-flight
// batch count, the deliverable registry must LRU-evict, keep pinned entries
// and reload, and protected-file corruption must surface distinct
// diagnostics.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/model_zoo.h"
#include "ip/quantized_ip.h"
#include "pipeline/service.h"
#include "pipeline/user.h"
#include "pipeline/vendor.h"
#include "util/error.h"
#include "util/serialize.h"
#include "util/thread_pool.h"
#include "validate/validator.h"

namespace dnnv {
namespace {

exp::ZooOptions tiny_options() {
  exp::ZooOptions options;
  options.tiny = true;
  options.cache_dir =
      (std::filesystem::temp_directory_path() / "dnnv_test_zoo").string();
  return options;
}

/// Small deliverable off a zoo model, qualified on `backend`.
pipeline::Deliverable make_bundle(const exp::TrainedModel& trained,
                                  const std::vector<Tensor>& pool,
                                  const std::string& backend, int num_tests) {
  pipeline::VendorOptions options;
  options.method = "greedy";
  options.backend = backend;
  options.num_tests = num_tests;
  options.generator.coverage = trained.coverage;
  options.model_name = trained.name;
  return pipeline::VendorPipeline(options).run(
      trained.model, trained.item_shape, trained.num_classes, pool);
}

/// Sign-bit faults across the first weight tensor — enough corruption that
/// an int8 replay must come back TAMPERED (same recipe pipeline_test uses).
std::vector<validate::CodeFault> first_tensor_sign_faults(
    const pipeline::Deliverable& bundle) {
  const auto device = pipeline::make_device(bundle, pipeline::BackendKind::kInt8);
  auto* quantized = dynamic_cast<ip::QuantizedIp*>(device.get());
  EXPECT_NE(quantized, nullptr);
  const auto& first = quantized->tensor_table().front();
  std::vector<validate::CodeFault> faults;
  for (std::int64_t i = 0; i < first.size; ++i) {
    faults.push_back({first.memory_offset + static_cast<std::size_t>(i), 7});
  }
  return faults;
}

void expect_same_verdict(const validate::Verdict& a,
                         const validate::Verdict& b) {
  EXPECT_EQ(a.passed, b.passed);
  EXPECT_EQ(a.first_failure, b.first_failure);
  EXPECT_EQ(a.num_failures, b.num_failures);
  EXPECT_EQ(a.tests_run, b.tests_run);
}

// ---------- Session verdicts vs validate_ip on the same device ----------

/// The service's verdict contract: a registered session's submit() must
/// equal validate_ip on a fresh make_device() carrying the session's flips,
/// clean and faulted (int8 only), under both stream policies.
void check_session_bit_identity(const exp::TrainedModel& trained,
                                const std::vector<Tensor>& pool,
                                const std::string& backend) {
  pipeline::ValidationService service;
  const auto handle =
      service.adopt(make_bundle(trained, pool, backend, 12), trained.name);
  const pipeline::Deliverable& bundle = handle.deliverable();

  std::vector<std::vector<validate::CodeFault>> fault_sets = {{}};
  if (backend == "int8") fault_sets.push_back(first_tensor_sign_faults(bundle));
  for (const auto& faults : fault_sets) {
    for (const bool early_exit : {false, true}) {
      const auto device = pipeline::make_device(bundle);
      for (const auto& fault : faults) {
        dynamic_cast<ip::QuantizedIp&>(*device).flip_bit(fault.address,
                                                         fault.bit);
      }
      const auto expected =
          validate::validate_ip(*device, bundle.suite, early_exit);
      EXPECT_EQ(expected.passed, faults.empty());

      pipeline::SessionConfig config;
      config.policy = early_exit ? pipeline::StreamPolicy::kEarlyExit
                                 : pipeline::StreamPolicy::kFullReplay;
      config.faults = faults;
      auto session = service.open_session(handle, config);
      expect_same_verdict(expected, session->submit().get());
    }
  }
}

TEST(ServiceVerdictTest, BitIdentityMnistFloat) {
  const auto trained = exp::mnist_tanh(tiny_options());
  check_session_bit_identity(trained, exp::digits_train(60).images, "float");
}

TEST(ServiceVerdictTest, BitIdentityMnistInt8) {
  const auto trained = exp::mnist_tanh(tiny_options());
  check_session_bit_identity(trained, exp::digits_train(60).images, "int8");
}

TEST(ServiceVerdictTest, BitIdentityCifarFloat) {
  const auto trained = exp::cifar_relu(tiny_options());
  check_session_bit_identity(trained, exp::shapes_train(60).images, "float");
}

TEST(ServiceVerdictTest, BitIdentityCifarInt8) {
  const auto trained = exp::cifar_relu(tiny_options());
  check_session_bit_identity(trained, exp::shapes_train(60).images, "int8");
}

// ---------- Concurrent sessions: deterministic across threads/runs ----------

struct StressOutcome {
  std::vector<validate::Verdict> verdicts;
};

/// 16 sessions (two deliverables, clean + faulted, full replay + early
/// exit) driven from 16 threads against one service.
StressOutcome run_stress(pipeline::ValidationService& service,
                         const pipeline::DeliverableHandle& mnist,
                         const pipeline::DeliverableHandle& cifar,
                         const std::vector<validate::CodeFault>& mnist_faults,
                         const std::vector<validate::CodeFault>& cifar_faults) {
  constexpr int kSessions = 16;
  StressOutcome outcome;
  outcome.verdicts.resize(kSessions);
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      const auto& handle = (i % 2 == 0) ? mnist : cifar;
      pipeline::SessionConfig config;
      config.chunk_size = 4;  // fixed: decouple verdicts from service knobs
      if (i % 4 == 2) {
        config.faults = (i % 2 == 0) ? mnist_faults : cifar_faults;
      }
      if (i % 4 == 3) {
        config.faults = (i % 2 == 0) ? mnist_faults : cifar_faults;
        config.policy = pipeline::StreamPolicy::kEarlyExit;
      }
      auto session = service.open_session(handle, config);
      outcome.verdicts[static_cast<std::size_t>(i)] = session->submit().get();
    });
  }
  for (auto& thread : threads) thread.join();
  return outcome;
}

TEST(ServiceStressTest, SixteenSessionsDeterministicAcrossThreadCounts) {
  const auto mnist_model = exp::mnist_tanh(tiny_options());
  const auto cifar_model = exp::cifar_relu(tiny_options());
  auto mnist_bundle =
      make_bundle(mnist_model, exp::digits_train(60).images, "int8", 12);
  auto cifar_bundle =
      make_bundle(cifar_model, exp::shapes_train(60).images, "int8", 12);
  const auto mnist_faults = first_tensor_sign_faults(mnist_bundle);
  const auto cifar_faults = first_tensor_sign_faults(cifar_bundle);

  std::vector<StressOutcome> outcomes;
  struct Knobs {
    std::size_t pool_threads;
    std::size_t micro_batch;
    std::size_t inflight;
  };
  // The widest row oversubscribes the host on purpose: a 16-thread pool with
  // 4 in-flight micro-batches across the lanes, each lane's int8 GEMM
  // splitting tiles via the nested-capable parallel_for — verdicts must stay
  // timing-independent.
  for (const Knobs& knobs :
       std::vector<Knobs>{{1, 16, 1}, {4, 5, 3}, {16, 4, 4}}) {
    ThreadPool pool(knobs.pool_threads);
    pipeline::ValidationService::Config config;
    config.micro_batch = knobs.micro_batch;
    config.max_inflight_batches = knobs.inflight;
    config.pool = &pool;
    pipeline::ValidationService service(config);
    const auto mnist = service.adopt(
        pipeline::Deliverable{mnist_bundle.model.clone(), mnist_bundle.has_quant,
                              mnist_bundle.qmodel, mnist_bundle.suite,
                              mnist_bundle.manifest},
        "mnist");
    const auto cifar = service.adopt(
        pipeline::Deliverable{cifar_bundle.model.clone(), cifar_bundle.has_quant,
                              cifar_bundle.qmodel, cifar_bundle.suite,
                              cifar_bundle.manifest},
        "cifar");
    // Two repeats per configuration: verdicts must not depend on timing.
    outcomes.push_back(
        run_stress(service, mnist, cifar, mnist_faults, cifar_faults));
    outcomes.push_back(
        run_stress(service, mnist, cifar, mnist_faults, cifar_faults));
  }

  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    for (std::size_t s = 0; s < outcomes[0].verdicts.size(); ++s) {
      expect_same_verdict(outcomes[0].verdicts[s], outcomes[i].verdicts[s]);
    }
  }
  // Clean sessions pass, faulted ones fail.
  for (std::size_t s = 0; s < outcomes[0].verdicts.size(); ++s) {
    EXPECT_EQ(outcomes[0].verdicts[s].passed, s % 4 < 2) << "session " << s;
  }
}

// ---------- Streaming: early exit agrees with the full replay ----------

TEST(ServiceStreamTest, EarlyExitAgreesWithFullReplay) {
  const auto trained = exp::cifar_relu(tiny_options());
  auto bundle = make_bundle(trained, exp::shapes_train(60).images, "int8", 12);
  const auto faults = first_tensor_sign_faults(bundle);

  pipeline::ValidationService service;
  const auto handle = service.adopt(std::move(bundle), "cifar");

  pipeline::SessionConfig full_config;
  full_config.faults = faults;
  full_config.chunk_size = 3;
  auto full_session = service.open_session(handle, full_config);
  const auto full = full_session->submit().get();
  ASSERT_FALSE(full.passed);

  pipeline::SessionConfig early_config = full_config;
  early_config.policy = pipeline::StreamPolicy::kEarlyExit;
  auto early_session = service.open_session(handle, early_config);
  auto stream = early_session->stream();

  // Chunks arrive in ascending order with fixed boundaries and stop at the
  // first TAMPERED evidence.
  pipeline::VerdictStream::Chunk chunk;
  std::size_t expected_begin = 0;
  int chunks_seen = 0;
  bool saw_last = false;
  while (stream.next(chunk)) {
    EXPECT_EQ(chunk.begin, expected_begin);
    EXPECT_LE(chunk.end - chunk.begin, 3u);
    expected_begin = chunk.end;
    ++chunks_seen;
    if (chunk.last) {
      saw_last = true;
      EXPECT_GT(chunk.mismatches, 0);
    } else {
      EXPECT_EQ(chunk.mismatches, 0);
    }
  }
  EXPECT_TRUE(saw_last);
  EXPECT_GE(chunks_seen, 1);

  const auto early = stream.verdict();
  EXPECT_FALSE(early.passed);
  EXPECT_EQ(early.first_failure, full.first_failure);
  EXPECT_EQ(early.num_failures, 1);
  EXPECT_EQ(early.tests_run, early.first_failure + 1);
}

TEST(ServiceStreamTest, FullReplayStreamChunksSumToVerdict) {
  const auto trained = exp::mnist_tanh(tiny_options());
  auto bundle = make_bundle(trained, exp::digits_train(60).images, "int8", 10);
  const auto faults = first_tensor_sign_faults(bundle);

  pipeline::ValidationService service;
  const auto handle = service.adopt(std::move(bundle), "mnist");
  pipeline::SessionConfig config;
  config.faults = faults;
  config.chunk_size = 4;
  auto session = service.open_session(handle, config);
  auto stream = session->stream();

  pipeline::VerdictStream::Chunk chunk;
  int total_mismatches = 0;
  std::size_t covered = 0;
  int first_failure = -1;
  while (stream.next(chunk)) {
    total_mismatches += chunk.mismatches;
    covered += chunk.end - chunk.begin;
    if (first_failure < 0) first_failure = chunk.first_failure;
  }
  const auto verdict = stream.verdict();
  EXPECT_EQ(covered, session->suite_size());
  EXPECT_EQ(total_mismatches, verdict.num_failures);
  EXPECT_EQ(first_failure, verdict.first_failure);
  EXPECT_EQ(verdict.tests_run, static_cast<int>(session->suite_size()));
}

// ---------- Budget + range submits ----------

TEST(ServiceSessionTest, BudgetReplaysThePrefixOnly) {
  const auto trained = exp::cifar_relu(tiny_options());
  pipeline::UserValidator probe(
      make_bundle(trained, exp::shapes_train(60).images, "int8", 12));
  const auto& suite = probe.deliverable().suite;

  pipeline::ValidationService service;
  auto bundle = make_bundle(trained, exp::shapes_train(60).images, "int8", 12);
  const auto handle = service.adopt(std::move(bundle), "cifar");
  pipeline::SessionConfig config;
  config.budget = 5;
  auto session = service.open_session(handle, config);
  const auto verdict = session->submit().get();
  EXPECT_EQ(verdict.tests_run, 5);

  const auto device = probe.make_device();
  const auto expected =
      validate::validate_ip(*device, suite.prefix(5), false);
  expect_same_verdict(expected, verdict);
}

TEST(ServiceSessionTest, RangeSubmitValidatesBounds) {
  const auto trained = exp::cifar_relu(tiny_options());
  pipeline::ValidationService service;
  auto bundle = make_bundle(trained, exp::shapes_train(60).images, "int8", 8);
  const auto handle = service.adopt(std::move(bundle), "cifar");
  auto session = service.open_session(handle);
  EXPECT_THROW(session->submit(3, 3), Error);
  EXPECT_THROW(session->submit(0, 9), Error);
  const auto verdict = session->submit(2, 6).get();
  EXPECT_EQ(verdict.tests_run, 4);
  EXPECT_TRUE(verdict.passed);

  // A budget near SIZE_MAX (a u64 off the wire) clamps nothing: begin +
  // budget must not wrap below begin.
  pipeline::SessionConfig huge;
  huge.budget = SIZE_MAX;
  auto unbounded = service.open_session(handle, huge);
  const auto whole = unbounded->submit(2, 6).get();
  EXPECT_EQ(whole.tests_run, 4);
  EXPECT_TRUE(whole.passed);
}

TEST(ServiceSessionTest, OpenRejectsAFaultOutsideTheDevice) {
  const auto trained = exp::mnist_tanh(tiny_options());
  pipeline::ValidationService service;
  const auto handle = service.adopt(
      make_bundle(trained, exp::digits_train(60).images, "int8", 6), "mnist");
  const auto device =
      pipeline::make_device(handle.deliverable(), pipeline::BackendKind::kInt8);
  const std::size_t memory =
      dynamic_cast<ip::QuantizedIp&>(*device).memory_size();

  // A faulted lane builds and flips its device at open, so the open throws.
  for (const validate::CodeFault fault :
       {validate::CodeFault{memory, 0}, validate::CodeFault{memory + 100, 7},
        validate::CodeFault{0, 8}}) {
    pipeline::SessionConfig config;
    config.faults = {fault};
    EXPECT_THROW(service.open_session(handle, config), Error)
        << "address " << fault.address << " bit " << fault.bit;
  }
  // The last code byte is in range, and the refused opens left the service
  // serving.
  pipeline::SessionConfig config;
  config.faults = {{memory - 1, 7}};
  EXPECT_NO_THROW(service.open_session(handle, config));
  EXPECT_TRUE(service.open_session(handle)->submit().get().passed);
}

// ---------- Cross-session sharing + registry LRU ----------

TEST(ServiceRegistryTest, CrossSessionBatchingPredictsEachTestOnce) {
  const auto trained = exp::cifar_relu(tiny_options());
  pipeline::ValidationService service;
  auto bundle = make_bundle(trained, exp::shapes_train(60).images, "int8", 12);
  const auto handle = service.adopt(std::move(bundle), "cifar");
  const std::size_t suite_size = handle.deliverable().suite.size();

  // Sequential sessions: the first fills the lane's label cache, the other
  // seven replay entirely from it (TP-ATPG-style shared pattern reuse).
  for (int s = 0; s < 8; ++s) {
    auto session = service.open_session(handle);
    EXPECT_TRUE(session->submit().get().passed);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.predicted, suite_size);
  EXPECT_EQ(stats.cache_served, 7 * suite_size);
}

TEST(ServiceRegistryTest, ConcurrentSessionsPredictEachTestOnce) {
  const auto trained = exp::cifar_relu(tiny_options());
  const auto bundle =
      make_bundle(trained, exp::shapes_train(60).images, "int8", 12);
  const std::size_t suite_size = bundle.suite.size();
  ASSERT_EQ(suite_size, 12u);

  // Eight clean sessions race on one shared lane while the scheduler may
  // keep four micro-batches in flight: the lane still runs one batch at a
  // time, so each test is inferred once, and every other subscription joins
  // that batch or reads the label cache.
  ThreadPool pool(4);
  for (int round = 0; round < 12; ++round) {
    pipeline::ValidationService::Config config;
    config.micro_batch = 2;
    config.max_inflight_batches = 4;
    config.pool = &pool;
    pipeline::ValidationService service(config);
    const auto handle = service.adopt(
        pipeline::Deliverable{bundle.model.clone(), bundle.has_quant,
                              bundle.qmodel, bundle.suite, bundle.manifest},
        "cifar");
    constexpr int kSessions = 8;
    std::vector<validate::Verdict> verdicts(kSessions);
    std::vector<std::thread> threads;
    threads.reserve(kSessions);
    for (int i = 0; i < kSessions; ++i) {
      threads.emplace_back([&, i] {
        auto session = service.open_session(handle);
        verdicts[static_cast<std::size_t>(i)] = session->submit().get();
      });
    }
    for (auto& thread : threads) thread.join();
    for (const auto& verdict : verdicts) {
      EXPECT_TRUE(verdict.passed) << "round " << round;
    }
    const auto stats = service.stats();
    EXPECT_EQ(stats.predicted, suite_size) << "round " << round;
  }
}

TEST(ServiceRegistryTest, LruEvictionAndReloadRoundTrip) {
  const auto trained = exp::cifar_relu(tiny_options());
  const auto temp = std::filesystem::temp_directory_path();
  const std::string path_a = (temp / "dnnv_service_a.bin").string();
  const std::string path_b = (temp / "dnnv_service_b.bin").string();
  constexpr std::uint64_t kKey = 0xFEEDFACE;
  make_bundle(trained, exp::shapes_train(60).images, "int8", 8)
      .save_file(path_a, kKey);
  make_bundle(trained, exp::shapes_train(60).images, "float", 6)
      .save_file(path_b, kKey);

  pipeline::ValidationService::Config config;
  config.max_cached_deliverables = 1;
  pipeline::ValidationService service(config);

  {
    const auto first = service.load_file(path_a, kKey);
    EXPECT_EQ(first.id(), path_a);
    EXPECT_EQ(first.deliverable().suite.size(), 8u);
    // Second load of the same path is a cache hit on the same entry.
    const auto again = service.load_file(path_a, kKey);
    EXPECT_EQ(again.id(), path_a);
    EXPECT_EQ(service.stats().hits, 1u);
    EXPECT_EQ(service.resident_deliverables(), 1u);
    // A session comes and goes: its persistent lane (label cache) must NOT
    // pin the entry against later eviction.
    auto session = service.open_session(first);
    EXPECT_TRUE(session->submit().get().passed);
  }
  // Handles and sessions dropped: loading B must evict the LRU entry A.
  const auto other = service.load_file(path_b, kKey);
  EXPECT_EQ(service.stats().evictions, 1u);
  EXPECT_EQ(service.resident_deliverables(), 1u);

  // Reload after eviction: a fresh parse that still validates SECURE.
  // `other` still pins B, so going over capacity evicts nothing: both stay
  // resident.
  const auto reloaded = service.load_file(path_a, kKey);
  EXPECT_EQ(service.stats().hits, 1u);  // unchanged: this was a miss
  EXPECT_EQ(service.stats().evictions, 1u);
  EXPECT_EQ(service.resident_deliverables(), 2u);
  auto session = service.open_session(reloaded);
  EXPECT_TRUE(session->submit().get().passed);

  std::filesystem::remove(path_a);
  std::filesystem::remove(path_b);
}

// ---------- Protected-file corruption diagnostics ----------

TEST(ServiceDeliverableTest, CorruptionDiagnosticsAreDistinct) {
  const auto trained = exp::cifar_relu(tiny_options());
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnnv_service_corrupt.bin")
          .string();
  constexpr std::uint64_t kKey = 0xC0FFEE;
  make_bundle(trained, exp::shapes_train(60).images, "float", 6)
      .save_file(path, kKey);
  const auto pristine = read_file(path);

  const auto expect_error_containing = [&](const std::string& needle) {
    try {
      pipeline::Deliverable::load_file(path, kKey);
      FAIL() << "expected corruption rejection mentioning '" << needle << "'";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << "diagnostic was: " << error.what();
    }
  };

  auto bytes = pristine;
  bytes[0] ^= 0xFF;  // magic
  write_file(path, bytes);
  expect_error_containing("bad magic");

  bytes = pristine;
  bytes[4] ^= 0xFF;  // version
  write_file(path, bytes);
  expect_error_containing("version");

  write_file(path, std::vector<std::uint8_t>(pristine.begin(),
                                             pristine.begin() + 10));
  expect_error_containing("short read");  // header cut off

  bytes = pristine;
  bytes.pop_back();  // payload shorter than its declared size
  write_file(path, bytes);
  expect_error_containing("short read");

  bytes = pristine;
  bytes[bytes.size() / 2] ^= 0x10;  // payload corruption
  write_file(path, bytes);
  expect_error_containing("bad CRC");

  // The pristine file still loads and validates SECURE.
  write_file(path, pristine);
  EXPECT_TRUE(
      pipeline::UserValidator::load_file(path, kKey).validate().passed);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace dnnv
