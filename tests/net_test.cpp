// Network validation server tests: loopback TCP verdicts must be
// bit-identical to the in-process ValidationService on both zoo models,
// both backends and both stream policies (clean and faulted sessions,
// verdicts AND chunk sequences); admission control must reject over-quota
// sockets with a typed kBusy and promote parked ones when a slot frees;
// idle eviction must drain delivered verdicts and say kBye(kIdleTimeout);
// every protected-file corruption mode must cross the wire as its own
// typed error code, and a request whose payload does not decode, or an open
// whose fault misses the device memory, must get a typed kBadRequest
// without losing the connection; per-connection backpressure must cap
// in-flight submits; and the service drain() hook the server relies on
// must behave standalone.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "exp/model_zoo.h"
#include "ip/quantized_ip.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "pipeline/service.h"
#include "pipeline/vendor.h"
#include "util/error.h"
#include "util/protected_file.h"
#include "util/serialize.h"

namespace dnnv {
namespace {

using net::ValidationClient;
using net::WireError;

constexpr std::uint64_t kKey = 0x5EC7E7;

exp::ZooOptions tiny_options() {
  exp::ZooOptions options;
  options.tiny = true;
  options.cache_dir =
      (std::filesystem::temp_directory_path() / "dnnv_test_zoo").string();
  return options;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Small deliverable off a zoo model, qualified on `backend`, saved to a
/// temp file the server (same host) can load by path.
std::string save_bundle(const exp::TrainedModel& trained,
                        const std::vector<Tensor>& pool,
                        const std::string& backend, int num_tests,
                        const std::string& name) {
  pipeline::VendorOptions options;
  options.method = "greedy";
  options.backend = backend;
  options.num_tests = num_tests;
  options.generator.coverage = trained.coverage;
  options.model_name = trained.name;
  const auto bundle = pipeline::VendorPipeline(options).run(
      trained.model, trained.item_shape, trained.num_classes, pool);
  const std::string path = temp_path(name);
  bundle.save_file(path, kKey);
  return path;
}

/// Sign-bit faults across the first weight tensor of the int8 device —
/// enough corruption that a replay must come back TAMPERED (the recipe
/// service_test uses).
std::vector<validate::CodeFault> first_tensor_sign_faults(
    const pipeline::Deliverable& bundle) {
  const auto device =
      pipeline::make_device(bundle, pipeline::BackendKind::kInt8);
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

/// Drives one streaming submit over the wire and returns (chunks, verdict).
std::pair<std::vector<pipeline::VerdictStream::Chunk>, validate::Verdict>
wire_stream(ValidationClient& client, std::uint32_t session_id) {
  const auto submit_id = client.submit(session_id, /*stream=*/true);
  std::vector<pipeline::VerdictStream::Chunk> chunks;
  validate::Verdict verdict;
  ValidationClient::Event event;
  while (client.next_event(event)) {
    if (event.kind == ValidationClient::Event::Kind::kChunk &&
        event.submit_id == submit_id) {
      chunks.push_back(event.chunk);
      continue;
    }
    if (event.kind == ValidationClient::Event::Kind::kVerdict &&
        event.submit_id == submit_id) {
      verdict = event.verdict;
      return {chunks, verdict};
    }
    ADD_FAILURE() << "unexpected event kind "
                  << static_cast<int>(event.kind);
    break;
  }
  ADD_FAILURE() << "stream ended before the verdict";
  return {chunks, verdict};
}

// ---------- Loopback bit-identity vs the in-process service ----------

/// The acceptance criterion: for every (policy, clean/faulted) combination
/// a loopback TCP session must produce the same verdict — and the same
/// chunk sequence — as an in-process ValidationService session with the
/// identical SessionConfig.
void check_wire_bit_identity(const exp::TrainedModel& trained,
                             const std::vector<Tensor>& pool,
                             const std::string& backend) {
  const auto path = save_bundle(trained, pool, backend, 12,
                                "dnnv_net_" + trained.name + "_" + backend +
                                    ".bin");

  net::ValidationServer server;
  pipeline::ValidationService local;
  const auto handle = local.load_file(path, kKey);

  auto client = ValidationClient::connect("127.0.0.1", server.port());
  const auto loaded = client.load(path, kKey);
  EXPECT_EQ(loaded.suite_size, 12u);
  EXPECT_EQ(loaded.has_quant != 0, backend == "int8");

  const pipeline::BackendKind resolved = backend == "int8"
                                             ? pipeline::BackendKind::kInt8
                                             : pipeline::BackendKind::kFloat;
  std::vector<pipeline::SessionConfig> configs;
  for (const auto policy :
       {pipeline::StreamPolicy::kFullReplay, pipeline::StreamPolicy::kEarlyExit}) {
    pipeline::SessionConfig config;
    config.backend = resolved;
    config.policy = policy;
    config.chunk_size = 4;  // several chunks out of 12 tests
    configs.push_back(config);
    if (backend == "int8") {
      // Faulted session: the tampered replay must agree end to end too.
      config.faults = first_tensor_sign_faults(handle.deliverable());
      configs.push_back(config);
    }
  }
  // kAuto resolves to the bundle's int8 artifact when it ships one.
  pipeline::SessionConfig automatic;
  automatic.chunk_size = 4;
  configs.push_back(automatic);

  for (const auto& config : configs) {
    auto session = local.open_session(handle, config);
    const auto opened = client.open(loaded.deliverable_id, config);
    EXPECT_EQ(opened.suite_size, 12u);
    EXPECT_EQ(static_cast<pipeline::BackendKind>(opened.backend), resolved);
    EXPECT_EQ(session->config().backend, resolved);

    // Whole-range blocking verdict.
    const auto expected = session->submit().get();
    expect_same_verdict(expected, client.validate(opened.session_id));
    if (!config.faults.empty()) EXPECT_FALSE(expected.passed);

    // Streaming: chunk-by-chunk identity, then the aggregate verdict.
    auto local_stream = session->stream();
    const auto [wire_chunks, wire_verdict] =
        wire_stream(client, opened.session_id);
    pipeline::VerdictStream::Chunk chunk;
    std::size_t i = 0;
    while (local_stream.next(chunk)) {
      ASSERT_LT(i, wire_chunks.size());
      EXPECT_EQ(chunk.begin, wire_chunks[i].begin);
      EXPECT_EQ(chunk.end, wire_chunks[i].end);
      EXPECT_EQ(chunk.mismatches, wire_chunks[i].mismatches);
      EXPECT_EQ(chunk.first_failure, wire_chunks[i].first_failure);
      EXPECT_EQ(chunk.last, wire_chunks[i].last);
      ++i;
    }
    EXPECT_EQ(i, wire_chunks.size());
    expect_same_verdict(local_stream.verdict(), wire_verdict);

    // Partial range through both paths.
    expect_same_verdict(session->submit(2, 9).get(),
                        client.validate(opened.session_id, 2, 9));

    client.close_session(opened.session_id);
  }
  EXPECT_EQ(client.goodbye(), net::ByeReason::kGoodbye);
  std::filesystem::remove(path);
}

TEST(NetLoopbackTest, BitIdentityMnistFloat) {
  const auto trained = exp::mnist_tanh(tiny_options());
  check_wire_bit_identity(trained, exp::digits_train(60).images, "float");
}

TEST(NetLoopbackTest, BitIdentityMnistInt8) {
  const auto trained = exp::mnist_tanh(tiny_options());
  check_wire_bit_identity(trained, exp::digits_train(60).images, "int8");
}

TEST(NetLoopbackTest, BitIdentityCifarFloat) {
  const auto trained = exp::cifar_relu(tiny_options());
  check_wire_bit_identity(trained, exp::shapes_train(60).images, "float");
}

TEST(NetLoopbackTest, BitIdentityCifarInt8) {
  const auto trained = exp::cifar_relu(tiny_options());
  check_wire_bit_identity(trained, exp::shapes_train(60).images, "int8");
}

// ---------- Admission control ----------

/// Polls `predicate` for up to five seconds (housekeeping ticks at 20ms).
template <typename Predicate>
bool eventually(Predicate predicate) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

TEST(NetAdmissionTest, BusyRejectionIsTypedAndQueuedSocketsPromote) {
  const auto trained = exp::mnist_tanh(tiny_options());
  const auto path = save_bundle(trained, exp::digits_train(60).images, "float",
                                8, "dnnv_net_admission.bin");

  net::ServerConfig config;
  config.max_connections = 1;
  config.admission_queue = 1;
  net::ValidationServer server(config);

  // First socket takes the only slot...
  auto first = ValidationClient::connect("127.0.0.1", server.port());
  const auto loaded = first.load(path, kKey);
  // ...the second parks in the admission queue...
  auto parked = ValidationClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(eventually([&] { return server.stats().accepted == 2; }));
  // ...and the third is over quota: a typed kBusy, then close. No frame
  // needs to be written first — the rejection arrives unprompted.
  auto rejected = ValidationClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(eventually([&] { return server.stats().rejected_busy == 1; }));
  ValidationClient::Event event;
  ASSERT_TRUE(rejected.next_event(event));
  EXPECT_EQ(event.kind, ValidationClient::Event::Kind::kError);
  EXPECT_EQ(event.error, WireError::kBusy);
  EXPECT_FALSE(rejected.next_event(event));  // server closed the socket

  // Closing the first connection frees its slot; the parked socket is
  // promoted by housekeeping and serves requests it queued while waiting.
  EXPECT_EQ(loaded.suite_size, 8u);
  EXPECT_EQ(first.goodbye(), net::ByeReason::kGoodbye);
  const auto promoted = parked.load(path, kKey);
  EXPECT_EQ(promoted.suite_size, 8u);
  EXPECT_EQ(parked.goodbye(), net::ByeReason::kGoodbye);
  std::filesystem::remove(path);
}

// ---------- Idle eviction ----------

TEST(NetIdleTest, IdleConnectionIsEvictedAfterVerdictsDrain) {
  const auto trained = exp::mnist_tanh(tiny_options());
  const auto path = save_bundle(trained, exp::digits_train(60).images, "float",
                                8, "dnnv_net_idle.bin");

  net::ServerConfig config;
  config.idle_timeout_seconds = 0.2;
  net::ValidationServer server(config);

  auto client = ValidationClient::connect("127.0.0.1", server.port());
  const auto loaded = client.load(path, kKey);
  const auto opened = client.open(loaded.deliverable_id);
  // The submitted verdict must arrive (eviction drains, never drops)...
  const auto verdict = client.validate(opened.session_id);
  EXPECT_TRUE(verdict.passed);

  // ...then the idle timer fires and the server says a typed goodbye.
  ValidationClient::Event event;
  ASSERT_TRUE(client.next_event(event));
  EXPECT_EQ(event.kind, ValidationClient::Event::Kind::kBye);
  EXPECT_EQ(event.bye_reason, net::ByeReason::kIdleTimeout);
  EXPECT_FALSE(client.next_event(event));
  EXPECT_EQ(server.stats().evicted_idle, 1u);
  std::filesystem::remove(path);
}

// ---------- Bounded decoding ----------

TEST(ProtocolDecodeTest, OpenRequestRejectsAFaultCountTheFrameCannotHold) {
  net::OpenRequest request;
  request.config.faults = {{12, 3}, {40, 7}};
  ByteWriter writer;
  request.encode(writer);
  std::vector<std::uint8_t> bytes = writer.take();
  {
    ByteReader reader(bytes);
    const net::OpenRequest decoded = net::OpenRequest::decode(reader);
    ASSERT_EQ(decoded.config.faults.size(), 2u);
    EXPECT_EQ(decoded.config.faults[1].address, 40u);
    EXPECT_EQ(decoded.config.faults[1].bit, 7);
  }
  // The 34-byte header of a fault-free request with its u32 fault count
  // forged to 2^32 - 1: a typed error, never a ~64 GiB reserve().
  bytes.resize(34);
  const std::uint32_t forged = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + 30, &forged, sizeof forged);
  ByteReader reader(bytes);
  EXPECT_THROW(net::OpenRequest::decode(reader), Error);
}

// ---------- Typed corruption diagnostics over the wire ----------

TEST(NetErrorTest, CorruptionModesCrossTheWireAsTypedCodes) {
  const auto trained = exp::mnist_tanh(tiny_options());
  const auto path = save_bundle(trained, exp::digits_train(60).images, "float",
                                6, "dnnv_net_corrupt.bin");
  const auto pristine = read_file(path);

  net::ValidationServer server;
  auto client = ValidationClient::connect("127.0.0.1", server.port());

  const auto expect_load_error = [&](WireError code) {
    try {
      client.load(path, kKey);
      FAIL() << "expected typed load rejection " << net::to_string(code);
    } catch (const net::NetError& error) {
      EXPECT_EQ(error.code(), code) << "message: " << error.what();
    }
  };

  auto bytes = pristine;
  bytes[0] ^= 0xFF;  // magic
  write_file(path, bytes);
  expect_load_error(WireError::kBadMagic);

  bytes = pristine;
  bytes[4] ^= 0xFF;  // version
  write_file(path, bytes);
  expect_load_error(WireError::kBadVersion);

  write_file(path, std::vector<std::uint8_t>(pristine.begin(),
                                             pristine.begin() + 10));
  expect_load_error(WireError::kShortRead);  // header cut off

  bytes = pristine;
  bytes[bytes.size() / 2] ^= 0x10;  // payload corruption
  write_file(path, bytes);
  expect_load_error(WireError::kBadCrc);

  // A missing path and a wrong key are their own codes (the wrong key
  // decodes to garbage the payload parser rejects — kLoadFailed, since the
  // container itself verified clean).
  write_file(path, pristine);
  try {
    client.load(temp_path("dnnv_net_no_such_file.bin"), kKey);
    FAIL() << "expected kNotFound";
  } catch (const net::NetError& error) {
    EXPECT_EQ(error.code(), WireError::kNotFound);
  }
  try {
    client.load(path, kKey + 1);
    FAIL() << "expected kLoadFailed";
  } catch (const net::NetError& error) {
    EXPECT_EQ(error.code(), WireError::kLoadFailed);
  }

  // Typed rejections never poison the connection: the pristine file still
  // loads and validates SECURE on the same socket.
  const auto loaded = client.load(path, kKey);
  const auto opened = client.open(loaded.deliverable_id);
  EXPECT_TRUE(client.validate(opened.session_id).passed);
  EXPECT_EQ(client.goodbye(), net::ByeReason::kGoodbye);
  std::filesystem::remove(path);
}

/// Payload bytes sent as they are, to write frames no client would.
struct RawPayload {
  std::vector<std::uint8_t> bytes;
  void encode(ByteWriter& w) const { w.write_bytes(bytes.data(), bytes.size()); }
};

/// The first `keep` bytes of `message`'s encoding.
template <class Message>
RawPayload truncated(const Message& message, std::size_t keep) {
  ByteWriter writer;
  message.encode(writer);
  std::vector<std::uint8_t> bytes = writer.take();
  EXPECT_LT(keep, bytes.size());
  bytes.resize(keep);
  return RawPayload{bytes};
}

/// Reads one frame of `type` and decodes it as `Message`.
template <class Message>
Message read_reply(net::Socket& socket, net::MsgType type) {
  net::Frame frame;
  EXPECT_TRUE(net::read_frame(socket, frame));
  EXPECT_EQ(frame.type, type);
  ByteReader reader = frame.reader();
  return Message::decode(reader);
}

TEST(NetErrorTest, MalformedPayloadsAreAnsweredAndTheConnectionServesOn) {
  const auto trained = exp::mnist_tanh(tiny_options());
  const auto path = save_bundle(trained, exp::digits_train(60).images, "int8",
                                6, "dnnv_net_malformed.bin");
  net::ValidationServer server;
  net::Socket socket = net::Socket::connect("127.0.0.1", server.port());

  net::LoadRequest load;
  load.path = path;
  load.key = kKey;
  net::OpenRequest open;
  net::SubmitRequest submit;
  submit.submit_id = 77;
  net::CloseSessionRequest close;

  // Each payload ends before its request does. Frames are length-prefixed,
  // so the server answers each with kBadRequest and reads on. A submit cut
  // short of its id (the payload's second u32) is answered under id 0; one
  // cut after it, under its own id.
  net::write_message(socket, net::MsgType::kLoad, truncated(load, 5));
  net::write_message(socket, net::MsgType::kOpen, truncated(open, 6));
  net::write_message(socket, net::MsgType::kSubmit, truncated(submit, 6));
  net::write_message(socket, net::MsgType::kCloseSession, truncated(close, 2));
  net::write_message(socket, net::MsgType::kSubmit, truncated(submit, 12));
  for (const std::uint32_t ref : {0u, 0u, 0u, 0u, 77u}) {
    const auto error = read_reply<net::ErrorMsg>(socket, net::MsgType::kError);
    EXPECT_EQ(error.code, WireError::kBadRequest) << error.message;
    EXPECT_EQ(error.ref, ref) << error.message;
  }

  // The same connection still loads. An open whose fault lies past the
  // device memory, or names bit 8, decodes but fails at open_session: it too
  // is answered with kBadRequest.
  net::write_message(socket, net::MsgType::kLoad, load);
  const auto loaded =
      read_reply<net::LoadResponse>(socket, net::MsgType::kLoadOk);
  EXPECT_EQ(loaded.suite_size, 6u);
  open.deliverable_id = loaded.deliverable_id;
  for (const validate::CodeFault fault :
       {validate::CodeFault{std::size_t{1} << 40, 7},
        validate::CodeFault{0, 8}}) {
    net::OpenRequest faulted = open;
    faulted.config.faults = {fault};
    net::write_message(socket, net::MsgType::kOpen, faulted);
    const auto error = read_reply<net::ErrorMsg>(socket, net::MsgType::kError);
    EXPECT_EQ(error.code, WireError::kBadRequest) << error.message;
  }

  // And it still opens and validates SECURE.
  net::write_message(socket, net::MsgType::kOpen, open);
  const auto opened =
      read_reply<net::OpenResponse>(socket, net::MsgType::kOpenOk);
  submit.session_id = opened.session_id;
  net::write_message(socket, net::MsgType::kSubmit, submit);
  const auto verdict =
      read_reply<net::VerdictMsg>(socket, net::MsgType::kVerdict);
  EXPECT_EQ(verdict.submit_id, 77u);
  EXPECT_TRUE(verdict.verdict.passed);
  EXPECT_EQ(verdict.verdict.tests_run, 6);

  net::write_empty_message(socket, net::MsgType::kGoodbye);
  const auto bye = read_reply<net::ByeMsg>(socket, net::MsgType::kBye);
  EXPECT_EQ(bye.reason, net::ByeReason::kGoodbye);
  std::filesystem::remove(path);
}

TEST(ProtectedFileTest, FaultFieldDispatchesWithoutMessageParsing) {
  const auto path = temp_path("dnnv_net_typed_fault.bin");
  write_protected_file(path, {1, 2, 3, 4}, kKey, 0xD11Fu, 1, "typed-fault");
  auto bytes = read_file(path);
  bytes[0] ^= 0xFF;
  write_file(path, bytes);
  try {
    read_protected_file(path, kKey, 0xD11Fu, 1, "typed-fault");
    FAIL() << "expected ProtectedFileError";
  } catch (const ProtectedFileError& error) {
    EXPECT_EQ(error.fault(), ProtectedFileFault::kBadMagic);
    EXPECT_STREQ(to_string(error.fault()), "bad-magic");
  }
  std::filesystem::remove(path);
}

// ---------- Per-connection backpressure ----------

TEST(NetBackpressureTest, InflightSubmitsStayUnderTheCap) {
  const auto trained = exp::mnist_tanh(tiny_options());
  const auto path = save_bundle(trained, exp::digits_train(60).images, "float",
                                8, "dnnv_net_backpressure.bin");

  net::ServerConfig config;
  config.max_inflight_submits = 2;
  net::ValidationServer server(config);

  auto client = ValidationClient::connect("127.0.0.1", server.port());
  const auto loaded = client.load(path, kKey);
  const auto opened = client.open(loaded.deliverable_id);

  // Pipeline far more submits than the cap; the reader must park instead
  // of accepting them all, and every one must still be answered in order.
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(client.submit(opened.session_id));
  for (const auto id : ids) {
    EXPECT_TRUE(client.await_verdict(id).passed);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.submits, 8u);
  EXPECT_LE(stats.peak_inflight_submits, 2u);
  EXPECT_EQ(client.goodbye(), net::ByeReason::kGoodbye);
  std::filesystem::remove(path);
}

// ---------- Service hook the server depends on ----------

TEST(ServiceHooksTest, DrainLeavesEveryVerdictReady) {
  const auto trained = exp::mnist_tanh(tiny_options());
  const auto path = save_bundle(trained, exp::digits_train(60).images,
                                "float", 6, "dnnv_net_hooks.bin");

  pipeline::ValidationService service;
  const auto handle = service.load_file(path, kKey);
  auto session = service.open_session(handle);
  auto future = session->submit();
  // drain() returns only once the scheduler has gone quiet, so the
  // submitted verdict must be immediately ready afterwards.
  service.drain();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_TRUE(future.get().passed);

  std::filesystem::remove(path);
}

}  // namespace
}  // namespace dnnv
