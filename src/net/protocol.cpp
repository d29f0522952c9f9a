#include "net/protocol.h"

namespace dnnv::net {

const char* to_string(WireError code) {
  switch (code) {
    case WireError::kNone:
      return "none";
    case WireError::kBusy:
      return "busy";
    case WireError::kNotFound:
      return "not-found";
    case WireError::kBadMagic:
      return "bad-magic";
    case WireError::kBadVersion:
      return "bad-version";
    case WireError::kShortRead:
      return "short-read";
    case WireError::kBadCrc:
      return "bad-crc";
    case WireError::kLoadFailed:
      return "load-failed";
    case WireError::kBadRequest:
      return "bad-request";
    case WireError::kInternal:
      return "internal";
  }
  return "unknown";
}

WireError wire_error_from(ProtectedFileFault fault) {
  switch (fault) {
    case ProtectedFileFault::kBadMagic:
      return WireError::kBadMagic;
    case ProtectedFileFault::kBadVersion:
      return WireError::kBadVersion;
    case ProtectedFileFault::kShortRead:
      return WireError::kShortRead;
    case ProtectedFileFault::kBadCrc:
      return WireError::kBadCrc;
  }
  return WireError::kLoadFailed;
}

const char* to_string(ByeReason reason) {
  switch (reason) {
    case ByeReason::kGoodbye:
      return "goodbye";
    case ByeReason::kIdleTimeout:
      return "idle-timeout";
    case ByeReason::kShutdown:
      return "server-shutdown";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Message encodings
// ---------------------------------------------------------------------------

void LoadRequest::encode(ByteWriter& w) const {
  w.write_string(path);
  w.write_u64(key);
}

LoadRequest LoadRequest::decode(ByteReader& r) {
  LoadRequest m;
  m.path = r.read_string();
  m.key = r.read_u64();
  return m;
}

void LoadResponse::encode(ByteWriter& w) const {
  w.write_u32(deliverable_id);
  w.write_u64(suite_size);
  w.write_u8(has_quant);
  w.write_string(summary);
}

LoadResponse LoadResponse::decode(ByteReader& r) {
  LoadResponse m;
  m.deliverable_id = r.read_u32();
  m.suite_size = r.read_u64();
  m.has_quant = r.read_u8();
  m.summary = r.read_string();
  return m;
}

void OpenRequest::encode(ByteWriter& w) const {
  w.write_u32(deliverable_id);
  w.write_u8(static_cast<std::uint8_t>(config.backend));
  w.write_u8(static_cast<std::uint8_t>(config.policy));
  w.write_u64(config.budget);
  w.write_u64(config.chunk_size);
  w.write_u64(config.micro_batch);
  w.write_u32(static_cast<std::uint32_t>(config.faults.size()));
  for (const auto& fault : config.faults) {
    w.write_u64(fault.address);
    w.write_u8(static_cast<std::uint8_t>(fault.bit));
  }
}

OpenRequest OpenRequest::decode(ByteReader& r) {
  OpenRequest m;
  m.deliverable_id = r.read_u32();
  const std::uint8_t backend = r.read_u8();
  DNNV_CHECK(backend <= static_cast<std::uint8_t>(pipeline::BackendKind::kInt8),
             "unknown backend code " << static_cast<int>(backend));
  m.config.backend = static_cast<pipeline::BackendKind>(backend);
  const std::uint8_t policy = r.read_u8();
  DNNV_CHECK(
      policy <= static_cast<std::uint8_t>(pipeline::StreamPolicy::kEarlyExit),
      "unknown stream policy code " << static_cast<int>(policy));
  m.config.policy = static_cast<pipeline::StreamPolicy>(policy);
  m.config.budget = static_cast<std::size_t>(r.read_u64());
  m.config.chunk_size = static_cast<std::size_t>(r.read_u64());
  m.config.micro_batch = static_cast<std::size_t>(r.read_u64());
  // Each fault entry is a u64 address plus a u8 bit.
  const std::size_t faults = r.read_count<std::uint32_t>(9);
  m.config.faults.reserve(faults);
  for (std::size_t i = 0; i < faults; ++i) {
    validate::CodeFault fault;
    fault.address = static_cast<std::size_t>(r.read_u64());
    fault.bit = static_cast<int>(r.read_u8());
    m.config.faults.push_back(fault);
  }
  return m;
}

void OpenResponse::encode(ByteWriter& w) const {
  w.write_u32(session_id);
  w.write_u64(suite_size);
  w.write_u8(backend);
}

OpenResponse OpenResponse::decode(ByteReader& r) {
  OpenResponse m;
  m.session_id = r.read_u32();
  m.suite_size = r.read_u64();
  m.backend = r.read_u8();
  return m;
}

void SubmitRequest::encode(ByteWriter& w) const {
  w.write_u32(session_id);
  w.write_u32(submit_id);
  w.write_u64(begin);
  w.write_u64(end);
  w.write_u8(stream);
}

SubmitRequest SubmitRequest::decode(ByteReader& r) {
  SubmitRequest m;
  m.session_id = r.read_u32();
  m.submit_id = r.read_u32();
  m.begin = r.read_u64();
  m.end = r.read_u64();
  m.stream = r.read_u8();
  return m;
}

std::uint32_t SubmitRequest::submit_id_of(ByteReader r) {
  if (r.remaining() < 8) return 0;
  r.read_u32();  // session_id
  return r.read_u32();
}

void CloseSessionRequest::encode(ByteWriter& w) const {
  w.write_u32(session_id);
}

CloseSessionRequest CloseSessionRequest::decode(ByteReader& r) {
  CloseSessionRequest m;
  m.session_id = r.read_u32();
  return m;
}

void ChunkMsg::encode(ByteWriter& w) const {
  w.write_u32(submit_id);
  w.write_u64(chunk.begin);
  w.write_u64(chunk.end);
  w.write_i64(chunk.mismatches);
  w.write_i64(chunk.first_failure);
  w.write_u8(chunk.last ? 1 : 0);
}

ChunkMsg ChunkMsg::decode(ByteReader& r) {
  ChunkMsg m;
  m.submit_id = r.read_u32();
  m.chunk.begin = static_cast<std::size_t>(r.read_u64());
  m.chunk.end = static_cast<std::size_t>(r.read_u64());
  m.chunk.mismatches = static_cast<int>(r.read_i64());
  m.chunk.first_failure = static_cast<int>(r.read_i64());
  m.chunk.last = r.read_u8() != 0;
  return m;
}

void VerdictMsg::encode(ByteWriter& w) const {
  w.write_u32(submit_id);
  w.write_u8(verdict.passed ? 1 : 0);
  w.write_i64(verdict.first_failure);
  w.write_i64(verdict.num_failures);
  w.write_i64(verdict.tests_run);
}

VerdictMsg VerdictMsg::decode(ByteReader& r) {
  VerdictMsg m;
  m.submit_id = r.read_u32();
  m.verdict.passed = r.read_u8() != 0;
  m.verdict.first_failure = static_cast<int>(r.read_i64());
  m.verdict.num_failures = static_cast<int>(r.read_i64());
  m.verdict.tests_run = static_cast<int>(r.read_i64());
  return m;
}

void ErrorMsg::encode(ByteWriter& w) const {
  w.write_u8(static_cast<std::uint8_t>(code));
  w.write_u32(ref);
  w.write_string(message);
}

ErrorMsg ErrorMsg::decode(ByteReader& r) {
  ErrorMsg m;
  const std::uint8_t code = r.read_u8();
  m.code = code <= static_cast<std::uint8_t>(WireError::kInternal)
               ? static_cast<WireError>(code)
               : WireError::kInternal;
  m.ref = r.read_u32();
  m.message = r.read_string();
  return m;
}

void ByeMsg::encode(ByteWriter& w) const {
  w.write_u8(static_cast<std::uint8_t>(reason));
}

ByeMsg ByeMsg::decode(ByteReader& r) {
  ByeMsg m;
  const std::uint8_t reason = r.read_u8();
  m.reason = reason <= static_cast<std::uint8_t>(ByeReason::kShutdown)
                 ? static_cast<ByeReason>(reason)
                 : ByeReason::kShutdown;
  return m;
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

void write_empty_message(Socket& socket, MsgType type) {
  ByteWriter frame;
  frame.write_u32(1);
  frame.write_u8(static_cast<std::uint8_t>(type));
  socket.write_all(frame.bytes().data(), frame.bytes().size());
}

bool read_frame(Socket& socket, Frame& frame) {
  std::uint8_t header[4];
  if (!socket.read_exact(header, sizeof(header))) return false;
  const std::uint32_t length = static_cast<std::uint32_t>(header[0]) |
                               (static_cast<std::uint32_t>(header[1]) << 8) |
                               (static_cast<std::uint32_t>(header[2]) << 16) |
                               (static_cast<std::uint32_t>(header[3]) << 24);
  DNNV_CHECK(length >= 1 && length <= kMaxFrameBytes,
             "bad frame length " << length
                                 << " (different protocol on this port?)");
  std::uint8_t type = 0;
  if (!socket.read_exact(&type, 1)) {
    DNNV_THROW("peer closed mid-frame");
  }
  frame.type = static_cast<MsgType>(type);
  frame.payload.resize(length - 1);
  if (length > 1 && !socket.read_exact(frame.payload.data(),
                                       frame.payload.size())) {
    DNNV_THROW("peer closed mid-frame");
  }
  return true;
}

}  // namespace dnnv::net
