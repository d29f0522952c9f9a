// Wire protocol of the network-facing validation service: the vendor→user
// session API (load deliverable / open session / submit / stream verdict
// chunks / close) over a small length-prefixed binary framing.
//
// Frame layout (all integers little-endian, via util/serialize):
//
//   u32 length | u8 type | payload[length - 1]
//
// `length` counts everything after itself (type byte + payload) and is
// capped at kMaxFrameBytes so a stray client talking a different protocol
// is rejected instead of allocating gigabytes. One frame is always written
// with a single send under the connection's write lock, so frames from the
// reader (synchronous responses) and the verdict writer never interleave.
//
// Request/response pairing: load and open are synchronous (one request, one
// kLoadOk/kOpenOk or kError). Submits are pipelined: the client assigns a
// connection-unique submit_id and the server streams back kChunk* + one
// kVerdict (or kError) tagged with that id, in submit order. kBye is the
// server's final frame before closing (client goodbye, idle eviction, or
// shutdown — the reason says which).
//
// Error taxonomy: WireError gives every rejection a typed code — including
// the four distinct util/protected_file corruption diagnostics
// (bad-magic / bad-version / short-read / bad-crc), so a remote user can
// tell a wrong file from a truncated upload from in-transit corruption
// without parsing message text. kBusy is the admission-control rejection.
#ifndef DNNV_NET_PROTOCOL_H_
#define DNNV_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/socket.h"
#include "pipeline/service.h"
#include "util/error.h"
#include "util/protected_file.h"
#include "util/serialize.h"
#include "validate/validator.h"

namespace dnnv::net {

/// Protocol revision; bumped on any incompatible frame change.
constexpr std::uint32_t kProtocolVersion = 1;

/// Hard cap on one frame (type byte + payload).
constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

enum class MsgType : std::uint8_t {
  // client → server
  kLoad = 1,          ///< LoadRequest
  kOpen = 2,          ///< OpenRequest
  kSubmit = 3,        ///< SubmitRequest
  kCloseSession = 4,  ///< CloseSessionRequest
  kGoodbye = 5,       ///< no payload; server drains, replies kBye, closes
  // server → client
  kLoadOk = 16,   ///< LoadResponse
  kOpenOk = 17,   ///< OpenResponse
  kChunk = 18,    ///< ChunkMsg (streamed submits only)
  kVerdict = 19,  ///< VerdictMsg (terminal frame of every successful submit)
  kError = 20,    ///< ErrorMsg
  kBye = 21       ///< ByeMsg; the connection closes after this frame
};

/// Typed rejection codes carried by kError frames.
enum class WireError : std::uint8_t {
  kNone = 0,
  kBusy = 1,        ///< admission queue full; retry later or elsewhere
  kNotFound = 2,    ///< unknown path / deliverable id / session id
  kBadMagic = 3,    ///< deliverable is not a dnnv container
  kBadVersion = 4,  ///< container version unsupported by the server build
  kShortRead = 5,   ///< deliverable truncated on the server's disk
  kBadCrc = 6,      ///< deliverable failed its integrity check
  kLoadFailed = 7,  ///< container verified but payload rejected (wrong key?)
  kBadRequest = 8,  ///< malformed or out-of-range request
  kInternal = 9     ///< unexpected server-side failure
};

const char* to_string(WireError code);

/// Maps a typed protected-file fault onto its wire code.
WireError wire_error_from(ProtectedFileFault fault);

/// Why the server said kBye.
enum class ByeReason : std::uint8_t {
  kGoodbye = 0,      ///< client asked
  kIdleTimeout = 1,  ///< session evicted after idling past the server limit
  kShutdown = 2      ///< server is stopping
};

const char* to_string(ByeReason reason);

/// Client-side exception for typed server rejections (and transport-level
/// failures the client maps onto codes itself).
class NetError : public Error {
 public:
  NetError(WireError code, const std::string& what)
      : Error(what), code_(code) {}

  WireError code() const { return code_; }

 private:
  WireError code_;
};

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

struct LoadRequest {
  std::string path;        ///< server-side deliverable path (the registry id)
  std::uint64_t key = 0;   ///< release key
  void encode(ByteWriter& w) const;
  static LoadRequest decode(ByteReader& r);
};

struct LoadResponse {
  std::uint32_t deliverable_id = 0;  ///< server handle for open requests
  std::uint64_t suite_size = 0;
  std::uint8_t has_quant = 0;
  std::string summary;  ///< manifest summary line
  void encode(ByteWriter& w) const;
  static LoadResponse decode(ByteReader& r);
};

struct OpenRequest {
  std::uint32_t deliverable_id = 0;
  /// The full per-session replay configuration travels on the wire —
  /// backend, stream policy, injected faults, budget, chunk/micro-batch
  /// sizing — so a remote session is configured exactly like a local one.
  pipeline::SessionConfig config;
  void encode(ByteWriter& w) const;
  static OpenRequest decode(ByteReader& r);
};

struct OpenResponse {
  std::uint32_t session_id = 0;
  std::uint64_t suite_size = 0;
  std::uint8_t backend = 0;  ///< resolved pipeline::BackendKind
  void encode(ByteWriter& w) const;
  static OpenResponse decode(ByteReader& r);
};

struct SubmitRequest {
  std::uint32_t session_id = 0;
  std::uint32_t submit_id = 0;  ///< client-chosen, unique per connection
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  ///< 0 = whole suite
  std::uint8_t stream = 0;  ///< 1 = send kChunk frames before the verdict
  void encode(ByteWriter& w) const;
  static SubmitRequest decode(ByteReader& r);
  /// The submit id of a payload that decode() rejects, when the payload
  /// reaches it (else 0), so an error reply can still pair with its submit.
  static std::uint32_t submit_id_of(ByteReader r);
};

struct CloseSessionRequest {
  std::uint32_t session_id = 0;
  void encode(ByteWriter& w) const;
  static CloseSessionRequest decode(ByteReader& r);
};

struct ChunkMsg {
  std::uint32_t submit_id = 0;
  pipeline::VerdictStream::Chunk chunk;
  void encode(ByteWriter& w) const;
  static ChunkMsg decode(ByteReader& r);
};

struct VerdictMsg {
  std::uint32_t submit_id = 0;
  validate::Verdict verdict;
  void encode(ByteWriter& w) const;
  static VerdictMsg decode(ByteReader& r);
};

struct ErrorMsg {
  WireError code = WireError::kInternal;
  std::uint32_t ref = 0;  ///< submit_id the error answers; 0 = current request
  std::string message;
  void encode(ByteWriter& w) const;
  static ErrorMsg decode(ByteReader& r);
};

struct ByeMsg {
  ByeReason reason = ByeReason::kGoodbye;
  void encode(ByteWriter& w) const;
  static ByeMsg decode(ByteReader& r);
};

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;

  ByteReader reader() const { return ByteReader(payload); }
};

/// Encodes `message` and writes one frame with a single send (atomic under
/// the caller's write lock).
template <class Message>
void write_message(Socket& socket, MsgType type, const Message& message) {
  ByteWriter payload;
  message.encode(payload);
  ByteWriter frame;
  const std::uint32_t length =
      static_cast<std::uint32_t>(payload.bytes().size()) + 1;
  DNNV_CHECK(length <= kMaxFrameBytes, "frame too large: " << length);
  frame.write_u32(length);
  frame.write_u8(static_cast<std::uint8_t>(type));
  frame.write_bytes(payload.bytes().data(), payload.bytes().size());
  socket.write_all(frame.bytes().data(), frame.bytes().size());
}

/// Writes a payload-less frame (kGoodbye).
void write_empty_message(Socket& socket, MsgType type);

/// Reads one frame. Returns false on a clean peer close; throws dnnv::Error
/// on a malformed length or a mid-frame disconnect.
bool read_frame(Socket& socket, Frame& frame);

}  // namespace dnnv::net

#endif  // DNNV_NET_PROTOCOL_H_
