#include "net/server.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <future>
#include <list>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "net/protocol.h"
#include "net/socket.h"
#include "util/error.h"
#include "util/protected_file.h"
#include "util/serialize.h"

namespace dnnv::net {

namespace detail {

namespace {

std::string describe(std::exception_ptr error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

}  // namespace

/// One answered-later submit: the scheduler-side handle the writer thread
/// turns into kChunk*/kVerdict frames, in FIFO submit order.
struct PendingReply {
  std::uint32_t submit_id = 0;
  bool streaming = false;
  std::future<validate::Verdict> future;  ///< !streaming
  pipeline::VerdictStream stream;         ///< streaming
};

struct Connection {
  explicit Connection(Socket s) : socket(std::move(s)) {}

  Socket socket;
  std::mutex write_mutex;  ///< one send per frame; responses never interleave

  std::mutex mutex;  ///< guards everything from here to last_activity
  std::condition_variable reply_cv;   ///< writer: replies queued / closing
  std::condition_variable submit_cv;  ///< reader: backpressure slot freed
  std::deque<PendingReply> replies;
  std::size_t inflight = 0;  ///< accepted submits not yet answered
  bool closing = false;      ///< drain replies, kBye, close
  bool socket_dead = false;  ///< transport failed; skip further writes
  bool reader_done = false;
  bool writer_done = false;
  ByeReason bye_reason = ByeReason::kGoodbye;
  std::chrono::steady_clock::time_point last_activity;

  // Reader-thread state: only the reader touches these, no lock needed.
  // The handles pin registry entries; teardown releases them to the LRU.
  std::unordered_map<std::uint32_t, pipeline::DeliverableHandle> handles;
  std::unordered_map<std::uint32_t, std::shared_ptr<pipeline::Session>>
      sessions;
  std::uint32_t next_session_id = 1;

  std::thread reader;
  std::thread writer;
};

struct ServerImpl {
  explicit ServerImpl(ServerConfig config_in);
  ~ServerImpl();

  void accept_loop();
  void housekeeping_loop();
  void start_connection_locked(Socket socket);
  void reader_loop(Connection& conn);
  void writer_loop(Connection& conn);

  bool handle_frame(Connection& conn, const Frame& frame);
  void handle_load(Connection& conn, const LoadRequest& req);
  void handle_open(Connection& conn, const OpenRequest& req);
  void handle_submit(Connection& conn, const SubmitRequest& req);
  void handle_close_session(Connection& conn, const CloseSessionRequest& req);

  /// Decodes a request payload. One that does not decode is answered with
  /// kBadRequest, tagged with its submit id when a submit's payload reaches
  /// it (else 0), and the connection keeps serving: frames are
  /// length-prefixed, so the stream is still in sync after it.
  template <class Request>
  std::optional<Request> decode_request(Connection& conn, const Frame& frame) {
    try {
      ByteReader r = frame.reader();
      return Request::decode(r);
    } catch (const Error& e) {
      std::uint32_t ref = 0;
      if constexpr (std::is_same_v<Request, SubmitRequest>) {
        ref = SubmitRequest::submit_id_of(frame.reader());
      }
      send_error(conn, WireError::kBadRequest, ref,
                 std::string("malformed request: ") + e.what());
      return std::nullopt;
    }
  }

  /// Synchronous reader-side send; throws on a dead peer (aborting the
  /// reader, which is the right response to an unreachable client).
  template <class Msg>
  void send(Connection& conn, MsgType type, const Msg& msg) {
    std::lock_guard<std::mutex> wl(conn.write_mutex);
    write_message(conn.socket, type, msg);
  }

  void send_error(Connection& conn, WireError code, std::uint32_t ref,
                  const std::string& message) {
    ErrorMsg msg;
    msg.code = code;
    msg.ref = ref;
    msg.message = message;
    send(conn, MsgType::kError, msg);
  }

  /// Writer-side send: false (and socket_dead) instead of throwing, so the
  /// writer can keep draining scheduler results without a live peer.
  template <class Msg>
  bool try_write(Connection& conn, MsgType type, const Msg& msg) {
    {
      std::lock_guard<std::mutex> lock(conn.mutex);
      if (conn.socket_dead) return false;
    }
    try {
      std::lock_guard<std::mutex> wl(conn.write_mutex);
      write_message(conn.socket, type, msg);
      return true;
    } catch (const Error&) {
      std::lock_guard<std::mutex> lock(conn.mutex);
      conn.socket_dead = true;
      return false;
    }
  }

  std::uint32_t shard_id_locked(const std::string& path);
  std::uint32_t preload(const std::string& path, std::uint64_t key);
  void request_close(Connection& conn, ByeReason reason);
  void stop();
  ValidationServer::Stats snapshot_stats() const;

  ServerConfig config;
  pipeline::ValidationService service;
  Listener listener;

  // Lock order: the server mutex may be taken alone or BEFORE a
  // connection's mutex (housekeeping), never after one.
  mutable std::mutex mutex;
  std::condition_variable housekeeping_cv;
  bool stopping = false;
  std::list<std::unique_ptr<Connection>> connections;
  std::deque<Socket> admission;  ///< accepted, waiting for a slot
  ValidationServer::Stats stats;

  // Deliverable shard ids: one wire id per path for the server's lifetime;
  // the ref-counted service registry does the actual sharing.
  std::unordered_map<std::string, std::uint32_t> id_by_path;
  std::unordered_map<std::uint32_t, pipeline::DeliverableHandle> preloaded;
  std::uint32_t next_deliverable_id = 1;

  std::thread acceptor;
  std::thread housekeeper;
};

ServerImpl::ServerImpl(ServerConfig config_in)
    : config(std::move(config_in)), service(config.service) {
  if (config.max_connections == 0) config.max_connections = 1;
  if (config.max_inflight_submits == 0) config.max_inflight_submits = 1;
  listener = Listener::bind(config.host, config.port);
  acceptor = std::thread([this] { accept_loop(); });
  housekeeper = std::thread([this] { housekeeping_loop(); });
}

ServerImpl::~ServerImpl() { stop(); }

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

void ServerImpl::accept_loop() {
  for (;;) {
    Socket socket = listener.accept();
    if (!socket.valid()) return;  // listener closed: shutting down
    socket.set_nodelay();
    std::lock_guard<std::mutex> lock(mutex);
    if (stopping) return;
    if (connections.size() < config.max_connections) {
      ++stats.accepted;
      start_connection_locked(std::move(socket));
    } else if (admission.size() < config.admission_queue) {
      ++stats.accepted;
      admission.push_back(std::move(socket));
    } else {
      // Typed rejection: the client learns it was load, not a crash.
      ++stats.rejected_busy;
      ErrorMsg busy;
      busy.code = WireError::kBusy;
      busy.message = "server at capacity; retry later";
      try {
        write_message(socket, MsgType::kError, busy);
      } catch (const Error&) {
      }
    }
  }
}

void ServerImpl::start_connection_locked(Socket socket) {
  auto owned = std::make_unique<Connection>(std::move(socket));
  owned->last_activity = std::chrono::steady_clock::now();
  Connection* conn = owned.get();
  connections.push_back(std::move(owned));
  conn->reader = std::thread([this, conn] { reader_loop(*conn); });
  conn->writer = std::thread([this, conn] { writer_loop(*conn); });
}

// ---------------------------------------------------------------------------
// Reader: frame dispatch
// ---------------------------------------------------------------------------

void ServerImpl::reader_loop(Connection& conn) {
  try {
    Frame frame;
    while (read_frame(conn.socket, frame)) {
      bool closing;
      {
        std::lock_guard<std::mutex> lock(conn.mutex);
        conn.last_activity = std::chrono::steady_clock::now();
        closing = conn.closing;
      }
      if (closing) break;  // being evicted or shut down: stop serving
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++stats.requests;
      }
      if (!handle_frame(conn, frame)) break;  // goodbye
    }
  } catch (const std::exception&) {
    // Transport failure or an oversize frame: abort without ceremony.
    std::lock_guard<std::mutex> lock(conn.mutex);
    conn.socket_dead = true;
  }
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    conn.closing = true;  // goodbye/EOF/abort all end in a writer drain
    conn.reader_done = true;
  }
  conn.reply_cv.notify_all();
  conn.submit_cv.notify_all();
  housekeeping_cv.notify_all();
}

bool ServerImpl::handle_frame(Connection& conn, const Frame& frame) {
  switch (frame.type) {
    case MsgType::kLoad:
      if (const auto req = decode_request<LoadRequest>(conn, frame)) {
        handle_load(conn, *req);
      }
      return true;
    case MsgType::kOpen:
      if (const auto req = decode_request<OpenRequest>(conn, frame)) {
        handle_open(conn, *req);
      }
      return true;
    case MsgType::kSubmit:
      if (const auto req = decode_request<SubmitRequest>(conn, frame)) {
        handle_submit(conn, *req);
      }
      return true;
    case MsgType::kCloseSession:
      if (const auto req = decode_request<CloseSessionRequest>(conn, frame)) {
        handle_close_session(conn, *req);
      }
      return true;
    case MsgType::kGoodbye:
      return false;  // reader exits; writer drains and says kBye
    default:
      send_error(conn, WireError::kBadRequest, 0,
                 "unexpected message type " +
                     std::to_string(static_cast<int>(frame.type)));
      return true;
  }
}

void ServerImpl::handle_load(Connection& conn, const LoadRequest& req) {
  pipeline::DeliverableHandle handle;
  try {
    if (!file_exists(req.path)) {
      send_error(conn, WireError::kNotFound, 0,
                 "no deliverable at '" + req.path + "'");
      return;
    }
    handle = service.load_file(req.path, req.key);
  } catch (const ProtectedFileError& e) {
    // The four container diagnostics keep their identity on the wire.
    send_error(conn, wire_error_from(e.fault()), 0, e.what());
    return;
  } catch (const std::exception& e) {
    // Container verified but the payload would not parse — wrong key.
    send_error(conn, WireError::kLoadFailed, 0, e.what());
    return;
  }
  std::uint32_t id;
  {
    std::lock_guard<std::mutex> lock(mutex);
    id = shard_id_locked(req.path);
  }
  conn.handles[id] = handle;
  const pipeline::Deliverable& bundle = handle.deliverable();
  LoadResponse resp;
  resp.deliverable_id = id;
  resp.suite_size = bundle.suite.size();
  resp.has_quant = bundle.has_quant ? 1 : 0;
  resp.summary = bundle.manifest.summary();
  send(conn, MsgType::kLoadOk, resp);
}

void ServerImpl::handle_open(Connection& conn, const OpenRequest& req) {
  pipeline::DeliverableHandle handle;
  auto it = conn.handles.find(req.deliverable_id);
  if (it != conn.handles.end()) {
    handle = it->second;
  } else {
    std::lock_guard<std::mutex> lock(mutex);
    auto pre = preloaded.find(req.deliverable_id);
    if (pre != preloaded.end()) handle = pre->second;
  }
  if (!handle.valid()) {
    send_error(conn, WireError::kNotFound, 0,
               "unknown deliverable id " + std::to_string(req.deliverable_id) +
                   " (load it on this connection first)");
    return;
  }
  std::shared_ptr<pipeline::Session> session;
  try {
    session = service.open_session(handle, req.config);
  } catch (const std::exception& e) {
    send_error(conn, WireError::kBadRequest, 0, e.what());
    return;
  }
  OpenResponse resp;
  resp.session_id = conn.next_session_id++;
  resp.suite_size = session->suite_size();
  // open_session stores the resolved backend (never kAuto) in the config.
  resp.backend = static_cast<std::uint8_t>(session->config().backend);
  conn.sessions.emplace(resp.session_id, std::move(session));
  send(conn, MsgType::kOpenOk, resp);
}

void ServerImpl::handle_submit(Connection& conn, const SubmitRequest& req) {
  auto it = conn.sessions.find(req.session_id);
  if (it == conn.sessions.end()) {
    send_error(conn, WireError::kNotFound, req.submit_id,
               "unknown session id " + std::to_string(req.session_id));
    return;
  }
  // Per-connection backpressure: the reader stalls here once
  // max_inflight_submits are unanswered, which stalls the client via TCP
  // flow control instead of buffering unbounded work server-side.
  std::size_t now_inflight;
  {
    std::unique_lock<std::mutex> lock(conn.mutex);
    conn.submit_cv.wait(lock, [&] {
      return conn.inflight < config.max_inflight_submits || conn.closing;
    });
    if (conn.closing) return;  // eviction raced this submit; kBye follows
    now_inflight = ++conn.inflight;
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    ++stats.submits;
    if (now_inflight > stats.peak_inflight_submits) {
      stats.peak_inflight_submits = now_inflight;
    }
  }
  pipeline::Session& session = *it->second;
  const std::size_t suite = session.suite_size();
  const std::size_t begin = static_cast<std::size_t>(req.begin);
  const std::size_t end =
      req.end == 0 ? suite : static_cast<std::size_t>(req.end);
  PendingReply reply;
  reply.submit_id = req.submit_id;
  reply.streaming = req.stream != 0;
  try {
    DNNV_CHECK(begin <= end && end <= suite,
               "submit range [" << begin << ", " << end
                                << ") outside the suite of " << suite);
    if (reply.streaming) {
      reply.stream = session.stream(begin, end);
    } else {
      reply.future = session.submit(begin, end);
    }
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(conn.mutex);
      --conn.inflight;
    }
    conn.submit_cv.notify_all();
    send_error(conn, WireError::kBadRequest, req.submit_id, e.what());
    return;
  }
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    conn.replies.push_back(std::move(reply));
  }
  conn.reply_cv.notify_all();
}

void ServerImpl::handle_close_session(Connection& conn,
                                      const CloseSessionRequest& req) {
  // Closing releases the scheduler lane; replies already queued stay valid
  // (futures/streams outlive their session). No acknowledgement frame.
  if (conn.sessions.erase(req.session_id) == 0) {
    send_error(conn, WireError::kNotFound, 0,
               "unknown session id " + std::to_string(req.session_id));
  }
}

// ---------------------------------------------------------------------------
// Writer: verdict delivery + drain-then-bye
// ---------------------------------------------------------------------------

void ServerImpl::writer_loop(Connection& conn) {
  for (;;) {
    PendingReply reply;
    {
      std::unique_lock<std::mutex> lock(conn.mutex);
      conn.reply_cv.wait(
          lock, [&conn] { return !conn.replies.empty() || conn.closing; });
      if (conn.replies.empty()) break;  // closing AND fully drained
      reply = std::move(conn.replies.front());
      conn.replies.pop_front();
    }
    // Even with a dead peer the reply is consumed (future/stream observed,
    // inflight decremented) so the connection always drains and reaps.
    validate::Verdict verdict;
    std::exception_ptr run_error;
    bool ok = true;
    try {
      if (reply.streaming) {
        pipeline::VerdictStream::Chunk chunk;
        while (reply.stream.next(chunk)) {
          ChunkMsg msg;
          msg.submit_id = reply.submit_id;
          msg.chunk = chunk;
          if (ok) ok = try_write(conn, MsgType::kChunk, msg);
        }
        verdict = reply.stream.verdict();
      } else {
        verdict = reply.future.get();
      }
    } catch (...) {
      run_error = std::current_exception();
    }
    if (ok) {
      if (run_error != nullptr) {
        ErrorMsg msg;
        msg.code = WireError::kInternal;
        msg.ref = reply.submit_id;
        msg.message = describe(run_error);
        try_write(conn, MsgType::kError, msg);
      } else {
        VerdictMsg msg;
        msg.submit_id = reply.submit_id;
        msg.verdict = verdict;
        try_write(conn, MsgType::kVerdict, msg);
      }
    }
    {
      std::lock_guard<std::mutex> lock(conn.mutex);
      --conn.inflight;
      conn.last_activity = std::chrono::steady_clock::now();
    }
    conn.submit_cv.notify_all();
  }
  // Drained: close out with the reason, then wake a reader blocked in recv.
  ByeMsg bye;
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    bye.reason = conn.bye_reason;
  }
  try_write(conn, MsgType::kBye, bye);
  conn.socket.shutdown_both();
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    conn.writer_done = true;
  }
  conn.submit_cv.notify_all();
  housekeeping_cv.notify_all();
}

// ---------------------------------------------------------------------------
// Housekeeping: reap, promote, evict idle
// ---------------------------------------------------------------------------

void ServerImpl::housekeeping_loop() {
  std::unique_lock<std::mutex> lock(mutex);
  for (;;) {
    housekeeping_cv.wait_for(lock, std::chrono::milliseconds(20));
    // Reap connections whose threads both finished.
    for (auto it = connections.begin(); it != connections.end();) {
      Connection& conn = **it;
      bool done;
      {
        std::lock_guard<std::mutex> cl(conn.mutex);
        done = conn.reader_done && conn.writer_done;
      }
      if (done) {
        conn.reader.join();
        conn.writer.join();
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
    // Promote parked sockets into freed slots, oldest first.
    while (!stopping && !admission.empty() &&
           connections.size() < config.max_connections) {
      Socket socket = std::move(admission.front());
      admission.pop_front();
      start_connection_locked(std::move(socket));
    }
    // Idle eviction: only connections with nothing queued and nothing in
    // flight — eviction never races a verdict the client is owed.
    if (config.idle_timeout_seconds > 0 && !stopping) {
      const auto now = std::chrono::steady_clock::now();
      for (auto& owned : connections) {
        Connection& conn = *owned;
        bool evict;
        {
          std::lock_guard<std::mutex> cl(conn.mutex);
          const double idle =
              std::chrono::duration<double>(now - conn.last_activity).count();
          evict = !conn.closing && conn.inflight == 0 &&
                  conn.replies.empty() && idle >= config.idle_timeout_seconds;
        }
        if (evict) {
          request_close(conn, ByeReason::kIdleTimeout);
          ++stats.evicted_idle;
        }
      }
    }
    if (stopping && connections.empty()) return;
  }
}

void ServerImpl::request_close(Connection& conn, ByeReason reason) {
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    if (conn.closing) return;
    conn.closing = true;
    conn.bye_reason = reason;
  }
  conn.reply_cv.notify_all();
  conn.submit_cv.notify_all();
}

// ---------------------------------------------------------------------------
// Server lifecycle
// ---------------------------------------------------------------------------

std::uint32_t ServerImpl::shard_id_locked(const std::string& path) {
  auto it = id_by_path.find(path);
  if (it != id_by_path.end()) return it->second;
  const std::uint32_t id = next_deliverable_id++;
  id_by_path.emplace(path, id);
  return id;
}

std::uint32_t ServerImpl::preload(const std::string& path, std::uint64_t key) {
  pipeline::DeliverableHandle handle = service.load_file(path, key);
  std::lock_guard<std::mutex> lock(mutex);
  const std::uint32_t id = shard_id_locked(path);
  preloaded.emplace(id, std::move(handle));
  return id;
}

void ServerImpl::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex);
    if (stopping) return;
    stopping = true;
  }
  listener.close();  // aborts a blocked accept()
  if (acceptor.joinable()) acceptor.join();
  {
    std::lock_guard<std::mutex> lock(mutex);
    for (auto& conn : connections) {
      request_close(*conn, ByeReason::kShutdown);
    }
    admission.clear();  // parked peers are closed without a frame
  }
  housekeeping_cv.notify_all();
  if (housekeeper.joinable()) housekeeper.join();  // returns once reaped
  service.drain();
}

ValidationServer::Stats ServerImpl::snapshot_stats() const {
  std::lock_guard<std::mutex> lock(mutex);
  ValidationServer::Stats out = stats;
  out.active_connections = connections.size();
  return out;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------------

ValidationServer::ValidationServer(ServerConfig config)
    : impl_(std::make_unique<detail::ServerImpl>(std::move(config))) {}

ValidationServer::~ValidationServer() { impl_->stop(); }

std::uint16_t ValidationServer::port() const { return impl_->listener.port(); }

std::uint32_t ValidationServer::preload(const std::string& path,
                                        std::uint64_t key) {
  return impl_->preload(path, key);
}

void ValidationServer::stop() { impl_->stop(); }

pipeline::ValidationService& ValidationServer::service() {
  return impl_->service;
}

ValidationServer::Stats ValidationServer::stats() const {
  return impl_->snapshot_stats();
}

}  // namespace dnnv::net
