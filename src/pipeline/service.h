// Concurrent user-side validation service (paper §V's deployment story at
// scale: many end users qualifying shipped DNN IPs against vendor suites).
//
// The one-shot UserValidator (pipeline/user.h) replays one deliverable for
// one caller on the caller's thread, rebuilding the deployed device and
// re-parsing the bundle every time; it never touches a service. The
// ValidationService is the long-lived subsystem for the work only it does:
//
//   * Deliverable registry — load_file()/adopt() return ref-counted
//     DeliverableHandles over shared, LRU-evictable entries, so many
//     sessions reuse one decoded model/QuantModel/TestSuite.
//   * Sessions — open_session(handle, SessionConfig) owns per-session
//     replay state (backend choice, injected memory faults, test budget)
//     and feeds a scheduler lane that owns one device, built once and
//     reused by every batch instead of one per request. Every session
//     replays a registered deliverable on a service-built device; a
//     caller-built device is replayed with UserValidator::validate(device&)
//     instead.
//   * Micro-batched scheduler — Session::submit() returns a
//     std::future<Verdict>; a scheduler thread coalesces pending test
//     items ACROSS sessions targeting the same deliverable+backend into
//     micro-batches driven through the batched float/int8 engines, the way
//     hardware-test infrastructure amortizes pattern application across
//     parts. A lane runs one micro-batch at a time, so for any
//     max_inflight_batches one prediction per (deliverable, backend, test)
//     serves every subscribed clean session.
//   * Streaming verdicts — Session::stream() yields per-chunk mismatch
//     counts as micro-batches land, with an early-exit policy that
//     finishes the run at the first TAMPERED chunk instead of after the
//     full suite.
//
// The net::ValidationServer serves this API over TCP. There is no
// process-global instance: each owner (a server, a CLI run, a test)
// constructs its own.
#ifndef DNNV_PIPELINE_SERVICE_H_
#define DNNV_PIPELINE_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "ip/black_box_ip.h"
#include "pipeline/deliverable.h"
#include "util/thread_pool.h"
#include "validate/backend.h"
#include "validate/validator.h"

namespace dnnv::pipeline {

namespace detail {
struct ServiceImpl;
struct RegistryEntry;
struct RunState;
struct StreamState;
}  // namespace detail

/// Which deployed device a session replays the suite on.
enum class BackendKind {
  kAuto,   ///< int8 artifact when the bundle ships one, float otherwise
  kFloat,  ///< float reference device over the shipped master
  kInt8    ///< int8 device over the shipped QuantModel (requires has_quant)
};

/// Parses "auto" / "float" / "int8" (CLI surface); throws on anything else.
BackendKind backend_kind_from_string(const std::string& name);

/// Builds a fresh deployed device for `deliverable` under `kind` — the
/// factory behind UserValidator::make_device and the service lanes.
std::unique_ptr<ip::BlackBoxIp> make_device(const Deliverable& deliverable,
                                            BackendKind kind =
                                                BackendKind::kAuto);

/// Ref-counted reference to a registry entry. While any handle (or session)
/// is alive the entry is pinned; dropped entries stay LRU-cached until
/// capacity evicts them.
class DeliverableHandle {
 public:
  DeliverableHandle() = default;

  bool valid() const { return entry_ != nullptr; }
  const std::string& id() const;
  const Deliverable& deliverable() const;

 private:
  friend struct detail::ServiceImpl;
  friend class ValidationService;
  explicit DeliverableHandle(std::shared_ptr<detail::RegistryEntry> entry)
      : entry_(std::move(entry)) {}

  std::shared_ptr<detail::RegistryEntry> entry_;
};

/// How a session reacts to failing chunks.
enum class StreamPolicy {
  kFullReplay,  ///< run every requested test, aggregate all failures
  kEarlyExit    ///< stop at the first chunk carrying TAMPERED evidence
};

/// Per-session replay configuration.
struct SessionConfig {
  BackendKind backend = BackendKind::kAuto;
  StreamPolicy policy = StreamPolicy::kFullReplay;
  /// Memory faults injected into THIS session's device (int8 backends
  /// only): the session validates a deliberately-tampered part. Faulted
  /// sessions get a private device and never share predictions.
  std::vector<validate::CodeFault> faults;
  /// Max tests per submit (0 = unlimited): a cheaper qualification replays
  /// only the suite prefix — the suite's generation order makes any prefix
  /// a valid smaller suite.
  std::size_t budget = 0;
  /// Chunk size for streaming/early-exit evaluation (0 = service default).
  /// Chunk boundaries are fixed by this value, so verdicts and per-chunk
  /// counts are deterministic across thread counts and batch timing.
  std::size_t chunk_size = 0;
  /// Max tests per inference micro-batch on this session's lane (0 =
  /// service default). A lone full-replay caller wants one whole-suite
  /// batch (one batched forward); fine-grained streaming and
  /// cross-session interleaving want smaller batches. When sessions share
  /// a lane, the lane keeps the value it was created with.
  std::size_t micro_batch = 0;
};

/// Incremental verdict consumer for one submitted range. Chunks arrive in
/// ascending index order with deterministic boundaries.
class VerdictStream {
 public:
  struct Chunk {
    std::size_t begin = 0;   ///< first suite index of the chunk
    std::size_t end = 0;     ///< one past the last suite index
    int mismatches = 0;      ///< failing tests inside the chunk
    int first_failure = -1;  ///< global index of first mismatch, -1 if none
    bool last = false;       ///< no further chunks will arrive
  };

  VerdictStream() = default;

  /// Blocks for the next chunk; false when the stream is exhausted.
  bool next(Chunk& chunk);

  /// Blocks until the run finishes and returns the aggregate verdict (for
  /// kEarlyExit: first_failure/num_failures/tests_run follow the early-exit
  /// contract of validate_ip(..., early_exit=true)).
  validate::Verdict verdict();

 private:
  friend struct detail::ServiceImpl;
  friend class Session;
  explicit VerdictStream(std::shared_ptr<detail::StreamState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::StreamState> state_;
};

class ValidationService;

/// One user's replay context over a shared deliverable. Sessions are
/// created by ValidationService::open_session and may be driven from any
/// thread; submits from many sessions interleave in the scheduler.
class Session {
 public:
  /// Closing a session releases its scheduler lane; verdict futures and
  /// streams already obtained stay valid.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Queues the whole suite (clamped by config.budget); the future yields
  /// the aggregate verdict.
  std::future<validate::Verdict> submit();

  /// Queues suite tests [begin, end) (clamped by config.budget).
  std::future<validate::Verdict> submit(std::size_t begin, std::size_t end);

  /// As submit(), but streaming: per-chunk mismatch counts as micro-batches
  /// complete, then the aggregate verdict.
  VerdictStream stream();
  VerdictStream stream(std::size_t begin, std::size_t end);

  const SessionConfig& config() const { return config_; }
  std::size_t suite_size() const;
  const Deliverable& deliverable() const;

 private:
  friend struct detail::ServiceImpl;
  friend class ValidationService;
  Session(std::shared_ptr<detail::ServiceImpl> service,
          std::shared_ptr<detail::RegistryEntry> entry, SessionConfig config,
          std::size_t lane);

  std::shared_ptr<detail::ServiceImpl> service_;
  std::shared_ptr<detail::RegistryEntry> entry_;
  SessionConfig config_;
  std::size_t lane_ = 0;  ///< scheduler lane this session feeds
};

/// The long-lived user-side validation subsystem. Thread-safe; one instance
/// multiplexes any number of deliverables and sessions. The destructor
/// drains outstanding work before returning.
class ValidationService {
 public:
  struct Config {
    /// Resident UNPINNED registry entries kept for reuse; pinned entries
    /// (live handles/sessions) never count against this.
    std::size_t max_cached_deliverables = 4;
    /// Default micro-batch (and streaming chunk) size in tests.
    std::size_t micro_batch = 16;
    /// Micro-batches allowed in flight at once, across lanes (a lane runs
    /// one at a time on its one device). 1 executes on the scheduler
    /// thread (inference still parallelises internally); >1 dispatches
    /// batches onto `pool` for coarse cross-lane parallelism.
    std::size_t max_inflight_batches = 1;
    /// Worker pool for >1 in-flight batches (nullptr = ThreadPool::shared).
    ThreadPool* pool = nullptr;
  };

  /// Cumulative counters (scheduler observability; monotone).
  struct Stats {
    std::uint64_t loads = 0;        ///< registry lookups
    std::uint64_t hits = 0;         ///< lookups served from cache
    std::uint64_t evictions = 0;    ///< entries dropped by LRU pressure
    std::uint64_t batches = 0;      ///< micro-batches executed
    std::uint64_t predicted = 0;    ///< test items actually inferred
    std::uint64_t cache_served = 0; ///< subscriptions served from lane label
                                    ///< caches (cross-session reuse)
  };

  ValidationService();
  explicit ValidationService(Config config);
  ~ValidationService();

  ValidationService(const ValidationService&) = delete;
  ValidationService& operator=(const ValidationService&) = delete;

  /// Loads (or returns the cached) deliverable at `path`; the path is the
  /// registry id. Throws dnnv::Error on corruption or a wrong key.
  DeliverableHandle load_file(const std::string& path, std::uint64_t key);

  /// Registers an in-memory bundle under `id` (replacing any cached entry
  /// with the same id).
  DeliverableHandle adopt(Deliverable deliverable, const std::string& id);

  /// Opens a session over `handle`'s deliverable. Clean sessions on the
  /// same deliverable+backend share a scheduler lane: one label cache, one
  /// device, cross-session micro-batches. Faulted sessions (config.faults)
  /// replay on a private lane whose device is built and flipped here, so a
  /// fault outside the device memory throws dnnv::Error.
  std::shared_ptr<Session> open_session(const DeliverableHandle& handle,
                                        SessionConfig config = {});

  /// Entries currently resident in the registry (pinned + cached).
  std::size_t resident_deliverables() const;

  /// Blocks until every queued and in-flight submit has produced its
  /// verdict. New submits may keep arriving — drain() returns at a moment
  /// the scheduler was empty, which is what graceful eviction wants: a
  /// caller that stops submitting and then drains is guaranteed all ITS
  /// verdicts have been published.
  void drain();

  Stats stats() const;

 private:
  std::shared_ptr<detail::ServiceImpl> impl_;
};

}  // namespace dnnv::pipeline

#endif  // DNNV_PIPELINE_SERVICE_H_
