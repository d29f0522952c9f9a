#include "pipeline/service.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "analysis/verifier.h"
#include "ip/quantized_ip.h"
#include "ip/reference_ip.h"
#include "util/error.h"

namespace dnnv::pipeline {

// ---------------------------------------------------------------------------
// Device construction
// ---------------------------------------------------------------------------

BackendKind backend_kind_from_string(const std::string& name) {
  if (name == "auto") return BackendKind::kAuto;
  if (name == "float") return BackendKind::kFloat;
  if (name == "int8") return BackendKind::kInt8;
  DNNV_THROW("unknown validation backend '" << name
                                            << "' (auto | float | int8)");
}

std::unique_ptr<ip::BlackBoxIp> make_device(const Deliverable& deliverable,
                                            BackendKind kind) {
  DNNV_CHECK(!deliverable.suite.empty(), "deliverable carries no tests");
  const Shape item_shape{std::vector<std::int64_t>(
      deliverable.suite.inputs().front().shape().dims())};
  if (kind == BackendKind::kAuto) {
    kind = deliverable.has_quant ? BackendKind::kInt8 : BackendKind::kFloat;
  }
  if (kind == BackendKind::kInt8) {
    DNNV_CHECK(deliverable.has_quant,
               "int8 backend requested but the deliverable ships no "
               "quantized artifact");
    return std::make_unique<ip::QuantizedIp>(deliverable.qmodel, item_shape);
  }
  return std::make_unique<ip::ReferenceIp>(deliverable.model, item_shape);
}

namespace detail {

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

struct RegistryEntry {
  std::string id;
  std::shared_ptr<const Deliverable> bundle;
  std::uint64_t last_used = 0;   ///< LRU clock value of the latest touch
  bool registered = false;       ///< resident in the registry map
};

/// Stream-side shared state; has its own lock so consumers never contend
/// with the scheduler.
struct StreamState {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<VerdictStream::Chunk> chunks;
  bool done = false;
  validate::Verdict verdict;
  std::exception_ptr error;
};

/// One submitted range: per-item results are folded in index order into
/// fixed-size chunks, so verdicts and per-chunk counts do not depend on
/// micro-batch composition or completion timing.
struct RunState {
  std::size_t lane_id = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunk_size = 1;
  StreamPolicy policy = StreamPolicy::kFullReplay;

  std::vector<unsigned char> have;      ///< item delivered (relative index)
  std::vector<unsigned char> mismatch;  ///< item failed (relative index)
  std::size_t next = 0;                 ///< next relative index to fold
  int chunk_mismatches = 0;
  int chunk_first_failure = -1;
  validate::Verdict verdict;  ///< accumulated over emitted chunks
  bool finished = false;

  std::promise<validate::Verdict> promise;
  std::shared_ptr<StreamState> stream;  ///< null for future-only submits
};

/// One scheduler lane: the unit of cross-session sharing. A lane owns one
/// device and runs at most one micro-batch at a time. Clean sessions on the
/// same (deliverable, backend) share a lane and its label cache; each
/// faulted session gets a private lane with no cache.
///
/// Lanes reference their registry entry by RAW pointer (plus a shared_ptr
/// to the bundle payload itself): holding the entry shared would pin its
/// use_count above 1 forever and silently disable LRU eviction. A lane only
/// dereferences entry_raw while something that owns the entry (registry,
/// handle or session) is alive.
struct Lane {
  RegistryEntry* entry_raw = nullptr;
  std::shared_ptr<const Deliverable> bundle;
  BackendKind backend = BackendKind::kFloat;
  bool shareable = false;
  /// Shareable lane of a registry-resident entry: outlives its sessions
  /// (the label cache is the reuse store). Cleared when the entry is
  /// evicted/replaced, after which the last reference tears the lane down.
  bool persistent = false;
  std::size_t micro_batch = 16;  ///< max tests per inference batch

  /// The lane's device. A faulted lane's is built and flipped at open; a
  /// shareable lane's on its first batch. A running batch holds it.
  std::unique_ptr<ip::BlackBoxIp> device;
  bool busy = false;  ///< a micro-batch is running on this lane

  // Shareable lanes only: memoized labels (the TP-ATPG-style shared-pattern
  // store: each test is applied once per deliverable+backend, every
  // subscribed session reads the outcome).
  std::vector<int> label_cache;
  std::vector<unsigned char> label_known;

  /// index -> runs waiting for it (ordered: batches pop lowest-first).
  std::map<std::size_t, std::vector<std::shared_ptr<RunState>>> pending;
  std::size_t refs = 0;  ///< open sessions
};

/// One micro-batch handed to an executor, with its lane's device. A null
/// device is built inside run_batch, OUTSIDE the service mutex: device
/// construction is the expensive part, and the lane cannot be torn down
/// while it is busy.
struct BatchJob {
  std::size_t lane_id = 0;
  std::vector<std::size_t> indices;
  std::vector<std::vector<std::shared_ptr<RunState>>> subscribers;
  std::unique_ptr<ip::BlackBoxIp> device;
  BackendKind backend = BackendKind::kFloat;
  std::shared_ptr<const Deliverable> bundle;
};

/// Outputs collected under the service lock, delivered after unlock.
struct Publish {
  struct StreamChunk {
    std::shared_ptr<StreamState> stream;
    VerdictStream::Chunk chunk;
  };
  struct Done {
    std::shared_ptr<RunState> run;
    validate::Verdict verdict;
    std::exception_ptr error;
  };
  std::vector<StreamChunk> chunks;
  std::vector<Done> dones;
};

struct ServiceImpl {
  explicit ServiceImpl(ValidationService::Config config);
  ~ServiceImpl();

  // Registry.
  DeliverableHandle load_file(const std::string& path, std::uint64_t key);
  DeliverableHandle adopt(Deliverable deliverable, const std::string& id);
  void evict_lru_locked();

  // Sessions.
  std::shared_ptr<Session> open_session(std::shared_ptr<ServiceImpl> self,
                                        std::shared_ptr<RegistryEntry> entry,
                                        SessionConfig config);
  void close_session(std::size_t lane_id);
  void gc_lane_locked(std::size_t lane_id);
  void gc_lanes_for_entry_locked(const std::shared_ptr<RegistryEntry>& entry);

  // Scheduling.
  std::shared_ptr<RunState> submit(const Session& session, std::size_t begin,
                                   std::size_t end, bool want_stream);
  void scheduler_loop();
  std::unique_ptr<BatchJob> form_batch_locked();
  void run_batch(std::unique_ptr<BatchJob> job);
  void deliver_item_locked(const std::shared_ptr<RunState>& run,
                           std::size_t index, bool mismatch, Publish& out);
  void finish_run_locked(const std::shared_ptr<RunState>& run,
                         validate::Verdict verdict, std::exception_ptr error,
                         Publish& out);
  void purge_run_locked(const std::shared_ptr<RunState>& run);
  static void publish(Publish& out);
  void shutdown();

  ValidationService::Config config;
  ThreadPool* pool = nullptr;

  mutable std::mutex mutex;
  std::condition_variable scheduler_cv;
  bool stopping = false;

  std::uint64_t lru_tick = 0;
  std::unordered_map<std::string, std::shared_ptr<RegistryEntry>> registry;

  std::map<std::size_t, std::unique_ptr<Lane>> lanes;
  std::size_t next_lane_id = 0;
  std::size_t lane_cursor = 0;
  std::size_t pending_total = 0;  ///< indices queued across all lanes
  std::size_t inflight = 0;       ///< batches executing
  std::size_t active_runs = 0;
  /// Publish batches collected under the lock but not yet delivered to
  /// futures/streams. drain() waits on this too, so "scheduler quiet"
  /// implies every finished run's promise has actually been fulfilled.
  std::size_t publishing = 0;

  ValidationService::Stats stats;

  TaskGroup executors;
  std::thread scheduler;
};

ServiceImpl::ServiceImpl(ValidationService::Config config_in)
    : config(config_in),
      pool(config_in.pool != nullptr ? config_in.pool : &ThreadPool::shared()),
      executors(*pool) {
  DNNV_CHECK(config.micro_batch > 0, "micro_batch must be positive");
  if (config.max_inflight_batches == 0) config.max_inflight_batches = 1;
  scheduler = std::thread([this] { scheduler_loop(); });
}

ServiceImpl::~ServiceImpl() {
  if (scheduler.joinable()) shutdown();
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

void ServiceImpl::evict_lru_locked() {
  // Evict least-recently-used UNPINNED entries (registry holds the only
  // reference) until within capacity. Pinned entries may exceed it.
  while (registry.size() > config.max_cached_deliverables) {
    auto victim = registry.end();
    for (auto it = registry.begin(); it != registry.end(); ++it) {
      if (it->second.use_count() != 1) continue;  // pinned by handle/session
      if (victim == registry.end() ||
          it->second->last_used < victim->second->last_used) {
        victim = it;
      }
    }
    if (victim == registry.end()) return;  // everything pinned
    victim->second->registered = false;
    gc_lanes_for_entry_locked(victim->second);
    registry.erase(victim);
    ++stats.evictions;
  }
}

DeliverableHandle ServiceImpl::load_file(const std::string& path,
                                         std::uint64_t key) {
  {
    std::lock_guard<std::mutex> lock(mutex);
    DNNV_CHECK(!stopping, "load_file on a stopped ValidationService");
    ++stats.loads;
    auto it = registry.find(path);
    if (it != registry.end()) {
      ++stats.hits;
      it->second->last_used = ++lru_tick;
      return DeliverableHandle(it->second);
    }
  }
  // Parse outside the lock (decode + de-obfuscation are the expensive part).
  auto bundle =
      std::make_shared<const Deliverable>(Deliverable::load_file(path, key));
  std::lock_guard<std::mutex> lock(mutex);
  auto it = registry.find(path);
  if (it != registry.end()) {  // raced with another loader: reuse theirs
    ++stats.hits;
    it->second->last_used = ++lru_tick;
    return DeliverableHandle(it->second);
  }
  auto entry = std::make_shared<RegistryEntry>();
  entry->id = path;
  entry->bundle = std::move(bundle);
  entry->last_used = ++lru_tick;
  entry->registered = true;
  registry.emplace(path, entry);
  evict_lru_locked();
  return DeliverableHandle(std::move(entry));
}

DeliverableHandle ServiceImpl::adopt(Deliverable deliverable,
                                     const std::string& id) {
  auto bundle = std::make_shared<const Deliverable>(std::move(deliverable));
  DNNV_CHECK(!bundle->suite.empty(), "deliverable carries no tests");
  // In-memory bundles bypass Deliverable::load_file, so run the same
  // semantic gate here before the registry starts serving sessions from it.
  analysis::require_valid(analysis::verify_deliverable(*bundle),
                          "service adopt");
  std::lock_guard<std::mutex> lock(mutex);
  DNNV_CHECK(!stopping, "adopt on a stopped ValidationService");
  ++stats.loads;
  auto entry = std::make_shared<RegistryEntry>();
  entry->id = id;
  entry->bundle = std::move(bundle);
  entry->last_used = ++lru_tick;
  entry->registered = true;
  auto it = registry.find(id);
  if (it != registry.end()) {  // replacing: the old entry loses residency
    it->second->registered = false;
    gc_lanes_for_entry_locked(it->second);
    it->second = entry;
  } else {
    registry.emplace(id, entry);
  }
  evict_lru_locked();
  return DeliverableHandle(std::move(entry));
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

std::shared_ptr<Session> ServiceImpl::open_session(
    std::shared_ptr<ServiceImpl> self, std::shared_ptr<RegistryEntry> entry,
    SessionConfig session_config) {
  DNNV_CHECK(entry != nullptr && entry->bundle != nullptr,
             "open_session on an invalid deliverable handle");
  const Deliverable& bundle = *entry->bundle;
  BackendKind backend = session_config.backend;
  if (backend == BackendKind::kAuto) {
    backend = bundle.has_quant ? BackendKind::kInt8 : BackendKind::kFloat;
  }
  DNNV_CHECK(backend != BackendKind::kInt8 || bundle.has_quant,
             "int8 backend requested but the deliverable ships no quantized "
             "artifact");

  // Faulted sessions build and flip their private device up front (outside
  // the service lock: device construction is the expensive part), so a bad
  // fault fails the open. A shareable lane builds its device on its first
  // batch.
  std::unique_ptr<ip::BlackBoxIp> faulted;
  if (!session_config.faults.empty()) {
    DNNV_CHECK(backend == BackendKind::kInt8,
               "fault injection needs the int8 backend (the faults address "
               "the int8 weight memory)");
    faulted = make_device(bundle, backend);
    auto* quantized = dynamic_cast<ip::QuantizedIp*>(faulted.get());
    DNNV_CHECK(quantized != nullptr, "faultable device must be a QuantizedIp");
    for (const auto& fault : session_config.faults) {
      quantized->flip_bit(fault.address, fault.bit);
    }
  }

  std::lock_guard<std::mutex> lock(mutex);
  DNNV_CHECK(!stopping, "open_session on a stopped ValidationService");
  entry->last_used = ++lru_tick;

  const bool shareable = faulted == nullptr;
  std::size_t lane_id = next_lane_id;
  Lane* lane = nullptr;
  if (shareable) {
    // Reuse only persistent lanes: their entry is registry-resident, so the
    // raw-pointer match cannot hit a recycled allocation.
    for (auto& [id, candidate] : lanes) {
      if (candidate->shareable && candidate->persistent &&
          candidate->entry_raw == entry.get() &&
          candidate->backend == backend) {
        lane_id = id;
        lane = candidate.get();
        break;
      }
    }
  }
  if (lane == nullptr) {
    auto fresh = std::make_unique<Lane>();
    fresh->entry_raw = entry.get();
    fresh->bundle = entry->bundle;
    fresh->backend = backend;
    fresh->shareable = shareable;
    fresh->persistent = shareable && entry->registered;
    fresh->micro_batch = session_config.micro_batch > 0
                             ? session_config.micro_batch
                             : config.micro_batch;
    fresh->device = std::move(faulted);
    if (shareable) {
      fresh->label_cache.assign(bundle.suite.size(), -1);
      fresh->label_known.assign(bundle.suite.size(), 0);
    }
    lane_id = next_lane_id++;
    lane = fresh.get();
    lanes.emplace(lane_id, std::move(fresh));
  }
  ++lane->refs;
  session_config.backend = backend;
  return std::shared_ptr<Session>(new Session(
      std::move(self), std::move(entry), std::move(session_config), lane_id));
}

void ServiceImpl::close_session(std::size_t lane_id) {
  std::lock_guard<std::mutex> lock(mutex);
  auto it = lanes.find(lane_id);
  if (it == lanes.end()) return;
  --it->second->refs;
  gc_lane_locked(lane_id);
}

void ServiceImpl::gc_lane_locked(std::size_t lane_id) {
  auto it = lanes.find(lane_id);
  if (it == lanes.end()) return;
  Lane& lane = *it->second;
  if (lane.refs != 0 || !lane.pending.empty() || lane.busy) {
    return;  // still referenced or still working
  }
  // Persistent lanes (shared lanes of registry-resident deliverables)
  // outlive their sessions: the label cache IS the cross-session
  // pattern-reuse store. Private lanes, and lanes whose entry has left the
  // registry, die with their last session.
  if (lane.persistent) return;
  lanes.erase(it);
}

void ServiceImpl::gc_lanes_for_entry_locked(
    const std::shared_ptr<RegistryEntry>& entry) {
  for (auto it = lanes.begin(); it != lanes.end();) {
    const std::size_t lane_id = it->first;
    ++it;
    Lane& lane = *lanes.at(lane_id);
    if (lane.entry_raw == entry.get()) {
      lane.persistent = false;  // entry leaving the registry
      gc_lane_locked(lane_id);
    }
  }
}

// ---------------------------------------------------------------------------
// Submit + result folding
// ---------------------------------------------------------------------------

std::shared_ptr<RunState> ServiceImpl::submit(const Session& session,
                                              std::size_t begin,
                                              std::size_t end,
                                              bool want_stream) {
  const validate::TestSuite& suite = session.entry_->bundle->suite;
  DNNV_CHECK(begin < end && end <= suite.size(),
             "submit range [" << begin << ", " << end
                              << ") out of suite range " << suite.size());
  if (session.config_.budget > 0) {
    // Clamp the range length, not the end: begin + budget wraps for a
    // budget near SIZE_MAX (a u64 off the wire).
    end = begin + std::min(end - begin, session.config_.budget);
  }

  auto run = std::make_shared<RunState>();
  run->lane_id = session.lane_;
  run->begin = begin;
  run->end = end;
  run->chunk_size = session.config_.chunk_size > 0 ? session.config_.chunk_size
                                                   : config.micro_batch;
  run->policy = session.config_.policy;
  run->have.assign(end - begin, 0);
  run->mismatch.assign(end - begin, 0);
  if (want_stream) run->stream = std::make_shared<StreamState>();

  Publish out;
  {
    std::lock_guard<std::mutex> lock(mutex);
    DNNV_CHECK(!stopping, "submit on a stopped ValidationService");
    auto it = lanes.find(session.lane_);
    DNNV_CHECK(it != lanes.end(), "session lane vanished");
    Lane& lane = *it->second;
    ++active_runs;
    const auto& golden = suite.golden_labels();
    for (std::size_t index = begin; index < end && !run->finished; ++index) {
      if (lane.shareable && lane.label_known[index]) {
        // Cross-session reuse: this pattern was already applied to this
        // deliverable+backend — serve the memoized outcome.
        ++stats.cache_served;
        deliver_item_locked(run, index,
                            lane.label_cache[index] != golden[index], out);
        continue;
      }
      auto [entry_it, inserted] = lane.pending.try_emplace(index);
      entry_it->second.push_back(run);
      if (inserted) ++pending_total;
    }
    ++publishing;
  }
  scheduler_cv.notify_all();
  publish(out);
  {
    std::lock_guard<std::mutex> lock(mutex);
    --publishing;
  }
  scheduler_cv.notify_all();
  return run;
}

void ServiceImpl::deliver_item_locked(const std::shared_ptr<RunState>& run,
                                      std::size_t index, bool mismatch,
                                      Publish& out) {
  if (run->finished) return;
  const std::size_t rel = index - run->begin;
  if (run->have[rel]) return;
  run->have[rel] = 1;
  run->mismatch[rel] = mismatch ? 1 : 0;

  // Fold delivered items in index order into fixed chunks: [begin + k*C,
  // begin + (k+1)*C). Determinism: chunk boundaries depend only on the run,
  // never on which micro-batch carried the item or when it landed.
  const std::size_t len = run->end - run->begin;
  while (!run->finished && run->next < len && run->have[run->next]) {
    if (run->mismatch[run->next]) {
      if (run->chunk_first_failure < 0) {
        run->chunk_first_failure = static_cast<int>(run->begin + run->next);
      }
      ++run->chunk_mismatches;
    }
    ++run->next;
    const bool boundary =
        run->next == len || (run->next % run->chunk_size) == 0;
    if (!boundary) continue;

    VerdictStream::Chunk chunk;
    chunk.begin =
        run->begin + ((run->next - 1) / run->chunk_size) * run->chunk_size;
    chunk.end = run->begin + run->next;
    chunk.mismatches = run->chunk_mismatches;
    chunk.first_failure = run->chunk_first_failure;

    if (run->policy == StreamPolicy::kEarlyExit && run->chunk_mismatches > 0) {
      // First TAMPERED evidence: report the early-exit verdict contract of
      // validate_ip(..., early_exit=true) — the first mismatch, counted as
      // one failure, after "running" every test up to it.
      validate::Verdict verdict;
      verdict.passed = false;
      verdict.first_failure = run->chunk_first_failure;
      verdict.num_failures = 1;
      verdict.tests_run = static_cast<int>(
          static_cast<std::size_t>(run->chunk_first_failure) - run->begin + 1);
      chunk.last = true;
      if (run->stream) out.chunks.push_back({run->stream, chunk});
      finish_run_locked(run, verdict, nullptr, out);
      purge_run_locked(run);
      return;
    }

    validate::ChunkVerdict fold;
    fold.begin = chunk.begin;
    fold.end = chunk.end;
    fold.mismatches = chunk.mismatches;
    fold.first_failure = chunk.first_failure;
    validate::accumulate_chunk(run->verdict, fold);
    run->chunk_mismatches = 0;
    run->chunk_first_failure = -1;
    chunk.last = run->next == len;
    if (run->stream) out.chunks.push_back({run->stream, chunk});
    if (chunk.last) finish_run_locked(run, run->verdict, nullptr, out);
  }
}

void ServiceImpl::finish_run_locked(const std::shared_ptr<RunState>& run,
                                    validate::Verdict verdict,
                                    std::exception_ptr error, Publish& out) {
  if (run->finished) return;
  run->finished = true;
  --active_runs;
  out.dones.push_back({run, verdict, error});
  scheduler_cv.notify_all();
}

void ServiceImpl::purge_run_locked(const std::shared_ptr<RunState>& run) {
  auto it = lanes.find(run->lane_id);
  if (it == lanes.end()) return;
  Lane& lane = *it->second;
  for (auto pending_it = lane.pending.begin();
       pending_it != lane.pending.end();) {
    auto& subscribers = pending_it->second;
    subscribers.erase(std::remove(subscribers.begin(), subscribers.end(), run),
                      subscribers.end());
    if (subscribers.empty()) {
      pending_it = lane.pending.erase(pending_it);
      --pending_total;
    } else {
      ++pending_it;
    }
  }
}

void ServiceImpl::publish(Publish& out) {
  for (auto& item : out.chunks) {
    {
      std::lock_guard<std::mutex> lock(item.stream->mutex);
      item.stream->chunks.push_back(item.chunk);
    }
    item.stream->cv.notify_all();
  }
  for (auto& done : out.dones) {
    if (done.run->stream) {
      {
        std::lock_guard<std::mutex> lock(done.run->stream->mutex);
        done.run->stream->done = true;
        done.run->stream->verdict = done.verdict;
        done.run->stream->error = done.error;
      }
      done.run->stream->cv.notify_all();
    }
    if (done.error) {
      done.run->promise.set_exception(done.error);
    } else {
      done.run->promise.set_value(done.verdict);
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

std::unique_ptr<BatchJob> ServiceImpl::form_batch_locked() {
  if (lanes.empty() || pending_total == 0) return nullptr;
  // Round-robin over lanes for fairness across deliverables/sessions.
  auto start = lanes.lower_bound(lane_cursor);
  if (start == lanes.end()) start = lanes.begin();
  auto it = start;
  for (std::size_t scanned = 0; scanned < lanes.size(); ++scanned) {
    Lane& lane = *it->second;
    const std::size_t lane_id = it->first;
    ++it;
    if (it == lanes.end()) it = lanes.begin();
    if (lane.pending.empty() || lane.busy) continue;

    auto job = std::make_unique<BatchJob>();
    job->lane_id = lane_id;
    job->backend = lane.backend;
    job->bundle = lane.bundle;
    while (!lane.pending.empty() &&
           job->indices.size() < lane.micro_batch) {
      auto pending_it = lane.pending.begin();
      if (!pending_it->second.empty()) {
        job->indices.push_back(pending_it->first);
        job->subscribers.push_back(std::move(pending_it->second));
      }
      lane.pending.erase(pending_it);
      --pending_total;
    }
    if (job->indices.empty()) continue;
    job->device = std::move(lane.device);
    lane.busy = true;
    lane_cursor = lane_id + 1;
    return job;
  }
  return nullptr;
}

void ServiceImpl::run_batch(std::unique_ptr<BatchJob> job) {
  std::vector<int> labels;
  std::exception_ptr error;
  // Build (on a shareable lane's first batch) and run the device with no
  // service lock held: both are the expensive parts. The lane stays alive
  // while it is busy. A failed build leaves the device null, so the lane's
  // next batch builds again.
  try {
    if (job->device == nullptr) {
      job->device = make_device(*job->bundle, job->backend);
    }
    std::vector<Tensor> inputs;
    inputs.reserve(job->indices.size());
    for (const std::size_t index : job->indices) {
      inputs.push_back(job->bundle->suite.inputs()[index]);
    }
    labels = job->device->predict_all(inputs);
    DNNV_CHECK(labels.size() == job->indices.size(),
               "backend returned " << labels.size() << " labels for "
                                   << job->indices.size() << " tests");
  } catch (...) {
    error = std::current_exception();
  }

  Publish out;
  {
    std::lock_guard<std::mutex> lock(mutex);
    Lane& lane = *lanes.at(job->lane_id);
    lane.device = std::move(job->device);
    lane.busy = false;
    const auto& golden = job->bundle->suite.golden_labels();
    ++stats.batches;
    if (!error) stats.predicted += job->indices.size();
    for (std::size_t i = 0; i < job->indices.size(); ++i) {
      const std::size_t index = job->indices[i];
      if (!error && lane.shareable) {
        lane.label_cache[index] = labels[i];
        lane.label_known[index] = 1;
        // Serve subscribers that queued this index while the batch was in
        // flight (their submit raced the pop), so a test is never inferred
        // twice on one lane.
        auto raced = lane.pending.find(index);
        if (raced != lane.pending.end()) {
          auto raced_subscribers = std::move(raced->second);
          lane.pending.erase(raced);
          --pending_total;
          for (const auto& run : raced_subscribers) {
            if (run->finished) continue;
            ++stats.cache_served;
            deliver_item_locked(run, index, labels[i] != golden[index], out);
          }
        }
      }
      for (const auto& run : job->subscribers[i]) {
        if (run->finished) continue;
        if (error) {
          finish_run_locked(run, {}, error, out);
          purge_run_locked(run);
        } else {
          deliver_item_locked(run, index, labels[i] != golden[index], out);
        }
      }
    }
    if (lane.refs == 0) gc_lane_locked(job->lane_id);
    --inflight;
    ++publishing;
  }
  scheduler_cv.notify_all();
  publish(out);
  {
    std::lock_guard<std::mutex> lock(mutex);
    --publishing;
  }
  scheduler_cv.notify_all();
}

void ServiceImpl::scheduler_loop() {
  std::unique_lock<std::mutex> lock(mutex);
  for (;;) {
    if (stopping && pending_total == 0 && inflight == 0) return;
    if (inflight >= config.max_inflight_batches) {
      scheduler_cv.wait(lock);
      continue;
    }
    std::unique_ptr<BatchJob> job = form_batch_locked();
    if (job == nullptr) {
      if (!(stopping && pending_total == 0 && inflight == 0)) {
        scheduler_cv.wait(lock);
      }
      continue;
    }
    ++inflight;
    const bool async = config.max_inflight_batches > 1 &&
                       pool->num_threads() >= 2 && !ThreadPool::in_worker();
    lock.unlock();
    if (async) {
      // BatchJob is moved into the executor; run_batch re-locks to fold
      // results and puts the device back into its lane.
      auto* raw = job.release();
      executors.run([this, raw] { run_batch(std::unique_ptr<BatchJob>(raw)); });
    } else {
      run_batch(std::move(job));
    }
    lock.lock();
  }
}

void ServiceImpl::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex);
    stopping = true;
  }
  scheduler_cv.notify_all();
  scheduler.join();
  executors.wait();
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Public surfaces
// ---------------------------------------------------------------------------

const std::string& DeliverableHandle::id() const {
  DNNV_CHECK(entry_ != nullptr, "empty DeliverableHandle");
  return entry_->id;
}

const Deliverable& DeliverableHandle::deliverable() const {
  DNNV_CHECK(entry_ != nullptr, "empty DeliverableHandle");
  return *entry_->bundle;
}

bool VerdictStream::next(Chunk& chunk) {
  DNNV_CHECK(state_ != nullptr, "empty VerdictStream");
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock,
                  [this] { return !state_->chunks.empty() || state_->done; });
  if (state_->chunks.empty()) return false;
  chunk = state_->chunks.front();
  state_->chunks.pop_front();
  return true;
}

validate::Verdict VerdictStream::verdict() {
  DNNV_CHECK(state_ != nullptr, "empty VerdictStream");
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [this] { return state_->done; });
  if (state_->error) std::rethrow_exception(state_->error);
  return state_->verdict;
}

Session::Session(std::shared_ptr<detail::ServiceImpl> service,
                 std::shared_ptr<detail::RegistryEntry> entry,
                 SessionConfig config, std::size_t lane)
    : service_(std::move(service)),
      entry_(std::move(entry)),
      config_(std::move(config)),
      lane_(lane) {}

Session::~Session() { service_->close_session(lane_); }

std::size_t Session::suite_size() const {
  return entry_->bundle->suite.size();
}

const Deliverable& Session::deliverable() const { return *entry_->bundle; }

std::future<validate::Verdict> Session::submit() {
  return submit(0, suite_size());
}

std::future<validate::Verdict> Session::submit(std::size_t begin,
                                               std::size_t end) {
  auto run = service_->submit(*this, begin, end, /*want_stream=*/false);
  return run->promise.get_future();
}

VerdictStream Session::stream() { return stream(0, suite_size()); }

VerdictStream Session::stream(std::size_t begin, std::size_t end) {
  auto run = service_->submit(*this, begin, end, /*want_stream=*/true);
  return VerdictStream(run->stream);
}

ValidationService::ValidationService() : ValidationService(Config()) {}

ValidationService::ValidationService(Config config)
    : impl_(std::make_shared<detail::ServiceImpl>(config)) {}

ValidationService::~ValidationService() {
  if (impl_ != nullptr) impl_->shutdown();
}

DeliverableHandle ValidationService::load_file(const std::string& path,
                                               std::uint64_t key) {
  return impl_->load_file(path, key);
}

DeliverableHandle ValidationService::adopt(Deliverable deliverable,
                                           const std::string& id) {
  return impl_->adopt(std::move(deliverable), id);
}

std::shared_ptr<Session> ValidationService::open_session(
    const DeliverableHandle& handle, SessionConfig config) {
  return impl_->open_session(impl_, handle.entry_, std::move(config));
}

std::size_t ValidationService::resident_deliverables() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->registry.size();
}

void ValidationService::drain() {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  // finish_run_locked and run_batch both notify scheduler_cv after their
  // counters drop, so this wakes exactly when the scheduler goes empty.
  // `publishing` covers the window between a run finishing (counters at
  // zero) and its promise/stream actually being fulfilled outside the
  // lock — after drain() returns, every verdict future is ready.
  impl_->scheduler_cv.wait(lock, [this] {
    return impl_->pending_total == 0 && impl_->inflight == 0 &&
           impl_->active_runs == 0 && impl_->publishing == 0;
  });
}

ValidationService::Stats ValidationService::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->stats;
}

}  // namespace dnnv::pipeline
