// Async batched inference engine with SLO guardrails: the query-path
// counterpart of ParallelTrainer, hardened for sustained overload, faults,
// and live weight refresh.
//
// A serving deployment receives one scene per request from many connection
// threads, but the backbones are far more efficient on coalesced batches
// (one graph, batched GEMMs). The engine accepts per-scene requests from any
// number of producer threads, coalesces them into fixed-size batches on a
// persistent dispatcher thread, runs the owned Method's Predict (forward-only
// under NoGradGuard) on the training-worker pool, and delivers each request's
// prediction — or the exception that prevented it — through a future.
//
// Threading model:
//   - Submit is thread-safe and NON-BLOCKING with respect to execution: it
//     enqueues the request under the engine mutex, wakes the dispatcher, and
//     returns the future. It never tensorizes, never runs Predict, and never
//     waits for a batch on the caller thread. (With max_queued_requests set
//     and OverflowPolicy::kBlock, Submit may block on QUEUE SPACE — that is
//     backpressure by configuration, never a wait on model execution beyond
//     the dispatcher retiring queue entries.)
//   - One persistent DISPATCHER thread owns batch formation and execution.
//     It sleeps on a condition variable until (a) at least
//     `max_buffered_batches` full batches are ready, (b) a Drain is
//     outstanding, (c) `max_batch_delay_ms` expired on the request at the
//     head of the queue, or (d) a queued request's deadline needs expiring —
//     then it expires overdue requests, collects the ready prefix (decided
//     under the mutex), releases the mutex, and executes the batches as task
//     groups on the training-worker pool (parallel::RunTaskGroup). The
//     dispatcher is the only thread that calls RunTaskGroup on the serving
//     path, so the worker x kernel-thread budget of tensor/parallel.h is
//     never multiplied by producer count.
//   - One persistent WATCHDOG thread covers the windows the dispatcher
//     cannot: it expires queued deadlines while the dispatcher is blocked
//     inside an execution group, and it detects an in-flight group that has
//     exceeded `stuck_batch_warn_ms` (counted in stats().stuck_batches and
//     reported once per group through the optional on_stuck_batch callback,
//     invoked with the engine mutex released). Detection never cancels the
//     group — kernels are not interruptible — it gives the layer above the
//     signal to shed, reroute, or alert while the batch is wedged.
//   - Drain is thread-safe, blocks the caller until every request submitted
//     before the call has its future ready, and pads the final underfull
//     batch. Concurrent IMPLICIT-id producers may race a Drain freely;
//     EXPLICIT-id producers must be quiesced first (see Drain). A Drain
//     interrupted by Shutdown()/destruction throws EngineStoppedError.
//
// Lifecycle: Shutdown() (idempotent, also run by the destructor) stops
// admission, fails every QUEUED request's future with EngineStoppedError,
// wakes blocked submitters and drainers (which throw EngineStoppedError),
// and stops the dispatcher after the in-flight group (if any) completes —
// in-flight requests still deliver results. Submit after shutdown returns an
// already-failed future (EngineStoppedError) instead of aborting. No future
// ever observes std::future_error (broken_promise). The destructor waits for
// blocked Drain/Submit/SwapWeights callers to leave before tearing down;
// as with any object, the caller must still ensure no NEW member calls
// begin once destruction has started.
//
// Failure delivery spine — every way a request can fail arrives through its
// future, with a typed exception (serve/errors.h) for engine-originated
// conditions:
//   - OverloadedError: admission control shed the request (queue full,
//     OverflowPolicy::kShed). Never enqueued; counted in shed_requests.
//   - DeadlineExceededError: the per-request deadline (SubmitOptions::
//     timeout_ms) expired while the request was still QUEUED. Expired
//     requests are failed before batch formation and their slot is retired
//     with the batch (padded like an absent row) — requests that DO execute
//     keep their slot, their row, and their noise stream, so their results
//     are byte-identical to a run without the expiry. A request whose batch
//     began executing always runs to completion, deadline notwithstanding.
//   - EngineStoppedError: shutdown/destruction reached the request first
//     (or rejected a Submit/Drain/SwapWeights after shutdown).
//   - InvalidRequestError: the request is malformed (a focal or neighbor
//     track of the wrong length, a non-finite point that inference reads,
//     a negative timeout_ms). Checked at Submit
//     before the request is queued, so it never reaches tensorization and
//     never fails a batch-mate; counted in invalid_requests.
//   - ServeError: an explicit id that lost the race against a deadline
//     flush, or was stranded behind a slot hole the flush padded past.
//   - Application errors: Predict / MakeBatch / allocation failures inside a
//     batch are caught and delivered VERBATIM to exactly that batch's
//     futures — future.get() rethrows the original exception, the failed
//     batch is retired (slots consumed), and the engine keeps serving later
//     batches. The engine never wraps application errors.
// The library itself still reports programming errors (malformed ids,
// invalid options) via ADAPTRAJ_CHECK, which aborts.
//
// Admission control: `max_queued_requests` bounds the pending queue (0 =
// unbounded, the legacy behaviour). On overflow, OverflowPolicy::kShed fails
// the new request fast with OverloadedError — sustained 2x overload then
// holds memory at the bound and sheds the excess, with every submission
// accounted: requests == fulfilled + shed + expired + rejected + invalid +
// rows of failed batches (see InferenceEngineStats). kBlock instead parks the
// submitter until the dispatcher retires queue entries (classic
// backpressure; prefer implicit ids or an enabled deadline flush with
// kBlock — a blocked explicit-id producer whose own ids are needed to
// complete the head batch would otherwise wait on itself).
//
// SLO telemetry: stats() carries fixed log-bucket histograms (lock-cheap to
// record, snapshot by value) of per-request QUEUE WAIT (enqueue ->
// collection into a batch, accepted requests only) and per-batch EXECUTION
// time, so p50/p95/p99 are one Quantile() call away; plus counters for every
// disposition and a peak-queue-depth watermark. eval::MeasureEnginePoissonLoad
// drives the engine open-loop (Poisson arrivals) and reports
// throughput-vs-latency from these histograms.
//
// Hot-swap: SwapWeights(source) builds a warm standby — a CloneForServing
// copy of `source` (and, for non-reentrant methods, a standby ReplicaPool
// cloned from it) — entirely OUTSIDE the engine lock, then flips the engine
// to it at a batch boundary: the swap waits until no group is executing, so
// every batch (and therefore every request) is served entirely by the old
// weights or entirely by the new ones, bit-exactly — never a mix. Queued
// requests are never dropped by a swap; they simply execute on whichever
// side of the flip their batch lands. The old method and pool are released
// after the flip (also outside the lock). Counted in stats().weight_swaps.
//
// Determinism model (mirrors the ParallelTrainer contract):
//   - Every request occupies a SLOT in a global sequence: slot r belongs to
//     batch r / batch_size at row r % batch_size. Slots are assigned by
//     submission order, or explicitly by the caller (Submit with request_id)
//     for streams that arrive out of order — with explicit ids, producer
//     count and wire interleaving cannot change the slot->batch mapping. The
//     engine buffers a batch until all of its slots are present.
//   - Batch b draws its sampling noise from an Rng seeded
//     core::TaskSeed(options.seed, b): a private stream per batch,
//     independent of execution interleaving, worker count, and replica slot.
//   - A partial batch is padded to the fixed width by cycling its real
//     scenes; padded rows are computed and discarded. Padding happens at a
//     FLUSH POINT — a Drain, or a max_batch_delay_ms expiry — and the flush
//     schedule is part of the request schedule: it decides that batch's
//     composition exactly as in the PR-4 engine. With the deadline disabled
//     (the default), flush points are the Drain calls alone and results are
//     byte-identical to the synchronous engine for any producer count,
//     worker count, and dispatch cadence at a fixed seed (asserted by
//     tests/serve/). A deadline expiry removes only the EXPIRED request's
//     row content (its slot pads like a missing tail row); surviving rows'
//     bytes are unchanged — each row's result depends only on its own scene,
//     its row index, and its batch's noise stream, the same property padding
//     has always relied on.
//   - Reentrant methods execute ready batches concurrently on the shared
//     master model. Non-reentrant methods (LBEBM: the Langevin sampler
//     writes its model's gradient buffers) execute on a serve::ReplicaPool
//     of private model copies, batch b pinned to replica b % R, in waves
//     whose members never share a replica — concurrency without the data
//     race, bit-identical to serialized execution because the replicas hold
//     byte-identical parameters and every kernel is bit-deterministic for
//     any thread count (see tensor/parallel.h). If the method cannot be
//     cloned (Method::CloneForServing returns nullptr) or the pool is capped
//     at one slot, batches run one at a time as before.
//
// Encoder caching: when the served method supports the encode/decode split
// (core::Method::predict_encode_width() > 0) and the cache is enabled
// (options.encode_cache, kAuto following ADAPTRAJ_ENCODE_CACHE), the engine
// keys every batch row by its encoder-input bytes in a serve::EncodeCache
// and runs the encoder only for rows it has never seen: cached rows are
// gathered, miss rows are encoded in a sub-batch copied out of the batch at
// the same neighbor-slot width, and the decode half runs over the full
// batch. A batch costs one cache-lock round-trip to probe and one to admit
// its misses (see the per-batch protocol in serve/encode_cache.h). Served
// bytes are IDENTICAL with the cache on or off — the cache stores exact
// encoder outputs keyed by exact encoder inputs, and every kernel is
// bit-deterministic (see serve/encode_cache.h for the correctness model).
// One cache is shared by the master and all replica clones (their weights
// are byte-identical). The cache invalidates when the served master's
// weights_version moves (an in-place Train) and at every SwapWeights flip.
// Methods without the split (e.g. fault-injection wrappers) serve through
// the combined Predict, cache or no cache.
//
// Memory: per-request results are materialized as independent [1,
// pred_len*2] tensors (ops::Slice copies rows into fresh storage and no-grad
// mode attaches no graph back to the batch output), so a caller that holds a
// future's tensor for a long time retains ~pred_len*2 floats, never the
// whole [batch_size, pred_len*2] batch buffer. With max_queued_requests set,
// queued scenes are bounded too — the engine's footprint under overload is
// O(bound), not O(offered load).

#ifndef ADAPTRAJ_SERVE_INFERENCE_ENGINE_H_
#define ADAPTRAJ_SERVE_INFERENCE_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/method.h"
#include "serve/encode_cache.h"
#include "serve/errors.h"
#include "serve/latency_histogram.h"
#include "serve/replica_pool.h"
#include "support/sync.h"
#include "support/thread_annotations.h"

namespace adaptraj {
namespace serve {

/// What Submit does when the queue already holds max_queued_requests.
enum class OverflowPolicy {
  /// Fail the new request fast through its future (OverloadedError).
  kShed,
  /// Block the submitting thread until space frees (backpressure) or the
  /// engine shuts down (EngineStoppedError through the future).
  kBlock,
};

/// Configuration of one engine instance.
struct InferenceEngineOptions {
  /// Fixed coalescing width. Every executed batch has exactly this many
  /// rows; partial tails are padded.
  int batch_size = 32;
  /// Draw one of the multi-modal futures (true) or the most-likely one.
  bool sample = true;
  /// Base seed of the per-batch noise streams.
  uint64_t seed = 0;
  /// Window configuration used to tensorize submitted scenes.
  data::SequenceConfig sequence;
  /// Full batches buffered before the dispatcher executes a group; more
  /// batching per RunTaskGroup call amortizes pool handoff. 0 = the
  /// training-worker count (parallel::NumTrainWorkers()).
  int max_buffered_batches = 0;
  /// Deadline flush: when > 0, the dispatcher executes the pending
  /// contiguous prefix — padding an underfull tail — once the request at the
  /// head of the queue has waited this long, so a lone request is served
  /// without a Drain. 0 (default) disables the deadline; partial batches
  /// then wait for Drain, which keeps batch composition independent of
  /// timing (the determinism-test configuration).
  int max_batch_delay_ms = 0;
  /// Replica slots for non-reentrant methods (see serve::ReplicaPool).
  /// 0 = auto: the training-worker count. 1 = no copies, serialize batches.
  /// Ignored for reentrant methods, which share the master safely.
  int num_replicas = 0;
  /// Admission bound on the pending-request queue. 0 (default) = unbounded.
  /// On overflow, `overflow_policy` decides between shedding and blocking.
  int max_queued_requests = 0;
  /// Applied when a Submit finds the queue at max_queued_requests.
  OverflowPolicy overflow_policy = OverflowPolicy::kShed;
  /// Watchdog threshold: when > 0 and an execution group has been in flight
  /// this long, stats().stuck_batches increments and `on_stuck_batch` fires
  /// (once per group). 0 disables stuck detection; the watchdog thread then
  /// only serves deadline expiry.
  int stuck_batch_warn_ms = 0;
  /// Called by the watchdog (mutex released) when a group trips
  /// stuck_batch_warn_ms, with the group's elapsed milliseconds. Use it for
  /// graceful degradation above the engine: alert, reroute, pre-shed.
  std::function<void(int64_t elapsed_ms)> on_stuck_batch;
  /// Cross-request encoder cache (see the file comment): kAuto follows the
  /// ADAPTRAJ_ENCODE_CACHE kill-switch; kOn/kOff pin it programmatically.
  /// Only effective for methods supporting the encode/decode split.
  EncodeCacheMode encode_cache = EncodeCacheMode::kAuto;
  /// LRU byte budget of the encoder cache.
  int64_t encode_cache_bytes = 64ll << 20;
};

/// Per-request Submit options (the parameterless Submit overloads use the
/// defaults).
struct SubmitOptions {
  /// Deadline for QUEUED time: if the request has not been collected into a
  /// batch within this budget, it fails with DeadlineExceededError and its
  /// slot pads away. 0 = no deadline. A request that entered execution is
  /// never expired.
  int timeout_ms = 0;
};

/// Cumulative counters and latency histograms for tests and telemetry.
/// Values are a coherent snapshot taken under the engine mutex (see
/// InferenceEngine::stats). Disposition accounting: every submission lands
/// in exactly one of {fulfilled, shed_requests, expired_requests,
/// rejected_requests, stopped_requests, invalid_requests, rows of failed
/// batches}, so fulfilled = requests - shed - expired - rejected - stopped -
/// invalid - failed rows.
struct InferenceEngineStats {
  int64_t requests = 0;          // Submit calls, accepted or not
  int64_t batches = 0;           // batches executed (including failed ones)
  int64_t padded_rows = 0;       // rows computed for padding and discarded
  int64_t failed_batches = 0;    // batches whose futures carry an exception
  int64_t deadline_flushes = 0;  // flushes triggered by max_batch_delay_ms
  /// Requests refused without enqueueing: explicit ids that lost the race
  /// against a deadline flush, ids stranded behind a padded-past slot hole,
  /// and Submits after shutdown.
  int64_t rejected_requests = 0;
  /// Admission-control rejections (queue full, OverflowPolicy::kShed).
  int64_t shed_requests = 0;
  /// Queued requests failed by their per-request deadline.
  int64_t expired_requests = 0;
  /// Queued requests failed by Shutdown()/destruction before execution.
  int64_t stopped_requests = 0;
  /// Malformed requests refused at Submit (InvalidRequestError).
  int64_t invalid_requests = 0;
  /// Execution groups that exceeded stuck_batch_warn_ms (one per group).
  int64_t stuck_batches = 0;
  /// SwapWeights flips completed.
  int64_t weight_swaps = 0;
  /// Gauge: batches in the currently executing group (0 when idle).
  int64_t inflight_batches = 0;
  /// Watermark: largest pending-queue depth observed at enqueue.
  int64_t peak_queue_depth = 0;
  /// Per accepted request: enqueue -> collection into an executable batch.
  LatencyHistogram queue_wait;
  /// Per executed batch: MakeBatch + Predict + per-row slicing.
  LatencyHistogram batch_exec;
  /// Execution-plan telemetry summed over the served method and its replica
  /// clones (each owns a private plan cache; see tensor/plan.h). After a
  /// SwapWeights the counters restart from the standby's empty caches —
  /// plan hits/misses describe the currently served instance, not the
  /// engine's lifetime.
  plan::CacheStats plan;
  /// Encoder-cache telemetry (all zeros when the cache is disabled or the
  /// method lacks the encode/decode split). Unlike `plan`, these counters
  /// are engine-lifetime: the cache object survives SwapWeights (its
  /// entries are invalidated, the counters keep accumulating).
  EncodeCacheStats encode_cache;
};

/// Coalescing async batch server over one trained Method. See the file
/// comment for the threading, failure-delivery, SLO, hot-swap, and
/// determinism model.
class InferenceEngine {
 public:
  /// Serves a method owned elsewhere; `method` must outlive the engine (or
  /// the engine's first SwapWeights, whichever comes first).
  InferenceEngine(const core::Method* method, const InferenceEngineOptions& options);
  /// Takes ownership of the method.
  InferenceEngine(std::unique_ptr<core::Method> method,
                  const InferenceEngineOptions& options);

  /// Runs Shutdown(), waits for blocked Drain/Submit/SwapWeights callers to
  /// leave, then joins the dispatcher and watchdog; does not drain. Queued
  /// requests fail with EngineStoppedError; the in-flight group still
  /// delivers. Call Drain() first for a graceful shutdown.
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Enqueues a scene at the next free slot (submission order) and returns a
  /// future for that scene's predicted displacements [1, pred_len*2]. The
  /// scene is copied; the caller's storage is not retained. Thread-safe;
  /// never executes batches on the caller thread. NOTE: with multiple
  /// producer threads the slot a request gets depends on lock acquisition
  /// order — use the explicit-id overload when the slot must be
  /// reproducible.
  std::future<Tensor> Submit(const data::TrajectorySequence& scene)
      ADAPTRAJ_EXCLUDES(mu_);
  /// As above with per-request options (deadline).
  std::future<Tensor> Submit(const data::TrajectorySequence& scene,
                             const SubmitOptions& submit_options)
      ADAPTRAJ_EXCLUDES(mu_);

  /// Enqueues a scene at an explicit slot, for request streams that arrive
  /// out of order or from several producer threads. Slots must be unique and
  /// must not precede an already executed batch (a checked error — except
  /// with max_batch_delay_ms enabled, where a deadline flush can retire slot
  /// space on a timer the producers cannot observe: an id that loses that
  /// race is rejected through its future instead, as is an already-pending
  /// id stranded behind a slot hole the deadline padded past). The engine
  /// holds a batch until every one of its slots has arrived.
  std::future<Tensor> Submit(uint64_t request_id, const data::TrajectorySequence& scene)
      ADAPTRAJ_EXCLUDES(mu_);
  /// As above with per-request options (deadline).
  std::future<Tensor> Submit(uint64_t request_id, const data::TrajectorySequence& scene,
                             const SubmitOptions& submit_options)
      ADAPTRAJ_EXCLUDES(mu_);

  /// Flushes everything pending — including a padded partial tail — and
  /// blocks until every request submitted before this call has its future
  /// ready (fulfilled or failed). All slots up to the highest submitted one
  /// must be present (a gap in an out-of-order stream is a checked error),
  /// so quiesce explicit-id producers — join them, or otherwise ensure their
  /// slot ranges are complete — before calling Drain: a strided producer
  /// caught mid-stream leaves transient holes. Implicit-id producers assign
  /// contiguous slots under the engine mutex and can never create a hole, so
  /// Drain may race them freely (which of their requests land before the
  /// flush is then timing-dependent, as the file comment describes).
  /// Throws EngineStoppedError if the engine shuts down before (or while)
  /// the drain completes.
  void Drain() ADAPTRAJ_EXCLUDES(mu_);

  /// Stops the engine: admission closes (Submit returns EngineStoppedError
  /// futures), queued requests fail with EngineStoppedError, blocked
  /// submitters and drainers wake (drainers throw), the dispatcher exits
  /// after the in-flight group delivers its results. Idempotent;
  /// thread-safe; called by the destructor.
  void Shutdown() ADAPTRAJ_EXCLUDES(mu_);

  /// Atomically replaces the served weights with a warm-standby clone of
  /// `source` (source.CloneForServing(); for non-reentrant methods a fresh
  /// ReplicaPool is cloned from the standby too). Standby construction runs
  /// outside the engine lock; the flip happens at a batch boundary, so every
  /// request is served entirely by the old weights or entirely by the new
  /// ones and none is dropped. Blocks until the flip lands (bounded by the
  /// in-flight group). `source` must be structurally compatible with the
  /// engine's options (typically: the same method type, trained further).
  /// Throws EngineStoppedError if the engine is (or becomes) shut down, and
  /// ServeError if `source` cannot be cloned.
  void SwapWeights(const core::Method& source) ADAPTRAJ_EXCLUDES(mu_);

  /// Coherent snapshot of the cumulative counters and histograms.
  InferenceEngineStats stats() const ADAPTRAJ_EXCLUDES(mu_);
  const InferenceEngineOptions& options() const { return options_; }
  /// The currently served method (the standby clone after a SwapWeights).
  /// Do not call concurrently with SwapWeights — that caller-side contract,
  /// not a lock, is what makes the unguarded read safe (annotated as the
  /// audited exception; taking mu_ here would only shrink, not close, the
  /// race window, since the reference outlives the accessor anyway).
  const core::Method& method() const ADAPTRAJ_NO_THREAD_SAFETY_ANALYSIS {
    return *method_;
  }
  /// Concurrency slots for non-reentrant methods: the replica-pool size, or
  /// 1 when batches are serialized. Reentrant methods report 1 (they share
  /// the master without a pool).
  int num_replica_slots() const ADAPTRAJ_EXCLUDES(mu_);

 private:
  struct PendingRequest {
    data::TrajectorySequence scene;
    std::promise<Tensor> promise;
    std::chrono::steady_clock::time_point enqueue_time;
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;
    /// Tombstone: the deadline already failed the promise; the entry only
    /// holds the slot (its scene is released) until its batch retires.
    bool expired = false;
  };

  /// One executable batch: its index, its rows in slot order (scenes and
  /// promises parallel; `expired[r]` marks tombstone rows whose promise is
  /// already failed and whose slot pads away), and the outcome.
  struct ReadyBatch {
    uint64_t index = 0;
    std::vector<data::TrajectorySequence> scenes;
    std::vector<std::promise<Tensor>> promises;
    std::vector<char> expired;
    size_t live_rows = 0;
    std::vector<Tensor> results;  // one per row on success; empty for expired
    std::exception_ptr error;     // set instead of results on failure
    double exec_seconds = 0.0;    // filled by RunOneBatch when executed
  };

  void DispatcherLoop() ADAPTRAJ_EXCLUDES(mu_);
  void WatchdogLoop() ADAPTRAJ_EXCLUDES(mu_);
  /// Shared body of the four Submit overloads.
  std::future<Tensor> SubmitImpl(bool has_explicit_id, uint64_t request_id,
                                 const data::TrajectorySequence& scene,
                                 const SubmitOptions& submit_options)
      ADAPTRAJ_EXCLUDES(mu_);
  /// Validates the slot, records the request, and returns its future.
  std::future<Tensor> SubmitLocked(uint64_t request_id,
                                   const data::TrajectorySequence& scene,
                                   const SubmitOptions& submit_options)
      ADAPTRAJ_REQUIRES(mu_);
  /// Builds an already-failed future carrying `error`; bumping
  /// rejected/shed accounting is the caller's job.
  static std::future<Tensor> FailedFuture(std::exception_ptr error);
  /// Fails every queued request whose deadline has passed
  /// (DeadlineExceededError), leaving slot tombstones.
  void ExpireOverdueLocked(std::chrono::steady_clock::time_point now)
      ADAPTRAJ_REQUIRES(mu_);
  /// Earliest pending per-request deadline, or time_point::max().
  std::chrono::steady_clock::time_point NextRequestDeadlineLocked() const
      ADAPTRAJ_REQUIRES(mu_);
  /// Length of the contiguous pending-slot run starting at the next
  /// unexecuted batch boundary.
  uint64_t ContiguousRunLocked() const ADAPTRAJ_REQUIRES(mu_);
  /// Moves the ready prefix (full batches; with `include_partial_tail` also
  /// the underfull tail) out of the pending map, records queue-wait
  /// samples, and advances the slot cursors.
  std::vector<ReadyBatch> CollectGroupLocked(bool include_partial_tail)
      ADAPTRAJ_REQUIRES(mu_);
  /// Executes a collected group on the worker pool, filling each batch's
  /// results or error. Runs on the dispatcher with mu_ released; the
  /// dispatcher then updates stats and fulfills the promises under mu_.
  /// `master`/`replicas` are the served instance captured under mu_ at the
  /// batch boundary — passing them (rather than re-reading method_ /
  /// replicas_ unlocked) makes the SwapWeights flip protocol visible to the
  /// thread-safety analysis instead of relying on it implicitly.
  void ExecuteGroup(std::vector<ReadyBatch>* group, const core::Method* master,
                    const ReplicaPool* replicas) const;
  /// `master` is the served master (for weights_version); `method` the
  /// instance this batch runs on (a replica, or the master itself).
  void RunOneBatch(ReadyBatch* rb, const core::Method* method,
                   const core::Method* master) const;
  /// Predict with the encoder cache in front of the Encode half: gathers
  /// cached rows, encodes only unseen rows (in a sub-batch copied out of
  /// `batch` at its neighbor-slot width), and decodes the full batch. Falls
  /// back to the combined Predict when the cache is off.
  Tensor PredictThroughCache(const data::Batch& batch, const core::Method* method,
                             const core::Method* master, Rng* rng) const;
  /// Builds the replica pool an engine over `method` needs (null when the
  /// method is reentrant or pooling is disabled/impossible).
  std::unique_ptr<ReplicaPool> MakeReplicaPool(const core::Method* method) const;

  /// The served master. Flipped by SwapWeights under mu_ at a batch
  /// boundary; the execution path reads a copy captured under mu_ (see
  /// ExecuteGroup), never this field directly.
  const core::Method* method_ ADAPTRAJ_GUARDED_BY(mu_);
  std::unique_ptr<core::Method> owned_method_ ADAPTRAJ_GUARDED_BY(mu_);
  InferenceEngineOptions options_;
  /// Private model copies for non-reentrant methods; null when the master is
  /// shared (reentrant) or serialization is requested (num_replicas == 1).
  std::unique_ptr<ReplicaPool> replicas_ ADAPTRAJ_GUARDED_BY(mu_);
  /// Cross-request encoder cache, shared by the master and every replica
  /// (byte-identical weights). Null when disabled or unsupported by the
  /// method. The POINTER is set once in the constructor before the service
  /// threads start and never reassigned, so it is readable without mu_; the
  /// pointed-to cache is internally mutex-guarded — safe from concurrent
  /// batches. Survives SwapWeights (invalidated at the flip).
  std::unique_ptr<EncodeCache> encode_cache_;

  mutable support::Mutex mu_;
  /// Wakes the dispatcher (new work, drain, shutdown).
  support::CondVar dispatch_cv_;
  /// Wakes Drain waiters and SwapWeights (a group finished executing) —
  /// and, on shutdown, anyone parked on it.
  support::CondVar drained_cv_;
  /// Wakes the watchdog (new deadline, execution started, shutdown).
  support::CondVar watchdog_cv_;
  /// Wakes kBlock submitters when queue entries retire.
  support::CondVar space_cv_;
  /// Wakes the destructor when the last blocked caller leaves.
  support::CondVar idle_cv_;
  /// Requests keyed by slot id; entries move out when their batch is
  /// collected for execution.
  std::map<uint64_t, PendingRequest> pending_ ADAPTRAJ_GUARDED_BY(mu_);
  /// Queued entries carrying a live (unexpired) deadline; lets the hot path
  /// skip deadline scans entirely when nobody uses deadlines.
  int64_t armed_deadlines_ ADAPTRAJ_GUARDED_BY(mu_) = 0;
  /// External threads currently blocked inside Drain/Submit/SwapWeights.
  int blocked_callers_ ADAPTRAJ_GUARDED_BY(mu_) = 0;
  /// Next slot assigned by the implicit Submit overload.
  uint64_t next_auto_id_ ADAPTRAJ_GUARDED_BY(mu_) = 0;
  /// First batch index that has not been collected for execution yet.
  uint64_t next_batch_ ADAPTRAJ_GUARDED_BY(mu_) = 0;
  /// Exclusive slot bound the dispatcher must flush through (max over
  /// outstanding Drain calls).
  uint64_t drain_until_slot_ ADAPTRAJ_GUARDED_BY(mu_) = 0;
  /// True while the dispatcher is executing a group outside the mutex.
  bool executing_ ADAPTRAJ_GUARDED_BY(mu_) = false;
  /// When the in-flight group started, and whether the watchdog already
  /// counted it as stuck.
  std::chrono::steady_clock::time_point exec_start_ ADAPTRAJ_GUARDED_BY(mu_){};
  bool stuck_reported_ ADAPTRAJ_GUARDED_BY(mu_) = false;
  bool shutdown_ ADAPTRAJ_GUARDED_BY(mu_) = false;
  InferenceEngineStats stats_ ADAPTRAJ_GUARDED_BY(mu_);
  std::thread dispatcher_;
  std::thread watchdog_;
};

}  // namespace serve
}  // namespace adaptraj

#endif  // ADAPTRAJ_SERVE_INFERENCE_ENGINE_H_
