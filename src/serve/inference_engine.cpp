#include "serve/inference_engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel_trainer.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"

namespace adaptraj {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

void ValidateOptions(const InferenceEngineOptions& options) {
  ADAPTRAJ_CHECK_MSG(options.batch_size >= 1,
                     "InferenceEngine batch_size must be >= 1; got "
                         << options.batch_size);
  ADAPTRAJ_CHECK_MSG(options.max_buffered_batches >= 0,
                     "InferenceEngine max_buffered_batches must be >= 0");
  ADAPTRAJ_CHECK_MSG(options.max_batch_delay_ms >= 0,
                     "InferenceEngine max_batch_delay_ms must be >= 0");
  ADAPTRAJ_CHECK_MSG(options.num_replicas >= 0,
                     "InferenceEngine num_replicas must be >= 0");
  ADAPTRAJ_CHECK_MSG(options.max_queued_requests >= 0,
                     "InferenceEngine max_queued_requests must be >= 0");
  ADAPTRAJ_CHECK_MSG(options.stuck_batch_warn_ms >= 0,
                     "InferenceEngine stuck_batch_warn_ms must be >= 0");
  ADAPTRAJ_CHECK_MSG(options.encode_cache_bytes > 0,
                     "InferenceEngine encode_cache_bytes must be > 0; got "
                         << options.encode_cache_bytes);
}

/// Resolves the engine's tri-state cache switch to on/off.
bool EncodeCacheResolvedOn(EncodeCacheMode mode) {
  switch (mode) {
    case EncodeCacheMode::kOn: return true;
    case EncodeCacheMode::kOff: return false;
    case EncodeCacheMode::kAuto: return EncodeCacheEnabledByEnv();
  }
  return false;
}

/// Why a request cannot be served (empty when it can): the checks that keep
/// a malformed scene out of MakeBatch, whose length checks abort.
std::string RequestError(const data::TrajectorySequence& scene,
                         const SubmitOptions& submit_options,
                         const data::SequenceConfig& sequence) {
  if (submit_options.timeout_ms < 0) {
    return "Submit timeout_ms must be >= 0; got " +
           std::to_string(submit_options.timeout_ms);
  }
  const size_t total_len = static_cast<size_t>(sequence.total_len());
  if (scene.focal.size() != total_len) {
    return "scene focal track has " + std::to_string(scene.focal.size()) +
           " points; the engine's window needs obs_len + pred_len = " +
           std::to_string(total_len);
  }
  const size_t obs_len = static_cast<size_t>(sequence.obs_len);
  for (size_t m = 0; m < scene.neighbors.size(); ++m) {
    if (scene.neighbors[m].size() != obs_len) {
      return "scene neighbor " + std::to_string(m) + " has " +
             std::to_string(scene.neighbors[m].size()) +
             " points; the engine's window needs obs_len = " + std::to_string(obs_len);
    }
  }
  return std::string();
}

}  // namespace

InferenceEngine::InferenceEngine(const core::Method* method,
                                 const InferenceEngineOptions& options)
    : method_(method), options_(options) {
  ADAPTRAJ_CHECK_MSG(method != nullptr, "InferenceEngine over null method");
  ValidateOptions(options_);
  {
    // Uncontended (the service threads start below); taken so the guarded
    // members are initialized under their capability like everywhere else.
    support::MutexLock lock(mu_);
    replicas_ = MakeReplicaPool(method_);
    if (EncodeCacheResolvedOn(options_.encode_cache) &&
        method_->predict_encode_width() > 0) {
      EncodeCacheOptions cache_options;
      cache_options.max_bytes = options_.encode_cache_bytes;
      cache_options.identity = method_->name() + ":" +
                               std::to_string(method_->predict_encode_width());
      encode_cache_ = std::make_unique<EncodeCache>(cache_options);
    }
  }
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

InferenceEngine::InferenceEngine(std::unique_ptr<core::Method> method,
                                 const InferenceEngineOptions& options)
    : InferenceEngine(method.get(), options) {
  support::MutexLock lock(mu_);
  owned_method_ = std::move(method);
}

InferenceEngine::~InferenceEngine() {
  Shutdown();
  {
    // Blocked Drain/Submit/SwapWeights callers woke at Shutdown; wait for
    // the last of them to leave our condition variables before tearing the
    // synchronization primitives down.
    support::MutexLock lock(mu_);
    while (blocked_callers_ != 0) idle_cv_.Wait(lock);
  }
  if (dispatcher_.joinable()) dispatcher_.join();
  if (watchdog_.joinable()) watchdog_.join();
}

void InferenceEngine::Shutdown() {
  {
    support::MutexLock lock(mu_);
    if (!shutdown_) {
      shutdown_ = true;
      // Lossless error delivery even on teardown: queued requests that never
      // executed fail with a typed, descriptive error instead of a broken
      // promise. The in-flight group (already moved out of pending_) still
      // delivers its results when the dispatcher returns.
      for (auto& entry : pending_) {
        if (entry.second.expired) continue;  // already failed by its deadline
        ++stats_.stopped_requests;
        entry.second.promise.set_exception(std::make_exception_ptr(EngineStoppedError(
            "InferenceEngine shut down or destroyed before the request at slot " +
            std::to_string(entry.first) +
            " executed; call Drain() before stopping")));
      }
      pending_.clear();
      armed_deadlines_ = 0;
    }
  }
  dispatch_cv_.NotifyAll();
  watchdog_cv_.NotifyAll();
  space_cv_.NotifyAll();
  drained_cv_.NotifyAll();
}

std::unique_ptr<ReplicaPool> InferenceEngine::MakeReplicaPool(
    const core::Method* method) const {
  if (method->reentrant_predict()) return nullptr;
  const int slots = options_.num_replicas > 0 ? options_.num_replicas
                                              : parallel::NumTrainWorkers();
  if (slots <= 1) return nullptr;
  return std::make_unique<ReplicaPool>(method, slots);
}

int InferenceEngine::num_replica_slots() const {
  // Under mu_: SwapWeights replaces the pool at the flip (the unlocked read
  // this used to do was benign only while no caller overlapped a swap —
  // surfaced by -Wthread-safety, fixed by locking).
  support::MutexLock lock(mu_);
  return replicas_ != nullptr ? replicas_->size() : 1;
}

InferenceEngineStats InferenceEngine::stats() const {
  support::MutexLock lock(mu_);
  InferenceEngineStats snapshot = stats_;
  // method_/replicas_ are stable under mu_ (SwapWeights flips them under the
  // same lock); replica slot 0 aliases method_, so start the sum at slot 1.
  snapshot.plan = method_->plan_stats();
  if (replicas_ != nullptr) {
    for (int slot = 1; slot < replicas_->size(); ++slot) {
      snapshot.plan += replicas_->method(slot)->plan_stats();
    }
  }
  if (encode_cache_ != nullptr) snapshot.encode_cache = encode_cache_->stats();
  return snapshot;
}

std::future<Tensor> InferenceEngine::FailedFuture(std::exception_ptr error) {
  std::promise<Tensor> promise;
  promise.set_exception(std::move(error));
  return promise.get_future();
}

std::future<Tensor> InferenceEngine::Submit(const data::TrajectorySequence& scene) {
  return SubmitImpl(/*has_explicit_id=*/false, 0, scene, SubmitOptions());
}

std::future<Tensor> InferenceEngine::Submit(const data::TrajectorySequence& scene,
                                            const SubmitOptions& submit_options) {
  return SubmitImpl(/*has_explicit_id=*/false, 0, scene, submit_options);
}

std::future<Tensor> InferenceEngine::Submit(uint64_t request_id,
                                            const data::TrajectorySequence& scene) {
  return SubmitImpl(/*has_explicit_id=*/true, request_id, scene, SubmitOptions());
}

std::future<Tensor> InferenceEngine::Submit(uint64_t request_id,
                                            const data::TrajectorySequence& scene,
                                            const SubmitOptions& submit_options) {
  return SubmitImpl(/*has_explicit_id=*/true, request_id, scene, submit_options);
}

std::future<Tensor> InferenceEngine::SubmitImpl(bool has_explicit_id,
                                                uint64_t request_id,
                                                const data::TrajectorySequence& scene,
                                                const SubmitOptions& submit_options) {
  // Validated before mu_ is taken: a malformed scene would otherwise abort
  // the process inside MakeBatch on the dispatcher, taking its batch-mates
  // (and every queued request) with it.
  const std::string invalid = RequestError(scene, submit_options, options_.sequence);
  if (!invalid.empty()) {
    {
      support::MutexLock lock(mu_);
      ++stats_.requests;
      ++stats_.invalid_requests;
    }
    return FailedFuture(std::make_exception_ptr(InvalidRequestError(invalid)));
  }
  std::future<Tensor> future;
  {
    support::MutexLock lock(mu_);
    const size_t bound = static_cast<size_t>(options_.max_queued_requests);
    if (!shutdown_ && bound > 0 && pending_.size() >= bound) {
      if (options_.overflow_policy == OverflowPolicy::kShed) {
        // Admission control: fail fast, never enqueue. The caller branches
        // on OverloadedError (retry with backoff, divert to another shard).
        ++stats_.requests;
        ++stats_.shed_requests;
        return FailedFuture(std::make_exception_ptr(OverloadedError(
            "request shed: the engine queue already holds " +
            std::to_string(pending_.size()) + " requests (max_queued_requests=" +
            std::to_string(options_.max_queued_requests) + ")")));
      }
      // Backpressure: park the producer until the dispatcher retires queue
      // entries — or shutdown turns the wait into a typed failure.
      ++blocked_callers_;
      while (!shutdown_ && pending_.size() >= bound) space_cv_.Wait(lock);
      --blocked_callers_;
      idle_cv_.NotifyAll();
    }
    if (shutdown_) {
      ++stats_.requests;
      ++stats_.rejected_requests;
      return FailedFuture(std::make_exception_ptr(
          EngineStoppedError("Submit on a stopped InferenceEngine")));
    }
    future = SubmitLocked(has_explicit_id ? request_id : next_auto_id_, scene,
                          submit_options);
  }
  dispatch_cv_.NotifyOne();
  if (submit_options.timeout_ms > 0) watchdog_cv_.NotifyOne();
  return future;
}

std::future<Tensor> InferenceEngine::SubmitLocked(uint64_t request_id,
                                                  const data::TrajectorySequence& scene,
                                                  const SubmitOptions& submit_options) {
  const uint64_t batch_size = static_cast<uint64_t>(options_.batch_size);
  if (request_id < next_batch_ * batch_size && options_.max_batch_delay_ms > 0) {
    // With the deadline enabled, the dispatcher retires slot space on a
    // timer the producers cannot observe, so an explicit id landing in an
    // already-flushed batch is an operational race, not a programming
    // error — deliver it through the future instead of aborting the server.
    ++stats_.requests;
    ++stats_.rejected_requests;
    return FailedFuture(std::make_exception_ptr(ServeError(
        "request id " + std::to_string(request_id) +
        " arrived after its batch was already flushed (a max_batch_delay_ms "
        "deadline flush or a concurrent Drain retired its slot range)")));
  }
  ADAPTRAJ_CHECK_MSG(request_id >= next_batch_ * batch_size,
                     "request id " << request_id << " belongs to batch "
                                   << request_id / batch_size
                                   << ", which already executed");
  ADAPTRAJ_CHECK_MSG(pending_.find(request_id) == pending_.end(),
                     "duplicate request id " << request_id);
  PendingRequest req;
  req.scene = scene;
  req.enqueue_time = Clock::now();
  if (submit_options.timeout_ms > 0) {
    req.has_deadline = true;
    req.deadline =
        req.enqueue_time + std::chrono::milliseconds(submit_options.timeout_ms);
    ++armed_deadlines_;
  }
  std::future<Tensor> future = req.promise.get_future();
  pending_.emplace(request_id, std::move(req));
  next_auto_id_ = std::max(next_auto_id_, request_id + 1);
  ++stats_.requests;
  stats_.peak_queue_depth = std::max(stats_.peak_queue_depth,
                                     static_cast<int64_t>(pending_.size()));
  return future;
}

void InferenceEngine::ExpireOverdueLocked(Clock::time_point now) {
  if (armed_deadlines_ <= 0) return;
  for (auto& entry : pending_) {
    PendingRequest& req = entry.second;
    if (!req.has_deadline || req.expired || req.deadline > now) continue;
    // Fail the future now, but keep the slot as a tombstone: removing the
    // entry would shift every later request's slot->batch mapping. The
    // tombstone pads away when its batch is collected; its scene is
    // released immediately so an expired backlog cannot pin memory.
    ++stats_.expired_requests;
    --armed_deadlines_;
    req.promise.set_exception(std::make_exception_ptr(DeadlineExceededError(
        "request at slot " + std::to_string(entry.first) +
        " spent longer than its timeout_ms queued and was expired before "
        "batch formation")));
    req.expired = true;
    req.scene = data::TrajectorySequence();
  }
}

Clock::time_point InferenceEngine::NextRequestDeadlineLocked() const {
  Clock::time_point next = Clock::time_point::max();
  if (armed_deadlines_ <= 0) return next;
  for (const auto& entry : pending_) {
    const PendingRequest& req = entry.second;
    if (req.has_deadline && !req.expired) next = std::min(next, req.deadline);
  }
  return next;
}

void InferenceEngine::Drain() {
  support::MutexLock lock(mu_);
  if (shutdown_) {
    throw EngineStoppedError("Drain on a stopped InferenceEngine");
  }
  if (!pending_.empty()) {
    // Out-of-order streams must be complete before the tail can be padded:
    // a hole would silently shift every later request one slot. (Expired
    // tombstones still hold their slots and count here.)
    const uint64_t first = next_batch_ * static_cast<uint64_t>(options_.batch_size);
    const uint64_t last = pending_.rbegin()->first;
    ADAPTRAJ_CHECK_MSG(pending_.size() == last - first + 1,
                       "Drain with missing request ids: have "
                           << pending_.size() << " pending in slot range ["
                           << first << ", " << last << "]");
    drain_until_slot_ = std::max(drain_until_slot_, last + 1);
  }
  const uint64_t target = drain_until_slot_;
  dispatch_cv_.NotifyOne();
  ++blocked_callers_;
  while (!shutdown_ &&
         !(next_batch_ * static_cast<uint64_t>(options_.batch_size) >= target &&
           !executing_)) {
    drained_cv_.Wait(lock);
  }
  --blocked_callers_;
  idle_cv_.NotifyAll();
  const bool complete =
      next_batch_ * static_cast<uint64_t>(options_.batch_size) >= target &&
      !executing_;
  if (!complete) {
    // Only reachable via shutdown: the engine stopped under the drainer.
    throw EngineStoppedError(
        "InferenceEngine shut down or destroyed while a Drain was waiting");
  }
}

void InferenceEngine::SwapWeights(const core::Method& source) {
  // Warm standby, built entirely outside the engine lock: traffic keeps
  // flowing while the clone and its replica pool are constructed.
  std::unique_ptr<core::Method> standby = source.CloneForServing();
  if (standby == nullptr) {
    throw ServeError("SwapWeights source method is not clonable "
                     "(CloneForServing returned nullptr)");
  }
  std::unique_ptr<ReplicaPool> standby_pool = MakeReplicaPool(standby.get());

  std::unique_ptr<core::Method> retired_method;
  std::unique_ptr<ReplicaPool> retired_pool;
  {
    support::MutexLock lock(mu_);
    // Flip at a batch boundary: the dispatcher captures method_/replicas_
    // under mu_ before releasing it to execute a group, so writing them
    // while !executing_ under mu_ can never race an in-flight group — and
    // every batch collected after the flip sees the new weights. Queued
    // requests are untouched.
    ++blocked_callers_;
    while (!shutdown_ && executing_) drained_cv_.Wait(lock);
    --blocked_callers_;
    idle_cv_.NotifyAll();
    if (shutdown_) {
      throw EngineStoppedError("SwapWeights on a stopped InferenceEngine");
    }
    retired_method = std::move(owned_method_);
    retired_pool = std::move(replicas_);
    method_ = standby.get();
    owned_method_ = std::move(standby);
    replicas_ = std::move(standby_pool);
    if (encode_cache_ != nullptr) {
      // Atomic with the flip: we hold mu_ and no group is executing, so no
      // lookup can observe an old-weights entry after the new method serves.
      encode_cache_->Invalidate();
    }
    ++stats_.weight_swaps;
  }
  // The retired method and pool are destroyed here, outside the lock.
}

uint64_t InferenceEngine::ContiguousRunLocked() const {
  const uint64_t first_slot =
      next_batch_ * static_cast<uint64_t>(options_.batch_size);
  uint64_t run = 0;
  for (auto it = pending_.lower_bound(first_slot);
       it != pending_.end() && it->first == first_slot + run; ++it) {
    ++run;
  }
  return run;
}

std::vector<InferenceEngine::ReadyBatch> InferenceEngine::CollectGroupLocked(
    bool include_partial_tail) {
  const uint64_t batch_size = static_cast<uint64_t>(options_.batch_size);
  const uint64_t run = ContiguousRunLocked();
  const uint64_t ready_full = run / batch_size;
  const uint64_t tail_rows = include_partial_tail ? run % batch_size : 0;
  const uint64_t total = ready_full + (tail_rows > 0 ? 1 : 0);
  const Clock::time_point now = Clock::now();

  std::vector<ReadyBatch> group;
  group.reserve(total);
  uint64_t slot = next_batch_ * batch_size;
  for (uint64_t b = 0; b < total; ++b) {
    const uint64_t rows = b < ready_full ? batch_size : tail_rows;
    ReadyBatch rb;
    rb.index = next_batch_;
    rb.scenes.reserve(rows);
    rb.promises.reserve(rows);
    rb.expired.reserve(rows);
    for (uint64_t r = 0; r < rows; ++r, ++slot) {
      auto it = pending_.find(slot);
      PendingRequest& req = it->second;
      rb.scenes.push_back(std::move(req.scene));
      rb.promises.push_back(std::move(req.promise));
      rb.expired.push_back(req.expired ? 1 : 0);
      if (!req.expired) {
        ++rb.live_rows;
        stats_.queue_wait.Record(Seconds(req.enqueue_time, now));
        if (req.has_deadline) --armed_deadlines_;
      }
      pending_.erase(it);
    }
    group.push_back(std::move(rb));
    ++next_batch_;
  }
  // A padded tail consumes its whole batch of the slot space: implicit
  // submissions after a flush continue at the next batch boundary.
  next_auto_id_ = std::max(next_auto_id_, next_batch_ * batch_size);
  // A deadline flush can pad past a slot hole in an out-of-order stream,
  // retiring the batch of a request still pending BEHIND the hole. That
  // request can never execute in its assigned slot: reject it through its
  // future now, or it would hang forever (and, as pending_.begin(), anchor
  // every future deadline at its stale enqueue time). Only the deadline
  // path can strand: Drain refuses holes up front, and a full-batch flush
  // consumes nothing beyond the contiguous collected run.
  const uint64_t boundary = next_batch_ * batch_size;
  while (!pending_.empty() && pending_.begin()->first < boundary) {
    auto it = pending_.begin();
    if (!it->second.expired) {
      if (it->second.has_deadline) --armed_deadlines_;
      ++stats_.rejected_requests;
      it->second.promise.set_exception(std::make_exception_ptr(ServeError(
          "request id " + std::to_string(it->first) +
          " was stranded behind a slot hole when the max_batch_delay_ms "
          "deadline flush retired its batch")));
    }
    pending_.erase(it);
  }
  return group;
}

void InferenceEngine::RunOneBatch(ReadyBatch* rb, const core::Method* method,
                                  const core::Method* master) const {
  const Clock::time_point t0 = Clock::now();
  try {
    NoGradGuard no_grad;
    const size_t rows = rb->scenes.size();
    const size_t width = static_cast<size_t>(options_.batch_size);
    // Rows keep their slot position; expired tombstone rows (and the padded
    // tail beyond `rows`) are filled by cycling the LIVE scenes, computed,
    // and discarded — exactly the property partial-tail padding has always
    // relied on: each row's result depends only on its own scene, its row
    // index, and the batch's noise stream.
    std::vector<size_t> live;
    live.reserve(rb->live_rows);
    for (size_t r = 0; r < rows; ++r) {
      if (!rb->expired[r]) live.push_back(r);
    }
    if (live.empty()) {
      // Every row expired before execution; promises already failed. The
      // batch retires without computing anything.
      rb->exec_seconds = Seconds(t0, Clock::now());
      return;
    }
    std::vector<const data::TrajectorySequence*> slots;
    slots.reserve(width);
    size_t pad_cursor = 0;
    for (size_t r = 0; r < width; ++r) {
      if (r < rows && !rb->expired[r]) {
        slots.push_back(&rb->scenes[r]);
      } else {
        slots.push_back(&rb->scenes[live[pad_cursor++ % live.size()]]);
      }
    }
    data::Batch batch = data::MakeBatch(slots, options_.sequence);
    Rng rng(core::TaskSeed(options_.seed, rb->index));
    Tensor pred = PredictThroughCache(batch, method, master, &rng);
    rb->results.assign(rows, Tensor());
    for (size_t r : live) {
      // Slice copies the row into fresh storage, and under no-grad attaches
      // no graph edge back to `pred`: a caller that keeps this tensor alive
      // retains pred_len*2 floats, never the whole batch buffer (asserted by
      // PerRequestResultsAreIndependentStorage).
      rb->results[r] = ops::Slice(pred, 0, static_cast<int64_t>(r),
                                  static_cast<int64_t>(r) + 1);
    }
  } catch (...) {
    // Deliver the original error through the batch's futures instead of
    // abandoning the promises (which would surface as an opaque
    // broken_promise at every future.get()).
    rb->results.clear();
    rb->error = std::current_exception();
  }
  rb->exec_seconds = Seconds(t0, Clock::now());
}

Tensor InferenceEngine::PredictThroughCache(const data::Batch& batch,
                                            const core::Method* method,
                                            const core::Method* master, Rng* rng) const {
  if (encode_cache_ == nullptr || batch.batch_size == 0) {
    return method->Predict(batch, rng, options_.sample);
  }
  const int64_t width = method->predict_encode_width();
  const int64_t rows = batch.batch_size;
  Tensor enc_rows = Tensor::Zeros({rows, width});

  // One key per row, serialized into a per-thread buffer that steady traffic
  // reuses; duplicate keys (padding cycles the live scenes, and identical
  // scenes can land in one batch) resolve to a representative row, so each
  // distinct encoder input is looked up — and on a miss, encoded — once.
  thread_local EncodeCache::BatchKeys keys;
  encode_cache_->BuildKeys(batch, method->encode_reads_neighbors(), &keys);
  // Version of the served MASTER, not the per-batch replica: replicas are
  // structural clones whose counter stays 0, while an in-place Train() on a
  // live served method — the staleness this guards against — bumps the
  // master's. Concurrent batches pass the same value; the first clears.
  // `master` is the dispatcher's under-mu_ capture of method_, stable for
  // the whole group (SwapWeights flips only at a batch boundary).
  encode_cache_->ProbeBatch(master->weights_version(), &keys, enc_rows.data(), width);
  const std::vector<int64_t>& miss_rows = keys.miss_rows();

  if (!miss_rows.empty()) {
    if (static_cast<int64_t>(miss_rows.size()) == rows) {
      // Nothing cached and every row distinct: encode the original batch
      // directly — the cold-traffic path costs no re-batching over an
      // uncached engine.
      enc_rows = method->PredictEncode(batch);
    } else {
      // Encode only the unseen rows, copied out of the batch at its
      // neighbor-slot width so each sub-batch row is byte-identical to its
      // key (row r of Encode(sub-batch) == row r of Encode(full batch) at
      // equal bytes and equal M — the per-row purity contract).
      Tensor packed = method->PredictEncode(data::SelectRows(batch, miss_rows));
      for (size_t i = 0; i < miss_rows.size(); ++i) {
        std::memcpy(enc_rows.data() + miss_rows[i] * width,
                    packed.data() + static_cast<int64_t>(i) * width,
                    static_cast<size_t>(width) * sizeof(float));
      }
    }
    encode_cache_->AdmitBatch(&keys, enc_rows.data(), width);
  }
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t rep = keys.representative(r);
    if (rep == r) continue;
    std::memcpy(enc_rows.data() + r * width, enc_rows.data() + rep * width,
                static_cast<size_t>(width) * sizeof(float));
  }
  return method->PredictDecode(batch, enc_rows, rng, options_.sample);
}

void InferenceEngine::ExecuteGroup(std::vector<ReadyBatch>* group,
                                   const core::Method* master,
                                   const ReplicaPool* replicas) const {
  if (master->reentrant_predict()) {
    // Reentrant Predict: every batch shares the master model; full
    // cross-batch concurrency on the training-worker pool.
    std::vector<std::function<void()>> tasks;
    tasks.reserve(group->size());
    for (ReadyBatch& rb : *group) {
      tasks.push_back([this, &rb, master] { RunOneBatch(&rb, master, master); });
    }
    parallel::RunTaskGroup(tasks);
  } else if (replicas != nullptr && replicas->size() > 1) {
    // Non-reentrant Predict with a replica pool: waves of consecutive batch
    // indices. Batch b is pinned to replica b % R, so wave members never
    // share an instance and the non-reentrant body never runs concurrently
    // on one model.
    const size_t width = static_cast<size_t>(replicas->size());
    for (size_t base = 0; base < group->size(); base += width) {
      const size_t end = std::min(group->size(), base + width);
      std::vector<std::function<void()>> wave;
      wave.reserve(end - base);
      for (size_t i = base; i < end; ++i) {
        ReadyBatch& rb = (*group)[i];
        wave.push_back([this, &rb, master, replicas] {
          RunOneBatch(&rb, replicas->MethodForBatch(rb.index), master);
        });
      }
      parallel::RunTaskGroup(wave);
    }
  } else {
    // Non-reentrant and not clonable (or replicas disabled): one at a time.
    for (ReadyBatch& rb : *group) RunOneBatch(&rb, master, master);
  }
}

void InferenceEngine::DispatcherLoop() {
  const uint64_t batch_size = static_cast<uint64_t>(options_.batch_size);
  const uint64_t max_buffered = static_cast<uint64_t>(
      options_.max_buffered_batches > 0 ? options_.max_buffered_batches
                                        : parallel::NumTrainWorkers());
  const auto delay = std::chrono::milliseconds(options_.max_batch_delay_ms);

  support::MutexLock lock(mu_);
  while (!shutdown_) {
    // Expire BEFORE batch formation: a request whose deadline has passed
    // must never enter a batch. (The watchdog covers the window where the
    // dispatcher is blocked inside an execution group.)
    ExpireOverdueLocked(Clock::now());
    const uint64_t run = ContiguousRunLocked();
    const bool drain_needed = drain_until_slot_ > next_batch_ * batch_size;
    const bool full_ready = run / batch_size >= max_buffered;
    bool deadline_due = false;
    std::chrono::steady_clock::time_point deadline{};
    if (options_.max_batch_delay_ms > 0 && run > 0) {
      // The deadline measures the age of the request at the head of the
      // queue (the first slot of the contiguous run — for an out-of-order
      // stream, the arrival that unblocked the head).
      deadline = pending_.begin()->second.enqueue_time + delay;
      deadline_due = Clock::now() >= deadline;
    }

    if (!drain_needed && !full_ready && !deadline_due) {
      if (options_.max_batch_delay_ms > 0 && run > 0) {
        dispatch_cv_.WaitUntil(lock, deadline);
      } else {
        dispatch_cv_.Wait(lock);
      }
      continue;  // re-evaluate everything after any wakeup
    }

    // Every trigger implies at least one executable batch: full_ready means
    // a whole batch is buffered, and drain/deadline imply a non-empty run
    // whose tail is included below.
    const bool include_tail = drain_needed || deadline_due;
    std::vector<ReadyBatch> group = CollectGroupLocked(include_tail);
    ADAPTRAJ_CHECK_MSG(!group.empty(),
                       "dispatcher triggered with no executable batch (run="
                           << run << ", next_batch=" << next_batch_ << ")");
    executing_ = true;
    exec_start_ = Clock::now();
    stuck_reported_ = false;
    stats_.inflight_batches = static_cast<int64_t>(group.size());
    const int64_t deadline_hits = (deadline_due && !drain_needed) ? 1 : 0;
    // Capture the served instance while still under mu_: SwapWeights flips
    // method_/replicas_ only while !executing_, so these stay valid for the
    // whole group, and the execution path below never reads the guarded
    // fields unlocked.
    const core::Method* master = method_;
    const ReplicaPool* replicas = replicas_.get();
    // Collection retired queue entries: admit blocked producers, and arm the
    // watchdog's stuck-batch timer.
    space_cv_.NotifyAll();
    watchdog_cv_.NotifyAll();
    lock.Unlock();
    ExecuteGroup(&group, master, replicas);
    lock.Lock();
    // Count first, fulfil second, both under mu_: a caller that wakes on a
    // ready future (or returns from Drain) observes counters that already
    // include its batch. Fully-expired batches retired without executing
    // count nowhere — their promises were already failed by the deadline.
    stats_.deadline_flushes += deadline_hits;
    for (const ReadyBatch& rb : group) {
      if (rb.live_rows == 0) continue;
      ++stats_.batches;
      stats_.batch_exec.Record(rb.exec_seconds);
      if (rb.error != nullptr) {
        ++stats_.failed_batches;
      } else {
        stats_.padded_rows +=
            options_.batch_size - static_cast<int64_t>(rb.live_rows);
      }
    }
    // Fulfil promises in slot order; RunTaskGroup's completion barrier
    // published the task writes. A failed batch delivers its exception to
    // exactly its own live futures — later batches are unaffected, and
    // expired tombstone rows already carry DeadlineExceededError.
    for (ReadyBatch& rb : group) {
      for (size_t r = 0; r < rb.promises.size(); ++r) {
        if (rb.expired[r]) continue;
        if (rb.error != nullptr) {
          rb.promises[r].set_exception(rb.error);
        } else {
          rb.promises[r].set_value(std::move(rb.results[r]));
        }
      }
    }
    executing_ = false;
    stats_.inflight_batches = 0;
    drained_cv_.NotifyAll();
  }
}

void InferenceEngine::WatchdogLoop() {
  const auto warn = std::chrono::milliseconds(options_.stuck_batch_warn_ms);
  support::MutexLock lock(mu_);
  while (!shutdown_) {
    const Clock::time_point now = Clock::now();
    // Deadline expiry must make progress even while the dispatcher is
    // blocked inside ExecuteGroup — queued requests behind a wedged batch
    // are exactly the ones that need their deadline honored.
    ExpireOverdueLocked(now);
    if (executing_ && options_.stuck_batch_warn_ms > 0 && !stuck_reported_ &&
        now >= exec_start_ + warn) {
      stuck_reported_ = true;
      ++stats_.stuck_batches;
      const int64_t elapsed_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(now - exec_start_)
              .count();
      if (options_.on_stuck_batch) {
        // Mutex released around user code: the callback may call stats(),
        // Submit, or anything else on this engine.
        auto callback = options_.on_stuck_batch;
        lock.Unlock();
        callback(elapsed_ms);
        lock.Lock();
      }
      continue;  // re-evaluate: the group may have finished meanwhile
    }
    Clock::time_point wake = NextRequestDeadlineLocked();
    if (executing_ && options_.stuck_batch_warn_ms > 0 && !stuck_reported_) {
      wake = std::min(wake, exec_start_ + warn);
    }
    if (wake == Clock::time_point::max()) {
      watchdog_cv_.Wait(lock);
    } else {
      watchdog_cv_.WaitUntil(lock, wake);
    }
  }
}

}  // namespace serve
}  // namespace adaptraj
