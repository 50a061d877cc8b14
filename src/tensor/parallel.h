// Persistent worker-thread pool and deterministic parallel-for.
//
// Kernels parallelize by splitting an index range into fixed-size contiguous
// chunks; each chunk is executed by exactly one thread and writes a disjoint
// slice of the output. Because chunk boundaries depend only on the range and
// the grain (never on thread count or scheduling), every output element is
// produced by the same sequence of floating-point operations regardless of
// how many workers exist — results are bit-identical run to run and match
// the serial execution. Reductions that would need cross-chunk combination
// are NOT routed through this header; they stay sequential.
//
// Thread count resolution order: ADAPTRAJ_NUM_THREADS env var, then
// std::thread::hardware_concurrency(). A value of 1 (or a single-core
// machine) disables the workers entirely and ParallelFor runs inline.
//
// A second, independent pool drives scene-level data-parallel training (see
// core/parallel_trainer.h): RunTaskGroup executes a fixed list of
// coarse-grained tasks (one micro-batch forward+backward each) across
// ADAPTRAJ_TRAIN_WORKERS threads.
//
// Worker x kernel-thread budget: the two knobs compose multiplicatively, so
// the task-group layer keeps the product bounded. With
// ADAPTRAJ_TRAIN_WORKERS <= 1 training is serial and every kernel inside it
// may still fan out across all ADAPTRAJ_NUM_THREADS pool threads (the PR-1
// behaviour). With ADAPTRAJ_TRAIN_WORKERS > 1 each training task runs its
// kernels inline (single-threaded), exactly as if it were already on a
// kernel-pool worker: parallelism moves from inside each GEMM to across
// scenes, and the process never oversubscribes cores with
// workers x kernel-threads software threads. Because every kernel is
// bit-deterministic for any thread count (including inline execution), moving
// a micro-batch from the kernel-parallel to the inline regime cannot change
// its result — which is what makes trained weights bit-identical for any
// ADAPTRAJ_TRAIN_WORKERS value.
//
// Related runtime switches (kernel layer, documented here with the thread
// knob so all env configuration lives in one place):
//   ADAPTRAJ_TRAIN_WORKERS  number of data-parallel training workers used by
//                        RunTaskGroup / core::ParallelTrainer. Default:
//                        hardware concurrency, capped at 8 (groups carry at
//                        most accum_steps tasks). 1 = serial training loop.
//                        Results are bit-identical for any value; only
//                        wall-clock changes.
//   ADAPTRAJ_GEMM        "0" / "off" / "portable" force Gemm/BatchGemm/
//                        PlanGemm onto the portable register tile (the
//                        rollback switch); unset or any other value runs a
//                        one-time bitwise probe and enables the AVX-512 8x32
//                        tile only when it matches the portable one exactly.
//                        Tests force a path with kernels::SetGemmPath. See
//                        kernels::GemmPath in tensor/kernels.h ("GEMM
//                        dispatch").
// All paths are deterministic: for a fixed input, a fixed binary, and a
// fixed path selection, results are bit-identical for any thread count.
//
// Lock-discipline annotations: every mutex-guarded structure in the repo
// (this file's pools, serve::InferenceEngine, serve::EncodeCache, the plan
// cache) is annotated with the Clang thread-safety macros from
// support/thread_annotations.h and compiled with -Werror=thread-safety on
// the CI static-analysis leg. Conventions: mutexes are support::Mutex,
// critical sections are support::MutexLock, guarded members carry
// ADAPTRAJ_GUARDED_BY(mu_), hold-the-lock helpers keep the `*Locked` name
// suffix plus ADAPTRAJ_REQUIRES(mu_), public entry points of internally
// synchronized classes carry ADAPTRAJ_EXCLUDES(mu_), and condition-variable
// waits are explicit `while (!cond) cv.Wait(lock);` loops (see
// support/sync.h for why the predicate-lambda overload is avoided). What
// the analysis cannot see — cv wait/wake pairing, atomics ordering, chunk
// disjointness — remains the TSan legs' job.

#ifndef ADAPTRAJ_TENSOR_PARALLEL_H_
#define ADAPTRAJ_TENSOR_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace adaptraj {
namespace parallel {

/// Number of threads the pool uses (>= 1; 1 means fully inline execution).
int NumThreads();

/// Rebuilds the pool with `n` threads (n >= 1). Blocks until in-flight work
/// drains. Intended for tests and benchmarks; normal code relies on the
/// environment-derived default.
void Configure(int n);

/// True while the calling thread is a pool worker (nested ParallelFor from a
/// worker runs inline to avoid deadlock).
bool InWorkerThread();

/// Out-of-line multi-chunk dispatch used by ParallelFor; call ParallelFor
/// instead. Runs inline when the pool has one thread.
void ParallelForSlow(int64_t begin, int64_t end, int64_t grain,
                     const std::function<void(int64_t, int64_t)>& body);

/// Invokes body(chunk_begin, chunk_end) over [begin, end) split into chunks
/// of at most `grain` indices. Chunks may run on any thread in any order, so
/// `body` must only write state disjoint per chunk. Blocks until all chunks
/// finish. Runs inline when the range is small or the pool has one thread.
///
/// Templated so the single-chunk fast path — the overwhelmingly common case
/// for the model-sized ops — never materializes a std::function (whose
/// capture list exceeds the small-buffer size and would heap-allocate on
/// every op call). Only a genuinely multi-chunk range pays for type erasure.
template <typename Body>
void ParallelFor(int64_t begin, int64_t end, int64_t grain, const Body& body) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  if (end - begin <= grain || InWorkerThread()) {
    body(begin, end);
    return;
  }
  ParallelForSlow(begin, end, grain, body);
}

// --- Scene-level training workers -------------------------------------------

/// Number of data-parallel training workers (>= 1). Resolution order:
/// ADAPTRAJ_TRAIN_WORKERS env var (taken as-is), then hardware concurrency
/// capped at 8 (task groups rarely exceed TrainConfig::accum_steps tasks,
/// so more default workers would only idle). 1 means RunTaskGroup executes
/// its tasks inline on the calling thread.
int NumTrainWorkers();

/// Rebuilds the training-worker pool with `n` workers (n >= 1). Must not be
/// called while another thread is inside RunTaskGroup (the old pool is
/// destroyed; in-flight chunks finish, but the caller's job handle dies with
/// it). Intended for tests and benchmarks, which own the only training
/// thread; normal code relies on the environment-derived default.
void ConfigureTrainWorkers(int n);

/// Executes every task in `tasks` exactly once and blocks until all finish.
/// Tasks may run on any training worker in any order, so they must only
/// write state disjoint per task; any cross-task reduction happens after
/// this returns (with full memory visibility into what the tasks wrote).
///
/// When the training pool has more than one worker, each task body runs with
/// kernel-level ParallelFor forced inline (see the worker x kernel-thread
/// budget note above). With one worker, tasks run inline on the caller and
/// kernels keep their usual pool — the serial PR-1 behaviour.
///
/// Callers and the serving dispatcher: RunTaskGroup may be called from any
/// thread that is not itself a pool worker — core::ParallelTrainer calls it
/// from the training thread, and serve::InferenceEngine from its persistent
/// dispatcher thread (the engine's producer threads never reach this layer,
/// so the worker x kernel-thread budget is independent of producer count).
/// Concurrent calls from several threads are memory-safe — each call's job
/// is drained to completion by its own caller — but the pool workers only
/// assist the most recently submitted job, so overlapping groups lose
/// cross-task parallelism; keep one in-flight group per pool, which the
/// single-dispatcher engine and the single-threaded trainer do by
/// construction. Small groups wake only as many workers as they have tasks.
void RunTaskGroup(const std::vector<std::function<void()>>& tasks);

}  // namespace parallel
}  // namespace adaptraj

#endif  // ADAPTRAJ_TENSOR_PARALLEL_H_
