// The process's one worker pool. RunTaskGroup runs a fixed list of
// coarse-grained tasks across ADAPTRAJ_TRAIN_WORKERS threads: one
// micro-batch forward+backward per task in training (core::ParallelTrainer),
// one batch per task in serving (serve::InferenceEngine::ExecuteGroup).
// Kernels never fan out: every kernel runs over its whole range on the
// thread that calls it, so parallelism comes only from tasks.
//
// Determinism: tasks write state disjoint per task, the caller does any
// cross-task reduction in a fixed order after the group returns, and no
// kernel's result depends on which thread runs it. Results are therefore
// bit-identical for any ADAPTRAJ_TRAIN_WORKERS value; only wall-clock
// changes.
//
// Runtime switches (kernel layer, documented here so all env configuration
// lives in one place):
//   ADAPTRAJ_TRAIN_WORKERS  size of the pool. Default: hardware concurrency,
//                        capped at 8 (groups carry at most accum_steps
//                        tasks in training). 1 = every group runs inline on
//                        its caller.
//   ADAPTRAJ_GEMM        "0" / "off" / "portable" force Gemm/BatchGemm/
//                        PlanGemm onto the portable register tile (the
//                        rollback switch); unset or any other value runs a
//                        one-time bitwise probe and enables the AVX-512 8x32
//                        tile only when it matches the portable one exactly.
//                        Tests force a path with kernels::SetGemmPath. See
//                        kernels::GemmPath in tensor/kernels.h ("GEMM
//                        dispatch").
// For a fixed input, a fixed binary and a fixed path selection, results are
// bit-identical for any worker count.
//
// Lock-discipline annotations: every mutex-guarded structure in the repo
// (this file's pool, serve::InferenceEngine, serve::EncodeCache, the plan
// cache) is annotated with the Clang thread-safety macros from
// support/thread_annotations.h and compiled with -Werror=thread-safety on
// the CI static-analysis leg. Conventions: mutexes are support::Mutex,
// critical sections are support::MutexLock, guarded members carry
// ADAPTRAJ_GUARDED_BY(mu_), hold-the-lock helpers keep the `*Locked` name
// suffix plus ADAPTRAJ_REQUIRES(mu_), public entry points of internally
// synchronized classes carry ADAPTRAJ_EXCLUDES(mu_), and condition-variable
// waits are explicit `while (!cond) cv.Wait(lock);` loops (see
// support/sync.h for why the predicate-lambda overload is avoided). What
// the analysis cannot see — cv wait/wake pairing, atomics ordering, task
// disjointness — remains the TSan legs' job.

#ifndef ADAPTRAJ_TENSOR_PARALLEL_H_
#define ADAPTRAJ_TENSOR_PARALLEL_H_

#include <functional>
#include <vector>

namespace adaptraj {
namespace parallel {

/// Threads a kernel runs on: always 1, since kernels run on their caller.
/// Kept only because the perfbench provenance line prints it.
int NumThreads();

/// Number of pool workers (>= 1). Resolution order: ADAPTRAJ_TRAIN_WORKERS
/// env var (taken as-is), then hardware concurrency capped at 8 (task
/// groups rarely exceed TrainConfig::accum_steps tasks, so more default
/// workers would only idle). 1 means RunTaskGroup executes its tasks inline
/// on the calling thread.
int NumTrainWorkers();

/// Rebuilds the pool with `n` workers (n >= 1). Must not be called while
/// another thread is inside RunTaskGroup (the old pool is destroyed;
/// in-flight tasks finish, but the caller's job handle dies with it).
/// Intended for tests and benchmarks, which own the only training thread;
/// normal code relies on the environment-derived default.
void ConfigureTrainWorkers(int n);

/// Executes every task in `tasks` exactly once and blocks until all finish.
/// Tasks may run on any worker in any order, so they must only write state
/// disjoint per task; any cross-task reduction happens after this returns
/// (with full memory visibility into what the tasks wrote). An empty group
/// is a no-op, and a group started from inside a task runs inline on that
/// task's thread.
///
/// Callers: core::ParallelTrainer calls it from the training thread, and
/// serve::InferenceEngine from its persistent dispatcher thread (the
/// engine's producer threads never reach this layer). Concurrent calls from
/// several threads are memory-safe — each call's job is drained to
/// completion by its own caller — but the workers only assist the most
/// recently submitted job, so overlapping groups lose cross-task
/// parallelism; keep one in-flight group per pool, which the
/// single-dispatcher engine and the single-threaded trainer do by
/// construction. Small groups wake only as many workers as they have tasks.
void RunTaskGroup(const std::vector<std::function<void()>>& tasks);

}  // namespace parallel
}  // namespace adaptraj

#endif  // ADAPTRAJ_TENSOR_PARALLEL_H_
