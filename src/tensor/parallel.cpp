#include "tensor/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "support/sync.h"
#include "support/thread_annotations.h"
#include "tensor/status.h"

namespace adaptraj {
namespace parallel {

namespace {

/// True while the calling thread runs a task of a group, so a group started
/// from inside that task runs inline instead of contending for the pool.
thread_local bool g_in_task = false;

/// Workers sleep on a condition variable between jobs; a job is a shared
/// atomic task counter the calling thread also drains (so one "extra" thread
/// of useful work comes for free).
///
/// Each Run gets its own heap-allocated Job whose counters are never reset:
/// a straggler worker that captured a finished job sees next >= total and
/// exits without touching the (long gone) task function, and the shared_ptr
/// keeps the counters alive for it. Completion is signalled while holding
/// mu_, so the waiter in Run can never miss the final notification.
class Pool {
 public:
  explicit Pool(int threads) : requested_threads_(threads) {
    for (int i = 0; i + 1 < threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~Pool() { Shutdown(); }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  int num_threads() const { return requested_threads_; }

  void Run(int64_t num_tasks, const std::function<void(int64_t)>& task_fn) {
    if (num_tasks <= 0) return;
    if (workers_.empty() || num_tasks == 1) {
      for (int64_t i = 0; i < num_tasks; ++i) task_fn(i);
      return;
    }
    auto job = std::make_shared<Job>();
    job->fn = &task_fn;
    job->total = num_tasks;
    {
      support::MutexLock lock(mu_);
      current_job_ = job;
      ++job_id_;
    }
    // Wake only as many workers as there are tasks beyond the caller's own
    // share. The serving dispatcher flushes small task groups at a high
    // cadence; notify_all would stampede every idle worker through the mutex
    // for a 2-task job they mostly cannot help with. A worker that is busy
    // (not waiting) when notified picks the job up anyway on its next
    // predicate check, so targeted wakeups never strand work.
    const size_t wake = std::min(workers_.size(), static_cast<size_t>(num_tasks - 1));
    if (wake == workers_.size()) {
      cv_.NotifyAll();
    } else {
      for (size_t i = 0; i < wake; ++i) cv_.NotifyOne();
    }
    // The calling thread participates in the drain.
    DrainTasks(*job);
    // Wait for stragglers still inside task_fn on worker threads. task_fn
    // must stay alive until done == total, i.e. until this wait returns.
    support::MutexLock lock(mu_);
    while (job->done.load(std::memory_order_acquire) < job->total) {
      done_cv_.Wait(lock);
    }
    if (current_job_ == job) current_job_.reset();
  }

  void Shutdown() {
    {
      support::MutexLock lock(mu_);
      shutdown_ = true;
      ++job_id_;
    }
    cv_.NotifyAll();
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
    workers_.clear();
  }

 private:
  struct Job {
    const std::function<void(int64_t)>* fn = nullptr;
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
    int64_t total = 0;
  };

  void DrainTasks(Job& job) {
    for (;;) {
      int64_t i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.total) return;
      (*job.fn)(i);
      if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 >= job.total) {
        // Notify under the mutex: the waiter either hasn't evaluated its
        // predicate yet (and will now see done == total), or is blocked in
        // wait and receives this notification — no lost wakeup.
        support::MutexLock lock(mu_);
        done_cv_.NotifyAll();
      }
    }
  }

  void WorkerLoop() {
    uint64_t seen_job = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        support::MutexLock lock(mu_);
        while (!shutdown_ && job_id_ == seen_job) cv_.Wait(lock);
        if (shutdown_) return;
        seen_job = job_id_;
        job = current_job_;
      }
      if (job != nullptr) DrainTasks(*job);
    }
  }

  const int requested_threads_;
  std::vector<std::thread> workers_;
  support::Mutex mu_;
  support::CondVar cv_;
  support::CondVar done_cv_;
  std::shared_ptr<Job> current_job_ ADAPTRAJ_GUARDED_BY(mu_);
  uint64_t job_id_ ADAPTRAJ_GUARDED_BY(mu_) = 0;
  bool shutdown_ ADAPTRAJ_GUARDED_BY(mu_) = false;
};

// The no-env default is capped: a training task group carries at most
// TrainConfig::accum_steps (default 4) tasks, so on a many-core host
// uncapped hardware concurrency would only buy idle threads. An explicit
// ADAPTRAJ_TRAIN_WORKERS value is taken as-is.
constexpr int kDefaultTrainWorkerCap = 8;

support::Mutex g_pool_mu;
Pool* g_pool ADAPTRAJ_GUARDED_BY(g_pool_mu) = nullptr;

Pool& GetPool() {
  support::MutexLock lock(g_pool_mu);
  if (g_pool == nullptr) {
    // Only a valid explicit count (>= 1) escapes the cap; unset, zero, or
    // garbage values all take the capped hardware default.
    int n = 0;
    if (const char* env = std::getenv("ADAPTRAJ_TRAIN_WORKERS")) {
      n = std::atoi(env);
    }
    if (n < 1) {
      unsigned hw = std::thread::hardware_concurrency();
      n = hw == 0 ? 1 : std::min(static_cast<int>(hw), kDefaultTrainWorkerCap);
    }
    g_pool = new Pool(n);
  }
  return *g_pool;
}

}  // namespace

int NumThreads() { return 1; }

int NumTrainWorkers() { return GetPool().num_threads(); }

void ConfigureTrainWorkers(int n) {
  ADAPTRAJ_CHECK_MSG(n >= 1, "worker pool needs at least one worker; got " << n);
  support::MutexLock lock(g_pool_mu);
  delete g_pool;
  g_pool = new Pool(n);
}

void RunTaskGroup(const std::vector<std::function<void()>>& tasks) {
  const std::function<void(int64_t)> run = [&tasks](int64_t i) {
    const bool saved = g_in_task;
    g_in_task = true;
    tasks[static_cast<size_t>(i)]();
    g_in_task = saved;
  };
  const auto num_tasks = static_cast<int64_t>(tasks.size());
  if (g_in_task) {
    for (int64_t i = 0; i < num_tasks; ++i) run(i);
    return;
  }
  GetPool().Run(num_tasks, run);
}

}  // namespace parallel
}  // namespace adaptraj
