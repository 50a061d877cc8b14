// The one worker pool behind parallel::RunTaskGroup: every task of a group
// runs exactly once with its writes visible to the caller, a group started
// from inside a task runs inline on that task's thread, and an empty group
// is a no-op.

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/parallel.h"

namespace adaptraj {
namespace {

/// Long enough that idle workers wake up and claim tasks while it runs.
void BriefWork() { std::this_thread::sleep_for(std::chrono::microseconds(200)); }

class ParallelTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { parallel::ConfigureTrainWorkers(GetParam()); }
  void TearDown() override { parallel::ConfigureTrainWorkers(1); }
};

TEST_P(ParallelTest, EveryTaskRunsOnceAndItsWriteIsVisible) {
  const int workers = GetParam();
  ASSERT_EQ(parallel::NumTrainWorkers(), workers);
  const int num_tasks = 4 * workers + 3;  // more tasks than workers
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> runs(num_tasks);
    for (auto& r : runs) r.store(0);
    std::vector<int> written(num_tasks, -1);  // plain writes, one per task
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < num_tasks; ++i) {
      tasks.push_back([&runs, &written, i, round] {
        runs[i].fetch_add(1);
        if (i % 3 == 0) BriefWork();  // stragglers must still be waited for
        written[i] = i * 1000 + round;
      });
    }
    parallel::RunTaskGroup(tasks);
    for (int i = 0; i < num_tasks; ++i) {
      ASSERT_EQ(runs[i].load(), 1) << "task " << i << " round " << round;
      ASSERT_EQ(written[i], i * 1000 + round) << "task " << i;
    }
  }
}

TEST_P(ParallelTest, NestedGroupRunsInlineOnItsTasksThread) {
  const int num_outer = 2 * GetParam() + 1;
  constexpr int kInner = 5;
  std::vector<std::thread::id> outer_ids(num_outer);
  std::vector<std::vector<std::thread::id>> inner_ids(
      num_outer, std::vector<std::thread::id>(kInner));
  std::vector<std::function<void()>> outer;
  for (int o = 0; o < num_outer; ++o) {
    outer.push_back([&outer_ids, &inner_ids, o] {
      outer_ids[o] = std::this_thread::get_id();
      std::vector<std::function<void()>> inner;
      for (int i = 0; i < kInner; ++i) {
        inner.push_back([&inner_ids, o, i] {
          inner_ids[o][i] = std::this_thread::get_id();
          BriefWork();  // gives idle workers time to steal, were it pooled
        });
      }
      parallel::RunTaskGroup(inner);
    });
  }
  parallel::RunTaskGroup(outer);
  for (int o = 0; o < num_outer; ++o) {
    for (int i = 0; i < kInner; ++i) {
      EXPECT_EQ(inner_ids[o][i], outer_ids[o]) << "outer " << o << " inner " << i;
    }
  }
}

TEST_P(ParallelTest, EmptyGroupIsANoOp) {
  parallel::RunTaskGroup({});
  // The pool still serves the next group.
  int ran = 0;
  parallel::RunTaskGroup({[&ran] { ++ran; }});
  EXPECT_EQ(ran, 1);
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelTest, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace adaptraj
