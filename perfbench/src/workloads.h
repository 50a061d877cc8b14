// The three workloads and the pieces they share.
//
// Every workload serves or trains AdapTraj over PECNet at the shapes of the
// paper's table benches (hidden 32, 3 source domains, SDD the unseen
// target). See perfbench/README.md for what each workload stresses and which
// metric each layer number should move.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/adaptraj_method.h"
#include "data/multi_domain.h"
#include "harness.h"
#include "trace.h"
#include "traffic.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  // Chrome trace-event JSON written by traced runs
};

// --- Shared model and data ----------------------------------------------------

/// Untrained AdapTraj-PECNet at the table-bench shapes.
std::unique_ptr<adaptraj::core::AdapTrajMethod> MakeModel(uint64_t seed);

/// Source domains ETH&UCY, L-CAS, SYI and target SDD, simulated from `seed`.
/// Each source's train split is cut to exactly `train_per_source` windows
/// (simulating more scenes when a seed yields fewer), so the amount of
/// training work per epoch does not depend on the seed.
adaptraj::data::DomainGeneralizationData BuildCorpus(uint64_t seed, int train_per_source);

/// Training configuration shared by the train workload and the serving
/// model's short training run.
adaptraj::core::TrainConfig MakeTrainConfig(uint64_t seed, int epochs);

/// The SDD window pool serving traffic is derived from (the same for every
/// seed; see traffic.h for how the seed turns it into scenes).
ScenePool BuildServePool();

// --- Layer passes shared by the traced runs ---------------------------------

/// With train_epochs > 0, first runs Method::Train for that many epochs on a
/// fresh model and adds core.train_cpu_per_wall. Then replays `steps`
/// optimizer steps of the Alg.-1 step-1 loss on a private model, timing each
/// layer call (loader, forward, backward, optimizer), and adds the
/// data.loader / models.train_forward / tensor.backward / nn.optimizer_step
/// metrics. Spans go to `tracer` buffer `buffer`.
void TrainLayerPass(const adaptraj::data::DomainGeneralizationData& corpus,
                    uint64_t seed, int train_epochs, int steps, Tracer* tracer,
                    int buffer, Report* report);

/// The serving side of a traced run: an engine over `method` under the
/// given traffic (one untraced phase for engine stats, one traced phase for
/// spans and tracing overhead), then the layer replay of the same stream.
/// Adds every serve.* / data.make_batch / core.predict_* / tensor.* metric.
void ServeLayerPass(const adaptraj::core::Method& method, const ScenePool& pool,
                    uint64_t seed, bool repeat_traffic, double seconds,
                    Tracer* tracer, Report* report);

// --- Workload entry points ----------------------------------------------------

void RunServeWorkload(const RunOptions& options, bool repeat_traffic, Report* report);
void RunTrainWorkload(const RunOptions& options, Report* report);

/// Harness self-test (schedule determinism, latency counted from the due
/// time under an injected stall, bench thread budget). Fails `report` on any
/// violated property.
void RunSelfTest(Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
