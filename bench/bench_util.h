// Shared configuration for the table/figure benchmark binaries.
//
// Every bench prints the paper's reference values next to the measured ones
// so shape fidelity (orderings, trends) can be checked at a glance. Scale is
// controlled by the ADAPTRAJ_BENCH_SCALE environment variable:
//   fast     - minimal corpora/epochs, smoke-test the harness (~seconds/table)
//   standard - default (~minutes/table); the measured orderings do not all
//              match the paper's (see ROADMAP item 1)
//   full     - larger corpora/epochs for tighter numbers

#ifndef ADAPTRAJ_BENCH_BENCH_UTIL_H_
#define ADAPTRAJ_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "eval/experiment.h"
#include "eval/table.h"

namespace adaptraj {
namespace bench {

/// Workload scales for a bench run.
struct BenchScales {
  int num_scenes = 4;        // scenes simulated per domain
  int steps_per_scene = 60;  // recorded steps per scene
  int epochs = 64;           // training epochs per experiment
  int max_batches = 12;      // batches per epoch cap
  int eval_samples = 20;     // best-of-K
  uint64_t seed = 20240612;
};

/// Reads ADAPTRAJ_BENCH_SCALE (fast | standard | full).
inline BenchScales GetScales() {
  BenchScales s;
  const char* env = std::getenv("ADAPTRAJ_BENCH_SCALE");
  const std::string scale = env == nullptr ? "standard" : env;
  if (scale == "fast") {
    s.num_scenes = 2;
    s.steps_per_scene = 45;
    s.epochs = 12;
    s.max_batches = 6;
    s.eval_samples = 8;
  } else if (scale == "full") {
    s.num_scenes = 8;
    s.steps_per_scene = 80;
    s.epochs = 96;
    s.max_batches = 16;
  }
  return s;
}

/// Default experiment configuration for a (backbone, method) cell.
inline eval::ExperimentConfig MakeExperimentConfig(models::BackboneKind backbone,
                                                   eval::MethodKind method,
                                                   const BenchScales& scales) {
  eval::ExperimentConfig cfg;
  cfg.backbone = backbone;
  cfg.method = method;
  cfg.backbone_config.hidden_dim = 32;
  cfg.backbone_config.social_dim = 32;
  cfg.backbone_config.embed_dim = 16;
  cfg.backbone_config.latent_dim = 8;
  cfg.backbone_config.langevin_steps = 4;
  cfg.train.epochs = scales.epochs;
  cfg.train.max_batches_per_epoch = scales.max_batches;
  cfg.train.lr = 3e-3f;
  cfg.train.batch_size = 32;
  cfg.train.seed = scales.seed + 13;
  cfg.eval_samples = scales.eval_samples;
  cfg.seed = scales.seed + 29;
  return cfg;
}

/// Corpus config matching the bench scales.
inline data::CorpusConfig MakeCorpusConfig(const BenchScales& scales) {
  data::CorpusConfig c;
  c.num_scenes = scales.num_scenes;
  c.steps_per_scene = scales.steps_per_scene;
  c.seed = scales.seed;
  return c;
}

/// Leave-one-out source list for a target domain.
inline std::vector<sim::Domain> SourcesExcluding(sim::Domain target) {
  std::vector<sim::Domain> sources;
  for (sim::Domain d : sim::AllDomains()) {
    if (d != target) sources.push_back(d);
  }
  return sources;
}

/// Prints the standard bench banner.
inline void PrintBanner(const char* table, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s - %s\n", table, description);
  std::printf("Paper: AdapTraj (ICDE 2024). Values are ADE/FDE unless noted.\n");
  std::printf("'paper' rows are the published numbers (real datasets);\n");
  std::printf("'measured' rows come from the synthetic reproduction. Compare\n");
  std::printf("orderings and trends, not absolute magnitudes.\n");
  std::printf("==============================================================\n\n");
}

}  // namespace bench
}  // namespace adaptraj

#endif  // ADAPTRAJ_BENCH_BENCH_UTIL_H_
