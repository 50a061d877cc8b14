// train: closed-loop Method::Train over all three steps of Alg. 1, plus the
// model/data pieces every workload shares.
//
// Untraced run: setup (timed, median of several), then identical training
// jobs from the same seed, back to back, for most of the run. Their
// parameter digests must all match bit-for-bit, and the trained model's
// target-domain ADE must be finite and below the untrained model's. The jobs
// are grouped into windows of kJobsPerWindow; each metric is taken per window
// and reported for the best window, as the serving workloads do.
//
// Traced run: one training job (CPU/wall of the ParallelTrainer workers),
// the per-call training-step replay, and a short serving pass so the run
// reports every per-layer metric.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "workloads.h"

namespace perfbench {

namespace ad = adaptraj;
using ad::Tensor;

namespace {

// Seed of the simulated training corpus, fixed across runs (see BuildCorpus).
constexpr uint64_t kCorpusSeed = 20240612;

// Alg.-1 epochs of one training job; step 1 ends at epoch 20, step 2 at 30.
constexpr int kTrainEpochs = 40;
// Windows per source domain in the training corpus: a job is
// kTrainEpochs x 3 x kTrainPerSource samples (about 1 s on a 4-vCPU host),
// the same for every seed and every --seconds.
constexpr int kTrainPerSource = 500;
// Jobs per measurement window, and the share of --seconds the jobs of an
// untraced run fill (at least kMinWindows windows are always run).
constexpr int kJobsPerWindow = 3;
constexpr int kMinWindows = 2;
constexpr double kTrainShareOfRun = 0.75;

uint64_t ParameterDigest(ad::core::AdapTrajMethod* method) {
  const std::vector<float> params = method->model().ParameterSnapshot();
  return Fnv1a(params.data(), params.size() * sizeof(float));
}

int64_t SamplesPerJob(const ad::data::DomainGeneralizationData& corpus) {
  return kTrainEpochs * static_cast<int64_t>(corpus.pooled_train.size());
}

struct Job {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  uint64_t digest = 0;
};

Job RunJob(ad::core::AdapTrajMethod* method, const ad::data::DomainGeneralizationData& corpus,
           uint64_t seed, int epochs, Tracer* tracer) {
  Job job;
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  method->Train(corpus, MakeTrainConfig(seed, epochs));
  const Clock::time_point t1 = Clock::now();
  job.cpu_s = ProcessCpuSeconds() - cpu0;
  job.wall_s = SecondsBetween(t0, t1);
  job.digest = ParameterDigest(method);
  if (tracer != nullptr) tracer->Record(0, "core.Method.Train", t0, t1);
  return job;
}

/// Mean displacement error of Predict(sample = false) over `dataset`.
double AverageDisplacementError(const ad::core::Method& method,
                                const ad::data::Dataset& dataset) {
  const ad::data::SequenceConfig seq;
  ad::Rng rng(0);
  double sum = 0.0;
  int64_t points = 0;
  for (size_t lo = 0; lo < dataset.size(); lo += 64) {
    std::vector<const ad::data::TrajectorySequence*> ptrs;
    for (size_t i = lo; i < std::min(dataset.size(), lo + 64); ++i) {
      ptrs.push_back(&dataset.sequences[i]);
    }
    const ad::data::Batch batch = ad::data::MakeBatch(ptrs, seq);
    const Tensor pred = method.Predict(batch, &rng, /*sample=*/false);
    for (int64_t b = 0; b < batch.batch_size; ++b) {
      double px = 0, py = 0, tx = 0, ty = 0;
      for (int t = 0; t < batch.pred_len; ++t) {
        const int64_t k = b * batch.pred_len * 2 + t * 2;
        px += pred.data()[k];
        py += pred.data()[k + 1];
        tx += batch.fut_flat.data()[k];
        ty += batch.fut_flat.data()[k + 1];
        sum += std::hypot(px - tx, py - ty);
        ++points;
      }
    }
  }
  return points > 0 ? sum / static_cast<double>(points) : HUGE_VAL;
}

}  // namespace

std::unique_ptr<ad::core::AdapTrajMethod> MakeModel(uint64_t seed) {
  // The table benches' shapes (bench/bench_util.h MakeExperimentConfig).
  ad::models::BackboneConfig backbone;
  backbone.hidden_dim = 32;
  backbone.social_dim = 32;
  backbone.embed_dim = 16;
  backbone.latent_dim = 8;
  ad::core::AdapTrajConfig model;
  model.num_source_domains = 3;
  return std::make_unique<ad::core::AdapTrajMethod>(ad::models::BackboneKind::kPecnet,
                                                    backbone, model, Mix64(seed ^ 0x1417));
}

ad::data::DomainGeneralizationData BuildCorpus(uint64_t seed, int train_per_source) {
  const std::vector<ad::sim::Domain> sources = {
      ad::sim::Domain::kEthUcy, ad::sim::Domain::kLcas, ad::sim::Domain::kSyi};
  // The simulated corpus is the same for every seed, so the cost of
  // simulating it and the training work per epoch are too; the seed picks
  // which windows of each source are trained on.
  ad::data::CorpusConfig config;
  config.seed = kCorpusSeed;
  config.steps_per_scene = 70;
  config.num_scenes = std::max(4, train_per_source / 32);
  for (;;) {
    ad::data::DomainGeneralizationData dgd =
        ad::data::BuildDomainGeneralizationData(sources, ad::sim::Domain::kSdd, config);
    bool enough = !dgd.target.test.empty();
    for (const auto& s : dgd.sources) {
      enough = enough && static_cast<int>(s.train.size()) >= train_per_source;
    }
    if (enough) {
      dgd.pooled_train.sequences.clear();
      for (auto& s : dgd.sources) {
        auto& windows = s.train.sequences;
        for (size_t i = 0; i < static_cast<size_t>(train_per_source); ++i) {
          const size_t j = i + Mix64(seed ^ Mix64(i)) % (windows.size() - i);
          std::swap(windows[i], windows[j]);
        }
        windows.resize(static_cast<size_t>(train_per_source));
        dgd.pooled_train.sequences.insert(dgd.pooled_train.sequences.end(), windows.begin(),
                                          windows.end());
      }
      return dgd;
    }
    config.num_scenes += config.num_scenes / 2;
  }
}

ad::core::TrainConfig MakeTrainConfig(uint64_t seed, int epochs) {
  ad::core::TrainConfig config;
  config.epochs = epochs;
  config.lr = 3e-3f;
  config.batch_size = 32;
  config.seed = Mix64(seed ^ 0x7a17);
  return config;
}

void TrainLayerPass(const ad::data::DomainGeneralizationData& corpus, uint64_t seed,
                    int train_epochs, int steps, Tracer* tracer, int buffer, Report* report) {
  if (train_epochs > 0) {
    auto trained = MakeModel(seed + 7);
    const Job job = RunJob(trained.get(), corpus, seed, train_epochs, tracer);
    report->Add("core.train_cpu_per_wall", job.cpu_s / job.wall_s, "ratio");
  }
  auto method = MakeModel(seed + 5);
  ad::core::AdapTrajModel& model = method->model();
  model.train();
  ad::nn::Adam opt(3e-3f);
  opt.AddGroup(model.BackboneAndExtractorParams(), 1.0f);
  opt.AddGroup(model.AggregatorParams(), 0.0f);
  const std::vector<Tensor> params = model.Parameters();
  const ad::core::AdapTrajTrainConfig schedule;
  ad::data::BatchLoader loader(&corpus.pooled_train, 32, ad::data::SequenceConfig(),
                               seed + 11, /*shuffle=*/true);
  ad::Rng rng(seed);
  std::vector<double> next_us, forward_ms, backward_ms, step_us;
  for (int s = 0; s < steps; ++s) {
    const Clock::time_point root_start = Clock::now();
    const int64_t root = tracer->NewId(buffer);
    ad::data::Batch batch;
    next_us.push_back(TimedCall(tracer, buffer, "data.BatchLoader.Next", root, -1, [&] {
      if (!loader.Next(&batch)) {
        loader.Reset();
        loader.Next(&batch);
      }
    }));
    // The Alg.-1 step-1 loss as AdapTrajMethod::MicroBatchBackward builds it.
    Tensor total;
    forward_ms.push_back(1e-3 * TimedCall(tracer, buffer, "models.train_forward", root, -1, [&] {
      const ad::models::EncodeResult enc = model.backbone().Encode(batch);
      const ad::core::AdapTrajFeatures f = model.ExtractFeatures(enc, batch.domain_labels);
      const Tensor base = model.backbone().Loss(batch, enc, f.Extra(), &rng);
      total = ad::ops::Add(base, ad::ops::MulScalar(
                                     model.OursLoss(batch, f, batch.domain_labels),
                                     schedule.delta));
    }));
    backward_ms.push_back(
        1e-3 * TimedCall(tracer, buffer, "tensor.Backward", root, -1, [&] { total.Backward(); }));
    step_us.push_back(TimedCall(tracer, buffer, "nn.optimizer_step", root, -1, [&] {
      ad::nn::ClipGradNorm(params, 5.0f);
      opt.Step();
      opt.ZeroGrad();
    }));
    tracer->Record(buffer, "bench.train_step", root_start, Clock::now(), root, 0, -1);
  }
  report->Add("data.loader_next_us_p50", Quantile(next_us, 0.5), "us");
  report->Add("models.train_forward_ms_p50", Quantile(forward_ms, 0.5), "ms");
  report->Add("tensor.backward_ms_p50", Quantile(backward_ms, 0.5), "ms");
  report->Add("nn.optimizer_step_us_p50", Quantile(step_us, 0.5), "us");
}

void RunTrainWorkload(const RunOptions& options, Report* report) {
  const uint64_t seed = options.seed;

  if (options.trace) {
    Tracer tracer(2);
    ad::data::DomainGeneralizationData corpus;
    TimedCall(&tracer, 0, "sim.BuildCorpus", 0, -1,
              [&] { corpus = BuildCorpus(seed, kTrainPerSource); });
    auto method = MakeModel(seed);
    const Job job = RunJob(method.get(), corpus, seed, kTrainEpochs, &tracer);
    report->attempted += 1;
    report->Add("core.train_cpu_per_wall", job.cpu_s / job.wall_s, "ratio");
    TrainLayerPass(corpus, seed, /*train_epochs=*/0, 400, &tracer, 0, report);
    ScenePool pool;
    TimedCall(&tracer, 0, "sim.GenerateScenes", 0, -1, [&] { pool = BuildServePool(); });
    ServeLayerPass(*method, pool, seed, /*repeat_traffic=*/false, 0.3 * options.seconds,
                   &tracer, report);
    FinishTrace(tracer, options.trace_path, report);
    return;
  }

  // Setup, timed several times; the last instance is trained first.
  constexpr int kSetups = 7;
  std::vector<double> setup_s;
  ad::data::DomainGeneralizationData corpus;
  std::unique_ptr<ad::core::AdapTrajMethod> method;
  for (int k = 0; k <= kSetups; ++k) {  // round 0 is untimed, as for serving
    method.reset();
    corpus = ad::data::DomainGeneralizationData();
    const Clock::time_point s0 = Clock::now();
    corpus = BuildCorpus(seed, kTrainPerSource);
    method = MakeModel(seed);
    if (k > 0) setup_s.push_back(SecondsBetween(s0, Clock::now()));
  }
  const double untrained_ade = AverageDisplacementError(*method, corpus.target.test);
  {
    // Untimed warm-up: worker threads, their buffer pools and first-touch
    // pages exist before the first timed job.
    auto warm = MakeModel(seed + 9);
    RunJob(warm.get(), corpus, seed, 2, nullptr);
  }

  // Identical jobs in windows of kJobsPerWindow until the run's share of
  // --seconds is used: every digest must equal the first.
  const Clock::time_point start = Clock::now();
  std::vector<Job> jobs;
  double trained_ade = HUGE_VAL;
  while (jobs.size() < static_cast<size_t>(kMinWindows * kJobsPerWindow) ||
         jobs.size() % kJobsPerWindow != 0 ||
         SecondsBetween(start, Clock::now()) < kTrainShareOfRun * options.seconds) {
    if (!jobs.empty()) method = MakeModel(seed);
    jobs.push_back(RunJob(method.get(), corpus, seed, kTrainEpochs, nullptr));
    if (jobs.size() == 1) trained_ade = AverageDisplacementError(*method, corpus.target.test);
  }

  const int64_t samples = SamplesPerJob(corpus);
  const int64_t num_jobs = static_cast<int64_t>(jobs.size());
  int64_t mismatched = 0;
  for (const Job& job : jobs) mismatched += job.digest != jobs[0].digest ? 1 : 0;
  report->attempted += num_jobs;
  report->failed += mismatched;
  if (mismatched > 0) {
    report->Fail(Format("%lld of %lld training jobs ended with another parameter digest "
                        "than the first",
                        static_cast<long long>(mismatched), static_cast<long long>(num_jobs)));
  }
  if (!std::isfinite(trained_ade) || !(trained_ade < untrained_ade)) {
    report->failed += 1;
    report->Fail(Format("target ADE %.4f is not finite and below the untrained %.4f",
                        trained_ade, untrained_ade));
  }
  report->Line(Format("phase train_jobs sent=%lld succeeded=%lld failed=%lld",
                      static_cast<long long>(num_jobs),
                      static_cast<long long>(num_jobs - mismatched),
                      static_cast<long long>(mismatched)));

  std::vector<double> window_p50, window_p99, window_rate, window_cpu_ms;
  std::string walls;
  for (size_t w = 0; w < jobs.size(); w += kJobsPerWindow) {
    std::vector<double> wall_ms;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    for (size_t k = w; k < w + kJobsPerWindow; ++k) {
      wall_ms.push_back(1e3 * jobs[k].wall_s);
      wall_s += jobs[k].wall_s;
      cpu_s += jobs[k].cpu_s;
    }
    const double window_samples = static_cast<double>(kJobsPerWindow * samples);
    window_p50.push_back(Quantile(wall_ms, 0.5));
    window_p99.push_back(Quantile(wall_ms, 0.99));
    window_rate.push_back(window_samples / wall_s);
    window_cpu_ms.push_back(1e3 * cpu_s / window_samples);
    walls += (walls.empty() ? "" : " | ") + Join(wall_ms, "%.0f");
  }
  report->Line(Format("train: %lld samples/job (%d epochs x %zu windows), %lld jobs in "
                      "%zu windows, digest %016llx",
                      static_cast<long long>(samples), kTrainEpochs, corpus.pooled_train.size(),
                      static_cast<long long>(num_jobs), window_p50.size(),
                      static_cast<unsigned long long>(jobs[0].digest)));
  report->Line("train job wall ms by window: " + walls);
  report->Line(Format("target ADE: untrained %.4f, trained %.4f", untrained_ade, trained_ade));
  report->Line("setup_s samples: " + Join(setup_s));

  report->Add("latency_p50_ms", *std::min_element(window_p50.begin(), window_p50.end()), "ms");
  report->Add("latency_p99_ms", *std::min_element(window_p99.begin(), window_p99.end()), "ms");
  report->Add("capacity_per_s", *std::max_element(window_rate.begin(), window_rate.end()),
              "1/s");
  report->Add("cpu_ms_per_item",
              *std::min_element(window_cpu_ms.begin(), window_cpu_ms.end()), "ms");
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
