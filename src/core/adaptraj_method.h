// AdapTraj learning method: the plug-and-play framework trained with the
// three-step procedure of Alg. 1.

#ifndef ADAPTRAJ_CORE_ADAPTRAJ_METHOD_H_
#define ADAPTRAJ_CORE_ADAPTRAJ_METHOD_H_

#include <memory>

#include "core/adaptraj_model.h"
#include "core/method.h"
#include "nn/optimizer.h"

namespace adaptraj {
namespace core {

/// Ablation variants of Tab. VII.
enum class AdapTrajVariant {
  kFull,         // "ours"
  kNoSpecific,   // w/o specific: H^s zeroed
  kNoInvariant,  // w/o invariant: H^i zeroed
};

/// Printable variant name.
std::string AdapTrajVariantName(AdapTrajVariant v);

/// Alg.-1 schedule and loss weights on top of the shared TrainConfig.
struct AdapTrajTrainConfig {
  /// Fraction of epochs completing step 1 (e_start / e_total).
  float start_fraction = 0.5f;
  /// Fraction of epochs completing step 2 (e_end / e_total).
  float end_fraction = 0.75f;
  /// Aggregator ratio sigma: probability of masking a domain's label.
  float sigma = 0.5f;
  /// Learning-rate fractions for steps 2-3 (Alg. 1 lines 13-14, 25).
  float f_low = 0.5f;
  float f_high = 1.0f;
  /// Domain weights delta (step 1) and delta' (steps 2-3), Eqs. 23/25.
  float delta = 0.2f;
  float delta_prime = 0.1f;
};

/// The AdapTraj method: wraps AdapTrajModel and implements Alg. 1.
class AdapTrajMethod : public Method {
 public:
  AdapTrajMethod(models::BackboneKind kind, const models::BackboneConfig& backbone_config,
                 const AdapTrajConfig& model_config, uint64_t init_seed,
                 AdapTrajVariant variant = AdapTrajVariant::kFull,
                 const AdapTrajTrainConfig& schedule = AdapTrajTrainConfig());

  std::string name() const override { return "AdapTraj"; }
  void Train(const data::DomainGeneralizationData& dgd,
             const TrainConfig& config) override;
  Tensor Predict(const data::Batch& batch, Rng* rng, bool sample) const override;
  int64_t predict_encode_width() const override;
  Tensor PredictEncode(const data::Batch& batch) const override;
  Tensor PredictDecode(const data::Batch& batch, const Tensor& enc_rows, Rng* rng,
                       bool sample) const override;
  std::unique_ptr<Method> CloneForServing() const override;

  AdapTrajModel& model() { return *model_; }
  const AdapTrajTrainConfig& schedule() const { return schedule_; }

 private:
  /// Applies the ablation variant to extracted features.
  AdapTrajFeatures ApplyVariant(AdapTrajFeatures f) const;

  /// Builds the Alg.-1 step loss (L_base + delta * L_ours) for one batch on
  /// the given model replica and backpropagates it. Thread-safe across
  /// distinct replicas (the ParallelTrainer task body).
  void MicroBatchBackward(AdapTrajModel* model, const data::Batch& batch,
                          const std::vector<int>& labels, float delta,
                          Rng* rng) const;

  // Construction arguments, kept to build training replicas.
  models::BackboneKind kind_;
  models::BackboneConfig backbone_config_;
  AdapTrajConfig model_config_;
  uint64_t init_seed_;

  std::unique_ptr<AdapTrajModel> model_;
  /// Replica models for the scene-parallel trainer, grown lazily to
  /// accum_steps-1 and reused across Train() calls (their weights are
  /// overwritten from model_ by the trainer's broadcast; caching skips the
  /// dead re-initialization on repeated training runs).
  std::vector<std::unique_ptr<AdapTrajModel>> train_replicas_;
  AdapTrajVariant variant_;
  AdapTrajTrainConfig schedule_;
};

}  // namespace core
}  // namespace adaptraj

#endif  // ADAPTRAJ_CORE_ADAPTRAJ_METHOD_H_
