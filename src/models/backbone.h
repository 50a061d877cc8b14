// Backbone interface for multi-agent trajectory predictors (Sec. II-C).
//
// Every backbone follows the paper's three-part decomposition:
//   1. individual mobility layer  -> h_focal ("h_ei^{t,le}")
//   2. neighbor interaction layer -> pooled  ("P_i")
//   3. future trajectory generator (noise-conditioned decoder)
//
// AdapTraj plugs in through the `extra` conditioning vector: the fused
// domain-invariant and domain-specific features [H^i ; H^s] are appended to
// the decoder input (Sec. III-E inference procedure). A backbone built with
// extra_dim == 0 is the "vanilla" model.

#ifndef ADAPTRAJ_MODELS_BACKBONE_H_
#define ADAPTRAJ_MODELS_BACKBONE_H_

#include <memory>
#include <string>

#include "data/batch.h"
#include "models/interaction.h"
#include "nn/layers.h"

namespace adaptraj {
namespace models {

/// Which backbone to instantiate.
enum class BackboneKind { kSeq2Seq, kPecnet, kLbebm };

/// Sequential model of the individual mobility layer (Eq. 2). The paper
/// allows "any sequential models, such as LSTM, or more advanced models
/// like Transformer"; both are implemented (Seq2Seq backbone).
enum class EncoderKind { kLstm, kTransformer };

/// Printable backbone name ("Seq2Seq", "PECNet", "LBEBM").
std::string BackboneKindName(BackboneKind kind);

/// Width and window configuration shared by all backbones.
struct BackboneConfig {
  int obs_len = 8;
  int pred_len = 12;
  int64_t embed_dim = 16;   // per-step location embedding (Eq. 1)
  int64_t hidden_dim = 32;  // recurrent state width (Eq. 2)
  int64_t social_dim = 32;  // interaction tensor width (Eq. 3)
  int64_t latent_dim = 8;   // noise z / CVAE latent width
  /// Width of the external conditioning vector provided by a learning
  /// framework (AdapTraj's [H^i ; H^s]); 0 for vanilla training.
  int64_t extra_dim = 0;
  /// Decoder dropout rate (Seq2Seq: on the decoder state ahead of the
  /// output head). Active only in training mode (Module::train()); under
  /// Method::Predict() — which serves in eval mode — it is the identity.
  float dropout = 0.0f;
  /// Aggregation mechanism of the neighbor interaction layer (Eq. 3).
  InteractionKind interaction = InteractionKind::kAttention;
  /// Sequential encoder of the individual mobility layer (Eq. 2).
  EncoderKind encoder = EncoderKind::kLstm;
  /// Transformer-encoder depth when encoder == kTransformer.
  int transformer_blocks = 1;
  /// LBEBM only: short-run Langevin steps for prior sampling.
  int langevin_steps = 5;
  float langevin_step_size = 0.1f;
};

/// Encoded context for a batch.
struct EncodeResult {
  /// Individual mobility state of the focal agent, [B, hidden_dim].
  Tensor h_focal;
  /// Interaction tensor P_i aggregated over neighbors, [B, social_dim].
  Tensor pooled;
};

/// Abstract trajectory-prediction backbone.
class Backbone : public nn::Module {
 public:
  explicit Backbone(const BackboneConfig& config) : config_(config) {}
  ~Backbone() override = default;

  const BackboneConfig& config() const { return config_; }

  /// Runs the individual-mobility and neighbor-interaction layers.
  virtual EncodeResult Encode(const data::Batch& batch) const = 0;

  /// Generates future displacements [B, pred_len*2]. When `sample` is true
  /// latent noise is drawn from the prior (one of the multi-modal futures);
  /// otherwise the most-likely latent (zero / posterior mean) is used.
  /// `extra` is the AdapTraj conditioning ([B, extra_dim]) or a null Tensor.
  /// Reentrant: Predict only reads parameters and allocates from
  /// thread-local pools, so concurrent calls on one instance are safe (LBEBM's
  /// Langevin sampler differentiates detached parameter copies).
  virtual Tensor Predict(const data::Batch& batch, const EncodeResult& enc,
                         const Tensor& extra, Rng* rng, bool sample) const = 0;

  /// Backbone training loss L_base (Eq. 8 plus model-specific terms such as
  /// PECNet's endpoint/KL losses or LBEBM's energy terms).
  virtual Tensor Loss(const data::Batch& batch, const EncodeResult& enc,
                      const Tensor& extra, Rng* rng) const = 0;

  /// Human-readable kind.
  virtual BackboneKind kind() const = 0;

 protected:
  /// Returns `extra` when defined, otherwise zeros of [batch, extra_dim];
  /// null Tensor when extra_dim == 0.
  Tensor ResolveExtra(const Tensor& extra, int64_t batch) const;

  /// Concatenates `base` with the resolved extra conditioning (if any).
  Tensor WithExtra(const Tensor& base, const Tensor& extra) const;

  BackboneConfig config_;
};

/// Instantiates a backbone of the given kind.
std::unique_ptr<Backbone> MakeBackbone(BackboneKind kind, const BackboneConfig& config,
                                       Rng* rng);

}  // namespace models
}  // namespace adaptraj

#endif  // ADAPTRAJ_MODELS_BACKBONE_H_
