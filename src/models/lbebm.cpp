#include "models/lbebm.h"

#include <cmath>

#include "nn/losses.h"

namespace adaptraj {
namespace models {

using namespace ops;  // NOLINT(build/namespaces)

LbebmBackbone::LbebmBackbone(const BackboneConfig& config, Rng* rng)
    : Backbone(config),
      step_embed_({2, config.embed_dim}, rng, nn::Activation::kRelu,
                  nn::Activation::kRelu),
      encoder_(config.embed_dim, config.hidden_dim, rng),
      interaction_(config.embed_dim, config.hidden_dim, config.social_dim, rng,
                   config.interaction),
      posterior_({config.pred_len * 2 + config.hidden_dim + config.social_dim,
                  config.hidden_dim, 2 * config.latent_dim},
                 rng, nn::Activation::kRelu, nn::Activation::kNone),
      energy_({config.latent_dim + config.hidden_dim + config.social_dim,
               config.hidden_dim, 1},
              rng, nn::Activation::kRelu, nn::Activation::kNone),
      decoder_({config.hidden_dim + config.social_dim + config.latent_dim +
                    config.extra_dim,
                config.hidden_dim, config.hidden_dim, config.pred_len * 2},
               rng, nn::Activation::kRelu, nn::Activation::kNone) {
  RegisterModule("step_embed", &step_embed_);
  RegisterModule("encoder", &encoder_);
  RegisterModule("interaction", &interaction_);
  RegisterModule("posterior", &posterior_);
  RegisterModule("energy", &energy_);
  RegisterModule("decoder", &decoder_);
}

EncodeResult LbebmBackbone::Encode(const data::Batch& batch) const {
  std::vector<Tensor> embedded;
  embedded.reserve(batch.obs_steps.size());
  for (const Tensor& step : batch.obs_steps) {
    embedded.push_back(step_embed_.Forward(step));
  }
  EncodeResult enc;
  enc.h_focal = encoder_.Forward(embedded).h;
  enc.pooled = interaction_.Pool(batch, enc.h_focal);
  return enc;
}

Tensor LbebmBackbone::Context(const EncodeResult& enc) const {
  return Concat({enc.h_focal, enc.pooled}, 1);
}

Tensor LbebmBackbone::Energy(const Tensor& z, const Tensor& context) const {
  return energy_.Forward(Concat({z, context}, 1));  // [B, 1]
}

Tensor LbebmBackbone::SampleLangevin(const Tensor& context, Rng* rng) const {
  // Gradient island: Langevin dynamics differentiates the energy w.r.t. z,
  // so the tape must be recorded here even when the surrounding Predict()
  // runs under NoGradGuard.
  EnableGradGuard grad_island;
  const int64_t b = context.shape()[0];
  Tensor ctx = context.Detach();
  // Only dE/dz is needed. Detached parameter copies keep every backward
  // closure off the shared parameters: dz is bit-identical, dW and db are
  // skipped, and no gradient buffer is written.
  std::vector<Tensor> energy_params = energy_.Parameters();
  for (Tensor& p : energy_params) p = p.Detach();
  Tensor z = Tensor::Randn({b, config_.latent_dim}, rng);
  const float step = config_.langevin_step_size;
  const float noise_scale = std::sqrt(step);
  for (int k = 0; k < config_.langevin_steps; ++k) {
    z.set_requires_grad(true);
    z.ZeroGrad();
    Sum(energy_.Forward(Concat({z, ctx}, 1), energy_params)).Backward();
    Tensor grad = z.grad();
    // U(z) = E(z, ctx) + 0.5 ||z||^2  (EBM-tilted standard normal prior).
    std::vector<float> next(z.size());
    for (int64_t i = 0; i < z.size(); ++i) {
      next[i] = z.flat(i) - 0.5f * step * (grad.flat(i) + z.flat(i)) +
                noise_scale * rng->Normal();
    }
    z = Tensor::FromVector(z.shape(), std::move(next));
  }
  return z;
}

Tensor LbebmBackbone::Decode(const EncodeResult& enc, const Tensor& z,
                             const Tensor& extra) const {
  Tensor in = Concat({enc.h_focal, enc.pooled, z}, 1);
  in = WithExtra(in, extra);
  return decoder_.Forward(in);
}

Tensor LbebmBackbone::Predict(const data::Batch& batch, const EncodeResult& enc,
                              const Tensor& extra, Rng* rng, bool sample) const {
  const int64_t b = batch.batch_size;
  Tensor z = sample ? SampleLangevin(Context(enc), rng)
                    : Tensor::Zeros({b, config_.latent_dim});
  return Decode(enc, z, extra);
}

Tensor LbebmBackbone::Loss(const data::Batch& batch, const EncodeResult& enc,
                           const Tensor& extra, Rng* rng) const {
  const int64_t b = batch.batch_size;
  // The negative (prior) sample is drawn first: the rng stream order
  // (Langevin noise, then the posterior's eps) is part of the trained bits.
  Tensor z_neg = SampleLangevin(Context(enc), rng);

  // CVAE posterior over latent plans.
  Tensor stats = posterior_.Forward(Concat({batch.fut_flat, Context(enc)}, 1));
  Tensor mu = Slice(stats, 1, 0, config_.latent_dim);
  Tensor logvar = Clamp(Slice(stats, 1, config_.latent_dim, 2 * config_.latent_dim),
                        -6.0f, 6.0f);
  Tensor eps = Tensor::Randn({b, config_.latent_dim}, rng);
  Tensor z_pos = Add(mu, Mul(Exp(MulScalar(logvar, 0.5f)), eps));

  Tensor recon = nn::MseLoss(Decode(enc, z_pos, extra), batch.fut_flat);
  Tensor kl = nn::KlStandardNormal(mu, logvar);

  // Contrastive energy shaping: pull posterior-plan energy down, Langevin
  // (prior) sample energy up. Latents are detached so this trains E only.
  Tensor ctx_det = Context(enc).Detach();
  Tensor e_pos = Mean(Energy(z_pos.Detach(), ctx_det));
  Tensor e_neg = Mean(Energy(z_neg, ctx_det));
  Tensor ebm = Sub(e_pos, e_neg);

  return Add(Add(recon, MulScalar(kl, kl_weight_)), MulScalar(ebm, ebm_weight_));
}

}  // namespace models
}  // namespace adaptraj
