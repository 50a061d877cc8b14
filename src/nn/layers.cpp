#include "nn/layers.h"

namespace adaptraj {
namespace nn {

using namespace ops;  // NOLINT(build/namespaces): op sugar within the library

Tensor Activate(const Tensor& x, Activation act) {
  switch (act) {
    case Activation::kNone: return x;
    case Activation::kRelu: return Relu(x);
    case Activation::kTanh: return Tanh(x);
    case Activation::kSigmoid: return Sigmoid(x);
  }
  ADAPTRAJ_CHECK_MSG(false, "unreachable activation");
  return x;
}

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng) {
  weight_ = RegisterParameter("w", XavierMatrix(in_features, out_features, rng));
  bias_ = RegisterParameter("b", Tensor::Zeros({1, out_features}));
}

Tensor Linear::Forward(const Tensor& x) const {
  ADAPTRAJ_CHECK_MSG(x.dim() == 2 && x.shape()[1] == in_features(),
                     "Linear expects [B, " << in_features() << "]; got "
                                           << ShapeToString(x.shape()));
  // One fused node (values bit-identical to BroadcastAdd(MatMul(x, w), b)).
  return Affine(x, weight_, bias_);
}

Mlp::Mlp(const std::vector<int64_t>& dims, Rng* rng, Activation hidden, Activation output)
    : hidden_(hidden), output_(output) {
  ADAPTRAJ_CHECK_MSG(dims.size() >= 2, "Mlp needs at least input and output widths");
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
    RegisterModule("fc" + std::to_string(i), layers_.back().get());
  }
  layer_params_ = Parameters();
}

Tensor Mlp::Forward(const Tensor& x) const { return Forward(x, layer_params_); }

Tensor Mlp::Forward(const Tensor& x, const std::vector<Tensor>& params) const {
  ADAPTRAJ_CHECK_MSG(params.size() == 2 * layers_.size(),
                     "Mlp of " << layers_.size() << " layers needs "
                               << 2 * layers_.size() << " parameters; got "
                               << params.size());
  ADAPTRAJ_CHECK_MSG(x.dim() == 2 && x.shape()[1] == layers_[0]->in_features(),
                     "Mlp expects [B, " << layers_[0]->in_features() << "]; got "
                                        << ShapeToString(x.shape()));
  Tensor h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = Affine(h, params[2 * i], params[2 * i + 1]);
    h = Activate(h, i + 1 < layers_.size() ? hidden_ : output_);
  }
  return h;
}

int64_t Mlp::out_features() const { return layers_.back()->out_features(); }

Dropout::Dropout(float rate) : rate_(rate) {
  ADAPTRAJ_CHECK_MSG(rate >= 0.0f && rate < 1.0f,
                     "Dropout rate must be in [0, 1); got " << rate);
}

Tensor Dropout::Forward(const Tensor& x, Rng* rng) const {
  if (!is_training() || rate_ == 0.0f) return x;
  ADAPTRAJ_CHECK_MSG(rng != nullptr, "Dropout in training mode needs an rng");
  const float keep = 1.0f - rate_;
  const float scale = 1.0f / keep;
  std::vector<float> mask(static_cast<size_t>(x.size()));
  for (auto& m : mask) m = rng->Bernoulli(keep) ? scale : 0.0f;
  // The mask is a constant: gradients flow into x only.
  return Mul(x, Tensor::FromVector(x.shape(), std::move(mask)));
}

LstmCell::LstmCell(int64_t input_size, int64_t hidden_size, Rng* rng)
    : hidden_size_(hidden_size) {
  w_ih_ = RegisterParameter("w_ih", XavierMatrix(input_size, 4 * hidden_size, rng));
  w_hh_ = RegisterParameter("w_hh", XavierMatrix(hidden_size, 4 * hidden_size, rng));
  Tensor bias = Tensor::Zeros({1, 4 * hidden_size});
  // Forget-gate bias = 1 eases gradient flow early in training.
  for (int64_t j = hidden_size; j < 2 * hidden_size; ++j) bias.data()[j] = 1.0f;
  bias_ = RegisterParameter("b", bias);
}

LstmCell::State LstmCell::InitialState(int64_t batch) const {
  return {Tensor::Zeros({batch, hidden_size_}), Tensor::Zeros({batch, hidden_size_})};
}

LstmCell::State LstmCell::Forward(const Tensor& x, const State& state) const {
  // Three fused graph nodes per step: pre-activation gates in one GEMM pair,
  // then the sigmoid/tanh gate chains for c and h in one kernel each.
  Tensor gates = LinearGates(x, w_ih_, state.h, w_hh_, bias_);
  Tensor c_next = LstmCellC(gates, state.c);
  Tensor h_next = LstmCellH(gates, c_next);
  return {h_next, c_next};
}

Lstm::Lstm(int64_t input_size, int64_t hidden_size, Rng* rng)
    : cell_(input_size, hidden_size, rng) {
  RegisterModule("cell", &cell_);
}

LstmCell::State Lstm::Forward(const std::vector<Tensor>& steps,
                              std::vector<Tensor>* outputs) const {
  ADAPTRAJ_CHECK_MSG(!steps.empty(), "Lstm::Forward on empty sequence");
  LstmCell::State state = cell_.InitialState(steps[0].shape()[0]);
  for (const Tensor& x : steps) {
    state = cell_.Forward(x, state);
    if (outputs != nullptr) outputs->push_back(state.h);
  }
  return state;
}

}  // namespace nn
}  // namespace adaptraj
