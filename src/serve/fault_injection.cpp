#include "serve/fault_injection.h"

#include <chrono>
#include <limits>
#include <thread>
#include <utility>

#include "tensor/status.h"

namespace adaptraj {
namespace serve {

namespace {

// splitmix64: the repo-wide cheap seed mixer (same recipe as core::TaskSeed).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

FaultSchedule MakeSeededFaultSchedule(uint64_t seed, int64_t num_calls,
                                      double rate, FaultKind kind,
                                      int sleep_ms) {
  ADAPTRAJ_CHECK_MSG(rate >= 0.0 && rate <= 1.0,
                     "fault rate must be in [0, 1]; got " << rate);
  FaultSchedule schedule;
  for (int64_t i = 0; i < num_calls; ++i) {
    // Top 53 bits -> uniform double in [0, 1).
    const double u = static_cast<double>(Mix(seed + static_cast<uint64_t>(i)) >> 11) *
                     (1.0 / 9007199254740992.0);
    if (u < rate) schedule.emplace(i, FaultSpec{kind, sleep_ms});
  }
  return schedule;
}

FaultInjectingMethod::FaultInjectingMethod(const core::Method* inner,
                                           FaultSchedule schedule,
                                           bool force_serialized)
    : inner_(inner), schedule_(std::move(schedule)), force_serialized_(force_serialized) {
  ADAPTRAJ_CHECK_MSG(inner != nullptr, "FaultInjectingMethod over null method");
}

std::string FaultInjectingMethod::name() const {
  return "fault(" + inner_->name() + ")";
}

void FaultInjectingMethod::Train(const data::DomainGeneralizationData&,
                                 const core::TrainConfig&) {
  ADAPTRAJ_CHECK_MSG(false, "FaultInjectingMethod wraps a trained method; "
                            "train the inner method before wrapping");
}

bool FaultInjectingMethod::reentrant_predict() const {
  return force_serialized_ ? false : inner_->reentrant_predict();
}

int64_t FaultInjectingMethod::calls() const {
  return next_call_.load(std::memory_order_relaxed);
}

int64_t FaultInjectingMethod::faults_injected() const {
  return faults_.load(std::memory_order_relaxed);
}

Tensor FaultInjectingMethod::Predict(const data::Batch& batch, Rng* rng,
                                     bool sample) const {
  const int64_t call = next_call_.fetch_add(1, std::memory_order_relaxed);
  const auto it = schedule_.find(call);
  if (it == schedule_.end()) return inner_->Predict(batch, rng, sample);

  const FaultSpec& spec = it->second;
  faults_.fetch_add(1, std::memory_order_relaxed);
  switch (spec.kind) {
    case FaultKind::kThrow:
      throw FaultInjectedError("injected fault: Predict call " +
                               std::to_string(call) + " configured to throw");
    case FaultKind::kSleep:
      std::this_thread::sleep_for(std::chrono::milliseconds(spec.sleep_ms));
      return inner_->Predict(batch, rng, sample);
    case FaultKind::kNaN: {
      // Predict normally first: the rng stream advances exactly as in a
      // fault-free run, so LATER batches' noise is unaffected even though
      // this batch's values are destroyed.
      Tensor result = inner_->Predict(batch, rng, sample);
      float* data = result.data();
      const float nan = std::numeric_limits<float>::quiet_NaN();
      for (int64_t i = 0; i < result.size(); ++i) data[i] = nan;
      return result;
    }
  }
  ADAPTRAJ_CHECK_MSG(false, "unknown FaultKind");
  return Tensor();
}

}  // namespace serve
}  // namespace adaptraj
