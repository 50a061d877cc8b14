#include "traffic.h"

#include <cmath>

#include "harness.h"
#include "sim/domain_spec.h"
#include "sim/social_force.h"

namespace perfbench {

namespace ad = adaptraj;

namespace {

// Half-width of the uniform jitter added to each per-step displacement:
// small against SDD walking steps (~0.4 units), large against float spacing.
constexpr float kJitter = 0.02f;

}  // namespace

ScenePool BuildScenePool(uint64_t seed, int num_scenes, int steps) {
  const std::vector<ad::sim::Scene> scenes =
      ad::sim::GenerateScenes(ad::sim::SddSpec(), num_scenes, steps, Mix64(seed ^ 0x5dd));
  ScenePool pool;
  pool.windows = ad::data::ExtractSequences(scenes, ad::data::SequenceConfig(),
                                            ad::sim::Domain::kSdd);
  return pool;
}

void MakeScene(const ScenePool& pool, uint64_t seed, uint64_t id,
               ad::data::TrajectorySequence* out) {
  const uint64_t key = Mix64(seed ^ Mix64(id + 0x51ce));
  const auto& base = pool.windows[key % pool.windows.size()];
  *out = base;
  uint64_t stream = key;
  auto jitter = [&stream]() {
    return kJitter * static_cast<float>(2.0 * UnitFromBits(Mix64(stream++)) - 1.0);
  };
  auto rewalk = [&jitter](const std::vector<ad::sim::Vec2>& src,
                          std::vector<ad::sim::Vec2>* dst) {
    for (size_t t = 1; t < src.size(); ++t) {
      (*dst)[t].x = (*dst)[t - 1].x + (src[t].x - src[t - 1].x) + jitter();
      (*dst)[t].y = (*dst)[t - 1].y + (src[t].y - src[t - 1].y) + jitter();
    }
  };
  rewalk(base.focal, &out->focal);
  for (size_t n = 0; n < base.neighbors.size(); ++n) {
    rewalk(base.neighbors[n], &out->neighbors[n]);
  }
}

ArrivalStream::ArrivalStream(const TrafficSpec& spec, uint64_t seed)
    : spec_(spec), state_(Mix64(seed ^ 0xa771)), next_fresh_(spec.fresh_first) {}

double ArrivalStream::Uniform() { return UnitFromBits(Mix64(state_++)); }

double ArrivalStream::Exponential(double mean) {
  return -mean * std::log1p(-Uniform());
}

Arrival ArrivalStream::Next() {
  Arrival a;
  if (!spec_.bursts) {
    t_ += Exponential(1.0 / spec_.rate);
    a.due_s = t_;
  } else {
    // A Poisson process in ON time, mapped onto the wall clock: ON time
    // [k * on, (k + 1) * on) is wall time [k * period, k * period + on).
    t_ += Exponential(1.0 / (spec_.rate * spec_.burst_multiplier));
    const double on = spec_.burst_on_s;
    const double cycle = std::floor(t_ / on);
    a.due_s = cycle * on * spec_.burst_multiplier + (t_ - cycle * on);
  }
  const double coin = Uniform();
  if (spec_.hot_size > 0 && coin < spec_.repeat_fraction) {
    a.repeat = true;
    a.scene = spec_.hot_first +
              static_cast<uint64_t>(Uniform() * static_cast<double>(spec_.hot_size));
  } else {
    a.scene = next_fresh_++;
  }
  return a;
}

}  // namespace perfbench
