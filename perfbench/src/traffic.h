// Seeded serving traffic: the scenes a workload sends and when it sends them.
//
// Scenes. A pool of simulator SDD windows is the base material. Scene `id`
// is base window Mix64(seed, id) % pool with seeded jitter added to every
// per-step DISPLACEMENT of the focal agent and of each neighbor, then
// re-integrated from the original start points. Jitter must touch the
// displacements: data::MakeBatch normalizes each scene into its focal frame,
// so a pure translation would tensorize to the same bytes and hit the
// encoder cache. Distinct ids therefore give byte-distinct encoder inputs,
// and any id can be regenerated later (for the reference check) without
// storing the scene.
//
// Arrivals. An open-loop schedule of due times at a fixed long-run rate:
// plain Poisson, or on/off bursts: Poisson at `burst_multiplier` x rate
// during ON phases of burst_on_s, silent during OFF phases of
// (burst_multiplier - 1) x burst_on_s, so the long-run rate stays `rate`.
// Phase lengths are fixed rather than drawn, so every second of a run sees
// the same number of bursts and the offered count per second varies only
// as much as a Poisson count does. Each arrival names a scene id:
// always the next fresh id, or — with repeat_fraction > 0 — with that
// probability a uniformly chosen id of a fixed hot set instead.

#ifndef PERFBENCH_TRAFFIC_H_
#define PERFBENCH_TRAFFIC_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace perfbench {

/// Simulated SDD prediction windows every scene is derived from.
struct ScenePool {
  std::vector<adaptraj::data::TrajectorySequence> windows;
};

/// Simulates `num_scenes` SDD scenes of `steps` recorded steps and extracts
/// their prediction windows (default SequenceConfig).
ScenePool BuildScenePool(uint64_t seed, int num_scenes, int steps);

/// Writes scene `id` of the seeded stream into `out` (see the file comment).
void MakeScene(const ScenePool& pool, uint64_t seed, uint64_t id,
               adaptraj::data::TrajectorySequence* out);

struct TrafficSpec {
  double rate = 10000.0;          // long-run arrivals per second
  bool bursts = false;            // on/off modulation (else plain Poisson)
  double burst_multiplier = 3.0;  // ON-phase rate / long-run rate
  double burst_on_s = 0.03;       // ON phase length
  double repeat_fraction = 0.0;   // share of arrivals drawn from the hot set
  uint64_t hot_first = 0;         // hot set = ids [hot_first, hot_first + hot_size)
  uint64_t hot_size = 0;
  uint64_t fresh_first = 0;       // first fresh id this stream hands out
};

struct Arrival {
  double due_s = 0.0;  // offset from the stream's start
  uint64_t scene = 0;
  bool repeat = false;
};

/// Deterministic arrival stream: same (spec, seed) -> same arrivals.
class ArrivalStream {
 public:
  ArrivalStream(const TrafficSpec& spec, uint64_t seed);
  Arrival Next();

 private:
  double Uniform();  // [0, 1)
  double Exponential(double mean);

  TrafficSpec spec_;
  uint64_t state_;
  double t_ = 0.0;  // arrival clock: wall time, or ON time with bursts
  uint64_t next_fresh_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRAFFIC_H_
