// Capture, compilation, and replay of shape-specialized execution plans.
// See plan.h for the lifecycle and the determinism contract.
//
// Structure:
//   - Forward, the one recording entry: it runs an op's forward and, while
//     a thread-local Recorder is active, appends the op's step (tensors
//     resolve to slots by impl identity; every impl seen during a capture is
//     retained so heap-address reuse cannot alias slots),
//   - a compiler that rewrites the step list (LayerNorm chain, scaled/masked
//     softmax, LstmC+H, GEMM bias/activation epilogues with pre-packed
//     weights), sweeps dead steps, and assigns every intermediate an offset
//     in one pooled arena via a last-use liveness scan,
//   - the PlanCache / PredictSession pair that methods drive.
// Steps replay through RunForward (ops.cpp), the function eager ops run.

#include "tensor/plan.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <unordered_map>
#include <utility>

#include "support/sync.h"
#include "support/thread_annotations.h"
#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"

namespace adaptraj {
namespace plan {

namespace {

using internal::TensorImpl;
using Impl = std::shared_ptr<TensorImpl>;

/// Max compiled plans per cache before LRU eviction.
constexpr size_t kMaxPlans = 32;

// --- Mode --------------------------------------------------------------------

std::atomic<int> g_mode_override{static_cast<int>(Mode::kAuto)};

Mode EnvMode() {
  static const Mode resolved = [] {
    const char* env = std::getenv("ADAPTRAJ_PLAN");
    if (env == nullptr) return Mode::kOn;
    std::string v(env);
    for (char& c : v) c = static_cast<char>(std::tolower(c));
    if (v == "0" || v == "off" || v == "false") return Mode::kOff;
    return Mode::kOn;
  }();
  return resolved;
}

// --- Step / slot model -------------------------------------------------------

/// One recorded or compiler-built op: its description plus slot ids. The
/// OpDesc pointer fields are bound to the step's own storage by Bind once
/// the plan is compiled.
struct Step : OpDesc {
  std::vector<int> in;
  int out = -1;
  int out2 = -1;
  std::vector<int64_t> part_extents;  // kConcat, when not all 1
  int64_t c0 = -1, c1 = -1, c2 = -1;  // constants offsets (W, W2, bias)

  void Bind(const float* constants) {
    extents = part_extents.empty() ? nullptr : part_extents.data();
    packed[0] = c0 >= 0 ? constants + c0 : nullptr;
    packed[1] = c1 >= 0 ? constants + c1 : nullptr;
    packed[2] = c2 >= 0 ? constants + c2 : nullptr;
  }
};

struct SlotDef {
  enum Kind { kInput, kExternal, kArena, kResult } kind = kArena;
  int64_t elems = 0;
  int input_index = -1;   // kInput
  Impl external;          // kExternal: retained, re-read every replay
  int64_t arena_off = -1; // kArena
};

struct CompiledPlan {
  std::vector<SlotDef> slots;
  std::vector<Step> steps;
  internal::FloatBuffer constants;
  int64_t arena_elems = 0;
  int result_slot = -1;
  Shape result_shape;
  size_t n_inputs = 0;
  int64_t fused_steps = 0;
  int64_t eliminated_steps = 0;

  Tensor Execute(const std::vector<const Tensor*>& inputs, Rng* rng) const;
};

Tensor CompiledPlan::Execute(const std::vector<const Tensor*>& inputs,
                             Rng* rng) const {
  ADAPTRAJ_CHECK_MSG(inputs.size() == n_inputs,
                     "plan replay: input count " << inputs.size() << " != "
                                                 << n_inputs);
  internal::FloatBuffer arena = internal::AcquireBuffer(arena_elems);
  auto rimpl = std::make_shared<TensorImpl>();
  rimpl->shape = result_shape;
  rimpl->data = internal::AcquireBuffer(NumElements(result_shape));
  // Per-thread slot table, as in Forward below: a replay makes no allocation
  // here once the table has grown to the largest plan this thread replays.
  // Replays never nest on one thread (steps run kernels only).
  thread_local std::vector<float*> p;
  p.assign(slots.size(), nullptr);
  for (size_t i = 0; i < slots.size(); ++i) {
    const SlotDef& s = slots[i];
    switch (s.kind) {
      case SlotDef::kInput: {
        const Tensor* t = inputs[s.input_index];
        ADAPTRAJ_CHECK_MSG(t != nullptr && t->defined() && t->size() == s.elems,
                           "plan replay: input " << s.input_index
                                                 << " shape changed under a "
                                                    "cached plan key");
        p[i] = const_cast<float*>(t->data());
        break;
      }
      case SlotDef::kExternal:
        p[i] = s.external->data.data();
        break;
      case SlotDef::kArena:
        p[i] = arena.data() + s.arena_off;
        break;
      case SlotDef::kResult:
        p[i] = rimpl->data.data();
        break;
    }
  }
  for (const Step& s : steps) {
    RunForward(s, Operands{p.data(), s.in.data(), s.in.size()}, p[s.out],
               s.out2 >= 0 ? p[s.out2] : nullptr, rng);
  }
  internal::ReleaseBuffer(std::move(arena));
  return Tensor::FromImpl(std::move(rimpl));
}

// --- Recorder ----------------------------------------------------------------

struct Recorder {
  std::vector<SlotDef> slots;
  std::vector<Step> steps;
  std::unordered_map<const TensorImpl*, int> by_impl;
  /// Every impl seen during the capture, retained so no freed impl's heap
  /// address can be reused and aliased to a stale slot.
  std::vector<Impl> retain;
  int64_t op_outputs = 0;
  int64_t op_steps = 0;
  bool aborted = false;
  std::string abort_reason;

  void Abort(const std::string& why) {
    if (!aborted) {
      aborted = true;
      abort_reason = why;
    }
  }

  int SlotOfValue(const Tensor& t) {
    const TensorImpl* key = t.impl().get();
    auto it = by_impl.find(key);
    if (it != by_impl.end()) return it->second;
    // First sighting as a step input: a constant from outside the capture
    // (parameter, eval-mask, Zeros/Full/FromVector leaf). Retain and re-read
    // it on every replay.
    const int id = static_cast<int>(slots.size());
    SlotDef def;
    def.kind = SlotDef::kExternal;
    def.elems = t.size();
    def.external = t.impl();
    slots.push_back(std::move(def));
    by_impl.emplace(key, id);
    retain.push_back(t.impl());
    return id;
  }

  int SlotOfOutput(const Tensor& t) {
    const TensorImpl* key = t.impl().get();
    if (by_impl.count(key) != 0) {
      Abort("op output aliases an existing slot");
      return by_impl[key];
    }
    const int id = static_cast<int>(slots.size());
    SlotDef def;
    def.kind = SlotDef::kArena;
    def.elems = t.size();
    slots.push_back(std::move(def));
    by_impl.emplace(key, id);
    retain.push_back(t.impl());
    return id;
  }
};

thread_local Recorder* g_recorder = nullptr;

Recorder* ActiveRecorder() {
  Recorder* r = g_recorder;
  return (r != nullptr && !r->aborted) ? r : nullptr;
}

// --- Compiler ----------------------------------------------------------------

struct Analysis {
  std::vector<int> producer;    // slot -> step index (-1 = not produced)
  std::vector<int> consumers;   // slot -> number of consuming step inputs
};

Analysis Analyze(const std::vector<Step>& steps, size_t n_slots,
                 int result_slot) {
  Analysis a;
  a.producer.assign(n_slots, -1);
  a.consumers.assign(n_slots, 0);
  for (size_t i = 0; i < steps.size(); ++i) {
    for (int in : steps[i].in) a.consumers[in]++;
    if (steps[i].out >= 0) a.producer[steps[i].out] = static_cast<int>(i);
    if (steps[i].out2 >= 0) a.producer[steps[i].out2] = static_cast<int>(i);
  }
  if (result_slot >= 0) a.consumers[result_slot]++;
  return a;
}

bool IsUnary(const Step& s, Un op) {
  return s.kind == Op::kUnary && static_cast<Un>(s.code) == op;
}

/// True when a broadcast step adds or multiplies a per-row value over the
/// last axis (all leading dims equal, last dim 1).
bool RowBroadcast(const Step& s) {
  if (s.rank == 0) return false;
  for (int d = 0; d + 1 < s.rank; ++d) {
    if (s.b_shape[d] != s.shape[d]) return false;
  }
  return s.b_shape[s.rank - 1] == 1;
}

/// Fuses LstmCellC + LstmCellH over the same gates into one two-output step.
int64_t FuseLstmCH(std::vector<Step>& steps, std::vector<bool>& dead) {
  int64_t fused = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (dead[i] || steps[i].kind != Op::kLstmC) continue;
    for (size_t j = i + 1; j < steps.size(); ++j) {
      if (dead[j] || steps[j].kind != Op::kLstmH) continue;
      if (steps[j].in[0] != steps[i].in[0] || steps[j].in[1] != steps[i].out) {
        continue;
      }
      steps[i].kind = Op::kLstmCH;
      steps[i].out2 = steps[j].out;
      dead[j] = true;
      ++fused;
      break;
    }
  }
  return fused;
}

/// Fuses MulScalar [∘ MaskedFill] ∘ Softmax into one kernel step.
int64_t FuseScaledSoftmax(std::vector<Step>& steps, std::vector<bool>& dead,
                          const std::vector<SlotDef>& slots, int result_slot) {
  int64_t fused = 0;
  Analysis a = Analyze(steps, slots.size(), result_slot);
  for (size_t i = 0; i < steps.size(); ++i) {
    if (dead[i] || steps[i].kind != Op::kSoftmax) continue;
    Step& sm = steps[i];
    const int x = sm.in[0];
    int pd = a.producer[x];
    if (pd < 0 || dead[pd] || a.consumers[x] != 1) continue;
    int mask = -1;
    float fill = 0.0f;
    int scale_step = -1;
    if (steps[pd].kind == Op::kMaskedFill) {
      const int y = steps[pd].in[0];
      mask = steps[pd].in[1];
      fill = steps[pd].f0;
      const int pm = a.producer[y];
      if (pm < 0 || dead[pm] || a.consumers[y] != 1 ||
          !IsUnary(steps[pm], Un::kMulScalar)) {
        continue;
      }
      scale_step = pm;
    } else if (IsUnary(steps[pd], Un::kMulScalar)) {
      scale_step = pd;
      pd = -1;
    } else {
      continue;
    }
    const int base = steps[scale_step].in[0];
    if (mask >= 0 && slots[mask].elems != slots[base].elems) continue;
    sm.kind = Op::kScaledSoftmax;
    sm.in.clear();
    sm.in.push_back(base);
    if (mask >= 0) sm.in.push_back(mask);
    sm.f0 = steps[scale_step].f0;
    sm.f1 = fill;
    dead[scale_step] = true;
    ++fused;
    if (pd >= 0) {
      dead[pd] = true;
      ++fused;
    }
    a = Analyze(steps, slots.size(), result_slot);
  }
  return fused;
}

/// Fuses LayerNorm's 9-step normalize chain (MeanAxis → Neg → BroadcastAdd →
/// Square → MeanAxis → AddScalar(eps) → Sqrt → Div(ones, ·) → BroadcastMul)
/// into one kernel step.
int64_t FuseLayerNorm(std::vector<Step>& steps, std::vector<bool>& dead,
                      const std::vector<SlotDef>& slots, int result_slot) {
  int64_t fused = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (dead[i]) continue;
    Step& sbm = steps[i];
    if (sbm.kind != Op::kBroadcast || static_cast<Bin>(sbm.code) != Bin::kMul) {
      continue;
    }
    Analysis a = Analyze(steps, slots.size(), result_slot);
    const int centered = sbm.in[0];
    const int inv = sbm.in[1];
    const int pi = a.producer[inv];
    if (pi < 0 || dead[pi] || a.consumers[inv] != 1 ||
        steps[pi].kind != Op::kBinary ||
        static_cast<Bin>(steps[pi].code) != Bin::kDiv) {
      continue;
    }
    const int ones = steps[pi].in[0];
    const int sd = steps[pi].in[1];
    if (slots[ones].kind != SlotDef::kExternal) continue;
    {
      const internal::FloatBuffer& od = slots[ones].external->data;
      if (!std::all_of(od.begin(), od.end(),
                       [](float v) { return v == 1.0f; })) {
        continue;
      }
    }
    const int psd = a.producer[sd];
    if (psd < 0 || dead[psd] || a.consumers[sd] != 1 ||
        !IsUnary(steps[psd], Un::kSqrt)) {
      continue;
    }
    const int veps = steps[psd].in[0];
    const int pveps = a.producer[veps];
    if (pveps < 0 || dead[pveps] || a.consumers[veps] != 1 ||
        !IsUnary(steps[pveps], Un::kAddScalar)) {
      continue;
    }
    const float eps = steps[pveps].f0;
    const int var = steps[pveps].in[0];
    const int pvar = a.producer[var];
    if (pvar < 0 || dead[pvar] || a.consumers[var] != 1 ||
        steps[pvar].kind != Op::kReduce || !steps[pvar].flag_a ||
        steps[pvar].inner != 1) {
      continue;
    }
    const int sq = steps[pvar].in[0];
    const int psq = a.producer[sq];
    if (psq < 0 || dead[psq] || a.consumers[sq] != 1 ||
        !IsUnary(steps[psq], Un::kSquare) || steps[psq].in[0] != centered) {
      continue;
    }
    const int pc = a.producer[centered];
    if (pc < 0 || dead[pc] || a.consumers[centered] != 2 ||
        steps[pc].kind != Op::kBroadcast ||
        static_cast<Bin>(steps[pc].code) != Bin::kAdd ||
        !RowBroadcast(steps[pc]) || !RowBroadcast(sbm)) {
      continue;
    }
    const int x = steps[pc].in[0];
    const int negmean = steps[pc].in[1];
    const int pneg = a.producer[negmean];
    if (pneg < 0 || dead[pneg] || a.consumers[negmean] != 1 ||
        !IsUnary(steps[pneg], Un::kMulScalar) || steps[pneg].f0 != -1.0f) {
      continue;
    }
    const int mean = steps[pneg].in[0];
    const int pmean = a.producer[mean];
    if (pmean < 0 || dead[pmean] || a.consumers[mean] != 1 ||
        steps[pmean].kind != Op::kReduce || !steps[pmean].flag_a ||
        steps[pmean].inner != 1 || steps[pmean].in[0] != x) {
      continue;
    }
    const int64_t rows = steps[pmean].outer;
    const int64_t cols = steps[pmean].extent;
    if (steps[pvar].outer != rows || steps[pvar].extent != cols) continue;
    sbm.kind = Op::kLayerNorm;
    sbm.in.clear();
    sbm.in.push_back(x);
    sbm.m = rows;
    sbm.n = cols;
    sbm.f0 = eps;
    for (int d : {pi, psd, pveps, pvar, psq, pc, pneg, pmean}) dead[d] = true;
    fused += 8;
  }
  return fused;
}

/// Converts Affine / DualMatMul / MatMul steps whose weights are external
/// into pre-packed PlanGemm steps, folding a single-consumer Relu / Tanh /
/// Sigmoid epilogue.
int64_t FuseGemmEpilogues(std::vector<Step>& steps, std::vector<bool>& dead,
                          std::vector<SlotDef>& slots, int result_slot,
                          internal::FloatBuffer& constants) {
  int64_t fused = 0;
  Analysis a = Analyze(steps, slots.size(), result_slot);
  // Weights pack into the layout of the GEMM path active at capture time —
  // resolved PER STEP via GemmPathForShape (sub-panel products pack for and
  // replay on the portable kernel; full-width ones for AVX-512). Each
  // kPlanGemm step records its path so replay reads the layout it was packed
  // for even if the global path is flipped afterwards.
  auto pack = [&constants](const SlotDef& slot, int64_t k, int64_t n,
                           kernels::GemmPath gpath) {
    const int64_t off = static_cast<int64_t>(constants.size());
    constants.resize(constants.size() +
                     static_cast<size_t>(kernels::PlanPackedSize(k, n, gpath)));
    kernels::PlanPackWeightFor(slot.external->data.data(), k, n, gpath,
                               constants.data() + off);
    return off;
  };
  auto pack_bias = [&constants](const SlotDef& slot, int64_t n,
                                kernels::GemmPath gpath) {
    const int64_t off = static_cast<int64_t>(constants.size());
    constants.resize(constants.size() +
                     static_cast<size_t>(kernels::PlanPackedBiasSize(n, gpath)));
    kernels::PlanPackBiasFor(slot.external->data.data(), n, gpath,
                             constants.data() + off);
    return off;
  };
  for (size_t i = 0; i < steps.size(); ++i) {
    if (dead[i]) continue;
    Step& s = steps[i];
    const bool is_affine = s.kind == Op::kAffine;
    const bool is_dual = s.kind == Op::kDualMatMul;
    const bool is_matmul = s.kind == Op::kMatMul;
    if (!is_affine && !is_dual && !is_matmul) continue;
    const int w1 = is_dual ? s.in[1] : s.in[1];
    if (slots[w1].kind != SlotDef::kExternal) continue;
    int w2 = -1, bias = -1;
    if (is_dual) {
      w2 = s.in[3];
      if (slots[w2].kind != SlotDef::kExternal) continue;
      if (s.in.size() > 4) bias = s.in[4];
    } else if (is_affine) {
      bias = s.in[2];
    }
    if (bias >= 0 && slots[bias].kind != SlotDef::kExternal) continue;
    // Fold a single-consumer activation into the epilogue.
    kernels::PlanAct act = kernels::PlanAct::kNone;
    if (s.out != result_slot && a.consumers[s.out] == 1) {
      for (size_t j = i + 1; j < steps.size(); ++j) {
        if (dead[j] || steps[j].kind != Op::kUnary) continue;
        if (steps[j].in[0] != s.out) continue;
        const Un op = static_cast<Un>(steps[j].code);
        if (op == Un::kRelu) act = kernels::PlanAct::kRelu;
        else if (op == Un::kTanh) act = kernels::PlanAct::kTanh;
        else if (op == Un::kSigmoid) act = kernels::PlanAct::kSigmoid;
        if (act != kernels::PlanAct::kNone) {
          s.out = steps[j].out;
          dead[j] = true;
          ++fused;
          a = Analyze(steps, slots.size(), result_slot);
        }
        break;
      }
    }
    const kernels::GemmPath gpath = kernels::GemmPathForShape(s.n);
    s.c0 = pack(slots[w1], s.k, s.n, gpath);
    if (w2 >= 0) s.c1 = pack(slots[w2], s.k2, s.n, gpath);
    if (bias >= 0) s.c2 = pack_bias(slots[bias], s.n, gpath);
    const int a1 = s.in[0];
    const int a2 = is_dual ? s.in[2] : -1;
    s.in.clear();
    s.in.push_back(a1);
    if (a2 >= 0) s.in.push_back(a2);
    s.kind = Op::kPlanGemm;
    s.code = static_cast<int>(act);
    s.gpath = gpath;
    if (!is_dual) s.k2 = 0;
    ++fused;  // the packed conversion itself removes the bias/pack traffic
  }
  return fused;
}

/// Reverse liveness sweep; rng-drawing steps are side-effecting and never
/// removed (they keep the replayed rng stream aligned with eager).
int64_t EliminateDeadSteps(std::vector<Step>& steps, std::vector<bool>& dead,
                           size_t n_slots, int result_slot) {
  std::vector<bool> needed(n_slots, false);
  if (result_slot >= 0) needed[result_slot] = true;
  int64_t eliminated = 0;
  for (size_t ri = steps.size(); ri-- > 0;) {
    if (dead[ri]) continue;
    Step& s = steps[ri];
    const bool side_effect = s.kind == Op::kRandn || s.kind == Op::kRand;
    const bool live = side_effect || (s.out >= 0 && needed[s.out]) ||
                      (s.out2 >= 0 && needed[s.out2]);
    if (!live) {
      dead[ri] = true;
      ++eliminated;
      continue;
    }
    for (int in : s.in) needed[in] = true;
  }
  return eliminated;
}

/// Pads a slot's element count so distinct arena blocks stay 64-byte
/// aligned relative to the arena base.
int64_t PadElems(int64_t elems) { return (elems + 15) & ~int64_t{15}; }

/// Last-use liveness scan assigning every arena slot an offset, reusing
/// freed blocks of the same padded size.
int64_t AssignArena(std::vector<Step>& steps, std::vector<SlotDef>& slots,
                    int result_slot) {
  const int n_slots = static_cast<int>(slots.size());
  std::vector<int> last_use(n_slots, -1);
  for (size_t i = 0; i < steps.size(); ++i) {
    for (int in : steps[i].in) last_use[in] = static_cast<int>(i);
    if (steps[i].out >= 0) {
      last_use[steps[i].out] =
          std::max(last_use[steps[i].out], static_cast<int>(i));
    }
    if (steps[i].out2 >= 0) {
      last_use[steps[i].out2] =
          std::max(last_use[steps[i].out2], static_cast<int>(i));
    }
  }
  if (result_slot >= 0) last_use[result_slot] = static_cast<int>(steps.size());
  std::map<int64_t, std::vector<int64_t>> free_by_size;
  int64_t watermark = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    for (int out : {steps[i].out, steps[i].out2}) {
      if (out < 0 || slots[out].kind != SlotDef::kArena) continue;
      const int64_t sz = PadElems(slots[out].elems);
      auto& freelist = free_by_size[sz];
      if (!freelist.empty()) {
        slots[out].arena_off = freelist.back();
        freelist.pop_back();
      } else {
        slots[out].arena_off = watermark;
        watermark += sz;
      }
    }
    // Free blocks whose last use is this step (inputs and never-read
    // outputs), after the step's own outputs are placed.
    std::vector<int> dying;
    for (int in : steps[i].in) {
      if (slots[in].kind == SlotDef::kArena &&
          last_use[in] == static_cast<int>(i)) {
        dying.push_back(in);
      }
    }
    for (int out : {steps[i].out, steps[i].out2}) {
      if (out >= 0 && slots[out].kind == SlotDef::kArena &&
          last_use[out] == static_cast<int>(i)) {
        dying.push_back(out);
      }
    }
    std::sort(dying.begin(), dying.end());
    dying.erase(std::unique(dying.begin(), dying.end()), dying.end());
    for (int slot : dying) {
      free_by_size[PadElems(slots[slot].elems)].push_back(
          slots[slot].arena_off);
    }
  }
  return watermark;
}

std::shared_ptr<const CompiledPlan> Compile(Recorder& rec,
                                            const Tensor& result,
                                            size_t n_inputs,
                                            std::string* error) {
  auto it = rec.by_impl.find(result.impl().get());
  if (it == rec.by_impl.end() ||
      rec.slots[it->second].kind != SlotDef::kArena) {
    *error = "result is not produced by a recorded step";
    return nullptr;
  }
  const int result_slot = it->second;

  auto plan = std::make_shared<CompiledPlan>();
  plan->slots = std::move(rec.slots);
  plan->steps = std::move(rec.steps);
  plan->result_slot = result_slot;
  plan->result_shape = result.shape();
  plan->n_inputs = n_inputs;

  std::vector<bool> dead(plan->steps.size(), false);
  plan->fused_steps += FuseLayerNorm(plan->steps, dead, plan->slots, result_slot);
  plan->fused_steps +=
      FuseScaledSoftmax(plan->steps, dead, plan->slots, result_slot);
  plan->fused_steps += FuseLstmCH(plan->steps, dead);
  plan->fused_steps += FuseGemmEpilogues(plan->steps, dead, plan->slots,
                                         result_slot, plan->constants);
  plan->eliminated_steps =
      EliminateDeadSteps(plan->steps, dead, plan->slots.size(), result_slot);

  std::vector<Step> live;
  live.reserve(plan->steps.size());
  for (size_t i = 0; i < plan->steps.size(); ++i) {
    if (!dead[i]) live.push_back(std::move(plan->steps[i]));
  }
  plan->steps = std::move(live);

  plan->slots[result_slot].kind = SlotDef::kResult;
  plan->arena_elems = AssignArena(plan->steps, plan->slots, result_slot);
  for (Step& s : plan->steps) s.Bind(plan->constants.data());
  return plan;
}

}  // namespace

// --- CacheStats --------------------------------------------------------------

CacheStats& CacheStats::operator+=(const CacheStats& o) {
  plans += o.plans;
  hits += o.hits;
  misses += o.misses;
  captures += o.captures;
  aborted += o.aborted;
  fused_steps += o.fused_steps;
  eliminated_steps += o.eliminated_steps;
  arena_bytes += o.arena_bytes;
  constant_bytes += o.constant_bytes;
  return *this;
}

// --- Mode --------------------------------------------------------------------

void SetMode(Mode mode) {
  g_mode_override.store(static_cast<int>(mode), std::memory_order_relaxed);
}

Mode EffectiveMode() {
  const Mode o =
      static_cast<Mode>(g_mode_override.load(std::memory_order_relaxed));
  return o == Mode::kAuto ? EnvMode() : o;
}

// --- PlanCache ---------------------------------------------------------------

namespace internal_plan {

struct CacheState {
  mutable support::Mutex mu;
  struct Entry {
    std::shared_ptr<const CompiledPlan> plan;
    bool unplannable = false;
    bool capturing = false;
    uint64_t last_used = 0;
  };
  std::map<std::string, Entry> entries ADAPTRAJ_GUARDED_BY(mu);
  uint64_t tick ADAPTRAJ_GUARDED_BY(mu) = 0;
  std::atomic<int64_t> hits{0};
  std::atomic<int64_t> misses{0};
  std::atomic<int64_t> captures{0};
  std::atomic<int64_t> aborted{0};
};

}  // namespace internal_plan

using internal_plan::CacheState;

PlanCache::PlanCache() : state_(std::make_unique<CacheState>()) {}
PlanCache::~PlanCache() = default;

CacheStats PlanCache::stats() const {
  CacheStats s;
  s.hits = state_->hits.load(std::memory_order_relaxed);
  s.misses = state_->misses.load(std::memory_order_relaxed);
  s.captures = state_->captures.load(std::memory_order_relaxed);
  s.aborted = state_->aborted.load(std::memory_order_relaxed);
  support::MutexLock lock(state_->mu);
  for (const auto& [key, entry] : state_->entries) {
    (void)key;
    if (entry.plan == nullptr) continue;
    s.plans++;
    s.fused_steps += entry.plan->fused_steps;
    s.eliminated_steps += entry.plan->eliminated_steps;
    s.arena_bytes += entry.plan->arena_elems * static_cast<int64_t>(sizeof(float));
    s.constant_bytes += static_cast<int64_t>(entry.plan->constants.size()) *
                        static_cast<int64_t>(sizeof(float));
  }
  return s;
}

void PlanCache::Invalidate() {
  support::MutexLock lock(state_->mu);
  // Entries mid-capture keep their marker; the capturing session's Finish
  // still runs and stores a plan compiled from post-mutation values, which
  // is exactly what the caller wants after an in-place update.
  for (auto it = state_->entries.begin(); it != state_->entries.end();) {
    if (it->second.capturing) {
      it->second.plan = nullptr;
      it->second.unplannable = false;
      ++it;
    } else {
      it = state_->entries.erase(it);
    }
  }
}

// --- PredictSession ----------------------------------------------------------

namespace internal_plan {

struct SessionState {
  PlanCache* cache = nullptr;
  std::string key;
  std::vector<const Tensor*> inputs;
  Rng* rng = nullptr;
  Mode mode = Mode::kOff;
  std::shared_ptr<const CompiledPlan> replay_plan;  // kOn fast path
  std::shared_ptr<const CompiledPlan> verify_plan;  // kVerify check path
  std::unique_ptr<Rng> verify_rng;  // snapshot taken before the eager body
  std::unique_ptr<Recorder> recorder;
  bool counted = false;
};

}  // namespace internal_plan

using internal_plan::SessionState;

PredictSession::PredictSession(PlanCache* cache, std::string key,
                               std::vector<const Tensor*> inputs, Rng* rng)
    : state_(std::make_unique<SessionState>()) {
  state_->cache = cache;
  state_->key = std::move(key);
  state_->inputs = std::move(inputs);
  state_->rng = rng;
  state_->mode = EffectiveMode();
  if (state_->mode == Mode::kOff || cache == nullptr) return;
  // Nested captures (a Predict called from inside a recorded Predict) stay
  // eager: the outer recording owns the thread.
  if (g_recorder != nullptr) return;
  // Two input positions sharing one impl would collapse to one slot and
  // rebind ambiguously on replay; such calls stay eager.
  {
    std::unordered_map<const TensorImpl*, int> seen;
    for (const Tensor* t : state_->inputs) {
      if (t == nullptr || !t->defined()) continue;
      if (++seen[t->impl().get()] > 1) return;
    }
  }

  CacheState* cs = cache->state_.get();
  support::MutexLock lock(cs->mu);
  auto& entry = cs->entries[state_->key];
  entry.last_used = ++cs->tick;
  if (entry.plan != nullptr) {
    if (state_->mode == Mode::kOn) {
      state_->replay_plan = entry.plan;
    } else {  // kVerify: run eager AND replay, then compare
      state_->verify_plan = entry.plan;
      if (rng != nullptr) state_->verify_rng = std::make_unique<Rng>(*rng);
    }
    return;
  }
  if (entry.unplannable || entry.capturing) {
    cs->misses.fetch_add(1, std::memory_order_relaxed);
    state_->counted = true;
    return;
  }
  entry.capturing = true;
  state_->recorder = std::make_unique<Recorder>();
  for (size_t i = 0; i < state_->inputs.size(); ++i) {
    const Tensor* t = state_->inputs[i];
    if (t == nullptr || !t->defined()) continue;
    SlotDef def;
    def.kind = SlotDef::kInput;
    def.elems = t->size();
    def.input_index = static_cast<int>(i);
    const int id = static_cast<int>(state_->recorder->slots.size());
    state_->recorder->slots.push_back(std::move(def));
    state_->recorder->by_impl.emplace(t->impl().get(), id);
    state_->recorder->retain.push_back(t->impl());
  }
  g_recorder = state_->recorder.get();
}

PredictSession::~PredictSession() {
  if (state_->recorder != nullptr &&
      g_recorder == state_->recorder.get()) {
    // Finish never ran (exception or early return): release the capture
    // marker so a later call can retry.
    g_recorder = nullptr;
    CacheState* cs = state_->cache->state_.get();
    support::MutexLock lock(cs->mu);
    auto it = cs->entries.find(state_->key);
    if (it != cs->entries.end()) it->second.capturing = false;
    cs->aborted.fetch_add(1, std::memory_order_relaxed);
  }
}

bool PredictSession::CanReplay() const {
  return state_->replay_plan != nullptr;
}

Tensor PredictSession::Replay() {
  ADAPTRAJ_CHECK_MSG(state_->replay_plan != nullptr,
                     "PredictSession::Replay without a plan");
  state_->cache->state_->hits.fetch_add(1, std::memory_order_relaxed);
  return state_->replay_plan->Execute(state_->inputs, state_->rng);
}

Tensor PredictSession::Finish(Tensor eager_result) {
  SessionState& st = *state_;
  if (st.recorder != nullptr && g_recorder == st.recorder.get()) {
    g_recorder = nullptr;
    Recorder& rec = *st.recorder;
    std::string error = rec.abort_reason;
    std::shared_ptr<const CompiledPlan> plan;
    if (!rec.aborted && rec.op_outputs != rec.op_steps) {
      error = "op without a recording hook ran during capture";
    } else if (!rec.aborted && eager_result.defined()) {
      plan = Compile(rec, eager_result, st.inputs.size(), &error);
    } else if (!rec.aborted) {
      error = "undefined result tensor";
    }
    CacheState* cs = st.cache->state_.get();
    support::MutexLock lock(cs->mu);
    auto& entry = cs->entries[st.key];
    entry.capturing = false;
    if (plan != nullptr) {
      entry.plan = std::move(plan);
      cs->captures.fetch_add(1, std::memory_order_relaxed);
      // LRU eviction beyond the cap (never entries mid-capture).
      while (cs->entries.size() > kMaxPlans) {
        auto victim = cs->entries.end();
        for (auto it = cs->entries.begin(); it != cs->entries.end(); ++it) {
          if (it->second.capturing || &it->second == &entry) continue;
          if (victim == cs->entries.end() ||
              it->second.last_used < victim->second.last_used) {
            victim = it;
          }
        }
        if (victim == cs->entries.end()) break;
        cs->entries.erase(victim);
      }
    } else {
      entry.unplannable = true;
      cs->aborted.fetch_add(1, std::memory_order_relaxed);
    }
    if (!st.counted) cs->misses.fetch_add(1, std::memory_order_relaxed);
    st.recorder.reset();
    return eager_result;
  }
  if (st.verify_plan != nullptr) {
    Tensor replayed = st.verify_plan->Execute(st.inputs, st.verify_rng.get());
    ADAPTRAJ_CHECK_MSG(
        replayed.defined() && eager_result.defined() &&
            replayed.size() == eager_result.size() &&
            std::memcmp(replayed.data(), eager_result.data(),
                        static_cast<size_t>(replayed.size()) *
                            sizeof(float)) == 0,
        "plan verify mode: replayed Predict diverged from eager for key "
            << st.key);
    ADAPTRAJ_CHECK_MSG(
        st.rng == nullptr ||
            st.verify_rng->engine() == st.rng->engine(),
        "plan verify mode: replayed rng stream diverged for key "
            << st.key);
    st.cache->state_->hits.fetch_add(1, std::memory_order_relaxed);
    return eager_result;
  }
  if (st.mode != Mode::kOff && st.cache != nullptr && !st.counted) {
    st.cache->state_->misses.fetch_add(1, std::memory_order_relaxed);
    st.counted = true;
  }
  return eager_result;
}

// --- Recording ---------------------------------------------------------------

bool Recording() { return ActiveRecorder() != nullptr; }

void Forward(const OpDesc& d, OpInputs in, const Tensor& out, Rng* rng) {
  // Gathers the input pointers into a per-thread table, so an op call makes
  // no allocation once the table has grown to the widest Concat seen.
  thread_local std::vector<float*> ptrs;
  ptrs.clear();
  for (size_t i = 0; i < in.size(); ++i) {
    ptrs.push_back(const_cast<float*>(in[i].data()));
  }
  RunForward(d, Operands{ptrs.data(), nullptr, ptrs.size()},
             out.impl()->data.data(), nullptr, rng);

  Recorder* r = ActiveRecorder();
  if (r == nullptr) return;
  Step s;
  static_cast<OpDesc&>(s) = d;
  for (size_t i = 0; i < in.size(); ++i) s.in.push_back(r->SlotOfValue(in[i]));
  s.out = r->SlotOfOutput(out);
  if (d.extents != nullptr) s.part_extents.assign(d.extents, d.extents + in.size());
  s.extents = nullptr;
  r->op_steps++;
  r->steps.push_back(std::move(s));
}

void NoteOpOutput(bool track) {
  Recorder* r = ActiveRecorder();
  if (r == nullptr) return;
  r->op_outputs++;
  if (track && GradMode::IsEnabled()) {
    r->Abort("grad-mode op during capture");
  }
}

void NoteBackwardCall() {
  Recorder* r = ActiveRecorder();
  if (r == nullptr) return;
  r->Abort("Backward() during capture");
}

}  // namespace plan
}  // namespace adaptraj
