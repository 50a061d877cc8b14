// Shape-specialized execution plans: capture-and-replay for no-grad Predict.
//
// Eager no-grad inference still pays per-call graph construction: every op
// allocates a TensorImpl, runs shape inference and checks, and threads its
// output through shared_ptr handles. At serving shapes the op sequence is
// IDENTICAL on every call, so this layer records it once and replays the
// recorded kernels directly.
//
// Lifecycle (driven by PredictSession inside each core::Method::Predict):
//
//   1. First call for a (method, batch-shape, sample) key: the session
//      installs a thread-local recorder and the eager body runs unchanged.
//      Every op runs its forward through the one entry point, Forward,
//      which also appends the op's structured step (its OpDesc + slot ids)
//      while the recorder is active. Tensors resolve to slots by impl
//      identity: registered batch fields become rebind-per-call inputs,
//      anything else first seen as a step input becomes a retained external
//      constant (parameters, eval-mode masks, Zeros/Full/FromVector leaves),
//      and op outputs become arena slots. The capture then compiles: elementwise chains fuse
//      (MulScalar∘[MaskedFill∘]Softmax, LayerNorm's normalize chain,
//      LstmCellC+H, Affine/LinearGates/MatMul + bias/activation epilogues
//      with pre-packed weights), dead steps drop, and a liveness pass
//      pre-assigns every intermediate an offset in one pooled arena buffer.
//   2. Later calls with the same key replay: resolve the input pointers,
//      acquire the arena, run every step's RunForward in order. Zero
//      GradNodes, zero shape inference, zero per-op allocation.
//
// Determinism contract: a replayed Predict is bit-identical to the eager
// no-grad call. Unfused steps run the very function the eager op ran;
// fused kernels replicate the eager per-element arithmetic
// exactly (ascending-k register accumulation, bias-after-full-sum, the
// active SIMD-or-scalar transcendental path — see kernels.h "Planned
// execution"), and rng-drawing steps (Tensor::Randn/Rand) replay their
// draws in the eager element order so the stream state advances
// identically.
//
// Safety: capture aborts to permanent eager fallback for the key when the
// body is not a pure traced forward — a grad-mode op (LBEBM's Langevin
// island), a Backward() call, or any op that does not run through Forward
// (detected by an op-output/step count mismatch, so new ops degrade
// gracefully). The ADAPTRAJ_PLAN env var is the kill-switch (unset/"1"/"on"
// = on, "0"/"off" = off); SetMode overrides it programmatically for tests
// and benchmarks, and its kVerify mode replays AND runs eager, then
// compares bit-exactly.
//
// Weight rebinding: plans hold parameter storage as retained impls and
// re-read them on every replay, so in-place parameter updates
// (Module::CopyParametersFrom) are picked up — EXCEPT weights pre-packed
// into fused GEMM steps, which are copied at capture. Any code that
// mutates parameters of a method that already served planned calls must
// call PlanCache::Invalidate (Train does; serve::InferenceEngine::
// SwapWeights is safe by construction — it flips to a freshly cloned
// method whose cache starts empty).

#ifndef ADAPTRAJ_TENSOR_PLAN_H_
#define ADAPTRAJ_TENSOR_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace adaptraj {
namespace plan {

// --- Mode resolution ---------------------------------------------------------

enum class Mode {
  kAuto = 0,  // follow the ADAPTRAJ_PLAN environment variable (the default)
  kOn,        // capture and replay
  kOff,       // always eager
  kVerify,    // replay AND run eager, compare bit-exactly (tests)
};

/// Overrides the env-resolved mode; kAuto restores it. Takes effect for
/// subsequent Predict calls (tests and benchmarks only).
void SetMode(Mode mode);

/// The resolved mode (never kAuto).
Mode EffectiveMode();

// --- Telemetry ---------------------------------------------------------------

/// Counters for one PlanCache (style of internal::BufferPoolStats).
struct CacheStats {
  int64_t plans = 0;           // live compiled plans
  int64_t hits = 0;            // calls served by replay
  int64_t misses = 0;          // eager calls (capture in flight / unplannable)
  int64_t captures = 0;        // successful compilations
  int64_t aborted = 0;         // capture attempts that bailed to eager
  int64_t fused_steps = 0;     // steps removed by fusion, live plans
  int64_t eliminated_steps = 0;  // steps removed as dead code, live plans
  int64_t arena_bytes = 0;     // planned intermediate bytes, live plans
  int64_t constant_bytes = 0;  // packed weight/constant bytes, live plans

  CacheStats& operator+=(const CacheStats& o);
};

// --- Cache + session ---------------------------------------------------------

namespace internal_plan {
struct CacheState;
struct SessionState;
}  // namespace internal_plan

/// Per-Method plan store keyed by caller-provided strings (batch shape +
/// sample flag). Thread-safe: concurrent Predicts replay the same plan
/// lock-free after an initial mutex-guarded lookup, and only one thread
/// captures a given key while the rest fall back to eager.
class PlanCache {
 public:
  PlanCache();
  ~PlanCache();
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  CacheStats stats() const;

  /// Drops every plan (and unplannable marker). Must be called after any
  /// in-place parameter mutation of the owning method (Train, checkpoint
  /// load into a live method).
  void Invalidate();

 private:
  friend class PredictSession;
  std::unique_ptr<internal_plan::CacheState> state_;
};

/// RAII capture/replay scope for one Predict call. Usage inside a method:
///
///   plan::PredictSession session(&plan_cache_, key, inputs, rng);
///   if (session.CanReplay()) return session.Replay();
///   ... eager body (recorded when the session is capturing) ...
///   return session.Finish(result);
///
/// `inputs` are the batch-field tensors in a fixed enumeration order; their
/// impls rebind on every replay. `rng` may be null when the body draws no
/// samples. The session is inert (pure eager) when planning is off, the key
/// is marked unplannable, or another thread holds the capture.
class PredictSession {
 public:
  PredictSession(PlanCache* cache, std::string key,
                 std::vector<const Tensor*> inputs, Rng* rng);
  ~PredictSession();
  PredictSession(const PredictSession&) = delete;
  PredictSession& operator=(const PredictSession&) = delete;

  /// True when a compiled plan exists for the key and mode is kOn.
  bool CanReplay() const;

  /// Executes the recorded plan. Only valid when CanReplay().
  Tensor Replay();

  /// Ends the session around the eager result: finishes a capture
  /// (compiling the plan), or — in kVerify with a live plan — replays and
  /// checks the result bytes and rng stream against the eager run.
  Tensor Finish(Tensor eager_result);

 private:
  std::unique_ptr<internal_plan::SessionState> state_;
};

// --- The one forward per op --------------------------------------------------
//
// Every recordable op is described by a POD OpDesc (kind, op code, extents,
// scalars) and computed by exactly one function, RunForward, over raw
// pointers. Eager ops call it through Forward on their live tensors; a plan
// step is an OpDesc plus slot ids, and replay calls RunForward on the slot
// pointers. An unfused step therefore replays the very code its eager op
// ran; the compiler-built kinds run fused kernels pinned bit-exact against
// the eager chains they replace (kernels.h "Planned execution").

/// True when the calling thread is capturing (tests).
bool Recording();

enum class Op : int {
  kUnary, kBinary, kBroadcast, kMatMul, kBatchMatMul, kAffine, kDualMatMul,
  kLstmC, kLstmH, kTranspose, kSoftmax, kReduce, kMaxAxis, kMaskedFill,
  kCopy, kConcat, kSlice, kRandn, kRand,
  // Built by the plan compiler from recorded steps, never by an eager op:
  kPlanGemm, kLstmCH, kScaledSoftmax, kLayerNorm,
};
enum class Un : int {
  kAddScalar = 0, kMulScalar, kRelu, kTanh, kSigmoid, kExp, kSquare, kSqrt,
  kAbs, kClamp, kLogClamped,
};
enum class Bin : int { kAdd = 0, kSub, kMul, kDiv };

/// Highest tensor rank a broadcast op accepts.
constexpr int kMaxRank = 8;

/// Everything an op's forward needs besides its operand pointers. Which
/// fields an op reads is listed per kind at RunForward (ops.cpp).
struct OpDesc {
  Op kind = Op::kCopy;
  int code = 0;  // Un / Bin; kernels::PlanAct for kPlanGemm
  bool flag_a = false, flag_b = false;  // transposes; kReduce: flag_a = mean
  int64_t m = 0, n = 0, k = 0, k2 = 0;
  int64_t outer = 0, inner = 0, extent = 0, start = 0;
  float f0 = 0.0f, f1 = 0.0f;
  int rank = 0;                          // kBroadcast: output rank and
  int64_t shape[kMaxRank] = {};          // extents, and the extents of the
  int64_t b_shape[kMaxRank] = {};        // broadcast operand
  const int64_t* extents = nullptr;      // kConcat: part extents, or null
                                         // for all 1 (Stack)
  const float* packed[3] = {};           // kPlanGemm: W, W2, bias panels
  kernels::GemmPath gpath = kernels::GemmPath::kPortable;  // kPlanGemm
};

/// The input pointers of one op: base[i], or base[index[i]] when index is
/// set (plan replay indexes its slot table by the step's slot ids).
struct Operands {
  float* const* base;
  const int* index;
  size_t count;
  const float* operator[](size_t i) const {
    return base[index != nullptr ? index[i] : static_cast<int>(i)];
  }
};

/// Runs the forward of `d`: reads `in`, writes `out` (and `out2` for
/// kLstmCH). Draws from `rng` for kRandn / kRand. Defined in ops.cpp beside
/// the eager ops and their backward passes.
void RunForward(const OpDesc& d, Operands in, float* out, float* out2,
                Rng* rng);

/// The tensors an op reads: a list, or the parts of a Concat / Stack. A
/// parameter type only: it views the caller's list, which lives until the
/// call returns.
class OpInputs {
 public:
  OpInputs(std::initializer_list<const Tensor*> list) : list_(list) {}
  OpInputs(const std::vector<Tensor>& parts)  // NOLINT(runtime/explicit)
      : parts_(parts.data()), n_parts_(parts.size()) {}
  size_t size() const { return parts_ != nullptr ? n_parts_ : list_.size(); }
  const Tensor& operator[](size_t i) const {
    return parts_ != nullptr ? parts_[i] : *list_.begin()[i];
  }

 private:
  std::initializer_list<const Tensor*> list_;
  const Tensor* parts_ = nullptr;
  size_t n_parts_ = 0;
};

/// The one recording entry: runs `d` on the live tensors into `out` and,
/// only while this thread is capturing, resolves the tensors to slots and
/// appends the step. Called by every ops:: forward and by the Randn / Rand /
/// Detach factories.
void Forward(const OpDesc& d, OpInputs in, const Tensor& out,
             Rng* rng = nullptr);

/// Called for every op output (MakeOutputCore and the Forward-backed
/// factories). A capture whose op outputs outnumber its Forward calls ran an
/// op without a plan step (Sum, LogSoftmax, NllLoss) and aborts; so does one
/// where a tracked op runs with GradMode enabled (not a pure no-grad forward).
void NoteOpOutput(bool track);

/// Called by Tensor::Backward: a capture containing a backward pass aborts.
void NoteBackwardCall();

}  // namespace plan
}  // namespace adaptraj

#endif  // ADAPTRAJ_TENSOR_PLAN_H_
