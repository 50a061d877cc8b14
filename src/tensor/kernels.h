// Low-level compute kernels behind the differentiable ops.
//
// These functions operate on raw row-major float buffers so the same code
// serves MatMul's forward pass and both of its backward passes (dA = dY·Bᵀ,
// dB = Aᵀ·dY accumulate straight into gradient storage — no scratch, no
// transposed temporaries at the op layer). Gemm packs transposed operands
// into contiguous panels and tiles the output into register tiles (explicit
// vector accumulators held across the whole k loop) — the 8x32 AVX-512 tile
// or the portable tile, chosen at runtime (see "GEMM dispatch" below) —
// one 32-row panel at a time. Every kernel runs on its calling thread. The
// reduction order over k is ascending on both paths and independent of the
// tile geometry, so results are bit-identical to the serial reference run to
// run.
//
// The LstmCell* kernels fuse the per-gate sigmoid/tanh activations (and
// their backward forms) into single passes over the [B, 4H] gate buffer,
// replacing the slice + activation + elementwise op chains that used to cost
// ~10 graph nodes per LSTM timestep.
//
// BatchGemm extends Gemm to B independent slices so a [B,M,K] x [B,K,N]
// product is one kernel launch, and the SIMD transcendental block replaces
// the scalar std::exp/std::tanh inner loops of the gate kernels and the
// Softmax/Exp/Tanh/Sigmoid ops with vectorized approximations (scalar libm
// fallback gated at run time — see TranscendentalPath). The kernels are
// written with GCC/Clang vector extensions, so they need one of those
// compilers.

#ifndef ADAPTRAJ_TENSOR_KERNELS_H_
#define ADAPTRAJ_TENSOR_KERNELS_H_

#include <cstdint>

namespace adaptraj {
namespace kernels {

/// C[M,N] = op(A)·op(B), or += when `accumulate` is set. op(X) = Xᵀ when the
/// corresponding trans flag is set (A is then stored [K,M], B stored [N,K]).
/// Blocked and packed; deterministic for fixed inputs.
void Gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          const float* a, const float* b, float* c, bool accumulate);

/// Reference implementation of Gemm: serial triple loop with the same
/// ascending-k reduction order. Tests compare the fast path against this.
void GemmNaive(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
               const float* a, const float* b, float* c, bool accumulate);

/// Batched GEMM over `batch` independent slices: C[b] (+)= op(A[b])·op(B[b]).
/// Slices are dense and contiguous (strides m·k / k·n / m·n), so a [B,M,K] x
/// [B,K,N] tensor product is one call. Gemm is BatchGemm with batch 1, and
/// results equal calling Gemm per slice. batch == 0 and k == 0 are handled
/// natively.
void BatchGemm(bool trans_a, bool trans_b, int64_t batch, int64_t m, int64_t n,
               int64_t k, const float* a, const float* b, float* c,
               bool accumulate);

/// Reference implementation of BatchGemm: GemmNaive per slice.
void BatchGemmNaive(bool trans_a, bool trans_b, int64_t batch, int64_t m,
                    int64_t n, int64_t k, const float* a, const float* b,
                    float* c, bool accumulate);

// --- GEMM dispatch -----------------------------------------------------------
//
// Gemm, BatchGemm and PlanGemm are one driver: it packs what needs packing
// (a transposed A, a transposed B, the ragged last column block of a B read
// in place; PlanGemm's weights arrive pre-packed), walks each slice in
// 32-row panels, and runs one of two register tiles:
//
//   kAvx512   8x32 tiles (16 zmm accumulators), k-unrolled FMA. Lives in
//             its own TU compiled with -mavx512f (gemm_avx512.h).
//   kPortable up to 8x16 / 4x48 tiles on GCC vector extensions — compiles
//             everywhere and is the fallback and the reference for the probe
//             below.
//
// Each tile accumulates one or two products per output element over
// ascending k, starting from C or zero, then adds the bias and applies relu
// in registers; tanh/sigmoid run as a post-pass over each work item's rows
// in kernels.cpp's TU. Tile geometry therefore never changes results; the
// only cross-path bit hazard is FMA contraction differing between
// translation units. The auto resolution runs a one-time startup probe —
// both paths over a ragged shape battery (edges, transposes, accumulate),
// compared bitwise — and enables the AVX-512 path only when it is
// bit-identical to the portable one on this build/host. Resolution order:
//
//   1. SetGemmPath override (tests/benches), if not kAuto;
//   2. ADAPTRAJ_GEMM env: "0" / "off" / "portable" force the portable path
//      (the rollback switch); unset or anything else falls through;
//   3. compiled-in + CPU support + the bitwise probe.
//
// The resolved path is process-wide, but probe-resolved auto mode is
// additionally SHAPE-AWARE: the 8x32 tile wastes more than half its vector
// lanes below one panel width, and measured crossover puts the portable tile
// 2-6x ahead for n < 32 (LSTM gate slivers, tiny heads), so auto routes
// n < 32 to the portable path and n >= 32 to AVX-512. An explicit SetGemmPath
// override bypasses the heuristic (tests rely on forcing the AVX-512 tile at
// sub-panel shapes). Mixing paths by shape cannot perturb results: auto only
// enables AVX-512 when the probe proved it bit-identical to the portable
// path. Compiled plans record the per-step path their weights were packed
// for and replay with that path, so flipping the override between capture
// and replay cannot misread a packed layout.

enum class GemmPath {
  kAuto = 0,    // env + probe resolution (the default)
  kAvx512,      // force the 8x32 AVX-512 tile (if compiled + CPU)
  kPortable,    // force the portable tile
};

/// Overrides the path used by Gemm/BatchGemm and for packing NEW plans.
/// kAuto restores the env/probe-resolved default. Not thread-safe against
/// in-flight kernels; call between steps (tests and benchmarks only).
void SetGemmPath(GemmPath path);

/// The process-wide resolved path: always kAvx512 or kPortable. Shape-blind —
/// Gemm/BatchGemm/plan capture consult GemmPathForShape.
GemmPath SelectGemmPath();

/// The path a product with n output columns will take: SelectGemmPath
/// narrowed by the n >= 32 auto-mode heuristic above. An explicit override
/// wins over the heuristic.
GemmPath GemmPathForShape(int64_t n);

/// True when this binary contains the AVX-512 tile at all.
bool Avx512GemmCompiledIn();

// --- SIMD transcendentals ----------------------------------------------------
//
// Vectorized exp-based approximations (Cephes-style range reduction plus a
// degree-5 polynomial) for the transcendental inner loops: ~2 ulp relative
// error vs std::exp on [-87.3, 88.7], and < 1e-6 absolute error for the
// derived tanh/sigmoid. Remainder elements run through the same vector code
// on a zero-padded tile, so results are independent of how a range is split
// into chunks (the GEMM epilogue applies them one row panel at a time).
//
// The active path is resolved once per process: SIMD is on when a startup
// accuracy sweep against libm passes, scalar libm otherwise. Tests and
// benchmarks can pin the path explicitly with SetTranscendentalPath.

enum class TranscendentalPath {
  kAuto = 0,    // accuracy-gated resolution (the default)
  kSimd,        // force the vector approximations
  kScalar,      // force scalar libm
};

/// Overrides the path used by the kernels below. kAuto restores the
/// accuracy-gated default. Not thread-safe against in-flight
/// kernels; call between steps (tests and benchmarks only).
void SetTranscendentalPath(TranscendentalPath path);

/// True when the vector approximations are the active path.
bool SimdTranscendentalsActive();

/// y[i] = exp(x[i]). In-place (y == x) is allowed.
void ExpForward(const float* x, float* y, int64_t n);
/// y[i] = tanh(x[i]). In-place is allowed.
void TanhForward(const float* x, float* y, int64_t n);
/// y[i] = sigmoid(x[i]). In-place is allowed.
void SigmoidForward(const float* x, float* y, int64_t n);

/// One numerically stable softmax row: y = exp(x - max(x)) / sum(...).
/// The exponentials use the active transcendental path; the max and the
/// denominator are accumulated serially in ascending order (double), so the
/// result only depends on the row contents.
void SoftmaxRow(const float* x, float* y, int64_t n);

/// y[r, c] += bias[c] for every row.
void AddRowBias(float* y, const float* bias, int64_t rows, int64_t cols);

/// out[c] += sum_r y[r, c] (bias gradient of a row-broadcast add).
void AccumulateColumnSum(const float* y, int64_t rows, int64_t cols, float* out);

// --- Optimizer and gradient-reduction kernels --------------------------------
//
// These back the data-parallel training path (core/parallel_trainer.h) and
// the vectorized nn::Sgd / nn::Adam steps. All of them are deterministic:
// per-element arithmetic has a fixed order.

/// dst[i] = (srcs[0][i] + srcs[1][i] + ... + srcs[num_srcs-1][i]) * scale.
/// Sources are added in ascending index order per element — the fixed-order
/// reduction discipline of ops::Sum applied across gradient buffers. dst may
/// alias srcs[0] (the in-place master-gradient case).
void ReduceGradSum(const float* const* srcs, int num_srcs, float scale,
                   float* dst, int64_t n);

/// Vectorized Adam update for one parameter buffer:
///   g     = grad[i] + weight_decay * param[i]
///   m[i]  = beta1 * m[i] + (1 - beta1) * g
///   v[i]  = beta2 * v[i] + (1 - beta2) * g * g
///   param[i] -= lr * (m[i] / bc1) / (sqrt(v[i] / bc2) + eps)
/// bc1/bc2 are the bias corrections 1 - beta^t computed by the caller.
void AdamUpdate(float* param, const float* grad, float* m, float* v, int64_t n,
                float lr, float beta1, float beta2, float eps,
                float weight_decay, float bc1, float bc2);

/// Vectorized SGD update. With momentum != 0, `velocity` must be non-null:
///   velocity[i] = momentum * velocity[i] + grad[i]
///   param[i]   -= lr * (momentum != 0 ? velocity[i] : grad[i])
void SgdUpdate(float* param, const float* grad, float* velocity, int64_t n,
               float lr, float momentum);

// --- Planned-execution kernels -----------------------------------------------
//
// These back src/tensor/plan.{h,cpp}: replay-time kernels that assume the
// plan optimizer pre-packed the weight operand at capture time. PlanGemm is
// the workhorse — the GEMM driver over pre-packed weights, covering Affine
// (x·W + b), LinearGates' dual product (x·Wa + h·Wb + b) and a folded
// relu/tanh/sigmoid epilogue. The k reduction is ascending and the epilogue
// applies the same per-element arithmetic as the separate Gemm + AddRowBias
// + activation ops (bias added once after the full accumulation, activations
// on the active transcendental path), so fused results are bit-identical to
// the eager chain.

/// Activation folded into PlanGemm's epilogue.
enum class PlanAct : int { kNone = 0, kRelu = 1, kTanh = 2, kSigmoid = 3 };

/// Total floats of a [k, n] weight packed for `path`. Portable: row-major
/// [k, n rounded up to 16]. kAvx512: panel-major ceil(n/32) panels of
/// [PaddedK(k)][32] (gemm_avx512.h). kAuto is not a valid pack target.
int64_t PlanPackedSize(int64_t k, int64_t n, GemmPath path);

/// Packs a row-major [k, n] weight into the `path` layout (PlanPackedSize
/// floats, zero-padded tails).
void PlanPackWeightFor(const float* w, int64_t k, int64_t n, GemmPath path,
                       float* dst);

/// Total floats of an [n] bias packed for `path`: one flat row zero-padded
/// to the path's column-tile multiple (16 portable, 32 AVX-512).
int64_t PlanPackedBiasSize(int64_t n, GemmPath path);

/// Packs an [n] bias row into the `path` layout.
void PlanPackBiasFor(const float* b, int64_t n, GemmPath path, float* dst);

/// C[m, n] = act(A·B1 (+ A2·B2) + bias). B1/B2/bias are pre-packed for
/// `packed_for` (PlanPackWeightFor/PlanPackBiasFor with the same path — the
/// plan records it at capture time); the second product is skipped when a2
/// is null, the bias when biasp is null. The per-row reduction runs k then
/// k2 ascending, matching the eager Gemm + accumulate-Gemm + AddRowBias
/// order bit for bit on either path.
void PlanGemm(int64_t m, int64_t n, int64_t k, const float* a,
              const float* bp, int64_t k2, const float* a2, const float* bp2,
              const float* biasp, PlanAct act, float* c, GemmPath packed_for);

/// Fused LstmCellForwardC + LstmCellForwardH: one pass over the [B, 4H] gate
/// buffer producing both c_next and h_next, with tanh(c_next) computed from
/// the in-register value. Same activation path as the separate kernels.
void LstmCellForwardCH(const float* gates, const float* c_prev, int64_t batch,
                       int64_t hidden, float* c_next, float* h_next);

/// rows x cols fused attention-score normalization:
///   y[r] = SoftmaxRow(masked(scale * x[r]))
/// where masked() replaces elements whose mask is non-zero with `fill`
/// (mask == nullptr skips the masking). Matches the eager
/// MulScalar → MaskedFill → Softmax chain bit for bit: the scaled/filled row
/// is materialized per row before the standard SoftmaxRow arithmetic.
void ScaledMaskedSoftmaxRows(const float* x, const float* mask, float scale,
                             float fill, int64_t rows, int64_t cols, float* y);

/// rows x cols LayerNorm normalization (no affine):
///   y[r] = (x[r] - mean(x[r])) / sqrt(var(x[r]) + eps)
/// replicating the eager op chain's arithmetic exactly: the mean and the
/// mean of the squared centered values accumulate ascending in double and
/// round to float (ops::MeanAxis), the centering is x + (-mean), the
/// denominator is sqrt(max(var + eps, 0)) (ops::Sqrt), and the division is
/// a multiply by 1.0f / denom (ops::Div of a ones tensor).
void LayerNormRows(const float* x, int64_t rows, int64_t cols, float eps,
                   float* y);

// --- Fused LSTM cell kernels -------------------------------------------------
//
// `gates` is the pre-activation buffer [B, 4H] in gate order i, f, g, o.
// All backward kernels ACCUMULATE into their d_* outputs. The gate
// activations run on the active transcendental path (SIMD when available,
// scalar libm otherwise — see SetTranscendentalPath above).

/// c_next = sigmoid(f) * c_prev + sigmoid(i) * tanh(g).
void LstmCellForwardC(const float* gates, const float* c_prev, int64_t batch,
                      int64_t hidden, float* c_next);

/// h_next = sigmoid(o) * tanh(c_next).
void LstmCellForwardH(const float* gates, const float* c_next, int64_t batch,
                      int64_t hidden, float* h_next);

/// Backward of LstmCellForwardC given dc = d(loss)/d(c_next):
/// d_gates[:, i|f|g] += gate-activation chain rules, d_c_prev += dc * sigmoid(f).
/// Null d_gates or d_c_prev skips that accumulation.
void LstmCellBackwardC(const float* gates, const float* c_prev, const float* dc,
                       int64_t batch, int64_t hidden, float* d_gates,
                       float* d_c_prev);

/// Backward of LstmCellForwardH given dh = d(loss)/d(h_next):
/// d_gates[:, o] += dh * tanh(c_next) * sigmoid'(o),
/// d_c_next += dh * sigmoid(o) * (1 - tanh(c_next)^2).
/// Null d_gates or d_c_next skips that accumulation.
void LstmCellBackwardH(const float* gates, const float* c_next, const float* dh,
                       int64_t batch, int64_t hidden, float* d_gates,
                       float* d_c_next);

}  // namespace kernels
}  // namespace adaptraj

#endif  // ADAPTRAJ_TENSOR_KERNELS_H_
