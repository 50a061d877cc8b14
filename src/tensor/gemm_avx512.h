// Internal interface between the GEMM driver (kernels.cpp) and the AVX-512
// register tile (kernels_avx512.cpp).
//
// The implementation lives in its own translation unit compiled with
// -mavx512f (see CMakeLists.txt) so the rest of the library keeps its
// baseline architecture flags; kernels.cpp consults CompiledIn() and
// CpuSupported() plus a startup bit-exactness probe before routing any work
// here (see kernels.h, "GEMM dispatch").
//
// Tile geometry: 8 C rows x 32 C columns per register tile — 16 zmm
// accumulators held across the whole k loop, fed by 2 B loads and 8 scalar
// broadcasts per k step (16 FMAs against 10 loads, FMA-throughput-bound).
// A packed B is panel-major: ceil(n/32) panels of [PaddedK(k)][32] floats,
// zero-padded in both the column tail and the k tail, so every panel row is
// one aligned pair of cache lines and edge tiles can issue full-width loads.
// The k padding is LAYOUT ONLY: compute always runs over the true k
// (ascending), never the padded rows — accumulating a*0 terms over pad rows
// could flip a -0.0 result to +0.0 (all-zero LSTM initial states against
// negative weights) and break bit-identity with the portable tile.

#ifndef ADAPTRAJ_TENSOR_GEMM_AVX512_H_
#define ADAPTRAJ_TENSOR_GEMM_AVX512_H_

#include <cstdint>

namespace adaptraj {
namespace kernels {

/// One GEMM slice as both paths' register tiles read it:
///   C[i, :] = [C[i, :] +] A[i, :]·B [+ A2[i, :]·B2] [+ bias], then relu,
/// per element in that order, each product over ascending k. A, A2 and C are
/// dense row-major [m, k], [m, k2] and [m, n]. The column
/// block of B that starts at column j (a multiple of the path's tile width
/// NR: 16 portable, 32 AVX-512) begins at b + (j / NR) * b_panel, and its row
/// p sits p * ldb floats further on. That one rule covers both layouts:
///   - B read in place from row-major [k, n]: ldb = n, b_panel = NR, and when
///     NR does not divide n, b_tail holds the last ragged block zero-padded
///     to NR columns (row stride NR), so every load is full width and in
///     bounds;
///   - B packed for the path (PlanPackWeightFor's layout): b_tail is null.
/// B2 is always packed like B (same ldb, its own panel stride). bias is a
/// flat row zero-padded to a multiple of NR.
struct TileArgs {
  int64_t n = 0;  // also C's row stride
  int64_t k = 0;  // also A's row stride
  const float* a = nullptr;
  const float* b = nullptr;
  int64_t ldb = 0;
  int64_t b_panel = 0;
  const float* b_tail = nullptr;
  int64_t k2 = 0;  // also A2's row stride
  const float* a2 = nullptr;  // null: no second product
  const float* b2 = nullptr;
  int64_t b2_panel = 0;
  const float* bias = nullptr;
  bool accumulate = false;  // start from C instead of zero
  bool relu = false;
  float* c = nullptr;
};

namespace avx512 {

/// Register-tile width; a packed panel is this many columns wide.
constexpr int64_t kNR = 32;
/// k-loop unroll factor; packed panels pad k to this multiple (layout only).
constexpr int64_t kKUnroll = 4;

inline int64_t PaddedK(int64_t k) {
  return (k + kKUnroll - 1) / kKUnroll * kKUnroll;
}
inline int64_t Panels(int64_t n) { return (n + kNR - 1) / kNR; }
inline int64_t RoundUpNR(int64_t n) { return Panels(n) * kNR; }
/// Total floats of a packed B operand: panel-major [Panels(n)][PaddedK(k)][32].
inline int64_t PackedBSize(int64_t n, int64_t k) {
  return Panels(n) * PaddedK(k) * kNR;
}

/// True when this binary contains the AVX-512 kernels (the TU was compiled
/// with AVX-512F support) — independent of what the host CPU can execute.
bool CompiledIn();

/// True when the host CPU supports AVX-512F. Safe to call on any host.
bool CpuSupported();

/// Rows [i0, i1) of one TileArgs slice through the 8x32 tile. Serial — the
/// driver splits rows across the thread pool. Must only be called when
/// CompiledIn() && CpuSupported().
void TileRows(const TileArgs& t, int64_t i0, int64_t i1);

}  // namespace avx512
}  // namespace kernels
}  // namespace adaptraj

#endif  // ADAPTRAJ_TENSOR_GEMM_AVX512_H_
