#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#if defined(__AVX__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "tensor/buffer_pool.h"
#include "tensor/gemm_avx512.h"

// The kernels below are written with GCC/Clang vector extensions: the GEMM
// register tile, the transcendental approximations and the optimizer loops.
#if !defined(__GNUC__) && !defined(__clang__)
#error "tensor/kernels.cpp needs GCC or Clang vector extensions"
#endif

namespace adaptraj {
namespace kernels {

namespace {

/// 16-lane float vector (lowers to one zmm, two ymm, or four xmm as the
/// target allows). memcpy in/out compiles to unaligned vector moves.
typedef float Vec16 __attribute__((vector_size(16 * sizeof(float))));
typedef int32_t IVec16 __attribute__((vector_size(16 * sizeof(int32_t))));

inline Vec16 LoadVec16(const float* p) {
  Vec16 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreVec16(float* p, Vec16 v) { std::memcpy(p, &v, sizeof(v)); }

/// Loads n <= 16 floats into a zero-padded vector.
inline Vec16 LoadPartial16(const float* p, int64_t n) {
  float tmp[16] = {0};
  std::memcpy(tmp, p, static_cast<size_t>(n) * sizeof(float));
  return LoadVec16(tmp);
}

/// Stores the first n <= 16 lanes.
inline void StorePartial16(float* p, Vec16 v, int64_t n) {
  float tmp[16];
  StoreVec16(tmp, v);
  std::memcpy(p, tmp, static_cast<size_t>(n) * sizeof(float));
}

inline float SigmoidF(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// --- Vectorized transcendentals ----------------------------------------------

inline Vec16 Splat(float v) { return Vec16{} + v; }

/// Largest-integer-not-greater: truncate, then subtract 1 where the
/// truncation rounded toward zero from below. Comparison results are -1/0
/// integer lanes, which convert to -1.0f/0.0f.
inline Vec16 VecFloor(Vec16 x) {
  Vec16 t = __builtin_convertvector(__builtin_convertvector(x, IVec16), Vec16);
  return t + __builtin_convertvector(t > x, Vec16);
}

// Cephes expf constants: exp(x) = 2^n · exp(r) with n = round(x·log2e) and
// the residual r evaluated by a degree-5 polynomial. Input is clamped to the
// finite-float range so the 2^n exponent construction cannot overflow.
constexpr float kExpHi = 88.3762626647950f;
constexpr float kExpLo = -87.3365478515625f;
constexpr float kLog2E = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;

inline Vec16 VecExp(Vec16 x) {
  const Vec16 x_in = x;
  x = (x < kExpHi) ? x : Splat(kExpHi);
  x = (x > kExpLo) ? x : Splat(kExpLo);
  Vec16 fx = VecFloor(x * kLog2E + 0.5f);
  // The input clamp puts fx in [-126, 127] in exact arithmetic, but float
  // rounding of x·log2e can land exactly on the boundary (kExpHi is
  // 127.5·ln2) and push the exponent construction below into inf/zero.
  fx = (fx < 127.0f) ? fx : Splat(127.0f);
  fx = (fx > -126.0f) ? fx : Splat(-126.0f);
  x -= fx * kLn2Hi;
  x -= fx * kLn2Lo;
  Vec16 y = Splat(kExpP0);
  y = y * x + kExpP1;
  y = y * x + kExpP2;
  y = y * x + kExpP3;
  y = y * x + kExpP4;
  y = y * x + kExpP5;
  y = y * (x * x) + x + 1.0f;
  // 2^n via direct exponent-field construction.
  const IVec16 pow2n = (__builtin_convertvector(fx, IVec16) + 127) << 23;
  Vec16 scale;
  std::memcpy(&scale, &pow2n, sizeof(scale));
  y *= scale;
  // NaN lanes fail both clamp comparisons above and would silently turn into
  // exp(kExpHi); propagate them instead so diverged training still surfaces
  // as NaN on the SIMD path, exactly like libm. (±inf saturates to the
  // clamped finite range — exp(-inf) ~ 1e-38, exp(+inf) ~ 2e38 — which
  // downstream tanh/sigmoid map to their correct ±1 / 0..1 limits.)
  return (x_in == x_in) ? y : x_in;
}

/// tanh(x) = 1 - 2/(exp(2x)+1). The clamped exp keeps both extremes finite
/// (saturating to ±1); absolute error stays under 1e-6 everywhere.
inline Vec16 VecTanh(Vec16 x) {
  const Vec16 e = VecExp(x * 2.0f);
  return 1.0f - 2.0f / (e + 1.0f);
}

inline Vec16 VecSigmoid(Vec16 x) { return 1.0f / (1.0f + VecExp(-x)); }

/// Applies a Vec16->Vec16 function elementwise over [0, n). The remainder
/// runs through the same vector code on a zero-padded tile, so every element
/// sees identical arithmetic no matter where chunk boundaries fall.
template <typename F>
inline void VecMap(const float* x, float* y, int64_t n, F f) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) StoreVec16(y + i, f(LoadVec16(x + i)));
  if (i < n) StorePartial16(y + i, f(LoadPartial16(x + i, n - i)), n - i);
}

// --- Transcendental path resolution ------------------------------------------

/// Dispatch override globals (this one and g_gemm_override below) are
/// lock-free atomics, not mutex-guarded state: the Clang thread-safety
/// analysis treats std::atomic as unguarded by design, so there is
/// deliberately no ADAPTRAJ_GUARDED_BY. Relaxed ordering suffices — each is
/// an independent flag whose readers need no other writes published with it
/// (tests set them before launching work; the one-time probes below
/// synchronize through their local statics' init guard).
std::atomic<int> g_transcendental_override{static_cast<int>(TranscendentalPath::kAuto)};

/// Accuracy gate: sweep the approximations against libm. Any regression
/// (miscompiled vector code, exotic rounding mode) silently drops the
/// process back to the scalar path instead of corrupting training.
bool SimdAccuracyOk() {
  constexpr int kSamples = 4096;
  float max_exp_rel = 0.0f;
  float max_tanh_abs = 0.0f;
  float max_sig_abs = 0.0f;
  for (int i = 0; i < kSamples; i += 16) {
    float x_exp[16], x_act[16], y[16];
    for (int j = 0; j < 16; ++j) {
      const float t = static_cast<float>(i + j) / (kSamples - 1);
      x_exp[j] = kExpLo + t * (kExpHi - kExpLo);
      x_act[j] = -30.0f + t * 60.0f;
    }
    StoreVec16(y, VecExp(LoadVec16(x_exp)));
    for (int j = 0; j < 16; ++j) {
      const float ref = std::exp(x_exp[j]);
      max_exp_rel = std::max(max_exp_rel, std::fabs(y[j] - ref) / ref);
    }
    StoreVec16(y, VecTanh(LoadVec16(x_act)));
    for (int j = 0; j < 16; ++j) {
      max_tanh_abs = std::max(max_tanh_abs, std::fabs(y[j] - std::tanh(x_act[j])));
    }
    StoreVec16(y, VecSigmoid(LoadVec16(x_act)));
    for (int j = 0; j < 16; ++j) {
      max_sig_abs = std::max(max_sig_abs, std::fabs(y[j] - SigmoidF(x_act[j])));
    }
  }
  return max_exp_rel <= 1e-6f && max_tanh_abs <= 1e-6f && max_sig_abs <= 1e-6f;
}

}  // namespace

void SetTranscendentalPath(TranscendentalPath path) {
  g_transcendental_override.store(static_cast<int>(path), std::memory_order_relaxed);
}

bool SimdTranscendentalsActive() {
  const auto mode = static_cast<TranscendentalPath>(
      g_transcendental_override.load(std::memory_order_relaxed));
  if (mode == TranscendentalPath::kSimd) return true;
  if (mode == TranscendentalPath::kScalar) return false;
  static const bool simd_default = SimdAccuracyOk();
  return simd_default;
}

void ExpForward(const float* x, float* y, int64_t n) {
  if (SimdTranscendentalsActive()) {
    VecMap(x, y, n, [](Vec16 v) { return VecExp(v); });
    return;
  }
  for (int64_t i = 0; i < n; ++i) y[i] = std::exp(x[i]);
}

void TanhForward(const float* x, float* y, int64_t n) {
  if (SimdTranscendentalsActive()) {
    VecMap(x, y, n, [](Vec16 v) { return VecTanh(v); });
    return;
  }
  for (int64_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

void SigmoidForward(const float* x, float* y, int64_t n) {
  if (SimdTranscendentalsActive()) {
    VecMap(x, y, n, [](Vec16 v) { return VecSigmoid(v); });
    return;
  }
  for (int64_t i = 0; i < n; ++i) y[i] = SigmoidF(x[i]);
}

// --- GEMM --------------------------------------------------------------------
//
// One driver (RunTiles) serves Gemm, BatchGemm and PlanGemm on both paths. It
// walks each slice in 32-row panels, runs the path's one register tile over
// each panel (TileArgs, gemm_avx512.h), then applies a tanh/sigmoid epilogue
// to the panel's own rows. Packing — a transposed A, a transposed B, or the
// ragged last column block of a B read in place — happens up front.

namespace {

// Portable tile extents: kMR C rows x 1-3 blocks of kNR columns (2*kMR rows
// for a one-block tile) are held in registers across the whole k loop, one
// 16-lane vector per block per row, so the inner loop is pure broadcast+FMA
// over streaming B loads. Both paths sweep every column block over one
// kRowPanel-row panel of A (kept hot in cache) before moving to the next.
constexpr int64_t kMR = 4;
constexpr int64_t kNR = 16;
constexpr int64_t kRowPanel = 32;

inline int64_t RoundUpNR(int64_t n) { return (n + kNR - 1) / kNR * kNR; }

inline Vec16 LoadCols16(const float* p, int64_t cols) {
  return cols >= 16 ? LoadVec16(p) : LoadPartial16(p, cols);
}

inline void StoreCols16(float* p, Vec16 v, int64_t cols) {
  if (cols >= 16) {
    StoreVec16(p, v);
  } else {
    StorePartial16(p, v, cols);
  }
}

/// Portable register tile: rows [i, i + MW) x NB 16-lane column blocks from
/// column j, ncols of them stored. Same per-element contract as the AVX-512
/// tile: start from C or zero, add a·b terms over ascending k (then k2) —
/// the per-element order of GemmNaive, so results are bit-identical to the
/// reference — then the bias, then relu, then one store. Columns beyond
/// ncols read zero-padded B and are never stored. Three separately named
/// accumulator arrays (rather than one [MW][NB]) keep GCC from spilling at
/// MW=4, NB=3 — the shape the FMA-throughput probe picked.
template <int MW, int NB>
void Tile(const TileArgs& t, int64_t i, int64_t j, const float* b, int64_t ldb,
          int64_t ncols) {
  static_assert(NB >= 1 && NB <= 3, "tile is 16/32/48 columns wide");
  Vec16 au[MW], av[MW], aw[MW];
  const Vec16 zero = Vec16{} * 0.0f;
  float* c = t.c + i * t.n + j;
  const int64_t last = ncols - 16 * (NB - 1);  // columns of the last vector
  for (int r = 0; r < MW; ++r) {
    const float* cr = c + r * t.n;
    au[r] = t.accumulate ? LoadCols16(cr, NB == 1 ? last : 16) : zero;
    if (NB > 1) {
      av[r] = t.accumulate ? LoadCols16(cr + 16, NB == 2 ? last : 16) : zero;
    }
    if (NB > 2) aw[r] = t.accumulate ? LoadCols16(cr + 32, last) : zero;
  }
  const auto product = [&](int64_t k, const float* a, const float* bk) {
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC unroll 8
#endif
    for (int64_t p = 0; p < k; ++p) {
      const float* br = bk + p * ldb;
      const Vec16 u = LoadVec16(br);
      Vec16 v{}, w{};
      if (NB > 1) v = LoadVec16(br + 16);
      if (NB > 2) w = LoadVec16(br + 32);
      for (int r = 0; r < MW; ++r) {
        const float x = a[r * k + p];
        au[r] += x * u;
        if (NB > 1) av[r] += x * v;
        if (NB > 2) aw[r] += x * w;
      }
    }
  };
  product(t.k, t.a + i * t.k, b);
  if (t.a2 != nullptr) {
    product(t.k2, t.a2 + i * t.k2, t.b2 + j / kNR * t.b2_panel);
  }
  if (t.bias != nullptr) {
    const float* bias = t.bias + j;
    for (int r = 0; r < MW; ++r) {
      au[r] += LoadVec16(bias);
      if (NB > 1) av[r] += LoadVec16(bias + 16);
      if (NB > 2) aw[r] += LoadVec16(bias + 32);
    }
  }
  if (t.relu) {
    for (int r = 0; r < MW; ++r) {
      au[r] = au[r] > 0.0f ? au[r] : zero;
      if (NB > 1) av[r] = av[r] > 0.0f ? av[r] : zero;
      if (NB > 2) aw[r] = aw[r] > 0.0f ? aw[r] : zero;
    }
  }
  for (int r = 0; r < MW; ++r) {
    float* cr = c + r * t.n;
    StoreCols16(cr, au[r], NB == 1 ? last : 16);
    if (NB > 1) StoreCols16(cr + 16, av[r], NB == 2 ? last : 16);
    if (NB > 2) StoreCols16(cr + 32, aw[r], last);
  }
}

/// One column block over rows [i0, i1): full tiles, then a 4/2/1-row ladder
/// for the rest. A one-vector block takes 8 rows per tile so 8 independent
/// FMA chains hide the FMA latency; wider blocks get there at 4 rows. Each
/// row's element chain is independent of the grouping, so the split cannot
/// perturb results.
template <int NB>
void TileBlock(const TileArgs& t, int64_t i0, int64_t i1, int64_t j,
               const float* b, int64_t ldb, int64_t ncols) {
  constexpr int kRows = NB == 1 ? 2 * kMR : kMR;
  int64_t i = i0;
  for (; i + kRows <= i1; i += kRows) Tile<kRows, NB>(t, i, j, b, ldb, ncols);
  if (i1 - i >= 4) {
    Tile<4, NB>(t, i, j, b, ldb, ncols);
    i += 4;
  }
  if (i1 - i >= 2) {
    Tile<2, NB>(t, i, j, b, ldb, ncols);
    i += 2;
  }
  if (i1 - i >= 1) Tile<1, NB>(t, i, j, b, ldb, ncols);
}

/// Rows [i0, i1) of one slice through the portable tile: column blocks of
/// 48, then 32 or 16 for what remains of B's readable width, then the ragged
/// tail block of an in-place B from its zero-padded copy.
void TileRows(const TileArgs& t, int64_t i0, int64_t i1) {
  const int64_t n_direct = t.b_tail != nullptr ? t.n / kNR * kNR : t.n;
  const int64_t readable = RoundUpNR(n_direct);
  for (int64_t j = 0; j < n_direct;) {
    const int64_t rem = readable - j;
    const int64_t bw = rem >= 48 ? 48 : rem >= 32 ? 32 : 16;
    const int64_t ncols = std::min(t.n - j, bw);
    const float* b = t.b + j / kNR * t.b_panel;
    if (bw == 48) {
      TileBlock<3>(t, i0, i1, j, b, t.ldb, ncols);
    } else if (bw == 32) {
      TileBlock<2>(t, i0, i1, j, b, t.ldb, ncols);
    } else {
      TileBlock<1>(t, i0, i1, j, b, t.ldb, ncols);
    }
    j += bw;
  }
  if (n_direct < t.n) {
    TileBlock<1>(t, i0, i1, n_direct, t.b_tail, kNR, t.n - n_direct);
  }
}

/// Copies the [rows, cols] matrix src — row-major with row stride lds, or
/// stored transposed ([cols, rows], row stride lds) when `trans` — into dst
/// with row stride ldd, zero-filling columns cols..ldd.
void CopyRows(const float* src, int64_t lds, int64_t rows, int64_t cols,
              bool trans, float* dst, int64_t ldd) {
  for (int64_t r = 0; r < rows; ++r) {
    float* d = dst + r * ldd;
    if (trans) {
      for (int64_t c = 0; c < cols; ++c) d[c] = src[c * lds + r];
    } else {
      std::memcpy(d, src + r * lds, sizeof(float) * static_cast<size_t>(cols));
    }
    std::fill(d + cols, d + ldd, 0.0f);
  }
}

/// The packer of both paths: B — row-major [k, n] with row stride ldb, or
/// stored transposed ([n, k], row stride ldb) when `trans` — into `path`'s
/// layout. Portable: row-major [k, RoundUpNR(n)]. AVX-512: panel-major
/// [Panels(n)][PaddedK(k)][32] (gemm_avx512.h). Column and k tails are
/// zero-filled; the k padding is layout only.
void PackB(GemmPath path, const float* b, int64_t ldb, int64_t n, int64_t k,
           bool trans, float* dst) {
  if (path != GemmPath::kAvx512) {
    CopyRows(b, ldb, k, n, trans, dst, RoundUpNR(n));
    return;
  }
  const int64_t panel = avx512::PaddedK(k) * avx512::kNR;
  for (int64_t j = 0; j < n; j += avx512::kNR, dst += panel) {
    CopyRows(trans ? b + j * ldb : b + j, ldb, k,
             std::min(avx512::kNR, n - j), trans, dst, avx512::kNR);
    std::fill(dst + k * avx512::kNR, dst + panel, 0.0f);
  }
}

/// Row stride and column-panel stride of a [k, n] B packed for `path`.
int64_t PackedLd(GemmPath path, int64_t n) {
  return path == GemmPath::kAvx512 ? avx512::kNR : RoundUpNR(n);
}
int64_t PackedPanel(GemmPath path, int64_t k) {
  return path == GemmPath::kAvx512 ? avx512::PaddedK(k) * avx512::kNR : kNR;
}

/// The GEMM driver: `batch` slices of `t` (slice s moves A, B and B's tail
/// by s times the given strides and C by s·m·n), each in 32-row panels. A
/// tanh/sigmoid `act` runs as a second pass over each panel's stored rows
/// while they are still in cache, through this TU's TanhForward/
/// SigmoidForward — exactly the eager arithmetic, however
/// kernels_avx512.cpp's TU would have contracted it. The store/reload
/// between the passes is a bit-exact float identity, and VecMap's
/// zero-padded remainder makes a per-panel pass identical to the eager
/// whole-tensor one.
void RunTiles(GemmPath path, const TileArgs& t, int64_t batch, int64_t m,
              int64_t stride_a, int64_t stride_b, int64_t stride_tail,
              PlanAct act) {
  for (int64_t s = 0; s < batch; ++s) {
    TileArgs slice = t;
    slice.a += s * stride_a;
    slice.b += s * stride_b;
    if (slice.b_tail != nullptr) slice.b_tail += s * stride_tail;
    slice.c += s * m * t.n;
    for (int64_t i0 = 0; i0 < m; i0 += kRowPanel) {
      const int64_t i1 = std::min(m, i0 + kRowPanel);
      if (path == GemmPath::kAvx512) {
        avx512::TileRows(slice, i0, i1);
      } else {
        TileRows(slice, i0, i1);
      }
      float* rows = slice.c + i0 * t.n;
      if (act == PlanAct::kTanh) TanhForward(rows, rows, (i1 - i0) * t.n);
      if (act == PlanAct::kSigmoid) SigmoidForward(rows, rows, (i1 - i0) * t.n);
    }
  }
}

/// BatchGemm on an explicit path: BatchGemm resolves it by shape, the probe
/// forces each path in turn.
void BatchGemmOn(GemmPath path, bool trans_a, bool trans_b, int64_t batch,
                 int64_t m, int64_t n, int64_t k, const float* a,
                 const float* b, float* c, bool accumulate) {
  if (batch == 0 || m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) {
      std::memset(c, 0, sizeof(float) * static_cast<size_t>(batch * m * n));
    }
    return;
  }
  internal::FloatBuffer a_packed;
  internal::FloatBuffer b_packed;
  if (trans_a) {
    a_packed = internal::AcquireBuffer(batch * m * k);
    for (int64_t s = 0; s < batch; ++s) {
      CopyRows(a + s * m * k, m, m, k, true, a_packed.data() + s * m * k, k);
    }
    a = a_packed.data();
  }
  TileArgs t;
  t.n = n;
  t.k = k;
  t.a = a;
  t.c = c;
  t.accumulate = accumulate;
  int64_t stride_b = k * n;
  int64_t stride_tail = 0;
  if (trans_b) {
    // Packing is locality-only: it never changes the per-element order, so
    // packed and in-place B produce identical bits.
    stride_b = PlanPackedSize(k, n, path);
    b_packed = internal::AcquireBuffer(batch * stride_b);
    for (int64_t s = 0; s < batch; ++s) {
      PackB(path, b + s * k * n, k, n, k, true, b_packed.data() + s * stride_b);
    }
    t.b = b_packed.data();
    t.ldb = PackedLd(path, n);
    t.b_panel = PackedPanel(path, k);
  } else {
    // Row-major B is read in place; only a ragged last column block is
    // packed, so the edge tile still issues full-width in-bounds loads.
    const int64_t nr = path == GemmPath::kAvx512 ? avx512::kNR : kNR;
    const int64_t n_direct = n / nr * nr;
    t.b = b;
    t.ldb = n;
    t.b_panel = nr;
    if (n_direct < n) {
      stride_tail = PlanPackedSize(k, n - n_direct, path);
      b_packed = internal::AcquireBuffer(batch * stride_tail);
      for (int64_t s = 0; s < batch; ++s) {
        PackB(path, b + s * k * n + n_direct, n, n - n_direct, k, false,
              b_packed.data() + s * stride_tail);
      }
      t.b_tail = b_packed.data();
    }
  }
  RunTiles(path, t, batch, m, m * k, stride_b, stride_tail, PlanAct::kNone);
  if (!a_packed.empty()) internal::ReleaseBuffer(std::move(a_packed));
  if (!b_packed.empty()) internal::ReleaseBuffer(std::move(b_packed));
}

// --- GEMM path resolution ----------------------------------------------------

/// Lock-free dispatch flag; see the thread-safety note on
/// g_transcendental_override above.
std::atomic<int> g_gemm_override{static_cast<int>(GemmPath::kAuto)};

/// Bit-exactness probe run once before auto-enabling the AVX-512 path: both
/// paths over a ragged-shape battery (full tiles, m/n edges, single row,
/// every transpose variant, accumulate) with sign-mixed data, compared
/// bitwise. Ascending-k ordering makes the tiles geometry-independent, so
/// the only way this can fail is the two translation units contracting
/// multiply-adds differently (e.g. the main TU built without FMA); in that
/// case auto resolution stays on the portable path and the AVX-512 path is
/// reachable only through SetGemmPath.
bool GemmPathsBitIdentical() {
  struct Case {
    int64_t m, n, k;
    bool ta, tb, acc;
  };
  const Case cases[] = {
      {5, 7, 3, false, false, false},  {5, 7, 3, true, false, false},
      {5, 7, 3, false, true, false},   {5, 7, 3, true, true, false},
      {9, 33, 17, false, false, true}, {1, 31, 4, false, true, false},
      {8, 32, 8, true, false, false},  {33, 64, 63, false, false, false},
  };
  uint32_t state = 0x2545f491u;
  const auto next = [&state]() {
    state = state * 1664525u + 1013904223u;
    return static_cast<float>(state >> 8) * (2.0f / 16777216.0f) - 1.0f;
  };
  for (const Case& t : cases) {
    std::vector<float> va(t.m * t.k), vb(t.k * t.n);
    std::vector<float> c_portable(t.m * t.n), c_avx(t.m * t.n);
    for (auto& v : va) v = next();
    for (auto& v : vb) v = next();
    for (int64_t i = 0; i < t.m * t.n; ++i) {
      c_portable[i] = c_avx[i] = t.acc ? next() : 0.0f;
    }
    BatchGemmOn(GemmPath::kPortable, t.ta, t.tb, 1, t.m, t.n, t.k, va.data(),
                vb.data(), c_portable.data(), t.acc);
    BatchGemmOn(GemmPath::kAvx512, t.ta, t.tb, 1, t.m, t.n, t.k, va.data(),
                vb.data(), c_avx.data(), t.acc);
    if (std::memcmp(c_portable.data(), c_avx.data(),
                    sizeof(float) * static_cast<size_t>(t.m * t.n)) != 0) {
      return false;
    }
  }
  return true;
}

bool Avx512Available() {
  return avx512::CompiledIn() && avx512::CpuSupported();
}

/// Whether kAuto runs AVX-512: compiled-in + CPU support, then the
/// ADAPTRAJ_GEMM kill-switch, then the bitwise probe. Resolved once per
/// process.
bool Avx512ByDefault() {
  static const bool on = [] {
    if (!Avx512Available()) return false;
    if (const char* env = std::getenv("ADAPTRAJ_GEMM")) {
      if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
          std::strcmp(env, "portable") == 0) {
        return false;
      }
    }
    return GemmPathsBitIdentical();
  }();
  return on;
}

GemmPath GemmOverride() {
  return static_cast<GemmPath>(g_gemm_override.load(std::memory_order_relaxed));
}

}  // namespace

void Gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          const float* a, const float* b, float* c, bool accumulate) {
  BatchGemm(trans_a, trans_b, 1, m, n, k, a, b, c, accumulate);
}

void BatchGemm(bool trans_a, bool trans_b, int64_t batch, int64_t m, int64_t n,
               int64_t k, const float* a, const float* b, float* c,
               bool accumulate) {
  BatchGemmOn(GemmPathForShape(n), trans_a, trans_b, batch, m, n, k, a, b, c,
              accumulate);
}

void SetGemmPath(GemmPath path) {
  g_gemm_override.store(static_cast<int>(path), std::memory_order_relaxed);
}

GemmPath SelectGemmPath() {
  switch (GemmOverride()) {
    case GemmPath::kPortable:
      return GemmPath::kPortable;
    case GemmPath::kAvx512:
      return Avx512Available() ? GemmPath::kAvx512 : GemmPath::kPortable;
    case GemmPath::kAuto:
      break;
  }
  return Avx512ByDefault() ? GemmPath::kAvx512 : GemmPath::kPortable;
}

GemmPath GemmPathForShape(int64_t n) {
  // Below one 32-column panel the 8x32 tile runs mostly masked lanes and the
  // portable tile measures 2-6x faster (see kernels.h); an explicit override
  // bypasses the heuristic.
  if (GemmOverride() == GemmPath::kAuto && n < avx512::kNR) {
    return GemmPath::kPortable;
  }
  return SelectGemmPath();
}

bool Avx512GemmCompiledIn() { return avx512::CompiledIn(); }

int64_t PlanPackedSize(int64_t k, int64_t n, GemmPath path) {
  return path == GemmPath::kAvx512 ? avx512::PackedBSize(n, k)
                                   : k * RoundUpNR(n);
}

void PlanPackWeightFor(const float* w, int64_t k, int64_t n, GemmPath path,
                       float* dst) {
  PackB(path, w, n, n, k, /*trans=*/false, dst);
}

int64_t PlanPackedBiasSize(int64_t n, GemmPath path) {
  return path == GemmPath::kAvx512 ? avx512::RoundUpNR(n) : RoundUpNR(n);
}

void PlanPackBiasFor(const float* b, int64_t n, GemmPath path, float* dst) {
  const int64_t padded = PlanPackedBiasSize(n, path);
  std::memcpy(dst, b, static_cast<size_t>(n) * sizeof(float));
  std::fill(dst + n, dst + padded, 0.0f);
}

void PlanGemm(int64_t m, int64_t n, int64_t k, const float* a, const float* bp,
              int64_t k2, const float* a2, const float* bp2,
              const float* biasp, PlanAct act, float* c, GemmPath packed_for) {
  if (m == 0 || n == 0) return;
  TileArgs t;
  t.n = n;
  t.k = k;
  t.a = a;
  t.b = bp;
  t.ldb = PackedLd(packed_for, n);
  t.b_panel = PackedPanel(packed_for, k);
  if (a2 != nullptr) {
    t.k2 = k2;
    t.a2 = a2;
    t.b2 = bp2;
    t.b2_panel = PackedPanel(packed_for, k2);
  }
  t.bias = biasp;
  t.relu = act == PlanAct::kRelu;
  t.c = c;
  RunTiles(packed_for, t, 1, m, 0, 0, 0, act);
}

void GemmNaive(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
               const float* a, const float* b, float* c, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = accumulate ? c[i * n + j] : 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * m + i] : a[i * k + p];
        const float bv = trans_b ? b[j * k + p] : b[p * n + j];
        acc += av * bv;
      }
      c[i * n + j] = acc;
    }
  }
}

void BatchGemmNaive(bool trans_a, bool trans_b, int64_t batch, int64_t m,
                    int64_t n, int64_t k, const float* a, const float* b,
                    float* c, bool accumulate) {
  for (int64_t bi = 0; bi < batch; ++bi) {
    GemmNaive(trans_a, trans_b, m, n, k, a + bi * m * k, b + bi * k * n,
              c + bi * m * n, accumulate);
  }
}

// --- Optimizer and gradient-reduction kernels --------------------------------

namespace {

/// Lane-wise IEEE sqrt. Hardware sqrt instructions are correctly rounded,
/// so every variant below is bit-identical to std::sqrt per lane (inputs are
/// never negative here). The intrinsic paths exist because GCC will not
/// auto-vectorize std::sqrt loops under errno semantics.
inline Vec16 VecSqrt(Vec16 x) {
#if defined(__AVX512F__)
  // __m512 is itself a 16-lane float vector type, so this is a value
  // conversion. The all-lanes maskz variant sidesteps the
  // _mm512_undefined_ps() operand inside plain _mm512_sqrt_ps that trips
  // GCC 12's -Wmaybe-uninitialized.
  return Vec16(_mm512_maskz_sqrt_ps(static_cast<__mmask16>(0xffff), __m512(x)));
#elif defined(__AVX__)
  typedef float Vec8 __attribute__((vector_size(8 * sizeof(float))));
  union Halves {
    Vec16 v16;
    Vec8 v8[2];
  } u;
  u.v16 = x;
  u.v8[0] = Vec8(_mm256_sqrt_ps(__m256(u.v8[0])));
  u.v8[1] = Vec8(_mm256_sqrt_ps(__m256(u.v8[1])));
  return u.v16;
#else
  float tmp[16];
  StoreVec16(tmp, x);
  for (int j = 0; j < 16; ++j) tmp[j] = std::sqrt(tmp[j]);
  return LoadVec16(tmp);
#endif
}

}  // namespace

void ReduceGradSum(const float* const* srcs, int num_srcs, float scale,
                   float* dst, int64_t n) {
  if (n == 0 || num_srcs <= 0) return;
  int64_t i = 0;
  const Vec16 vscale = Splat(scale);
  for (; i + 16 <= n; i += 16) {
    Vec16 acc = LoadVec16(srcs[0] + i);
    for (int s = 1; s < num_srcs; ++s) acc = acc + LoadVec16(srcs[s] + i);
    StoreVec16(dst + i, acc * vscale);
  }
  for (; i < n; ++i) {
    float acc = srcs[0][i];
    for (int s = 1; s < num_srcs; ++s) acc += srcs[s][i];
    dst[i] = acc * scale;
  }
}

void AdamUpdate(float* param, const float* grad, float* m, float* v, int64_t n,
                float lr, float beta1, float beta2, float eps,
                float weight_decay, float bc1, float bc2) {
  int64_t i = 0;
  const Vec16 vb1 = Splat(beta1), vcb1 = Splat(1.0f - beta1);
  const Vec16 vb2 = Splat(beta2), vcb2 = Splat(1.0f - beta2);
  const Vec16 vwd = Splat(weight_decay), vlr = Splat(lr);
  const Vec16 vbc1 = Splat(bc1), vbc2 = Splat(bc2), veps = Splat(eps);
  for (; i + 16 <= n; i += 16) {
    Vec16 p = LoadVec16(param + i);
    Vec16 g = LoadVec16(grad + i);
    if (weight_decay != 0.0f) g = g + vwd * p;
    const Vec16 mv = vb1 * LoadVec16(m + i) + vcb1 * g;
    const Vec16 vv = vb2 * LoadVec16(v + i) + vcb2 * (g * g);
    StoreVec16(m + i, mv);
    StoreVec16(v + i, vv);
    p = p - vlr * (mv / vbc1) / (VecSqrt(vv / vbc2) + veps);
    StoreVec16(param + i, p);
  }
  for (; i < n; ++i) {
    float g = grad[i];
    if (weight_decay != 0.0f) g += weight_decay * param[i];
    m[i] = beta1 * m[i] + (1.0f - beta1) * g;
    v[i] = beta2 * v[i] + (1.0f - beta2) * g * g;
    const float m_hat = m[i] / bc1;
    const float v_hat = v[i] / bc2;
    param[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

void SgdUpdate(float* param, const float* grad, float* velocity, int64_t n,
               float lr, float momentum) {
  int64_t i = 0;
  const Vec16 vlr = Splat(lr), vmom = Splat(momentum);
  if (momentum != 0.0f) {
    for (; i + 16 <= n; i += 16) {
      const Vec16 vel = vmom * LoadVec16(velocity + i) + LoadVec16(grad + i);
      StoreVec16(velocity + i, vel);
      StoreVec16(param + i, LoadVec16(param + i) - vlr * vel);
    }
  } else {
    for (; i + 16 <= n; i += 16) {
      StoreVec16(param + i, LoadVec16(param + i) - vlr * LoadVec16(grad + i));
    }
  }
  for (; i < n; ++i) {
    float g = grad[i];
    if (momentum != 0.0f) {
      velocity[i] = momentum * velocity[i] + g;
      g = velocity[i];
    }
    param[i] -= lr * g;
  }
}

void SoftmaxRow(const float* x, float* y, int64_t n) {
  if (n == 0) return;
  float mx = x[0];
  for (int64_t i = 1; i < n; ++i) mx = std::max(mx, x[i]);
  if (SimdTranscendentalsActive()) {
    VecMap(x, y, n, [mx](Vec16 v) { return VecExp(v - mx); });
  } else
  {
    for (int64_t i = 0; i < n; ++i) y[i] = std::exp(x[i] - mx);
  }
  // Ascending double accumulation: the denominator depends only on the row.
  double denom = 0.0;
  for (int64_t i = 0; i < n; ++i) denom += y[i];
  const float inv = static_cast<float>(1.0 / denom);
  for (int64_t i = 0; i < n; ++i) y[i] *= inv;
}

void AddRowBias(float* y, const float* bias, int64_t rows, int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    float* yr = y + r * cols;
    for (int64_t c = 0; c < cols; ++c) yr[c] += bias[c];
  }
}

void AccumulateColumnSum(const float* y, int64_t rows, int64_t cols, float* out) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* yr = y + r * cols;
    for (int64_t c = 0; c < cols; ++c) out[c] += yr[c];
  }
}

namespace {

/// dst[0:w] += v[0:w] (w <= 16).
inline void AccumulatePartial(float* dst, Vec16 v, int64_t w) {
  StorePartial16(dst, LoadPartial16(dst, w) + v, w);
}

inline void Accumulate16(float* dst, Vec16 v) {
  StoreVec16(dst, LoadVec16(dst) + v);
}

}  // namespace

void LstmCellForwardC(const float* gates, const float* c_prev, int64_t batch,
                      int64_t hidden, float* c_next) {
  const bool simd = SimdTranscendentalsActive();
  for (int64_t r = 0; r < batch; ++r) {
    const float* g = gates + r * 4 * hidden;
    const float* cp = c_prev + r * hidden;
    float* cn = c_next + r * hidden;
    if (simd) {
      int64_t j = 0;
      for (; j + 16 <= hidden; j += 16) {
        const Vec16 i_act = VecSigmoid(LoadVec16(g + j));
        const Vec16 f_act = VecSigmoid(LoadVec16(g + hidden + j));
        const Vec16 g_act = VecTanh(LoadVec16(g + 2 * hidden + j));
        StoreVec16(cn + j, f_act * LoadVec16(cp + j) + i_act * g_act);
      }
      if (j < hidden) {
        const int64_t w = hidden - j;
        const Vec16 i_act = VecSigmoid(LoadPartial16(g + j, w));
        const Vec16 f_act = VecSigmoid(LoadPartial16(g + hidden + j, w));
        const Vec16 g_act = VecTanh(LoadPartial16(g + 2 * hidden + j, w));
        StorePartial16(cn + j, f_act * LoadPartial16(cp + j, w) + i_act * g_act, w);
      }
      continue;
    }
    for (int64_t j = 0; j < hidden; ++j) {
      const float i_act = SigmoidF(g[j]);
      const float f_act = SigmoidF(g[hidden + j]);
      const float g_act = std::tanh(g[2 * hidden + j]);
      cn[j] = f_act * cp[j] + i_act * g_act;
    }
  }
}

void LstmCellForwardH(const float* gates, const float* c_next, int64_t batch,
                      int64_t hidden, float* h_next) {
  const bool simd = SimdTranscendentalsActive();
  for (int64_t r = 0; r < batch; ++r) {
    const float* g = gates + r * 4 * hidden;
    const float* cn = c_next + r * hidden;
    float* hn = h_next + r * hidden;
    if (simd) {
      int64_t j = 0;
      for (; j + 16 <= hidden; j += 16) {
        const Vec16 o_act = VecSigmoid(LoadVec16(g + 3 * hidden + j));
        StoreVec16(hn + j, o_act * VecTanh(LoadVec16(cn + j)));
      }
      if (j < hidden) {
        const int64_t w = hidden - j;
        const Vec16 o_act = VecSigmoid(LoadPartial16(g + 3 * hidden + j, w));
        StorePartial16(hn + j, o_act * VecTanh(LoadPartial16(cn + j, w)), w);
      }
      continue;
    }
    for (int64_t j = 0; j < hidden; ++j) {
      const float o_act = SigmoidF(g[3 * hidden + j]);
      hn[j] = o_act * std::tanh(cn[j]);
    }
  }
}

void LstmCellBackwardC(const float* gates, const float* c_prev, const float* dc,
                       int64_t batch, int64_t hidden, float* d_gates,
                       float* d_c_prev) {
  const bool simd = SimdTranscendentalsActive();
  for (int64_t r = 0; r < batch; ++r) {
    const float* g = gates + r * 4 * hidden;
    const float* cp = c_prev + r * hidden;
    const float* d = dc + r * hidden;
    float* dg = d_gates ? d_gates + r * 4 * hidden : nullptr;
    float* dcp = d_c_prev ? d_c_prev + r * hidden : nullptr;
    if (simd) {
      int64_t j = 0;
      for (; j + 16 <= hidden; j += 16) {
        const Vec16 i_act = VecSigmoid(LoadVec16(g + j));
        const Vec16 f_act = VecSigmoid(LoadVec16(g + hidden + j));
        const Vec16 g_act = VecTanh(LoadVec16(g + 2 * hidden + j));
        const Vec16 dv = LoadVec16(d + j);
        if (dg != nullptr) {
          const Vec16 cpv = LoadVec16(cp + j);
          Accumulate16(dg + j, dv * g_act * i_act * (1.0f - i_act));
          Accumulate16(dg + hidden + j, dv * cpv * f_act * (1.0f - f_act));
          Accumulate16(dg + 2 * hidden + j, dv * i_act * (1.0f - g_act * g_act));
        }
        if (dcp != nullptr) Accumulate16(dcp + j, dv * f_act);
      }
      if (j < hidden) {
        const int64_t w = hidden - j;
        const Vec16 i_act = VecSigmoid(LoadPartial16(g + j, w));
        const Vec16 f_act = VecSigmoid(LoadPartial16(g + hidden + j, w));
        const Vec16 g_act = VecTanh(LoadPartial16(g + 2 * hidden + j, w));
        const Vec16 dv = LoadPartial16(d + j, w);
        if (dg != nullptr) {
          const Vec16 cpv = LoadPartial16(cp + j, w);
          AccumulatePartial(dg + j, dv * g_act * i_act * (1.0f - i_act), w);
          AccumulatePartial(dg + hidden + j, dv * cpv * f_act * (1.0f - f_act), w);
          AccumulatePartial(dg + 2 * hidden + j, dv * i_act * (1.0f - g_act * g_act), w);
        }
        if (dcp != nullptr) AccumulatePartial(dcp + j, dv * f_act, w);
      }
      continue;
    }
    for (int64_t j = 0; j < hidden; ++j) {
      const float i_act = SigmoidF(g[j]);
      const float f_act = SigmoidF(g[hidden + j]);
      const float g_act = std::tanh(g[2 * hidden + j]);
      const float dv = d[j];
      if (dg != nullptr) {
        dg[j] += dv * g_act * i_act * (1.0f - i_act);
        dg[hidden + j] += dv * cp[j] * f_act * (1.0f - f_act);
        dg[2 * hidden + j] += dv * i_act * (1.0f - g_act * g_act);
      }
      if (dcp != nullptr) dcp[j] += dv * f_act;
    }
  }
}

void LstmCellBackwardH(const float* gates, const float* c_next, const float* dh,
                       int64_t batch, int64_t hidden, float* d_gates,
                       float* d_c_next) {
  const bool simd = SimdTranscendentalsActive();
  for (int64_t r = 0; r < batch; ++r) {
    const float* g = gates + r * 4 * hidden;
    const float* cn = c_next + r * hidden;
    const float* d = dh + r * hidden;
    float* dg = d_gates ? d_gates + r * 4 * hidden : nullptr;
    float* dcn = d_c_next ? d_c_next + r * hidden : nullptr;
    if (simd) {
      int64_t j = 0;
      for (; j + 16 <= hidden; j += 16) {
        const Vec16 o_act = VecSigmoid(LoadVec16(g + 3 * hidden + j));
        const Vec16 t = VecTanh(LoadVec16(cn + j));
        const Vec16 dv = LoadVec16(d + j);
        if (dg != nullptr) {
          Accumulate16(dg + 3 * hidden + j, dv * t * o_act * (1.0f - o_act));
        }
        if (dcn != nullptr) Accumulate16(dcn + j, dv * o_act * (1.0f - t * t));
      }
      if (j < hidden) {
        const int64_t w = hidden - j;
        const Vec16 o_act = VecSigmoid(LoadPartial16(g + 3 * hidden + j, w));
        const Vec16 t = VecTanh(LoadPartial16(cn + j, w));
        const Vec16 dv = LoadPartial16(d + j, w);
        if (dg != nullptr) {
          AccumulatePartial(dg + 3 * hidden + j, dv * t * o_act * (1.0f - o_act), w);
        }
        if (dcn != nullptr) AccumulatePartial(dcn + j, dv * o_act * (1.0f - t * t), w);
      }
      continue;
    }
    for (int64_t j = 0; j < hidden; ++j) {
      const float o_act = SigmoidF(g[3 * hidden + j]);
      const float t = std::tanh(cn[j]);
      const float dv = d[j];
      if (dg != nullptr) dg[3 * hidden + j] += dv * t * o_act * (1.0f - o_act);
      if (dcn != nullptr) dcn[j] += dv * o_act * (1.0f - t * t);
    }
  }
}

void LstmCellForwardCH(const float* gates, const float* c_prev, int64_t batch,
                       int64_t hidden, float* c_next, float* h_next) {
  const bool simd = SimdTranscendentalsActive();
  for (int64_t r = 0; r < batch; ++r) {
    const float* g = gates + r * 4 * hidden;
    const float* cp = c_prev + r * hidden;
    float* cn = c_next + r * hidden;
    float* hn = h_next + r * hidden;
    if (simd) {
      int64_t j = 0;
      for (; j + 16 <= hidden; j += 16) {
        const Vec16 i_act = VecSigmoid(LoadVec16(g + j));
        const Vec16 f_act = VecSigmoid(LoadVec16(g + hidden + j));
        const Vec16 g_act = VecTanh(LoadVec16(g + 2 * hidden + j));
        const Vec16 o_act = VecSigmoid(LoadVec16(g + 3 * hidden + j));
        const Vec16 c = f_act * LoadVec16(cp + j) + i_act * g_act;
        StoreVec16(cn + j, c);
        StoreVec16(hn + j, o_act * VecTanh(c));
      }
      if (j < hidden) {
        const int64_t w = hidden - j;
        const Vec16 i_act = VecSigmoid(LoadPartial16(g + j, w));
        const Vec16 f_act = VecSigmoid(LoadPartial16(g + hidden + j, w));
        const Vec16 g_act = VecTanh(LoadPartial16(g + 2 * hidden + j, w));
        const Vec16 o_act = VecSigmoid(LoadPartial16(g + 3 * hidden + j, w));
        const Vec16 c = f_act * LoadPartial16(cp + j, w) + i_act * g_act;
        StorePartial16(cn + j, c, w);
        StorePartial16(hn + j, o_act * VecTanh(c), w);
      }
      continue;
    }
    for (int64_t j = 0; j < hidden; ++j) {
      const float i_act = SigmoidF(g[j]);
      const float f_act = SigmoidF(g[hidden + j]);
      const float g_act = std::tanh(g[2 * hidden + j]);
      const float o_act = SigmoidF(g[3 * hidden + j]);
      const float c = f_act * cp[j] + i_act * g_act;
      cn[j] = c;
      hn[j] = o_act * std::tanh(c);
    }
  }
}

void ScaledMaskedSoftmaxRows(const float* x, const float* mask, float scale,
                             float fill, int64_t rows, int64_t cols, float* y) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    float* yr = y + r * cols;
    if (mask != nullptr) {
      const float* mr = mask + r * cols;
      for (int64_t j = 0; j < cols; ++j) {
        yr[j] = (mr[j] != 0.0f) ? fill : xr[j] * scale;
      }
    } else {
      for (int64_t j = 0; j < cols; ++j) yr[j] = xr[j] * scale;
    }
    SoftmaxRow(yr, yr, cols);
  }
}

void LayerNormRows(const float* x, int64_t rows, int64_t cols, float eps,
                   float* y) {
  // `scale` matches ops::MeanAxis exactly (float reciprocal applied to the
  // float-rounded double sum).
  const float scale = cols > 0 ? 1.0f / static_cast<float>(cols) : 1.0f;
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    float* yr = y + r * cols;
    double sum = 0.0;
    for (int64_t j = 0; j < cols; ++j) sum += xr[j];
    const float neg_mean = -(static_cast<float>(sum) * scale);
    double sq = 0.0;
    for (int64_t j = 0; j < cols; ++j) {
      const float centered = xr[j] + neg_mean;
      yr[j] = centered;
      sq += centered * centered;
    }
    const float var = static_cast<float>(sq) * scale;
    const float sd = std::sqrt(std::max(var + eps, 0.0f));
    const float inv = 1.0f / sd;
    for (int64_t j = 0; j < cols; ++j) yr[j] *= inv;
  }
}

}  // namespace kernels
}  // namespace adaptraj
