// AVX-512 GEMM register tile: 8x32 tiles, k-unrolled FMA. See gemm_avx512.h
// for the TileArgs contract and the packed-B layout; kernels.cpp routes here
// only after CompiledIn()/CpuSupported() and the startup bit-exactness probe
// pass.
//
// This TU is compiled with -mavx512f (CMake source property) while the rest
// of the library keeps its baseline flags, so everything below is guarded on
// __AVX512F__ — without it the entry points become stubs and CompiledIn()
// reports false.
//
// The tile is written with GCC vector extensions rather than intrinsics:
// a 64-byte vector type lowers to zmm registers, `acc += x * b` contracts to
// vfmadd under the default contraction rules, and the same source doubles as
// documentation of the arithmetic order. Per output element the accumulation
// is ascending-k fused multiply-adds — the identical sequence the portable
// tile produces when its TU also contracts, which is what the probe in
// kernels.cpp verifies bitwise before enabling this path.

#include "tensor/gemm_avx512.h"

#include <cstring>

namespace adaptraj {
namespace kernels {
namespace avx512 {

bool CpuSupported() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

#if defined(__AVX512F__)

bool CompiledIn() { return true; }

namespace {

typedef float V16 __attribute__((vector_size(16 * sizeof(float))));

inline V16 Load16(const float* p) {
  V16 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store16(float* p, V16 v) { std::memcpy(p, &v, sizeof(v)); }

/// Loads nv <= 16 floats zero-padded to a full vector.
inline V16 LoadPartial16(const float* p, int64_t nv) {
  float tmp[16] = {0};
  std::memcpy(tmp, p, static_cast<size_t>(nv) * sizeof(float));
  return Load16(tmp);
}

/// Stores the first nv <= 16 lanes.
inline void StorePartial16(float* p, V16 v, int64_t nv) {
  float tmp[16];
  Store16(tmp, v);
  std::memcpy(p, tmp, static_cast<size_t>(nv) * sizeof(float));
}

/// Stores a 32-wide accumulator pair's first nv <= 32 lanes.
inline void StoreCols(float* c, V16 lo, V16 hi, int64_t nv) {
  if (nv >= 32) {
    Store16(c, lo);
    Store16(c + 16, hi);
  } else if (nv > 16) {
    Store16(c, lo);
    StorePartial16(c + 16, hi, nv - 16);
  } else {
    StorePartial16(c, lo, nv);
  }
}

/// Loads up to 32 C columns into an accumulator pair (zero beyond nv; those
/// lanes only ever see zero-padded B products and are never stored back).
inline void LoadCols(const float* c, V16* lo, V16* hi, int64_t nv) {
  if (nv >= 32) {
    *lo = Load16(c);
    *hi = Load16(c + 16);
  } else if (nv > 16) {
    *lo = Load16(c);
    *hi = LoadPartial16(c + 16, nv - 16);
  } else {
    *lo = LoadPartial16(c, nv);
    *hi = V16{} * 0.0f;
  }
}

/// C[0:MR, 0:32] += A[0:MR, 0:k] · B over ascending p: each k step is two B
/// loads + MR broadcast-FMA pairs, unrolled by kKUnroll. `b` is the block's
/// first row (in a packed panel or in place in row-major B; 32 readable
/// floats per row either way). No software prefetch: the driver hands out
/// 32-row work items whose operands are L1-resident, where prefetch is pure
/// issue-slot overhead (measurably slower on the tile harness).
template <int MR>
inline __attribute__((always_inline)) void Accumulate(
    V16* lo, V16* hi, int64_t k, const float* a, const float* b, int64_t ldb) {
  int64_t p = 0;
  for (; p + kKUnroll <= k; p += kKUnroll) {
    for (int64_t u = 0; u < kKUnroll; ++u) {
      const float* br = b + (p + u) * ldb;
      const V16 b0 = Load16(br);
      const V16 b1 = Load16(br + 16);
      for (int r = 0; r < MR; ++r) {
        const float x = a[r * k + p + u];
        lo[r] += x * b0;
        hi[r] += x * b1;
      }
    }
  }
  for (; p < k; ++p) {
    const float* br = b + p * ldb;
    const V16 b0 = Load16(br);
    const V16 b1 = Load16(br + 16);
    for (int r = 0; r < MR; ++r) {
      const float x = a[r * k + p];
      lo[r] += x * b0;
      hi[r] += x * b1;
    }
  }
}

/// The register tile: rows [i, i + MR) x columns [j, j + nv) of the slice.
/// 2*MR accumulators start from C or zero, take both products (k then k2)
/// and the bias without leaving registers, and go through relu before the
/// one store — the eager Gemm + accumulate-Gemm + AddRowBias + Relu
/// per-element order. The epilogue adds and the max are lone operations
/// (nothing to contract with), so they are bit-safe across translation
/// units.
template <int MR>
void Tile(const TileArgs& t, int64_t i, int64_t j, const float* b,
          int64_t ldb, int64_t nv) {
  V16 lo[MR], hi[MR];
  const V16 zero = V16{} * 0.0f;
  float* c = t.c + i * t.n + j;
  for (int r = 0; r < MR; ++r) {
    if (t.accumulate) {
      LoadCols(c + r * t.n, &lo[r], &hi[r], nv);
    } else {
      lo[r] = zero;
      hi[r] = zero;
    }
  }
  Accumulate<MR>(lo, hi, t.k, t.a + i * t.k, b, ldb);
  if (t.a2 != nullptr) {
    Accumulate<MR>(lo, hi, t.k2, t.a2 + i * t.k2, t.b2 + j / kNR * t.b2_panel,
                   t.ldb);
  }
  if (t.bias != nullptr) {
    // The bias row is zero-padded to a 32 multiple, so full loads are safe.
    const V16 b0 = Load16(t.bias + j);
    const V16 b1 = Load16(t.bias + j + 16);
    for (int r = 0; r < MR; ++r) {
      lo[r] += b0;
      hi[r] += b1;
    }
  }
  if (t.relu) {
    for (int r = 0; r < MR; ++r) {
      lo[r] = lo[r] > 0.0f ? lo[r] : zero;
      hi[r] = hi[r] > 0.0f ? hi[r] : zero;
    }
  }
  for (int r = 0; r < MR; ++r) StoreCols(c + r * t.n, lo[r], hi[r], nv);
}

}  // namespace

void TileRows(const TileArgs& t, int64_t i0, int64_t i1) {
  // Columns read in place end where the ragged tail block begins.
  const int64_t n_direct = t.b_tail != nullptr ? t.n / kNR * kNR : t.n;
  for (int64_t j = 0; j < t.n; j += kNR) {
    const bool tail = j >= n_direct;
    const float* b = tail ? t.b_tail : t.b + j / kNR * t.b_panel;
    const int64_t ldb = tail ? kNR : t.ldb;
    const int64_t nv = t.n - j < kNR ? t.n - j : kNR;
    // Row-remainder ladder: full 8-row tiles, then 4/2/1 for the rest. Each
    // row's element chain is independent of the grouping, so the split
    // cannot perturb results.
    int64_t i = i0;
    for (; i + 8 <= i1; i += 8) {
      // Prefetch the next row block's A into L1 while this block computes.
      if (i + 8 < i1) __builtin_prefetch(t.a + (i + 8) * t.k);
      Tile<8>(t, i, j, b, ldb, nv);
    }
    if (i1 - i >= 4) {
      Tile<4>(t, i, j, b, ldb, nv);
      i += 4;
    }
    if (i1 - i >= 2) {
      Tile<2>(t, i, j, b, ldb, nv);
      i += 2;
    }
    if (i1 - i >= 1) Tile<1>(t, i, j, b, ldb, nv);
  }
}

#else  // !__AVX512F__: stubs so the library links on any toolchain.

bool CompiledIn() { return false; }

void TileRows(const TileArgs&, int64_t, int64_t) {}

#endif  // __AVX512F__

}  // namespace avx512
}  // namespace kernels
}  // namespace adaptraj
