// AVX-512 GEMM dispatch verification: exactness of the 8x32 micro-kernel
// against the naive reference and the portable 4x16 kernel across a ragged
// shape grid, degenerate shapes on every transpose variant, plan pre-packing
// round trips, and the 64-byte storage-alignment guarantee the kernels rely
// on.
//
// Tests that force GemmPath::kAvx512 skip themselves when the override does
// not resolve to the AVX-512 path (not compiled in, or the CPU lacks it) —
// the portable-path assertions still run everywhere. Bitwise avx512-vs-
// portable assertions additionally require the startup probe to have passed
// (auto resolves to kAvx512), since on a toolchain where the portable TU did
// not contract its FMAs the two kernels legitimately differ in low bits.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/aligned_buffer.h"
#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace adaptraj {
namespace {

struct ScopedGemmPath {
  explicit ScopedGemmPath(kernels::GemmPath p) { kernels::SetGemmPath(p); }
  ~ScopedGemmPath() { kernels::SetGemmPath(kernels::GemmPath::kAuto); }
};

bool Avx512Selectable() {
  ScopedGemmPath force(kernels::GemmPath::kAvx512);
  return kernels::SelectGemmPath() == kernels::GemmPath::kAvx512;
}

bool ProbePassed() {
  // kAuto resolves to kAvx512 only when the startup bitwise probe succeeded.
  ScopedGemmPath reset(kernels::GemmPath::kAuto);
  return kernels::SelectGemmPath() == kernels::GemmPath::kAvx512;
}

// Deterministic pseudo-random fill, same generator family the dispatch probe
// uses; values in [-1, 1).
struct Lcg {
  uint32_t state;
  explicit Lcg(uint32_t seed) : state(seed) {}
  float Next() {
    state = state * 1664525u + 1013904223u;
    return static_cast<float>(state >> 8) * (2.0f / 16777216.0f) - 1.0f;
  }
  void Fill(std::vector<float>* v) {
    for (auto& x : *v) x = Next();
  }
};

// --- Exactness grid: micro-kernel vs naive vs portable -----------------------

TEST(GemmAvx512Test, RaggedGridMatchesNaiveAndPortable) {
  if (!Avx512Selectable()) GTEST_SKIP() << "AVX-512 path unavailable";
  const bool bitwise = ProbePassed();
  Lcg rng(0x5eed0001u);
  for (int64_t m : {int64_t{1}, int64_t{7}, int64_t{8}, int64_t{9}, int64_t{64}}) {
    for (int64_t n : {int64_t{1}, int64_t{31}, int64_t{32}, int64_t{33}, int64_t{128}}) {
      for (int64_t k : {int64_t{1}, int64_t{2}, int64_t{63}, int64_t{64}}) {
        std::vector<float> a(m * k), b(k * n), seed(m * n);
        rng.Fill(&a);
        rng.Fill(&b);
        rng.Fill(&seed);
        for (bool acc : {false, true}) {
          std::vector<float> c_avx = seed, c_port = seed, c_ref = seed;
          {
            ScopedGemmPath p(kernels::GemmPath::kAvx512);
            kernels::Gemm(false, false, m, n, k, a.data(), b.data(),
                          c_avx.data(), acc);
          }
          {
            ScopedGemmPath p(kernels::GemmPath::kPortable);
            kernels::Gemm(false, false, m, n, k, a.data(), b.data(),
                          c_port.data(), acc);
          }
          kernels::GemmNaive(false, false, m, n, k, a.data(), b.data(),
                             c_ref.data(), acc);
          for (int64_t i = 0; i < m * n; ++i) {
            ASSERT_NEAR(c_avx[i], c_ref[i], 1e-4f)
                << "m=" << m << " n=" << n << " k=" << k << " acc=" << acc
                << " i=" << i;
            if (bitwise) {
              ASSERT_EQ(c_avx[i], c_port[i])
                  << "avx512 vs portable bitwise, m=" << m << " n=" << n
                  << " k=" << k << " acc=" << acc << " i=" << i;
            }
          }
        }
      }
    }
  }
}

TEST(GemmAvx512Test, TransposeVariantsMatchNaive) {
  if (!Avx512Selectable()) GTEST_SKIP() << "AVX-512 path unavailable";
  ScopedGemmPath force(kernels::GemmPath::kAvx512);
  Lcg rng(0x5eed0002u);
  const int64_t m = 37, n = 29, k = 53;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (bool acc : {false, true}) {
        std::vector<float> a(m * k), b(k * n), c_fast(m * n);
        rng.Fill(&a);
        rng.Fill(&b);
        rng.Fill(&c_fast);
        std::vector<float> c_ref = c_fast;
        kernels::Gemm(ta, tb, m, n, k, a.data(), b.data(), c_fast.data(), acc);
        kernels::GemmNaive(ta, tb, m, n, k, a.data(), b.data(), c_ref.data(),
                           acc);
        for (int64_t i = 0; i < m * n; ++i) {
          ASSERT_NEAR(c_fast[i], c_ref[i], 1e-4f)
              << "ta=" << ta << " tb=" << tb << " acc=" << acc << " i=" << i;
        }
      }
    }
  }
}

TEST(GemmAvx512Test, BatchGemmMatchesNaiveBothPaths) {
  Lcg rng(0x5eed0003u);
  const int64_t batch = 3, m = 9, n = 33, k = 17;
  std::vector<float> a(batch * m * k), b(batch * k * n);
  rng.Fill(&a);
  rng.Fill(&b);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      std::vector<float> c_ref(batch * m * n, 0.0f);
      kernels::BatchGemmNaive(ta, tb, batch, m, n, k, a.data(), b.data(),
                              c_ref.data(), false);
      for (auto path :
           {kernels::GemmPath::kPortable, kernels::GemmPath::kAvx512}) {
        if (path == kernels::GemmPath::kAvx512 && !Avx512Selectable()) continue;
        ScopedGemmPath p(path);
        std::vector<float> c(batch * m * n, 0.0f);
        kernels::BatchGemm(ta, tb, batch, m, n, k, a.data(), b.data(), c.data(),
                           false);
        for (int64_t i = 0; i < batch * m * n; ++i) {
          ASSERT_NEAR(c[i], c_ref[i], 1e-4f)
              << "path=" << static_cast<int>(path) << " ta=" << ta
              << " tb=" << tb << " i=" << i;
        }
      }
    }
  }
}

// --- Degenerate shapes: m=0 / n=0 / k=0 / m=1 --------------------------------

TEST(GemmAvx512Test, DegenerateShapesAllVariantsBothPaths) {
  Lcg rng(0x5eed0004u);
  std::vector<float> a(256), b(256);  // sized for the largest m*k / k*n below
  rng.Fill(&a);
  rng.Fill(&b);
  struct Case {
    int64_t m, n, k;
  };
  const Case cases[] = {{0, 5, 3}, {5, 0, 3}, {5, 3, 0}, {0, 0, 0}, {1, 5, 3},
                        {1, 1, 1}, {1, 32, 4}, {1, 33, 4}};
  const bool bitwise = ProbePassed();
  for (auto path : {kernels::GemmPath::kPortable, kernels::GemmPath::kAvx512}) {
    if (path == kernels::GemmPath::kAvx512 && !Avx512Selectable()) continue;
    ScopedGemmPath p(path);
    for (const Case& cs : cases) {
      for (bool ta : {false, true}) {
        for (bool tb : {false, true}) {
          for (bool acc : {false, true}) {
            const int64_t cn = cs.m * cs.n;
            std::vector<float> c(cn + 1, 7.0f);  // +1 sentinel slot
            std::vector<float> c_ref = c;
            kernels::Gemm(ta, tb, cs.m, cs.n, cs.k, a.data(), b.data(),
                          c.data(), acc);
            kernels::GemmNaive(ta, tb, cs.m, cs.n, cs.k, a.data(), b.data(),
                               c_ref.data(), acc);
            for (int64_t i = 0; i <= cn; ++i) {
              ASSERT_NEAR(c[i], c_ref[i], 1e-5f)
                  << "path=" << static_cast<int>(path) << " m=" << cs.m
                  << " n=" << cs.n << " k=" << cs.k << " ta=" << ta
                  << " tb=" << tb << " acc=" << acc << " i=" << i;
            }
            // Sentinel past the end must be untouched, exactly.
            ASSERT_EQ(c[cn], 7.0f)
                << "path=" << static_cast<int>(path) << " m=" << cs.m
                << " n=" << cs.n << " k=" << cs.k << " wrote past C";
            // When the probe passed, the two fast paths agree bitwise.
            if (bitwise && path == kernels::GemmPath::kAvx512) {
              std::vector<float> c_port(cn + 1, 7.0f);
              kernels::SetGemmPath(kernels::GemmPath::kPortable);
              kernels::Gemm(ta, tb, cs.m, cs.n, cs.k, a.data(), b.data(),
                            c_port.data(), acc);
              kernels::SetGemmPath(path);
              ASSERT_EQ(0, std::memcmp(c.data(), c_port.data(),
                                       sizeof(float) * (cn + 1)))
                  << "avx512 vs portable bitwise, m=" << cs.m << " n=" << cs.n
                  << " k=" << cs.k << " ta=" << ta << " tb=" << tb
                  << " acc=" << acc;
            }
          }
        }
      }
    }
  }
}

// k=0 without accumulate must zero C; with accumulate it must leave C alone.
TEST(GemmAvx512Test, KZeroSemantics) {
  for (auto path : {kernels::GemmPath::kPortable, kernels::GemmPath::kAvx512}) {
    if (path == kernels::GemmPath::kAvx512 && !Avx512Selectable()) continue;
    ScopedGemmPath p(path);
    std::vector<float> c(12, 3.5f);
    kernels::Gemm(false, false, 3, 4, 0, nullptr, nullptr, c.data(), true);
    for (float v : c) ASSERT_EQ(v, 3.5f);
    kernels::Gemm(false, false, 3, 4, 0, nullptr, nullptr, c.data(), false);
    for (float v : c) ASSERT_EQ(v, 0.0f);
  }
}

// Auto mode is shape-aware: sub-panel products (n < 32) resolve to the
// portable kernel even when the probe enabled AVX-512, while an explicit
// override bypasses the heuristic (this suite forces the micro-kernel at
// sub-panel shapes and depends on that).
TEST(GemmAvx512Test, ShapeAwareAutoDispatch) {
  {
    ScopedGemmPath reset(kernels::GemmPath::kAuto);
    if (ProbePassed()) {
      EXPECT_EQ(kernels::GemmPathForShape(31), kernels::GemmPath::kPortable);
      EXPECT_EQ(kernels::GemmPathForShape(32), kernels::GemmPath::kAvx512);
      EXPECT_EQ(kernels::GemmPathForShape(128), kernels::GemmPath::kAvx512);
    } else {
      EXPECT_EQ(kernels::GemmPathForShape(128), kernels::GemmPath::kPortable);
    }
    EXPECT_EQ(kernels::GemmPathForShape(1), kernels::GemmPath::kPortable);
  }
  if (Avx512Selectable()) {
    ScopedGemmPath force(kernels::GemmPath::kAvx512);
    EXPECT_EQ(kernels::GemmPathForShape(1), kernels::GemmPath::kAvx512);
    EXPECT_EQ(kernels::GemmPathForShape(31), kernels::GemmPath::kAvx512);
  }
  {
    ScopedGemmPath force(kernels::GemmPath::kPortable);
    EXPECT_EQ(kernels::GemmPathForShape(4096), kernels::GemmPath::kPortable);
  }
}

// --- Plan pre-packing: both layouts, fused epilogues -------------------------

TEST(GemmAvx512Test, PlanGemmMatchesEagerChainBothLayouts) {
  Lcg rng(0x5eed0006u);
  const int64_t m = 9, n = 33, k = 17, k2 = 13;
  std::vector<float> x(m * k), w(k * n), x2(m * k2), w2(k2 * n), bias(n);
  rng.Fill(&x);
  rng.Fill(&w);
  rng.Fill(&x2);
  rng.Fill(&w2);
  rng.Fill(&bias);

  for (auto act : {kernels::PlanAct::kNone, kernels::PlanAct::kRelu,
                   kernels::PlanAct::kTanh, kernels::PlanAct::kSigmoid}) {
    // Eager reference: Gemm + accumulate-Gemm + AddRowBias + activation, on
    // whichever path auto resolves to (the same arithmetic bit for bit).
    std::vector<float> ref(m * n);
    kernels::Gemm(false, false, m, n, k, x.data(), w.data(), ref.data(), false);
    kernels::Gemm(false, false, m, n, k2, x2.data(), w2.data(), ref.data(),
                  true);
    kernels::AddRowBias(ref.data(), bias.data(), m, n);
    if (act == kernels::PlanAct::kRelu) {
      for (auto& v : ref) v = v > 0.0f ? v : 0.0f;
    } else if (act == kernels::PlanAct::kTanh) {
      kernels::TanhForward(ref.data(), ref.data(), m * n);
    } else if (act == kernels::PlanAct::kSigmoid) {
      kernels::SigmoidForward(ref.data(), ref.data(), m * n);
    }

    const bool bitwise = ProbePassed();
    for (auto path :
         {kernels::GemmPath::kPortable, kernels::GemmPath::kAvx512}) {
      if (path == kernels::GemmPath::kAvx512 && !Avx512Selectable()) continue;
      std::vector<float> wp(kernels::PlanPackedSize(k, n, path));
      std::vector<float> wp2(kernels::PlanPackedSize(k2, n, path));
      std::vector<float> bp(kernels::PlanPackedBiasSize(n, path));
      kernels::PlanPackWeightFor(w.data(), k, n, path, wp.data());
      kernels::PlanPackWeightFor(w2.data(), k2, n, path, wp2.data());
      kernels::PlanPackBiasFor(bias.data(), n, path, bp.data());
      std::vector<float> c(m * n, -99.0f);
      kernels::PlanGemm(m, n, k, x.data(), wp.data(), k2, x2.data(), wp2.data(),
                        bp.data(), act, c.data(), path);
      for (int64_t i = 0; i < m * n; ++i) {
        if (bitwise) {
          ASSERT_EQ(c[i], ref[i])
              << "path=" << static_cast<int>(path)
              << " act=" << static_cast<int>(act) << " i=" << i;
        } else {
          ASSERT_NEAR(c[i], ref[i], 1e-4f)
              << "path=" << static_cast<int>(path)
              << " act=" << static_cast<int>(act) << " i=" << i;
        }
      }
    }
  }
}

TEST(GemmAvx512Test, PlanGemmSingleProductNoBias) {
  Lcg rng(0x5eed0007u);
  const int64_t m = 7, n = 31, k = 63;
  std::vector<float> x(m * k), w(k * n);
  rng.Fill(&x);
  rng.Fill(&w);
  std::vector<float> ref(m * n);
  kernels::Gemm(false, false, m, n, k, x.data(), w.data(), ref.data(), false);
  for (auto path : {kernels::GemmPath::kPortable, kernels::GemmPath::kAvx512}) {
    if (path == kernels::GemmPath::kAvx512 && !Avx512Selectable()) continue;
    std::vector<float> wp(kernels::PlanPackedSize(k, n, path));
    kernels::PlanPackWeightFor(w.data(), k, n, path, wp.data());
    std::vector<float> c(m * n, -99.0f);
    kernels::PlanGemm(m, n, k, x.data(), wp.data(), 0, nullptr, nullptr,
                      nullptr, kernels::PlanAct::kNone, c.data(), path);
    for (int64_t i = 0; i < m * n; ++i) {
      ASSERT_NEAR(c[i], ref[i], 1e-4f)
          << "path=" << static_cast<int>(path) << " i=" << i;
    }
  }
}

// Zero-sign semantics (the all-zero LSTM initial-state case). A fresh
// accumulation over a zero A row yields +0.0 on every path (IEEE:
// +0 + (-0) = +0), and a -0.0 already in C must survive accumulate=true when
// every true-k product is -0.0 — possible only because the k-padding in the
// packed B is layout-only. If the kernel accumulated the zero-padded rows it
// would also read A out of bounds, which ASan CI would flag.
TEST(GemmAvx512Test, ZeroSignSemantics) {
  const int64_t m = 1, n = 33, k = 5;
  std::vector<float> a(k, 0.0f);     // +0.0 row
  std::vector<float> b(k * n, -1.0f);
  for (auto path : {kernels::GemmPath::kPortable, kernels::GemmPath::kAvx512}) {
    if (path == kernels::GemmPath::kAvx512 && !Avx512Selectable()) continue;
    ScopedGemmPath p(path);
    std::vector<float> c(m * n, 42.0f);
    kernels::Gemm(false, false, m, n, k, a.data(), b.data(), c.data(), false);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(c[i], 0.0f) << "path=" << static_cast<int>(path);
      ASSERT_FALSE(std::signbit(c[i]))
          << "path=" << static_cast<int>(path) << " col " << i
          << ": fresh zero accumulation must be +0.0";
    }
    // accumulate=true onto -0.0: every product is (+0)*(-1) = -0.0 and
    // -0 + -0 = -0, so the sign survives iff only true k rows accumulate.
    std::vector<float> c_acc(m * n, -0.0f);
    kernels::Gemm(false, false, m, n, k, a.data(), b.data(), c_acc.data(),
                  true);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(c_acc[i], 0.0f) << "path=" << static_cast<int>(path);
      ASSERT_TRUE(std::signbit(c_acc[i]))
          << "path=" << static_cast<int>(path) << " col " << i
          << ": accumulate flipped -0.0 to +0.0";
    }
  }
}

// --- Exactness at the benchmark's shapes ------------------------------------

// The shapes the end-to-end benchmark spends its GEMM time on, on both GEMM
// paths and both transcendental paths. Serving: the LSTM gate dual product
// 64x(16+32)->128 with bias and the 8x32->{2,16,22} steps with each folded
// activation, where PlanGemm must equal the eager Gemm + accumulate-Gemm +
// AddRowBias + activation chain bit for bit. Training: the eager products
// 256x16->128, trans_b 256x128->16 and trans_a 2x256->16, where Gemm must
// equal BatchGemm with batch 1 bit for bit. Every result is also checked
// against the naive reference and, when the probe passed, bitwise across
// paths.
TEST(GemmAvx512Test, BenchmarkShapesExactOnBothPathsAndTranscendentals) {
  struct ScopedTranscendentalPath {
    explicit ScopedTranscendentalPath(kernels::TranscendentalPath p) {
      kernels::SetTranscendentalPath(p);
    }
    ~ScopedTranscendentalPath() {
      kernels::SetTranscendentalPath(kernels::TranscendentalPath::kAuto);
    }
  };
  const bool bitwise = ProbePassed();
  std::vector<kernels::GemmPath> paths = {kernels::GemmPath::kPortable};
  if (Avx512Selectable()) paths.push_back(kernels::GemmPath::kAvx512);
  Lcg rng(0x5eed0009u);

  struct PlanCase {
    int64_t m, n, k, k2;
    kernels::PlanAct act;
  };
  std::vector<PlanCase> plan_cases = {
      {64, 128, 16, 32, kernels::PlanAct::kNone}};
  for (int64_t n : {int64_t{2}, int64_t{16}, int64_t{22}}) {
    for (auto act : {kernels::PlanAct::kTanh, kernels::PlanAct::kSigmoid,
                     kernels::PlanAct::kRelu}) {
      plan_cases.push_back({8, n, 32, 0, act});
    }
  }
  struct EagerCase {
    int64_t m, n, k;
    bool ta, tb;
  };
  const EagerCase eager_cases[] = {{256, 128, 16, false, false},
                                   {256, 16, 128, false, true},
                                   {2, 16, 256, true, false}};

  for (auto tpath : {kernels::TranscendentalPath::kSimd,
                     kernels::TranscendentalPath::kScalar}) {
    ScopedTranscendentalPath scoped(tpath);
    for (const PlanCase& pc : plan_cases) {
      const int64_t m = pc.m, n = pc.n, k = pc.k, k2 = pc.k2;
      std::vector<float> x(m * k), w(k * n), x2(m * k2), w2(k2 * n), bias(n);
      rng.Fill(&x);
      rng.Fill(&w);
      rng.Fill(&x2);
      rng.Fill(&w2);
      rng.Fill(&bias);
      // Naive reference with the same per-element order.
      std::vector<float> naive(m * n);
      kernels::GemmNaive(false, false, m, n, k, x.data(), w.data(),
                         naive.data(), false);
      kernels::GemmNaive(false, false, m, n, k2, x2.data(), w2.data(),
                         naive.data(), true);
      kernels::AddRowBias(naive.data(), bias.data(), m, n);
      std::vector<float> first_path;
      for (auto path : paths) {
        std::vector<float> eager(m * n);
        {
          ScopedGemmPath p(path);
          kernels::Gemm(false, false, m, n, k, x.data(), w.data(), eager.data(),
                        false);
          kernels::Gemm(false, false, m, n, k2, x2.data(), w2.data(),
                        eager.data(), true);
        }
        kernels::AddRowBias(eager.data(), bias.data(), m, n);
        std::vector<float> ref = naive;
        if (pc.act == kernels::PlanAct::kRelu) {
          for (auto* v : {&eager, &ref}) {
            for (auto& e : *v) e = e > 0.0f ? e : 0.0f;
          }
        } else if (pc.act == kernels::PlanAct::kTanh) {
          kernels::TanhForward(eager.data(), eager.data(), m * n);
          kernels::TanhForward(ref.data(), ref.data(), m * n);
        } else if (pc.act == kernels::PlanAct::kSigmoid) {
          kernels::SigmoidForward(eager.data(), eager.data(), m * n);
          kernels::SigmoidForward(ref.data(), ref.data(), m * n);
        }
        std::vector<float> wp(kernels::PlanPackedSize(k, n, path));
        std::vector<float> wp2(kernels::PlanPackedSize(k2, n, path));
        std::vector<float> bp(kernels::PlanPackedBiasSize(n, path));
        kernels::PlanPackWeightFor(w.data(), k, n, path, wp.data());
        kernels::PlanPackWeightFor(w2.data(), k2, n, path, wp2.data());
        kernels::PlanPackBiasFor(bias.data(), n, path, bp.data());
        std::vector<float> c(m * n, -99.0f);
        kernels::PlanGemm(m, n, k, x.data(), wp.data(), k2,
                          k2 > 0 ? x2.data() : nullptr, wp2.data(), bp.data(),
                          pc.act, c.data(), path);
        const std::string what =
            "plan m=" + std::to_string(m) + " n=" + std::to_string(n) +
            " k=" + std::to_string(k) + "+" + std::to_string(k2) +
            " act=" + std::to_string(static_cast<int>(pc.act)) +
            " path=" + std::to_string(static_cast<int>(path)) +
            " transcendental=" + std::to_string(static_cast<int>(tpath));
        ASSERT_EQ(0, std::memcmp(c.data(), eager.data(), sizeof(float) * m * n))
            << what << ": PlanGemm differs from the eager chain";
        for (int64_t i = 0; i < m * n; ++i) {
          ASSERT_NEAR(c[i], ref[i], 1e-4f) << what << " i=" << i;
        }
        if (first_path.empty()) {
          first_path = c;
        } else if (bitwise) {
          ASSERT_EQ(0, std::memcmp(c.data(), first_path.data(),
                                   sizeof(float) * m * n))
              << what << ": avx512 vs portable bitwise";
        }
      }
    }
    for (const EagerCase& ec : eager_cases) {
      const int64_t m = ec.m, n = ec.n, k = ec.k;
      std::vector<float> a(m * k), b(k * n), seed(m * n);
      rng.Fill(&a);
      rng.Fill(&b);
      rng.Fill(&seed);
      for (bool acc : {false, true}) {
        std::vector<float> ref = seed;
        kernels::GemmNaive(ec.ta, ec.tb, m, n, k, a.data(), b.data(),
                           ref.data(), acc);
        std::vector<float> first_path;
        for (auto path : paths) {
          ScopedGemmPath p(path);
          std::vector<float> single = seed, batched = seed;
          kernels::Gemm(ec.ta, ec.tb, m, n, k, a.data(), b.data(),
                        single.data(), acc);
          kernels::BatchGemm(ec.ta, ec.tb, 1, m, n, k, a.data(), b.data(),
                             batched.data(), acc);
          const std::string what =
              "eager m=" + std::to_string(m) + " n=" + std::to_string(n) +
              " k=" + std::to_string(k) + " ta=" + std::to_string(ec.ta) +
              " tb=" + std::to_string(ec.tb) + " acc=" + std::to_string(acc) +
              " path=" + std::to_string(static_cast<int>(path)) +
              " transcendental=" + std::to_string(static_cast<int>(tpath));
          ASSERT_EQ(0, std::memcmp(single.data(), batched.data(),
                                   sizeof(float) * m * n))
              << what << ": Gemm differs from BatchGemm(batch=1)";
          for (int64_t i = 0; i < m * n; ++i) {
            ASSERT_NEAR(single[i], ref[i], 1e-3f) << what << " i=" << i;
          }
          if (first_path.empty()) {
            first_path = single;
          } else if (bitwise) {
            ASSERT_EQ(0, std::memcmp(single.data(), first_path.data(),
                                     sizeof(float) * m * n))
                << what << ": avx512 vs portable bitwise";
          }
        }
      }
    }
  }
}

// --- Storage alignment (satellite: kernels assume 64-byte-aligned data) ------

TEST(GemmAvx512Test, PooledBuffersAre64ByteAligned) {
  auto aligned = [](const float* p) {
    return reinterpret_cast<uintptr_t>(p) % internal::kBufferAlignment == 0;
  };
  // Fresh acquisitions at awkward sizes.
  for (int64_t n : {1, 3, 17, 1000, 4096}) {
    internal::FloatBuffer buf = internal::AcquireBuffer(n);
    ASSERT_TRUE(aligned(buf.data())) << "fresh n=" << n;
    internal::ReleaseBuffer(std::move(buf));
  }
  // Pool-recycled buffers must come back aligned too.
  internal::FloatBuffer first = internal::AcquireBuffer(513);
  const float* fresh_ptr = first.data();
  internal::ReleaseBuffer(std::move(first));
  internal::FloatBuffer again = internal::AcquireBuffer(513);
  ASSERT_TRUE(aligned(again.data())) << "recycled buffer misaligned";
  EXPECT_EQ(fresh_ptr, again.data()) << "pool did not recycle (accounting?)";
  internal::ReleaseBuffer(std::move(again));

  internal::FloatBuffer zeroed = internal::AcquireZeroedBuffer(77);
  ASSERT_TRUE(aligned(zeroed.data()));
  for (float v : zeroed) ASSERT_EQ(v, 0.0f);
  internal::ReleaseBuffer(std::move(zeroed));
}

TEST(GemmAvx512Test, TensorStorageIs64ByteAligned) {
  auto aligned = [](const float* p) {
    return reinterpret_cast<uintptr_t>(p) % internal::kBufferAlignment == 0;
  };
  Rng rng(5);
  Tensor t = Tensor::Randn({3, 7}, &rng, 1.0f, /*requires_grad=*/true);
  ASSERT_TRUE(aligned(t.data()));
  // Grad storage is pooled through the same allocator.
  internal::TensorImpl impl;
  impl.data = internal::AcquireBuffer(21);
  impl.EnsureGrad();
  ASSERT_TRUE(aligned(impl.grad.data()));
  // FromVector must not adopt the caller's (unaligned-allocator) storage.
  Tensor f = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  ASSERT_TRUE(aligned(f.data()));
}

}  // namespace
}  // namespace adaptraj
