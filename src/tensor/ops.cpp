// The one forward per op (plan::RunForward), shared by the eager ops and
// plan replay, then the eager ops with their backward passes.

#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"
#include "tensor/plan.h"

namespace adaptraj {

namespace {

/// Walks the flat offsets into a broadcast operand (same rank; extents equal
/// or 1) in row-major order of the output. An odometer over the output shape
/// advances the operand offset by precomputed strides (0 on broadcast dims),
/// so each step costs a few adds instead of a division chain per dimension —
/// this sits on every Linear bias add and every mask multiply.
class BroadcastCursor {
 public:
  BroadcastCursor(int rank, const int64_t* out_shape, const int64_t* b_shape)
      : rank_(rank) {
    int64_t s = 1;
    for (int d = rank_ - 1; d >= 0; --d) {
      extent_[d] = out_shape[d];
      stride_[d] = b_shape[d] == 1 ? 0 : s;
      s *= b_shape[d];
    }
  }

  /// Offset of the current output element into the broadcast operand.
  int64_t offset() const { return offset_; }

  /// Steps to the next output element (row-major order).
  void Advance() {
    for (int d = rank_ - 1; d >= 0; --d) {
      offset_ += stride_[d];
      if (++index_[d] < extent_[d]) return;
      index_[d] = 0;
      offset_ -= stride_[d] * extent_[d];
    }
  }

 private:
  int rank_;
  int64_t extent_[plan::kMaxRank] = {};
  int64_t index_[plan::kMaxRank] = {};
  int64_t stride_[plan::kMaxRank] = {};
  int64_t offset_ = 0;
};

/// First position of the maximum along one lane of `extent` values spaced
/// `stride` apart: MaxAxis's forward value and its backward route.
int64_t ArgMax(const float* lane, int64_t extent, int64_t stride) {
  int64_t best = 0;
  for (int64_t e = 1; e < extent; ++e) {
    if (lane[e * stride] > lane[best * stride]) best = e;
  }
  return best;
}

template <typename F>
void Map1(const float* x, float* y, int64_t n, F f) {
  for (int64_t i = 0; i < n; ++i) y[i] = f(x[i]);
}

template <typename F>
void Map2(const float* a, const float* b, float* y, int64_t n, F f) {
  for (int64_t i = 0; i < n; ++i) y[i] = f(a[i], b[i]);
}

template <typename F>
void MapBroadcast(const plan::OpDesc& d, const float* a, const float* b,
                  float* y, F f) {
  BroadcastCursor cur(d.rank, d.shape, d.b_shape);
  for (int64_t i = 0; i < d.n; ++i, cur.Advance()) y[i] = f(a[i], b[cur.offset()]);
}

}  // namespace

namespace plan {

// Fields read per kind:
//   elementwise, kMaskedFill, kCopy, kRandn, kRand: n elements, scalar
//     operands f0 / f1;
//   kBroadcast: n, rank, shape, b_shape;
//   products: m x k times k x n (k2 for the second product); kBatchMatMul
//     adds outer = batch and the transpose flags; kPlanGemm adds the packed
//     panels, gpath and code = the folded activation;
//   kLstm*: m = batch, n = hidden; kTranspose: an m x n input;
//   kSoftmax, kScaledSoftmax, kLayerNorm: m rows of n (f0 / f1: scale and
//     fill, or eps);
//   kReduce, kMaxAxis: outer x extent x inner (kReduce scales by f0);
//   kConcat: outer x extent x inner of the output;
//   kSlice: outer x extent x inner of the input, m rows from start.
void RunForward(const OpDesc& d, Operands in, float* out, float* out2,
                Rng* rng) {
  switch (d.kind) {
    case Op::kUnary: {
      const float* x = in[0];
      const float p0 = d.f0, p1 = d.f1;
      switch (static_cast<Un>(d.code)) {
        case Un::kAddScalar:
          return Map1(x, out, d.n, [p0](float v) { return v + p0; });
        case Un::kMulScalar:
          return Map1(x, out, d.n, [p0](float v) { return v * p0; });
        case Un::kRelu:
          return Map1(x, out, d.n, [](float v) { return v > 0.0f ? v : 0.0f; });
        case Un::kTanh: return kernels::TanhForward(x, out, d.n);
        case Un::kSigmoid: return kernels::SigmoidForward(x, out, d.n);
        case Un::kExp: return kernels::ExpForward(x, out, d.n);
        case Un::kSquare:
          return Map1(x, out, d.n, [](float v) { return v * v; });
        case Un::kSqrt:
          return Map1(x, out, d.n,
                      [](float v) { return std::sqrt(std::max(v, 0.0f)); });
        case Un::kAbs:
          return Map1(x, out, d.n, [](float v) { return std::fabs(v); });
        case Un::kClamp:
          return Map1(x, out, d.n, [p0, p1](float v) {
            return std::min(std::max(v, p0), p1);
          });
        case Un::kLogClamped:
          return Map1(x, out, d.n,
                      [p0](float v) { return std::log(std::max(v, p0)); });
      }
      return;
    }
    case Op::kBinary: {
      const float* a = in[0];
      const float* b = in[1];
      switch (static_cast<Bin>(d.code)) {
        case Bin::kAdd:
          return Map2(a, b, out, d.n, [](float x, float y) { return x + y; });
        case Bin::kSub:
          return Map2(a, b, out, d.n, [](float x, float y) { return x - y; });
        case Bin::kMul:
          return Map2(a, b, out, d.n, [](float x, float y) { return x * y; });
        case Bin::kDiv:
          return Map2(a, b, out, d.n, [](float x, float y) { return x / y; });
      }
      return;
    }
    case Op::kBroadcast:
      if (static_cast<Bin>(d.code) == Bin::kAdd) {
        return MapBroadcast(d, in[0], in[1], out,
                            [](float x, float y) { return x + y; });
      }
      return MapBroadcast(d, in[0], in[1], out,
                          [](float x, float y) { return x * y; });
    case Op::kMatMul:
      return kernels::Gemm(false, false, d.m, d.n, d.k, in[0], in[1], out,
                           /*accumulate=*/false);
    case Op::kBatchMatMul:
      return kernels::BatchGemm(d.flag_a, d.flag_b, d.outer, d.m, d.n, d.k,
                                in[0], in[1], out, /*accumulate=*/false);
    case Op::kAffine:
      kernels::Gemm(false, false, d.m, d.n, d.k, in[0], in[1], out, false);
      return kernels::AddRowBias(out, in[2], d.m, d.n);
    case Op::kDualMatMul:  // AddMatMul; LinearGates with a fifth (bias) input
      kernels::Gemm(false, false, d.m, d.n, d.k, in[0], in[1], out, false);
      kernels::Gemm(false, false, d.m, d.n, d.k2, in[2], in[3], out, true);
      if (in.count > 4) kernels::AddRowBias(out, in[4], d.m, d.n);
      return;
    case Op::kLstmC:
      return kernels::LstmCellForwardC(in[0], in[1], d.m, d.n, out);
    case Op::kLstmH:
      return kernels::LstmCellForwardH(in[0], in[1], d.m, d.n, out);
    case Op::kTranspose: {
      const float* a = in[0];
      for (int64_t i = 0; i < d.m; ++i) {
        for (int64_t j = 0; j < d.n; ++j) out[j * d.m + i] = a[i * d.n + j];
      }
      return;
    }
    case Op::kSoftmax: {
      const float* x = in[0];
      const int64_t cols = d.n;
      for (int64_t r = 0; r < d.m; ++r) {
        kernels::SoftmaxRow(&x[r * cols], &out[r * cols], cols);
      }
      return;
    }
    case Op::kReduce: {
      const float* a = in[0];
      for (int64_t ou = 0; ou < d.outer; ++ou) {
        for (int64_t iin = 0; iin < d.inner; ++iin) {
          double acc = 0.0;
          for (int64_t e = 0; e < d.extent; ++e) {
            acc += a[(ou * d.extent + e) * d.inner + iin];
          }
          out[ou * d.inner + iin] = static_cast<float>(acc) * d.f0;
        }
      }
      return;
    }
    case Op::kMaxAxis:
      for (int64_t ou = 0; ou < d.outer; ++ou) {
        for (int64_t iin = 0; iin < d.inner; ++iin) {
          const float* lane = in[0] + ou * d.extent * d.inner + iin;
          out[ou * d.inner + iin] = lane[ArgMax(lane, d.extent, d.inner) * d.inner];
        }
      }
      return;
    case Op::kMaskedFill: {
      const float* a = in[0];
      const float* m = in[1];
      for (int64_t i = 0; i < d.n; ++i) out[i] = (m[i] != 0.0f) ? d.f0 : a[i];
      return;
    }
    case Op::kCopy:
      std::copy(in[0], in[0] + d.n, out);
      return;
    case Op::kConcat: {
      int64_t offset = 0;
      for (size_t p = 0; p < in.count; ++p) {
        const float* src = in[p];
        const int64_t ext = d.extents != nullptr ? d.extents[p] : 1;
        for (int64_t ou = 0; ou < d.outer; ++ou) {
          std::copy(&src[ou * ext * d.inner], &src[(ou + 1) * ext * d.inner],
                    &out[(ou * d.extent + offset) * d.inner]);
        }
        offset += ext;
      }
      return;
    }
    case Op::kSlice:
      for (int64_t ou = 0; ou < d.outer; ++ou) {
        const float* src = &in[0][(ou * d.extent + d.start) * d.inner];
        std::copy(src, src + d.m * d.inner, &out[ou * d.m * d.inner]);
      }
      return;
    case Op::kRandn:
      for (int64_t i = 0; i < d.n; ++i) out[i] = rng->Normal(0.0f, d.f0);
      return;
    case Op::kRand:
      for (int64_t i = 0; i < d.n; ++i) out[i] = rng->Uniform(d.f0, d.f1);
      return;
    case Op::kPlanGemm:
      return kernels::PlanGemm(d.m, d.n, d.k, in[0], d.packed[0], d.k2,
                               in.count > 1 ? in[1] : nullptr, d.packed[1],
                               d.packed[2], static_cast<kernels::PlanAct>(d.code),
                               out, d.gpath);
    case Op::kLstmCH:
      return kernels::LstmCellForwardCH(in[0], in[1], d.m, d.n, out, out2);
    case Op::kScaledSoftmax:
      return kernels::ScaledMaskedSoftmaxRows(
          in[0], in.count > 1 ? in[1] : nullptr, d.f0, d.f1, d.m, d.n, out);
    case Op::kLayerNorm:
      return kernels::LayerNormRows(in[0], d.m, d.n, d.f0, out);
  }
}

}  // namespace plan

namespace ops {

namespace {

using internal::GradNode;
using internal::TensorImpl;
using plan::Bin;
using plan::Op;
using plan::OpDesc;
using plan::Un;

using Impl = std::shared_ptr<TensorImpl>;

bool TrackAny(std::initializer_list<const Tensor*> tensors) {
  for (const Tensor* t : tensors) {
    if (t->needs_grad()) return true;
  }
  return false;
}

/// Allocates the op output from the buffer pool and, when track is set AND
/// GradMode is enabled, attaches the GradNode. This is the single point where
/// ops record the reverse-mode graph: under NoGradGuard no GradNode, parent
/// list, or type-erased backward closure is ever allocated, the inputs are
/// not retained (so intermediates return to the buffer pool as soon as their
/// handle dies), and the result is flagged so a stray Backward() fails
/// loudly. The returned buffer has UNSPECIFIED contents: every op's forward
/// pass fully overwrites its output (MatMul and friends write through
/// kernels::Gemm, which handles its own beta=0), so the zero-fill the old
/// allocator paid per op is gone.
template <typename MakeInputs, typename Backward>
Tensor MakeOutputCore(const Shape& shape, MakeInputs make_inputs, const char* name,
                      Backward&& backward, bool track) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->data = internal::AcquireBuffer(NumElements(shape));
  if (track) {
    if (GradMode::IsEnabled()) {
      auto node = std::make_shared<GradNode>();
      node->inputs = make_inputs();
      node->op_name = name;
      node->backward = std::forward<Backward>(backward);
      impl->grad_fn = std::move(node);
    } else {
      impl->no_grad_result = true;
    }
  }
  // Balance counter for plan capture: every op output must be matched by a
  // plan::Forward call, or the capture aborts to eager (see plan.h).
  plan::NoteOpOutput(track);
  return Tensor::FromImpl(std::move(impl));
}

template <typename Backward>
Tensor MakeOutput(const Shape& shape, std::initializer_list<Impl> inputs,
                  const char* name, Backward&& backward, bool track) {
  return MakeOutputCore(
      shape, [&] { return std::vector<Impl>(inputs); }, name,
      std::forward<Backward>(backward), track);
}

template <typename Backward>
Tensor MakeOutput(const Shape& shape, std::vector<Impl> inputs, const char* name,
                  Backward&& backward, bool track) {
  return MakeOutputCore(
      shape, [&] { return std::move(inputs); }, name,
      std::forward<Backward>(backward), track);
}

OpDesc Desc(Op kind, int code = 0) {
  OpDesc d;
  d.kind = kind;
  d.code = code;
  return d;
}

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  ADAPTRAJ_CHECK_MSG(a.shape() == b.shape(), op << ": shape mismatch "
                                                << ShapeToString(a.shape()) << " vs "
                                                << ShapeToString(b.shape()));
}

void CheckBroadcastable(const Tensor& a, const Tensor& b, const char* op) {
  ADAPTRAJ_CHECK_MSG(a.dim() == b.dim(), op << ": rank mismatch " << ShapeToString(a.shape())
                                            << " vs " << ShapeToString(b.shape()));
  ADAPTRAJ_CHECK_MSG(a.dim() <= plan::kMaxRank,
                     op << ": rank " << a.dim() << " above " << plan::kMaxRank);
  for (int d = 0; d < a.dim(); ++d) {
    ADAPTRAJ_CHECK_MSG(b.shape()[d] == a.shape()[d] || b.shape()[d] == 1,
                       op << ": dim " << d << " of " << ShapeToString(b.shape())
                          << " not broadcastable to " << ShapeToString(a.shape()));
  }
}

int NormalizeAxis(int axis, int rank) {
  if (axis < 0) axis += rank;
  ADAPTRAJ_CHECK_MSG(axis >= 0 && axis < rank, "axis " << axis << " out of range for rank "
                                                       << rank);
  return axis;
}

/// Generic elementwise binary op over equal shapes. Backward accumulates
/// straight into the inputs' gradient buffers — no scratch allocation.
template <typename Bwd>
Tensor ElementwiseBinary(const Tensor& a, const Tensor& b, const char* name, Bin code,
                         Bwd bwd) {
  CheckSameShape(a, b, name);
  bool track = TrackAny({&a, &b});
  Impl ia = a.impl();
  Impl ib = b.impl();
  Tensor out = MakeOutput(
      a.shape(), {ia, ib}, name,
      [ia, ib, bwd](TensorImpl& o) {
        const int64_t n = o.size();
        const bool need_a = ia->requires_grad || ia->grad_fn != nullptr;
        const bool need_b = ib->requires_grad || ib->grad_fn != nullptr;
        if (need_a) ia->EnsureGrad();
        if (need_b) ib->EnsureGrad();
        float* ga = need_a ? ia->grad.data() : nullptr;
        float* gb = need_b ? ib->grad.data() : nullptr;
        const float* xa = ia->data.data();
        const float* xb = ib->data.data();
        const float* gy = o.grad.data();
        for (int64_t i = 0; i < n; ++i) {
          float da = 0.0f;
          float db = 0.0f;
          bwd(xa[i], xb[i], gy[i], &da, &db);
          if (ga != nullptr) ga[i] += da;
          if (gb != nullptr) gb[i] += db;
        }
      },
      track);
  OpDesc d = Desc(Op::kBinary, static_cast<int>(code));
  d.n = out.size();
  plan::Forward(d, {&a, &b}, out);
  return out;
}

/// Generic elementwise unary op with scalar operands p0, p1; bwd receives
/// (x, y, dy) and returns dx.
template <typename Bwd>
Tensor ElementwiseUnary(const Tensor& a, const char* name, Un code, Bwd bwd,
                        float p0 = 0.0f, float p1 = 0.0f) {
  bool track = a.needs_grad();
  Impl ia = a.impl();
  Tensor out = MakeOutput(
      a.shape(), {ia}, name,
      [ia, bwd](TensorImpl& o) {
        const int64_t n = o.size();
        ia->EnsureGrad();
        float* ga = ia->grad.data();
        const float* x = ia->data.data();
        const float* y = o.data.data();
        const float* gy = o.grad.data();
        for (int64_t i = 0; i < n; ++i) ga[i] += bwd(x[i], y[i], gy[i]);
      },
      track);
  OpDesc d = Desc(Op::kUnary, static_cast<int>(code));
  d.n = out.size();
  d.f0 = p0;
  d.f1 = p1;
  plan::Forward(d, {&a}, out);
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(
      a, b, "Add", Bin::kAdd,
      [](float, float, float dy, float* da, float* db) {
        *da = dy;
        *db = dy;
      });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(
      a, b, "Sub", Bin::kSub,
      [](float, float, float dy, float* da, float* db) {
        *da = dy;
        *db = -dy;
      });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(
      a, b, "Mul", Bin::kMul,
      [](float x, float y, float dy, float* da, float* db) {
        *da = dy * y;
        *db = dy * x;
      });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(
      a, b, "Div", Bin::kDiv,
      [](float x, float y, float dy, float* da, float* db) {
        *da = dy / y;
        *db = -dy * x / (y * y);
      });
}

namespace {

template <typename BwdA, typename BwdB>
Tensor BroadcastBinary(const Tensor& a, const Tensor& b, const char* name, Bin code,
                       BwdA bwd_a, BwdB bwd_b) {
  CheckBroadcastable(a, b, name);
  bool track = TrackAny({&a, &b});
  Impl ia = a.impl();
  Impl ib = b.impl();
  OpDesc d = Desc(Op::kBroadcast, static_cast<int>(code));
  d.rank = a.dim();
  std::copy(a.shape().begin(), a.shape().end(), d.shape);
  std::copy(b.shape().begin(), b.shape().end(), d.b_shape);
  Tensor out = MakeOutput(
      a.shape(), {ia, ib}, name,
      [ia, ib, d, bwd_a, bwd_b](TensorImpl& o) {
        const int64_t n = o.size();
        const bool need_a = ia->requires_grad || ia->grad_fn != nullptr;
        const bool need_b = ib->requires_grad || ib->grad_fn != nullptr;
        if (need_a) ia->EnsureGrad();
        if (need_b) ib->EnsureGrad();
        float* ga = need_a ? ia->grad.data() : nullptr;
        float* gb = need_b ? ib->grad.data() : nullptr;
        // Serial: gb is a scatter-accumulation across broadcast positions.
        BroadcastCursor cur(d.rank, d.shape, d.b_shape);
        for (int64_t i = 0; i < n; ++i, cur.Advance()) {
          const int64_t j = cur.offset();
          if (ga != nullptr) ga[i] += bwd_a(ia->data[i], ib->data[j], o.grad[i]);
          if (gb != nullptr) gb[j] += bwd_b(ia->data[i], ib->data[j], o.grad[i]);
        }
      },
      track);
  d.n = out.size();
  plan::Forward(d, {&a, &b}, out);
  return out;
}

}  // namespace

Tensor BroadcastAdd(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(
      a, b, "BroadcastAdd", Bin::kAdd, [](float, float, float dy) { return dy; },
      [](float, float, float dy) { return dy; });
}

Tensor BroadcastMul(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(
      a, b, "BroadcastMul", Bin::kMul, [](float, float y, float dy) { return dy * y; },
      [](float x, float, float dy) { return dy * x; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return ElementwiseUnary(
      a, "AddScalar", Un::kAddScalar, [](float, float, float dy) { return dy; }, s);
}

Tensor MulScalar(const Tensor& a, float s) {
  return ElementwiseUnary(
      a, "MulScalar", Un::kMulScalar, [s](float, float, float dy) { return dy * s; }, s);
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor MatMul(const Tensor& a, const Tensor& b) {
  ADAPTRAJ_CHECK_MSG(a.dim() == 2 && b.dim() == 2,
                     "MatMul requires 2-D operands; got " << ShapeToString(a.shape())
                                                          << " x " << ShapeToString(b.shape()));
  const int64_t m = a.shape()[0];
  const int64_t k = a.shape()[1];
  const int64_t n = b.shape()[1];
  ADAPTRAJ_CHECK_MSG(b.shape()[0] == k, "MatMul inner dims differ: "
                                            << ShapeToString(a.shape()) << " x "
                                            << ShapeToString(b.shape()));
  bool track = TrackAny({&a, &b});
  Impl ia = a.impl();
  Impl ib = b.impl();
  Tensor out = MakeOutput(
      {m, n}, {ia, ib}, "MatMul",
      [ia, ib, m, k, n](TensorImpl& o) {
        const float* gy = o.grad.data();
        if (ia->requires_grad || ia->grad_fn) {
          // dA[m,k] += dY[m,n] · Bᵀ — straight into the gradient buffer.
          ia->EnsureGrad();
          kernels::Gemm(/*trans_a=*/false, /*trans_b=*/true, m, k, n, gy,
                        ib->data.data(), ia->grad.data(), /*accumulate=*/true);
        }
        if (ib->requires_grad || ib->grad_fn) {
          // dB[k,n] += Aᵀ · dY[m,n].
          ib->EnsureGrad();
          kernels::Gemm(/*trans_a=*/true, /*trans_b=*/false, k, n, m,
                        ia->data.data(), gy, ib->grad.data(), /*accumulate=*/true);
        }
      },
      track);
  OpDesc d = Desc(Op::kMatMul);
  d.m = m;
  d.n = n;
  d.k = k;
  plan::Forward(d, {&a, &b}, out);
  return out;
}

Tensor BatchMatMul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  ADAPTRAJ_CHECK_MSG(a.dim() == 3 && b.dim() == 3,
                     "BatchMatMul requires 3-D operands; got "
                         << ShapeToString(a.shape()) << " x " << ShapeToString(b.shape()));
  const int64_t batch = a.shape()[0];
  const int64_t m = trans_a ? a.shape()[2] : a.shape()[1];
  const int64_t ka = trans_a ? a.shape()[1] : a.shape()[2];
  const int64_t kb = trans_b ? b.shape()[2] : b.shape()[1];
  const int64_t n = trans_b ? b.shape()[1] : b.shape()[2];
  ADAPTRAJ_CHECK_MSG(b.shape()[0] == batch,
                     "BatchMatMul batch extents differ: " << ShapeToString(a.shape())
                                                          << " x " << ShapeToString(b.shape()));
  ADAPTRAJ_CHECK_MSG(ka == kb, "BatchMatMul inner dims differ: "
                                   << ShapeToString(a.shape()) << " x "
                                   << ShapeToString(b.shape()) << " (trans_a=" << trans_a
                                   << ", trans_b=" << trans_b << ")");
  const int64_t k = ka;
  bool track = TrackAny({&a, &b});
  Impl ia = a.impl();
  Impl ib = b.impl();
  Tensor out = MakeOutput(
      {batch, m, n}, {ia, ib}, "BatchMatMul",
      [ia, ib, batch, m, k, n, trans_a, trans_b](TensorImpl& o) {
        const float* gy = o.grad.data();
        const float* pa = ia->data.data();
        const float* pb = ib->data.data();
        if (ia->requires_grad || ia->grad_fn) {
          ia->EnsureGrad();
          float* ga = ia->grad.data();
          // dA per slice, accumulated straight into gradient storage. Shapes
          // follow from Y = op(A)·op(B): e.g. for the plain case
          // dA[m,k] += dY·Bᵀ; transposed layouts fold into BatchGemm flags.
          if (!trans_a && !trans_b) {
            kernels::BatchGemm(false, true, batch, m, k, n, gy, pb, ga, true);
          } else if (!trans_a && trans_b) {
            // A[m,k], B[n,k]: dA += dY·B.
            kernels::BatchGemm(false, false, batch, m, k, n, gy, pb, ga, true);
          } else if (trans_a && !trans_b) {
            // A[k,m], B[k,n]: dA += B·dYᵀ.
            kernels::BatchGemm(false, true, batch, k, m, n, pb, gy, ga, true);
          } else {
            // A[k,m], B[n,k]: dA += Bᵀ·dYᵀ.
            kernels::BatchGemm(true, true, batch, k, m, n, pb, gy, ga, true);
          }
        }
        if (ib->requires_grad || ib->grad_fn) {
          ib->EnsureGrad();
          float* gb = ib->grad.data();
          if (!trans_a && !trans_b) {
            // dB[k,n] += Aᵀ·dY.
            kernels::BatchGemm(true, false, batch, k, n, m, pa, gy, gb, true);
          } else if (!trans_a && trans_b) {
            // B[n,k]: dB += dYᵀ·A.
            kernels::BatchGemm(true, false, batch, n, k, m, gy, pa, gb, true);
          } else if (trans_a && !trans_b) {
            // A[k,m]: dB += A·dY.
            kernels::BatchGemm(false, false, batch, k, n, m, pa, gy, gb, true);
          } else {
            // A[k,m], B[n,k]: dB += dYᵀ·Aᵀ.
            kernels::BatchGemm(true, true, batch, n, k, m, gy, pa, gb, true);
          }
        }
      },
      track);
  OpDesc d = Desc(Op::kBatchMatMul);
  d.outer = batch;
  d.m = m;
  d.n = n;
  d.k = k;
  d.flag_a = trans_a;
  d.flag_b = trans_b;
  plan::Forward(d, {&a, &b}, out);
  return out;
}

namespace {

/// Shared core of AddMatMul / LinearGates: a·wa + b·wb (+ bias).
Tensor FusedAddMatMul(const Tensor& a, const Tensor& wa, const Tensor& b,
                      const Tensor& wb, const Tensor* bias, const char* name) {
  ADAPTRAJ_CHECK_MSG(a.dim() == 2 && wa.dim() == 2 && b.dim() == 2 && wb.dim() == 2,
                     name << " requires 2-D operands");
  const int64_t rows = a.shape()[0];
  const int64_t ka = a.shape()[1];
  const int64_t kb = b.shape()[1];
  const int64_t cols = wa.shape()[1];
  ADAPTRAJ_CHECK_MSG(wa.shape()[0] == ka, name << ": a/wa inner dims differ: "
                                               << ShapeToString(a.shape()) << " x "
                                               << ShapeToString(wa.shape()));
  ADAPTRAJ_CHECK_MSG(wb.shape()[0] == kb && wb.shape()[1] == cols,
                     name << ": b/wb dims differ: " << ShapeToString(b.shape()) << " x "
                          << ShapeToString(wb.shape()));
  ADAPTRAJ_CHECK_MSG(b.shape()[0] == rows, name << ": row counts differ: "
                                                << ShapeToString(a.shape()) << " vs "
                                                << ShapeToString(b.shape()));
  if (bias != nullptr) {
    ADAPTRAJ_CHECK_MSG(bias->dim() == 2 && bias->shape()[0] == 1 &&
                           bias->shape()[1] == cols,
                       name << ": bias must be [1, " << cols << "]; got "
                            << ShapeToString(bias->shape()));
  }

  bool track = TrackAny({&a, &wa, &b, &wb}) || (bias != nullptr && bias->needs_grad());
  Impl ia = a.impl();
  Impl iwa = wa.impl();
  Impl ib = b.impl();
  Impl iwb = wb.impl();
  Impl ibias = bias != nullptr ? bias->impl() : nullptr;
  std::vector<Impl> inputs = {ia, iwa, ib, iwb};
  if (ibias != nullptr) inputs.push_back(ibias);

  Tensor out = MakeOutput(
      {rows, cols}, std::move(inputs), name,
      [ia, iwa, ib, iwb, ibias, rows, ka, kb, cols](TensorImpl& o) {
        const float* gy = o.grad.data();
        if (ia->requires_grad || ia->grad_fn) {
          ia->EnsureGrad();
          kernels::Gemm(false, true, rows, ka, cols, gy, iwa->data.data(),
                        ia->grad.data(), true);
        }
        if (iwa->requires_grad || iwa->grad_fn) {
          iwa->EnsureGrad();
          kernels::Gemm(true, false, ka, cols, rows, ia->data.data(), gy,
                        iwa->grad.data(), true);
        }
        if (ib->requires_grad || ib->grad_fn) {
          ib->EnsureGrad();
          kernels::Gemm(false, true, rows, kb, cols, gy, iwb->data.data(),
                        ib->grad.data(), true);
        }
        if (iwb->requires_grad || iwb->grad_fn) {
          iwb->EnsureGrad();
          kernels::Gemm(true, false, kb, cols, rows, ib->data.data(), gy,
                        iwb->grad.data(), true);
        }
        if (ibias != nullptr && (ibias->requires_grad || ibias->grad_fn)) {
          ibias->EnsureGrad();
          kernels::AccumulateColumnSum(gy, rows, cols, ibias->grad.data());
        }
      },
      track);
  OpDesc d = Desc(Op::kDualMatMul);
  d.m = rows;
  d.n = cols;
  d.k = ka;
  d.k2 = kb;
  if (bias != nullptr) {
    plan::Forward(d, {&a, &wa, &b, &wb, bias}, out);
  } else {
    plan::Forward(d, {&a, &wa, &b, &wb}, out);
  }
  return out;
}

}  // namespace

Tensor Affine(const Tensor& a, const Tensor& w, const Tensor& bias) {
  ADAPTRAJ_CHECK_MSG(a.dim() == 2 && w.dim() == 2, "Affine requires 2-D operands");
  const int64_t rows = a.shape()[0];
  const int64_t k = a.shape()[1];
  const int64_t cols = w.shape()[1];
  ADAPTRAJ_CHECK_MSG(w.shape()[0] == k, "Affine: inner dims differ: "
                                            << ShapeToString(a.shape()) << " x "
                                            << ShapeToString(w.shape()));
  ADAPTRAJ_CHECK_MSG(bias.dim() == 2 && bias.shape()[0] == 1 && bias.shape()[1] == cols,
                     "Affine: bias must be [1, " << cols << "]; got "
                                                 << ShapeToString(bias.shape()));
  bool track = TrackAny({&a, &w, &bias});
  Impl ia = a.impl();
  Impl iw = w.impl();
  Impl ib = bias.impl();
  Tensor out = MakeOutput(
      {rows, cols}, {ia, iw, ib}, "Affine",
      [ia, iw, ib, rows, k, cols](TensorImpl& o) {
        const float* gy = o.grad.data();
        if (ia->requires_grad || ia->grad_fn) {
          ia->EnsureGrad();
          kernels::Gemm(false, true, rows, k, cols, gy, iw->data.data(),
                        ia->grad.data(), true);
        }
        if (iw->requires_grad || iw->grad_fn) {
          iw->EnsureGrad();
          kernels::Gemm(true, false, k, cols, rows, ia->data.data(), gy,
                        iw->grad.data(), true);
        }
        if (ib->requires_grad || ib->grad_fn) {
          ib->EnsureGrad();
          kernels::AccumulateColumnSum(gy, rows, cols, ib->grad.data());
        }
      },
      track);
  OpDesc d = Desc(Op::kAffine);
  d.m = rows;
  d.n = cols;
  d.k = k;
  plan::Forward(d, {&a, &w, &bias}, out);
  return out;
}

Tensor AddMatMul(const Tensor& a, const Tensor& wa, const Tensor& b,
                 const Tensor& wb) {
  return FusedAddMatMul(a, wa, b, wb, /*bias=*/nullptr, "AddMatMul");
}

Tensor LinearGates(const Tensor& x, const Tensor& w_x, const Tensor& h,
                   const Tensor& w_h, const Tensor& bias) {
  return FusedAddMatMul(x, w_x, h, w_h, &bias, "LinearGates");
}

Tensor LstmCellC(const Tensor& gates, const Tensor& c_prev) {
  ADAPTRAJ_CHECK_MSG(gates.dim() == 2 && c_prev.dim() == 2,
                     "LstmCellC requires 2-D operands");
  const int64_t batch = gates.shape()[0];
  const int64_t hidden = c_prev.shape()[1];
  ADAPTRAJ_CHECK_MSG(gates.shape()[1] == 4 * hidden && c_prev.shape()[0] == batch,
                     "LstmCellC: gates " << ShapeToString(gates.shape())
                                         << " vs c_prev " << ShapeToString(c_prev.shape()));
  bool track = TrackAny({&gates, &c_prev});
  Impl ig = gates.impl();
  Impl ic = c_prev.impl();
  Tensor out = MakeOutput(
      {batch, hidden}, {ig, ic}, "LstmCellC",
      [ig, ic, batch, hidden](TensorImpl& o) {
        const bool need_g = ig->requires_grad || ig->grad_fn != nullptr;
        const bool need_c = ic->requires_grad || ic->grad_fn != nullptr;
        if (need_g) ig->EnsureGrad();
        if (need_c) ic->EnsureGrad();
        kernels::LstmCellBackwardC(ig->data.data(), ic->data.data(), o.grad.data(),
                                   batch, hidden,
                                   need_g ? ig->grad.data() : nullptr,
                                   need_c ? ic->grad.data() : nullptr);
      },
      track);
  OpDesc d = Desc(Op::kLstmC);
  d.m = batch;
  d.n = hidden;
  plan::Forward(d, {&gates, &c_prev}, out);
  return out;
}

Tensor LstmCellH(const Tensor& gates, const Tensor& c_next) {
  ADAPTRAJ_CHECK_MSG(gates.dim() == 2 && c_next.dim() == 2,
                     "LstmCellH requires 2-D operands");
  const int64_t batch = gates.shape()[0];
  const int64_t hidden = c_next.shape()[1];
  ADAPTRAJ_CHECK_MSG(gates.shape()[1] == 4 * hidden && c_next.shape()[0] == batch,
                     "LstmCellH: gates " << ShapeToString(gates.shape())
                                         << " vs c_next " << ShapeToString(c_next.shape()));
  bool track = TrackAny({&gates, &c_next});
  Impl ig = gates.impl();
  Impl ic = c_next.impl();
  Tensor out = MakeOutput(
      {batch, hidden}, {ig, ic}, "LstmCellH",
      [ig, ic, batch, hidden](TensorImpl& o) {
        const bool need_g = ig->requires_grad || ig->grad_fn != nullptr;
        const bool need_c = ic->requires_grad || ic->grad_fn != nullptr;
        if (need_g) ig->EnsureGrad();
        if (need_c) ic->EnsureGrad();
        kernels::LstmCellBackwardH(ig->data.data(), ic->data.data(), o.grad.data(),
                                   batch, hidden,
                                   need_g ? ig->grad.data() : nullptr,
                                   need_c ? ic->grad.data() : nullptr);
      },
      track);
  OpDesc d = Desc(Op::kLstmH);
  d.m = batch;
  d.n = hidden;
  plan::Forward(d, {&gates, &c_next}, out);
  return out;
}

Tensor Transpose(const Tensor& a) {
  ADAPTRAJ_CHECK_MSG(a.dim() == 2, "Transpose requires 2-D; got " << ShapeToString(a.shape()));
  const int64_t m = a.shape()[0];
  const int64_t n = a.shape()[1];
  bool track = a.needs_grad();
  Impl ia = a.impl();
  Tensor out = MakeOutput(
      {n, m}, {ia}, "Transpose",
      [ia, m, n](TensorImpl& o) {
        ia->EnsureGrad();
        float* ga = ia->grad.data();
        const float* gy = o.grad.data();
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < n; ++j) ga[i * n + j] += gy[j * m + i];
        }
      },
      track);
  OpDesc d = Desc(Op::kTranspose);
  d.m = m;
  d.n = n;
  plan::Forward(d, {&a}, out);
  return out;
}

Tensor Relu(const Tensor& a) {
  return ElementwiseUnary(a, "Relu", Un::kRelu,
                          [](float x, float, float dy) { return x > 0.0f ? dy : 0.0f; });
}

// Tanh/Sigmoid/Exp forwards run through the kernels-layer transcendentals
// (SIMD approximations with an accuracy-gated scalar fallback); the backward
// forms only need the saved output y, so they stay scalar arithmetic.

Tensor Tanh(const Tensor& a) {
  return ElementwiseUnary(a, "Tanh", Un::kTanh,
                          [](float, float y, float dy) { return dy * (1.0f - y * y); });
}

Tensor Sigmoid(const Tensor& a) {
  return ElementwiseUnary(a, "Sigmoid", Un::kSigmoid,
                          [](float, float y, float dy) { return dy * y * (1.0f - y); });
}

Tensor Exp(const Tensor& a) {
  return ElementwiseUnary(a, "Exp", Un::kExp,
                          [](float, float y, float dy) { return dy * y; });
}

Tensor LogClamped(const Tensor& a, float eps) {
  return ElementwiseUnary(
      a, "LogClamped", Un::kLogClamped,
      [eps](float x, float, float dy) { return dy / std::max(x, eps); }, eps);
}

Tensor Square(const Tensor& a) {
  return ElementwiseUnary(a, "Square", Un::kSquare,
                          [](float x, float, float dy) { return dy * 2.0f * x; });
}

Tensor Sqrt(const Tensor& a, float eps) {
  return ElementwiseUnary(
      a, "Sqrt", Un::kSqrt,
      [eps](float, float y, float dy) { return dy * 0.5f / std::max(y, eps); });
}

Tensor Abs(const Tensor& a) {
  return ElementwiseUnary(a, "Abs", Un::kAbs, [](float x, float, float dy) {
    return x > 0.0f ? dy : (x < 0.0f ? -dy : 0.0f);
  });
}

Tensor Clamp(const Tensor& a, float lo, float hi) {
  ADAPTRAJ_CHECK_MSG(lo <= hi, "Clamp: lo > hi");
  return ElementwiseUnary(
      a, "Clamp", Un::kClamp,
      [lo, hi](float x, float, float dy) { return (x >= lo && x <= hi) ? dy : 0.0f; }, lo,
      hi);
}

Tensor Sum(const Tensor& a) {
  bool track = a.needs_grad();
  Impl ia = a.impl();
  Tensor out = MakeOutput(
      {1}, {ia}, "Sum",
      [ia](TensorImpl& o) {
        ia->EnsureGrad();
        const float g = o.grad[0];
        float* ga = ia->grad.data();
        const int64_t n = ia->size();
        for (int64_t i = 0; i < n; ++i) ga[i] += g;
      },
      track);
  // Eight independent accumulation chains combined in a fixed order: the
  // striping depends only on the element count, so the reduction stays
  // deterministic while breaking the add-latency dependency of a single
  // serial chain (and vectorizing to packed double adds).
  double acc[8] = {0.0};
  const float* pa = a.data();
  const int64_t size = a.size();
  const int64_t main = size & ~int64_t{7};
  for (int64_t i = 0; i < main; i += 8) {
    for (int j = 0; j < 8; ++j) acc[j] += pa[i + j];
  }
  for (int64_t i = main; i < size; ++i) acc[i - main] += pa[i];
  const double total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
                       ((acc[4] + acc[5]) + (acc[6] + acc[7]));
  out.data()[0] = static_cast<float>(total);
  return out;
}

Tensor Mean(const Tensor& a) {
  ADAPTRAJ_CHECK_MSG(a.size() > 0, "Mean of empty tensor");
  return MulScalar(Sum(a), 1.0f / static_cast<float>(a.size()));
}

namespace {

Tensor ReduceAxis(const Tensor& a, int axis, bool keepdim, bool mean, const char* name) {
  axis = NormalizeAxis(axis, a.dim());
  const Shape& in = a.shape();
  Shape out_shape;
  for (int d = 0; d < a.dim(); ++d) {
    if (d == axis) {
      if (keepdim) out_shape.push_back(1);
    } else {
      out_shape.push_back(in[d]);
    }
  }
  if (out_shape.empty()) out_shape.push_back(1);
  int64_t outer = 1;
  int64_t inner = 1;
  for (int d = 0; d < axis; ++d) outer *= in[d];
  for (int d = axis + 1; d < a.dim(); ++d) inner *= in[d];
  const int64_t extent = in[axis];
  const float scale = mean ? 1.0f / static_cast<float>(extent) : 1.0f;

  bool track = a.needs_grad();
  Impl ia = a.impl();
  Tensor out = MakeOutput(
      out_shape, {ia}, name,
      [ia, outer, inner, extent, scale](TensorImpl& o) {
        ia->EnsureGrad();
        float* ga = ia->grad.data();
        const float* gy = o.grad.data();
        for (int64_t ou = 0; ou < outer; ++ou) {
          for (int64_t e = 0; e < extent; ++e) {
            for (int64_t iin = 0; iin < inner; ++iin) {
              ga[(ou * extent + e) * inner + iin] += gy[ou * inner + iin] * scale;
            }
          }
        }
      },
      track);
  OpDesc d = Desc(Op::kReduce);
  d.outer = outer;
  d.extent = extent;
  d.inner = inner;
  d.f0 = scale;
  d.flag_a = mean;
  plan::Forward(d, {&a}, out);
  return out;
}

}  // namespace

Tensor SumAxis(const Tensor& a, int axis, bool keepdim) {
  return ReduceAxis(a, axis, keepdim, /*mean=*/false, "SumAxis");
}

Tensor MeanAxis(const Tensor& a, int axis, bool keepdim) {
  return ReduceAxis(a, axis, keepdim, /*mean=*/true, "MeanAxis");
}

Tensor MaxAxis(const Tensor& a, int axis, bool keepdim) {
  axis = NormalizeAxis(axis, a.dim());
  const Shape& in = a.shape();
  ADAPTRAJ_CHECK_MSG(in[axis] > 0, "MaxAxis over empty axis");
  Shape out_shape;
  for (int d = 0; d < a.dim(); ++d) {
    if (d == axis) {
      if (keepdim) out_shape.push_back(1);
    } else {
      out_shape.push_back(in[d]);
    }
  }
  if (out_shape.empty()) out_shape.push_back(1);
  int64_t outer = 1;
  int64_t inner = 1;
  for (int d = 0; d < axis; ++d) outer *= in[d];
  for (int d = axis + 1; d < a.dim(); ++d) inner *= in[d];
  const int64_t extent = in[axis];

  bool track = a.needs_grad();
  Impl ia = a.impl();
  Tensor out = MakeOutput(
      out_shape, {ia}, "MaxAxis",
      [ia, outer, inner, extent](TensorImpl& o) {
        // The backward rescans the retained input for the argmax, so the
        // forward stores no positions.
        ia->EnsureGrad();
        float* ga = ia->grad.data();
        const float* gy = o.grad.data();
        for (int64_t ou = 0; ou < outer; ++ou) {
          for (int64_t iin = 0; iin < inner; ++iin) {
            const int64_t base = ou * extent * inner + iin;
            const int64_t best = ArgMax(ia->data.data() + base, extent, inner);
            ga[base + best * inner] += gy[ou * inner + iin];
          }
        }
      },
      track);
  OpDesc d = Desc(Op::kMaxAxis);
  d.outer = outer;
  d.extent = extent;
  d.inner = inner;
  plan::Forward(d, {&a}, out);
  return out;
}

Tensor Softmax(const Tensor& a) {
  ADAPTRAJ_CHECK_MSG(a.dim() >= 1, "Softmax on scalar-rank tensor");
  const int64_t cols = a.shape().back();
  // A zero-width last axis has no rows to normalize: the result is empty.
  const int64_t rows = cols == 0 ? 0 : a.size() / cols;
  bool track = a.needs_grad();
  Impl ia = a.impl();
  Tensor out = MakeOutput(
      a.shape(), {ia}, "Softmax",
      [ia, rows, cols](TensorImpl& o) {
        ia->EnsureGrad();
        float* ga = ia->grad.data();
        const float* yd = o.data.data();
        const float* gyd = o.grad.data();
        for (int64_t r = 0; r < rows; ++r) {
          const float* y = yd + r * cols;
          const float* dy = gyd + r * cols;
          double dot = 0.0;
          for (int64_t c = 0; c < cols; ++c) dot += static_cast<double>(dy[c]) * y[c];
          float* g = ga + r * cols;
          for (int64_t c = 0; c < cols; ++c) {
            g[c] += y[c] * (dy[c] - static_cast<float>(dot));
          }
        }
      },
      track);
  OpDesc d = Desc(Op::kSoftmax);
  d.m = rows;
  d.n = cols;
  plan::Forward(d, {&a}, out);
  return out;
}

Tensor LogSoftmax(const Tensor& a) {
  ADAPTRAJ_CHECK_MSG(a.dim() >= 1, "LogSoftmax on scalar-rank tensor");
  const int64_t cols = a.shape().back();
  // A zero-width last axis has no rows to normalize: the result is empty.
  const int64_t rows = cols == 0 ? 0 : a.size() / cols;
  bool track = a.needs_grad();
  Impl ia = a.impl();
  Tensor out = MakeOutput(
      a.shape(), {ia}, "LogSoftmax",
      [ia, rows, cols](TensorImpl& o) {
        ia->EnsureGrad();
        float* ga = ia->grad.data();
        const float* yd = o.data.data();
        const float* gyd = o.grad.data();
        for (int64_t r = 0; r < rows; ++r) {
          const float* y = yd + r * cols;
          const float* dy = gyd + r * cols;
          double sum_dy = 0.0;
          for (int64_t c = 0; c < cols; ++c) sum_dy += dy[c];
          float* g = ga + r * cols;
          for (int64_t c = 0; c < cols; ++c) {
            g[c] += dy[c] - std::exp(y[c]) * static_cast<float>(sum_dy);
          }
        }
      },
      track);
  float* po = out.data();
  const float* pa = a.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* x = &pa[r * cols];
    float* y = &po[r * cols];
    float mx = x[0];
    for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, x[c]);
    double denom = 0.0;
    for (int64_t c = 0; c < cols; ++c) denom += std::exp(x[c] - mx);
    const float lse = mx + static_cast<float>(std::log(denom));
    for (int64_t c = 0; c < cols; ++c) y[c] = x[c] - lse;
  }
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int axis) {
  ADAPTRAJ_CHECK_MSG(!parts.empty(), "Concat of zero tensors");
  const int rank = parts[0].dim();
  axis = NormalizeAxis(axis, rank);
  Shape out_shape = parts[0].shape();
  int64_t axis_total = 0;
  for (const Tensor& t : parts) {
    ADAPTRAJ_CHECK_EQ(t.dim(), rank);
    for (int d = 0; d < rank; ++d) {
      if (d != axis) {
        ADAPTRAJ_CHECK_MSG(t.shape()[d] == out_shape[d],
                           "Concat: mismatched dim " << d << ": " << ShapeToString(t.shape())
                                                     << " vs " << ShapeToString(out_shape));
      }
    }
    axis_total += t.shape()[axis];
  }
  out_shape[axis] = axis_total;

  int64_t outer = 1;
  int64_t inner = 1;
  for (int d = 0; d < axis; ++d) outer *= out_shape[d];
  for (int d = axis + 1; d < rank; ++d) inner *= out_shape[d];

  bool track = false;
  std::vector<Impl> impls;
  std::vector<int64_t> extents;
  impls.reserve(parts.size());
  for (const Tensor& t : parts) {
    track = track || t.needs_grad();
    impls.push_back(t.impl());
    extents.push_back(t.shape()[axis]);
  }

  Tensor out = MakeOutput(
      out_shape, impls, "Concat",
      [impls, extents, outer, inner, axis_total](TensorImpl& o) {
        int64_t offset = 0;
        for (size_t p = 0; p < impls.size(); ++p) {
          const Impl& ip = impls[p];
          if (ip->requires_grad || ip->grad_fn) {
            ip->EnsureGrad();
            float* g = ip->grad.data();
            for (int64_t ou = 0; ou < outer; ++ou) {
              const float* src = &o.grad[(ou * axis_total + offset) * inner];
              float* dst = &g[ou * extents[p] * inner];
              const int64_t len = extents[p] * inner;
              for (int64_t i = 0; i < len; ++i) dst[i] += src[i];
            }
          }
          offset += extents[p];
        }
      },
      track);
  OpDesc d = Desc(Op::kConcat);
  d.outer = outer;
  d.extent = axis_total;
  d.inner = inner;
  d.extents = extents.data();
  plan::Forward(d, parts, out);
  return out;
}

Tensor Slice(const Tensor& a, int axis, int64_t start, int64_t end) {
  axis = NormalizeAxis(axis, a.dim());
  const Shape& in = a.shape();
  ADAPTRAJ_CHECK_MSG(start >= 0 && start <= end && end <= in[axis],
                     "Slice range [" << start << ", " << end << ") invalid for axis extent "
                                     << in[axis]);
  Shape out_shape = in;
  out_shape[axis] = end - start;
  int64_t outer = 1;
  int64_t inner = 1;
  for (int d = 0; d < axis; ++d) outer *= in[d];
  for (int d = axis + 1; d < a.dim(); ++d) inner *= in[d];
  const int64_t in_extent = in[axis];
  const int64_t out_extent = end - start;

  bool track = a.needs_grad();
  Impl ia = a.impl();
  Tensor out = MakeOutput(
      out_shape, {ia}, "Slice",
      [ia, outer, inner, in_extent, out_extent, start](TensorImpl& o) {
        ia->EnsureGrad();
        float* ga = ia->grad.data();
        for (int64_t ou = 0; ou < outer; ++ou) {
          const float* src = &o.grad[ou * out_extent * inner];
          float* dst = &ga[(ou * in_extent + start) * inner];
          for (int64_t i = 0; i < out_extent * inner; ++i) dst[i] += src[i];
        }
      },
      track);
  OpDesc d = Desc(Op::kSlice);
  d.outer = outer;
  d.extent = in_extent;
  d.inner = inner;
  d.m = out_extent;
  d.start = start;
  plan::Forward(d, {&a}, out);
  return out;
}

Tensor Stack(const std::vector<Tensor>& parts) {
  ADAPTRAJ_CHECK_MSG(!parts.empty(), "Stack of zero tensors");
  const Shape& base = parts[0].shape();
  for (const Tensor& t : parts) {
    ADAPTRAJ_CHECK_MSG(t.shape() == base, "Stack: mismatched shapes "
                                              << ShapeToString(t.shape()) << " vs "
                                              << ShapeToString(base));
  }
  Shape out_shape;
  out_shape.push_back(static_cast<int64_t>(parts.size()));
  out_shape.insert(out_shape.end(), base.begin(), base.end());

  bool track = false;
  std::vector<Impl> impls;
  for (const Tensor& t : parts) {
    track = track || t.needs_grad();
    impls.push_back(t.impl());
  }
  const int64_t block = NumElements(base);
  Tensor out = MakeOutput(
      out_shape, impls, "Stack",
      [impls, block](TensorImpl& o) {
        for (size_t p = 0; p < impls.size(); ++p) {
          const Impl& ip = impls[p];
          if (ip->requires_grad || ip->grad_fn) {
            ip->AccumulateGrad(&o.grad[p * block], block);
          }
        }
      },
      track);
  // A Concat along a new leading axis: one block of unit extent per part.
  OpDesc d = Desc(Op::kConcat);
  d.outer = 1;
  d.extent = static_cast<int64_t>(parts.size());
  d.inner = block;
  plan::Forward(d, parts, out);
  return out;
}

Tensor Reshape(const Tensor& a, const Shape& shape) {
  ADAPTRAJ_CHECK_MSG(NumElements(shape) == a.size(),
                     "Reshape " << ShapeToString(a.shape()) << " -> " << ShapeToString(shape)
                                << " changes element count");
  bool track = a.needs_grad();
  Impl ia = a.impl();
  Tensor out = MakeOutput(
      shape, {ia}, "Reshape",
      [ia](TensorImpl& o) { ia->AccumulateGrad(o.grad.data(), o.size()); }, track);
  OpDesc d = Desc(Op::kCopy);
  d.n = a.size();
  plan::Forward(d, {&a}, out);
  return out;
}

Tensor GradReverse(const Tensor& a, float lambda) {
  bool track = a.needs_grad();
  Impl ia = a.impl();
  Tensor out = MakeOutput(
      a.shape(), {ia}, "GradReverse",
      [ia, lambda](TensorImpl& o) {
        ia->EnsureGrad();
        float* ga = ia->grad.data();
        const float* gy = o.grad.data();
        const int64_t n = o.size();
        for (int64_t i = 0; i < n; ++i) ga[i] += -lambda * gy[i];
      },
      track);
  OpDesc d = Desc(Op::kCopy);
  d.n = a.size();
  plan::Forward(d, {&a}, out);
  return out;
}

Tensor MaskedFill(const Tensor& a, const Tensor& mask, float value) {
  CheckSameShape(a, mask, "MaskedFill");
  bool track = a.needs_grad();
  Impl ia = a.impl();
  Impl im = mask.impl();
  Tensor out = MakeOutput(
      a.shape(), {ia}, "MaskedFill",
      [ia, im](TensorImpl& o) {
        ia->EnsureGrad();
        float* ga = ia->grad.data();
        const float* gy = o.grad.data();
        const float* pm = im->data.data();
        const int64_t n = o.size();
        for (int64_t i = 0; i < n; ++i) {
          if (pm[i] == 0.0f) ga[i] += gy[i];
        }
      },
      track);
  OpDesc d = Desc(Op::kMaskedFill);
  d.n = a.size();
  d.f0 = value;
  plan::Forward(d, {&a, &mask}, out);
  return out;
}

Tensor NllLoss(const Tensor& log_probs, const std::vector<int>& labels) {
  ADAPTRAJ_CHECK_MSG(log_probs.dim() == 2, "NllLoss expects [B, C] log-probs");
  const int64_t batch = log_probs.shape()[0];
  const int64_t classes = log_probs.shape()[1];
  ADAPTRAJ_CHECK_EQ(batch, static_cast<int64_t>(labels.size()));
  for (int label : labels) {
    ADAPTRAJ_CHECK_MSG(label >= 0 && label < classes, "label " << label << " out of range");
  }
  bool track = log_probs.needs_grad();
  Impl ia = log_probs.impl();
  std::vector<int> labels_copy = labels;
  Tensor out = MakeOutput(
      {1}, {ia}, "NllLoss",
      [ia, labels_copy, batch, classes](TensorImpl& o) {
        ia->EnsureGrad();
        float* ga = ia->grad.data();
        const float scale = o.grad[0] / static_cast<float>(batch);
        for (int64_t b = 0; b < batch; ++b) {
          ga[b * classes + labels_copy[b]] -= scale;
        }
      },
      track);
  double acc = 0.0;
  const float* pa = log_probs.data();
  for (int64_t b = 0; b < batch; ++b) acc -= pa[b * classes + labels[b]];
  out.data()[0] = static_cast<float>(acc / static_cast<double>(batch));
  return out;
}

}  // namespace ops
}  // namespace adaptraj
