#include "batched/batched_blas.hpp"

#include <algorithm>
#include <atomic>
#include <complex>

#include "batched/batch_kernels.hpp"
#include "batched/interleave.hpp"
#include "common/blocking.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/flops.hpp"
#include "common/gemm_kernel.hpp"
#include "common/parallel.hpp"
#include "common/trsm_kernel.hpp"
#include "common/workspace.hpp"
#include "device/device.hpp"

namespace hodlrx {

namespace {

/// The widest compiled lane width (batch_kernels.cpp dispatch table).
constexpr index_t kMaxBatchLanes = 16;

/// Across-batch SIMD eligibility of one batched launch: the resolved width
/// (1 = disabled, the bit-for-bit scalar rung) and enough problems to fill
/// at least one full lane group. Uniform shape is structural for the strided
/// entry points (one m/n/k for the whole batch).
template <typename T>
index_t batch_lanes(index_t batch) {
  const index_t w = resolved_blocking<T>().batch_simd_width;
  return (w > 1 && batch >= w) ? w : 1;
}

/// Below this per-problem work (~32^3 multiply-adds) intra-problem threading
/// costs more in fork/join than it recovers; such problems always run one
/// thread per problem.
constexpr index_t kStreamMinWorkPerProblem = 32 * 32 * 32;

/// Stream mode = sequential problems, each using the whole thread pool.
/// kAuto decides on total work (batch x per-problem work), not batch count
/// alone: a level with few LARGE problems streams (so its kernels stop
/// running single-threaded), while few SMALL problems stay batched (the
/// per-problem fork/join would dominate).
bool use_stream_mode(BatchPolicy policy, index_t batch, index_t total_work) {
  switch (policy) {
    case BatchPolicy::kForceBatched: return false;
    case BatchPolicy::kForceStream: return true;
    case BatchPolicy::kAuto: {
      const index_t nt = max_threads();
      if (nt <= 1) return false;  // nothing to win from intra-problem threads
      if (batch >= nt) return false;  // enough problems to fill the pool
      return total_work / batch >= kStreamMinWorkPerProblem;
    }
  }
  return false;
}

}  // namespace

template <typename T>
void gemm_batched(Op opa, Op opb, T alpha,
                  std::span<const ConstMatrixView<T>> a,
                  std::span<const ConstMatrixView<T>> b, T beta,
                  std::span<const MatrixView<T>> c, BatchPolicy policy) {
  const index_t batch = static_cast<index_t>(c.size());
  HODLRX_REQUIRE(a.size() == c.size() && b.size() == c.size(),
                 "gemm_batched: inconsistent batch sizes");
  if (batch == 0) return;
  DeviceContext::global().record_launch();
  index_t total_work = 0;
  for (index_t i = 0; i < batch; ++i)
    total_work += c[i].rows * c[i].cols * op_cols(opa, a[i]);
  if (use_stream_mode(policy, batch, total_work)) {
    for (index_t i = 0; i < batch; ++i)
      gemm_parallel(opa, opb, alpha, a[i], b[i], beta, c[i]);
  } else {
    parallel_for_static(batch, [&](index_t i) {
      gemm(opa, opb, alpha, a[i], b[i], beta, c[i]);
    });
  }
}

template <typename T>
void gemm_strided_batched(Op opa, Op opb, index_t m, index_t n, index_t k,
                          T alpha, const T* a, index_t lda, index_t stride_a,
                          const T* b, index_t ldb, index_t stride_b, T beta,
                          T* c, index_t ldc, index_t stride_c, index_t batch,
                          BatchPolicy policy) {
  if (batch == 0 || m == 0 || n == 0) return;
  DeviceContext::global().record_launch();
  const index_t ar = (opa == Op::N) ? m : k, ac = (opa == Op::N) ? k : m;
  const index_t br = (opb == Op::N) ? k : n, bc = (opb == Op::N) ? n : k;
  // Shared-operand fast path: a zero stride means every problem in the batch
  // reads the same operand (the paper's constant-rank padding makes this the
  // dominant shape). Pack that operand ONCE per launch and let every problem
  // multiply against the shared pack; only the per-problem operand is packed
  // per problem (into thread-local workspace).
  if (policy == BatchPolicy::kAuto && batch > 1 && k > 0 &&
      (stride_a == 0) != (stride_b == 0) &&
      use_packed_gemm(opa, opb, m, n, k)) {
    if (stride_b == 0) {
      const PackedMatrix<T> bp =
          pack_b_full<T>(opb, ConstMatrixView<T>(b, br, bc, ldb));
      parallel_for_static(batch, [&](index_t i) {
        ConstMatrixView<T> ai(a + i * stride_a, ar, ac, lda);
        MatrixView<T> ci{c + i * stride_c, m, n, ldc};
        gemm_prepacked_b<T>(opa, alpha, ai, bp, beta, ci);
      });
    } else {
      const PackedMatrix<T> ap =
          pack_a_full<T>(opa, ConstMatrixView<T>(a, ar, ac, lda));
      parallel_for_static(batch, [&](index_t i) {
        ConstMatrixView<T> bi(b + i * stride_b, br, bc, ldb);
        MatrixView<T> ci{c + i * stride_c, m, n, ldc};
        gemm_prepacked_a<T>(ap, alpha, opb, bi, beta, ci);
      });
    }
    FlopCounter::instance().add(
        FlopCounter::kGemm,
        static_cast<std::uint64_t>(batch) *
            FlopCounter::gemm_flops<T>(m, n, k));
    return;
  }
  // Across-batch small-GEMM tail: problems at or below one register tile
  // (m <= MR, n <= NR) never fill the packed engine's micro-kernel and run
  // as scalar naive loops per problem. Interleave lane groups of W problems
  // into lane-major layout instead, so every multiply-add advances W
  // problems at full vector width. op/conj and stride-0 broadcast operands
  // are absorbed by the gather; alpha/beta are fused into the scatter, so C
  // is never staged in.
  {
    const ResolvedBlocking& rb = resolved_blocking<T>();
    const index_t w = batch_lanes<T>(batch);
    if (w > 1 && policy != BatchPolicy::kForceStream && k > 0 &&
        m <= rb.mr && n <= rb.nr && k <= rb.kc) {
      const index_t ngroups = (batch + w - 1) / w;
      batch_simd_stats::detail::add_gemm_groups(
          static_cast<std::uint64_t>(ngroups));
      parallel_for_static(ngroups, [&](index_t gi) {
        const index_t i0 = gi * w;
        const index_t nl = std::min(w, batch - i0);
        T* buf = interleave_workspace<T>(
            static_cast<std::size_t>(m * k + k * n + m * n) * w);
        T* a_il = buf;
        T* b_il = a_il + static_cast<std::size_t>(m) * k * w;
        T* c_il = b_il + static_cast<std::size_t>(k) * n * w;
        const T* asrc[kMaxBatchLanes];
        const T* bsrc[kMaxBatchLanes];
        T* cdst[kMaxBatchLanes];
        for (index_t l = 0; l < nl; ++l) {
          asrc[l] = a + (i0 + l) * stride_a;
          bsrc[l] = b + (i0 + l) * stride_b;
          cdst[l] = c + (i0 + l) * stride_c;
        }
        batch_interleave_op<T>(opa, m, k, asrc, lda, nl, w, a_il);
        batch_interleave_op<T>(opb, k, n, bsrc, ldb, nl, w, b_il);
        small_gemm_batch<T>(m, n, k, a_il, b_il, c_il, w);
        batch_deinterleave_axpby<T>(alpha, m, n, c_il, w, nl, beta, cdst,
                                    ldc);
      });
      FlopCounter::instance().add(
          FlopCounter::kGemm,
          static_cast<std::uint64_t>(batch) *
              FlopCounter::gemm_flops<T>(m, n, k));
      return;
    }
  }
  auto run = [&](index_t i, bool threaded) {
    ConstMatrixView<T> ai(a + i * stride_a, ar, ac, lda);
    ConstMatrixView<T> bi(b + i * stride_b, br, bc, ldb);
    MatrixView<T> ci{c + i * stride_c, m, n, ldc};
    if (threaded)
      gemm_parallel(opa, opb, alpha, ai, bi, beta, ci);
    else
      gemm(opa, opb, alpha, ai, bi, beta, ci);
  };
  if (use_stream_mode(policy, batch, batch * m * n * k)) {
    for (index_t i = 0; i < batch; ++i) run(i, true);
  } else {
    parallel_for_static(batch, [&](index_t i) { run(i, false); });
  }
}

template <typename T>
void getrf_batched(std::span<const MatrixView<T>> a,
                   std::span<index_t* const> ipiv, BatchPolicy policy) {
  HODLRX_REQUIRE(a.size() == ipiv.size(), "getrf_batched: batch mismatch");
  const index_t batch = static_cast<index_t>(a.size());
  if (batch == 0) return;
  DeviceContext::global().record_launch();
  index_t total_work = 0;
  for (index_t i = 0; i < batch; ++i) {
    const index_t p = std::min(a[i].rows, a[i].cols);
    total_work += p * p * p / 3;  // ~getrf multiply-adds
  }
  if (use_stream_mode(policy, batch, total_work)) {
    // Few large problems: run them one after another, each with a blocked
    // right-looking LU whose trailing GEMM update uses the whole pool.
    for (index_t i = 0; i < batch; ++i) getrf_parallel(a[i], ipiv[i]);
  } else {
    parallel_for_static(batch, [&](index_t i) { getrf(a[i], ipiv[i]); });
  }
}

template <typename T>
void getrf_nopivot_batched(std::span<const MatrixView<T>> a,
                           BatchPolicy policy) {
  const index_t batch = static_cast<index_t>(a.size());
  if (batch == 0) return;
  DeviceContext::global().record_launch();
  index_t total_work = 0;
  for (index_t i = 0; i < batch; ++i) {
    const index_t p = std::min(a[i].rows, a[i].cols);
    total_work += p * p * p / 3;
  }
  if (use_stream_mode(policy, batch, total_work)) {
    for (index_t i = 0; i < batch; ++i) getrf_nopivot_parallel(a[i]);
  } else {
    parallel_for_static(batch, [&](index_t i) { getrf_nopivot(a[i]); });
  }
}

template <typename T>
void trsm_batched(Uplo uplo, Diag diag, std::span<const ConstMatrixView<T>> a,
                  std::span<const MatrixView<T>> b, BatchPolicy policy) {
  HODLRX_REQUIRE(a.size() == b.size(), "trsm_batched: batch mismatch");
  const index_t batch = static_cast<index_t>(b.size());
  if (batch == 0) return;
  DeviceContext::global().record_launch();
  index_t total_work = 0;
  for (index_t i = 0; i < batch; ++i)
    total_work += a[i].rows * a[i].rows * b[i].cols;
  if (use_stream_mode(policy, batch, total_work)) {
    // Few large problems: sequential problems, RHS columns of each split
    // across the pool (trsm_left_parallel accounts the flops).
    for (index_t i = 0; i < batch; ++i)
      trsm_left_parallel<T>(uplo, diag, a[i], b[i]);
  } else {
    parallel_for_static(batch, [&](index_t i) {
      trsm_left(uplo, diag, a[i], b[i]);
    });
  }
}

template <typename T>
void getrs_batched(std::span<const ConstMatrixView<T>> lu,
                   std::span<const index_t* const> ipiv,
                   std::span<const MatrixView<T>> b, BatchPolicy policy) {
  HODLRX_REQUIRE(lu.size() == b.size() && ipiv.size() == b.size(),
                 "getrs_batched: batch mismatch");
  const index_t batch = static_cast<index_t>(b.size());
  if (batch == 0) return;
  DeviceContext::global().record_launch();
  index_t total_work = 0;
  for (index_t i = 0; i < batch; ++i)
    total_work += lu[i].rows * lu[i].rows * b[i].cols;
  if (use_stream_mode(policy, batch, total_work)) {
    // Pivots applied once per problem, then blocked L/U solves with the RHS
    // columns split across the pool.
    for (index_t i = 0; i < batch; ++i) getrs_parallel(lu[i], ipiv[i], b[i]);
  } else {
    parallel_for_static(batch,
                        [&](index_t i) { getrs(lu[i], ipiv[i], b[i]); });
  }
}

template <typename T>
void getrs_nopivot_batched(std::span<const ConstMatrixView<T>> lu,
                           std::span<const MatrixView<T>> b,
                           BatchPolicy policy) {
  HODLRX_REQUIRE(lu.size() == b.size(), "getrs_nopivot_batched: batch mismatch");
  const index_t batch = static_cast<index_t>(b.size());
  if (batch == 0) return;
  DeviceContext::global().record_launch();
  index_t total_work = 0;
  for (index_t i = 0; i < batch; ++i)
    total_work += lu[i].rows * lu[i].rows * b[i].cols;
  if (use_stream_mode(policy, batch, total_work)) {
    for (index_t i = 0; i < batch; ++i) getrs_nopivot_parallel(lu[i], b[i]);
  } else {
    parallel_for_static(batch,
                        [&](index_t i) { getrs_nopivot(lu[i], b[i]); });
  }
}

namespace qr_stats {
namespace {
std::atomic<std::uint64_t> g_geqrf_sweeps{0}, g_thin_q_sweeps{0},
    g_panel_launches{0};
}  // namespace
std::uint64_t geqrf_batched_sweeps() {
  return g_geqrf_sweeps.load(std::memory_order_relaxed);
}
std::uint64_t thin_q_batched_sweeps() {
  return g_thin_q_sweeps.load(std::memory_order_relaxed);
}
std::uint64_t panel_launches() {
  return g_panel_launches.load(std::memory_order_relaxed);
}
void reset() {
  g_geqrf_sweeps.store(0, std::memory_order_relaxed);
  g_thin_q_sweeps.store(0, std::memory_order_relaxed);
  g_panel_launches.store(0, std::memory_order_relaxed);
}
}  // namespace qr_stats

namespace {

/// Per-launch scratch of the batched QR engine: every problem's explicit
/// reflector panel V, compact-WY T factor, and the two trailing-update
/// intermediates, at uniform strides so the updates can run as strided
/// GEMM launches. Carved out of the calling thread's workspace arena
/// (grow-only, so steady-state sweeps — e.g. the 5 QR rounds of one
/// power-iterated rsvd — allocate nothing), registered as device memory for
/// the accounting. Pool workers WRITE disjoint per-problem slices during
/// the panel launch (synchronized by the parallel_for join) and the strided
/// trailing updates then read them; nothing else inside the launch touches
/// the owner's kScratch slot (the internal GEMMs use kPackA/kPackB), so the
/// buffer stays intact for the whole sweep.
template <typename T>
struct QrBatchWorkspace {
  QrBatchWorkspace(index_t m, index_t n, index_t nb, index_t batch)
      : v_stride(m * nb), t_stride(nb * nb), w_stride(nb * n) {
    const std::size_t count = static_cast<std::size_t>(batch) *
                              (v_stride + t_stride + 2 * w_stride);
    v = WorkspaceArena::local().get<T>(count, WorkspaceArena::kScratch);
    t = v + batch * v_stride;
    w = t + batch * t_stride;
    w2 = w + batch * w_stride;
    da = DeviceAllocation(count * sizeof(T));
  }
  index_t v_stride, t_stride, w_stride;
  DeviceAllocation da;
  T* v;
  T* t;
  T* w;
  T* w2;
};

/// One cross-batch panel step of the batched QR drivers: the three
/// strided-batched trailing-update GEMMs of the compact-WY reflector,
///   W = V^H C;  W2 = op(T) W;  C -= V W2
/// with op = T^H when factoring (applying Q^H) and op = T when forming Q.
template <typename T>
void batched_block_reflector(const QrBatchWorkspace<T>& ws, index_t ib,
                             index_t mr, index_t nc, bool adjoint, T* c,
                             index_t ldc, index_t stride_c, index_t batch) {
  gemm_strided_batched<T>(Op::C, Op::N, ib, nc, mr, T{1}, ws.v, mr,
                          ws.v_stride, c, ldc, stride_c, T{0}, ws.w, ib,
                          ws.w_stride, batch);
  gemm_strided_batched<T>(adjoint ? Op::C : Op::N, Op::N, ib, nc, ib, T{1},
                          ws.t, ib, ws.t_stride, ws.w, ib, ws.w_stride, T{0},
                          ws.w2, ib, ws.w_stride, batch);
  gemm_strided_batched<T>(Op::N, Op::N, mr, nc, ib, T{-1}, ws.v, mr,
                          ws.v_stride, ws.w2, ib, ws.w_stride, T{1}, c, ldc,
                          stride_c, batch);
}

/// kOther remainder of one problem's QR after its internal GEMMs (Gram +
/// three trailing multiplies per panel) booked themselves under kGemm; the
/// internal part comes from the shared panel-loop mirror in lapack.hpp.
/// `ntotal` is n for geqrf and min(m,n) for thin_q.
template <typename T>
void add_batched_qr_flops(index_t m, index_t kmax, index_t ntotal, index_t nb,
                          index_t batch) {
  const std::uint64_t internal =
      blocked_qr_internal_flops<T>(m, kmax, ntotal, nb);
  const std::uint64_t total = (is_complex_v<T> ? 4ull : 1ull) * 2ull *
                              static_cast<std::uint64_t>(m) *
                              static_cast<std::uint64_t>(ntotal) *
                              static_cast<std::uint64_t>(kmax);
  if (total > internal)
    FlopCounter::instance().add(FlopCounter::kOther,
                                static_cast<std::uint64_t>(batch) *
                                    (total - internal));
}

}  // namespace

template <typename T>
void geqrf_strided_batched(T* a, index_t lda, index_t stride_a, index_t m,
                           index_t n, T* tau, index_t stride_tau,
                           index_t batch, BatchPolicy policy) {
  const index_t kmax = std::min(m, n);
  if (batch == 0 || kmax == 0) return;
  HODLRX_REQUIRE(lda >= m && stride_tau >= kmax &&
                     (batch == 1 || stride_a > 0),
                 "geqrf_strided_batched: bad layout");
  DeviceContext::global().record_launch();
  const index_t work = 2 * m * n * kmax;
  if (use_stream_mode(policy, batch, batch * work)) {
    // Few large problems: sequential blocked QRs, each block reflector's
    // trailing multiply using the whole pool (mirrors getrf_parallel).
    for (index_t i = 0; i < batch; ++i)
      geqrf_inplace_parallel<T>(MatrixView<T>{a + i * stride_a, m, n, lda},
                                tau + i * stride_tau);
    return;
  }
  qr_stats::g_geqrf_sweeps.fetch_add(1, std::memory_order_relaxed);
  const index_t nb = resolved_blocking<T>().qr_nb;
  const index_t lanes = batch_lanes<T>(batch);
  QrBatchWorkspace<T> ws(m, n, nb, batch);
  for (index_t k = 0; k < kmax; k += nb) {
    const index_t ib = std::min(nb, kmax - k);
    const index_t mr = m - k;
    const index_t nc = n - k - ib;
    // Panel launch: factor panel k of EVERY problem and stage its reflector
    // block (explicit V, compact-WY T) for the strided trailing updates.
    qr_stats::g_panel_launches.fetch_add(1, std::memory_order_relaxed);
    DeviceContext::global().record_launch();
    auto stage_reflectors = [&](index_t i) {
      MatrixView<T> ai{a + i * stride_a, m, n, lda};
      MatrixView<T> panel = ai.block(k, k, mr, ib);
      MatrixView<T> vi{ws.v + i * ws.v_stride, mr, ib, mr};
      copy_reflectors<T>(ConstMatrixView<T>(panel), vi);
      larft_forward<T>(vi, tau + i * stride_tau + k,
                       MatrixView<T>{ws.t + i * ws.t_stride, ib, ib, ib});
    };
    if (lanes > 1) {
      // Across-batch panel: each lane group gathers `lanes` problems'
      // panels into the lane-major layout and factors them as ONE SIMD QR
      // (geqrf_panel_batch); the compact-WY staging stays per lane, feeding
      // the same strided trailing GEMMs. Same launch and counter shape as
      // the per-problem path — only the task granularity changes.
      const index_t ngroups = (batch + lanes - 1) / lanes;
      batch_simd_stats::detail::add_qr_groups(
          static_cast<std::uint64_t>(ngroups));
      parallel_for_static(ngroups, [&](index_t gi) {
        const index_t i0 = gi * lanes;
        const index_t nl = std::min(lanes, batch - i0);
        T* buf = interleave_workspace<T>(
            static_cast<std::size_t>(mr * ib + ib) * lanes);
        T* panel_il = buf;
        T* tau_il = buf + static_cast<std::size_t>(mr) * ib * lanes;
        T* ptrs[kMaxBatchLanes];
        for (index_t l = 0; l < nl; ++l)
          ptrs[l] = a + (i0 + l) * stride_a + k + k * lda;
        batch_interleave<T>(mr, ib, ptrs, lda, nl, lanes, panel_il);
        geqrf_panel_batch<T>(mr, ib, panel_il, tau_il, lanes);
        batch_deinterleave<T>(mr, ib, panel_il, lanes, nl, ptrs, lda);
        for (index_t l = 0; l < nl; ++l) {
          T* ti = tau + (i0 + l) * stride_tau + k;
          for (index_t jj = 0; jj < ib; ++jj)
            ti[jj] = tau_il[jj * lanes + l];
        }
        if (nc > 0)
          for (index_t l = 0; l < nl; ++l) stage_reflectors(i0 + l);
      });
    } else {
      parallel_for_static(batch, [&](index_t i) {
        MatrixView<T> ai{a + i * stride_a, m, n, lda};
        MatrixView<T> panel = ai.block(k, k, mr, ib);
        geqrf_panel<T>(panel, tau + i * stride_tau + k);
        if (nc > 0) stage_reflectors(i);
      });
    }
    if (nc > 0)
      batched_block_reflector<T>(ws, ib, mr, nc, /*adjoint=*/true,
                                 a + k + (k + ib) * lda, lda, stride_a,
                                 batch);
  }
  add_batched_qr_flops<T>(m, kmax, n, nb, batch);
}

template <typename T>
void thin_q_strided_batched(T* a, index_t lda, index_t stride_a, index_t m,
                            index_t n, const T* tau, index_t stride_tau,
                            index_t batch, BatchPolicy policy) {
  const index_t kq = std::min(m, n);
  if (batch == 0 || kq == 0) return;
  HODLRX_REQUIRE(lda >= m && stride_tau >= kq &&
                     (batch == 1 || stride_a > 0),
                 "thin_q_strided_batched: bad layout");
  DeviceContext::global().record_launch();
  const index_t work = 2 * m * kq * kq;
  if (use_stream_mode(policy, batch, batch * work)) {
    for (index_t i = 0; i < batch; ++i)
      thin_q_inplace_parallel<T>(MatrixView<T>{a + i * stride_a, m, kq, lda},
                                 tau + i * stride_tau);
    return;
  }
  qr_stats::g_thin_q_sweeps.fetch_add(1, std::memory_order_relaxed);
  const index_t nb = resolved_blocking<T>().qr_nb;
  QrBatchWorkspace<T> ws(m, kq, nb, batch);
  for (index_t kk = ((kq - 1) / nb) * nb; kk >= 0; kk -= nb) {
    const index_t ib = std::min(nb, kq - kk);
    const index_t mr = m - kk;
    const index_t nc = kq - kk - ib;
    // Panel launch: stage the block reflector of panel kk, then overwrite
    // the panel with its own Q columns (org2r) — the staged copies, not the
    // panel, feed the strided trailing updates below.
    qr_stats::g_panel_launches.fetch_add(1, std::memory_order_relaxed);
    DeviceContext::global().record_launch();
    parallel_for_static(batch, [&](index_t i) {
      MatrixView<T> ai{a + i * stride_a, m, kq, lda};
      MatrixView<T> panel = ai.block(kk, kk, mr, ib);
      if (nc > 0) {
        MatrixView<T> vi{ws.v + i * ws.v_stride, mr, ib, mr};
        copy_reflectors<T>(ConstMatrixView<T>(panel), vi);
        larft_forward<T>(vi, tau + i * stride_tau + kk,
                         MatrixView<T>{ws.t + i * ws.t_stride, ib, ib, ib});
      }
      thin_q_panel<T>(panel, tau + i * stride_tau + kk);
      for (index_t j = 0; j < ib; ++j)
        std::fill_n(ai.data + (kk + j) * lda, kk, T{});
    });
    if (nc > 0)
      batched_block_reflector<T>(ws, ib, mr, nc, /*adjoint=*/false,
                                 a + kk + (kk + ib) * lda, lda, stride_a,
                                 batch);
  }
  add_batched_qr_flops<T>(m, kq, kq, nb, batch);
}

template <typename T>
SvdBatchInfo jacobi_svd_strided_batched(T* a, index_t lda, index_t stride_a,
                                        index_t m, index_t n, real_t<T>* s,
                                        index_t stride_s, T* v, index_t ldv,
                                        index_t stride_v, index_t batch,
                                        BatchPolicy policy, bool recover) {
  using R = real_t<T>;
  SvdBatchInfo info;
  if (batch == 0 || n == 0) return info;
  HODLRX_REQUIRE(n <= m && lda >= m && ldv >= n && stride_s >= n &&
                     (batch == 1 || (stride_a > 0 && stride_v > 0)),
                 "jacobi_svd_strided_batched: bad layout (need tall m >= n;"
                 " pass a^H for wide blocks)");
  DeviceContext::global().record_launch();
  const index_t work = 2 * m * n * n;
  if (use_stream_mode(policy, batch, batch * work)) {
    // Few large problems: sequential blocked serial driver per problem (it
    // counts its own non-convergence in svd_stats).
    for (index_t i = 0; i < batch; ++i) {
      MatrixView<T> wi{a + i * stride_a, m, n, lda};
      MatrixView<T> vi{v + i * stride_v, n, n, ldv};
      const SvdInfo r = jacobi_svd_inplace<T>(wi, vi, s + i * stride_s);
      info.sweeps = std::max(info.sweeps, r.sweeps);
      if (!r.converged) ++info.nonconverged;
    }
    return info;
  }
  svd_stats::detail::add_batched_sweep();
  const R tol = R{32} * eps_v<T>;
  int max_sweeps = svd_max_sweeps();
  // "svd.sweeps" fault: starve the synchronized loop so the batch cannot
  // converge and the recovery re-run below must carry it.
  if (fault::should_fire(fault::Site::kSvdSweeps)) max_sweeps = 1;
  // Per-launch Gram workspace (n x n per problem) carved from the calling
  // thread's arena and registered as device memory, like QrBatchWorkspace.
  // Only the sweep launches below touch it; it is dead by finalize time.
  // When the across-batch sweep can engage (batch_lanes > 1 for the full
  // batch), the same carve also holds the accumulated-rotation scratch: one
  // n x n R per problem. One get() call — a second get() on the same slot
  // would invalidate the first pointer.
  const std::size_t gcount =
      static_cast<std::size_t>(batch) * static_cast<std::size_t>(n) * n;
  const std::size_t rcount = batch_lanes<T>(batch) > 1 ? gcount : 0;
  T* g = WorkspaceArena::local().get<T>(gcount + rcount,
                                        WorkspaceArena::kScratch);
  T* r = g + gcount;
  DeviceAllocation da((gcount + rcount) * sizeof(T));
  // V_i <- I in one pool launch.
  DeviceContext::global().record_launch();
  parallel_for_static(batch, [&](index_t i) {
    MatrixView<T> vi{v + i * stride_v, n, n, ldv};
    for (index_t j = 0; j < n; ++j) {
      std::fill_n(vi.data + j * vi.ld, n, T{});
      vi(j, j) = T{1};
    }
  });
  // Active set: converged problems are compacted out, so late sweeps (the
  // convergence tail is uneven across a batch) spend neither Gram flops nor
  // rotation scans on problems that are already done.
  std::vector<index_t> active;
  if (n > 1) {
    active.resize(static_cast<std::size_t>(batch));
    for (index_t i = 0; i < batch; ++i)
      active[static_cast<std::size_t>(i)] = i;
  }
  std::vector<char> rotated(static_cast<std::size_t>(batch));
  std::vector<ConstMatrixView<T>> gav, gbv;
  std::vector<MatrixView<T>> gcv;
  // Accumulated-rotation apply step (across-batch sweeps only): the
  // problems whose R must be applied this sweep.
  std::vector<index_t> rlist;
  while (!active.empty() && info.sweeps < max_sweeps) {
    const index_t nact = static_cast<index_t>(active.size());
    // (a) Refresh the active problems' Gram matrices in ONE batched GEMM
    // launch (the pair dot products of the whole batch at engine speed) ...
    gav.resize(static_cast<std::size_t>(nact));
    gbv.resize(static_cast<std::size_t>(nact));
    gcv.resize(static_cast<std::size_t>(nact));
    for (index_t j = 0; j < nact; ++j) {
      const index_t i = active[static_cast<std::size_t>(j)];
      gav[static_cast<std::size_t>(j)] =
          ConstMatrixView<T>(a + i * stride_a, m, n, lda);
      gbv[static_cast<std::size_t>(j)] = gav[static_cast<std::size_t>(j)];
      gcv[static_cast<std::size_t>(j)] = MatrixView<T>{g + i * n * n, n, n, n};
    }
    gemm_batched<T>(Op::C, Op::N, T{1}, gav, gbv, T{0}, gcv,
                    BatchPolicy::kForceBatched);
    // ... then (b) ONE pool launch rotates every active problem once.
    svd_stats::detail::add_sweep_launch();
    DeviceContext::global().record_launch();
    const index_t lanes = batch_lanes<T>(nact);
    if (lanes > 1) {
      // Across-batch sweep in accumulated-rotation form: lane groups are
      // re-formed from the COMPACTED active set each sweep (the gather
      // pointers index through `active`), so convergence compaction and
      // SIMD lanes compose. Only the small n x n Gram matrix is interleaved
      // — the pair scan rotates it lane-major while accumulating every
      // rotation into a per-lane R, and the tall factor is updated ONCE per
      // sweep as w <- w*R below, at engine speed, instead of being staged
      // through the lane-major layout (where the scalar per-problem column
      // rotation already vectorizes and the staging is pure traffic). The
      // Gram matrix is not scattered back — the next sweep's batched GEMM
      // refreshes it from the rotated factor, and finalize never reads it.
      const index_t ngroups = (nact + lanes - 1) / lanes;
      batch_simd_stats::detail::add_jacobi_groups(
          static_cast<std::uint64_t>(ngroups));
      parallel_for_static(ngroups, [&](index_t gj) {
        const index_t j0 = gj * lanes;
        const index_t nl = std::min(lanes, nact - j0);
        const std::size_t ncnt =
            static_cast<std::size_t>(n) * n * static_cast<std::size_t>(lanes);
        T* buf = interleave_workspace<T>(2 * ncnt);
        T* g_il = buf;
        T* r_il = g_il + ncnt;
        T* gp[kMaxBatchLanes];
        T* rp[kMaxBatchLanes];
        for (index_t l = 0; l < nl; ++l) {
          const index_t i = active[static_cast<std::size_t>(j0 + l)];
          gp[l] = g + i * n * n;
          rp[l] = r + i * n * n;
        }
        batch_interleave<T>(n, n, gp, n, nl, lanes, g_il);
        bool rot[kMaxBatchLanes] = {};
        jacobi_sweep_batch<T>(n, g_il, r_il, tol, lanes, rot);
        batch_deinterleave<T>(n, n, r_il, lanes, nl, rp, n);
        for (index_t l = 0; l < nl; ++l)
          rotated[static_cast<std::size_t>(
              active[static_cast<std::size_t>(j0 + l)])] = rot[l] ? 1 : 0;
      });
      // Apply the accumulated rotations: w_i <- w_i * R_i and v_i <- v_i *
      // R_i for every problem that rotated (R_i = I elsewhere — skipping is
      // exact), in ONE pool launch of the in-place narrow-product kernel
      // (the packed engine would need a separate C plus a copy-back pass,
      // doubling the tall factor's per-sweep traffic).
      rlist.clear();
      for (const index_t i : active)
        if (rotated[static_cast<std::size_t>(i)]) rlist.push_back(i);
      const index_t nrot = static_cast<index_t>(rlist.size());
      if (nrot > 0) {
        DeviceContext::global().record_launch();
        parallel_for_static(nrot, [&](index_t j) {
          const index_t i = rlist[static_cast<std::size_t>(j)];
          const T* ri = r + i * n * n;
          gemm_right_inplace<T>(m, n, a + i * stride_a, lda, ri, n);
          gemm_right_inplace<T>(n, n, v + i * stride_v, ldv, ri, n);
        });
        FlopCounter::instance().add(
            FlopCounter::kGemm,
            static_cast<std::uint64_t>(nrot) *
                (FlopCounter::gemm_flops<T>(m, n, n) +
                 FlopCounter::gemm_flops<T>(n, n, n)));
      }
    } else {
      parallel_for_static(nact, [&](index_t j) {
        const index_t i = active[static_cast<std::size_t>(j)];
        MatrixView<T> wi{a + i * stride_a, m, n, lda};
        MatrixView<T> vi{v + i * stride_v, n, n, ldv};
        MatrixView<T> gi{g + i * n * n, n, n, n};
        rotated[static_cast<std::size_t>(i)] =
            jacobi_sweep_gram<T>(wi, vi, gi, tol) ? 1 : 0;
      });
    }
    ++info.sweeps;
    std::erase_if(active,
                  [&](index_t i) { return !rotated[static_cast<std::size_t>(i)]; });
  }
  if (!active.empty() && recover) {
    // Recovery ladder: the stragglers are compacted out of the batch and
    // finished one at a time through the reference serial sweep loop with a
    // 4x budget, BEFORE the shared finalize pass below (finalize must see
    // fully rotated factors). Healing happens in place, so the batch
    // epilogue and the caller's layout are untouched.
    const int budget = std::max(4 * svd_max_sweeps(), 64);
    std::vector<index_t> still;
    Matrix<T> gram(n, n);
    for (const index_t i : active) {
      MatrixView<T> wi{a + i * stride_a, m, n, lda};
      MatrixView<T> vi{v + i * stride_v, n, n, ldv};
      bool rot = true;
      int sweeps = 0;
      while (rot && sweeps < budget) {
        gemm(Op::C, Op::N, T{1}, ConstMatrixView<T>(wi),
             ConstMatrixView<T>(wi), T{0}, gram.view());
        rot = jacobi_sweep_gram<T>(wi, vi, gram.view(), tol);
        ++sweeps;
      }
      info.sweeps = std::max(info.sweeps, sweeps);
      if (rot) {
        still.push_back(i);
      } else {
        ++info.recovered;
      }
    }
    // One recovery engagement per call (not per problem), so a single
    // injected fault that starves the whole batch still balances to
    // injected == recovered.
    if (info.recovered > 0)
      fault_stats::detail::add_recovered(fault::Site::kSvdSweeps);
    active = std::move(still);
  }
  if (!active.empty()) {
    info.nonconverged = static_cast<index_t>(active.size());
    svd_stats::detail::add_nonconverged(
        static_cast<std::uint64_t>(active.size()));
#ifndef NDEBUG
    HODLRX_REQUIRE(false, "jacobi_svd_strided_batched: "
                              << info.nonconverged << " of " << batch
                              << " problem(s) not converged after "
                              << info.sweeps
                              << " sweeps (raise HODLRX_SVD_SWEEPS)");
#endif
  }
  // Finalize launch: sort by descending singular value and normalize U.
  DeviceContext::global().record_launch();
  parallel_for_static(batch, [&](index_t i) {
    MatrixView<T> wi{a + i * stride_a, m, n, lda};
    MatrixView<T> vi{v + i * stride_v, n, n, ldv};
    jacobi_finalize<T>(wi, vi, s + i * stride_s);
  });
  return info;
}

#define HODLRX_INSTANTIATE_BATCHED(T)                                        \
  template void gemm_batched<T>(Op, Op, T,                                   \
                                std::span<const ConstMatrixView<T>>,         \
                                std::span<const ConstMatrixView<T>>, T,      \
                                std::span<const MatrixView<T>>, BatchPolicy);\
  template void gemm_strided_batched<T>(                                     \
      Op, Op, index_t, index_t, index_t, T, const T*, index_t, index_t,      \
      const T*, index_t, index_t, T, T*, index_t, index_t, index_t,          \
      BatchPolicy);                                                          \
  template void getrf_batched<T>(std::span<const MatrixView<T>>,             \
                                 std::span<index_t* const>, BatchPolicy);    \
  template void getrf_nopivot_batched<T>(std::span<const MatrixView<T>>,     \
                                         BatchPolicy);                       \
  template void trsm_batched<T>(Uplo, Diag,                                  \
                                std::span<const ConstMatrixView<T>>,         \
                                std::span<const MatrixView<T>>, BatchPolicy);\
  template void getrs_batched<T>(std::span<const ConstMatrixView<T>>,        \
                                 std::span<const index_t* const>,            \
                                 std::span<const MatrixView<T>>,             \
                                 BatchPolicy);                               \
  template void getrs_nopivot_batched<T>(std::span<const ConstMatrixView<T>>,\
                                         std::span<const MatrixView<T>>,     \
                                         BatchPolicy);                       \
  template void geqrf_strided_batched<T>(T*, index_t, index_t, index_t,      \
                                         index_t, T*, index_t, index_t,      \
                                         BatchPolicy);                       \
  template void thin_q_strided_batched<T>(T*, index_t, index_t, index_t,     \
                                          index_t, const T*, index_t,        \
                                          index_t, BatchPolicy);             \
  template SvdBatchInfo jacobi_svd_strided_batched<T>(                       \
      T*, index_t, index_t, index_t, index_t, real_t<T>*, index_t, T*,       \
      index_t, index_t, index_t, BatchPolicy, bool);

HODLRX_INSTANTIATE_BATCHED(float)
HODLRX_INSTANTIATE_BATCHED(double)
HODLRX_INSTANTIATE_BATCHED(std::complex<float>)
HODLRX_INSTANTIATE_BATCHED(std::complex<double>)

#undef HODLRX_INSTANTIATE_BATCHED

}  // namespace hodlrx
