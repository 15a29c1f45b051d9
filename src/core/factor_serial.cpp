#include <algorithm>
#include <complex>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "core/engine_detail.hpp"

/// \file factor_serial.cpp
/// The serial execution engine: Algorithm 1 (factorization stage) and
/// Algorithm 2 (solution stage) run as plain single-threaded loops over the
/// packed big-matrix layout. This is the "Serial HODLR Solver" column of the
/// paper's Tables IV and V, and the correctness reference for the batched
/// engine.

namespace hodlrx::detail {

template <typename T>
void FactorEngine<T>::run_factor_serial(F& f, FactorReport* report) {
  const ClusterTree& tree = f.tree_;
  const index_t L = depth(f);
  MatrixView<T> ybig = f.ybig_;
  ConstMatrixView<T> vbig = f.vbig_;
  const bool pivoted = f.opt_.kform == KForm::kPivoted;

  // --- Algorithm 1, lines 2-5: leaf LU + leaf solves against all panels ---
  for (index_t j = 0; j < tree.num_leaves(); ++j) {
    const ClusterNode& c = tree.node(tree.leaf(j));
    MatrixView<T> d = leaf_lu(f, j);
    getrf(d, leaf_pivots(f, j));
    if (f.total_cols_ > 0)
      getrs(ConstMatrixView<T>(d), leaf_pivots(f, j),
            ybig.block(c.begin, 0, c.size(), f.total_cols_));
  }

  // --- Algorithm 1, lines 6-13: level sweep ---
  for (index_t l = L - 1; l >= 0; --l) {
    const index_t r = f.level_rank_[l + 1];
    LevelK& klev = f.kfac_[l];
    if (r == 0) continue;  // rank-0 level: nothing couples the siblings
    const index_t panel = f.col_offset_[l + 1];  // prefix width AND panel col
    Matrix<T> w(klev.r2, panel);

    for (index_t k = 0; k < klev.count; ++k) {
      const index_t gamma = ClusterTree::level_begin(l) + k;
      const index_t a = ClusterTree::left_child(gamma);
      const index_t b = ClusterTree::right_child(gamma);
      const ClusterNode& ca = tree.node(a);
      const ClusterNode& cb = tree.node(b);
      ConstMatrixView<T> va = vbig.block(ca.begin, panel, ca.size(), r);
      ConstMatrixView<T> vb = vbig.block(cb.begin, panel, cb.size(), r);
      ConstMatrixView<T> ya = ybig.block(ca.begin, panel, ca.size(), r);
      ConstMatrixView<T> yb = ybig.block(cb.begin, panel, cb.size(), r);
      MatrixView<T> kk = klev.block(k);

      // Form and factor K_gamma (eq. 11 / the identity-diagonal variant).
      if (pivoted) {
        gemm(Op::C, Op::N, T{1}, va, ya, T{0}, kk.block(0, 0, r, r));
        gemm(Op::C, Op::N, T{1}, vb, yb, T{0}, kk.block(r, r, r, r));
        fill_k_identities(kk, r, KForm::kPivoted);
        getrf(kk, klev.pivots(k));
      } else {
        gemm(Op::C, Op::N, T{1}, vb, yb, T{0}, kk.block(0, r, r, r));
        gemm(Op::C, Op::N, T{1}, va, ya, T{0}, kk.block(r, 0, r, r));
        fill_k_identities(kk, r, KForm::kIdentityDiagonal);
        if (f.opt_.on_breakdown == OnBreakdown::kThrow) {
          getrf_nopivot(kk);
        } else {
          // Pivot-free LU can break down (exact zero pivot). Snapshot the
          // assembled K so the recovery ladder can re-factor it WITH
          // pivoting; under kReport a failed LU has no usable state, so the
          // breakdown is recorded and rethrown.
          const T* src = klev.data.data() + k * klev.r2 * klev.r2;
          std::vector<T> snap(src, src + klev.r2 * klev.r2);
          try {
            getrf_nopivot(kk);
          } catch (const Error& e) {
            fault::check_spec();  // a bad HODLRX_FAULT spec is no breakdown
            if (report != nullptr) {
              ++report->lu_breakdowns;
              report->events.push_back(
                  "factor: pivot-free LU broke down on K block " +
                  std::to_string(k) + " of level " + std::to_string(l) +
                  " (" + e.what() + ")");
            }
            if (f.opt_.on_breakdown != OnBreakdown::kRecover) throw;
            std::copy(snap.begin(), snap.end(),
                      klev.data.data() + k * klev.r2 * klev.r2);
            ensure_pivot_storage(klev);
            getrf(kk, klev.pivots(k));
            klev.pivoted[k] = 1;
            fault_stats::detail::add_recovered(fault::Site::kGetrfPivot);
            if (report != nullptr) {
              ++report->lu_pivot_retries;
              report->events.push_back(
                  "factor: K block " + std::to_string(k) + " of level " +
                  std::to_string(l) + " re-factored with partial pivoting");
            }
          }
        }
      }

      if (panel == 0) continue;  // level 0: no prefix to update
      // Right-hand sides (13); the identity-diagonal form swaps the blocks.
      MatrixView<T> wv = w.block(0, 0, klev.r2, panel);
      MatrixView<T> ya_pre = ybig.block(ca.begin, 0, ca.size(), panel);
      MatrixView<T> yb_pre = ybig.block(cb.begin, 0, cb.size(), panel);
      if (pivoted) {
        gemm(Op::C, Op::N, T{1}, va, ConstMatrixView<T>(ya_pre), T{0},
             wv.block(0, 0, r, panel));
        gemm(Op::C, Op::N, T{1}, vb, ConstMatrixView<T>(yb_pre), T{0},
             wv.block(r, 0, r, panel));
        getrs(ConstMatrixView<T>(kk), klev.pivots(k), wv);
      } else {
        gemm(Op::C, Op::N, T{1}, vb, ConstMatrixView<T>(yb_pre), T{0},
             wv.block(0, 0, r, panel));
        gemm(Op::C, Op::N, T{1}, va, ConstMatrixView<T>(ya_pre), T{0},
             wv.block(r, 0, r, panel));
        if (block_pivoted(klev, /*pivoted=*/false, k))
          getrs(ConstMatrixView<T>(kk), klev.pivots(k), wv);
        else
          getrs_nopivot(ConstMatrixView<T>(kk), wv);
      }
      // Update (14); the solution rows are [w_a; w_b] in both forms.
      gemm(Op::N, Op::N, T{-1}, ya, ConstMatrixView<T>(wv.block(0, 0, r, panel)),
           T{1}, ya_pre);
      gemm(Op::N, Op::N, T{-1}, yb, ConstMatrixView<T>(wv.block(r, 0, r, panel)),
           T{1}, yb_pre);
    }
  }
}

template <typename T>
void FactorEngine<T>::run_solve_serial(const F& f, MatrixView<T> x) {
  const ClusterTree& tree = f.tree_;
  const index_t L = depth(f);
  ConstMatrixView<T> ybig = f.ybig_;
  ConstMatrixView<T> vbig = f.vbig_;
  const bool pivoted = f.opt_.kform == KForm::kPivoted;
  const index_t nrhs = x.cols;

  // --- Algorithm 2, lines 2-4: leaf solves ---
  for (index_t j = 0; j < tree.num_leaves(); ++j) {
    const ClusterNode& c = tree.node(tree.leaf(j));
    getrs(leaf_lu(f, j), leaf_pivots(f, j),
          x.block(c.begin, 0, c.size(), nrhs));
  }

  // --- Algorithm 2, lines 5-11: level sweep ---
  for (index_t l = L - 1; l >= 0; --l) {
    const index_t r = f.level_rank_[l + 1];
    if (r == 0) continue;
    const LevelK& klev = f.kfac_[l];
    const index_t panel = f.col_offset_[l + 1];
    Matrix<T> w(klev.r2, nrhs);

    for (index_t k = 0; k < klev.count; ++k) {
      const index_t gamma = ClusterTree::level_begin(l) + k;
      const index_t a = ClusterTree::left_child(gamma);
      const index_t b = ClusterTree::right_child(gamma);
      const ClusterNode& ca = tree.node(a);
      const ClusterNode& cb = tree.node(b);
      ConstMatrixView<T> va = vbig.block(ca.begin, panel, ca.size(), r);
      ConstMatrixView<T> vb = vbig.block(cb.begin, panel, cb.size(), r);
      ConstMatrixView<T> ya = ybig.block(ca.begin, panel, ca.size(), r);
      ConstMatrixView<T> yb = ybig.block(cb.begin, panel, cb.size(), r);
      MatrixView<T> xa = x.block(ca.begin, 0, ca.size(), nrhs);
      MatrixView<T> xb = x.block(cb.begin, 0, cb.size(), nrhs);
      MatrixView<T> wv = w;

      if (pivoted) {
        gemm(Op::C, Op::N, T{1}, va, ConstMatrixView<T>(xa), T{0},
             wv.block(0, 0, r, nrhs));
        gemm(Op::C, Op::N, T{1}, vb, ConstMatrixView<T>(xb), T{0},
             wv.block(r, 0, r, nrhs));
        getrs(klev.block(k), klev.pivots(k), wv);
      } else {
        gemm(Op::C, Op::N, T{1}, vb, ConstMatrixView<T>(xb), T{0},
             wv.block(0, 0, r, nrhs));
        gemm(Op::C, Op::N, T{1}, va, ConstMatrixView<T>(xa), T{0},
             wv.block(r, 0, r, nrhs));
        if (block_pivoted(klev, /*pivoted=*/false, k))
          getrs(klev.block(k), klev.pivots(k), wv);
        else
          getrs_nopivot(klev.block(k), wv);
      }
      gemm(Op::N, Op::N, T{-1}, ya, ConstMatrixView<T>(wv.block(0, 0, r, nrhs)),
           T{1}, xa);
      gemm(Op::N, Op::N, T{-1}, yb, ConstMatrixView<T>(wv.block(r, 0, r, nrhs)),
           T{1}, xb);
    }
  }
}

#define HODLRX_INSTANTIATE_SERIAL(T)                                     \
  template void FactorEngine<T>::run_factor_serial(                      \
      HodlrFactorization<T>&, FactorReport*);                            \
  template void FactorEngine<T>::run_solve_serial(                       \
      const HodlrFactorization<T>&, MatrixView<T>);

HODLRX_INSTANTIATE_SERIAL(float)
HODLRX_INSTANTIATE_SERIAL(double)
HODLRX_INSTANTIATE_SERIAL(std::complex<float>)
HODLRX_INSTANTIATE_SERIAL(std::complex<double>)

#undef HODLRX_INSTANTIATE_SERIAL

}  // namespace hodlrx::detail
