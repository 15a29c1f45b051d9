#pragma once

#include <algorithm>

#include "common/parallel.hpp"
#include "core/factorization.hpp"

/// \file engine_detail.hpp
/// Internal glue between HodlrFactorization and its two execution engines.
/// Not part of the public API.

namespace hodlrx::detail {

template <typename T>
struct FactorEngine {
  using F = HodlrFactorization<T>;
  using LevelK = typename F::LevelK;

  /// Stage the packed data "onto the device" and initialize metadata. Ybig
  /// (overwritten by the sweep) and the leaf blocks (LU-factored in place)
  /// are the only copies: they are allocated unwritten and filled from
  /// ubig/dbig in one parallel pass. V is read-only, so the factorization
  /// shares the packed vbig instead of copying it.
  static F stage(const PackedHodlr<T>& p, const FactorOptions& opt) {
    HODLRX_REQUIRE(p.vbig != nullptr,
                   "factor: PackedHodlr has no vbig (build it with pack)");
    F f;
    f.tree_ = p.tree;
    f.opt_ = opt;
    f.level_rank_ = p.level_rank;
    f.col_offset_ = p.col_offset;
    f.total_cols_ = p.total_cols;
    f.level_uniform_ = p.level_uniform;
    f.leaves_uniform_ = p.leaves_uniform;
    f.ybig_ = Matrix<T>::uninitialized(p.ubig.rows(), p.ubig.cols());
    f.vbig_ = p.vbig;
    f.dfac_.resize(p.dbig.size());
    f.d_offset_ = p.d_offset;
    f.d_ipiv_.assign(p.n, 0);
    // ubig and dbig are contiguous (ld == rows): copy them as one flat
    // range of ny + nd elements split into equal chunks over the pool.
    const index_t ny = p.ubig.size();
    const index_t nd = static_cast<index_t>(p.dbig.size());
    parallel_chunks(ny + nd, [&](index_t i0, index_t cnt) {
      const index_t i1 = i0 + cnt;
      if (i0 < ny)
        std::copy(p.ubig.data() + i0, p.ubig.data() + std::min(i1, ny),
                  f.ybig_.data() + i0);
      if (i1 > ny) {
        const index_t d0 = std::max(i0, ny) - ny;
        std::copy(p.dbig.data() + d0, p.dbig.data() + (i1 - ny),
                  f.dfac_.data() + d0);
      }
    });

    // Pre-size the K-level containers (zeroed; engines fill them).
    const index_t depth = p.tree.depth();
    f.kfac_.resize(depth);
    for (index_t l = 0; l < depth; ++l) {
      LevelK& k = f.kfac_[l];
      k.r2 = 2 * p.level_rank[l + 1];
      k.count = index_t{1} << l;
      k.data.assign(static_cast<std::size_t>(k.count) * k.r2 * k.r2, T{});
      if (opt.kform == KForm::kPivoted)
        k.ipiv.assign(static_cast<std::size_t>(k.count) * k.r2, 0);
    }

    // Device accounting: the packed data crosses the link once; the
    // factorization storage lives on the device.
    DeviceContext::global().record_h2d(p.bytes());
    f.device_mem_ = DeviceAllocation(f.storage_bytes());
    return f;
  }

  // Engine entry points (factor_serial.cpp / factor_batched.cpp). The
  // factor stages take the (optional) report for breakdown bookkeeping.
  // run_factor_batched dispatches to the dependency-graph variant when
  // HODLRX_SCHED=graph; the level-synchronous sweep is the default.
  static void run_factor_serial(F& f, FactorReport* report);
  static void run_factor_batched(F& f, FactorReport* report);
  static void run_factor_batched_graph(F& f, FactorReport* report);
  static void run_solve_serial(const F& f, MatrixView<T> b);
  static void run_solve_batched(const F& f, MatrixView<T> b);

  /// Lazily allocate the pivot storage a K level needs when its pivot-free
  /// LU broke down and (some of) its blocks get re-factored with pivoting.
  static void ensure_pivot_storage(LevelK& k) {
    if (k.ipiv.empty())
      k.ipiv.assign(static_cast<std::size_t>(k.count) * k.r2, 0);
    if (k.pivoted.empty())
      k.pivoted.assign(static_cast<std::size_t>(k.count), 0);
  }

  /// Whether block `k` of the level must be solved with pivots (either the
  /// whole level uses the pivoted K form, or this block was individually
  /// re-factored by the recovery ladder).
  static bool block_pivoted(const LevelK& klev, bool pivoted, index_t k) {
    return pivoted || (!klev.pivoted.empty() && klev.pivoted[k] != 0);
  }

  // --- shared view helpers ------------------------------------------------
  static index_t depth(const F& f) { return f.tree_.depth(); }

  /// Panel of `m` for tree level `level` restricted to node `nu`'s rows.
  template <typename MatLike>
  static auto node_panel(const F& f, MatLike& m, index_t nu) {
    const index_t level = ClusterTree::level_of(nu);
    const ClusterNode& c = f.tree_.node(nu);
    return m.block(c.begin, f.col_offset_[level], c.size(),
                   f.level_rank_[level]);
  }
  /// Prefix columns [0, width) of `m` restricted to node `nu`'s rows.
  template <typename MatLike>
  static auto node_prefix(const F& f, MatLike& m, index_t nu, index_t width) {
    const ClusterNode& c = f.tree_.node(nu);
    return m.block(c.begin, 0, c.size(), width);
  }

  static MatrixView<T> leaf_lu(F& f, index_t j) {
    const index_t sz = f.tree_.node(f.tree_.leaf(j)).size();
    return {f.dfac_.data() + f.d_offset_[j], sz, sz, sz};
  }
  static ConstMatrixView<T> leaf_lu(const F& f, index_t j) {
    const index_t sz = f.tree_.node(f.tree_.leaf(j)).size();
    return {f.dfac_.data() + f.d_offset_[j], sz, sz, sz};
  }
  static index_t* leaf_pivots(F& f, index_t j) {
    return f.d_ipiv_.data() + f.tree_.node(f.tree_.leaf(j)).begin;
  }
  static const index_t* leaf_pivots(const F& f, index_t j) {
    return f.d_ipiv_.data() + f.tree_.node(f.tree_.leaf(j)).begin;
  }

  /// Fill the identity blocks of one K matrix (eq. 11); `r` is the padded
  /// child rank. Pivoted form: identities off-diagonal; identity-diagonal
  /// form: identities on the diagonal.
  static void fill_k_identities(MatrixView<T> kk, index_t r, KForm form) {
    if (form == KForm::kPivoted) {
      for (index_t i = 0; i < r; ++i) {
        kk(i, r + i) = T{1};
        kk(r + i, i) = T{1};
      }
    } else {
      for (index_t i = 0; i < 2 * r; ++i) kk(i, i) = T{1};
    }
  }
};

}  // namespace hodlrx::detail
