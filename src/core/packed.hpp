#pragma once

#include <memory>

#include "core/hodlr.hpp"

/// \file packed.hpp
/// The paper's big-matrix data structure (Figs. 3 and 4): all U bases
/// concatenated into one N x R matrix `ubig` (one column panel per tree
/// level, rows partitioned by the cluster tree), likewise `vbig`; leaf
/// diagonal blocks concatenated into `dbig`. Nodes whose actual rank is
/// below the level maximum are zero-padded to the right, which is what
/// makes the strided-batched kernels applicable (Sec. III-C).
///
/// `vbig` is immutable once packed and shared by pointer: a factorization
/// reads it in place (no engine writes V) and keeps it alive, so it may
/// outlive its PackedHodlr. `ubig` and `dbig` are what a factorization
/// copies and overwrites (Ybig, leaf LU factors).

namespace hodlrx {

template <typename T>
struct PackedHodlr {
  ClusterTree tree;
  index_t n = 0;

  /// level_rank[l] = max over nodes at level l of the block rank (l=1..L;
  /// index 0 unused).
  std::vector<index_t> level_rank;
  /// Panel l occupies columns [col_offset[l], col_offset[l] + level_rank[l]);
  /// col_offset[1] = 0 and col_offset[l+1] = col_offset[l] + level_rank[l].
  /// The "first r*l columns" of Algorithm 3 is the prefix
  /// [0, col_offset[l+1]).
  std::vector<index_t> col_offset;
  index_t total_cols = 0;  ///< R = col_offset[L+1]

  Matrix<T> ubig;  ///< N x R, zero-padded per node
  /// N x R like ubig; shared with every factorization of this operator.
  std::shared_ptr<const Matrix<T>> vbig;

  DefaultInitVector<T> dbig;  ///< leaf blocks, column-major, concatenated
  std::vector<index_t> d_offset;  ///< per-leaf offset into dbig (size leaves+1)

  std::vector<index_t> node_rank;  ///< exact per-node ranks (reporting)

  /// Per-level: true when all nodes at that level have the same size, which
  /// enables gemmStridedBatched (paper Sec. III-C). Index by level (0..L).
  std::vector<char> level_uniform;
  bool leaves_uniform = false;

  /// Build the packed form from the per-node representation.
  static PackedHodlr pack(const HodlrMatrix<T>& h);

  index_t depth() const { return tree.depth(); }
  /// Column panel of level l (l = 1..L) of `m` (ubig/vbig-shaped).
  template <typename MatLike>
  auto panel(MatLike& m, index_t level) const {
    return m.block(0, col_offset[level], n, level_rank[level]);
  }
  /// View of the j-th leaf block inside `storage` (dbig-shaped).
  MatrixView<T> leaf_view(DefaultInitVector<T>& storage, index_t j) const {
    const index_t sz = tree.node(tree.leaf(j)).size();
    return {storage.data() + d_offset[j], sz, sz, sz};
  }
  ConstMatrixView<T> leaf_view(const DefaultInitVector<T>& storage,
                               index_t j) const {
    const index_t sz = tree.node(tree.leaf(j)).size();
    return {storage.data() + d_offset[j], sz, sz, sz};
  }

  std::size_t bytes() const {
    return ubig.bytes() + (vbig ? vbig->bytes() : 0) + dbig.size() * sizeof(T);
  }
};

}  // namespace hodlrx
