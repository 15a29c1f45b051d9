#include "core/packed.hpp"

#include <algorithm>
#include <complex>
#include <memory>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace hodlrx {

template <typename T>
PackedHodlr<T> PackedHodlr<T>::pack(const HodlrMatrix<T>& h) {
  PackedHodlr<T> p;
  p.tree = h.tree();
  p.n = h.n();
  const index_t depth = p.tree.depth();

  // Per-level maximum ranks and panel offsets.
  p.level_rank.assign(depth + 1, 0);
  p.node_rank.assign(p.tree.num_nodes(), 0);
  for (index_t nu = 1; nu < p.tree.num_nodes(); ++nu) {
    const index_t level = ClusterTree::level_of(nu);
    p.node_rank[nu] = h.rank(nu);
    p.level_rank[level] = std::max(p.level_rank[level], h.rank(nu));
  }
  p.col_offset.assign(depth + 2, 0);
  for (index_t l = 1; l <= depth; ++l)
    p.col_offset[l + 1] = p.col_offset[l] + p.level_rank[l];
  p.total_cols = p.col_offset[depth + 1];

  // Uniformity flags (strided-batched eligibility).
  p.level_uniform.assign(depth + 1, 1);
  for (index_t l = 0; l <= depth; ++l) {
    const index_t first = ClusterTree::level_begin(l);
    for (index_t i = first; i < ClusterTree::level_begin(l + 1); ++i)
      if (p.tree.node(i).size() != p.tree.node(first).size())
        p.level_uniform[l] = 0;
  }
  p.leaves_uniform = p.level_uniform[depth] != 0;

  const index_t leaves = p.tree.num_leaves();
  p.d_offset.assign(leaves + 1, 0);
  for (index_t j = 0; j < leaves; ++j) {
    const index_t sz = p.tree.node(p.tree.leaf(j)).size();
    p.d_offset[j + 1] = p.d_offset[j] + sz * sz;
  }

  // One launch writes every coefficient exactly once, so nothing is
  // zero-filled first. The nodes of a level partition the rows and the
  // level panels partition the columns: node nu's rows of its level panel
  // take U_nu (resp. V_nu, which has rank(sibling(nu)) columns) and then
  // zero padding up to level_rank. The leaf blocks tile dbig.
  Matrix<T> ubig = Matrix<T>::uninitialized(p.n, p.total_cols);
  Matrix<T> vbig = Matrix<T>::uninitialized(p.n, p.total_cols);
  p.dbig.resize(static_cast<std::size_t>(p.d_offset[leaves]));
  const index_t bases = p.tree.num_nodes() - 1;  // the root has none
  parallel_for(bases + leaves, [&](index_t i) {
    if (i >= bases) {
      const index_t j = i - bases;
      copy(ConstMatrixView<T>(h.leaf_block(j)), p.leaf_view(p.dbig, j));
      return;
    }
    const index_t nu = i + 1;
    const index_t level = ClusterTree::level_of(nu);
    const ClusterNode& c = p.tree.node(nu);
    const auto place = [&](const Matrix<T>& basis, Matrix<T>& big) {
      MatrixView<T> blk = big.block(c.begin, p.col_offset[level], c.size(),
                                    p.level_rank[level]);
      if (basis.cols() > 0)
        copy(basis.view(), blk.cols_range(0, basis.cols()));
      for (index_t j = basis.cols(); j < blk.cols; ++j)
        std::fill_n(blk.data + j * blk.ld, blk.rows, T{});
    };
    place(h.u(nu), ubig);
    place(h.v(nu), vbig);
  });
  p.ubig = std::move(ubig);
  p.vbig = std::make_shared<const Matrix<T>>(std::move(vbig));
  return p;
}

template struct PackedHodlr<float>;
template struct PackedHodlr<double>;
template struct PackedHodlr<std::complex<float>>;
template struct PackedHodlr<std::complex<double>>;

}  // namespace hodlrx
