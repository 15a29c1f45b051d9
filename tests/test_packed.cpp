#include <gtest/gtest.h>

#include <cstring>

#include "core/packed.hpp"
#include "test_util.hpp"

namespace hodlrx {
namespace {

using test::rel_error;

template <typename T>
PackedHodlr<T> make_packed(index_t n, index_t leaf, double tol = 1e-10,
                           std::uint64_t seed = 7) {
  Matrix<T> a = test::smooth_test_matrix<T>(n, seed);
  ClusterTree tree = ClusterTree::uniform(n, leaf);
  BuildOptions opt;
  opt.tol = tol;
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, opt);
  return PackedHodlr<T>::pack(h);
}

TEST(Packed, PanelOffsetsAreConsistent) {
  auto p = make_packed<double>(256, 16);
  const index_t L = p.depth();
  EXPECT_EQ(p.col_offset[1], 0);
  for (index_t l = 1; l <= L; ++l)
    EXPECT_EQ(p.col_offset[l + 1], p.col_offset[l] + p.level_rank[l]);
  EXPECT_EQ(p.total_cols, p.col_offset[L + 1]);
  EXPECT_EQ(p.ubig.rows(), 256);
  EXPECT_EQ(p.ubig.cols(), p.total_cols);
}

TEST(Packed, PanelsContainNodeBases) {
  const index_t n = 200, leaf = 25;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 11);
  ClusterTree tree = ClusterTree::uniform(n, leaf);
  BuildOptions opt;
  opt.tol = 1e-10;
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, opt);
  PackedHodlr<double> p = PackedHodlr<double>::pack(h);

  for (index_t nu = 1; nu < tree.num_nodes(); ++nu) {
    const index_t level = ClusterTree::level_of(nu);
    const ClusterNode& c = tree.node(nu);
    const Matrix<double>& u = h.u(nu);
    // The first rank(nu) panel columns hold U_nu; the rest are zero padding.
    auto panel = p.ubig.view().block(c.begin, p.col_offset[level], c.size(),
                                     p.level_rank[level]);
    for (index_t j = 0; j < u.cols(); ++j)
      for (index_t i = 0; i < c.size(); ++i)
        EXPECT_EQ(panel(i, j), u(i, j));
    for (index_t j = u.cols(); j < p.level_rank[level]; ++j)
      for (index_t i = 0; i < c.size(); ++i)
        EXPECT_EQ(panel(i, j), 0.0);
  }
}

TEST(Packed, ReconstructionFromPanels) {
  // Rebuild the dense matrix from the packed representation alone and
  // compare with HodlrMatrix::to_dense (they must agree exactly).
  const index_t n = 128, leaf = 16;
  Matrix<std::complex<double>> a =
      test::smooth_test_matrix<std::complex<double>>(n, 13);
  ClusterTree tree = ClusterTree::uniform(n, leaf);
  BuildOptions opt;
  opt.tol = 1e-9;
  auto h = HodlrMatrix<std::complex<double>>::build_from_dense(a, tree, opt);
  auto p = PackedHodlr<std::complex<double>>::pack(h);

  Matrix<std::complex<double>> rec(n, n);
  for (index_t j = 0; j < tree.num_leaves(); ++j) {
    const ClusterNode& c = tree.node(tree.leaf(j));
    copy(p.leaf_view(p.dbig, j),
         rec.view().block(c.begin, c.begin, c.size(), c.size()));
  }
  using C = std::complex<double>;
  for (index_t nu = 1; nu < tree.num_nodes(); ++nu) {
    const index_t level = ClusterTree::level_of(nu);
    const index_t sib = ClusterTree::sibling(nu);
    const ClusterNode& rc = tree.node(nu);
    const ClusterNode& cc = tree.node(sib);
    const index_t r = p.level_rank[level];
    if (r == 0) continue;
    // Padded blocks multiply to the same product as the exact ones.
    gemm<C>(Op::N, Op::C, C{1},
            p.ubig.view().block(rc.begin, p.col_offset[level], rc.size(), r),
            p.vbig->view().block(cc.begin, p.col_offset[level], cc.size(), r),
            C{0}, rec.view().block(rc.begin, cc.begin, rc.size(), cc.size()));
  }
  EXPECT_LE(rel_error(rec, h.to_dense()), 1e-14);
}

TEST(Packed, UniformityFlags) {
  auto p1 = make_packed<double>(256, 16);  // power of two: uniform everywhere
  for (index_t l = 0; l <= p1.depth(); ++l) EXPECT_TRUE(p1.level_uniform[l]);
  EXPECT_TRUE(p1.leaves_uniform);

  auto p2 = make_packed<double>(100, 16);  // odd splits: not uniform
  bool any_nonuniform = false;
  for (index_t l = 0; l <= p2.depth(); ++l)
    if (!p2.level_uniform[l]) any_nonuniform = true;
  EXPECT_TRUE(any_nonuniform);
}

TEST(Packed, NodeRankMetadata) {
  const index_t n = 160;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 17);
  ClusterTree tree = ClusterTree::uniform(n, 20);
  BuildOptions opt;
  opt.tol = 1e-9;
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, opt);
  PackedHodlr<double> p = PackedHodlr<double>::pack(h);
  for (index_t nu = 1; nu < tree.num_nodes(); ++nu)
    EXPECT_EQ(p.node_rank[nu], h.rank(nu));
}

TEST(Packed, DbigOffsets) {
  auto p = make_packed<double>(250, 30);
  const index_t leaves = p.tree.num_leaves();
  index_t acc = 0;
  for (index_t j = 0; j < leaves; ++j) {
    EXPECT_EQ(p.d_offset[j], acc);
    const index_t sz = p.tree.node(p.tree.leaf(j)).size();
    acc += sz * sz;
  }
  EXPECT_EQ(p.d_offset[leaves], acc);
  EXPECT_EQ(static_cast<index_t>(p.dbig.size()), acc);
}

/// The panels are allocated unwritten and filled once, so pack must write
/// every padding entry itself. Pack an operator with ragged per-node ranks
/// on a non-uniform tree, drop it, then pack a lower-rank operator of the
/// same shape into the memory the allocator hands back dirty.
TEST(Packed, PaddingIsZeroOnDirtyMemory) {
  const index_t n = 1000;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 19);
  ClusterTree tree = ClusterTree::uniform(n, 37);
  const auto build = [&](double tol) {
    BuildOptions opt;
    opt.tol = tol;
    return HodlrMatrix<double>::build_from_dense(a, tree, opt);
  };
  const HodlrMatrix<double> fine = build(1e-12);
  const HodlrMatrix<double> coarse = build(1e-5);
  ASSERT_LT(coarse.max_rank(), fine.max_rank());
  {
    const PackedHodlr<double> dropped = PackedHodlr<double>::pack(fine);
    ASSERT_GT(dropped.total_cols, 0);
  }
  const PackedHodlr<double> p = PackedHodlr<double>::pack(coarse);

  index_t padded_nodes = 0, nonzero_padding = 0;
  const auto count_nonzero = [&](const Matrix<double>& big, index_t nu,
                                 index_t used) {
    const index_t level = ClusterTree::level_of(nu);
    const ClusterNode& c = tree.node(nu);
    for (index_t j = used; j < p.level_rank[level]; ++j)
      for (index_t i = 0; i < c.size(); ++i)
        if (!test::same_bits(big(c.begin + i, p.col_offset[level] + j), 0.0))
          ++nonzero_padding;
  };
  for (index_t nu = 1; nu < tree.num_nodes(); ++nu) {
    if (coarse.u(nu).cols() < p.level_rank[ClusterTree::level_of(nu)])
      ++padded_nodes;
    count_nonzero(p.ubig, nu, coarse.u(nu).cols());
    count_nonzero(*p.vbig, nu, coarse.v(nu).cols());
  }
  EXPECT_GT(padded_nodes, 0) << "the ranks must be ragged to test padding";
  EXPECT_EQ(nonzero_padding, 0);

  const PackedHodlr<double> q = PackedHodlr<double>::pack(coarse);
  EXPECT_TRUE(test::same_bits(p.ubig, q.ubig));
  EXPECT_TRUE(test::same_bits(*p.vbig, *q.vbig));
  ASSERT_EQ(p.dbig.size(), q.dbig.size());
  EXPECT_EQ(std::memcmp(p.dbig.data(), q.dbig.data(),
                        p.dbig.size() * sizeof(double)),
            0);
}

}  // namespace
}  // namespace hodlrx
