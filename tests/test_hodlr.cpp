#include <gtest/gtest.h>

#include "batched/batched_blas.hpp"
#include "bie/laplace.hpp"
#include "core/factorization.hpp"
#include "core/hodlr.hpp"
#include "core/packed.hpp"
#include "kernels/kernels.hpp"
#include "test_util.hpp"

namespace hodlrx {
namespace {

using test::rel_error;
using test::same_bits;

template <typename T>
class HodlrTyped : public ::testing::Test {};
using HodlrTypes = ::testing::Types<double, std::complex<double>>;
TYPED_TEST_SUITE(HodlrTyped, HodlrTypes);

TYPED_TEST(HodlrTyped, BuildApproximatesDense) {
  using T = TypeParam;
  for (index_t n : {64, 100, 256}) {
    Matrix<T> a = test::smooth_test_matrix<T>(n, 70 + n);
    ClusterTree tree = ClusterTree::uniform(n, 16);
    BuildOptions opt;
    opt.tol = 1e-10;
    HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, opt);
    EXPECT_LE(rel_error(h.to_dense(), a), 1e-8) << "n=" << n;
  }
}

TYPED_TEST(HodlrTyped, ApplyMatchesDense) {
  using T = TypeParam;
  const index_t n = 200, nrhs = 3;
  Matrix<T> a = test::smooth_test_matrix<T>(n, 77);
  ClusterTree tree = ClusterTree::uniform(n, 32);
  BuildOptions opt;
  opt.tol = 1e-10;
  HodlrMatrix<T> h = HodlrMatrix<T>::build_from_dense(a, tree, opt);
  Matrix<T> x = random_matrix<T>(n, nrhs, 78);
  Matrix<T> y(n, nrhs), y_ref(n, nrhs);
  h.apply(x, y.view());
  gemm<T>(Op::N, Op::N, T{1}, a, x, T{0}, y_ref.view());
  EXPECT_LE(rel_error(y, y_ref), 1e-8);
}

TEST(Hodlr, GaussianKernelRanksAreSmall) {
  const index_t n = 512;
  PointSet pts = uniform_random_points(n, 1, -1, 1, 5);
  GeometricTree g = build_kd_tree(pts, 64);
  GaussianKernel<double> k(std::move(g.points), 0.5, 1e-2);
  BuildOptions opt;
  opt.tol = 1e-10;
  HodlrMatrix<double> h = HodlrMatrix<double>::build(k, g.tree, opt);
  // 1-D Gaussian kernel blocks have tiny numerical rank.
  EXPECT_LE(h.max_rank(), 30);
  const auto ladder = h.rank_ladder();
  EXPECT_EQ(static_cast<index_t>(ladder.size()), g.tree.depth());
}

TEST(Hodlr, DepthZeroIsDense) {
  const index_t n = 24;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 80);
  ClusterTree tree = ClusterTree::with_depth(n, 0);
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, {});
  EXPECT_LE(rel_error(h.to_dense(), a), 1e-14);
  EXPECT_EQ(h.max_rank(), 0);
}

TEST(Hodlr, BlockDiagonalHasRankZero) {
  const index_t n = 64;
  Matrix<double> a(n, n);
  for (index_t i = 0; i < n; ++i) a(i, i) = 2.0 + i;
  ClusterTree tree = ClusterTree::uniform(n, 16);
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, {});
  EXPECT_EQ(h.max_rank(), 0);
  EXPECT_LE(rel_error(h.to_dense(), a), 1e-15);
}

TEST(Hodlr, NonPowerOfTwoSizes) {
  for (index_t n : {97, 130, 255}) {
    Matrix<double> a = test::smooth_test_matrix<double>(n, 90 + n);
    ClusterTree tree = ClusterTree::uniform(n, 20);
    BuildOptions opt;
    opt.tol = 1e-10;
    HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, opt);
    EXPECT_LE(rel_error(h.to_dense(), a), 1e-8) << n;
  }
}

TEST(Hodlr, BytesIsPlausible) {
  const index_t n = 256;
  Matrix<double> a = test::smooth_test_matrix<double>(n, 99);
  ClusterTree tree = ClusterTree::uniform(n, 32);
  BuildOptions opt;
  opt.tol = 1e-8;
  HodlrMatrix<double> h = HodlrMatrix<double>::build_from_dense(a, tree, opt);
  EXPECT_GT(h.bytes(), 0u);
  EXPECT_LT(h.bytes(), a.bytes());  // compression actually compresses
}

/// The generator-backed batched build: a kernel-defined BIE problem (paper
/// Tables 3-5 class) compressed with Compressor::kRsvdBatched straight from
/// the MatrixGenerator must (a) never materialize the full dense matrix —
/// blocks are pulled tile-by-tile — (b) actually run the batched QR tail,
/// and (c) produce the same factors (and hence the same solve residual) as
/// the dense-view build, which uses identical sketch seeds.
TEST(Hodlr, GeneratorRsvdBatchedMatchesDenseViewBuild) {
  const index_t n = 512;
  bie::BlobContour contour;
  bie::ContourDiscretization d = bie::discretize(contour, n);
  bie::LaplaceExteriorBIE<double> gen(d, {0.0, 0.0});
  ClusterTree tree = ClusterTree::uniform(n, 64);
  BuildOptions opt;
  opt.compressor = Compressor::kRsvdBatched;
  opt.max_rank = 48;
  opt.tol = 1e-10;
  opt.rsvd_power_iterations = 2;

  generator_stats::reset();
  qr_stats::reset();
  HodlrMatrix<double> h = HodlrMatrix<double>::build(gen, tree, opt);
  EXPECT_EQ(generator_stats::full_materializations(), 0u)
      << "generator-backed batched build must never form the dense matrix";
  EXPECT_GE(qr_stats::geqrf_batched_sweeps(), 1u)
      << "the compression tail must run through the batched QR engine";
  EXPECT_EQ(qr_stats::geqrf_batched_sweeps(), qr_stats::thin_q_batched_sweeps());

  // The dense-view build sees identical block entries and sketch seeds, so
  // the compressed operators must agree to roundoff.
  Matrix<double> a = materialize(gen);
  HodlrMatrix<double> hd = HodlrMatrix<double>::build_from_dense(a, tree, opt);
  EXPECT_LE(rel_error(h.to_dense(), hd.to_dense()), 1e-9);

  // And so must the solve residuals against the true (uncompressed) operator.
  auto fg =
      HodlrFactorization<double>::factor(PackedHodlr<double>::pack(h), {});
  auto fd =
      HodlrFactorization<double>::factor(PackedHodlr<double>::pack(hd), {});
  Matrix<double> b = random_matrix<double>(n, 1, 4242);
  Matrix<double> xg = fg.solve(b);
  Matrix<double> xd = fd.solve(b);
  const double rg = test::dense_relres<double>(a, xg, b);
  const double rd = test::dense_relres<double>(a, xd, b);
  EXPECT_LE(rg, 1e-7);
  EXPECT_NEAR(rg, rd, 1e-9);
}

/// Non-power-of-two problems hit the non-uniform fallback of the generator
/// path: still no dense materialization, and the compressed operator must
/// approximate the kernel matrix.
TEST(Hodlr, GeneratorRsvdBatchedNonUniformLevels) {
  const index_t n = 300;
  bie::BlobContour contour;
  bie::ContourDiscretization d = bie::discretize(contour, n);
  bie::LaplaceExteriorBIE<double> gen(d, {0.0, 0.0});
  ClusterTree tree = ClusterTree::uniform(n, 40);
  BuildOptions opt;
  opt.compressor = Compressor::kRsvdBatched;
  opt.max_rank = 48;
  opt.tol = 1e-10;
  opt.rsvd_power_iterations = 2;
  generator_stats::reset();
  HodlrMatrix<double> h = HodlrMatrix<double>::build(gen, tree, opt);
  EXPECT_EQ(generator_stats::full_materializations(), 0u);
  Matrix<double> a = materialize(gen);
  EXPECT_LE(rel_error(h.to_dense(), a), 1e-7);
}

/// Exposes only entry() of another generator, so every fill of a build runs
/// through the base-class per-entry loops.
template <typename T>
class EntryOnlyGenerator final : public MatrixGenerator<T> {
 public:
  explicit EntryOnlyGenerator(const MatrixGenerator<T>& g) : g_(g) {}
  index_t rows() const override { return g_.rows(); }
  index_t cols() const override { return g_.cols(); }
  T entry(index_t i, index_t j) const override { return g_.entry(i, j); }

 private:
  const MatrixGenerator<T>& g_;
};

/// The Laplace generator's bulk row/column fills only change speed: an ACA
/// build through them and one through per-entry calls produce the same
/// ranks and bitwise-identical bases and leaf blocks.
TEST(Hodlr, BulkFillBuildMatchesPerEntryBuild) {
  const index_t n = 4096;
  bie::BlobContour contour;
  bie::LaplaceExteriorBIE<double> gen(bie::discretize(contour, n),
                                      {0.35, -0.2});
  EntryOnlyGenerator<double> per_entry(gen);
  ClusterTree tree = ClusterTree::uniform(n, 64);
  BuildOptions opt;
  opt.compressor = Compressor::kAca;
  opt.tol = 1e-12;
  HodlrMatrix<double> fast = HodlrMatrix<double>::build(gen, tree, opt);
  HodlrMatrix<double> slow = HodlrMatrix<double>::build(per_entry, tree, opt);

  EXPECT_EQ(fast.rank_ladder(), slow.rank_ladder());
  for (index_t nu = 1; nu < tree.num_nodes(); ++nu) {
    EXPECT_TRUE(same_bits(fast.u(nu), slow.u(nu))) << "U of node " << nu;
    EXPECT_TRUE(same_bits(fast.v(nu), slow.v(nu))) << "V of node " << nu;
  }
  for (index_t j = 0; j < tree.num_leaves(); ++j)
    EXPECT_TRUE(same_bits(fast.leaf_block(j), slow.leaf_block(j)))
        << "leaf " << j;
}

TEST(Hodlr, MismatchedTreeThrows) {
  Matrix<double> a = test::smooth_test_matrix<double>(32, 1);
  ClusterTree tree = ClusterTree::uniform(64, 16);
  EXPECT_THROW(HodlrMatrix<double>::build_from_dense(a, tree, {}), Error);
}

}  // namespace
}  // namespace hodlrx
