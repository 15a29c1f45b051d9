#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>

#include "batched/batched_blas.hpp"
#include "common/lapack.hpp"
#include "common/random.hpp"
#include "common/trsm_kernel.hpp"
#include "device/device.hpp"
#include "test_util.hpp"

namespace hodlrx {
namespace {

using test::rel_error;

template <typename T>
class BatchedTyped : public ::testing::Test {};
using BatchedTypes = ::testing::Types<float, double, std::complex<float>,
                                      std::complex<double>>;
TYPED_TEST_SUITE(BatchedTyped, BatchedTypes);

template <typename T>
real_t<T> batched_tol() {
  return std::is_same_v<real_t<T>, float> ? real_t<T>(2e-3)
                                          : real_t<T>(1e-10);
}

/// A contiguous n-element buffer viewed as an n x 1 column for fill_uniform.
template <typename T>
MatrixView<T> flat(std::vector<T>& v) {
  return MatrixView<T>{v.data(), static_cast<index_t>(v.size()), 1,
                       static_cast<index_t>(v.size())};
}

/// Upper-triangular R (k x n) out of a compact geqrf factor array.
template <typename T>
Matrix<T> extract_r(ConstMatrixView<T> f) {
  const index_t k = std::min(f.rows, f.cols);
  Matrix<T> r(k, f.cols);
  for (index_t j = 0; j < f.cols; ++j)
    for (index_t i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = f(i, j);
  return r;
}

TYPED_TEST(BatchedTyped, GemmBatchedMatchesLoop) {
  using T = TypeParam;
  const index_t batch = 37;  // larger than thread count -> batched mode
  std::vector<Matrix<T>> a, b, c_batched, c_ref;
  for (index_t i = 0; i < batch; ++i) {
    const index_t m = 5 + i % 7, n = 3 + i % 5, k = 4 + i % 6;
    a.push_back(random_matrix<T>(m, k, 100 + i));
    b.push_back(random_matrix<T>(k, n, 200 + i));
    c_batched.push_back(random_matrix<T>(m, n, 300 + i));
    c_ref.push_back(to_matrix(c_batched.back().view()));
  }
  std::vector<ConstMatrixView<T>> av, bv;
  std::vector<MatrixView<T>> cv;
  for (index_t i = 0; i < batch; ++i) {
    av.push_back(a[i]);
    bv.push_back(b[i]);
    cv.push_back(c_batched[i]);
    gemm<T>(Op::N, Op::N, T{2}, a[i], b[i], T{1}, c_ref[i].view());
  }
  gemm_batched<T>(Op::N, Op::N, T{2}, av, bv, T{1}, cv);
  for (index_t i = 0; i < batch; ++i)
    EXPECT_LE(rel_error(c_batched[i], c_ref[i]), real_t<T>(1e-5));
}

TYPED_TEST(BatchedTyped, GemmBatchedStreamModeMatches) {
  using T = TypeParam;
  const index_t batch = 3;  // fewer than threads -> stream mode under kAuto
  std::vector<Matrix<T>> a, b, c1, c2;
  for (index_t i = 0; i < batch; ++i) {
    a.push_back(random_matrix<T>(50, 40, 10 + i));
    b.push_back(random_matrix<T>(40, 30, 20 + i));
    c1.push_back(Matrix<T>(50, 30));
    c2.push_back(Matrix<T>(50, 30));
  }
  std::vector<ConstMatrixView<T>> av(a.begin(), a.end()),
      bv(b.begin(), b.end());
  std::vector<MatrixView<T>> cv1(c1.begin(), c1.end()),
      cv2(c2.begin(), c2.end());
  gemm_batched<T>(Op::N, Op::N, T{1}, av, bv, T{0}, cv1,
                  BatchPolicy::kForceStream);
  gemm_batched<T>(Op::N, Op::N, T{1}, av, bv, T{0}, cv2,
                  BatchPolicy::kForceBatched);
  for (index_t i = 0; i < batch; ++i)
    EXPECT_LE(rel_error(c1[i], c2[i]), real_t<T>(1e-5));
}

TYPED_TEST(BatchedTyped, GemmStridedBatched) {
  using T = TypeParam;
  const index_t m = 6, n = 4, k = 5, batch = 10;
  std::vector<T> a(m * k * batch), b(k * n * batch), c(m * n * batch);
  Rng rng(33);
  rng.fill_uniform<T>(MatrixView<T>{a.data(), static_cast<index_t>(a.size()), 1,
                                    static_cast<index_t>(a.size())});
  rng.fill_uniform<T>(MatrixView<T>{b.data(), static_cast<index_t>(b.size()), 1,
                                    static_cast<index_t>(b.size())});
  std::vector<T> c_ref = c;
  gemm_strided_batched<T>(Op::N, Op::N, m, n, k, T{1}, a.data(), m, m * k,
                          b.data(), k, k * n, T{0}, c.data(), m, m * n, batch);
  for (index_t i = 0; i < batch; ++i) {
    ConstMatrixView<T> ai(a.data() + i * m * k, m, k, m);
    ConstMatrixView<T> bi(b.data() + i * k * n, k, n, k);
    MatrixView<T> ci{c_ref.data() + i * m * n, m, n, m};
    gemm<T>(Op::N, Op::N, T{1}, ai, bi, T{0}, ci);
  }
  ConstMatrixView<T> cc(c.data(), static_cast<index_t>(c.size()), 1,
                        static_cast<index_t>(c.size()));
  ConstMatrixView<T> cr(c_ref.data(), static_cast<index_t>(c_ref.size()), 1,
                        static_cast<index_t>(c_ref.size()));
  EXPECT_LE(rel_error<T>(cc, cr), real_t<T>(1e-5));
}

/// Edge shapes of gemm_strided_batched against one serial gemm per problem:
/// degenerate 1x1x1, a register-tile tail (across-batch SIMD eligible), an
/// uneven mid-size, a larger shape, and the stride-0 shared-B layout.
TYPED_TEST(BatchedTyped, GemmStridedBatchedEdgeShapesMatchReference) {
  using T = TypeParam;
  struct Shape {
    index_t m, n, k, batch;
    bool shared_b;  // stride_b = 0: the shared-operand fast path
  };
  const Shape shapes[] = {{1, 1, 1, 3, false},
                          {3, 2, 4, 9, false},
                          {7, 5, 6, 4, false},
                          {33, 21, 17, 3, false},
                          {6, 4, 5, 8, true}};
  for (const Shape& sh : shapes) {
    SCOPED_TRACE("m=" + std::to_string(sh.m) + " n=" + std::to_string(sh.n) +
                 " k=" + std::to_string(sh.k) +
                 " shared_b=" + std::to_string(sh.shared_b));
    const index_t stride_a = sh.m * sh.k, stride_c = sh.m * sh.n;
    const index_t stride_b = sh.shared_b ? 0 : sh.k * sh.n;
    std::vector<T> a(static_cast<std::size_t>(stride_a) * sh.batch);
    std::vector<T> b(static_cast<std::size_t>(sh.k) * sh.n *
                     (sh.shared_b ? 1 : sh.batch));
    std::vector<T> c(static_cast<std::size_t>(stride_c) * sh.batch);
    Rng rng(17);
    rng.fill_uniform<T>(flat(a));
    rng.fill_uniform<T>(flat(b));
    rng.fill_uniform<T>(flat(c));
    std::vector<T> c_ref = c;
    for (index_t i = 0; i < sh.batch; ++i)
      gemm<T>(Op::N, Op::N, T{2},
              ConstMatrixView<T>(a.data() + i * stride_a, sh.m, sh.k, sh.m),
              ConstMatrixView<T>(b.data() + i * stride_b, sh.k, sh.n, sh.k),
              T{1},
              MatrixView<T>{c_ref.data() + i * stride_c, sh.m, sh.n, sh.m});
    gemm_strided_batched<T>(Op::N, Op::N, sh.m, sh.n, sh.k, T{2}, a.data(),
                            sh.m, stride_a, b.data(), sh.k, stride_b, T{1},
                            c.data(), sh.m, stride_c, sh.batch);
    for (index_t i = 0; i < sh.batch; ++i)
      EXPECT_LE(
          rel_error<T>(
              ConstMatrixView<T>(c.data() + i * stride_c, sh.m, sh.n, sh.m),
              ConstMatrixView<T>(c_ref.data() + i * stride_c, sh.m, sh.n,
                                 sh.m)),
          batched_tol<T>());
  }
}

/// Small geqrf + thin_q shapes (1x1 and sub-panel tall/square blocks) under
/// the default policy: Q is orthonormal, Q R reproduces the input, and the
/// reconstruction matches the serial reference's.
TYPED_TEST(BatchedTyped, GeqrfAndThinQStridedBatchedMatchReference) {
  using T = TypeParam;
  struct Shape {
    index_t m, n, batch;
  };
  const Shape shapes[] = {{1, 1, 2}, {5, 3, 4}, {9, 9, 3}, {24, 7, 5}};
  for (const Shape& sh : shapes) {
    SCOPED_TRACE("m=" + std::to_string(sh.m) + " n=" + std::to_string(sh.n));
    const index_t kq = std::min(sh.m, sh.n);
    const index_t stride_a = sh.m * sh.n, stride_tau = kq;
    std::vector<T> a(static_cast<std::size_t>(stride_a) * sh.batch);
    Rng rng(91);
    rng.fill_uniform<T>(flat(a));
    std::vector<T> a0 = a;  // pristine input
    std::vector<T> tau(static_cast<std::size_t>(stride_tau) * sh.batch);
    geqrf_strided_batched<T>(a.data(), sh.m, stride_a, sh.m, sh.n, tau.data(),
                             stride_tau, sh.batch);
    std::vector<T> q = a;  // factored form -> explicit thin Q, in place
    thin_q_strided_batched<T>(q.data(), sh.m, stride_a, sh.m, sh.n,
                              tau.data(), stride_tau, sh.batch);
    for (index_t i = 0; i < sh.batch; ++i) {
      const ConstMatrixView<T> fi(a.data() + i * stride_a, sh.m, sh.n, sh.m);
      const ConstMatrixView<T> qi(q.data() + i * stride_a, sh.m, kq, sh.m);
      const ConstMatrixView<T> ai(a0.data() + i * stride_a, sh.m, sh.n, sh.m);
      Matrix<T> g(kq, kq);
      gemm<T>(Op::C, Op::N, T{1}, qi, qi, T{0}, g.view());
      EXPECT_LE(rel_error<T>(g.view(), Matrix<T>::identity(kq).view()),
                batched_tol<T>());
      Matrix<T> rec(sh.m, sh.n);
      gemm<T>(Op::N, Op::N, T{1}, qi, extract_r<T>(fi).view(), T{0},
              rec.view());
      EXPECT_LE(rel_error<T>(rec.view(), ai), batched_tol<T>());
      const QRFactors<T> ref = geqrf_reference<T>(ai);
      Matrix<T> rec_ref(sh.m, sh.n);
      gemm<T>(Op::N, Op::N, T{1}, thin_q_reference<T>(ref).view(),
              extract_r<T>(ref.factors.view()).view(), T{0}, rec_ref.view());
      EXPECT_LE(rel_error<T>(rec.view(), rec_ref.view()),
                real_t<T>(2) * batched_tol<T>());
    }
  }
}

/// trsm_batched over a ragged batch (n = 1, 4, ..., 16; 1-4 RHS columns)
/// for every uplo/diag pair against the serial reference.
TYPED_TEST(BatchedTyped, TrsmBatchedRaggedAllUploDiagMatchReference) {
  using T = TypeParam;
  for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    for (const Diag diag : {Diag::Unit, Diag::NonUnit}) {
      SCOPED_TRACE(std::string("uplo=") + (uplo == Uplo::Lower ? "L" : "U") +
                   (diag == Diag::Unit ? " unit" : " nonunit"));
      const index_t batch = 6;
      std::vector<Matrix<T>> a, b, b_ref;
      for (index_t i = 0; i < batch; ++i) {
        const index_t n = 1 + 3 * i, nrhs = 1 + i % 4;
        Matrix<T> ai =
            random_matrix<T>(n, n, 40 + static_cast<std::uint64_t>(i));
        for (index_t d = 0; d < n; ++d) ai(d, d) += T{4};  // well-posed
        a.push_back(std::move(ai));
        b.push_back(
            random_matrix<T>(n, nrhs, 70 + static_cast<std::uint64_t>(i)));
        b_ref.push_back(to_matrix(b.back().view()));
        trsm_left_reference<T>(uplo, diag, a.back().view(),
                               b_ref.back().view());
      }
      std::vector<ConstMatrixView<T>> av(a.begin(), a.end());
      std::vector<MatrixView<T>> bv(b.begin(), b.end());
      trsm_batched<T>(uplo, diag, av, bv);
      for (index_t i = 0; i < batch; ++i)
        EXPECT_LE(rel_error(b[static_cast<std::size_t>(i)],
                            b_ref[static_cast<std::size_t>(i)]),
                  batched_tol<T>());
    }
  }
}

TYPED_TEST(BatchedTyped, GetrfGetrsBatched) {
  using T = TypeParam;
  using R = real_t<T>;
  const index_t batch = 25;
  std::vector<Matrix<T>> a0, lu, b, x;
  std::vector<std::vector<index_t>> piv(batch);
  for (index_t i = 0; i < batch; ++i) {
    const index_t n = 8 + i % 9;
    a0.push_back(random_matrix<T>(n, n, 40 + i));
    for (index_t d = 0; d < n; ++d) a0.back()(d, d) += T{5};
    lu.push_back(to_matrix(a0.back().view()));
    b.push_back(random_matrix<T>(n, 3, 50 + i));
    x.push_back(to_matrix(b.back().view()));
    piv[i].assign(n, 0);
  }
  std::vector<MatrixView<T>> luv(lu.begin(), lu.end());
  std::vector<index_t*> pv;
  for (auto& p : piv) pv.push_back(p.data());
  getrf_batched<T>(luv, pv);

  std::vector<ConstMatrixView<T>> luc(lu.begin(), lu.end());
  std::vector<const index_t*> pvc(pv.begin(), pv.end());
  std::vector<MatrixView<T>> xv(x.begin(), x.end());
  getrs_batched<T>(luc, pvc, xv);
  for (index_t i = 0; i < batch; ++i)
    EXPECT_LE(test::dense_relres<T>(a0[i], x[i], b[i]),
              R(std::is_same_v<R, float> ? 1e-4 : 1e-12));
}

TYPED_TEST(BatchedTyped, GetrfNopivotBatched) {
  using T = TypeParam;
  using R = real_t<T>;
  const index_t batch = 9, n = 12;
  std::vector<Matrix<T>> a0, lu, b;
  for (index_t i = 0; i < batch; ++i) {
    a0.push_back(random_matrix<T>(n, n, 60 + i));
    for (index_t d = 0; d < n; ++d) a0.back()(d, d) += T{30};
    lu.push_back(to_matrix(a0.back().view()));
    b.push_back(random_matrix<T>(n, 2, 70 + i));
  }
  std::vector<MatrixView<T>> luv(lu.begin(), lu.end());
  getrf_nopivot_batched<T>(luv);
  std::vector<Matrix<T>> x;
  for (index_t i = 0; i < batch; ++i) x.push_back(to_matrix(b[i].view()));
  std::vector<ConstMatrixView<T>> luc(lu.begin(), lu.end());
  std::vector<MatrixView<T>> xv(x.begin(), x.end());
  getrs_nopivot_batched<T>(luc, xv);
  for (index_t i = 0; i < batch; ++i)
    EXPECT_LE(test::dense_relres<T>(a0[i], x[i], b[i]),
              R(std::is_same_v<R, float> ? 1e-4 : 1e-12));
}

TEST(Batched, EmptyBatchIsNoop) {
  std::vector<ConstMatrixView<double>> a, b;
  std::vector<MatrixView<double>> c;
  gemm_batched<double>(Op::N, Op::N, 1.0, a, b, 0.0, c);  // must not crash
  std::vector<MatrixView<double>> lu;
  std::vector<index_t*> piv;
  getrf_batched<double>(lu, piv);
}

TEST(Batched, LaunchCounterCountsCalls) {
  DeviceContext::global().reset_counters();
  Matrix<double> a = random_matrix<double>(4, 4, 1);
  Matrix<double> b = random_matrix<double>(4, 4, 2);
  Matrix<double> c(4, 4);
  std::vector<ConstMatrixView<double>> av = {a, a, a}, bv = {b, b, b};
  std::vector<Matrix<double>> cs(3, Matrix<double>(4, 4));
  std::vector<MatrixView<double>> cv(cs.begin(), cs.end());
  gemm_batched<double>(Op::N, Op::N, 1.0, av, bv, 0.0, cv);
  EXPECT_EQ(DeviceContext::global().launches(), 1u);
  gemm_batched<double>(Op::N, Op::N, 1.0, av, bv, 0.0, cv);
  EXPECT_EQ(DeviceContext::global().launches(), 2u);
}

}  // namespace
}  // namespace hodlrx
