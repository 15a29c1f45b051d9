#pragma once

#include <gtest/gtest.h>

#include <complex>
#include <cstring>

#include "common/blas.hpp"
#include "common/matrix.hpp"
#include "common/random.hpp"
#include "lowrank/generator.hpp"

/// Shared helpers for the test suite.

namespace hodlrx::test {

/// ||a - b||_F / max(||b||_F, 1).
template <typename T>
real_t<T> rel_error(ConstMatrixView<T> a, ConstMatrixView<T> b) {
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.cols, b.cols);
  Matrix<T> d = to_matrix(a);
  axpy(T{-1}, b, d.view());
  const real_t<T> denom = std::max<real_t<T>>(norm_fro(b), real_t<T>{1});
  return norm_fro(d) / denom;
}

template <typename T>
real_t<T> rel_error(const Matrix<T>& a, const Matrix<T>& b) {
  return rel_error<T>(a.view(), b.view());
}

/// A well-conditioned dense test matrix with HODLR structure: smooth
/// off-diagonal decay plus a strong diagonal.
template <typename T>
Matrix<T> smooth_test_matrix(index_t n, std::uint64_t seed = 3) {
  Matrix<T> a(n, n);
  Rng rng(seed);
  std::vector<double> pts(n);
  for (index_t i = 0; i < n; ++i) pts[i] = rng.uniform<double>(0.0, 1.0);
  std::sort(pts.begin(), pts.end());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      const double d = std::abs(pts[i] - pts[j]);
      const double v = 1.0 / (1.0 + 25.0 * d);
      if constexpr (is_complex_v<T>) {
        a(i, j) = T(v, 0.3 * v * std::sin(7 * (pts[i] + pts[j])));
      } else {
        a(i, j) = static_cast<T>(v);
      }
    }
  for (index_t i = 0; i < n; ++i) a(i, i) += T{2};
  return a;
}

/// relres ||b - A x|| / ||b|| for dense A.
template <typename T>
real_t<T> dense_relres(ConstMatrixView<T> a, ConstMatrixView<T> x,
                       ConstMatrixView<T> b) {
  Matrix<T> r = to_matrix(b);
  gemm(Op::N, Op::N, T{-1}, a, x, T{1}, r.view());
  return norm_fro(r) / norm_fro(b);
}

/// Bitwise equality of two scalars (distinguishes -0 from +0, equates NaNs
/// with the same payload).
template <typename T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Bitwise equality of two matrices of the same shape.
template <typename T>
bool same_bits(const Matrix<T>& a, const Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), sizeof(T) * a.size()) == 0);
}

}  // namespace hodlrx::test
