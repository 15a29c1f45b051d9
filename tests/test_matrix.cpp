#include <gtest/gtest.h>

#include "test_util.hpp"

namespace hodlrx {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  Matrix<double> a(3, 4);
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 4);
  EXPECT_EQ(a.size(), 12);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 3; ++i) EXPECT_EQ(a(i, j), 0.0);
  a(2, 3) = 7.5;
  EXPECT_EQ(a(2, 3), 7.5);
}

TEST(Matrix, ColumnMajorLayout) {
  Matrix<double> a(3, 2);
  a(0, 0) = 1;
  a(1, 0) = 2;
  a(2, 0) = 3;
  a(0, 1) = 4;
  EXPECT_EQ(a.data()[0], 1);
  EXPECT_EQ(a.data()[1], 2);
  EXPECT_EQ(a.data()[2], 3);
  EXPECT_EQ(a.data()[3], 4);
}

TEST(Matrix, BlockViewAddressing) {
  Matrix<double> a(6, 6);
  for (index_t j = 0; j < 6; ++j)
    for (index_t i = 0; i < 6; ++i) a(i, j) = 10.0 * i + j;
  MatrixView<double> blk = a.view().block(2, 3, 3, 2);
  EXPECT_EQ(blk.rows, 3);
  EXPECT_EQ(blk.cols, 2);
  EXPECT_EQ(blk(0, 0), 23.0);
  EXPECT_EQ(blk(2, 1), 44.0);
  blk(1, 0) = -1;
  EXPECT_EQ(a(3, 3), -1.0);
}

TEST(Matrix, NestedBlocks) {
  Matrix<double> a(8, 8);
  a(5, 6) = 42;
  auto outer = a.view().block(4, 4, 4, 4);
  auto inner = outer.block(1, 2, 2, 2);
  EXPECT_EQ(inner(0, 0), 42.0);
}

TEST(Matrix, Identity) {
  Matrix<std::complex<double>> eye = Matrix<std::complex<double>>::identity(4);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 4; ++i)
      EXPECT_EQ(eye(i, j), std::complex<double>(i == j ? 1.0 : 0.0));
}

TEST(Matrix, CopyStridedViews) {
  Matrix<double> a(5, 5), b(3, 2);
  for (index_t j = 0; j < 5; ++j)
    for (index_t i = 0; i < 5; ++i) a(i, j) = i + 10.0 * j;
  copy<double>(a.view().block(1, 2, 3, 2), b.view());
  EXPECT_EQ(b(0, 0), 21.0);
  EXPECT_EQ(b(2, 1), 33.0);
}

TEST(Matrix, TransposeAndConjugate) {
  using C = std::complex<double>;
  Matrix<C> a(2, 3);
  a(0, 1) = C(1, 2);
  a(1, 2) = C(-3, 4);
  Matrix<C> at = transpose(a);
  Matrix<C> ah = transpose(a, /*conjugate=*/true);
  EXPECT_EQ(at.rows(), 3);
  EXPECT_EQ(at(1, 0), C(1, 2));
  EXPECT_EQ(ah(1, 0), C(1, -2));
  EXPECT_EQ(ah(2, 1), C(-3, -4));
}

TEST(Matrix, ToMatrixDeepCopies) {
  Matrix<double> a(2, 2);
  a(0, 0) = 5;
  Matrix<double> b = to_matrix(a.view());
  b(0, 0) = 9;
  EXPECT_EQ(a(0, 0), 5.0);
}

TEST(Matrix, ResizeZeroes) {
  Matrix<double> a(2, 2);
  a(1, 1) = 3;
  a.resize(4, 4);
  EXPECT_EQ(a(1, 1), 0.0);
  EXPECT_EQ(a.rows(), 4);
}

/// Matrix storage default-initializes on resize (Matrix::uninitialized), so
/// the zeroing constructors must fill explicitly: each runs on memory that
/// a dropped, junk-filled matrix of the same size just handed back.
template <typename T>
void expect_zeroing_on_dirty_memory() {
  const index_t rows = 97, cols = 13;
  const auto all_zero = [](const Matrix<T>& m) {
    for (index_t j = 0; j < m.cols(); ++j)
      for (index_t i = 0; i < m.rows(); ++i)
        if (!test::same_bits(m(i, j), T{})) return false;
    return true;
  };
  const auto dirty = [&] {
    Matrix<T> m = Matrix<T>::uninitialized(rows, cols);
    std::fill(m.data(), m.data() + m.size(), T{3});
    return m;
  };
  { Matrix<T> junk = dirty(); }
  EXPECT_TRUE(all_zero(Matrix<T>(rows, cols)));
  { Matrix<T> junk = dirty(); }
  Matrix<T> r;
  r.resize(rows, cols);
  EXPECT_TRUE(all_zero(r));
  Matrix<T> z = dirty();
  z.set_zero();
  EXPECT_TRUE(all_zero(z));
}

TEST(Matrix, ZeroingConstructorsFillDirtyMemory) {
  expect_zeroing_on_dirty_memory<double>();
  expect_zeroing_on_dirty_memory<std::complex<float>>();
}

TEST(Matrix, UninitializedHasShape) {
  Matrix<double> a = Matrix<double>::uninitialized(5, 3);
  EXPECT_EQ(a.rows(), 5);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_EQ(a.bytes(), 15 * sizeof(double));
  EXPECT_TRUE(Matrix<double>::uninitialized(0, 4).empty());
  EXPECT_THROW(Matrix<double>::uninitialized(2, -1), Error);
}

TEST(Matrix, EmptyMatrix) {
  Matrix<double> a(0, 5);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.size(), 0);
  Matrix<double> b(5, 0);
  EXPECT_TRUE(b.empty());
}

TEST(Matrix, NegativeDimensionThrows) {
  EXPECT_THROW(Matrix<double>(-1, 2), Error);
}

TEST(Matrix, CopyShapeMismatchThrows) {
  Matrix<double> a(2, 2), b(3, 2);
  EXPECT_THROW(copy<double>(a.view(), b.view()), Error);
}

TEST(Matrix, BytesAccounting) {
  Matrix<double> a(10, 10);
  EXPECT_EQ(a.bytes(), 100 * sizeof(double));
}

TEST(Matrix, ContiguityFlag) {
  Matrix<double> a(6, 6);
  EXPECT_TRUE(a.view().contiguous());
  EXPECT_FALSE(a.view().block(0, 0, 3, 2).contiguous());
  EXPECT_TRUE(a.view().block(0, 2, 6, 2).contiguous());
}

}  // namespace
}  // namespace hodlrx
