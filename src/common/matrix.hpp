#pragma once

#include <algorithm>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/scalar.hpp"

/// \file matrix.hpp
/// Column-major dense matrices and non-owning views.
///
/// `Matrix<T>` owns storage (leading dimension == rows). `MatrixView<T>` and
/// `ConstMatrixView<T>` are cheap trivially-copyable (data, rows, cols, ld)
/// descriptors used by every BLAS-like routine in the project; a `Matrix`
/// converts implicitly to either view. Views allow sub-block addressing
/// without copies, which is the backbone of the packed HODLR layout.

namespace hodlrx {

/// Marks a function parameter as a non-deduced context so that implicit
/// conversions (Matrix -> view, MatrixView -> ConstMatrixView) apply at call
/// sites; the template argument is deduced from the other parameters.
template <typename T>
using NoDeduce = std::type_identity_t<T>;

template <typename T>
struct ConstMatrixView;

/// Aligned scalar storage whose `resize(n)` leaves new elements unwritten
/// (DefaultInitAllocator); `assign(n, T{})` still zero-fills.
template <typename T>
using DefaultInitVector = std::vector<T, DefaultInitAllocator<T>>;

/// Non-owning mutable view of a column-major block.
template <typename T>
struct MatrixView {
  T* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 0;  ///< leading dimension (stride between columns)

  T& operator()(index_t i, index_t j) const {
    HODLRX_DBG_ASSERT(i >= 0 && i < rows && j >= 0 && j < cols);
    return data[i + j * ld];
  }

  /// Sub-block [i0, i0+nr) x [j0, j0+nc).
  MatrixView block(index_t i0, index_t j0, index_t nr, index_t nc) const {
    HODLRX_DBG_ASSERT(i0 >= 0 && j0 >= 0 && i0 + nr <= rows && j0 + nc <= cols);
    return {data + i0 + j0 * ld, nr, nc, ld};
  }
  MatrixView col(index_t j) const { return block(0, j, rows, 1); }
  MatrixView cols_range(index_t j0, index_t nc) const {
    return block(0, j0, rows, nc);
  }
  MatrixView rows_range(index_t i0, index_t nr) const {
    return block(i0, 0, nr, cols);
  }
  bool empty() const { return rows == 0 || cols == 0; }
  /// True when the block is contiguous in memory (ld == rows or single col).
  bool contiguous() const { return ld == rows || cols <= 1; }
};

/// Non-owning read-only view of a column-major block.
template <typename T>
struct ConstMatrixView {
  const T* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 0;

  ConstMatrixView() = default;
  ConstMatrixView(const T* d, index_t r, index_t c, index_t l)
      : data(d), rows(r), cols(c), ld(l) {}
  ConstMatrixView(MatrixView<T> v)  // NOLINT: implicit by design
      : data(v.data), rows(v.rows), cols(v.cols), ld(v.ld) {}

  const T& operator()(index_t i, index_t j) const {
    HODLRX_DBG_ASSERT(i >= 0 && i < rows && j >= 0 && j < cols);
    return data[i + j * ld];
  }
  ConstMatrixView block(index_t i0, index_t j0, index_t nr, index_t nc) const {
    HODLRX_DBG_ASSERT(i0 >= 0 && j0 >= 0 && i0 + nr <= rows && j0 + nc <= cols);
    return {data + i0 + j0 * ld, nr, nc, ld};
  }
  ConstMatrixView col(index_t j) const { return block(0, j, rows, 1); }
  ConstMatrixView cols_range(index_t j0, index_t nc) const {
    return block(0, j0, rows, nc);
  }
  ConstMatrixView rows_range(index_t i0, index_t nr) const {
    return block(i0, 0, nr, cols);
  }
  bool empty() const { return rows == 0 || cols == 0; }
  bool contiguous() const { return ld == rows || cols <= 1; }
};

/// Owning column-major dense matrix, 64-byte aligned, ld == rows.
template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(index_t rows, index_t cols) : rows_(rows), cols_(cols) {
    HODLRX_REQUIRE(rows >= 0 && cols >= 0, "negative dimension");
    data_.assign(static_cast<std::size_t>(rows) * cols, T{});
  }

  /// rows x cols matrix whose entries are left unwritten, for storage the
  /// caller fills in full before it reads any entry.
  static Matrix uninitialized(index_t rows, index_t cols) {
    HODLRX_REQUIRE(rows >= 0 && cols >= 0, "negative dimension");
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_.resize(static_cast<std::size_t>(rows) * cols);
    return m;
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t size() const { return rows_ * cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  T& operator()(index_t i, index_t j) {
    HODLRX_DBG_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i + j * rows_)];
  }
  const T& operator()(index_t i, index_t j) const {
    HODLRX_DBG_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i + j * rows_)];
  }

  operator MatrixView<T>() {  // NOLINT: implicit by design
    return {data_.data(), rows_, cols_, rows_};
  }
  operator ConstMatrixView<T>() const {  // NOLINT: implicit by design
    return {data_.data(), rows_, cols_, rows_};
  }
  MatrixView<T> view() { return *this; }
  ConstMatrixView<T> view() const { return *this; }
  MatrixView<T> block(index_t i0, index_t j0, index_t nr, index_t nc) {
    return view().block(i0, j0, nr, nc);
  }
  ConstMatrixView<T> block(index_t i0, index_t j0, index_t nr,
                           index_t nc) const {
    return view().block(i0, j0, nr, nc);
  }

  void set_zero() { std::fill(data_.begin(), data_.end(), T{}); }

  /// Reallocate to new shape; contents become zero.
  void resize(index_t rows, index_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<std::size_t>(rows) * cols, T{});
  }

  static Matrix identity(index_t n) {
    Matrix m(n, n);
    for (index_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  std::size_t bytes() const { return data_.size() * sizeof(T); }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  DefaultInitVector<T> data_;
};

/// Copy `src` into `dst` (shapes must match; either may be strided).
template <typename T>
void copy(NoDeduce<ConstMatrixView<T>> src, MatrixView<T> dst) {
  HODLRX_REQUIRE(src.rows == dst.rows && src.cols == dst.cols,
                 "copy: shape mismatch " << src.rows << "x" << src.cols
                                         << " vs " << dst.rows << "x"
                                         << dst.cols);
  for (index_t j = 0; j < src.cols; ++j)
    std::copy_n(src.data + j * src.ld, src.rows, dst.data + j * dst.ld);
}

/// Deep copy of a view into a fresh owning matrix.
template <typename T>
Matrix<T> to_matrix(ConstMatrixView<T> v) {
  Matrix<T> m(v.rows, v.cols);
  copy<T>(v, m.view());
  return m;
}
template <typename T>
Matrix<T> to_matrix(MatrixView<T> v) {
  return to_matrix(ConstMatrixView<T>(v));
}

/// Out-of-place (conjugate) transpose.
template <typename T>
Matrix<T> transpose(ConstMatrixView<T> a, bool conjugate = false) {
  Matrix<T> t(a.cols, a.rows);
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i)
      t(j, i) = conjugate ? conj_s(a(i, j)) : a(i, j);
  return t;
}
template <typename T>
Matrix<T> transpose(MatrixView<T> a, bool conjugate = false) {
  return transpose(ConstMatrixView<T>(a), conjugate);
}
template <typename T>
Matrix<T> transpose(const Matrix<T>& a, bool conjugate = false) {
  return transpose(a.view(), conjugate);
}

}  // namespace hodlrx
