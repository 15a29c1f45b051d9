#pragma once

#include "bie/contour.hpp"
#include "lowrank/generator.hpp"

/// \file laplace.hpp
/// The completed double-layer BIE for the exterior Laplace Dirichlet
/// problem (paper eq. 21, Sec. IV-B):
///
///   (1/2) sigma(x) + int_Gamma ( d(x,y) - (1/2 pi) log|x - z| ) sigma(y) ds
///     = f(x),     d(x,y) = n(y).(x-y) / (2 pi |x-y|^2),
///
/// discretized with the periodic trapezoidal rule (the completed kernel is
/// smooth on a smooth contour; the diagonal limit of d is -kappa/(4 pi)).
/// n is the normal pointing away from the bounded interior (so the exterior
/// limit of the double layer carries the +1/2 jump of eq. 21), and z is a
/// fixed point inside Gamma enforcing the decay condition (20).

namespace hodlrx::bie {

/// Dense-free generator of the discretized operator; T is float or double.
///
/// Entry (i, j) is  w_j (d(x_i, x_j) - c_i)  off the diagonal, with the
/// completion term c_i = log|x_i - z| / 2pi depending on the row only, and
/// 1/2 + w_i (-kappa_i / 4pi - c_i) on it. The constructor caches c_i, the
/// diagonal and structure-of-arrays copies of the nodes and normals, so the
/// bulk fills are branch-free loops over contiguous arrays with no
/// transcendental per entry. entry() and every fill evaluate the same
/// expressions on the same cached terms, so they agree bitwise.
template <typename T>
class LaplaceExteriorBIE final : public MatrixGenerator<T> {
 public:
  LaplaceExteriorBIE(ContourDiscretization disc, Point2 z = {0.0, 0.0});

  index_t rows() const override { return disc_.n; }
  index_t cols() const override { return disc_.n; }

  T entry(index_t i, index_t j) const override {
    if (i == j) return diag_[i];
    const double dx = x_[i] - x_[j];
    const double dy = y_[i] - y_[j];
    const double r2 = dx * dx + dy * dy;
    const double kernel = (nx_[j] * dx + ny_[j] * dy) / (kTwoPi * r2) - c_[i];
    return static_cast<T>(disc_.weight[j] * kernel);
  }
  void fill_row(index_t i, index_t j0, index_t j1, T* out) const override;
  void fill_col(index_t j, index_t i0, index_t i1, T* out) const override;

  const ContourDiscretization& discretization() const { return disc_; }
  Point2 completion_point() const { return z_; }

 private:
  static constexpr double kTwoPi = 2.0 * 3.14159265358979323846;

  ContourDiscretization disc_;
  Point2 z_;
  std::vector<double> x_, y_;    ///< node coordinates (SoA)
  std::vector<double> nx_, ny_;  ///< outward normals (SoA)
  std::vector<double> c_;        ///< completion term log|x_i - z| / 2pi
  std::vector<T> diag_;          ///< the diagonal entries
};

/// Evaluate the representation u(x) = int (d(x,y) - log|x-z|/2pi) sigma ds
/// at off-surface targets (plain trapezoid; accurate away from Gamma).
template <typename T>
std::vector<T> laplace_exterior_potential(const ContourDiscretization& disc,
                                          Point2 z, const T* sigma,
                                          const std::vector<Point2>& targets);

/// Free-space Green's function G(x, x0) = -(1/2 pi) log|x - x0| (the exact
/// exterior solution generated by a unit charge at x0; used by tests and
/// examples).
double laplace_greens(Point2 x, Point2 x0);

}  // namespace hodlrx::bie
