#include "bie/laplace.hpp"

#include <cmath>

#include "common/simd.hpp"

namespace hodlrx::bie {

namespace {
constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
}

double laplace_greens(Point2 x, Point2 x0) {
  return -std::log(dist(x, x0)) / kTwoPi;
}

template <typename T>
std::vector<T> laplace_exterior_potential(const ContourDiscretization& disc,
                                          Point2 z, const T* sigma,
                                          const std::vector<Point2>& targets) {
  std::vector<T> u(targets.size(), T{});
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const Point2 x = targets[t];
    double acc = 0;
    const double completion = -std::log(dist(x, z)) / kTwoPi;
    for (index_t j = 0; j < disc.n; ++j) {
      const double dx = x.x - disc.x[j].x;
      const double dy = x.y - disc.x[j].y;
      const double r2 = dx * dx + dy * dy;
      const double d = (disc.nrm[j].x * dx + disc.nrm[j].y * dy) /
                       (kTwoPi * r2);
      acc += disc.weight[j] * (d + completion) *
             static_cast<double>(sigma[j]);
    }
    u[t] = static_cast<T>(acc);
  }
  return u;
}

template <typename T>
LaplaceExteriorBIE<T>::LaplaceExteriorBIE(ContourDiscretization disc, Point2 z)
    : disc_(std::move(disc)), z_(z) {
  const auto n = static_cast<std::size_t>(disc_.n);
  x_.resize(n);
  y_.resize(n);
  nx_.resize(n);
  ny_.resize(n);
  c_.resize(n);
  diag_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    x_[i] = disc_.x[i].x;
    y_[i] = disc_.x[i].y;
    nx_[i] = disc_.nrm[i].x;
    ny_[i] = disc_.nrm[i].y;
    c_[i] = std::log(dist(disc_.x[i], z_)) / kTwoPi;
    // The double layer's diagonal limit is -kappa/(4 pi); the identity's
    // 1/2 is added after the weight, as in the off-diagonal formula.
    const double kernel = -disc_.kappa[i] / (2.0 * kTwoPi) - c_[i];
    diag_[i] = static_cast<T>(disc_.weight[i] * kernel + 0.5);
  }
}

// Both fills split the range around the diagonal so the loops carry no
// branch (and never form the 0/0 of r2 = 0), then patch the diagonal in.

template <typename T>
void LaplaceExteriorBIE<T>::fill_row(index_t i, index_t j0, index_t j1,
                                     T* out) const {
  const double xi = x_[i], yi = y_[i], ci = c_[i];
  const double* __restrict__ xs = x_.data();
  const double* __restrict__ ys = y_.data();
  const double* __restrict__ nxs = nx_.data();
  const double* __restrict__ nys = ny_.data();
  const double* __restrict__ ws = disc_.weight.data();
  T* __restrict__ o = out;
  auto span = [&](index_t lo, index_t hi) {
    HODLRX_OMP_SIMD
    for (index_t j = lo; j < hi; ++j) {
      const double dx = xi - xs[j];
      const double dy = yi - ys[j];
      const double r2 = dx * dx + dy * dy;
      const double kernel = (nxs[j] * dx + nys[j] * dy) / (kTwoPi * r2) - ci;
      o[j - j0] = static_cast<T>(ws[j] * kernel);
    }
  };
  if (i < j0 || i >= j1) {
    span(j0, j1);
    return;
  }
  span(j0, i);
  span(i + 1, j1);
  o[i - j0] = diag_[i];
}

template <typename T>
void LaplaceExteriorBIE<T>::fill_col(index_t j, index_t i0, index_t i1,
                                     T* out) const {
  const double xj = x_[j], yj = y_[j], nxj = nx_[j], nyj = ny_[j];
  const double wj = disc_.weight[j];
  const double* __restrict__ xs = x_.data();
  const double* __restrict__ ys = y_.data();
  const double* __restrict__ cs = c_.data();
  T* __restrict__ o = out;
  auto span = [&](index_t lo, index_t hi) {
    HODLRX_OMP_SIMD
    for (index_t i = lo; i < hi; ++i) {
      const double dx = xs[i] - xj;
      const double dy = ys[i] - yj;
      const double r2 = dx * dx + dy * dy;
      const double kernel = (nxj * dx + nyj * dy) / (kTwoPi * r2) - cs[i];
      o[i - i0] = static_cast<T>(wj * kernel);
    }
  };
  if (j < i0 || j >= i1) {
    span(i0, i1);
    return;
  }
  span(i0, j);
  span(j + 1, i1);
  o[j - i0] = diag_[j];
}

template class LaplaceExteriorBIE<float>;
template class LaplaceExteriorBIE<double>;

template std::vector<float> laplace_exterior_potential<float>(
    const ContourDiscretization&, Point2, const float*,
    const std::vector<Point2>&);
template std::vector<double> laplace_exterior_potential<double>(
    const ContourDiscretization&, Point2, const double*,
    const std::vector<Point2>&);

}  // namespace hodlrx::bie
