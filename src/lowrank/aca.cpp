#include "lowrank/aca.hpp"

#include <cmath>
#include <complex>
#include <random>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/simd.hpp"

namespace hodlrx {

namespace {

/// argmax |x[i]| over i not in `used`; returns -1 when all used or all zero.
template <typename T>
index_t argmax_unused(const std::vector<T>& x, const std::vector<char>& used) {
  index_t best = -1;
  real_t<T> best_v = 0;
  for (index_t i = 0; i < static_cast<index_t>(x.size()); ++i) {
    if (used[i]) continue;
    const real_t<T> v = abs_s(x[i]);
    if (best < 0 || v > best_v) {
      best = i;
      best_v = v;
    }
  }
  return (best >= 0 && best_v > real_t<T>{0}) ? best : -1;
}

// The stopping test's norm bookkeeping is a handful of dot products per
// cross. As plain serial sums they cost more than the residual updates, so
// they are reassociated across SIMD lanes; complex vectors are read as
// interleaved (re, im) pairs (a layout [complex.numbers] guarantees) with
// separate real and imaginary accumulators. Only the stopping test sees the
// changed rounding.

/// ||x||^2 over n entries.
template <typename T>
real_t<T> sum_abs2(const T* x, index_t n) {
  using R = real_t<T>;
  const index_t len = is_complex_v<T> ? 2 * n : n;
  const R* __restrict__ p = reinterpret_cast<const R*>(x);
  R s = 0;
  HODLRX_OMP_SIMD_SUM(s)
  for (index_t t = 0; t < len; ++t) s += p[t] * p[t];
  return s;
}

/// x^H y over n entries.
template <typename T>
T dotc_simd(const T* x, const T* y, index_t n) {
  if constexpr (is_complex_v<T>) {
    using R = real_t<T>;
    const R* __restrict__ a = reinterpret_cast<const R*>(x);
    const R* __restrict__ b = reinterpret_cast<const R*>(y);
    R re = 0, im = 0;
    HODLRX_OMP_SIMD_SUM(re, im)
    for (index_t t = 0; t < n; ++t) {
      re += a[2 * t] * b[2 * t] + a[2 * t + 1] * b[2 * t + 1];
      im += a[2 * t] * b[2 * t + 1] - a[2 * t + 1] * b[2 * t];
    }
    return T(re, im);
  } else {
    const T* __restrict__ a = x;
    const T* __restrict__ b = y;
    T s = 0;
    HODLRX_OMP_SIMD_SUM(s)
    for (index_t t = 0; t < n; ++t) s += a[t] * b[t];
    return s;
  }
}

}  // namespace

template <typename T>
AcaResult<T> aca(const MatrixGenerator<T>& g, index_t row0, index_t col0,
                 index_t m, index_t n, const AcaOptions& opt) {
  using R = real_t<T>;
  AcaResult<T> out;
  const index_t rmax =
      std::min({m, n, opt.max_rank < 0 ? std::min(m, n) : opt.max_rank});
  if (m == 0 || n == 0 || rmax == 0) {
    out.factor.u = Matrix<T>(m, 0);
    out.factor.v = Matrix<T>(n, 0);
    return out;
  }

  // Crosses accumulated column-wise; copied into the factor at the end.
  std::vector<std::vector<T>> us, vs;  // u: length m, v: length n (A=sum u v^H)
  std::vector<char> row_used(m, 0), col_used(n, 0);
  std::vector<T> row(n), col(m);
  std::mt19937_64 rng(opt.seed);

  R frob2 = 0;  // running ||A_k||_F^2 estimate
  index_t next_row = 0;
  bool converged = false;
  const bool inject_stall = fault::should_fire(fault::Site::kAcaStall);

  // Iteration guard: each pass either adds a cross or burns an unused row
  // (the zero-delta `continue` / restart paths), so a block riddled with
  // (near-)zero generator rows cannot cycle past O(min(m, n)) passes. When
  // the guard trips, the achieved-rank factor is returned with `stalled`
  // set instead of looping or throwing.
  const index_t max_passes = 2 * std::min(m, n) + 16;
  index_t passes = 0;

  while (static_cast<index_t>(us.size()) < rmax) {
    if (++passes > max_passes ||
        (inject_stall && static_cast<index_t>(us.size()) >=
                             std::min<index_t>(2, rmax - 1))) {
      out.stalled = true;
      break;
    }
    // --- residual row at next_row -----------------------------------------
    index_t i = next_row;
    if (i < 0 || i >= m || row_used[i]) {
      i = -1;
      for (index_t t = 0; t < m; ++t)
        if (!row_used[t]) {
          i = t;
          break;
        }
      if (i < 0) {  // all rows consumed: the cross interpolates every row
        converged = true;
        break;
      }
    }
    auto residual_row = [&](index_t ri) {
      g.fill_row(row0 + ri, col0, col0 + n, row.data());
      for (std::size_t k = 0; k < us.size(); ++k) {
        const T uik = us[k][ri];
        if (uik == T{}) continue;
        const T* __restrict__ vk = vs[k].data();
        for (index_t j = 0; j < n; ++j) row[j] -= uik * conj_s(vk[j]);
      }
    };
    auto residual_col = [&](index_t cj) {
      g.fill_col(col0 + cj, row0, row0 + m, col.data());
      for (std::size_t k = 0; k < us.size(); ++k) {
        const T vjk = conj_s(vs[k][cj]);
        if (vjk == T{}) continue;
        const T* __restrict__ uk = us[k].data();
        for (index_t ii = 0; ii < m; ++ii) col[ii] -= uk[ii] * vjk;
      }
    };

    residual_row(i);
    index_t j = argmax_unused(row, col_used);
    // Restart on a (near-)zero row: try a few random rows before giving up.
    int restarts = 0;
    while (j < 0 && restarts < 4) {
      row_used[i] = 1;
      index_t cand = static_cast<index_t>(rng() % m);
      for (index_t t = 0; t < m && row_used[cand]; ++t)
        cand = (cand + 1) % m;
      if (row_used[cand]) break;
      i = cand;
      residual_row(i);
      j = argmax_unused(row, col_used);
      ++restarts;
    }
    if (j < 0) {
      converged = true;  // residual looks numerically zero
      break;
    }

    // --- rook refinement: alternate row/column argmax ---------------------
    for (int rook = 0; rook < opt.rook_iterations; ++rook) {
      residual_col(j);
      const index_t i2 = argmax_unused(col, row_used);
      if (i2 < 0 || i2 == i) break;
      i = i2;
      residual_row(i);
      const index_t j2 = argmax_unused(row, col_used);
      if (j2 < 0 || j2 == j) break;
      j = j2;
    }
    residual_col(j);

    const T delta = col[i];
    if (abs_s(delta) == R{0}) {
      row_used[i] = 1;
      continue;
    }

    // New cross: u = residual column, v^H = residual row / delta.
    std::vector<T> u(col.begin(), col.end());
    std::vector<T> v(n);
    const T inv_delta = T{1} / delta;
    for (index_t t = 0; t < n; ++t) v[t] = conj_s(row[t] * inv_delta);

    // Norm bookkeeping for the stopping criterion:
    // ||A_k||^2 = ||A_{k-1}||^2 + ||u||^2||v||^2
    //             + 2 Re sum_l (u_l^H u)(v^H v_l).
    const R unorm2 = sum_abs2(u.data(), m);
    const R vnorm2 = sum_abs2(v.data(), n);
    R cross = 0;
    for (std::size_t k = 0; k < us.size(); ++k) {
      const T uu = dotc_simd(us[k].data(), u.data(), m);
      const T vv = dotc_simd(v.data(), vs[k].data(), n);
      cross += R{2} * ScalarTraits<T>::real(uu * vv);
    }
    frob2 += unorm2 * vnorm2 + cross;
    frob2 = std::max(frob2, R{0});

    us.push_back(std::move(u));
    vs.push_back(std::move(v));
    row_used[i] = 1;
    col_used[j] = 1;

    const R step = std::sqrt(unorm2 * vnorm2);
    if (step <= static_cast<R>(opt.tol) * std::sqrt(frob2)) {
      converged = true;
      break;
    }

    // Next pivot row: largest |u| entry among unused rows.
    next_row = argmax_unused(us.back(), row_used);
  }

  const index_t r = static_cast<index_t>(us.size());
  out.factor.u = Matrix<T>(m, r);
  out.factor.v = Matrix<T>(n, r);
  for (index_t k = 0; k < r; ++k) {
    std::copy(us[k].begin(), us[k].end(), out.factor.u.data() + k * m);
    std::copy(vs[k].begin(), vs[k].end(), out.factor.v.data() + k * n);
  }
  out.frob_norm = std::sqrt(frob2);
  // Hitting the cap is still "converged" when the cap equals full rank.
  out.converged = !out.stalled && (converged || rmax == std::min(m, n));
  return out;
}

#define HODLRX_INSTANTIATE_ACA(T)                                      \
  template AcaResult<T> aca<T>(const MatrixGenerator<T>&, index_t,     \
                               index_t, index_t, index_t,              \
                               const AcaOptions&);

HODLRX_INSTANTIATE_ACA(float)
HODLRX_INSTANTIATE_ACA(double)
HODLRX_INSTANTIATE_ACA(std::complex<float>)
HODLRX_INSTANTIATE_ACA(std::complex<double>)

#undef HODLRX_INSTANTIATE_ACA

}  // namespace hodlrx
