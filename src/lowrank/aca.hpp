#pragma once

#include "lowrank/generator.hpp"
#include "lowrank/lowrank.hpp"

/// \file aca.hpp
/// Adaptive Cross Approximation with partial + rook pivoting — the
/// equivalent of HODLRlib's `LowRank::rookPiv()` (an approximate
/// partially-pivoted LU), used to compress off-diagonal blocks from an
/// entry evaluator without forming them.

namespace hodlrx {

struct AcaOptions {
  double tol = 1e-12;        ///< relative Frobenius tolerance
  index_t max_rank = -1;     ///< cap (-1: min(m, n))
  int rook_iterations = 3;   ///< pivot refinement sweeps per step
  std::uint64_t seed = 7;    ///< row restarts for zero-looking blocks
};

template <typename T>
struct AcaResult {
  LowRankFactor<T> factor;
  bool converged = true;  ///< false when max_rank was hit before tol
  /// True when the cross search stagnated (the iteration guard tripped on a
  /// run of near-zero pivot rows, or the "aca.stall" fault fired) before the
  /// tolerance or the rank cap was reached. The factor still holds the
  /// achieved-rank approximation; stalled implies !converged.
  bool stalled = false;
  /// ||U V^H||_F as tracked by the stopping test (exact up to rounding).
  real_t<T> frob_norm = 0;
};

/// Compress the sub-block [row0, row0+m) x [col0, col0+n) of `g`.
template <typename T>
AcaResult<T> aca(const MatrixGenerator<T>& g, index_t row0, index_t col0,
                 index_t m, index_t n, const AcaOptions& opt);

}  // namespace hodlrx
