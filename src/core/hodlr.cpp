#include "core/hodlr.hpp"

#include <complex>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "device/device.hpp"
#include "lowrank/aca.hpp"
#include "lowrank/recompress.hpp"
#include "lowrank/rsvd.hpp"

namespace hodlrx {

namespace {

/// Fold a batched-rsvd sweep's breakdown counters into the report.
/// RsvdBreakdowns counts healed and un-healed problems separately; the
/// report's svd_nonconverged column counts every problem that exhausted the
/// budget (healed or not), svd_recovered the healed subset.
void fold_rsvd_breakdowns(const RsvdBreakdowns& bd, FactorReport* report) {
  if (report == nullptr) return;
  if (bd.svd_nonconverged == 0 && bd.svd_recovered == 0) return;
  report->svd_nonconverged += bd.svd_nonconverged + bd.svd_recovered;
  report->svd_recovered += bd.svd_recovered;
  report->events.push_back(
      "build: batched svd exhausted its sweep budget on " +
      std::to_string(bd.svd_nonconverged + bd.svd_recovered) +
      " problem(s), " + std::to_string(bd.svd_recovered) +
      " recovered by the serial re-run");
}

/// HODLRX_CHECK_FINITE scan of the compressed representation (leaves and
/// low-rank bases) at the end of build.
template <typename T>
void scan_build_finite(HodlrMatrix<T>& h, OnBreakdown policy,
                       FactorReport* report) {
  if (!check_finite_enabled()) return;
  index_t bad = 0;
  for (index_t j = 0; j < h.tree().num_leaves(); ++j)
    bad += count_nonfinite(ConstMatrixView<T>(h.leaf_block(j)));
  for (index_t nu = 1; nu < h.tree().num_nodes(); ++nu) {
    bad += count_nonfinite(ConstMatrixView<T>(h.u(nu)));
    bad += count_nonfinite(ConstMatrixView<T>(h.v(nu)));
  }
  if (bad == 0) return;
  if (report != nullptr) {
    report->nonfinite_values += bad;
    report->events.push_back("build: " + std::to_string(bad) +
                             " non-finite value(s) after compression");
  }
  HODLRX_REQUIRE(policy != OnBreakdown::kThrow,
                 "build: " << bad << " non-finite value(s) after compression");
}

/// Size of every node at `level` when the level is UNIFORM (equal sizes,
/// contiguous index ranges — the layout the strided-batched sweeps need);
/// -1 otherwise.
index_t uniform_level_size(const ClusterTree& tree, index_t level) {
  const index_t begin = ClusterTree::level_begin(level);
  const index_t count = ClusterTree::nodes_at_level(level);
  const index_t s = tree.node(begin).size();
  for (index_t t = 0; t < count; ++t) {
    const ClusterNode& c = tree.node(begin + t);
    if (c.size() != s || c.begin != tree.node(begin).begin + t * s) return -1;
  }
  return s;
}

/// RsvdOptions from the build options (the sketch width comes from
/// max_rank + oversampling; see Compressor::kRsvdBatched).
RsvdOptions rsvd_options(const BuildOptions& opt) {
  HODLRX_REQUIRE(opt.max_rank > 0,
                 "Compressor::kRsvdBatched needs max_rank > 0 (the sketch "
                 "width); got " << opt.max_rank);
  RsvdOptions ropt;
  ropt.rank = opt.max_rank;
  ropt.oversampling = opt.rsvd_oversampling;
  ropt.power_iterations = opt.rsvd_power_iterations;
  ropt.tol = opt.tol;
  return ropt;
}

/// Store one uniform-level sweep's factors: pair j's "upper" block
/// A(I_2j, I_2j+1) row-basis lands on node 2j, its column basis on the
/// sibling; vice versa for the "lower" sweep.
template <typename T>
void store_level_factors(HodlrMatrix<T>& h, index_t begin, index_t q,
                         std::vector<LowRankFactor<T>>&& upper,
                         std::vector<LowRankFactor<T>>&& lower) {
  for (index_t j = 0; j < q; ++j) {
    const index_t nu = begin + 2 * j;   // rows of the upper block
    const index_t sib = nu + 1;         // rows of the lower block
    h.u(nu) = std::move(upper[j].u);
    h.v(sib) = std::move(upper[j].v);
    h.u(sib) = std::move(lower[j].u);
    h.v(nu) = std::move(lower[j].v);
  }
}

/// Batched-rsvd construction from a dense view: every uniform tree level is
/// compressed in TWO strided-batched sweeps (one per sibling side), each
/// sketching all of the level's blocks against ONE shared Gaussian test
/// matrix — the production caller of the batch layer's stride-0 pack-once
/// fast path (see rsvd_strided_batched). Non-uniform levels fall back to an
/// independent rsvd per block.
template <typename T>
HodlrMatrix<T> build_from_dense_rsvd(ConstMatrixView<T> a,
                                     const ClusterTree& tree,
                                     const BuildOptions& opt,
                                     HodlrMatrix<T>&& h,
                                     FactorReport* report) {
  RsvdOptions ropt = rsvd_options(opt);
  RsvdBreakdowns bd;
  ropt.on_breakdown = opt.on_breakdown;
  ropt.breakdowns = &bd;
  for (index_t level = 1; level <= tree.depth(); ++level) {
    const index_t begin = ClusterTree::level_begin(level);
    const index_t count = ClusterTree::nodes_at_level(level);
    const index_t q = count / 2;  // sibling pairs
    const index_t s = uniform_level_size(tree, level);
    if (s > 0) {
      // Sibling pair j occupies rows/cols [2js, (2j+2)s): both the "upper"
      // blocks A(I_2j, I_2j+1) and the "lower" blocks A(I_2j+1, I_2j) are
      // s x s at a constant stride of 2s(ld + 1) — exactly the layout
      // rsvd_strided_batched wants.
      const index_t b0 = tree.node(begin).begin;
      const index_t stride = 2 * s * (a.ld + 1);
      ropt.seed = opt.seed + 2 * level;
      auto upper = rsvd_strided_batched<T>(a.data + b0 + (b0 + s) * a.ld,
                                           a.ld, stride, s, s, q, ropt);
      ropt.seed = opt.seed + 2 * level + 1;
      auto lower = rsvd_strided_batched<T>(a.data + (b0 + s) + b0 * a.ld,
                                           a.ld, stride, s, s, q, ropt);
      store_level_factors<T>(h, begin, q, std::move(upper), std::move(lower));
    } else {
      ropt.seed = opt.seed + 2 * level;
      parallel_for(count, [&](index_t t) {
        const index_t nu = begin + t;
        const index_t sib = ClusterTree::sibling(nu);
        const ClusterNode& rowc = tree.node(nu);
        const ClusterNode& colc = tree.node(sib);
        LowRankFactor<T> f = rsvd<T>(
            a.block(rowc.begin, colc.begin, rowc.size(), colc.size()), ropt);
        h.u(nu) = std::move(f.u);
        h.v(sib) = std::move(f.v);
      });
    }
  }
  parallel_for(tree.num_leaves(), [&](index_t j) {
    const ClusterNode& c = tree.node(tree.leaf(j));
    h.leaf_block(j) = to_matrix(a.block(c.begin, c.begin, c.size(), c.size()));
  });
  fold_rsvd_breakdowns(bd, report);
  scan_build_finite(h, opt.on_breakdown, report);
  return std::move(h);
}

/// Batched-rsvd construction straight from a MatrixGenerator — the
/// generator-backed path that opens the batched sweep to kernel-defined BIE
/// problems (paper Tables 3-5) WITHOUT ever forming the dense matrix. Every
/// uniform level's off-diagonal blocks are materialized tile-by-tile into a
/// strided "device" workspace shared by the pool (one fill_block per tile,
/// tiles written in parallel), then the whole side is compressed by the same
/// batched rsvd sweep the dense path uses. Peak extra memory is ONE level
/// side — at most (n/2)^2 entries at level 1, a quarter of the dense matrix,
/// reused (not reallocated) by every deeper level. Non-uniform levels
/// materialize and compress block-by-block across the pool.
template <typename T>
HodlrMatrix<T> build_from_generator_rsvd(const MatrixGenerator<T>& g,
                                         const ClusterTree& tree,
                                         const BuildOptions& opt,
                                         HodlrMatrix<T>&& h,
                                         FactorReport* report) {
  RsvdOptions ropt = rsvd_options(opt);
  RsvdBreakdowns bd;
  ropt.on_breakdown = opt.on_breakdown;
  ropt.breakdowns = &bd;
  std::vector<T, AlignedAllocator<T>> ws;
  DeviceAllocation ws_mem;
  for (index_t level = 1; level <= tree.depth(); ++level) {
    const index_t begin = ClusterTree::level_begin(level);
    const index_t count = ClusterTree::nodes_at_level(level);
    const index_t q = count / 2;  // sibling pairs
    const index_t s = uniform_level_size(tree, level);
    if (s > 0) {
      const index_t b0 = tree.node(begin).begin;
      const std::size_t need = static_cast<std::size_t>(q) * s * s;
      if (ws.size() < need) {
        ws.resize(need);
        ws_mem = DeviceAllocation(need * sizeof(T));
      }
      // One sweep per sibling side: fill the q tiles of the side in
      // parallel (an H2D upload in the device model), then compress them in
      // one batched launch sequence.
      const auto sweep = [&](bool upper_side) {
        parallel_for(q, [&](index_t j) {
          const index_t row0 = b0 + 2 * j * s + (upper_side ? 0 : s);
          const index_t col0 = b0 + 2 * j * s + (upper_side ? s : 0);
          g.fill_block(row0, col0,
                       MatrixView<T>{ws.data() + j * s * s, s, s, s});
        });
        DeviceContext::global().record_h2d(need * sizeof(T));
        ropt.seed = opt.seed + 2 * level + (upper_side ? 0 : 1);
        return rsvd_strided_batched<T>(ws.data(), s, s * s, s, s, q, ropt);
      };
      auto upper = sweep(/*upper_side=*/true);
      auto lower = sweep(/*upper_side=*/false);
      store_level_factors<T>(h, begin, q, std::move(upper), std::move(lower));
    } else {
      ropt.seed = opt.seed + 2 * level;
      parallel_for(count, [&](index_t t) {
        const index_t nu = begin + t;
        const index_t sib = ClusterTree::sibling(nu);
        const ClusterNode& rowc = tree.node(nu);
        const ClusterNode& colc = tree.node(sib);
        Matrix<T> block(rowc.size(), colc.size());
        g.fill_block(rowc.begin, colc.begin, block);
        LowRankFactor<T> f = rsvd<T>(block.view(), ropt);
        h.u(nu) = std::move(f.u);
        h.v(sib) = std::move(f.v);
      });
    }
  }
  parallel_for(tree.num_leaves(), [&](index_t j) {
    const ClusterNode& c = tree.node(tree.leaf(j));
    h.leaf_block(j) = Matrix<T>(c.size(), c.size());
    g.fill_block(c.begin, c.begin, h.leaf_block(j));
  });
  fold_rsvd_breakdowns(bd, report);
  scan_build_finite(h, opt.on_breakdown, report);
  return std::move(h);
}

}  // namespace

template <typename T>
HodlrMatrix<T> HodlrMatrix<T>::build(const MatrixGenerator<T>& g,
                                     const ClusterTree& tree,
                                     const BuildOptions& opt,
                                     FactorReport* report) {
  HODLRX_REQUIRE(g.rows() == tree.n() && g.cols() == tree.n(),
                 "build: generator is " << g.rows() << "x" << g.cols()
                                        << " but tree has n=" << tree.n());
  HodlrMatrix<T> h;
  h.tree_ = tree;
  h.u_.resize(tree.num_nodes());
  h.v_.resize(tree.num_nodes());
  h.leaf_d_.resize(tree.num_leaves());

  if (opt.compressor == Compressor::kRsvdBatched) {
    return build_from_generator_rsvd<T>(g, tree, opt, std::move(h), report);
  }

  AcaOptions aopt;
  aopt.tol = opt.tol;
  aopt.max_rank = opt.max_rank;
  aopt.rook_iterations = opt.rook_iterations;
  aopt.seed = opt.seed;

  // Task list: every non-root node `nu` owns the block (I_nu, I_sib(nu));
  // leaves additionally own their diagonal block. All tasks independent.
  // Per-block recompression is DEFERRED on uniform levels: those levels are
  // re-truncated afterwards in one batched sweep per level instead of one
  // pool task per block (the same machinery as the rsvd compression sweep).
  std::vector<char> level_batched(tree.depth() + 1, 0);
  if (opt.recompress)
    for (index_t level = 1; level <= tree.depth(); ++level)
      level_batched[level] = uniform_level_size(tree, level) > 0 ? 1 : 0;
  const index_t first = 1;
  const index_t num_offdiag = tree.num_nodes() - 1;
  const index_t num_leaves = tree.num_leaves();
  std::vector<std::string> errors(num_offdiag + num_leaves);
  // Per-task stall flags, resolved serially after the loop (the recovery
  // ladder re-compresses stalled blocks; see below).
  std::vector<char> stalled(num_offdiag, 0);
  parallel_for(num_offdiag + num_leaves, [&](index_t task) {
    try {
      if (task < num_offdiag) {
        const index_t nu = first + task;
        const index_t sib = ClusterTree::sibling(nu);
        const ClusterNode& rowc = tree.node(nu);
        const ClusterNode& colc = tree.node(sib);
        AcaResult<T> res = aca(g, rowc.begin, colc.begin, rowc.size(),
                               colc.size(), aopt);
        if (opt.on_breakdown == OnBreakdown::kThrow)
          HODLRX_REQUIRE(res.converged,
                         "ACA did not converge on block (" << nu << ", " << sib
                                                           << ")");
        if (!res.converged) stalled[task] = 1;
        if (res.converged && opt.recompress && res.factor.rank() > 0 &&
            !level_batched[ClusterTree::level_of(nu)])
          recompress(res.factor, static_cast<real_t<T>>(opt.tol),
                     opt.max_rank);
        // Rows of the block live on nu -> U_nu; columns on sib -> V_sib.
        h.u_[nu] = std::move(res.factor.u);
        h.v_[sib] = std::move(res.factor.v);
      } else {
        const index_t j = task - num_offdiag;
        const ClusterNode& c = tree.node(tree.leaf(j));
        h.leaf_d_[j] = Matrix<T>(c.size(), c.size());
        g.fill_block(c.begin, c.begin, h.leaf_d_[j]);
      }
    } catch (const std::exception& e) {
      errors[task] = e.what();
    }
  });
  for (const auto& e : errors)
    HODLRX_REQUIRE(e.empty(), "HodlrMatrix::build failed: " << e);
  // Recovery ladder for stalled / non-converged ACA blocks: materialize the
  // block (it never formed during the cross search) and re-compress it
  // through the batched rsvd pipeline, so a stall in the entry-sampling
  // compressor cannot poison the representation. The sketch starts near the
  // rank ACA achieved and doubles until the truncated rank falls below the
  // sketch width (the tol tail was captured) — a full min(m, n)-wide sketch
  // on a large block would be an O(n^3) retry. Under kReport the
  // achieved-rank factor is kept and only recorded.
  RsvdBreakdowns bd;
  for (index_t task = 0; task < num_offdiag; ++task) {
    if (!stalled[task]) continue;
    const index_t nu = first + task;
    const index_t sib = ClusterTree::sibling(nu);
    const ClusterNode& rowc = tree.node(nu);
    const ClusterNode& colc = tree.node(sib);
    if (report != nullptr) {
      ++report->aca_stalls;
      report->events.push_back(
          "build: aca stalled on block (" + std::to_string(nu) + ", " +
          std::to_string(sib) + ") at rank " +
          std::to_string(h.u_[nu].cols()));
    }
    if (opt.on_breakdown != OnBreakdown::kRecover) continue;
    Matrix<T> block(rowc.size(), colc.size());
    g.fill_block(rowc.begin, colc.begin, block);
    const index_t minmn = std::min(rowc.size(), colc.size());
    index_t sketch =
        opt.max_rank > 0
            ? std::min<index_t>(opt.max_rank, minmn)
            : std::min<index_t>(
                  minmn, std::max<index_t>(64, 2 * h.u_[nu].cols()));
    RsvdOptions ropt;
    ropt.oversampling = opt.rsvd_oversampling;
    ropt.power_iterations = std::max(opt.rsvd_power_iterations, 2);
    ropt.tol = opt.tol;
    ropt.seed = opt.seed + static_cast<std::uint64_t>(nu);
    ropt.on_breakdown = opt.on_breakdown;
    ropt.breakdowns = &bd;
    for (;;) {
      ropt.rank = sketch;
      auto fs = rsvd_strided_batched<T>(block.data(), block.rows(), 0,
                                        block.rows(), block.cols(), 1, ropt);
      const bool captured = fs[0].u.cols() < sketch;  // tol tail reached
      h.u_[nu] = std::move(fs[0].u);
      h.v_[sib] = std::move(fs[0].v);
      if (opt.max_rank > 0 || captured || sketch >= minmn) break;
      sketch = std::min<index_t>(minmn, 2 * sketch);
    }
    fault_stats::detail::add_recovered(fault::Site::kAcaStall);
    if (report != nullptr) {
      ++report->aca_retries;
      report->events.push_back(
          "build: block (" + std::to_string(nu) + ", " + std::to_string(sib) +
          ") re-compressed via rsvd to rank " + std::to_string(h.u_[nu].cols()));
    }
  }
  fold_rsvd_breakdowns(bd, report);
  // Batched re-truncation of every uniform level: all of the level's s x s
  // blocks (both sibling sides) share one recompress_batched sweep.
  for (index_t level = 1; level <= tree.depth(); ++level) {
    if (!level_batched[level]) continue;
    const index_t begin = ClusterTree::level_begin(level);
    const index_t count = ClusterTree::nodes_at_level(level);
    std::vector<LowRankFactor<T>> fs(static_cast<std::size_t>(count));
    for (index_t t = 0; t < count; ++t) {
      const index_t nu = begin + t;
      fs[static_cast<std::size_t>(t)].u = std::move(h.u_[nu]);
      fs[static_cast<std::size_t>(t)].v =
          std::move(h.v_[ClusterTree::sibling(nu)]);
    }
    recompress_batched<T>(fs, static_cast<real_t<T>>(opt.tol), opt.max_rank);
    for (index_t t = 0; t < count; ++t) {
      const index_t nu = begin + t;
      h.u_[nu] = std::move(fs[static_cast<std::size_t>(t)].u);
      h.v_[ClusterTree::sibling(nu)] = std::move(fs[static_cast<std::size_t>(t)].v);
    }
  }
  scan_build_finite(h, opt.on_breakdown, report);
  return h;
}

template <typename T>
HodlrMatrix<T> HodlrMatrix<T>::build_from_dense(ConstMatrixView<T> a,
                                                const ClusterTree& tree,
                                                const BuildOptions& opt,
                                                FactorReport* report) {
  HODLRX_REQUIRE(a.rows == tree.n() && a.cols == tree.n(),
                 "build_from_dense: matrix is " << a.rows << "x" << a.cols
                                                << " but tree has n="
                                                << tree.n());
  if (opt.compressor == Compressor::kRsvdBatched) {
    HodlrMatrix<T> h;
    h.tree_ = tree;
    h.u_.resize(tree.num_nodes());
    h.v_.resize(tree.num_nodes());
    h.leaf_d_.resize(tree.num_leaves());
    return build_from_dense_rsvd<T>(a, tree, opt, std::move(h), report);
  }
  DenseGenerator<T> g(to_matrix(a));
  return build(g, tree, opt, report);
}

template <typename T>
std::vector<index_t> HodlrMatrix<T>::rank_ladder() const {
  std::vector<index_t> ladder(tree_.depth(), 0);
  for (index_t level = 1; level <= tree_.depth(); ++level)
    for (index_t i = ClusterTree::level_begin(level);
         i < ClusterTree::level_begin(level + 1); ++i)
      ladder[level - 1] = std::max(ladder[level - 1], rank(i));
  return ladder;
}

template <typename T>
index_t HodlrMatrix<T>::max_rank() const {
  index_t r = 0;
  for (index_t i = 1; i < tree_.num_nodes(); ++i) r = std::max(r, rank(i));
  return r;
}

template <typename T>
void HodlrMatrix<T>::apply(ConstMatrixView<T> x, MatrixView<T> y) const {
  HODLRX_REQUIRE(x.rows == n() && y.rows == n() && x.cols == y.cols,
                 "apply: shape mismatch");
  // y = D x on the leaves (disjoint row ranges -> parallel).
  parallel_for(tree_.num_leaves(), [&](index_t j) {
    const ClusterNode& c = tree_.node(tree_.leaf(j));
    gemm(Op::N, Op::N, T{1}, leaf_d_[j],
         x.block(c.begin, 0, c.size(), x.cols), T{0},
         y.block(c.begin, 0, c.size(), y.cols));
  });
  // Off-diagonal contributions, one level at a time (row ranges within a
  // level are disjoint, so each level parallelizes cleanly).
  for (index_t level = 1; level <= tree_.depth(); ++level) {
    const index_t begin = ClusterTree::level_begin(level);
    const index_t count = ClusterTree::nodes_at_level(level);
    parallel_for(count, [&](index_t k) {
      const index_t nu = begin + k;
      const index_t sib = ClusterTree::sibling(nu);
      if (rank(nu) == 0) return;
      const ClusterNode& rowc = tree_.node(nu);
      const ClusterNode& colc = tree_.node(sib);
      // y(I_nu) += U_nu (V_sib^H x(I_sib)).
      Matrix<T> tmp(rank(nu), x.cols);
      gemm(Op::C, Op::N, T{1}, ConstMatrixView<T>(v_[sib]),
           x.block(colc.begin, 0, colc.size(), x.cols), T{0}, tmp.view());
      gemm(Op::N, Op::N, T{1}, ConstMatrixView<T>(u_[nu]),
           ConstMatrixView<T>(tmp), T{1},
           y.block(rowc.begin, 0, rowc.size(), y.cols));
    });
  }
}

template <typename T>
Matrix<T> HodlrMatrix<T>::to_dense() const {
  Matrix<T> a(n(), n());
  for (index_t j = 0; j < tree_.num_leaves(); ++j) {
    const ClusterNode& c = tree_.node(tree_.leaf(j));
    copy(ConstMatrixView<T>(leaf_d_[j]),
         a.block(c.begin, c.begin, c.size(), c.size()));
  }
  for (index_t nu = 1; nu < tree_.num_nodes(); ++nu) {
    if (rank(nu) == 0) continue;
    const index_t sib = ClusterTree::sibling(nu);
    const ClusterNode& rowc = tree_.node(nu);
    const ClusterNode& colc = tree_.node(sib);
    gemm(Op::N, Op::C, T{1}, ConstMatrixView<T>(u_[nu]),
         ConstMatrixView<T>(v_[sib]), T{0},
         a.block(rowc.begin, colc.begin, rowc.size(), colc.size()));
  }
  return a;
}

template <typename T>
std::size_t HodlrMatrix<T>::bytes() const {
  std::size_t b = 0;
  for (const auto& d : leaf_d_) b += d.bytes();
  for (const auto& m : u_) b += m.bytes();
  for (const auto& m : v_) b += m.bytes();
  return b;
}

template class HodlrMatrix<float>;
template class HodlrMatrix<double>;
template class HodlrMatrix<std::complex<float>>;
template class HodlrMatrix<std::complex<double>>;

}  // namespace hodlrx
