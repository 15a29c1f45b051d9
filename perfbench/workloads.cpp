#include "workloads.hpp"

#include <cmath>
#include <complex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "bie/helmholtz.hpp"
#include "bie/laplace.hpp"
#include "common/blas.hpp"
#include "common/random.hpp"
#include "common/timer.hpp"
#include "core/factorization.hpp"
#include "kernels/kernels.hpp"
#include "precond/gmres.hpp"

namespace perfbench {

using namespace hodlrx;
using C = std::complex<double>;

namespace {

/// Seed of input stream `stream` under `seed` (splitmix64 of the pair).
std::uint64_t mix_seed(std::uint64_t seed, std::int64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull +
                    static_cast<std::uint64_t>(stream) + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr double kPi = 3.14159265358979323846;

/// Point i of a randomly shifted Weyl sequence frac(shift + i * step) in
/// [0, 1). Per-request parameters come from these rather than independent
/// draws: the seed picks the shift, and every run of any length still
/// covers the parameter range evenly, so the per-run latency median does
/// not depend on which inputs a seed happened to draw.
double weyl(std::uint64_t seed, int stream, long i, double step) {
  Rng rng(mix_seed(seed, -100 - stream));
  const double x = rng.uniform(0.0, 1.0) + double(i) * step;
  return x - std::floor(x);
}
// Fractional parts of phi, sqrt 2, sqrt 3, sqrt 5 and sqrt 7: one
// irrational step per parameter, so the parameter sequences do not align.
constexpr double kPhi = 0.6180339887498949, kSqrt2 = 0.4142135623730951,
                 kSqrt3 = 0.7320508075688772, kSqrt5 = 0.2360679774997897,
                 kSqrt7 = 0.6457513110645906;

// ---- one helper per library stage: a span, and in the traced run the
// ---- counting generator, a report, and the per-unit facts ---------------

template <typename T>
HodlrMatrix<T> build(const MatrixGenerator<T>& g, const ClusterTree& tree,
                     const BuildOptions& opt, Probe& probe) {
  auto span = probe.span("build");
  if (!probe.traced()) return HodlrMatrix<T>::build(g, tree, opt);
  FactorReport rep;
  CountingGenerator<T> counted(g);
  HodlrMatrix<T> h = HodlrMatrix<T>::build(counted, tree, opt, &rep);
  index_t rank_sum = 0;
  for (index_t nu = 1; nu < tree.num_nodes(); ++nu) rank_sum += h.rank(nu);
  probe.note("build.aca_stalls", rep.aca_stalls);
  probe.note("build.aca_retries", rep.aca_retries);
  probe.note("build.svd_nonconverged", rep.svd_nonconverged);
  probe.note_max("build.max_rank", h.max_rank());
  probe.note("build.rank_sum", rank_sum);
  probe.note("build.mb", h.bytes() / 1e6);
  probe.note("build.stored", h.bytes() / double(sizeof(T)));
  return h;
}

template <typename T>
PackedHodlr<T> pack(const HodlrMatrix<T>& h, Probe& probe) {
  auto span = probe.span("pack");
  PackedHodlr<T> p = PackedHodlr<T>::pack(h);
  if (probe.traced()) {
    // Share of the zero-padded N x R panels that holds real basis columns.
    double useful = 0;
    for (index_t nu = 1; nu < p.tree.num_nodes(); ++nu)
      useful += double(p.node_rank[nu]) * p.tree.node(nu).size();
    probe.note("pack.mb", p.bytes() / 1e6);
    probe.note("pack.useful", useful);
    probe.note("pack.padded", double(p.n) * p.total_cols);
  }
  return p;
}

template <typename T>
HodlrFactorization<T> factor(const PackedHodlr<T>& p, Probe& probe) {
  auto span = probe.span("factor");
  if (!probe.traced()) return HodlrFactorization<T>::factor(p);
  // A report turns on the library's pivot-growth scan: traced-only cost,
  // which trace.overhead_frac includes.
  FactorReport rep;
  HodlrFactorization<T> f = HodlrFactorization<T>::factor(p, {}, &rep);
  probe.note("factor.lu_pivot_retries", rep.lu_pivot_retries);
  probe.note_max("factor.max_pivot_growth", rep.max_pivot_growth);
  probe.note("factor.mb", f.bytes() / 1e6);
  return f;
}

template <typename T>
void solve(const HodlrFactorization<T>& f, MatrixView<T> b, Probe& probe) {
  auto span = probe.span("solve");
  f.solve_inplace(b);
  if (probe.traced()) probe.note("solve.bytes", double(f.bytes()));
}

template <typename T>
void apply(const HodlrMatrix<T>& h, ConstMatrixView<T> x, MatrixView<T> y,
           Probe& probe) {
  auto span = probe.span("apply");
  h.apply(x, y);
  if (probe.traced()) probe.note("apply.bytes", double(h.bytes()));
}

/// GMRES on `a` with `pre` as the left preconditioner (restart 50, tol
/// 1e-10, at most 150 iterations); `x` holds the initial guess.
template <typename T>
GmresResult<T> precond_gmres(const HodlrMatrix<T>& a,
                             const HodlrFactorization<T>& pre, const T* b,
                             T* x, Probe& probe) {
  const index_t n = a.n();
  LinearOp<T> apply_a = [&](const T* in, T* out) {
    apply<T>(a, ConstMatrixView<T>(in, n, 1, n), {out, n, 1, n}, probe);
  };
  LinearOp<T> precond = [&](const T* in, T* out) {
    std::copy_n(in, n, out);
    solve<T>(pre, {out, n, 1, n}, probe);
  };
  GmresOptions opt;
  opt.restart = 50;
  opt.tol = 1e-10;
  opt.max_iterations = 150;
  auto span = probe.span("gmres");
  GmresResult<T> res = gmres<T>(n, apply_a, precond, b, x, opt);
  if (probe.traced()) {
    probe.note("gmres.iters", double(res.iterations));
    probe.note("gmres.stagnated", res.stagnated ? 1 : 0);
  }
  return res;
}

enum SampleStep : unsigned { kApply = 1, kLogdet = 2, kGmres = 4 };

/// Traced runs only, after a request's gate: the read-only core paths that
/// the workload's requests do not run, once each on that request's
/// operator and factorization, under a "sample" root span. Every per-layer
/// row is then measured on every workload; rows that requests do run are
/// taken from the requests. A set-up's warm-up request runs nested inside
/// the set-up span and takes no sample.
template <typename T>
void sample_read_path(const HodlrMatrix<T>& h, const HodlrFactorization<T>& f,
                      ConstMatrixView<T> b, unsigned steps, Probe& probe) {
  if (!probe.traced() || probe.nested()) return;
  auto root = probe.span("sample");
  if (steps & kApply) {
    Matrix<T> y(b.rows, 1);
    apply<T>(h, b, y.view(), probe);
  }
  if (steps & kLogdet) {
    auto span = probe.span("logdet");
    (void)f.logdet();
  }
  if (steps & kGmres) {
    Matrix<T> x(b.rows, 1);
    precond_gmres<T>(h, f, b.data, x.data(), probe);
  }
}

template <typename T>
double relres(const HodlrMatrix<T>& a, ConstMatrixView<T> x,
              ConstMatrixView<T> b) {
  Matrix<T> r(b.rows, b.cols);
  a.apply(x, r.view());
  axpy(T{-1}, b, r.view());
  return double(norm_fro<T>(ConstMatrixView<T>(r)) / norm_fro<T>(b));
}

// ---- bie_direct ----------------------------------------------------------

/// Paper Sec. IV-B exterior Laplace problem as a shape-design loop: every
/// request is a new blob and a new interior charge, so every request pays
/// construction (discretize -> build -> pack -> factor -> solve -> field).
class BieDirect final : public Workload {
 public:
  static constexpr index_t kN = 16384;
  static constexpr index_t kLeaf = 64;
  static constexpr double kTol = 1e-12;
  static constexpr double kGate = 1e-10;

  BieDirect(std::uint64_t seed, Probe& probe) : seed_(seed) {
    // The loop holds no state between requests, so set-up is one warm-up
    // request on the reference blob of the paper's Fig. 6.
    const Outcome w = solve_shape(bie::BlobContour(), {0.35, -0.2}, probe);
    if (!w.ok) throw std::runtime_error("bie_direct warm-up: " + w.detail);
  }

  Outcome request(long i, Probe& probe) override {
    const double a = 1.8 + 0.4 * weyl(seed_, 0, i, kPhi);
    const double b = 1.3 + 0.4 * weyl(seed_, 1, i, kSqrt2);
    const double amp = 0.05 + 0.15 * weyl(seed_, 2, i, kSqrt3);
    const int lobes = 3 + static_cast<int>(i % 5);
    // Inside the blob: at most half its inner "radius" from the centre.
    const double s = 0.5 * weyl(seed_, 3, i, kSqrt5) * (1 - amp);
    const double th = 2 * kPi * weyl(seed_, 4, i, kSqrt7);
    return solve_shape(bie::BlobContour(a, b, amp, lobes),
                       {s * a * std::cos(th), s * b * std::sin(th)}, probe);
  }

 private:
  Outcome solve_shape(const bie::Contour& contour, bie::Point2 charge,
                      Probe& probe) {
    const std::vector<bie::Point2> targets = {
        {4.0, 0.0}, {-3.5, 2.0}, {0.5, -5.0}, {10.0, 10.0}};
    const bie::Point2 z{0.0, 0.0};  // completion point, inside every blob
    Outcome out;
    std::vector<double> u;
    std::optional<HodlrMatrix<double>> h;
    std::optional<HodlrFactorization<double>> f;
    Matrix<double> sigma(kN, 1);
    WallTimer timer;
    {
      auto req = probe.span("request");
      std::optional<bie::LaplaceExteriorBIE<double>> gen;
      {
        auto span = probe.span("discretize");
        gen.emplace(bie::discretize(contour, kN), z);
      }
      const bie::ContourDiscretization& disc = gen->discretization();
      ClusterTree tree;
      {
        auto span = probe.span("tree");
        tree = ClusterTree::uniform(kN, kLeaf);
      }
      BuildOptions opt;
      opt.tol = kTol;
      h.emplace(build<double>(*gen, tree, opt, probe));
      f.emplace(factor(pack(*h, probe), probe));
      for (index_t i = 0; i < kN; ++i)
        sigma(i, 0) = bie::laplace_greens(disc.x[i], charge);
      solve<double>(*f, sigma.view(), probe);
      {
        auto span = probe.span("potential");
        u = bie::laplace_exterior_potential<double>(disc, z, sigma.data(),
                                                    targets);
      }
      out.seconds = timer.seconds();
    }
    out.ok = true;
    for (std::size_t t = 0; t < targets.size(); ++t) {
      const double err =
          std::abs(u[t] - bie::laplace_greens(targets[t], charge));
      if (!(err <= kGate)) {  // NaN fails too
        out.ok = false;
        out.detail = "far-field error " + std::to_string(err);
      }
    }
    sample_read_path<double>(*h, *f, sigma, kApply | kLogdet | kGmres, probe);
    return out;
  }

  std::uint64_t seed_;
};

// ---- gp_shift_sweep ------------------------------------------------------

/// GP noise-variance sweep: the kernel is compressed once in set-up; each
/// request changes only the nugget on the leaf diagonals, then refactors.
/// Requests never touch the generator or the compressor.
class GpShiftSweep final : public Workload {
 public:
  static constexpr index_t kN = 16384;
  static constexpr index_t kLeaf = 64;
  static constexpr double kScale = 0.1;
  static constexpr double kTol = 1e-6;
  static constexpr double kGate = 1e-8;

  GpShiftSweep(std::uint64_t seed, Probe& probe) : seed_(seed) {
    const PointSet pts = uniform_random_points(kN, 2, 0.0, 1.0,
                                               mix_seed(seed, -1));
    GeometricTree geo;
    {
      auto span = probe.span("tree");
      geo = build_kd_tree(pts, kLeaf);
    }
    const Matern32Kernel<double> cov(std::move(geo.points), kScale);
    // Observations: a smooth field of the (tree-ordered) inputs plus noise.
    Rng rng(mix_seed(seed, -2));
    y_ = Matrix<double>(kN, 1);
    for (index_t i = 0; i < kN; ++i) {
      const double x0 = cov.points().coord(i, 0), x1 = cov.points().coord(i, 1);
      y_(i, 0) = std::sin(6 * x0) * std::cos(4 * x1) + 0.1 * rng.gaussian<double>();
    }
    BuildOptions opt;
    opt.tol = kTol;
    k_.emplace(build<double>(cov, geo.tree, opt, probe));
    for (index_t j = 0; j < geo.tree.num_leaves(); ++j) {
      const Matrix<double>& d = k_->leaf_block(j);
      for (index_t i = 0; i < d.rows(); ++i) diag_.push_back(d(i, i));
    }
    const Outcome w = run(1e-2, probe);
    if (!w.ok) throw std::runtime_error("gp_shift_sweep warm-up: " + w.detail);
  }

  Outcome request(long i, Probe& probe) override {
    return run(std::pow(10.0, -3.0 + 2.0 * weyl(seed_, 0, i, kPhi)), probe);
  }

 private:
  Outcome run(double nugget, Probe& probe) {
    set_nugget(nugget);  // outside the timed region
    Outcome out;
    Matrix<double> alpha = y_;
    std::optional<HodlrFactorization<double>> f;
    HodlrFactorization<double>::LogDet ld;
    double loglik = 0;
    WallTimer timer;
    {
      auto req = probe.span("request");
      f.emplace(factor(pack(*k_, probe), probe));
      solve<double>(*f, alpha.view(), probe);
      {
        auto span = probe.span("logdet");
        ld = f->logdet();
      }
      double quad = 0;
      for (index_t i = 0; i < kN; ++i) quad += y_(i, 0) * alpha(i, 0);
      loglik = -0.5 * quad - 0.5 * ld.log_abs - 0.5 * kN * std::log(2 * kPi);
      out.seconds = timer.seconds();
    }
    const double rr = relres<double>(*k_, alpha, y_);
    out.ok = rr <= kGate && std::isfinite(ld.log_abs) && ld.phase == 1.0 &&
             std::isfinite(loglik);
    if (!out.ok)
      out.detail = "relres " + std::to_string(rr) + " logdet " +
                   std::to_string(ld.log_abs) + " phase " +
                   std::to_string(ld.phase);
    sample_read_path<double>(*k_, *f, y_, kApply | kGmres, probe);
    return out;
  }

  void set_nugget(double nugget) {
    std::size_t k = 0;
    for (index_t j = 0; j < k_->tree().num_leaves(); ++j) {
      Matrix<double>& d = k_->leaf_block(j);
      for (index_t i = 0; i < d.rows(); ++i) d(i, i) = diag_[k++] + nugget;
    }
  }

  std::uint64_t seed_;
  Matrix<double> y_;
  std::optional<HodlrMatrix<double>> k_;
  std::vector<double> diag_;  ///< nugget-free leaf diagonals, leaf order
};

// ---- helmholtz_precond ---------------------------------------------------

/// Paper Sec. IV-C: a tol-1e-4 factorization preconditions GMRES on the
/// tol-1e-10 combined-field operator. Set-up owns every build and factor;
/// requests run only the read-only apply / solve path on complex data.
class HelmholtzPrecond final : public Workload {
 public:
  static constexpr index_t kN = 8192;
  static constexpr index_t kLeaf = 64;
  static constexpr double kKappa = 60.0, kEta = 60.0;
  static constexpr double kGate = 1e-9;

  HelmholtzPrecond(std::uint64_t seed, Probe& probe) : seed_(seed) {
    std::optional<bie::HelmholtzCombinedBIE<C>> gen;
    {
      auto span = probe.span("discretize");
      gen.emplace(bie::discretize(bie::BlobContour(), kN), kKappa, kEta, 6);
    }
    ClusterTree tree;
    {
      auto span = probe.span("tree");
      tree = ClusterTree::uniform(kN, kLeaf);
    }
    x_ = gen->discretization().x;
    BuildOptions hi, lo;
    hi.tol = 1e-10;
    lo.tol = 1e-4;
    op_.emplace(build<C>(*gen, tree, hi, probe));
    pre_.emplace(factor(pack(build<C>(*gen, tree, lo, probe), probe), probe));
    const Outcome w = run(0.3, probe);
    if (!w.ok) throw std::runtime_error("helmholtz_precond warm-up: " + w.detail);
  }

  Outcome request(long i, Probe& probe) override {
    return run(2 * kPi * weyl(seed_, 0, i, kPhi), probe);
  }

 private:
  Outcome run(double angle, Probe& probe) {
    // Sound-soft scattering of the plane wave exp(i kappa d.x).
    Matrix<C> rhs(kN, 1);
    for (index_t i = 0; i < kN; ++i)
      rhs(i, 0) = -std::exp(C(0.0, kKappa * (std::cos(angle) * x_[i].x +
                                            std::sin(angle) * x_[i].y)));
    Matrix<C> x(kN, 1);
    Outcome out;
    GmresResult<C> res;
    WallTimer timer;
    {
      auto req = probe.span("request");
      res = precond_gmres<C>(*op_, *pre_, rhs.data(), x.data(), probe);
      out.seconds = timer.seconds();
    }
    const double rr = relres<C>(*op_, x, rhs);
    out.ok = res.converged && rr <= kGate;
    if (!out.ok)
      out.detail = std::string(res.converged ? "" : "gmres not converged, ") +
                   "true relres " + std::to_string(rr);
    sample_read_path<C>(*op_, *pre_, rhs, kLogdet, probe);
    return out;
  }

  std::uint64_t seed_;
  std::vector<bie::Point2> x_;  ///< boundary nodes (for the incident wave)
  std::optional<HodlrMatrix<C>> op_;
  std::optional<HodlrFactorization<C>> pre_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Probe& probe) {
  if (name == "bie_direct") return std::make_unique<BieDirect>(seed, probe);
  if (name == "gp_shift_sweep")
    return std::make_unique<GpShiftSweep>(seed, probe);
  if (name == "helmholtz_precond")
    return std::make_unique<HelmholtzPrecond>(seed, probe);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
