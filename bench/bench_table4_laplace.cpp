/// Reproduces paper Table IV and Fig. 7 (Sec. IV-B): the completed
/// double-layer BIE for the exterior Laplace problem (eq. 21) on the smooth
/// contour, 2nd-order (trapezoidal) discretization. Four solver columns:
///   serial HODLR (Alg. 1/2, one thread) | serial block-sparse |
///   parallel block-sparse | GPU HODLR (Alg. 3/4, batched).
/// (a) high accuracy: tol 1e-12, double precision;
/// (b) --low: tol 1e-5, single precision (the paper's Table IV b).
/// Default sweep N = 2^12 .. 2^15; --full extends to 2^18 (block-sparse
/// dominates the runtime there).

#include <cstdlib>

#include "bench_util.hpp"
#include "bie/laplace.hpp"
#include "common/parallel.hpp"

using namespace hodlrx;

/// Levels-vs-graph scheduler comparison (docs/runtime-scheduler.md) on the
/// batched engine at one representative size: the same packed operator is
/// built, factored and solved under HODLRX_SCHED=levels and =graph (the mode
/// is reread per call, so an in-process setenv flips it). Records land in
/// BENCH_table4_laplace.json with the sched_stats counters, so the graph
/// scheduler's overlap win at >= 4 threads is tracked across PRs.
template <typename T>
void sched_compare(bench::JsonArrayWriter& out, const bench::Args& args,
                   index_t n, double tol) {
  const char* old = std::getenv("HODLRX_SCHED");
  const std::string saved = old != nullptr ? old : "";
  bie::BlobContour contour;
  bie::ContourDiscretization d = bie::discretize(contour, n);
  bie::LaplaceExteriorBIE<T> gen(d, {0.0, 0.0});
  ClusterTree tree = ClusterTree::uniform(n, 64);
  BuildOptions bopt;
  bopt.tol = tol;
  Matrix<T> b = random_matrix<T>(n, 1, 11);

  std::printf("\n== scheduler compare: Laplace BIE N=%lld, batched engine, "
              "%d threads ==\n",
              static_cast<long long>(n), max_threads());
  double tf_levels = 0;
  for (const char* mode : {"levels", "graph"}) {
    setenv("HODLRX_SCHED", mode, 1);
    sched_stats::reset();
    const double tb = bench::time_best(args.repeats, [&] {
      HodlrMatrix<T> hm = HodlrMatrix<T>::build(gen, tree, bopt);
    });
    HodlrMatrix<T> h = HodlrMatrix<T>::build(gen, tree, bopt);
    PackedHodlr<T> p = PackedHodlr<T>::pack(h);
    bench::SolverStats s = bench::bench_packed(
        h, p, ExecMode::kBatched, ConstMatrixView<T>(b), args.repeats);
    out.begin_record();
    out.field("case", "sched_compare");
    out.field("sched", mode);
    out.field("n", n);
    out.field("threads", static_cast<index_t>(max_threads()));
    out.field("tb", tb);
    out.field("tf", s.tf);
    out.field("ts", s.ts);
    out.field("relres", s.relres);
    out.field("graphs_run", static_cast<index_t>(sched_stats::graphs_run()));
    out.field("graph_nodes", static_cast<index_t>(sched_stats::nodes()));
    out.field("graph_edges", static_cast<index_t>(sched_stats::edges()));
    out.field("graph_steals", static_cast<index_t>(sched_stats::steals()));
    out.field("max_ready_depth",
              static_cast<index_t>(sched_stats::max_ready_depth()));
    out.end_record();
    std::printf("  %-6s  tb %9.3e  tf %9.3e  ts %9.3e  relres %9.2e"
                "  (graphs %llu, nodes %llu, steals %llu)\n",
                mode, tb, s.tf, s.ts, s.relres,
                static_cast<unsigned long long>(sched_stats::graphs_run()),
                static_cast<unsigned long long>(sched_stats::nodes()),
                static_cast<unsigned long long>(sched_stats::steals()));
    if (std::string(mode) == "levels")
      tf_levels = s.tf;
    else if (tf_levels > 0)
      std::printf("  graph/levels tf speedup: %.2fx\n", tf_levels / s.tf);
  }
  if (old != nullptr)
    setenv("HODLRX_SCHED", saved.c_str(), 1);
  else
    unsetenv("HODLRX_SCHED");
}

template <typename T>
void run(const bench::Args& args, double tol) {
  const index_t n_lo = 1 << 12;
  index_t n_hi = args.full ? (1 << 18) : (1 << 15);
  if (args.max_n > 0) n_hi = args.max_n;

  std::printf("%10s  %20s  %20s  %20s  %20s  %9s\n", "N",
              "SerialHODLR tf    ts", "SerBlkSprs tf     ts",
              "ParBlkSprs tf     ts", "GPU HODLR tf      ts", "relres");
  for (index_t n = n_lo; n <= n_hi; n *= 2) {
    bie::BlobContour contour;
    bie::ContourDiscretization d = bie::discretize(contour, n);
    bie::LaplaceExteriorBIE<T> gen(d, {0.0, 0.0});
    ClusterTree tree = ClusterTree::uniform(n, 64);
    BuildOptions bopt;
    bopt.tol = tol;
    HodlrMatrix<T> h = HodlrMatrix<T>::build(gen, tree, bopt);
    PackedHodlr<T> p = PackedHodlr<T>::pack(h);
    Matrix<T> b = random_matrix<T>(n, 1, 11);

    bench::SolverStats sh = bench::bench_packed(h, p, ExecMode::kSerial,
                                                ConstMatrixView<T>(b),
                                                args.repeats);
    bench::SolverStats bs = bench::bench_block_sparse(
        h, ConstMatrixView<T>(b), args.repeats, /*parallel=*/false);
    bench::SolverStats bp = bench::bench_block_sparse(
        h, ConstMatrixView<T>(b), args.repeats, /*parallel=*/true);
    bench::SolverStats gpu = bench::bench_packed(
        h, p, ExecMode::kBatched, ConstMatrixView<T>(b), args.repeats);

    std::printf(
        "%10lld  %9.3e %9.3e  %9.3e %9.3e  %9.3e %9.3e  %9.3e %9.3e  %9.2e\n",
        static_cast<long long>(n), sh.tf, sh.ts, bs.tf, bs.ts, bp.tf, bp.ts,
        gpu.tf, gpu.ts, gpu.relres);
    std::printf("      mem[GB]: serialH %.4f  serBS %.4f  parBS %.4f  "
                "gpuH %.4f\n",
                sh.mem_gb, bs.mem_gb, bp.mem_gb, gpu.mem_gb);
  }
}

int main(int argc, char** argv) {
  bench::Args args = bench::Args::parse(argc, argv);
  bench::JsonArrayWriter out("BENCH_table4_laplace.json");
  bench::emit_blocking_records(out);
  if (!args.low_accuracy) {
    std::printf(
        "== Table IV(a) / Fig. 7(a,b): Laplace BIE, tol 1e-12, double ==\n");
    run<double>(args, 1e-12);
    std::printf("\n");
  }
  std::printf(
      "== Table IV(b) / Fig. 7(c,d): Laplace BIE, tol 1e-5, SINGLE "
      "precision ==\n");
  run<float>(args, 1e-5);
  std::printf(
      "\nShape checks vs the paper: GPU HODLR fastest on both stages; the\n"
      "serial block-sparse solver beats the serial HODLR solver in tf; all\n"
      "columns scale near-linearly; --low runs ~2x faster in float.\n");
  // Scheduler comparison at one representative size (tol 1e-12, double —
  // the Table IV(a) setting). --max-n caps it like the table sweep.
  index_t sched_n = 1 << 13;
  if (args.max_n > 0 && args.max_n < sched_n) sched_n = args.max_n;
  sched_compare<double>(out, args, sched_n, 1e-12);
  return 0;
}
