/// hodlrx_perfbench: runs one closed-loop workload in this process, driven by
/// one client thread, and prints the raw samples as one JSON line (the last
/// line of stdout). perfbench/run.py builds it, pins the environment, and
/// turns the samples into the benchmark's metrics.
///
///   hodlrx_perfbench --workload NAME --seed N (--seconds S | --requests K)
///                    [--trace 0|1] [--trace-file PATH]
///
/// The library's lazy initialisation is timed once (init_s); then set-up
/// runs several times, each from scratch (setup_s = init_s + the median).
/// Then requests run back to back until --seconds have passed or --requests
/// are done. With --trace 1 every request input runs twice, plain and traced
/// in alternating order, so the tracing overhead is measured on identical
/// inputs within one run; the per-layer metrics come from the traced
/// requests and the traced set-ups.

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/blas.hpp"
#include "common/blocking.hpp"
#include "common/hwinfo.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "device/device.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using hodlrx::index_t;

/// Set-up repeats at least kMinSetupReps times and until kMinSetupSeconds
/// have been spent (cheap set-ups get more repetitions), at most
/// kMaxSetupReps; setup_s uses the median repetition.
constexpr int kMinSetupReps = 3, kMaxSetupReps = 10;
constexpr double kMinSetupSeconds = 3.0;
/// Count metrics are the median over this many units (the first traced
/// requests, or the set-ups), whose inputs are fixed by the seed, so the
/// counts repeat exactly.
constexpr long kCountedUnits = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  long requests = 0;  ///< > 0: run exactly this many requests instead
  bool trace = false;
  std::string trace_file;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--requests") a.requests = std::stol(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-file") a.trace_file = v;
    else throw std::invalid_argument("unknown option " + k);
  }
  if (a.workload.empty() || argc % 2 == 0)
    throw std::invalid_argument("usage: --workload NAME --seed N "
                                "(--seconds S | --requests K) [--trace 0|1] "
                                "[--trace-file PATH]");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1e3;
  return 0;
}

/// Best-of-5 rate of the public parallel GEMM on a 1024^3 double product:
/// the roofline reference of factor.roofline_frac, measured in the same run.
double gemm_peak_gflops() {
  const index_t n = 1024;
  const auto a = hodlrx::random_matrix<double>(n, n, 1);
  const auto b = hodlrx::random_matrix<double>(n, n, 2);
  hodlrx::Matrix<double> c(n, n);
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < 5; ++r) {
    hodlrx::WallTimer t;
    hodlrx::gemm_parallel<double>(hodlrx::Op::N, hodlrx::Op::N, 1.0, a, b, 0.0,
                                  c.view());
    best = std::min(best, t.seconds());
  }
  return 2.0 * n * n * n / best / 1e9;
}

// ---- per-layer aggregation over the traced probe -------------------------

/// Span totals of one unit (a request or a set-up), keyed by span name.
struct Unit {
  std::map<std::string, double> secs;
  std::map<std::string, double> self;  ///< secs minus direct child spans
  std::map<std::string, double> calls;
  std::map<std::string, Counters> ctr;
  const Facts* facts = nullptr;

  double fact(const std::string& k) const {
    if (!facts) return 0;
    const auto it = facts->find(k);
    return it == facts->end() ? 0 : it->second;
  }
  double s(const std::string& k) const { return get(secs, k); }
  double self_s(const std::string& k) const { return get(self, k); }
  double n(const std::string& k) const { return get(calls, k); }
  Counters c(const std::string& k) const {
    const auto it = ctr.find(k);
    return it == ctr.end() ? Counters{} : it->second;
  }

 private:
  static double get(const std::map<std::string, double>& m,
                    const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0 : it->second;
  }
};

double flops(const Counters& c) {
  return double(c.flop_gemm + c.flop_lu + c.flop_trsm + c.flop_other);
}

class Layers {
 public:
  explicit Layers(const Probe& p) {
    for (const Span& s : p.spans()) {
      Unit& u = units_[s.unit];
      u.secs[s.name] += s.seconds();
      u.self[s.name] += s.seconds();
      if (s.parent >= 0) {
        const Span& up = p.spans()[s.parent];
        units_[up.unit].self[up.name] -= s.seconds();
      }
      u.calls[s.name] += 1;
      u.ctr[s.name] += s.delta;
    }
    for (auto& [key, u] : units_) {
      const auto it = p.facts().find(key);
      if (it != p.facts().end()) u.facts = &it->second;
    }
  }

  /// Units that ran `stage`: the traced requests if any request ran it,
  /// else the set-ups (build runs only in set-up on two workloads), else
  /// the read-path samples taken after the traced requests.
  std::vector<const Unit*> units(const std::string& stage) const {
    for (const char* root : {"request", "setup", "sample"}) {
      std::vector<const Unit*> v;
      for (const auto& [key, u] : units_)
        if (key.second == root && u.n(stage) > 0) v.push_back(&u);
      if (!v.empty()) return v;
    }
    return {};
  }
  std::vector<const Unit*> counted(const std::string& stage) const {
    auto v = units(stage);
    if (static_cast<long>(v.size()) > kCountedUnits) v.resize(kCountedUnits);
    return v;
  }
  template <typename F>
  double med(const std::string& stage, F f) const {
    std::vector<double> v;
    for (const Unit* u : units(stage)) v.push_back(f(*u));
    return median(v);
  }
  template <typename F>
  double cmed(const std::string& stage, F f) const {
    std::vector<double> v;
    for (const Unit* u : counted(stage)) v.push_back(f(*u));
    return median(v);
  }
  template <typename F>
  double sum(const std::vector<const Unit*>& us, F f) const {
    double t = 0;
    for (const Unit* u : us) t += f(*u);
    return t;
  }
  double secs(const std::string& stage) const {
    return med(stage, [&](const Unit& u) { return u.s(stage); });
  }
  double fact(const std::string& stage, const std::string& key) const {
    return cmed(stage, [&](const Unit& u) { return u.fact(key); });
  }
  double ratio(double num, double den) const { return den > 0 ? num / den : 0; }

 private:
  std::map<UnitKey, Unit> units_;
};

struct LayerCheck {
  bool ok = true;
  std::string detail;
};

std::vector<std::pair<std::string, double>> layer_metrics(
    const Probe& probe, int threads, double peak_gflops) {
  const Layers L(probe);
  std::vector<std::pair<std::string, double>> m;
  auto put = [&](const char* name, double v) { m.emplace_back(name, v); };

  put("tree.s", L.secs("tree"));

  const auto builds = L.units("build"), cbuilds = L.counted("build");
  auto gen_busy = [](const Unit& u) { return u.c("build").gen_busy_ns / 1e9; };
  auto gen_entries = [](const Unit& u) {
    return double(u.c("build").gen_entries);
  };
  put("gen.entries", L.cmed("build", gen_entries));
  put("gen.busy_s", L.med("build", gen_busy));
  put("gen.entries_per_s",
      L.ratio(L.sum(builds, gen_entries), L.sum(builds, gen_busy)));
  put("gen.stored_per_entry",
      L.ratio(L.sum(cbuilds, [](const Unit& u) { return u.fact("build.stored"); }),
              L.sum(cbuilds, gen_entries)));

  put("build.s", L.secs("build"));
  put("build.gflop",
      L.cmed("build", [](const Unit& u) { return flops(u.c("build")) / 1e9; }));
  put("build.max_rank", L.fact("build", "build.max_rank"));
  put("build.rank_sum", L.fact("build", "build.rank_sum"));
  put("build.mb", L.fact("build", "build.mb"));
  put("build.gen_share",
      L.ratio(L.sum(builds, gen_busy),
              threads * L.sum(builds, [](const Unit& u) { return u.s("build"); })));
  put("build.aca_stalls", L.fact("build", "build.aca_stalls"));
  put("build.aca_retries", L.fact("build", "build.aca_retries"));
  put("build.svd_nonconverged", L.fact("build", "build.svd_nonconverged"));

  const auto cpacks = L.counted("pack");
  put("pack.s", L.secs("pack"));
  put("pack.mb", L.fact("pack", "pack.mb"));
  put("pack.fill_ratio",
      L.ratio(L.sum(cpacks, [](const Unit& u) { return u.fact("pack.useful"); }),
              L.sum(cpacks, [](const Unit& u) { return u.fact("pack.padded"); })));

  const double factor_gflops = L.med("factor", [](const Unit& u) {
    return u.s("factor") > 0 ? flops(u.c("factor")) / u.s("factor") / 1e9 : 0;
  });
  put("factor.s", L.secs("factor"));
  put("factor.gflop",
      L.cmed("factor", [](const Unit& u) { return flops(u.c("factor")) / 1e9; }));
  put("factor.gflops", factor_gflops);
  put("factor.roofline_frac", L.ratio(factor_gflops, peak_gflops));
  put("factor.mb", L.fact("factor", "factor.mb"));
  put("factor.lu_pivot_retries", L.fact("factor", "factor.lu_pivot_retries"));
  put("factor.max_pivot_growth", L.fact("factor", "factor.max_pivot_growth"));

  // Operations per byte of the operand the call streams once (the factor
  // for a solve, the compressed operator for an apply): computed bytes.
  const auto csolves = L.counted("solve"), capplies = L.counted("apply");
  put("solve.s", L.secs("solve"));
  put("solve.gflop",
      L.cmed("solve", [](const Unit& u) { return flops(u.c("solve")) / 1e9; }));
  put("solve.flop_per_byte",
      L.ratio(L.sum(csolves, [](const Unit& u) { return flops(u.c("solve")); }),
              L.sum(csolves, [](const Unit& u) { return u.fact("solve.bytes"); })));
  put("logdet.s", L.secs("logdet"));
  put("apply.s", L.secs("apply"));
  put("apply.calls", L.cmed("apply", [](const Unit& u) { return u.n("apply"); }));
  put("apply.flop_per_byte",
      L.ratio(L.sum(capplies, [](const Unit& u) { return flops(u.c("apply")); }),
              L.sum(capplies, [](const Unit& u) { return u.fact("apply.bytes"); })));

  put("gmres.iters", L.fact("gmres", "gmres.iters"));
  put("gmres.self_s",
      L.med("gmres", [](const Unit& u) { return u.self_s("gmres"); }));
  put("gmres.stagnated", L.sum(L.units("gmres"), [](const Unit& u) {
    return u.fact("gmres.stagnated");
  }));

  // Whole-request counter deltas.
  auto req = [&](auto field) {
    return L.cmed("request", [&](const Unit& u) { return field(u.c("request")); });
  };
  put("batched.qr_panel_launches",
      req([](const Counters& c) { return double(c.qr_panel_launches); }));
  put("batched.svd_sweep_launches",
      req([](const Counters& c) { return double(c.svd_sweep_launches); }));
  put("batched.svd_nonconverged",
      req([](const Counters& c) { return double(c.svd_nonconverged); }));
  put("batched.simd_groups", req([](const Counters& c) {
        return double(c.simd_qr_groups + c.simd_jacobi_groups + c.simd_gemm_groups);
      }));
  put("batched.gemm_shared_packs",
      req([](const Counters& c) { return double(c.gemm_shared_packs); }));

  put("kernel.gemm_peak_gflops", peak_gflops);
  put("kernel.gemm_gflop", req([](const Counters& c) { return c.flop_gemm / 1e9; }));
  put("kernel.lu_gflop", req([](const Counters& c) { return c.flop_lu / 1e9; }));
  put("kernel.trsm_gflop", req([](const Counters& c) { return c.flop_trsm / 1e9; }));
  put("kernel.other_gflop", req([](const Counters& c) { return c.flop_other / 1e9; }));

  put("sched.threads", threads);
  put("sched.graphs_run", req([](const Counters& c) { return double(c.sched_graphs); }));
  put("sched.nodes", req([](const Counters& c) { return double(c.sched_nodes); }));
  put("sched.steals", req([](const Counters& c) { return double(c.sched_steals); }));

  put("device.peak_mb", hodlrx::DeviceContext::global().peak_bytes() / 1e6);
  put("device.h2d_mb", req([](const Counters& c) { return c.device_h2d / 1e6; }));
  put("device.launches",
      req([](const Counters& c) { return double(c.device_launches); }));
  return m;
}

/// Fails when a workload stops stressing the layer it was chosen for.
LayerCheck layer_check(const Probe& probe, const std::string& workload) {
  const Layers L(probe);
  const auto reqs = L.units("request");
  auto total = [&](const char* stage) {
    return L.sum(reqs, [&](const Unit& u) { return u.s(stage); });
  };
  const double t = total("request");
  char buf[256];
  LayerCheck c;
  if (workload == "bie_direct") {
    const double share = L.ratio(total("build"), t);
    c.ok = share >= 0.5;
    std::snprintf(buf, sizeof buf, "build share %.3f (need >= 0.5)", share);
  } else if (workload == "gp_shift_sweep") {
    const double entries = L.sum(reqs, [](const Unit& u) {
      return double(u.c("request").gen_entries);
    });
    const double share = L.ratio(total("factor"), t);
    c.ok = entries == 0 && share >= 0.5;
    std::snprintf(buf, sizeof buf,
                  "generator entries in requests %.0f (need 0), factor share "
                  "%.3f (need >= 0.5)", entries, share);
  } else {
    const double calls = L.sum(reqs, [](const Unit& u) {
      return u.n("build") + u.n("factor");
    });
    const double share = L.ratio(total("apply") + total("solve"), t);
    c.ok = calls == 0 && share >= 0.7;
    std::snprintf(buf, sizeof buf,
                  "build+factor calls in requests %.0f (need 0), apply+solve "
                  "share %.3f (need >= 0.7)", calls, share);
  }
  c.detail = buf;
  if (reqs.empty()) {
    c.ok = false;
    c.detail = "no traced request completed";
  }
  return c;
}

// ---- JSON output ---------------------------------------------------------

std::string quote(const std::string& s) {
  std::string o = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    o += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  return o + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename V, typename F>
std::string list(const V& v, F f) {
  std::string o = "[";
  for (std::size_t i = 0; i < v.size(); ++i) o += (i ? "," : "") + f(v[i]);
  return o + "]";
}

struct Sample {
  long request;
  double seconds;
  bool ok;
  bool traced;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    // The library's lazy one-off state: the worker pool, the hardware probe
    // and the per-type GEMM blocking with its first-use autotune. Timed once
    // here so that every set-up repetition below starts warm.
    const hodlrx::WallTimer init;
    const int threads = hodlrx::ThreadPool::instance().threads();
    hodlrx::hwinfo();
    hodlrx::resolved_blocking<double>();
    hodlrx::resolved_blocking<std::complex<double>>();
    const double init_s = init.seconds();

    Probe traced(true), plain(false);
    Probe& setup_probe = a.trace ? traced : plain;
    std::vector<double> setup_s;
    double setup_total = 0;
    std::unique_ptr<Workload> w;
    for (int rep = 0; rep < kMaxSetupReps &&
                      (rep < kMinSetupReps || setup_total < kMinSetupSeconds);
         ++rep) {
      w.reset();  // each set-up starts from nothing
      setup_probe.set_unit(-1 - rep);
      hodlrx::WallTimer t;
      {
        auto span = setup_probe.span("setup");
        w = make_workload(a.workload, a.seed, setup_probe);
      }
      setup_s.push_back(t.seconds());
      setup_total += setup_s.back();
      std::fprintf(stderr, "setup %d: %.3f s\n", rep, setup_s.back());
    }
    const double peak_gflops = a.trace ? gemm_peak_gflops() : 0;

    std::vector<Sample> samples;
    std::vector<std::string> failures;
    auto run_one = [&](long i, Probe& p) {
      p.set_unit(i);
      Outcome o;
      try {
        o = w->request(i, p);
      } catch (const std::exception& e) {
        o.ok = false;
        o.seconds = std::numeric_limits<double>::quiet_NaN();
        o.detail = e.what();
      }
      samples.push_back({i, o.seconds, o.ok, p.traced()});
      if (!o.ok) {
        failures.push_back("request " + std::to_string(i) + ": " + o.detail);
        std::fprintf(stderr, "FAILED %s\n", failures.back().c_str());
      }
    };
    const hodlrx::WallTimer run;
    for (long i = 0;; ++i) {
      const bool more = a.requests > 0
                            ? i < a.requests
                            : run.seconds() < a.seconds ||
                                  (a.trace && i < kCountedUnits);
      if (!more) break;
      if (!a.trace) {
        run_one(i, plain);
      } else if (i % 2 == 0) {  // each input runs plain and traced, in
        run_one(i, plain);      // alternating order
        run_one(i, traced);
      } else {
        run_one(i, traced);
        run_one(i, plain);
      }
    }

    long failed = 0;
    for (const Sample& s : samples) failed += !s.ok;
    const hodlrx::HwInfo& hw = hodlrx::hwinfo();
    std::ostringstream js;
    js << "{\"workload\":" << quote(a.workload) << ",\"seed\":" << a.seed
       << ",\"threads\":" << threads << ",\"hw\":{\"family\":"
       << quote(hw.family) << ",\"vendor\":" << quote(hw.vendor)
       << ",\"source\":" << quote(hw.source) << ",\"l1d\":" << hw.l1d_bytes
       << ",\"l2\":" << hw.l2_bytes << ",\"l3\":" << hw.l3_bytes
       << ",\"simd_bytes\":" << hw.simd_bytes
       << ",\"logical_cpus\":" << hw.logical_cpus << "}"
       << ",\"init_s\":" << num(init_s)
       << ",\"setup_s\":" << list(setup_s, num)
       << ",\"latency_s\":"
       << list(samples, [](const Sample& s) { return num(s.seconds); })
       << ",\"ok\":"
       << list(samples, [](const Sample& s) { return std::string(s.ok ? "1" : "0"); })
       << ",\"attempted\":" << samples.size() << ",\"failed\":" << failed
       << ",\"failures\":" << list(failures, quote)
       << ",\"peak_rss_mb\":" << num(peak_rss_mb());
    // Plain per-request stage medians (the single-thread scaling pass).
    const Layers plain_layers(plain);
    js << ",\"stage_s\":{\"build\":" << num(plain_layers.secs("build"))
       << ",\"factor\":" << num(plain_layers.secs("factor")) << "}";
    if (a.trace) {
      // Paired: traced over plain time of the same input.
      std::map<long, double> plain_s;
      std::vector<double> ratios;
      for (const Sample& s : samples)
        if (s.ok && !s.traced) plain_s[s.request] = s.seconds;
      for (const Sample& s : samples)
        if (s.ok && s.traced && plain_s.count(s.request))
          ratios.push_back(s.seconds / plain_s[s.request]);
      auto layers = layer_metrics(traced, threads, peak_gflops);
      layers.emplace_back("trace.overhead_frac", median(ratios) - 1.0);
      js << ",\"layer\":{";
      for (std::size_t i = 0; i < layers.size(); ++i)
        js << (i ? "," : "") << quote(layers[i].first) << ":"
           << num(layers[i].second);
      const LayerCheck chk = layer_check(traced, a.workload);
      js << "},\"layer_check\":{\"ok\":" << (chk.ok ? "true" : "false")
         << ",\"detail\":" << quote(chk.detail) << "}";
      if (!a.trace_file.empty()) traced.write_chrome_trace(a.trace_file);
    }
    js << "}";
    std::printf("%s\n", js.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hodlrx_perfbench: %s\n", e.what());
    return 1;
  }
}
