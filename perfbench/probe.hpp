#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lowrank/generator.hpp"

/// \file probe.hpp
/// The benchmark's own tracing layer: spans around each call into the
/// library, a snapshot of the library's public counters taken at both ends
/// of every span, and a counting/timing generator wrapper. Nothing here
/// changes library code; everything is observed from the call sites.

namespace perfbench {

/// Every public process-wide counter the library exposes, read in one pass.
/// The X-macro keeps the name list, the read and the subtraction in step.
#define PERFBENCH_COUNTERS(X)                                  \
  X(flop_gemm) X(flop_lu) X(flop_trsm) X(flop_other)           \
  X(qr_geqrf_sweeps) X(qr_thin_q_sweeps) X(qr_panel_launches)  \
  X(svd_serial) X(svd_nonconverged) X(svd_batched_sweeps)      \
  X(svd_sweep_launches)                                        \
  X(simd_qr_groups) X(simd_jacobi_groups) X(simd_gemm_groups)  \
  X(gemm_a_packs) X(gemm_b_packs) X(gemm_shared_packs)         \
  X(gemm_pool_packs)                                           \
  X(sched_graphs) X(sched_nodes) X(sched_edges) X(sched_steals) \
  X(backend_deferred) X(backend_drained) X(backend_events)     \
  X(backend_drains)                                            \
  X(gen_full_materializations) X(gen_entries) X(gen_busy_ns)   \
  X(gen_calls)                                                 \
  X(device_h2d) X(device_d2h) X(device_launches) X(pool_launches)

struct Counters {
#define PERFBENCH_FIELD(name) std::uint64_t name = 0;
  PERFBENCH_COUNTERS(PERFBENCH_FIELD)
#undef PERFBENCH_FIELD

  /// Read every counter now.
  static Counters now();
  Counters& operator+=(const Counters& o);
  friend Counters operator-(Counters a, const Counters& b);
  /// (name, value) pairs in declaration order.
  std::vector<std::pair<const char*, std::uint64_t>> items() const;
};

/// Process-wide counters of the CountingGenerator (folded into Counters).
struct GeneratorTally {
  std::atomic<std::uint64_t> entries{0}, busy_ns{0}, calls{0};
};
GeneratorTally& generator_tally();

/// Forwards every call to an existing generator and counts the entries it
/// evaluates and the time spent evaluating them (summed over threads). It
/// costs one extra virtual call per fill, so only the traced run uses it.
template <typename T>
class CountingGenerator final : public hodlrx::MatrixGenerator<T> {
 public:
  explicit CountingGenerator(const hodlrx::MatrixGenerator<T>& inner)
      : inner_(inner) {}

  hodlrx::index_t rows() const override { return inner_.rows(); }
  hodlrx::index_t cols() const override { return inner_.cols(); }
  T entry(hodlrx::index_t i, hodlrx::index_t j) const override {
    const auto t0 = clock::now();
    const T v = inner_.entry(i, j);
    tally(1, t0);
    return v;
  }
  void fill_row(hodlrx::index_t i, hodlrx::index_t j0, hodlrx::index_t j1,
                T* out) const override {
    const auto t0 = clock::now();
    inner_.fill_row(i, j0, j1, out);
    tally(static_cast<std::uint64_t>(j1 - j0), t0);
  }
  void fill_col(hodlrx::index_t j, hodlrx::index_t i0, hodlrx::index_t i1,
                T* out) const override {
    const auto t0 = clock::now();
    inner_.fill_col(j, i0, i1, out);
    tally(static_cast<std::uint64_t>(i1 - i0), t0);
  }
  void fill_block(hodlrx::index_t i0, hodlrx::index_t j0,
                  hodlrx::MatrixView<T> out) const override {
    const auto t0 = clock::now();
    inner_.fill_block(i0, j0, out);
    tally(static_cast<std::uint64_t>(out.rows * out.cols), t0);
  }

 private:
  using clock = std::chrono::steady_clock;
  static void tally(std::uint64_t entries, clock::time_point t0) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        clock::now() - t0)
                        .count();
    GeneratorTally& g = generator_tally();
    g.entries.fetch_add(entries, std::memory_order_relaxed);
    g.busy_ns.fetch_add(static_cast<std::uint64_t>(ns),
                        std::memory_order_relaxed);
    g.calls.fetch_add(1, std::memory_order_relaxed);
  }
  const hodlrx::MatrixGenerator<T>& inner_;
};

/// Spans and facts are grouped by unit and root: `unit` is the request
/// index (>= 0) or, for set-up repetitions, -1 - repetition; `root` is the
/// name of the outermost open span ("setup", "request" or "sample").
using UnitKey = std::pair<long, std::string>;
using Facts = std::map<std::string, double>;

/// One traced interval.
struct Span {
  std::string name;
  double t0 = 0, t1 = 0;  ///< seconds since the probe was created
  int parent = -1;        ///< index into Probe::spans(), -1 for a root
  UnitKey unit;
  Counters delta;         ///< counter change over the span (traced only)
  double seconds() const { return t1 - t0; }
};

/// Records spans from the single client thread. Spans are cheap timestamp
/// pairs; with `traced` set each one also snapshots the counters at both
/// ends. Everything stays in memory until write_chrome_trace().
class Probe {
 public:
  explicit Probe(bool traced) : traced_(traced), origin_(clock::now()) {}
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  bool traced() const { return traced_; }
  /// True while any span is open.
  bool nested() const { return !stack_.empty(); }

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Probe& p, const char* name) : p_(p), idx_(p.open(name)) {}
    ~Scope() { p_.close(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Probe& p_;
    int idx_;
  };
  Scope span(const char* name) { return Scope(*this, name); }

  /// Subsequent root spans belong to this unit.
  void set_unit(long unit) { unit_ = unit; }
  /// Attach a fact (rank, bytes, report counts) to the current unit and
  /// root; repeated notes of one key add up. Call inside a span.
  void note(const std::string& key, double value) {
    facts_[current()][key] += value;
  }
  /// Like note(), but keeps the largest value (facts start at 0).
  void note_max(const std::string& key, double value) {
    double& v = facts_[current()][key];
    v = std::max(v, value);
  }
  const std::vector<Span>& spans() const { return spans_; }
  const std::map<UnitKey, Facts>& facts() const { return facts_; }

  /// Chrome trace-event JSON ("X" events; args carry parent, unit and the
  /// non-zero counter deltas). Load it in chrome://tracing or Perfetto.
  void write_chrome_trace(const std::string& path) const;

 private:
  using clock = std::chrono::steady_clock;
  int open(const char* name);
  void close(int idx);
  double now() const {
    return std::chrono::duration<double>(clock::now() - origin_).count();
  }

  bool traced_;
  clock::time_point origin_;
  UnitKey current() const {
    return {unit_, stack_.empty() ? std::string() : spans_[stack_[0]].name};
  }

  long unit_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<Counters> starts_;  ///< counter snapshot per open span
  std::map<UnitKey, Facts> facts_;
};

}  // namespace perfbench
