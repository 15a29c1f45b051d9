#include "probe.hpp"

#include <cstdio>
#include <stdexcept>

#include "batched/batch_kernels.hpp"
#include "batched/batched_blas.hpp"
#include "common/flops.hpp"
#include "common/gemm_kernel.hpp"
#include "common/lapack.hpp"
#include "common/task_graph.hpp"
#include "common/thread_pool.hpp"
#include "device/backend.hpp"
#include "device/device.hpp"

namespace perfbench {

GeneratorTally& generator_tally() {
  static GeneratorTally t;
  return t;
}

Counters Counters::now() {
  using hodlrx::FlopCounter;
  const FlopCounter& f = FlopCounter::instance();
  const hodlrx::DeviceContext& dev = hodlrx::DeviceContext::global();
  const GeneratorTally& g = generator_tally();
  Counters c;
  c.flop_gemm = f.get(FlopCounter::kGemm);
  c.flop_lu = f.get(FlopCounter::kLu);
  c.flop_trsm = f.get(FlopCounter::kTrsm);
  c.flop_other = f.get(FlopCounter::kOther);
  c.qr_geqrf_sweeps = hodlrx::qr_stats::geqrf_batched_sweeps();
  c.qr_thin_q_sweeps = hodlrx::qr_stats::thin_q_batched_sweeps();
  c.qr_panel_launches = hodlrx::qr_stats::panel_launches();
  c.svd_serial = hodlrx::svd_stats::serial_svds();
  c.svd_nonconverged = hodlrx::svd_stats::nonconverged();
  c.svd_batched_sweeps = hodlrx::svd_stats::batched_sweeps();
  c.svd_sweep_launches = hodlrx::svd_stats::sweep_launches();
  c.simd_qr_groups = hodlrx::batch_simd_stats::qr_panel_groups();
  c.simd_jacobi_groups = hodlrx::batch_simd_stats::jacobi_sweep_groups();
  c.simd_gemm_groups = hodlrx::batch_simd_stats::gemm_groups();
  c.gemm_a_packs = hodlrx::gemm_stats::a_packs();
  c.gemm_b_packs = hodlrx::gemm_stats::b_packs();
  c.gemm_shared_packs = hodlrx::gemm_stats::shared_packs();
  c.gemm_pool_packs = hodlrx::gemm_stats::pool_packs();
  c.sched_graphs = hodlrx::sched_stats::graphs_run();
  c.sched_nodes = hodlrx::sched_stats::nodes();
  c.sched_edges = hodlrx::sched_stats::edges();
  c.sched_steals = hodlrx::sched_stats::steals();
  c.backend_deferred = hodlrx::backend_stats::deferred();
  c.backend_drained = hodlrx::backend_stats::drained();
  c.backend_events = hodlrx::backend_stats::events_recorded();
  c.backend_drains = hodlrx::backend_stats::drains();
  c.gen_full_materializations =
      hodlrx::generator_stats::full_materializations();
  c.gen_entries = g.entries.load(std::memory_order_relaxed);
  c.gen_busy_ns = g.busy_ns.load(std::memory_order_relaxed);
  c.gen_calls = g.calls.load(std::memory_order_relaxed);
  c.device_h2d = dev.h2d_bytes();
  c.device_d2h = dev.d2h_bytes();
  c.device_launches = dev.launches();
  c.pool_launches = hodlrx::ThreadPool::instance().launches();
  return c;
}

Counters& Counters::operator+=(const Counters& o) {
#define PERFBENCH_ADD(name) name += o.name;
  PERFBENCH_COUNTERS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
  return *this;
}

Counters operator-(Counters a, const Counters& b) {
#define PERFBENCH_SUB(name) a.name -= b.name;
  PERFBENCH_COUNTERS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
  return a;
}

std::vector<std::pair<const char*, std::uint64_t>> Counters::items() const {
  std::vector<std::pair<const char*, std::uint64_t>> out;
#define PERFBENCH_ITEM(name) out.emplace_back(#name, name);
  PERFBENCH_COUNTERS(PERFBENCH_ITEM)
#undef PERFBENCH_ITEM
  return out;
}

int Probe::open(const char* name) {
  if (traced_) starts_.push_back(Counters::now());
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.unit = stack_.empty() ? UnitKey{unit_, name} : current();
  s.t0 = now();
  spans_.push_back(std::move(s));
  const int idx = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(idx);
  return idx;
}

void Probe::close(int idx) {
  Span& s = spans_[idx];
  s.t1 = now();
  if (traced_) {
    s.delta = Counters::now() - starts_.back();
    starts_.pop_back();
  }
  stack_.pop_back();
}

void Probe::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"unit\":%ld,\"root\":\"%s\"",
                 i ? "," : "", s.name.c_str(), s.t0 * 1e6,
                 s.seconds() * 1e6, i, s.parent, s.unit.first,
                 s.unit.second.c_str());
    for (const auto& [name, v] : s.delta.items())
      if (v) std::fprintf(f, ",\"%s\":%llu", name, (unsigned long long)v);
    std::fprintf(f, "}}\n");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0)
    throw std::runtime_error("cannot finish trace file " + path);
}

}  // namespace perfbench
