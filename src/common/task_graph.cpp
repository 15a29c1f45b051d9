#include "common/task_graph.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"

namespace hodlrx {

SchedMode sched_mode() {
  const char* s = std::getenv("HODLRX_SCHED");
  if (s != nullptr && std::strcmp(s, "graph") == 0) return SchedMode::kGraph;
  return SchedMode::kLevels;
}

const char* sched_mode_name(SchedMode m) {
  return m == SchedMode::kGraph ? "graph" : "levels";
}

namespace sched_stats {
namespace {
std::atomic<std::uint64_t> g_graphs{0}, g_nodes{0}, g_edges{0}, g_steals{0},
    g_max_ready{0};
}  // namespace
std::uint64_t graphs_run() { return g_graphs.load(std::memory_order_relaxed); }
std::uint64_t nodes() { return g_nodes.load(std::memory_order_relaxed); }
std::uint64_t edges() { return g_edges.load(std::memory_order_relaxed); }
std::uint64_t steals() { return g_steals.load(std::memory_order_relaxed); }
std::uint64_t max_ready_depth() {
  return g_max_ready.load(std::memory_order_relaxed);
}
void reset() {
  g_graphs.store(0, std::memory_order_relaxed);
  g_nodes.store(0, std::memory_order_relaxed);
  g_edges.store(0, std::memory_order_relaxed);
  g_steals.store(0, std::memory_order_relaxed);
  g_max_ready.store(0, std::memory_order_relaxed);
}
namespace {
void record_max_ready(std::uint64_t depth) {
  std::uint64_t prev = g_max_ready.load(std::memory_order_relaxed);
  while (prev < depth && !g_max_ready.compare_exchange_weak(
                             prev, depth, std::memory_order_relaxed)) {
  }
}
}  // namespace
}  // namespace sched_stats

namespace sched_testing {
namespace {
/// Armed tag of the one-shot edge trap; graphs build single-threaded so a
/// plain pointer suffices. Only tests touch this.
const char* g_drop_tag = nullptr;
}  // namespace
void drop_next_tagged_edge(const char* tag) { g_drop_tag = tag; }
}  // namespace sched_testing

TaskGraph::TaskGraph() {
  // Capture audit mode per graph: declarations made while building this
  // graph are recorded (or not) consistently even if a test flips the
  // environment mid-build.
  if (audit_enabled()) auditor_ = std::make_unique<AccessAuditor>();
}

TaskGraph::~TaskGraph() = default;

TaskGraph::NodeId TaskGraph::add(std::function<void()> fn, const char* stage,
                                 index_t i, index_t j) {
  HODLRX_REQUIRE(!ran_, "TaskGraph: add() after run()");
  nodes_.push_back(Node{std::move(fn), {}, 0});
  const NodeId id = static_cast<NodeId>(nodes_.size()) - 1;
  if (auditor_) auditor_->add_node(id, stage, i, j);
  return id;
}

void TaskGraph::add_edge(NodeId before, NodeId after, const char* tag) {
  HODLRX_REQUIRE(!ran_, "TaskGraph: add_edge() after run()");
  HODLRX_REQUIRE(before >= 0 && before < size() && after >= 0 &&
                     after < size() && before != after,
                 "TaskGraph: bad edge " << before << " -> " << after);
  if (tag != nullptr && sched_testing::g_drop_tag != nullptr &&
      std::strcmp(tag, sched_testing::g_drop_tag) == 0) {
    sched_testing::g_drop_tag = nullptr;  // one-shot: drop exactly this edge
    return;
  }
  nodes_[static_cast<std::size_t>(before)].out.push_back(after);
  ++nodes_[static_cast<std::size_t>(after)].indegree;
  ++num_edges_;
  if (auditor_) auditor_->add_edge(before, after);
}

void TaskGraph::declare(NodeId node, const void* space, index_t row0,
                        index_t row1, index_t col0, index_t col1,
                        AuditAccess::Mode mode) {
  HODLRX_REQUIRE(!ran_, "TaskGraph: access declared after run()");
  auditor_->declare(node, AuditAccess{space, row0, row1, col0, col1, mode});
}

namespace {

/// Shared execution state of one run(): ready stack + completion tracking
/// under one mutex, remaining in-degrees as atomics (the acq_rel RMW chain
/// makes every predecessor's writes visible to the node it releases).
struct GraphRun {
  struct Ready {
    TaskGraph::NodeId id;
    int pusher;  ///< worker slot that made it ready; -1 for seeds
  };
  Mutex mu;
  CondVar cv;
  std::vector<Ready> ready HODLRX_GUARDED_BY(mu);  ///< LIFO
  index_t done HODLRX_GUARDED_BY(mu) = 0;
  index_t inflight HODLRX_GUARDED_BY(mu) = 0;
  bool failed HODLRX_GUARDED_BY(mu) = false;
  std::exception_ptr error HODLRX_GUARDED_BY(mu);
  std::uint64_t steals HODLRX_GUARDED_BY(mu) = 0;
  std::uint64_t max_ready HODLRX_GUARDED_BY(mu) = 0;
  std::unique_ptr<std::atomic<index_t>[]> indeg;  ///< self-synchronizing

  bool finished(index_t n) const HODLRX_REQUIRES(mu) {
    return failed ? inflight == 0 : done == n;
  }
};

}  // namespace

void TaskGraph::run() {
  HODLRX_REQUIRE(!ran_, "TaskGraph: run() called twice");
  ran_ = true;
  const index_t n = size();
  if (n == 0) return;
  // Audit before execution: a missing edge is reported as a structured
  // Error while the data is still untouched, not after a racy run.
  if (auditor_) auditor_->verify();

  GraphRun st;
  st.indeg.reset(new std::atomic<index_t>[static_cast<std::size_t>(n)]);
  for (index_t i = 0; i < n; ++i)
    st.indeg[static_cast<std::size_t>(i)].store(
        nodes_[static_cast<std::size_t>(i)].indegree,
        std::memory_order_relaxed);
  {
    // Workers exist only after this scope, but the guarded fields still want
    // the lock held for the analysis (and the acquire pairs with theirs).
    MutexLock lk(st.mu);
    st.ready.reserve(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i)
      if (nodes_[static_cast<std::size_t>(i)].indegree == 0)
        st.ready.push_back({i, -1});
    HODLRX_REQUIRE(!st.ready.empty(), "TaskGraph: no source nodes (cycle)");
    st.max_ready = st.ready.size();
  }

  const index_t workers = std::min<index_t>(max_threads(), n);
  const auto worker = [&](index_t slot) {
    MutexLock lk(st.mu);
    for (;;) {
      // Wait for work, completion, or quiescence (ready empty + nothing in
      // flight — with unfinished nodes that is an unsatisfiable dependency).
      while (st.ready.empty() && !st.finished(n) && st.inflight != 0)
        st.cv.wait(st.mu);
      if (st.finished(n) || st.failed) break;
      if (st.ready.empty()) {
        if (st.inflight == 0) {
          if (!st.error)
            st.error = std::make_exception_ptr(
                Error("hodlrx: TaskGraph dependency cycle — " +
                      std::to_string(n - st.done) + " of " +
                      std::to_string(n) + " node(s) unreachable"));
          st.failed = true;
          st.cv.notify_all();
          break;
        }
        continue;  // spurious: someone is in flight, wait again
      }
      const GraphRun::Ready r = st.ready.back();
      st.ready.pop_back();
      if (r.pusher >= 0 && r.pusher != static_cast<int>(slot)) ++st.steals;
      ++st.inflight;
      lk.unlock();

      Node& node = nodes_[static_cast<std::size_t>(r.id)];
      bool ok = true;
      try {
        node.fn();
      } catch (...) {
        ok = false;
        lk.lock();
        if (!st.error) st.error = std::current_exception();
        st.failed = true;
        lk.unlock();
      }
      // Release successors; acq_rel so the final decrementer observes every
      // predecessor's writes (RMWs on one atomic form a release sequence).
      std::vector<NodeId> newly;
      if (ok)
        for (const NodeId s : node.out)
          if (st.indeg[static_cast<std::size_t>(s)].fetch_sub(
                  1, std::memory_order_acq_rel) == 1)
            newly.push_back(s);

      lk.lock();
      --st.inflight;
      ++st.done;
      if (!st.failed)
        for (const NodeId s : newly)
          st.ready.push_back({s, static_cast<int>(slot)});
      if (st.ready.size() > st.max_ready) st.max_ready = st.ready.size();
      st.cv.notify_all();
    }
  };

  // One persistent worker per launch slot; each loops until the graph
  // drains. A single-participant launch (1-thread pool or a nested region)
  // executes the graph serially on the caller.
  ThreadPool::instance().parallel_for(workers, /*dynamic=*/false, worker);

  index_t done;
  std::uint64_t steals, max_ready;
  std::exception_ptr error;
  {
    // The launch joined all workers; the lock satisfies the analysis and
    // costs one uncontended acquire.
    MutexLock lk(st.mu);
    done = st.done;
    steals = st.steals;
    max_ready = st.max_ready;
    error = st.error;
  }
  sched_stats::g_graphs.fetch_add(1, std::memory_order_relaxed);
  sched_stats::g_nodes.fetch_add(static_cast<std::uint64_t>(done),
                                 std::memory_order_relaxed);
  sched_stats::g_edges.fetch_add(static_cast<std::uint64_t>(num_edges_),
                                 std::memory_order_relaxed);
  sched_stats::g_steals.fetch_add(steals, std::memory_order_relaxed);
  sched_stats::record_max_ready(max_ready);
  if (error) std::rethrow_exception(error);
}

}  // namespace hodlrx
