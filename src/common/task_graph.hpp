#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/access_audit.hpp"
#include "common/config.hpp"

/// \file task_graph.hpp
/// Dependency-graph task scheduler on the persistent thread pool.
///
/// Every sweep in the library used to be level-synchronous: one
/// `parallel_for` per stage with a full barrier between stages (compress
/// level L -> barrier -> factor level L -> barrier -> next level), which
/// leaves pool workers idle at every level edge. This scheduler replaces the
/// barriers with an explicit DAG: nodes are tile-stage tasks (materialize a
/// tile, compress a level side, factor a panel, update a trailing block,
/// solve a K system), edges are data dependencies, and a node becomes
/// runnable the moment its remaining in-degree drops to zero — the
/// "inherently parallel" reorganization the H2-ULV line of work argues is
/// the key to keeping an accelerator's queues full.
///
/// Execution model: `run()` dispatches min(pool threads, nodes) persistent
/// workers through the pool's existing launch path. Ready nodes live on one
/// shared LIFO stack; a worker that pops a node pushed by a different worker
/// records a steal. Node bodies run with the pool's in-region flag set, so
/// nested parallel constructs inside a node execute inline (exactly like
/// nested `parallel_for` today). Exceptions thrown by a node are captured,
/// the graph drains (no new nodes are issued, in-flight nodes finish), and
/// the first exception is rethrown from `run()` — the same contract
/// `parallel_for` has. A graph whose dependencies can never complete (a
/// cycle) is detected at quiescence and reported as an Error instead of
/// deadlocking.
///
/// The `HODLRX_SCHED` environment variable selects which path the ported
/// call sites take: `levels` (default) preserves the historical
/// level-synchronous sweeps bit-for-bit; `graph` routes them through this
/// scheduler. The variable is reread on every query — the same convention as
/// HODLRX_FAULT / HODLRX_SVD_SWEEPS — so tests can flip modes at runtime.

namespace hodlrx {

/// Which scheduler the ported sweep sites use.
enum class SchedMode {
  kLevels,  ///< historical level-synchronous barriers (default)
  kGraph,   ///< dependency-graph execution on the pool
};

/// Resolve HODLRX_SCHED (reread per call): "graph" selects the DAG
/// scheduler, anything else (including unset) the level-synchronous path.
SchedMode sched_mode();
const char* sched_mode_name(SchedMode m);

/// Process-wide scheduler counters (relaxed atomics, same pattern as
/// qr_stats / fault_stats). Tests and bench JSON use these to assert which
/// scheduling path actually ran.
namespace sched_stats {
/// Completed TaskGraph::run() executions.
std::uint64_t graphs_run();
/// Nodes executed across all graph runs.
std::uint64_t nodes();
/// Edges of all graphs run.
std::uint64_t edges();
/// Ready-stack pops where the popping worker differs from the worker that
/// made the node ready (work migrated between workers).
std::uint64_t steals();
/// Maximum ready-stack depth observed in any run since reset().
std::uint64_t max_ready_depth();
void reset();
}  // namespace sched_stats

/// Test-only hooks (tests/test_scheduler.cpp). drop_next_tagged_edge arms a
/// one-shot trap: the next add_edge() carrying a matching tag is silently
/// skipped — the mutation that proves the access auditor detects a missing
/// cross-level edge. Pass nullptr to disarm.
namespace sched_testing {
void drop_next_tagged_edge(const char* tag);
}  // namespace sched_testing

/// A one-shot dependency graph of type-erased tasks. Build it single-
/// threaded (add / add_edge), execute it once with run(). Not reusable and
/// not thread-safe during construction; run() itself is internally
/// synchronized.
class TaskGraph {
 public:
  using NodeId = index_t;

  TaskGraph();
  ~TaskGraph();
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Add a node; returns its id. Nodes with no incoming edges are seeded
  /// ready at run(). `stage` (a static-storage string) plus the optional
  /// indices label the node in access-audit reports — "stage(i,j)"; when the
  /// graph is not audited they are discarded without formatting.
  NodeId add(std::function<void()> fn, const char* stage = nullptr,
             index_t i = -1, index_t j = -1);

  /// `after` cannot start until `before` has completed. Successors become
  /// ready in reverse add_edge order (LIFO stack), so add the critical-path
  /// edge of a node LAST to have its successor scheduled first. `tag` names
  /// the edge class for the sched_testing mutation hook; it has no effect on
  /// execution.
  void add_edge(NodeId before, NodeId after, const char* tag = nullptr);

  /// Declared-access audit surface (docs/static-analysis.md). All three are
  /// null-auditor no-ops unless HODLRX_AUDIT was on when the graph was
  /// constructed; rectangles are half-open, `space` is identity only.
  void reads(NodeId node, const void* space, index_t row0, index_t row1,
             index_t col0 = 0, index_t col1 = 1) {
    if (auditor_)
      declare(node, space, row0, row1, col0, col1, AuditAccess::Mode::kRead);
  }
  void writes(NodeId node, const void* space, index_t row0, index_t row1,
              index_t col0 = 0, index_t col1 = 1) {
    if (auditor_)
      declare(node, space, row0, row1, col0, col1, AuditAccess::Mode::kWrite);
  }
  /// A write serialized by a site-level mutex: never conflicts with other
  /// guarded writes to the same space, still conflicts with plain accesses.
  void writes_guarded(NodeId node, const void* space, index_t row0,
                      index_t row1, index_t col0 = 0, index_t col1 = 1) {
    if (auditor_)
      declare(node, space, row0, row1, col0, col1,
              AuditAccess::Mode::kGuardedWrite);
  }

  /// True when this graph captured HODLRX_AUDIT=on at construction.
  bool audited() const { return auditor_ != nullptr; }

  index_t size() const { return static_cast<index_t>(nodes_.size()); }
  index_t num_edges() const { return num_edges_; }

  /// Execute the graph on the thread pool and wait for completion; rethrows
  /// the first node exception. Callable exactly once.
  void run();

 private:
  struct Node {
    std::function<void()> fn;
    std::vector<NodeId> out;  ///< successors
    index_t indegree = 0;
  };
  void declare(NodeId node, const void* space, index_t row0, index_t row1,
               index_t col0, index_t col1, AuditAccess::Mode mode);

  std::vector<Node> nodes_;
  index_t num_edges_ = 0;
  bool ran_ = false;
  std::unique_ptr<AccessAuditor> auditor_;  ///< null unless HODLRX_AUDIT=on
};

}  // namespace hodlrx
