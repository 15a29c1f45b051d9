#pragma once

#include <cstdint>

/// \file task_graph.hpp
/// Counters of the former dependency-graph scheduler. Every sweep now runs
/// level-synchronously, so all four read zero. They stay only because the
/// end-to-end benchmark's probe (perfbench/probe.cpp) reads them; the next
/// change to that benchmark drops them and this header.

namespace hodlrx {

namespace sched_stats {
inline std::uint64_t graphs_run() { return 0; }
inline std::uint64_t nodes() { return 0; }
inline std::uint64_t edges() { return 0; }
inline std::uint64_t steals() { return 0; }
}  // namespace sched_stats

}  // namespace hodlrx
