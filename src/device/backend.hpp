#pragma once

#include <cstdint>

/// \file backend.hpp
/// Stream-queue counters of the former asynchronous device backend. The
/// library no longer defers or queues launches, so all four read zero. They
/// stay only because the end-to-end benchmark's probe (perfbench/probe.cpp)
/// reads them; the next change to that benchmark drops them and this header.

namespace hodlrx {

namespace backend_stats {
inline std::uint64_t deferred() { return 0; }
inline std::uint64_t drained() { return 0; }
inline std::uint64_t events_recorded() { return 0; }
inline std::uint64_t drains() { return 0; }
}  // namespace backend_stats

}  // namespace hodlrx
