#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "probe.hpp"

/// \file workloads.hpp
/// The three closed-loop workloads. Constructing one is one set-up (what a
/// run needs before its first request, including one warm-up request that
/// pays the library's lazy pool, blocking and workspace initialisation);
/// request(i) is one timed request followed by its correctness gate, which
/// runs outside the timed region. Request i's inputs depend only on the
/// seed and i.

namespace perfbench {

struct Outcome {
  double seconds = 0;  ///< timed region only
  bool ok = false;     ///< passed the correctness gate
  std::string detail;  ///< why the gate failed
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Outcome request(long i, Probe& probe) = 0;
};

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Probe& probe);

}  // namespace perfbench
