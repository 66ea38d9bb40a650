// The traced layer ladder: a seeded sample of one workload's requests,
// each issued through every rung from the loopback wire down to the
// bare GraphBLAS kernel, one span per rung.  The difference between
// adjacent rungs is that layer's self time.  Below the server the rungs
// run on private objects built from the same generated input through
// each module's public API.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workload.hpp"

namespace rgbench {

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;  // samples behind the value
  // For a median of timings: the highest percentile with >= 10 samples
  // beyond it (tail_q = 0 when none is supported).
  double tail_q = 0.0, tail = 0.0;
};

/// The median of `v` with its supported tail percentile and count.
Metric timing(const std::vector<double>& v, const char* unit);
using Metrics = std::map<std::string, Metric>;

struct LadderContext {
  const WorkloadConfig& cfg;
  const Input& in;
  RequestGen& gen;
  std::uint16_t wire_port;      // the external primary, now unloaded
  std::string workdir;          // temporary files (WAL rung)
  unsigned concurrency;         // client connections of the load phase
  const std::vector<std::vector<std::string>>& bulk;
};

/// Run the ladder; spans go to `tracer`, per-layer metrics to `out`.
/// Throws if any rung returns a wrong answer.
void run_ladder(const LadderContext& ctx, Tracer& tracer, Metrics& out);

}  // namespace rgbench
