// Open-loop load generator: one thread drives every shared connection,
// sending each request at its scheduled due time whether or not earlier
// replies have arrived (independent users), and times each request from
// its due time, so a stall anywhere — server, socket or this generator —
// is charged to every request queued behind it.  The same engine runs
// the closed loop that measures capacity (PhaseOptions::depth).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "resp_client.hpp"
#include "stats.hpp"

namespace rgbench {

enum class OpKind : std::uint8_t { kRead, kCreate, kSet };

/// One scheduled request: its RESP bytes and, for reads, the count the
/// reply must carry (computed independently from the generated input).
struct Op {
  std::string wire;
  OpKind kind = OpKind::kRead;
  std::int64_t expect = -1;  // -1 = reply not value-checked
};

/// Due times (ns from phase start, ascending) paired with requests.
struct Schedule {
  std::vector<std::int64_t> due_ns;
  std::vector<Op> ops;
};

/// Poisson arrivals at `rate`/s for `seconds`: exponential gaps drawn
/// from `rng_state` (splitmix64), so one seed always yields one schedule.
std::vector<std::int64_t> poisson_due_times(double rate, double seconds,
                                            std::uint64_t& rng_state);

enum class Verdict { kOk, kError, kMismatch };

/// Reply check shared by the engine and the closed-loop stream.
Verdict check_reply(const Op& op, const RespValue& reply);

struct PhaseOptions {
  /// Stop sending once the oldest outstanding request is older than
  /// this (a backlog that can only grow); 0 = never.
  std::int64_t abort_age_ns = 0;
  /// How long to wait for outstanding replies after the last send.
  std::int64_t drain_timeout_ns = 10'000'000'000;
  /// Spans around the client calls (the traced run); null = untraced.
  Tracer* tracer = nullptr;
  /// Closed loop instead of open: keep `depth` requests outstanding on
  /// every connection whatever the due times say, time each request
  /// from its send, and stop sending `duration_ns` after the start.  The
  /// schedule's ops are sent in turn and reused from the first once they
  /// run out.  0 = open loop.
  std::size_t depth = 0;
  std::int64_t duration_ns = 0;
  /// Test seam: called just before request `i` is sent.
  std::function<void(std::size_t)> before_send;
};

struct PhaseResult {
  std::vector<double> read_ms, write_ms;  // due-time latency, answered ops
  std::vector<double> op_ms;              // the same, by schedule index (NaN = not sent)
  std::vector<double> lateness_ms;        // send time - due time (open loop)
  std::vector<std::int64_t> done_ns;      // correct replies: ns from phase start, ascending
  std::size_t sent = 0;
  std::size_t errors = 0, mismatches = 0, creates_acked = 0;
  std::size_t backlog_end = 0;    // outstanding when the last was sent
  bool aborted = false;           // abort_age_ns tripped
  bool drained = true;            // every sent request was answered
  double send_seconds = 0.0;      // first due (closed loop: start) -> last send
  std::vector<std::string> samples;  // first few error / mismatch texts
};

/// Run `sched` over the connected sockets `fds` (round-robin).  The fds
/// are switched to non-blocking mode; if the result is not `drained`,
/// replies are still in flight and the connections must be replaced.
PhaseResult run_open_loop(const std::vector<int>& fds, const Schedule& sched,
                          const PhaseOptions& opt);

}  // namespace rgbench
