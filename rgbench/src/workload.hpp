// The three workloads: their generated inputs, their request streams and
// the independent answers every read is checked against.
//
// Everything here is a pure function of the workload config and the
// seed; the server sees only the generated edge list (via GRAPH.BULK)
// and the generated requests.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algo/khop.hpp"
#include "datagen/generators.hpp"
#include "graphblas/matrix.hpp"
#include "openloop.hpp"

namespace rgbench {

/// The dataset is fixed, like the paper's Graph500 and Twitter inputs:
/// it comes from this constant, and --seed draws only the traffic.
inline constexpr std::uint64_t kGraphSeed = 20190610;
/// Set-ups per run; setup_s is their median.
inline constexpr unsigned kSetups = 3;
/// Most edges per GRAPH.BULK command (the fastest ingest over RESP on
/// the calibration host; larger frames parse slower).
inline constexpr std::size_t kBulkBatch = 32768;
/// Reads the traced layer ladder samples.
inline constexpr std::size_t kLadderSample = 200;
/// WAIT timeout of the confirmed-write stream.
inline constexpr long long kWaitTimeoutMs = 5000;

/// One workload's constants (rgbench/workloads.json, passed as
/// --param key=value by run.py).
struct WorkloadConfig {
  std::string name;
  std::string generator = "graph500";  // graph500 | twitter_like
  unsigned scale = 16;
  unsigned edgefactor = 16;
  double rate = 1000.0;       // nominal offered rate, requests/s
  double limit_ms = 10.0;     // p99 latency limit of the max_qps search
  double lag_bound_ms = 1.0;  // generator p99 lateness that voids a run
  double write_share = 0.0;   // writes among open-loop requests
  double set_share = 0.5;     // SETs among those writes (rest CREATE)
  double k3_share = 0.0;      // k=3 among k-hop reads (rest k=2)
  bool khop = false;          // var-length reads instead of 1-hop
  bool durable = false;       // --data-dir + WAL_FSYNC everysec
  bool replica = false;       // a REPLICAOF replica + confirmed writes
  double nominal_share = 0.5;    // of --seconds, for the nominal phase
  double search_prior = 2000.0;  // first max_qps probe, requests/s
  double step_seconds = 1.0;     // one max_qps probe
  unsigned capacity_depth = 8;     // requests outstanding per connection in a capacity burst
  unsigned capacity_ops = 16384;   // distinct requests a capacity burst cycles through

  void set(const std::string& key, const std::string& value);
};

/// The generated graph plus what the checker needs from it.
struct Input {
  rg::datagen::EdgeList el;
  std::vector<rg::gb::Index> out_degree;  // with multiplicity (1-hop answer)
  std::vector<rg::gb::Index> sources;     // out-degree >= 1 (read seeds)
  /// by_work[k-1]: `sources` sorted by a work proxy for a k-hop read
  /// (k-step path counts), the strata reads are drawn from.
  std::vector<std::vector<rg::gb::Index>> by_work;
  std::unique_ptr<rg::gb::Matrix<rg::gb::Bool>> A, AT;  // deduplicated
};

Input make_input(const WorkloadConfig& cfg);

/// GRAPH.BULK argv batches that load `in` into an empty graph `key`:
/// one NODES section, then EDGES of at most kBulkBatch each.
std::vector<std::vector<std::string>> bulk_commands(const Input& in,
                                                    const std::string& key);

/// Request texts (the Cypher the server receives).
std::string onehop_query(std::uint64_t node);
std::string khop_query(std::uint64_t node, unsigned k);

/// The independent answer to one read: out-degree with multiplicity for
/// 1-hop (Cypher's count(b) counts parallel edges), and algo::khop_count
/// on the deduplicated generated matrix for count(DISTINCT t).
class Oracle {
 public:
  explicit Oracle(const Input& in) : in_(in) {}
  std::int64_t answer(std::uint64_t node, unsigned k);

 private:
  const Input& in_;
  std::unique_ptr<rg::algo::KHopCounter> counter_;
  std::unordered_map<std::uint64_t, std::int64_t> memo_;
};

/// Draws a workload's requests: reads over `in.sources`, writes with
/// literal vocabulary strings (so each write text is new to the plan
/// cache), all from one seeded stream.
///
/// Reads come in blocks of kReadBlock, stratified: a block holds exactly
/// k3_share of k=3 reads, and each depth's reads take one source from
/// each equal stratum of in.by_work[k-1], in shuffled order.  Every run
/// then offers the same mix of light and heavy requests, and a seed
/// changes which nodes are read and when, not how much work a run holds.
class RequestGen {
 public:
  RequestGen(const WorkloadConfig& cfg, const Input& in, Oracle& oracle,
             std::uint64_t seed);

  /// Open-loop schedule: Poisson at `rate` for `seconds`.
  Schedule schedule(double rate, double seconds);
  /// `n` requests, all due at once: a closed loop's ops.
  Schedule ops(std::size_t n);
  /// `n` k-hop reads, all due at once, from the centres of equal work
  /// strata (the workload's share of them at k = 3), in a seeded order.
  /// Every seed gets the same requests, so a closed loop that cycles
  /// through them offers the same work whatever the seed; the seed sets
  /// only the order.
  Schedule centred_reads(std::size_t n);
  /// A read; `node`/`k` (optional) receive its seed node and depth.
  Op read(std::uint64_t* node = nullptr, unsigned* k = nullptr);
  /// A CREATE (the confirmed-write stream uses only these).
  Op create();
  /// The workload's next request.  Kinds come in blocks of kKindBlock
  /// holding exactly write_share writes, set_share of them SETs.
  Op next();

  /// The argv of a write (for the ladder's fork and WAL rungs).
  std::vector<std::string> write_argv();

 private:
  std::uint64_t next_u64();
  std::uint64_t uniform(std::uint64_t n) { return next_u64() % n; }
  double unit() { return static_cast<double>(next_u64() >> 11) / 9007199254740992.0; }
  const std::string& phrase();
  void refill_reads();
  Op set();
  std::string create_text();
  std::string set_text();

  const WorkloadConfig& cfg_;
  const Input& in_;
  Oracle& oracle_;
  std::uint64_t rng_;
  std::vector<std::string> phrases_;
  std::vector<std::pair<std::uint64_t, unsigned>> block_;  // (node, k), popped from the back
  std::vector<OpKind> kinds_;                               // popped from the back
};

inline constexpr std::size_t kReadBlock = 64;
inline constexpr std::size_t kKindBlock = 40;

/// max_qps probe schedules that share one request sequence: arrivals
/// are drawn once at unit rate and compressed to each probe's rate, so
/// probes differ only in timing and a pass/fail reflects the rate, not a
/// luckier or heavier draw of requests (common random numbers).
class ProbeSchedules {
 public:
  ProbeSchedules(RequestGen& gen, std::uint64_t seed) : gen_(gen), rng_(seed) {}
  Schedule at(double rate, double seconds);

 private:
  RequestGen& gen_;
  std::uint64_t rng_;
  double unit_end_s_ = 0.0;         // unit-rate arrivals drawn so far
  std::vector<std::int64_t> unit_ns_;
  std::vector<Op> ops_;
};

inline const std::string kGraphKey = "g";

}  // namespace rgbench
