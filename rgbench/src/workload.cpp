#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graphblas/transpose.hpp"
#include "server/resp.hpp"

namespace rgbench {

namespace {

std::uint64_t mix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool parse_bool(const std::string& v) { return v == "1" || v == "true"; }

// Words for the string properties writes carry.  Phrases of three words
// are at least 16 bytes, the server's default dictionary threshold, so
// they exercise interning; a fixed phrase pool makes values repeat.
constexpr const char* kWords[] = {
    "amber",   "basalt",  "cobalt",  "delta",   "ember",   "fjord",
    "garnet",  "harbor",  "indigo",  "juniper", "kestrel", "lantern",
    "meadow",  "nectar",  "obsidian", "pepper", "quartz",  "raven",
    "saffron", "timber",  "umber",   "velvet",  "willow",  "xenon",
    "yarrow",  "zephyr",  "alder",   "bramble", "cinder",  "dune",
    "estuary", "fennel"};
constexpr std::size_t kPhrases = 512;

}  // namespace

void WorkloadConfig::set(const std::string& key, const std::string& value) {
  if (key == "generator") generator = value;
  else if (key == "scale") scale = static_cast<unsigned>(std::stoul(value));
  else if (key == "edgefactor") edgefactor = static_cast<unsigned>(std::stoul(value));
  else if (key == "rate") rate = std::stod(value);
  else if (key == "limit_ms") limit_ms = std::stod(value);
  else if (key == "lag_bound_ms") lag_bound_ms = std::stod(value);
  else if (key == "write_share") write_share = std::stod(value);
  else if (key == "set_share") set_share = std::stod(value);
  else if (key == "k3_share") k3_share = std::stod(value);
  else if (key == "khop") khop = parse_bool(value);
  else if (key == "durable") durable = parse_bool(value);
  else if (key == "replica") replica = parse_bool(value);
  else if (key == "nominal_share") nominal_share = std::stod(value);
  else if (key == "search_prior") search_prior = std::stod(value);
  else if (key == "step_seconds") step_seconds = std::stod(value);
  else if (key == "capacity_depth") capacity_depth = static_cast<unsigned>(std::stoul(value));
  else if (key == "capacity_ops") capacity_ops = static_cast<unsigned>(std::stoul(value));
  else throw std::invalid_argument("unknown workload parameter '" + key + "'");
}

Input make_input(const WorkloadConfig& cfg) {
  Input in;
  if (cfg.generator == "graph500")
    in.el = rg::datagen::graph500(cfg.scale, cfg.edgefactor, kGraphSeed);
  else if (cfg.generator == "twitter_like")
    in.el = rg::datagen::twitter_like(cfg.scale, cfg.edgefactor, kGraphSeed);
  else
    throw std::invalid_argument("unknown generator '" + cfg.generator + "'");
  in.out_degree = rg::datagen::out_degrees(in.el);
  for (rg::gb::Index v = 0; v < in.el.nvertices; ++v)
    if (in.out_degree[v] != 0) in.sources.push_back(v);
  // Work proxy of a k-hop read from v: walks of length k from v,
  // w_k(v) = sum over edges (v, u) of w_{k-1}(u), w_1 = out-degree.
  std::vector<double> w(in.out_degree.begin(), in.out_degree.end());
  for (unsigned k = 1; k <= 3; ++k) {
    if (k > 1) {
      std::vector<double> next(w.size(), 0.0);
      for (const auto& [u, v] : in.el.edges) next[u] += w[v];
      w = std::move(next);
    }
    std::vector<rg::gb::Index> order = in.sources;
    std::stable_sort(order.begin(), order.end(),
                     [&](rg::gb::Index a, rg::gb::Index b) { return w[a] < w[b]; });
    in.by_work.push_back(std::move(order));
  }
  in.A = std::make_unique<rg::gb::Matrix<rg::gb::Bool>>(
      rg::datagen::to_matrix(in.el));
  in.AT = std::make_unique<rg::gb::Matrix<rg::gb::Bool>>(
      rg::gb::transposed(*in.A));
  return in;
}

std::vector<std::vector<std::string>> bulk_commands(const Input& in,
                                                    const std::string& key) {
  std::vector<std::vector<std::string>> out;
  out.push_back({"GRAPH.BULK", key, "NODES", std::to_string(in.el.nvertices)});
  // Few, large, equal batches: the server re-syncs its matrices once per
  // command, so ingest speed grows with the batch.
  const auto& e = in.el.edges;
  const std::size_t cmds = (e.size() + kBulkBatch - 1) / kBulkBatch;
  const std::size_t per = cmds ? (e.size() + cmds - 1) / cmds : 0;
  for (std::size_t lo = 0; lo < e.size(); lo += per) {
    const std::size_t hi = std::min(e.size(), lo + per);
    std::vector<std::string> argv = {"GRAPH.BULK", key, "EDGES", "E",
                                     std::to_string(hi - lo)};
    argv.reserve(5 + 2 * (hi - lo));
    for (std::size_t i = lo; i < hi; ++i) {
      argv.push_back(std::to_string(e[i].first));
      argv.push_back(std::to_string(e[i].second));
    }
    out.push_back(std::move(argv));
  }
  return out;
}

std::string onehop_query(std::uint64_t node) {
  return "CYPHER s=" + std::to_string(node) +
         " MATCH (a)-[:E]->(b) WHERE id(a) = $s RETURN count(b)";
}

std::string khop_query(std::uint64_t node, unsigned k) {
  return "CYPHER s=" + std::to_string(node) + " MATCH (s)-[:E*1.." +
         std::to_string(k) + "]->(t) WHERE id(s) = $s RETURN count(DISTINCT t)";
}

std::int64_t Oracle::answer(std::uint64_t node, unsigned k) {
  if (k == 1) return static_cast<std::int64_t>(in_.out_degree.at(node));
  const std::uint64_t key = node * 8 + k;
  if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
  if (!counter_) counter_ = std::make_unique<rg::algo::KHopCounter>(*in_.A, *in_.AT);
  const auto v = static_cast<std::int64_t>(counter_->run(node, k).count);
  memo_.emplace(key, v);
  return v;
}

RequestGen::RequestGen(const WorkloadConfig& cfg, const Input& in,
                       Oracle& oracle, std::uint64_t seed)
    : cfg_(cfg), in_(in), oracle_(oracle), rng_(seed) {
  constexpr std::size_t nwords = sizeof(kWords) / sizeof(kWords[0]);
  std::uint64_t s = seed ^ 0x70726f7365ULL;  // the pool depends on the seed only
  phrases_.reserve(kPhrases);
  for (std::size_t i = 0; i < kPhrases; ++i) {
    std::string p;
    while (p.size() < 16) {
      if (!p.empty()) p += ' ';
      p += kWords[mix(s) % nwords];
    }
    phrases_.push_back(std::move(p));
  }
}

std::uint64_t RequestGen::next_u64() { return mix(rng_); }

const std::string& RequestGen::phrase() { return phrases_[uniform(phrases_.size())]; }

void RequestGen::refill_reads() {
  const std::size_t n3 =
      cfg_.khop ? static_cast<std::size_t>(std::lround(cfg_.k3_share * kReadBlock)) : 0;
  const unsigned k_main = cfg_.khop ? 2 : 1;
  auto stratified = [&](unsigned k, std::size_t count) {
    const auto& order = in_.by_work[k - 1];
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t lo = j * order.size() / count;
      const std::size_t hi = (j + 1) * order.size() / count;
      block_.emplace_back(order[lo + uniform(std::max<std::size_t>(1, hi - lo))], k);
    }
  };
  stratified(k_main, kReadBlock - n3);
  stratified(3, n3);
  for (std::size_t i = block_.size(); i > 1; --i)
    std::swap(block_[i - 1], block_[uniform(i)]);
}

Op RequestGen::read(std::uint64_t* node_out, unsigned* k_out) {
  if (block_.empty()) refill_reads();
  const auto [node, k] = block_.back();
  block_.pop_back();
  Op op;
  op.kind = OpKind::kRead;
  op.wire = rg::server::encode_command(
      {"GRAPH.QUERY", kGraphKey, k == 1 ? onehop_query(node) : khop_query(node, k)});
  op.expect = oracle_.answer(node, k);
  if (node_out) *node_out = node;
  if (k_out) *k_out = k;
  return op;
}

std::string RequestGen::create_text() {
  // The new node's edge points INTO an existing node, so no loaded
  // node's out-degree (the 1-hop answer) ever changes.
  const std::uint64_t dst = uniform(in_.el.nvertices);
  return "MATCH (m) WHERE id(m) = " + std::to_string(dst) +
         " CREATE (:U {name: '" + phrase() + "', bio: '" + phrase() +
         "'})-[:E]->(m)";
}

std::string RequestGen::set_text() {
  const std::uint64_t node = uniform(in_.el.nvertices);
  return "MATCH (n) WHERE id(n) = " + std::to_string(node) +
         " SET n.status = '" + phrase() + "'";
}

Op RequestGen::create() {
  Op op;
  op.kind = OpKind::kCreate;
  op.wire = rg::server::encode_command({"GRAPH.QUERY", kGraphKey, create_text()});
  return op;
}

Op RequestGen::set() {
  Op op;
  op.kind = OpKind::kSet;
  op.wire = rg::server::encode_command({"GRAPH.QUERY", kGraphKey, set_text()});
  return op;
}

std::vector<std::string> RequestGen::write_argv() {
  return {"GRAPH.QUERY", kGraphKey, unit() < cfg_.set_share ? set_text() : create_text()};
}

Op RequestGen::next() {
  if (kinds_.empty()) {
    // Exact shares per block, at random places within it.
    const auto writes = static_cast<std::size_t>(std::lround(cfg_.write_share * kKindBlock));
    const auto sets = static_cast<std::size_t>(std::lround(cfg_.set_share * static_cast<double>(writes)));
    kinds_.assign(kKindBlock, OpKind::kRead);
    std::fill_n(kinds_.begin(), writes, OpKind::kCreate);
    std::fill_n(kinds_.begin(), sets, OpKind::kSet);
    for (std::size_t i = kinds_.size(); i > 1; --i)
      std::swap(kinds_[i - 1], kinds_[uniform(i)]);
  }
  const OpKind kind = kinds_.back();
  kinds_.pop_back();
  return kind == OpKind::kRead ? read() : kind == OpKind::kSet ? set() : create();
}

Schedule RequestGen::schedule(double rate, double seconds) {
  Schedule s;
  s.due_ns = poisson_due_times(rate, seconds, rng_);
  s.ops.reserve(s.due_ns.size());
  for (std::size_t i = 0; i < s.due_ns.size(); ++i) s.ops.push_back(next());
  return s;
}

Schedule RequestGen::ops(std::size_t n) {
  Schedule s;
  s.due_ns.assign(n, 0);
  s.ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) s.ops.push_back(next());
  return s;
}

Schedule RequestGen::centred_reads(std::size_t n) {
  const std::size_t n3 = static_cast<std::size_t>(std::lround(cfg_.k3_share * static_cast<double>(n)));
  std::vector<std::pair<std::uint64_t, unsigned>> picks;
  for (const auto& [k, count] : {std::pair<unsigned, std::size_t>{2, n - n3}, {3, n3}}) {
    const auto& order = in_.by_work[k - 1];
    for (std::size_t j = 0; j < count; ++j)
      picks.emplace_back(order[(2 * j + 1) * order.size() / (2 * count)], k);
  }
  for (std::size_t i = picks.size(); i > 1; --i)
    std::swap(picks[i - 1], picks[uniform(i)]);
  Schedule s;
  s.due_ns.assign(picks.size(), 0);
  for (const auto& [node, k] : picks) {
    Op op;
    op.wire = rg::server::encode_command({"GRAPH.QUERY", kGraphKey, khop_query(node, k)});
    op.expect = oracle_.answer(node, k);
    s.ops.push_back(std::move(op));
  }
  return s;
}

Schedule ProbeSchedules::at(double rate, double seconds) {
  const double horizon_s = rate * seconds;  // in unit-rate seconds
  while (unit_end_s_ < horizon_s) {
    // Arrivals are memoryless, so chunks drawn one after another
    // continue the same unit-rate Poisson stream.
    const double chunk = std::max(256.0, horizon_s - unit_end_s_);
    const auto offset = static_cast<std::int64_t>(unit_end_s_ * 1e9);
    for (const std::int64_t t : poisson_due_times(1.0, chunk, rng_)) {
      unit_ns_.push_back(offset + t);
      ops_.push_back(gen_.next());
    }
    unit_end_s_ += chunk;
  }
  Schedule s;
  const auto limit = static_cast<std::int64_t>(horizon_s * 1e9);
  for (std::size_t i = 0; i < unit_ns_.size() && unit_ns_[i] < limit; ++i) {
    s.due_ns.push_back(static_cast<std::int64_t>(static_cast<double>(unit_ns_[i]) / rate));
    s.ops.push_back(ops_[i]);
  }
  return s;
}

}  // namespace rgbench
