#include "ladder.hpp"

#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "algo/khop.hpp"
#include "cypher/param_header.hpp"
#include "cypher/parser.hpp"
#include "exec/execution_plan.hpp"
#include "exec/plan_cache.hpp"
#include "graph/graph.hpp"
#include "persist/wal.hpp"
#include "resp_client.hpp"
#include "server/resp.hpp"
#include "server/server.hpp"

namespace rgbench {

namespace {

struct Sampled {
  std::string wire;
  std::vector<std::string> argv;
  std::uint64_t node = 0;
  unsigned k = 1;
  std::int64_t expect = 0;
};

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

std::int64_t count_of(const rg::exec::ResultSet& rs) {
  if (rs.rows.empty() || rs.rows[0].empty()) return -1;
  return rs.rows[0][0].as_int();
}

void expect_eq(std::int64_t got, std::int64_t want, const char* rung) {
  if (got != want)
    throw std::runtime_error(std::string("ladder rung ") + rung + " answered " +
                             std::to_string(got) + ", expected " +
                             std::to_string(want));
}

void put(Metrics& out, const std::string& name, const std::vector<double>& v,
         const char* unit) {
  out[name] = timing(v, unit);
}

}  // namespace

Metric timing(const std::vector<double>& v, const char* unit) {
  const Summary s = summarize(v);
  Metric m{median(v), unit, v.size()};
  if (s.tail_q > 0.5) {
    m.tail_q = s.tail_q;
    m.tail = s.tail;
  }
  return m;
}

void run_ladder(const LadderContext& ctx, Tracer& tracer, Metrics& out) {
  // --- the sample: seeded reads from the workload's own stream ------------
  std::vector<Sampled> sample(kLadderSample);
  for (Sampled& s : sample) {
    const Op op = ctx.gen.read(&s.node, &s.k);
    s.wire = op.wire;
    s.expect = op.expect;
    rg::server::RespRequestParser p;
    p.feed(s.wire);
    s.argv = p.next().argv;
  }

  // --- private copies of the input, one per layer boundary ----------------
  rg::server::Server srv;  // default THREAD_COUNT, like the external server
  for (const auto& argv : ctx.bulk)
    if (!srv.execute(argv).ok())
      throw std::runtime_error("ladder: in-process GRAPH.BULK failed");

  rg::graph::Graph g;
  for (rg::gb::Index v = 0; v < ctx.in.el.nvertices; ++v) g.add_node({});
  const rg::graph::RelTypeId rel = g.schema().add_reltype("E");
  for (const auto& [u, v] : ctx.in.el.edges) g.add_edge(rel, u, v);
  g.flush();
  const auto& R = g.relation(rel);
  const auto& RT = g.relation_t(rel);
  rg::exec::PlanCache cache(256);
  RespConn wire = RespConn::connect(ctx.wire_port);

  // Warm every rung once (page faults, first plan compile).
  for (std::size_t i = 0; i < sample.size() && i < 16; ++i) {
    wire.call_wire(sample[i].wire);
    srv.execute(sample[i].argv);
    const auto split = rg::cypher::split_param_header(sample[i].argv[2]);
    auto lease = cache.acquire(g, split.body, split.params);
    rg::exec::ResultSet rs;
    lease->run(rs);
  }

  std::vector<double> wire_us, exec_us, dec_us, enc_us, hit_us, run_us, miss_us,
      parse_us, plan_us, khop_us, visited, dispatch_us, operator_us;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const Sampled& s = sample[i];
    const std::int64_t root = tracer.begin("ladder.request", now_ns(), -1, i);
    auto rung = [&](const char* name, auto&& fn) {
      const std::int64_t t0 = now_ns();
      fn();
      const std::int64_t t1 = now_ns();
      tracer.add(name, t0, t1, root, i);
      return t1 - t0;
    };

    const std::int64_t w = rung("rung.wire", [&] {
      expect_eq(scalar_result(wire.call_wire(s.wire)).value_or(-1), s.expect,
                "wire");
    });
    rg::server::Reply reply;
    const std::int64_t e = rung("rung.server_execute", [&] {
      reply = srv.execute(s.argv);
    });
    expect_eq(count_of(reply.result), s.expect, "Server::execute");
    const std::int64_t d = rung("rung.resp_decode", [&] {
      rg::server::RespRequestParser p;
      p.feed(s.wire);
      if (p.next().status != rg::server::RespRequestParser::Status::kOk)
        throw std::runtime_error("ladder: request did not decode");
    });
    std::string encoded;
    const std::int64_t en = rung("rung.resp_encode", [&] {
      encoded = rg::server::encode_result_set(reply.result);
    });

    const auto split = rg::cypher::split_param_header(s.argv[2]);
    rg::exec::PlanCache::Lease lease;
    const std::int64_t h = rung("rung.plan_cache_acquire", [&] {
      lease = cache.acquire(g, split.body, split.params);
    });
    hits += lease.hit() ? 1 : 0;
    rg::exec::ResultSet rs;
    const std::int64_t r = rung("rung.plan_run", [&] { lease->run(rs); });
    expect_eq(count_of(rs), s.expect, "ExecutionPlan::run");
    lease.reset();

    std::int64_t m = 0;
    {
      rg::exec::PlanCache cold(1);
      rg::exec::PlanCache::Lease cold_lease;
      m = rung("rung.plan_cache_miss", [&] {
        cold_lease = cold.acquire(g, split.body, split.params);
      });
    }
    rg::cypher::Query ast;
    const std::int64_t pa =
        rung("rung.cypher_parse", [&] { ast = rg::cypher::parse(split.body); });
    const std::int64_t pl = rung("rung.plan_build", [&] {
      rg::exec::ExecutionPlan plan(g, ast, 64, split.params);
    });
    rg::algo::KHopStats st;
    const std::int64_t k = rung("rung.kernel", [&] {
      st = rg::algo::khop_count(R, RT, s.node, s.k);
    });
    // k=1: the kernel counts distinct neighbours, Cypher counts edges.
    if (s.k > 1) expect_eq(static_cast<std::int64_t>(st.count), s.expect,
                           "algo::khop_count");
    tracer.end(root, now_ns());

    wire_us.push_back(us(w - e));
    exec_us.push_back(us(e));
    dec_us.push_back(us(d));
    enc_us.push_back(us(en));
    hit_us.push_back(us(h));
    run_us.push_back(us(r));
    miss_us.push_back(us(m));
    parse_us.push_back(us(pa));
    plan_us.push_back(us(pl));
    khop_us.push_back(us(k));
    visited.push_back(static_cast<double>(st.count));
    dispatch_us.push_back(us(e - (h + r + en)));
    operator_us.push_back(us(r - k));
  }
  if (hits != sample.size())
    throw std::runtime_error("ladder: warm plan-cache acquire missed");

  put(out, "server.wire_us", wire_us, "us");
  put(out, "server.resp_decode_us", dec_us, "us");
  put(out, "server.resp_encode_us", enc_us, "us");
  put(out, "server.dispatch_us", dispatch_us, "us");
  put(out, "cypher.parse_us", parse_us, "us");
  put(out, "exec.plan_us", plan_us, "us");
  put(out, "exec.plan_cache.acquire_hit_us", hit_us, "us");
  put(out, "exec.plan_cache.acquire_miss_us", miss_us, "us");
  put(out, "exec.run_us", run_us, "us");
  put(out, "exec.operator_us", operator_us, "us");
  put(out, "algo.khop_us", khop_us, "us");
  put(out, "algo.visited", visited, "count");
  put(out, "bench.ladder_execute_us", exec_us, "us");

  // --- queue wait: the same requests at the load phase's concurrency -----
  // Both sides are the same closed loop of Server::execute calls over the
  // sample, so the difference is waiting for the server's workers, not
  // warmer caches.
  {
    auto loop_us = [&](unsigned threads, std::size_t& calls) {
      std::atomic<bool> stop{false};
      std::vector<std::vector<double>> lat(threads);
      std::vector<std::thread> pool;
      for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
          for (std::size_t i = t; !stop.load(std::memory_order_relaxed);
               i = (i + threads) % sample.size()) {
            const std::int64_t t0 = now_ns();
            srv.execute(sample[i].argv);
            lat[t].push_back(us(now_ns() - t0));
          }
        });
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
      stop = true;
      for (auto& th : pool) th.join();
      std::vector<double> all;
      for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
      calls = all.size();
      return median(all);
    };
    std::size_t n1 = 0, nc = 0;
    const double unloaded = loop_us(1, n1);
    const double loaded = loop_us(ctx.concurrency, nc);
    out["server.wait_us"] = {loaded - unloaded, "us", nc};
  }

  // --- snapshot fork of the graph with a live write delta -----------------
  {
    for (int i = 0; i < 32; ++i) {
      const auto argv = ctx.gen.write_argv();
      rg::exec::ExecutionPlan plan(g, rg::cypher::parse(argv[2]));
      rg::exec::ResultSet rs;
      plan.run(rs);
      g.flush();
    }
    std::vector<double> fork_us;
    for (int i = 0; i < 31; ++i) {
      const std::int64_t t0 = now_ns();
      auto f = g.fork();
      fork_us.push_back(us(now_ns() - t0));
    }
    put(out, "graph.fork_us", fork_us, "us");
  }

  // --- WAL append of the workload's write argv under everysec -------------
  {
    const std::string path = ctx.workdir + "/ladder.wal";
    std::filesystem::remove(path);
    std::vector<double> append_us;
    {
      rg::persist::WalWriter wal(path, 1, 1, rg::persist::FsyncPolicy::kEverySec);
      for (int i = 0; i < 200; ++i) {
        const auto argv = ctx.gen.write_argv();
        const std::int64_t t0 = now_ns();
        wal.append(argv);
        append_us.push_back(us(now_ns() - t0));
      }
    }
    std::filesystem::remove(path);
    put(out, "persist.wal_append_us", append_us, "us");
  }
}

}  // namespace rgbench
