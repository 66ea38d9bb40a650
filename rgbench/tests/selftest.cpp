// The benchmark's own tests: the percentile rule, due-time latency (a
// stall raises the latency of every request queued behind it), the
// closed loop and its completion rate, the max_qps search terminating at its
// resolution, and span self time.
//
//   rgbench_selftest        (exit 0 = all passed)
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "openloop.hpp"
#include "server/resp.hpp"
#include "stats.hpp"
#include "util/socket.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ++g_failures;                                                      \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
                   #cond);                                               \
    }                                                                    \
  } while (0)

using namespace rgbench;

void test_percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  CHECK(percentile_sorted(v, 0.5) == 50);
  CHECK(percentile_sorted(v, 0.99) == 99);
  CHECK(percentile_sorted(v, 1.0) == 100);
  CHECK(percentile_sorted(v, 0.001) == 1);

  // At least ten samples strictly beyond the reported percentile.
  CHECK(samples_beyond(1000, 0.99) == 10);
  CHECK(highest_supported_quantile(1000) == 0.99);
  CHECK(highest_supported_quantile(999) == 0.95);
  CHECK(highest_supported_quantile(10000) == 0.999);
  CHECK(highest_supported_quantile(100) == 0.9);
  CHECK(highest_supported_quantile(20) == 0.5);
  CHECK(highest_supported_quantile(19) == 0.0);

  std::vector<double> big;
  for (int i = 0; i < 999; ++i) big.push_back(i);
  Summary s = summarize(big);
  CHECK(s.n == 999);
  CHECK(std::isnan(s.p99));  // 9 beyond: p99 is not supported
  CHECK(s.tail_q == 0.95);
  big.push_back(999);
  s = summarize(big);
  CHECK(s.p99 == 989);  // rank 990 of 0..999
  CHECK(s.p90 == 899);  // rank 900
  CHECK(s.p50 == 499);

  // A failed request is an infinite latency: it counts against the tail.
  std::vector<double> with_fail(1000, 1.0);
  for (int i = 0; i < 11; ++i) with_fail[static_cast<std::size_t>(i)] = INFINITY;
  CHECK(std::isinf(summarize(with_fail).p99));
  CHECK(median({3, 1, 2, 4}) == 2.5);

  // A max_qps probe's tail: the median over windows of each window's p99.
  std::vector<double> probe(5000, 1.0);
  for (std::size_t i = 1000; i < 1100; ++i) probe[i] = 50.0;  // one hiccup
  CHECK(windowed_tail(probe, 1000) == 1.0);
  CHECK(summarize(probe).p99 == 50.0);  // the whole probe's p99 would fail
  for (std::size_t i = 0; i < probe.size(); ++i)  // a backlog that grows
    probe[i] = 1.0 + static_cast<double>(i) / 100.0;
  CHECK(windowed_tail(probe, 1000) >= 29.0);
  probe.assign(1500, 2.0);  // fewer than two windows: the plain p99
  probe[0] = std::nan("");  // never sent: skipped
  CHECK(windowed_tail(probe, 1000) == 2.0);
}

// A fake server speaking just enough RESP: it answers every request
// with a one-row GRAPH.QUERY result, in order, on one connection, and
// sleeps `stall_ms` before answering request number `stall_at`.
class FakeServer {
 public:
  FakeServer(std::size_t stall_at, int stall_ms)
      : listener_(rg::util::TcpListener::bind(0)),
        thread_([this, stall_at, stall_ms] { serve(stall_at, stall_ms); }) {}
  ~FakeServer() { thread_.join(); }
  std::uint16_t port() const { return listener_.port(); }

 private:
  void serve(std::size_t stall_at, int stall_ms) {
    rg::util::TcpStream s = listener_.accept();
    rg::server::RespRequestParser parser;
    const std::string reply = "*3\r\n*1\r\n$1\r\nc\r\n*1\r\n*1\r\n:7\r\n*0\r\n";
    std::size_t seen = 0;
    char buf[4096];
    for (;;) {
      const std::size_t got = s.read_some(buf, sizeof(buf));
      if (got == 0) return;
      parser.feed(std::string_view(buf, got));
      while (parser.next().status == rg::server::RespRequestParser::Status::kOk) {
        if (seen++ == stall_at)
          std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
        s.write_all(reply);
      }
    }
  }
  rg::util::TcpListener listener_;
  std::thread thread_;
};

Schedule every_ms(std::size_t n) {
  Schedule s;
  for (std::size_t i = 0; i < n; ++i) {
    s.due_ns.push_back(static_cast<std::int64_t>(i) * 1'000'000);
    s.ops.push_back({rg::server::encode_command({"GRAPH.QUERY", "g", "q"}),
                     OpKind::kRead, 7});
  }
  return s;
}

PhaseResult drive(FakeServer& srv, const Schedule& s, const PhaseOptions& opt) {
  rg::util::TcpStream c = rg::util::TcpStream::connect("127.0.0.1", srv.port());
  PhaseResult r = run_open_loop({c.native_handle()}, s, opt);
  c.shutdown_write();
  return r;
}

constexpr int kStall = 40;  // ms

void test_due_time_latency() {
  {
    // Server stall at request 10: everything due during the stall waits.
    FakeServer srv(10, kStall);
    const PhaseResult r = drive(srv, every_ms(60), {});
    CHECK(r.read_ms.size() == 60);
    CHECK(r.errors == 0 && r.mismatches == 0);
    if (r.read_ms.size() == 60) {
      CHECK(r.read_ms[5] < kStall / 2);
      CHECK(r.read_ms[10] >= kStall - 1);
      // Request 20 was due 10 ms into the stall: it waited >= 30 ms more.
      CHECK(r.read_ms[20] >= kStall - 10 - 1);
      CHECK(r.read_ms[30] >= kStall - 20 - 1);
    }
  }
  {
    // Generator stall before sending request 10: nothing is sent late
    // from the server's view, but due-time latency still charges the
    // wait to request 10 and everything due during the stall.
    FakeServer srv(1u << 30, 0);
    PhaseOptions opt;
    opt.before_send = [](std::size_t i) {
      if (i == 10) std::this_thread::sleep_for(std::chrono::milliseconds(kStall));
    };
    const PhaseResult r = drive(srv, every_ms(60), opt);
    CHECK(r.read_ms.size() == 60);
    if (r.read_ms.size() == 60) {
      CHECK(r.read_ms[5] < kStall / 2);
      CHECK(r.read_ms[10] >= kStall - 1);
      CHECK(r.read_ms[20] >= kStall - 10 - 1);
    }
    const Summary lag = summarize(r.lateness_ms);
    CHECK(lag.n == 60);
    double worst = 0;
    for (const double l : r.lateness_ms) worst = std::max(worst, l);
    CHECK(worst >= kStall - 1);  // the generator's lateness is reported
  }
}

void test_closed_loop() {
  // A capacity burst's rate: completions after the first, over the time
  // from the first to the last, inside [begin, end).
  const auto near = [](double a, double b) { return std::fabs(a - b) < 1e-6 * b; };
  std::vector<std::int64_t> done;
  for (std::int64_t t = 0; t < 1'000'000'000; t += 1'000'000) done.push_back(t);
  CHECK(near(completion_rate(done, 0, 1'000'000'000), 1000.0));
  CHECK(near(completion_rate(done, 300'000'000, 950'000'000), 1000.0));  // ramp left out
  std::vector<std::int64_t> stalled;  // nothing completes in [200, 300) ms
  for (const std::int64_t t : done)
    if (t < 200'000'000 || t >= 300'000'000) stalled.push_back(t);
  CHECK(near(completion_rate(stalled, 0, 1'000'000'000), 899.0 / 0.999));
  CHECK(completion_rate(done, 0, 1'000'000) == 0.0);  // one completion

  // The engine keeps `depth` requests outstanding and times each from
  // its send: with depth 2, request 11 was sent beside request 10 and
  // waits out the stall, request 12 was sent after it.
  FakeServer srv(10, kStall);
  PhaseOptions opt;
  opt.depth = 2;
  opt.duration_ns = 150'000'000;
  const PhaseResult r = drive(srv, every_ms(8), opt);  // ops are reused
  CHECK(r.errors == 0 && r.mismatches == 0 && r.drained);
  CHECK(r.sent > 8 && r.read_ms.size() == r.sent && r.done_ns.size() == r.sent);
  CHECK(r.lateness_ms.empty());
  CHECK(r.send_seconds < 0.15 + 0.05);
  if (r.read_ms.size() > 12) {
    CHECK(r.read_ms[10] >= kStall - 1);
    CHECK(r.read_ms[11] >= kStall - 1);
    CHECK(r.read_ms[12] < kStall / 2);
  }
}

void test_rate_search() {
  const double res = 0.04, step = 1.25, prior = 100.0;
  auto search = [&](double capacity, double known_pass) {
    RateSearch s(prior, step, res, prior / 64.0, known_pass);
    std::size_t guard = 0;
    while (!s.done() && guard++ < 200) {
      const double r = s.next();
      s.report(r, r <= capacity);
    }
    return s;
  };
  for (const double capacity : {5.0, 40.0, 90.0, 100.0, 110.0, 150.0, 260.0,
                                1000.0, 5000.0}) {
    for (const double known : {0.0, 10.0}) {
      if (known > capacity) continue;  // a known pass is below capacity
      const RateSearch s = search(capacity, known);
      CHECK(s.done());
      CHECK(s.result() <= capacity);
      CHECK(s.result() * (1.0 + res) >= std::max(capacity, known));
      // Moves away from the prior square their step, so reaching a
      // capacity r times the prior takes about log2(log_step r) moves,
      // then one bisection of the last bracket.
      const double ratio = capacity >= prior ? capacity / prior : prior / capacity;
      const double moves =
          std::ceil(std::log2(std::max(1.0, std::log(ratio) / std::log(step)))) + 2;
      const double last = std::pow(step, std::pow(2.0, moves - 1));
      CHECK(static_cast<double>(s.probes()) <=
            moves + static_cast<double>(RateSearch::bisection_probes(last, res)) + 1);
    }
  }
  // Near the prior: one probe each side, then the step's bisection.
  CHECK(search(110.0, 0.0).probes() <= 2 + RateSearch::bisection_probes(step, res));
  CHECK(search(90.0, 0.0).probes() <= 2 + RateSearch::bisection_probes(step, res));
  CHECK(RateSearch::bisection_probes(2.0, 0.04) == 5);
  CHECK(RateSearch::bisection_probes(1.25, 0.04) == 3);
  CHECK(RateSearch::bisection_probes(1.03, 0.04) == 0);

  // Nothing passes: the search gives up at its floor instead of looping.
  RateSearch none(prior, step, res, prior / 64.0);
  std::size_t guard = 0;
  while (!none.done() && guard++ < 200) none.report(none.next(), false);
  CHECK(none.done() && none.exhausted());
  CHECK(none.result() == 0.0);
  CHECK(guard < 20);
}

void test_span_self_time() {
  Tracer t;
  const auto root = t.add("request", 0, 100, -1, 1);
  t.add("a", 10, 30, root, 1);
  t.add("b", 20, 50, root, 1);  // overlaps a
  const auto c = t.add("c", 60, 70, root, 1);
  t.add("c.child", 62, 65, c, 1);
  auto self = self_times(t.spans());
  CHECK(self[0] == 100 - 40 - 10);
  CHECK(self[1] == 20);
  CHECK(self[3] == 10 - 3);
  CHECK(self[4] == 3);

  // A child covering its whole parent leaves the parent no self time;
  // one that spills past the parent is clipped to it.
  Tracer u;
  const auto p = u.add("parent", 100, 200, -1, 2);
  u.add("whole", 100, 200, p, 2);
  const auto q = u.add("parent2", 300, 400, -1, 3);
  u.add("spill", 250, 450, q, 3);
  self = self_times(u.spans());
  CHECK(self[0] == 0);
  CHECK(self[1] == 100);
  CHECK(self[2] == 0);
  CHECK(self[3] == 200);
}

}  // namespace

int main() {
  test_percentile_rule();
  test_due_time_latency();
  test_closed_loop();
  test_rate_search();
  test_span_self_time();
  if (g_failures) {
    std::fprintf(stderr, "rgbench_selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("rgbench_selftest: all checks passed\n");
  return 0;
}
