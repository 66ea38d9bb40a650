#include "openloop.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <stdexcept>

namespace rgbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool has_stat(const RespValue& reply, const char* text) {
  if (reply.kind != RespValue::Kind::kArray || reply.elems.size() < 3)
    return false;
  for (const RespValue& s : reply.elems[2].elems)
    if (s.text == text) return true;
  return false;
}

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<std::size_t> pending;  // op indices awaiting replies, FIFO
};

// Write as much buffered output as the socket takes.
void flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (w > 0) {
      c.out_off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    throw std::runtime_error("send: " + std::string(std::strerror(errno)));
  }
  c.out.clear();
  c.out_off = 0;
}

}  // namespace

std::vector<std::int64_t> poisson_due_times(double rate, double seconds,
                                            std::uint64_t& rng_state) {
  std::vector<std::int64_t> due;
  if (rate <= 0.0 || seconds <= 0.0) return due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  const double horizon = seconds * 1e9;
  double t = 0.0;
  for (;;) {
    // u in (0, 1]: 53 random bits, never 0, so log(u) is finite.
    const double u =
        (static_cast<double>(splitmix64(rng_state) >> 11) + 1.0) / 9007199254740992.0;
    t += -std::log(u) / rate * 1e9;
    if (t >= horizon) break;
    due.push_back(static_cast<std::int64_t>(t));
  }
  return due;
}

Verdict check_reply(const Op& op, const RespValue& reply) {
  if (reply.is_error()) return Verdict::kError;
  switch (op.kind) {
    case OpKind::kRead: {
      const auto v = scalar_result(reply);
      if (!v) return Verdict::kMismatch;
      return op.expect < 0 || *v == op.expect ? Verdict::kOk
                                              : Verdict::kMismatch;
    }
    case OpKind::kCreate:
      return has_stat(reply, "Nodes created: 1") &&
                     has_stat(reply, "Relationships created: 1")
                 ? Verdict::kOk
                 : Verdict::kMismatch;
    case OpKind::kSet:
      return has_stat(reply, "Properties set: 1") ? Verdict::kOk
                                                  : Verdict::kMismatch;
  }
  return Verdict::kMismatch;
}

PhaseResult run_open_loop(const std::vector<int>& fds, const Schedule& sched,
                          const PhaseOptions& opt) {
  if (fds.empty()) throw std::invalid_argument("run_open_loop: no connections");
  // Wake-ups land within a microsecond of the requested time instead of
  // the default 50 us timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  const std::size_t n = sched.ops.size();
  const bool closed = opt.depth > 0;
  if (closed && n < opt.depth * fds.size())
    throw std::invalid_argument("run_open_loop: fewer ops than the closed loop keeps outstanding");
  PhaseResult res;
  res.lateness_ms.reserve(n);
  res.op_ms.assign(n, std::numeric_limits<double>::quiet_NaN());
  std::vector<std::int64_t> sent_ns(n, 0), send_end_ns;
  std::vector<char> in_flight(n, 0);  // a closed loop reuses only answered ops
  if (opt.tracer) send_end_ns.assign(n, 0);

  std::vector<Conn> conns(fds.size());
  for (std::size_t i = 0; i < fds.size(); ++i) {
    conns[i].fd = fds[i];
    const int fl = ::fcntl(fds[i], F_GETFL, 0);
    ::fcntl(fds[i], F_SETFL, fl | O_NONBLOCK);
  }
  std::vector<pollfd> pfds(conns.size());

  const std::int64_t start = now_ns() + (closed ? 0 : 2'000'000);
  // A closed-loop request is due when it is sent.
  auto due_abs = [&](std::size_t i) {
    return closed ? sent_ns[i] : start + sched.due_ns[i];
  };

  std::size_t next = 0, outstanding = 0, cursor = 0;
  bool sending = n > 0;
  std::int64_t drain_deadline = std::numeric_limits<std::int64_t>::max();
  std::int64_t last_send = start;

  auto finish_op = [&](std::size_t i, std::int64_t done, Verdict v,
                       std::int64_t dec_start, const RespValue* reply) {
    double ms = static_cast<double>(done - due_abs(i)) / 1e6;
    if (v != Verdict::kOk) {
      if (v == Verdict::kError)
        ++res.errors;
      else
        ++res.mismatches;
      if (res.samples.size() < 5 && reply)
        res.samples.push_back(describe(*reply).substr(0, 200));
      ms = kInf;  // a failed request misses every latency limit
    } else {
      res.done_ns.push_back(done - start);
      if (sched.ops[i].kind == OpKind::kCreate) ++res.creates_acked;
    }
    (sched.ops[i].kind == OpKind::kRead ? res.read_ms : res.write_ms)
        .push_back(ms);
    res.op_ms[i] = ms;
    if (opt.tracer) {
      Tracer& tr = *opt.tracer;
      const std::int64_t root =
          tr.add("client.request", due_abs(i), done, -1, i);
      tr.add("client.queue", due_abs(i), sent_ns[i], root, i);
      tr.add("client.send", sent_ns[i], send_end_ns[i], root, i);
      tr.add("client.decode", dec_start, done, root, i);
    }
  };

  for (;;) {
    std::int64_t t = now_ns();
    if (sending && opt.abort_age_ns > 0 && outstanding > 0) {
      std::int64_t oldest = std::numeric_limits<std::int64_t>::max();
      for (const Conn& c : conns)
        if (!c.pending.empty())
          oldest = std::min(oldest, due_abs(c.pending.front()));
      if (t - oldest > opt.abort_age_ns) {
        sending = false;
        res.aborted = true;
      }
    }
    if (sending && closed && t - start >= opt.duration_ns) sending = false;
    if (sending) {
      bool queued = false;
      // `next` counts sends.  A closed loop wraps round the ops, skipping
      // any still in flight, so its ops are never all busy (n is at least
      // the number it keeps outstanding).
      auto enqueue = [&](Conn& c) {
        std::size_t i = next;
        if (closed) {
          while (in_flight[cursor % n]) ++cursor;
          i = cursor++ % n;
        }
        in_flight[i] = 1;
        if (opt.before_send) {
          opt.before_send(i);
          t = now_ns();
        }
        c.out += sched.ops[i].wire;
        c.pending.push_back(i);
        sent_ns[i] = t;
        if (!closed)
          res.lateness_ms.push_back(static_cast<double>(t - due_abs(i)) / 1e6);
        ++next;
        ++outstanding;
        queued = true;
      };
      if (closed) {
        for (Conn& c : conns)
          while (c.pending.size() < opt.depth) enqueue(c);
      } else {
        while (next < n && due_abs(next) <= t) enqueue(conns[next % conns.size()]);
      }
      if (queued) {
        for (Conn& c : conns) {
          if (c.out.size() == c.out_off) continue;
          flush(c);
          if (opt.tracer) {
            const std::int64_t end = now_ns();
            for (auto it = c.pending.rbegin();
                 it != c.pending.rend() && send_end_ns[*it] == 0; ++it)
              send_end_ns[*it] = end;
          }
        }
        last_send = t;
      }
      if (!closed && next == n) sending = false;
    }
    if (!sending && drain_deadline == std::numeric_limits<std::int64_t>::max()) {
      res.sent = next;
      res.backlog_end = outstanding;
      res.send_seconds = n ? static_cast<double>(last_send - start) / 1e9 : 0.0;
      drain_deadline = now_ns() + opt.drain_timeout_ns;
    }
    if (!sending && outstanding == 0) break;
    if (now_ns() >= drain_deadline) {
      res.drained = false;
      break;
    }

    std::int64_t wake = !sending ? drain_deadline
                        : closed ? start + opt.duration_ns
                                 : due_abs(next);
    if (opt.abort_age_ns > 0 && sending && outstanding > 0)
      wake = std::min(wake, now_ns() + 1'000'000);  // re-check the backlog
    const std::int64_t wait = std::max<std::int64_t>(0, wake - now_ns());
    for (std::size_t i = 0; i < conns.size(); ++i) {
      pfds[i].fd = conns[i].fd;
      pfds[i].events = POLLIN;
      if (conns[i].out.size() > conns[i].out_off) pfds[i].events |= POLLOUT;
      pfds[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                static_cast<long>(wait % 1'000'000'000)};
    const int rc = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("ppoll: " + std::string(std::strerror(errno)));
    }
    if (rc == 0) continue;
    for (std::size_t ci = 0; ci < conns.size(); ++ci) {
      Conn& c = conns[ci];
      if (pfds[ci].revents & POLLOUT) flush(c);
      if (!(pfds[ci].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char chunk[65536];
      for (;;) {
        const ssize_t got = ::recv(c.fd, chunk, sizeof(chunk), 0);
        if (got > 0) {
          c.in.append(chunk, static_cast<std::size_t>(got));
          continue;
        }
        if (got == 0) throw std::runtime_error("server closed a connection");
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        throw std::runtime_error("recv: " + std::string(std::strerror(errno)));
      }
      const std::int64_t done = now_ns();
      std::size_t off = 0;
      while (off < c.in.size()) {
        const std::int64_t dec_start = opt.tracer ? now_ns() : done;
        RespValue reply;
        const std::size_t used = rg::server::decode_reply(
            std::string_view(c.in).substr(off), reply);
        if (used == 0) break;
        off += used;
        if (c.pending.empty())
          throw std::runtime_error("reply without a pending request");
        const std::size_t i = c.pending.front();
        c.pending.pop_front();
        in_flight[i] = 0;
        --outstanding;
        const Verdict v = check_reply(sched.ops[i], reply);
        finish_op(i, opt.tracer ? now_ns() : done, v, dec_start, &reply);
      }
      c.in.erase(0, off);
    }
  }
  if (!res.drained) {
    // Unanswered requests count as failures that missed the limit.
    for (const Conn& c : conns)
      for (const std::size_t i : c.pending) {
        ++res.errors;
        (sched.ops[i].kind == OpKind::kRead ? res.read_ms : res.write_ms)
            .push_back(kInf);
        res.op_ms[i] = kInf;
      }
  }
  return res;
}

}  // namespace rgbench
