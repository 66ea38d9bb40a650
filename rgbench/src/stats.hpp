// Measurement arithmetic shared by the load generator, the layer ladder
// and the self-tests: the percentile rule, the max_qps rate search and
// span self time.  Header-only and free of I/O so every rule here is
// unit-tested in tests/selftest.cpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace rgbench {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank ceil(q * n).  q in (0, 1].
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly beyond the nearest-rank q-percentile's position.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return rank >= n ? 0 : n - rank;
}

/// The reporting rule: a timing is given as its median plus the highest
/// percentile of this ladder that still has at least `min_beyond`
/// samples beyond it.  Returns 0 when even the median is unsupported.
inline double highest_supported_quantile(std::size_t n,
                                         std::size_t min_beyond = 10) {
  static constexpr double kLadder[] = {0.9999, 0.999, 0.99, 0.95,
                                       0.9,    0.75,  0.5};
  for (const double q : kLadder)
    if (samples_beyond(n, q) >= min_beyond) return q;
  return 0.0;
}

/// Median + highest supported tail percentile + sample count.
struct Summary {
  std::size_t n = 0;
  double p50 = std::numeric_limits<double>::quiet_NaN();
  double tail_q = 0.0;  // 0 = no tail percentile is supported
  double tail = std::numeric_limits<double>::quiet_NaN();
  double p90 = std::numeric_limits<double>::quiet_NaN();  // NaN unless supported
  double p99 = std::numeric_limits<double>::quiet_NaN();  // NaN unless supported
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = percentile_sorted(v, 0.5);
  s.tail_q = highest_supported_quantile(v.size());
  if (s.tail_q > 0.5) s.tail = percentile_sorted(v, s.tail_q);
  if (samples_beyond(v.size(), 0.9) >= 10) s.p90 = percentile_sorted(v, 0.9);
  if (samples_beyond(v.size(), 0.99) >= 10) s.p99 = percentile_sorted(v, 0.99);
  return s;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The tail latency a max_qps probe is judged by.  `ms` holds each
/// request's latency in schedule order.  They are cut into windows of
/// `window` consecutive requests (a short remainder joins the last
/// window); the result is the median over windows of each window's p99,
/// or of its highest supported percentile when it has too few samples
/// for a p99.  A host hiccup that stalls one window does not fail a rate
/// the server sustains, while a growing backlog raises every window
/// after it.  NaN entries (never sent) are skipped.
inline double windowed_tail(const std::vector<double>& ms, std::size_t window) {
  std::vector<double> tails, cur;
  const std::size_t n = ms.size();
  const std::size_t windows = std::max<std::size_t>(1, n / std::max<std::size_t>(1, window));
  for (std::size_t w = 0; w < windows; ++w) {
    cur.clear();
    const std::size_t hi = w + 1 == windows ? n : (w + 1) * window;
    for (std::size_t i = w * window; i < hi; ++i)
      if (!std::isnan(ms[i])) cur.push_back(ms[i]);
    if (cur.empty()) continue;
    const Summary s = summarize(cur);
    tails.push_back(!std::isnan(s.p99) ? s.p99 : !std::isnan(s.tail) ? s.tail : s.p50);
  }
  return median(tails);
}

/// Throughput of a closed-loop burst.  `done_ns` holds completion
/// times in ascending order.  The rate is the completions in [begin_ns,
/// end_ns) after the first, over the time from the first of them to the
/// last, so it is not rounded to whole requests; 0 with fewer than two.
inline double completion_rate(const std::vector<std::int64_t>& done_ns,
                              std::int64_t begin_ns, std::int64_t end_ns) {
  std::int64_t first = -1, last = -1;
  double count = 0.0;
  for (const std::int64_t t : done_ns) {
    if (t < begin_ns) continue;
    if (t >= end_ns) break;
    if (first < 0) first = t;
    last = t;
    count += 1.0;
  }
  return count >= 2.0 && last > first
             ? (count - 1.0) * 1e9 / static_cast<double>(last - first)
             : 0.0;
}

// ---------------------------------------------------------------------------
// max_qps search
// ---------------------------------------------------------------------------

/// Geometric search for the highest offered rate that passes.  It
/// starts at `prior` (a calibrated guess of the answer) and walks away
/// from it by `step`, squaring the step after every move in the same
/// direction, until one rate passes and a higher one fails; then it
/// bisects that bracket in log space.  done() once hi/lo <= 1 +
/// resolution, so a good prior costs about 1 + 1 +
/// bisection_probes(step, resolution) probes and a poor one only
/// log-many more.  A rate already known to pass (the nominal phase) can
/// be given as `known_pass`.
class RateSearch {
 public:
  RateSearch(double prior, double step, double resolution, double floor_rate,
             double known_pass = 0.0)
      : prior_(prior), step_(step), res_(resolution), floor_(floor_rate),
        lo_(known_pass) {}

  /// Rate to probe next.
  double next() const {
    if (probes_ == 0) return prior_;
    if (hi_ <= 0.0) return lo_ * jump(ups_);  // every probe passed
    if (!passed_) {                           // every probe failed
      const double down = hi_ / jump(downs_);
      if (down > lo_) return down;
    }
    return std::sqrt(lo_ * hi_);
  }

  void report(double rate, bool pass) {
    ++probes_;
    if (pass) {
      passed_ = true;
      lo_ = std::max(lo_, rate);
      if (hi_ <= 0.0) ++ups_;
      return;
    }
    hi_ = hi_ <= 0.0 ? rate : std::min(hi_, rate);
    if (!passed_) {
      ++downs_;
      if (lo_ <= 0.0 && hi_ < floor_) exhausted_ = true;
    }
  }

  bool done() const {
    return exhausted_ || (lo_ > 0.0 && hi_ > 0.0 && hi_ / lo_ <= 1.0 + res_);
  }
  /// Highest rate that passed (0 when none did).
  double result() const { return lo_; }
  bool exhausted() const { return exhausted_; }
  std::size_t probes() const { return probes_; }

  /// Bisection probes needed to shrink a bracket of ratio `ratio` to
  /// 1 + resolution.
  static std::size_t bisection_probes(double ratio, double resolution) {
    if (ratio <= 1.0 + resolution) return 0;
    return static_cast<std::size_t>(std::ceil(
        std::log2(std::log(ratio) / std::log(1.0 + resolution)) - 1e-9));
  }

 private:
  // step, step^2, step^4, ... for the 1st, 2nd, 3rd move one way.
  double jump(unsigned moves) const {
    return std::pow(step_, std::pow(2.0, static_cast<double>(moves) - 1.0));
  }

  double prior_, step_, res_, floor_;
  double lo_, hi_ = 0.0;  // highest pass / lowest fail (0 = none yet)
  unsigned ups_ = 0, downs_ = 0;
  bool passed_ = false;   // some probe passed
  bool exhausted_ = false;
  std::size_t probes_ = 0;
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed interval at a layer boundary.  Spans of one request share
/// `request`; `parent` indexes the span that caused this one (-1 = root).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span buffer, written out once at the end of a run.
class Tracer {
 public:
  explicit Tracer(std::size_t reserve = 0) { spans_.reserve(reserve); }
  std::int64_t begin(const char* name, std::int64_t start_ns,
                     std::int64_t parent, std::uint64_t request) {
    spans_.push_back({name, start_ns, start_ns, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void end(std::int64_t id, std::int64_t end_ns) {
    spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
  }
  std::int64_t add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                   std::int64_t parent, std::uint64_t request) {
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (each clipped to the parent).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = (hi - lo) - covered;
  }
  return out;
}

}  // namespace rgbench
