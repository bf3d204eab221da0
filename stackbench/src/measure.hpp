// Timing, statistics and span helpers shared by the stackbench binary.
//
// Everything here lives on the benchmark's side of the API: spans are
// recorded around calls into the stack's public functions, never from
// inside the program.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace stackbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Failed requests are +inf samples: never form inf - inf or inf * 0.
  if (frac == 0.0 || v[hi] == v[lo]) return v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The highest of p99 / p90 / p50 that still has at least ten samples
/// beyond it — the tail the benchmark is allowed to claim for `n`.
inline double tail_quantile_for(std::size_t n) {
  for (const double q : {0.99, 0.9, 0.5}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

/// FNV-1a over 16-bit words, folded into a running 64-bit digest.
class Fnv64 {
 public:
  void add(std::span<const sring::Word> words) {
    for (const sring::Word w : words) {
      const auto u = static_cast<std::uint16_t>(w);
      byte(static_cast<std::uint8_t>(u & 0xFF));
      byte(static_cast<std::uint8_t>(u >> 8));
    }
    // Length separator so [a][b] and [ab] digest differently.
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<std::uint8_t>(words.size() >> (8 * i)));
    }
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  void byte(std::uint8_t b) noexcept {
    h_ ^= b;
    h_ *= 0x100000001B3ull;
  }
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// One reported metric: a name, a value as measured and its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One recorded interval: name, start, end, the span that caused it
/// and the request it belongs to (0 = none).
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::uint32_t thread = 0;
};

/// In-memory span store, written out when the run ends.  Untraced runs
/// pass no recorder at all; a recorder takes a mutex per span (spans are
/// recorded per request, never per simulated cycle).
class SpanRecorder {
 public:
  /// Reserve an id for a span whose children are recorded before it
  /// closes.
  std::uint64_t next_id() {
    std::lock_guard lock(mu_);
    return ++last_id_;
  }

  void record(std::string name, Clock::time_point start,
              Clock::time_point end, std::uint64_t parent = 0,
              std::uint64_t request = 0, std::uint32_t thread = 0,
              std::uint64_t id = 0) {
    std::lock_guard lock(mu_);
    spans_.push_back(Span{std::move(name), start, end,
                          id != 0 ? id : ++last_id_, parent, request,
                          thread});
  }

  std::size_t size() const {
    std::lock_guard lock(mu_);
    return spans_.size();
  }

  /// Chrome trace_event JSON ("ph":"X" complete events), relative to
  /// `epoch`; loads in chrome://tracing and Perfetto.
  void write_chrome(std::ostream& out, Clock::time_point epoch) const {
    std::lock_guard lock(mu_);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                    "\"dur\":%.3f,",
                    s.thread, us_between(epoch, s.start),
                    us_between(s.start, s.end));
      out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name << "\","
          << buf << "\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t last_id_ = 0;
};

}  // namespace stackbench
