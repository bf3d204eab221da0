// The traced run: per-layer metrics of one workload.
//
// Each request shape runs as a ladder — L0 a bare System, L1 an idle
// 1-worker rt::Runtime, L3 a Client against an idle 1-worker server —
// and a layer's self time is the difference between adjacent rungs.
// Loaded windows (untraced, then traced) give the queueing load adds,
// the counters' ratios and the benchmark's own tracing overhead.
#pragma once

#include <vector>

#include "measure.hpp"
#include "obs/json.hpp"
#include "workload.hpp"

namespace stackbench {

struct LayerReport {
  std::vector<Metric> metrics;     ///< every per-layer metric, fixed order
  sring::obs::JsonValue details;   ///< ladder rows, windows, counters
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t diverged = 0;
};

/// Measure every per-layer metric of `w` within roughly `seconds`,
/// recording the benchmark's spans into `spans`.
LayerReport measure_layers(const Workload& w, double seconds,
                           SpanRecorder& spans);

}  // namespace stackbench
