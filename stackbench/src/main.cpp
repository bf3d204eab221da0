// stackbench — the repository's single end-to-end benchmark.
//
// Runs one named workload against the in-process stack (sim -> rt ->
// svc/tile -> net) in closed loops and prints every metric by name
// with its unit.  Every request is checked bit-exact against its
// golden reference before its latency counts; any divergence exits 1.
//
//   stackbench --workload ring_long|serve_small|serve_fanout
//              --seed N --seconds S --trace 0|1
//              [--smoke] [--out-dir DIR]
//
// --trace 0 reports the end-to-end metrics with the benchmark's tracing
// off; --trace 1 reports the per-layer metrics (see layers.hpp) and
// writes the benchmark's spans as a Chrome trace into DIR.  The last line
// of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// and DIR (default .bench_out) also receives the full result, with the
// host shape, the stack shape and the sample counts.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "layers.hpp"
#include "obs/host_shape.hpp"
#include "workload.hpp"

namespace {

using namespace stackbench;
using sring::obs::JsonValue;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_out";
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
    const std::string v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(v);
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace is 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--out-dir") {
      o.out_dir = v;
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

double max_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// A value JSON can carry: failures count as missing every latency
/// limit, so an infinite (or undefined) figure reads as 1e12.
double reportable(double v) { return std::isfinite(v) ? v : 1e12; }

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  JsonValue details = JsonValue::object();
};

Result run_end_to_end(const Workload& w, const Options& o) {
  Result res;
  // Set-up is short and noisy, so it is taken as the median of several.
  const int setups = o.smoke ? 2 : 9;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  Pass first;
  for (int k = 0; k < setups; ++k) {
    stack.reset();  // tear-down of the previous set-up is not timed
    const auto t0 = Clock::now();
    stack = std::make_unique<Stack>(w);
    Pass pass = stack->warm_up();
    setup_s.push_back(us_between(t0, Clock::now()) / 1e6);
    res.attempted += w.requests.size();
    res.failed += pass.failed + pass.diverged;
    if (pass.diverged != 0) res.correct = false;
    if (k == 0) {
      first = std::move(pass);
    } else if (pass.outputs_fnv64 != first.outputs_fnv64 ||
               pass.sim_cycles != first.sim_cycles) {
      std::fprintf(stderr, "stackbench: set-up %d disagrees with set-up 0\n", k);
      res.correct = false;
    }
  }
  const Window win = stack->run(o.seconds, nullptr, 0);
  // Peak memory is read before any post-processing allocates.
  const double rss_mb = max_rss_mb();
  stack.reset();
  res.attempted += win.attempted;
  res.failed += win.failed;
  if (win.diverged != 0) res.correct = false;

  std::uint64_t cycles = 0;
  for (const auto c : first.sim_cycles) cycles += c;
  const WindowStats st = win.summarize();
  res.metrics = {
      {"requests_per_s", st.requests_per_s, "1/s"},
      {"latency_p50_us", st.latency_p50_us, "us"},
      {"latency_p99_us", st.latency_tail_us, "us"},
      {"sim_mcycles_per_s", st.sim_mcycles_per_s, "Mcycle/s"},
      {"sim_cycles", static_cast<double>(cycles), "cycles"},
      {"setup_s", median(setup_s), "s"},
      {"max_rss_mb", rss_mb, "MB"},
  };
  JsonValue setups_json = JsonValue::array();
  for (const double s : setup_s) setups_json.push_back(s);
  const std::uint64_t samples = win.completed + win.failed - win.dropped;
  res.details.set("setup_s_samples", std::move(setups_json));
  res.details.set("latency_samples", samples);
  res.details.set("samples_dropped", win.dropped);
  res.details.set("sub_windows", std::uint64_t{st.sub_windows});
  res.details.set("tail_sub_windows", std::uint64_t{st.tail_sub_windows});
  res.details.set("tail_quantile", st.tail_quantile);
  res.details.set("window_s", win.wall_s);
  res.details.set("requests_completed", win.completed);
  res.details.set("outputs_fnv64", hex(first.outputs_fnv64));
  std::printf("outputs_fnv64: %s\n", hex(first.outputs_fnv64).c_str());
  std::printf("latency samples: %llu; tail = p%g over %zu sub-windows\n",
              static_cast<unsigned long long>(samples), st.tail_quantile * 100,
              st.tail_sub_windows);
  return res;
}

Result run_traced(const Workload& w, const Options& o) {
  Result res;
  SpanRecorder spans;
  const auto epoch = Clock::now();
  LayerReport rep = measure_layers(w, o.seconds, spans);
  res.attempted = rep.attempted;
  res.failed = rep.failed;
  res.correct = rep.diverged == 0;
  res.metrics = std::move(rep.metrics);
  res.details = std::move(rep.details);
  const std::string path = o.out_dir + "/" + w.name + "-seed" +
                           std::to_string(o.seed) + ".trace.json";
  std::ofstream out(path);
  spans.write_chrome(out, epoch);
  if (!out) throw std::runtime_error("cannot write " + path);
  res.details.set("trace_file", path);
  res.details.set("spans", std::uint64_t{spans.size()});
  std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    const Workload w = make_workload(o.workload, o.seed, o.smoke);
    std::filesystem::create_directories(o.out_dir);
    const JsonValue host = sring::obs::host_shape_json();
    std::printf("stackbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
                w.name.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0, o.smoke ? " (smoke)" : "");
    std::printf("host_shape: %s\n", host.dump().c_str());
    std::printf("stack_shape: %s\n", w.stack.to_json().dump().c_str());

    const Result res = o.trace ? run_traced(w, o) : run_end_to_end(w, o);

    JsonValue full = JsonValue::object();
    full.set("schema", "stackbench.result.v1");
    full.set("workload", w.name);
    full.set("seed", o.seed);
    full.set("seconds", o.seconds);
    full.set("trace", o.trace);
    full.set("smoke", o.smoke);
    full.set("host_shape", host);
    full.set("stack_shape", w.stack.to_json());
    full.set("correct", res.correct);
    full.set("attempted", res.attempted);
    full.set("failed", res.failed);
    JsonValue metrics = JsonValue::object();
    std::string line;
    for (const Metric& m : res.metrics) {
      const double value = reportable(m.value);
      std::printf("  %-32s %16.4f %s\n", m.name.c_str(), value, m.unit.c_str());
      JsonValue j = JsonValue::object();
      j.set("value", value);
      j.set("unit", m.unit);
      metrics.set(m.name, std::move(j));
      char buf[96];
      std::snprintf(buf, sizeof(buf), "{\"value\": %.17g, \"unit\": \"", value);
      line += (line.empty() ? "" : ", ") + ("\"" + m.name + "\": ") + buf + m.unit + "\"}";
    }
    full.set("metrics", std::move(metrics));
    full.set("details", res.details);
    const std::string path = o.out_dir + "/" + w.name + "-seed" +
                             std::to_string(o.seed) + "-trace" +
                             (o.trace ? "1" : "0") + ".json";
    std::ofstream(path) << full.dump() << "\n";
    std::printf("result: %s\n", path.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                res.correct ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed), line.c_str());
    std::fflush(stdout);
    if (!res.correct) {
      std::fprintf(stderr, "stackbench: outputs diverged from the golden "
                           "references\n");
      return 1;
    }
    return 0;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "stackbench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stackbench: %s\n", e.what());
    return 1;
  }
}
