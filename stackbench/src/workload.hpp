// Workloads of the stack benchmark: seeded request sets, their golden
// outputs, and the in-process stack (fleet or loopback server) that
// serves them in closed loops.
//
// A workload is a fixed, seeded list of requests.  Every request
// carries its golden output computed from the independent references
// (src/dsp models, tile::gemm_reference, mapper::interpret_dfg), and
// every reply is compared against it before its latency counts.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mapper/dfg.hpp"
#include "measure.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "rt/runtime.hpp"
#include "svc/compile_service.hpp"
#include "tile/tile_plan.hpp"

namespace stackbench {

using sring::Word;

inline constexpr sring::RingGeometry kGeom{8, 2, 16};

enum class Kind : std::uint8_t {
  kJob,    ///< one kernel job (Client::submit / one fleet job)
  kBatch,  ///< v5 batch of kernel jobs (Client::submit_batch_wire)
  kDfg,    ///< compiled dataflow graph (Client::submit_dfg)
  kGemm,   ///< tiled narrow-int GEMM (Client::submit_gemm)
};

struct Graph {
  std::string name;
  sring::mapper::Dfg dfg;
  std::vector<std::uint8_t> blob;  ///< canonical svc::encode_dfg bytes
};

struct Request {
  Kind kind = Kind::kJob;
  std::size_t shape = 0;  ///< index into Workload::shapes

  std::vector<sring::net::JobRequest> jobs;  ///< kJob: one, kBatch: many
  std::size_t graph = 0;                     ///< kDfg: Workload::graphs
  std::vector<std::vector<Word>> streams;    ///< kDfg inputs
  sring::tile::GemmSpec spec;                ///< kGemm
  std::vector<Word> a, b;                    ///< kGemm operands

  /// Golden outputs in canonical form (see canonical()).
  std::vector<std::vector<Word>> expected;
};

/// Fixed per-workload serving shape; recorded in every result.
struct StackShape {
  bool served = true;        ///< loopback net::Server vs bare rt::Runtime
  std::size_t workers = 2;
  std::size_t shards = 1;
  std::size_t queue_capacity = 64;
  std::size_t clients = 2;   ///< closed-loop client threads
  std::uint32_t scratch_tiles = 128;

  sring::obs::JsonValue to_json() const;
};

struct Workload {
  std::string name;
  StackShape stack;
  std::vector<std::string> shapes;  ///< distinct request shapes (ladder keys)
  std::vector<Graph> graphs;
  std::vector<Request> requests;
};

/// Build the request set of `name` from `seed` (same seed, same
/// inputs).  `smoke` shrinks every input for the self-tests.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke);

/// One request's outcome at any rung of the stack.  `raw` holds one
/// vector per job (kJob/kBatch), one per DFG output, or the GEMM grid.
struct Outcome {
  bool ok = false;
  bool busy = false;  ///< shed after the benchmark's own retries
  std::string error;
  std::vector<std::vector<Word>> raw;
  std::uint64_t sim_cycles = 0;
};

/// True when `out` is ok and bit-exact against `req.expected`.
bool matches(const Request& req, const Outcome& out);

/// Kernel label of a job request, for per-kernel simulator speed.
const char* kernel_label(const sring::net::JobRequest& job);

// ---- L3: one request through a loopback client ----------------------
Outcome run_remote(sring::net::Client& client, const Workload& w,
                   const Request& req);

// ---- fleet jobs a request turns into (L0 / L1 / ring_long) -----------
struct Prepared {
  std::vector<sring::rt::Job> jobs;  ///< kGemm: tile jobs in schedule order
  std::shared_ptr<const sring::svc::CompiledDfg> compiled;  ///< kDfg
  std::shared_ptr<const sring::tile::TileSchedule> sched;   ///< kGemm
};
Prepared prepare(const Workload& w, const Request& req,
                 sring::svc::CompileService& compile);

/// Fold fleet job results of `prep` back into a request outcome.
Outcome assemble(const Request& req, const Prepared& prep,
                 const std::vector<sring::rt::JobResult>& results);

// ---- the stack under load --------------------------------------------

/// One finished request of a closed-loop window.
struct Sample {
  float latency_us = 0;  ///< +inf when the request failed or diverged
  float done_s = 0;      ///< completion, seconds after the window opened
  std::uint32_t shape = 0;
  std::uint32_t sim_cycles = 0;  ///< 0 unless completed bit-exact
};

/// A window's end-to-end figures.  The window is cut into equal
/// sub-windows: one per second for rates and p50 (at most kMaxSubWindows,
/// and only as many as hold kMinRateSamples each), and as many as still
/// hold kMinTailSamples each for the tail.
/// Host interference only ever slows the stack down, and it comes in
/// bursts, so each figure is read from the calmer quarter of its
/// sub-windows: rates are their upper quartile, latencies their lower
/// quartile.  A change that slows every request shows in every
/// sub-window, so it shows in these figures too.
struct WindowStats {
  static constexpr std::size_t kMinTailSamples = 1000;
  /// ring_long books a whole batch of jobs at the instant it returns, so
  /// a one-second sub-window's rate moves in steps of a batch per
  /// second (~10%).  With this many samples per sub-window a step is
  /// at most batch / kMinRateSamples (2.5% for 10-job batches).
  static constexpr std::size_t kMinRateSamples = 400;
  static constexpr std::size_t kMaxSubWindows = 40;

  std::size_t sub_windows = 0;       ///< for rates and p50
  std::size_t tail_sub_windows = 0;
  double requests_per_s = 0;
  double latency_p50_us = 0;
  double latency_tail_us = 0;
  double tail_quantile = 0;  ///< p99 unless a sub-window is too small
  double sim_mcycles_per_s = 0;
};

/// One client's requests in a window.
struct ClientLog {
  std::vector<Sample> samples;  ///< fixed capacity, touched up front
  std::size_t used = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;    ///< shed, errored or diverged
  std::uint64_t diverged = 0;  ///< wrong outputs or cycle counts
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;   ///< finished after the log filled up
  std::uint64_t sim_cycles = 0;
};

/// Per-request samples of one closed-loop window.  Logs are allocated
/// and touched before the window opens, so the benchmark's bookkeeping
/// adds a fixed amount to peak memory however many requests complete.
struct Window {
  static constexpr double kMaxRatePerClient = 20000;  ///< log capacity / s
  static constexpr std::size_t kAnyShape = static_cast<std::size_t>(-1);

  std::vector<ClientLog> logs;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t diverged = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t sim_cycles = 0;
  double wall_s = 0.0;

  /// Logged latencies (of one shape, or all), failures as +inf.
  std::vector<double> latencies(std::size_t shape = kAnyShape) const;
  WindowStats summarize() const;
};

/// Result of one pass over the whole request set.
struct Pass {
  std::uint64_t failed = 0;
  std::uint64_t diverged = 0;
  std::uint64_t outputs_fnv64 = 0;
  std::vector<std::uint64_t> sim_cycles;  ///< per request
  std::vector<Outcome> outcomes;          ///< per request, as replied
};

/// A net::Server serving on its own thread; drains and joins on
/// destruction, on error paths too.
class LoopbackServer {
 public:
  explicit LoopbackServer(const sring::net::ServerConfig& config)
      : server_(config), thread_([this] { server_.run(); }) {}
  ~LoopbackServer() {
    server_.request_drain();
    thread_.join();
  }
  LoopbackServer(const LoopbackServer&) = delete;
  LoopbackServer& operator=(const LoopbackServer&) = delete;

  sring::net::Server& server() noexcept { return server_; }
  const sring::net::Server& server() const noexcept { return server_; }

 private:
  sring::net::Server server_;
  std::thread thread_;  ///< declared last: starts once server_ exists
};

/// The in-process stack one workload runs against: either a loopback
/// server with `clients` connected clients, or a bare fleet plus the
/// benchmark's own compile service.  Construction plus warm_up() is the
/// benchmark's set-up.
class Stack {
 public:
  explicit Stack(const Workload& w);

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// One pass over every request (pays program loads, plan compiles,
  /// DFG compiles and tile plans), checked against the golden outputs.
  /// Records each request's simulated cycles for later runs to match.
  Pass warm_up();

  /// Closed loop for `seconds`: every client sends its next request
  /// once the previous reply arrived.
  Window run(double seconds, SpanRecorder* spans, std::uint64_t parent);

  /// Fleet / server counters (net.*, rt.*, ring.*, svc.*, tile.*).
  sring::obs::Registry metrics() const;
  /// The server's live stats snapshot (served stacks only).
  std::optional<sring::net::StatsReplyMsg> stats() const;

 private:
  Window run_fleet(double seconds, SpanRecorder* spans,
                   std::uint64_t parent);

  const Workload& w_;
  std::vector<std::uint64_t> cycles_;  ///< per request, from warm_up()

  // served (clients are declared after the server: they close first)
  std::unique_ptr<LoopbackServer> server_;
  std::vector<std::unique_ptr<sring::net::Client>> clients_;

  // bare fleet
  std::unique_ptr<sring::rt::Runtime> runtime_;
  std::unique_ptr<sring::svc::CompileService> compile_;
  std::vector<Prepared> prepared_;
};

}  // namespace stackbench
