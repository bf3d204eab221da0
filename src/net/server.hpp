// Sharded poll-based job server: the rt runtime exposed as a network
// service.
//
// The serving front end mirrors the ring architecture's own scaling
// story — many cheap independent engines behind one shared fleet.  N
// event-loop shards each run their own poll() loop over their own
// connections, read/write buffers, self-wake pipe and telemetry
// slice; shard 0 additionally owns the listening socket and hands
// accepted fds to the other shards round-robin.  Every shard feeds
// the one rt::Runtime.  The design invariants:
//
//  * The accept loop never blocks on the fleet.  SubmitJob frames go
//    through Runtime::try_submit; admission is governed by queue-depth
//    watermarks (accept below low, briefly defer between low and
//    high, shed with Error{kBusy} + retry_after_ms above high).
//  * Frames pipeline per connection: every complete frame in the
//    buffer is parsed and admitted up to a bounded in-flight window;
//    replies leave in completion order and correlate by tag, each in
//    the exact protocol version of the frame that requested it.
//  * Job completions wake the owning shard through its pipe (workers
//    call the envelope's notify hook), so response latency is not
//    quantized by the poll timeout.
//  * Malformed bytes (bad magic/version, oversized frame, CRC
//    mismatch, garbage) answer Error{kBadRequest} and close that one
//    connection — even mid-pipeline, the frames parsed before the
//    damage are still answered; the server itself never crashes.
//  * Drain — via a Drain frame, request_drain() or SIGTERM when
//    enable_signal_drain() was called — stops accepting connections
//    and jobs, lets every shard finish its in-flight and deferred
//    jobs, flushes every response, then returns from run().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "rt/runtime.hpp"
#include "svc/compile_service.hpp"
#include "tile/gemm_runner.hpp"
#include "tile/tile_plan.hpp"

namespace sring::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()

  rt::RuntimeConfig runtime;  ///< worker fleet behind the socket

  /// Event-loop shards.  Shard 0 runs on the run() caller's thread and
  /// owns the listening socket; shards 1..N-1 get their own threads
  /// and receive accepted fds round-robin.  1 reproduces the classic
  /// single-poll-loop server exactly.
  std::size_t shards = 1;

  // --- queue-depth admission watermarks (net.admission.*) ---
  // Replaces the binary full/not-full Busy shed: below the low
  // watermark jobs are admitted immediately; between low and high they
  // are briefly deferred (smoothing bursts instead of shedding them);
  // at or above high they are shed with Error{kBusy} carrying a
  // retry_after_ms hint (v5 clients see the hint; older clients see
  // the same Error bytes as before).

  std::size_t admission_low = 0;   ///< 0 = max(1, queue_capacity / 2)
  std::size_t admission_high = 0;  ///< 0 = queue_capacity

  /// Longest a job may sit deferred; past this the shard force-tries
  /// the submit and sheds Busy if the queue is still full.
  std::chrono::milliseconds admission_max_delay{50};

  /// The retry_after_ms hint shed responses carry to v5 clients.
  std::uint32_t retry_after_hint_ms = 25;

  std::size_t max_connections = 64;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// DFG compile service shape (cache capacity, validation depth).
  svc::CompileServiceConfig compile;

  /// Idle cutoff for a connection with no pending jobs; activity on
  /// the socket or a job completion resets it.  Also applies to
  /// closing connections still waiting for their output to flush, so
  /// a peer that never reads cannot pin a connection forever.
  std::chrono::milliseconds idle_timeout{30000};

  /// Upper bound on the final flush phase of a drain: once every
  /// accepted job is answered, connections that have not drained
  /// their output within this window are force-closed so run() always
  /// returns (a peer that stops reading must not block SIGTERM).
  std::chrono::milliseconds drain_flush_timeout{5000};

  // --- live telemetry (all off-hot-path; see docs/OBSERVABILITY.md) ---

  /// Rolling-sampler period; the poll loops tick at least this often.
  std::chrono::milliseconds sample_interval{1000};

  /// Flight recorder: the e2e threshold past which a job counts as
  /// slow and is pinned in the captured ring.
  std::uint64_t slow_threshold_us = 100'000;

  /// When set, the captured flight records are dumped as JSONL to this
  /// path as run() returns (covers Drain, SIGTERM and shutdown).
  std::string flight_dump_path;
};

class Server {
 public:
  /// Binds and listens immediately (so port() is valid before run()),
  /// and starts the runtime fleet.  Throws NetError on bind failure.
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (resolves an ephemeral request).
  std::uint16_t port() const noexcept { return port_; }

  /// Serve until drained.  Spawns shards-1 threads (shard 0 runs on
  /// the caller's thread) and returns once every accepted job has been
  /// answered and every response flushed on every shard.
  void run();

  /// Thread- and signal-safe drain request; run() winds down.
  void request_drain() noexcept;

  /// Route SIGTERM/SIGINT to request_drain() of this server (one
  /// server per process; `sras serve` uses it).  The destructor
  /// restores the previous handlers before the server goes away, so a
  /// late signal can never reach a destroyed instance.  Signals are
  /// assumed to be delivered on the threads of this process only; no
  /// other thread may concurrently install SIGTERM/SIGINT handlers.
  void enable_signal_drain();

  /// net.* counters plus the fleet's rt.* metrics, the shard-local
  /// net.latency.* histograms (merged via Registry::merge_from — the
  /// totals are shard-count-invariant) and per-shard net.shard.<i>.*
  /// counters.  Callable from any thread while run() is live.
  obs::Registry metrics() const;

  /// The live stats snapshot a GetStats frame polls, also callable
  /// in-process (bench_serve uses it).  Thread-safe.
  StatsReplyMsg stats_snapshot(std::uint32_t flags) const;

  std::size_t shard_count() const noexcept { return shards_.size(); }

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;  ///< never reused, unlike fds
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out;
    std::size_t out_pos = 0;
    /// Requests in flight (one per reply owed, however many children
    /// it has) — the pipelining window and the idle reaper key off it.
    std::size_t pending_jobs = 0;
    bool closing = false;  ///< close once out drains
    std::chrono::steady_clock::time_point last_activity;
    /// Version of the last frame this peer sent — used only for
    /// replies with no request frame to mirror (parse errors).
    std::uint16_t version = kProtocolVersion;
  };

  /// One reply owed to one connection: a SubmitJob/SubmitDfgJob (one
  /// child), a v5 batch (one child per entry) or a v4 GEMM (one child
  /// per tile step).  Children settle into it in any order; the reply
  /// leaves when the last one has settled.
  struct Request {
    std::uint64_t conn_id = 0;
    std::uint32_t tag = 0;
    std::uint16_t version = kProtocolVersion;  ///< reply frame version
    std::uint64_t trace_id = 0;
    std::chrono::steady_clock::time_point admitted;  ///< receive stamp
    std::size_t unsettled = 0;  ///< children not yet settled

    /// The fold.  Jobs and batches fill one entry per child; a single
    /// job's entry and a GEMM's (whose first failure lands in it) are
    /// sent unwrapped, a batch's as one JobBatchResult.
    bool batch = false;
    JobBatchResultMsg reply;
    /// Set for DFG jobs: the raw fleet outputs are de-laced through the
    /// compiled program's output metadata before the reply is encoded.
    std::shared_ptr<const svc::CompiledDfg> dfg;
    std::size_t dfg_samples = 0;
    bool dfg_cache_hit = false;
    /// Set for GEMMs, whose children are built lazily in schedule order.
    std::unique_ptr<tile::GemmFold> gemm;
    std::size_t next_step = 0;  ///< first child not yet created
    bool cancelled = false;     ///< the peer left before every tile ran
  };

  /// One fleet job of a request, from admission until it settles:
  /// parked between the watermarks (`job` held) or running (`result`).
  struct Child {
    std::shared_ptr<Request> parent;
    std::size_t index = 0;  ///< batch entry or schedule step
    std::uint32_t tag = 0;  ///< the entry's own tag inside a batch
    rt::Job job{};
    std::string name{};  ///< for the flight recorder
    std::future<rt::JobResult> result{};
    std::chrono::steady_clock::time_point admitted{};  ///< e2e epoch
    std::chrono::steady_clock::time_point deadline{};  ///< while parked
  };

  /// One event-loop shard: its own poll loop, connections, in-flight
  /// state, wake pipe and telemetry slice.  Only the inbox (fd handoff
  /// from the acceptor) and the latency registry are ever touched by
  /// another thread, each behind its own mutex.
  struct Shard {
    std::size_t index = 0;
    int wake_r = -1;
    int wake_w = -1;

    std::deque<Conn> conns;
    std::vector<Child> running;  ///< on the fleet
    std::deque<Child> deferred;  ///< parked between the watermarks
    /// GEMMs with tile steps still to create.
    std::vector<std::shared_ptr<Request>> feeding;

    /// Accepted fds handed off by shard 0; adopted at the loop top.
    std::mutex inbox_mu;
    std::vector<int> inbox;

    // Per-shard counters (net.shard.<i>.*), read lock-free by
    // metrics().
    std::atomic<std::uint64_t> frames_in{0};
    std::atomic<std::uint64_t> jobs_submitted{0};
    std::atomic<std::uint64_t> connections{0};

    /// Shard-local net.latency.* histograms; Server::metrics() merges
    /// every shard's registry via Registry::merge_from.
    mutable std::mutex lat_mu;
    obs::Registry latency;
  };

  void send_frame(Conn& conn, MsgType type,
                  std::span<const std::uint8_t> payload,
                  std::uint16_t version);
  void send_error(Conn& conn, std::uint32_t tag, ErrorCode code,
                  const std::string& message, std::uint16_t version,
                  std::uint32_t retry_after_ms = 0);
  void handle_frame(Shard& shard, Conn& conn, const Frame& frame);
  void handle_submit(Shard& shard, Conn& conn, const Frame& frame);
  void handle_submit_batch(Shard& shard, Conn& conn, const Frame& frame);
  void handle_submit_dfg(Shard& shard, Conn& conn, const Frame& frame);
  void handle_compile_dfg(Conn& conn, const Frame& frame);
  void handle_submit_gemm(Shard& shard, Conn& conn, const Frame& frame);
  /// Opens a request of `children` children and takes its hold on the
  /// connection's pipelining window.
  std::shared_ptr<Request> open_request(Conn& conn, std::uint32_t tag,
                                        std::uint64_t trace_id,
                                        std::uint16_t version,
                                        std::size_t children);
  /// The one admission gate.  Job children pass the watermarks: accept
  /// below low, defer between low and high, shed at or above high (a
  /// `parked` child skips them: its one retry submits or sheds).  GEMM
  /// tiles skip them too and wait on a full queue; false means the
  /// tile was not taken and its step must be created again.
  bool admit(Shard& shard, Child child, bool parked);
  /// Folds one child into its request: the fleet result `ran`, or else
  /// the refusal `error`.  The last settled child finishes the request.
  void settle(Shard& shard, Child& child, const rt::JobResult* ran,
              ErrorMsg error);
  /// Sends the request's one reply and releases its window hold; a
  /// vanished peer gets nothing.
  void finish(Shard& shard, Request& req);
  /// Counts `n` never-submitted children of `req` as cancelled.
  void cancel(Shard& shard, Request& req, std::size_t n);
  /// Creates and admits GEMM tile children until the queue fills, and
  /// cancels the remaining steps of a GEMM whose peer has left.
  void feed(Shard& shard);
  /// Retry deferred children (immediately when the depth fell below
  /// low, or forced at the deadline), dropping those of vanished peers.
  void pump_deferred(Shard& shard);
  /// Fold one finished job into the shard's latency histograms + the
  /// server-wide flight recorder.
  void record_completion(Shard& shard, const Child& child,
                         const rt::JobResult& result,
                         std::uint64_t serialize_us,
                         std::chrono::steady_clock::time_point done);
  void maybe_sample(std::chrono::steady_clock::time_point now);
  /// Parse conn.in, dispatching every complete frame up to the
  /// pipeline window.  A connection that must close is flagged via
  /// conn.closing (it still needs its output flushed first).
  void drain_input(Shard& shard, Conn& conn);
  /// Accept pending connections (shard 0 only) and distribute them
  /// round-robin across every shard.
  void accept_ready(Shard& shard0);
  /// Adopt fds the acceptor handed to this shard.
  void adopt_inbox(Shard& shard);
  void collect_completions(Shard& shard);
  void close_conn(Conn& conn);
  Conn* find_conn(Shard& shard, std::uint64_t id);
  /// The per-shard event loop; shard 0 additionally accepts + samples.
  void shard_loop(Shard& shard);

  ServerConfig config_;
  std::unique_ptr<rt::Runtime> runtime_;
  svc::CompileService compile_;  ///< internally locked; shards share it
  tile::PlanCache plan_cache_;   ///< internally locked; shards share it
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> drain_requested_{false};
  bool ran_ = false;
  bool signal_handlers_installed_ = false;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t next_shard_rr_ = 0;  ///< acceptor (shard 0) thread only
  std::atomic<std::uint64_t> next_conn_id_{1};
  std::atomic<std::size_t> active_conns_{0};
  std::size_t admission_low_ = 0;   ///< resolved from config in ctor
  std::size_t admission_high_ = 0;

  struct NetCounters {
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> connections_closed{0};
    std::atomic<std::uint64_t> connections_rejected{0};
    std::atomic<std::uint64_t> frames_in{0};
    std::atomic<std::uint64_t> frames_out{0};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> bytes_out{0};
    std::atomic<std::uint64_t> rejects_busy{0};
    std::atomic<std::uint64_t> rejects_shutdown{0};
    std::atomic<std::uint64_t> protocol_errors{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> jobs_submitted{0};
    std::atomic<std::uint64_t> jobs_completed{0};
    std::atomic<std::uint64_t> jobs_failed{0};
    /// Children never submitted: the peer left, or their GEMM failed.
    std::atomic<std::uint64_t> jobs_cancelled{0};
    std::atomic<std::uint64_t> drains{0};
    // Watermark admission (net.admission.*): accepted/shed are final
    // outcomes (every job-class admission ends in exactly one of
    // them); delayed counts parkings, which later resolve into one of
    // the two.  Sheds also count in rejects_busy, which remains the
    // what-the-client-saw counter.
    std::atomic<std::uint64_t> admission_accepted{0};
    std::atomic<std::uint64_t> admission_delayed{0};
    std::atomic<std::uint64_t> admission_shed{0};
    // v5 batched submits.
    std::atomic<std::uint64_t> batch_requests{0};
    std::atomic<std::uint64_t> batch_jobs{0};
    // v4 tiled-GEMM aggregates, folded in at admission / finalize so
    // `sras stats` sees the scratchpad behaviour across all requests.
    std::atomic<std::uint64_t> gemm_requests{0};
    std::atomic<std::uint64_t> gemm_tile_jobs{0};
    std::atomic<std::uint64_t> gemm_scratch_hits{0};
    std::atomic<std::uint64_t> gemm_scratch_refills{0};
    std::atomic<std::uint64_t> gemm_bytes_filled{0};
    std::atomic<std::uint64_t> gemm_bytes_saved{0};
  };
  NetCounters counters_;

  // Server-wide telemetry.  Shard threads write per completion /
  // sample tick (never per byte), metrics()/stats_snapshot() read from
  // any thread — everything behind one mutex.  Per-shard latency
  // histograms live in the shards, behind their own lat_mu.
  mutable std::mutex telemetry_mu_;
  obs::Sampler sampler_;
  obs::FlightRecorder recorder_;
  std::chrono::steady_clock::time_point start_time_;
  std::chrono::steady_clock::time_point last_sample_;  ///< shard-0 only
};

}  // namespace sring::net
