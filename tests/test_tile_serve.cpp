// Loopback integration tests of the tiled-GEMM workload behind the
// net server (protocol v4): a submitted GEMM is planned, staged and
// executed server-side, bit-exact to both the local tile runner and
// the scalar reference; the reply carries the scratchpad behaviour;
// pre-v4 clients are refused the new message type; a lowering
// failure answers kBadRequest with the connection surviving; and a
// peer that hangs up cancels the tile steps not yet submitted.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "rt/runtime.hpp"
#include "tile/gemm_runner.hpp"

namespace sring::net {
namespace {

constexpr RingGeometry kGeom{8, 2, 16};

struct TestServer {
  explicit TestServer(ServerConfig cfg = {})
      : server(std::move(cfg)), thread([this] { server.run(); }) {}
  ~TestServer() { stop(); }

  void stop() {
    if (thread.joinable()) {
      server.request_drain();
      thread.join();
    }
  }

  Server server;
  std::thread thread;
};

ClientConfig client_config(std::uint16_t port) {
  ClientConfig cfg;
  cfg.port = port;
  cfg.io_timeout_ms = 30000;  // fail, don't hang
  return cfg;
}

/// Minimal blocking socket for the one byte-level case the Client
/// class deliberately cannot express: a v4 message type inside a
/// pre-v4 frame header.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    check(fd_ >= 0, "test: socket() failed");
    timeval tv{};
    tv.tv_sec = 10;  // receive deadline: fail, don't hang
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    check(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0,
          "test: connect() failed: " + std::string(std::strerror(errno)));
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_all(std::span<const std::uint8_t> bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
      check(n > 0, "test: send failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Next complete frame; false on orderly EOF or deadline.
  bool recv_frame(Frame& out) {
    std::uint8_t chunk[4096];
    while (true) {
      std::size_t consumed = 0;
      const ParseStatus status =
          try_parse_frame(in_, kDefaultMaxFrameBytes, out, consumed);
      if (status == ParseStatus::kFrame) {
        in_.erase(in_.begin(),
                  in_.begin() + static_cast<std::ptrdiff_t>(consumed));
        return true;
      }
      if (status != ParseStatus::kNeedMore) return false;
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      in_.insert(in_.end(), chunk, chunk + n);
    }
  }

  /// True when the server closes without sending anything further.
  bool recv_eof() {
    std::uint8_t chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    return n == 0;
  }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> in_;
};

// The acceptance bar of the workload family: the served path returns
// the exact words both the local tile runner and the scalar reference
// produce, for ragged shapes, both dtypes and both mappings.
TEST(TileServe, ServedGemmBitExactAgainstLocalAndReference) {
  ServerConfig scfg;
  scfg.runtime.workers = 2;
  TestServer ts(scfg);
  Client client(client_config(ts.server.port()));

  struct Case {
    std::size_t m, k, n;
    tile::Dtype dtype;
    unsigned shift;
    tile::Mapping mapping;
  };
  const Case cases[] = {
      {8, 8, 8, tile::Dtype::kInt8, 0, tile::Mapping::kOutputStationary},
      {17, 9, 13, tile::Dtype::kInt16, 2,
       tile::Mapping::kWeightStationary},
      {24, 16, 24, tile::Dtype::kInt8, 5,
       tile::Mapping::kOutputStationary},
  };
  std::uint64_t seed = 0x5E4Eull;
  for (const Case& c : cases) {
    tile::GemmSpec spec;
    spec.m = c.m;
    spec.k = c.k;
    spec.n = c.n;
    spec.dtype = c.dtype;
    spec.shift = c.shift;
    spec.mapping = c.mapping;
    const auto a = tile::random_operand(spec.m * spec.k, spec.dtype, ++seed);
    const auto b = tile::random_operand(spec.k * spec.n, spec.dtype, ++seed);

    const RemoteGemmResult remote =
        client.submit_gemm(spec, a, b, kGeom, 128, 0xBEEF00 + seed);
    ASSERT_TRUE(remote.ok) << remote.error;
    EXPECT_EQ(remote.c, tile::gemm_reference(spec, a, b));

    rt::RuntimeConfig rcfg;
    rcfg.workers = 2;
    rt::Runtime local(rcfg);
    tile::GemmRunConfig gcfg;
    gcfg.geometry = kGeom;
    const tile::GemmResult direct = tile::run_gemm(local, gcfg, spec, a, b);
    EXPECT_EQ(remote.c, direct.c) << "served GEMM diverged from local";

    // The reply's observability slice matches the local scratchpad
    // behaviour exactly (same planner, same LRU policy).
    EXPECT_EQ(remote.counter("tile.scratch.hits"), direct.scratch_hits);
    EXPECT_EQ(remote.counter("tile.scratch.refills"),
              direct.scratch_refills);
    EXPECT_EQ(remote.counter("tile.jobs"), direct.jobs);
    EXPECT_EQ(remote.sim_cycles, direct.sim_cycles);
    EXPECT_EQ(remote.trace_id, 0xBEEF00 + seed);
  }

  ts.stop();
  const auto m = ts.server.metrics();
  EXPECT_EQ(m.find_counter("net.gemm.requests")->value(), 3u);
  EXPECT_GT(m.find_counter("net.gemm.tile_jobs")->value(), 0u);
  EXPECT_GT(m.find_counter("tile.scratch.hits")->value(), 0u);
  EXPECT_GT(m.find_counter("tile.scratch.bytes_saved")->value(), 0u);
  // One GEMM counts as one completed job, not one per tile.
  EXPECT_EQ(m.find_counter("net.jobs.completed")->value(), 3u);
}

// Backpressure stretches a GEMM without changing its counters: on a
// one-deep queue most tile steps find the queue full, and the reply's
// scratchpad counters still equal the local run's.
TEST(TileServe, BackpressuredGemmCountersMatchLocal) {
  ServerConfig scfg;
  scfg.runtime.workers = 1;
  scfg.runtime.queue_capacity = 1;
  TestServer ts(scfg);
  Client client(client_config(ts.server.port()));

  tile::GemmSpec spec;
  spec.m = spec.k = spec.n = 24;
  const auto a = tile::random_operand(spec.m * spec.k, spec.dtype, 41);
  const auto b = tile::random_operand(spec.k * spec.n, spec.dtype, 42);
  constexpr std::size_t kScratchTiles = 4;  // LRU order matters
  const RemoteGemmResult remote =
      client.submit_gemm(spec, a, b, kGeom, kScratchTiles);
  ASSERT_TRUE(remote.ok) << remote.error;

  rt::RuntimeConfig rcfg;
  rcfg.workers = 1;
  rt::Runtime local(rcfg);
  const tile::GemmResult direct =
      tile::run_gemm(local, {kGeom, kScratchTiles}, spec, a, b);
  EXPECT_EQ(remote.c, direct.c);
  EXPECT_EQ(remote.counter("tile.scratch.hits"), direct.scratch_hits);
  EXPECT_EQ(remote.counter("tile.scratch.refills"), direct.scratch_refills);
  EXPECT_EQ(remote.counter("tile.scratch.evictions"),
            direct.scratch_evictions);
  EXPECT_EQ(remote.counter("tile.scratch.bytes_saved"), direct.bytes_saved);
}

TEST(TileServe, GemmInterleavesWithPlainJobsOnOneConnection) {
  ServerConfig scfg;
  scfg.runtime.workers = 2;
  TestServer ts(scfg);
  Client client(client_config(ts.server.port()));

  tile::GemmSpec spec;
  spec.m = 16;
  spec.k = 16;
  spec.n = 16;
  const auto a = tile::random_operand(spec.m * spec.k, spec.dtype, 1);
  const auto b = tile::random_operand(spec.k * spec.n, spec.dtype, 2);
  const auto want = tile::gemm_reference(spec, a, b);

  JobRequest fir;
  fir.kernel = KernelId::kFir;
  fir.geometry = kGeom;
  fir.fir_coeffs = {1, 2, 3, 4};
  fir.input = tile::random_operand(64, tile::Dtype::kInt8, 3);

  for (int round = 0; round < 3; ++round) {
    ASSERT_EQ(client.submit_gemm(spec, a, b, kGeom).c, want);
    ASSERT_TRUE(client.submit(fir).ok);
  }
}

TEST(TileServe, PreV4ClientsAreRefusedGemmMessages) {
  TestServer ts;
  tile::GemmSpec spec;  // 8x8x8
  const auto a = tile::random_operand(64, spec.dtype, 7);
  const auto b = tile::random_operand(64, spec.dtype, 8);

  // Client-side gate: a v3-pinned client refuses to encode the frame.
  {
    ClientConfig cfg = client_config(ts.server.port());
    cfg.protocol_version = 3;
    Client old_client(cfg);
    EXPECT_THROW((void)old_client.submit_gemm(spec, a, b, kGeom),
                 NetError);
    // The v3 dialect itself still works fine against the v4 server.
    EXPECT_GT(old_client.ping(), 0.0);
  }

  // Server-side gate: a hand-rolled frame carrying the v4 type inside
  // a v3 header answers Error{kBadRequest} and closes the connection.
  SubmitGemmMsg msg;
  msg.spec = spec;
  msg.geometry = kGeom;
  msg.a = a;
  msg.b = b;
  std::vector<std::uint8_t> wire;
  append_frame(wire, MsgType::kSubmitGemm, encode_submit_gemm(msg), 3);
  RawConn raw(ts.server.port());
  raw.send_all(wire);
  Frame reply;
  ASSERT_TRUE(raw.recv_frame(reply));
  ASSERT_EQ(reply.type, MsgType::kError);
  const ErrorMsg err = decode_error(reply.payload, reply.version);
  EXPECT_EQ(err.code, ErrorCode::kBadRequest);
  EXPECT_NE(err.message.find("protocol v4"), std::string::npos);
  EXPECT_TRUE(raw.recv_eof());
}

TEST(TileServe, UnlowerableGeometryAnswersBadRequestAndSurvives) {
  TestServer ts;
  Client client(client_config(ts.server.port()));

  tile::GemmSpec spec;  // 8x8x8
  const auto a = tile::random_operand(64, spec.dtype, 11);
  const auto b = tile::random_operand(64, spec.dtype, 12);
  // 2 layers x 2 lanes = 4 Dnodes: too few for the 8-row matvec page.
  const RemoteGemmResult r =
      client.submit_gemm(spec, a, b, RingGeometry{2, 2, 16});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("8 Dnodes"), std::string::npos) << r.error;

  // The connection survived the refusal; the same client runs the
  // request fine with a lowerable geometry.
  const RemoteGemmResult ok = client.submit_gemm(spec, a, b, kGeom);
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.c, tile::gemm_reference(spec, a, b));
}

// A peer that sends a 512^3 GEMM (262,144 tile steps, tens of seconds
// on one worker) and hangs up leaves nothing for the fleet: the steps
// not yet submitted are cancelled, drain returns promptly, and the next
// client is served bit-exact.
TEST(TileServe, HangUpCancelsUnsubmittedTiles) {
  ServerConfig scfg;
  scfg.runtime.workers = 1;
  scfg.runtime.queue_capacity = 2;
  TestServer ts(scfg);

  SubmitGemmMsg msg;
  msg.tag = 1;
  msg.spec.m = msg.spec.k = msg.spec.n = kMaxGemmDim;
  msg.geometry = kGeom;
  msg.a = tile::random_operand(msg.spec.m * msg.spec.k, msg.spec.dtype, 21);
  msg.b = tile::random_operand(msg.spec.k * msg.spec.n, msg.spec.dtype, 22);
  const std::uint64_t steps =
      tile::plan_gemm(msg.spec, msg.scratch_tiles).steps.size();
  {
    std::vector<std::uint8_t> wire;
    append_frame(wire, MsgType::kSubmitGemm, encode_submit_gemm(msg));
    RawConn raw(ts.server.port());
    raw.send_all(wire);
  }  // hang up with the schedule barely started

  JobRequest fir;
  fir.kernel = KernelId::kFir;
  fir.geometry = kGeom;
  fir.fir_coeffs = {3, 1, 2};
  fir.input = tile::random_operand(64, tile::Dtype::kInt8, 23);
  rt::RuntimeConfig rcfg;
  rcfg.workers = 1;
  rt::Runtime local(rcfg);
  const rt::JobResult want = local.submit(to_rt_job(fir)).get();
  ASSERT_TRUE(want.ok) << want.error;
  {
    Client client(client_config(ts.server.port()));
    const RemoteResult r = client.submit(fir);
    ASSERT_TRUE(r.ok) << (r.busy ? "busy" : r.error);
    EXPECT_EQ(r.outputs, want.outputs);
  }

  const auto t0 = std::chrono::steady_clock::now();
  ts.stop();
  const auto drain = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(drain, std::chrono::seconds(2)) << "drain ran the tile backlog";

  const auto m = ts.server.metrics();
  const std::uint64_t tile_jobs =
      m.find_counter("net.gemm.tile_jobs")->value();
  const std::uint64_t cancelled =
      m.find_counter("net.jobs.cancelled")->value();
  EXPECT_LT(tile_jobs, steps / 100) << "the fan-out outlived its peer";
  EXPECT_EQ(tile_jobs + cancelled, steps);
  // The cancelled GEMM counts as neither completed nor failed.
  EXPECT_EQ(m.find_counter("net.jobs.completed")->value(), 1u);
  EXPECT_EQ(m.find_counter("net.jobs.failed")->value(), 0u);
}

}  // namespace
}  // namespace sring::net
