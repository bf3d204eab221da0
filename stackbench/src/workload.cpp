#include "workload.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "common/image.hpp"
#include "common/rng.hpp"
#include "dsp/fir.hpp"
#include "dsp/matvec.hpp"
#include "dsp/sad.hpp"
#include "dsp/wavelet.hpp"
#include "kernels/dwt_kernel.hpp"
#include "svc/dfg_codec.hpp"
#include "svc/dfg_job.hpp"
#include "svc/dfg_text.hpp"
#include "tile/gemm_job.hpp"
#include "tile/gemm_runner.hpp"

namespace stackbench {

namespace net = sring::net;
namespace rt = sring::rt;
namespace tile = sring::tile;
using sring::Image;
using sring::Rng;

namespace {

/// Per-request seed: request i of workload seed s, decorrelated.
std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + i + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<Word> signal(Rng& rng, std::size_t n, int lo, int hi) {
  std::vector<Word> v(n);
  for (auto& w : v) w = rng.next_word_in(lo, hi);
  return v;
}

std::vector<Word> flat(const sring::dsp::Matrix8& m) {
  std::vector<Word> out;
  for (const auto& row : m) out.insert(out.end(), row.begin(), row.end());
  return out;
}

sring::dsp::Matrix8 unflat(const std::vector<Word>& v) {
  sring::dsp::Matrix8 m{};
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) m[r][c] = v[r * 8 + c];
  }
  return m;
}

net::JobRequest fir_job(Rng& rng, std::size_t n, std::vector<Word> coeffs) {
  net::JobRequest r;
  r.kernel = net::KernelId::kFir;
  r.geometry = kGeom;
  r.fir_coeffs = std::move(coeffs);
  r.input = signal(rng, n, -128, 127);
  return r;
}

net::JobRequest dwt_job(Rng& rng, std::size_t n) {
  net::JobRequest r;
  r.kernel = net::KernelId::kDwt53;
  r.geometry = kGeom;
  r.input = signal(rng, n, -128, 127);
  return r;
}

net::JobRequest matvec_job(Rng& rng, std::size_t n,
                           const sring::dsp::Matrix8& m) {
  net::JobRequest r;
  r.kernel = net::KernelId::kMatvec8;
  r.geometry = kGeom;
  r.matvec_m = flat(m);
  r.input = signal(rng, n, -64, 63);
  return r;
}

/// Block at (pos, pos) of a `size`-square frame, searched ±range
/// against a copy shifted by a seeded true motion.
net::JobRequest me_job(Rng& rng, std::size_t size, std::uint16_t pos,
                       std::uint16_t range) {
  net::JobRequest r;
  r.kernel = net::KernelId::kMotionEstimation;
  r.geometry = kGeom;
  r.me_ref = Image::synthetic(size, size, rng.next_u64());
  const int dx = static_cast<int>(rng.next_below(5)) - 2;
  const int dy = static_cast<int>(rng.next_below(5)) - 2;
  r.me_cand = Image::shifted(r.me_ref, dx, dy, rng.next_u64(), 2);
  r.me_rx = pos;
  r.me_ry = pos;
  r.me_range = range;
  return r;
}

/// Golden output of one kernel job, in canonical form: the 5/3 wavelet
/// as its (low, high) subbands, every other kernel as its word stream.
std::vector<std::vector<Word>> job_reference(const net::JobRequest& r) {
  switch (r.kernel) {
    case net::KernelId::kFir:
      return {sring::dsp::fir_reference(r.input, r.fir_coeffs)};
    case net::KernelId::kDwt53: {
      const auto bands = sring::dsp::dwt53_forward(r.input);
      return {bands.low, bands.high};
    }
    case net::KernelId::kMatvec8:
      return {sring::dsp::block_matvec8_reference(unflat(r.matvec_m),
                                                  r.input)};
    case net::KernelId::kMotionEstimation: {
      const auto sads = sring::dsp::all_candidate_sads(
          r.me_ref, r.me_rx, r.me_ry, r.me_cand, r.me_range);
      std::vector<Word> out;
      out.reserve(sads.size());
      for (const auto s : sads) out.push_back(static_cast<Word>(s));
      return {out};
    }
  }
  throw std::runtime_error("stackbench: unknown kernel");
}

std::vector<std::vector<Word>> job_canonical(const net::JobRequest& r,
                                             const std::vector<Word>& raw) {
  if (r.kernel == net::KernelId::kDwt53) {
    const auto bands =
        sring::kernels::dwt53_bands_from_raw(raw, r.input.size() / 2);
    return {bands.low, bands.high};
  }
  return {raw};
}

void append(std::vector<std::vector<Word>>& out,
            std::vector<std::vector<Word>> more) {
  for (auto& v : more) out.push_back(std::move(v));
}

Graph make_graph(std::string name, const std::string& text) {
  Graph g;
  g.name = std::move(name);
  g.dfg = sring::svc::parse_dfg_text(text);
  g.dfg.validate();
  g.blob = sring::svc::encode_dfg(g.dfg);
  return g;
}

/// The fixed DFG repertoire: graphs are constant, only their input
/// streams vary with the seed, so served runs hit the compile cache
/// after warm-up.
std::vector<Graph> dfg_repertoire() {
  std::vector<Graph> gs;
  gs.push_back(make_graph("mac",
                          "x input\nk const 3\nm mul x k\nd delay m 1\n"
                          "y add m d\nout output y\n"));
  gs.push_back(make_graph("fir3",
                          "x input\nc0 const 5\nc1 const -3\nc2 const 2\n"
                          "m0 mul x c0\nm1 mul x c1\nm2 mul x c2\n"
                          "d1 delay m0 1\na1 add m1 d1\nd2 delay a1 1\n"
                          "a2 add m2 d2\ny output a2\n"));
  gs.push_back(make_graph("sad2",
                          "a input\nb input\nd absdiff a b\nhi max a b\n"
                          "s sub hi d\nout0 output d\nout1 output s\n"));
  gs.push_back(make_graph("bits",
                          "x input\ny input\nk const 2\ns shl x k\n"
                          "t xor s y\nu asr t k\nv abs u\nout output v\n"));
  return gs;
}

Graph fir4_graph() {
  return make_graph("fir4",
                    "x input\nc0 const 7\nc1 const -5\nc2 const 3\n"
                    "c3 const -1\nm0 mul x c0\nm1 mul x c1\nm2 mul x c2\n"
                    "m3 mul x c3\nd1 delay m0 1\na1 add m1 d1\n"
                    "d2 delay a1 1\na2 add m2 d2\nd3 delay a2 1\n"
                    "a3 add m3 d3\ny output a3\n");
}

Request dfg_request(const std::vector<Graph>& graphs, std::size_t graph,
                    Rng& rng, std::size_t samples) {
  Request r;
  r.kind = Kind::kDfg;
  r.graph = graph;
  r.streams.resize(graphs[graph].dfg.inputs().size());
  for (auto& s : r.streams) s = signal(rng, samples, -150, 150);
  r.expected = sring::mapper::interpret_dfg(graphs[graph].dfg, r.streams);
  return r;
}

Request job_request(net::JobRequest job) {
  Request r;
  r.kind = Kind::kJob;
  r.expected = job_reference(job);
  r.jobs.push_back(std::move(job));
  return r;
}

Request gemm_request(const tile::GemmSpec& spec, std::uint64_t seed) {
  Request r;
  r.kind = Kind::kGemm;
  r.spec = spec;
  r.a = tile::random_operand(spec.m * spec.k, spec.dtype, seed);
  r.b = tile::random_operand(spec.k * spec.n, spec.dtype, seed ^ 0xB);
  r.expected = {tile::gemm_reference(spec, r.a, r.b)};
  return r;
}

/// A convolution expressed as the GEMM the server runs (filters x
/// im2col patches), so the golden check is gemm_reference on it.
Request conv_request(const tile::Conv2dSpec& conv, std::uint64_t seed) {
  Request r = gemm_request(conv.as_gemm(), seed);
  const auto image =
      tile::random_operand(conv.in_h * conv.in_w, conv.dtype, seed ^ 0xC);
  r.b = tile::im2col(conv, image);
  r.expected = {tile::gemm_reference(r.spec, r.a, r.b)};
  return r;
}

/// Assigns shape indices by label, in first-seen order.
void add(Workload& w, Request r, const std::string& shape) {
  std::size_t i = 0;
  while (i < w.shapes.size() && w.shapes[i] != shape) ++i;
  if (i == w.shapes.size()) w.shapes.push_back(shape);
  r.shape = i;
  w.requests.push_back(std::move(r));
}

// ring_long: long jobs (>= 1e5 simulated cycles each at full size)
// through Runtime::submit_batch on a 4-worker fleet, no net.
Workload ring_long(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "ring_long";
  w.stack.served = false;
  w.stack.workers = 4;
  w.stack.queue_capacity = 64;
  w.stack.clients = 1;
  w.graphs.push_back(fir4_graph());
  const std::size_t div = smoke ? 50 : 1;
  const sring::dsp::Matrix8 dct = sring::dsp::dct8_matrix_q7();
  for (std::uint64_t rep = 0; rep < 2; ++rep) {
    Rng rng(mix(seed, rep));
    std::vector<Word> coeffs;
    for (int t = 0; t < 4; ++t) coeffs.push_back(rng.next_word_in(-8, 8));
    add(w, job_request(fir_job(rng, 100'000 / div, coeffs)), "fir");
    add(w, job_request(dwt_job(rng, 200'000 / div)), "dwt");
    sring::dsp::Matrix8 m = dct;
    if (rep == 1) m = unflat(signal(rng, 64, -64, 63));
    add(w, job_request(matvec_job(rng, 24'000 / div, m)), "matvec");
    add(w, job_request(smoke ? me_job(rng, 32, 12, 8)
                             : me_job(rng, 128, 60, 56)),
        "me");
    add(w, dfg_request(w.graphs, 0, rng, 100'000 / div), "dfg.fir4");
  }
  return w;
}

// serve_small: 2 sequential clients, small mixed kernel jobs plus DFG
// jobs from a fixed repertoire.
Workload serve_small(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "serve_small";
  w.stack.workers = 2;
  w.stack.queue_capacity = 64;
  w.graphs = dfg_repertoire();
  const std::vector<Word> coeffs{1, static_cast<Word>(-2), 3, 4};
  const sring::dsp::Matrix8 dct = sring::dsp::dct8_matrix_q7();
  const std::size_t count = smoke ? 20 : 60;
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng(mix(seed, i));
    switch (i % 5) {
      case 0:
        add(w, job_request(fir_job(rng, 256, coeffs)), "fir");
        break;
      case 1:
        add(w, job_request(me_job(rng, 16, 4, 2)), "me");
        break;
      case 2:
        add(w, job_request(dwt_job(rng, 256)), "dwt");
        break;
      case 3:
        add(w, job_request(matvec_job(rng, 64, dct)), "matvec");
        break;
      default: {
        const std::size_t g = (i / 5) % w.graphs.size();
        add(w, dfg_request(w.graphs, g, rng, 128),
            "dfg." + w.graphs[g].name);
      }
    }
  }
  return w;
}

// serve_fanout: 2 clients alternating tiled GEMM/conv and v5 batches,
// each fanning out into `fan` fleet jobs.
Workload serve_fanout(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "serve_fanout";
  w.stack.workers = 2;
  // Both request kinds fan out into `fan` jobs; the queue holds two of
  // them, so the low watermark (half) defers batch entries behind a
  // GEMM's tiles without ever reaching the shed watermark.
  // 24^3 keeps requests short enough for ~1000 samples per few seconds,
  // which the p99 needs.
  const std::size_t dim = smoke ? 16 : 24;  // (dim/8)^3 tile jobs
  const std::size_t fan = (dim / 8) * (dim / 8) * (dim / 8);
  w.stack.queue_capacity = 2 * fan;
  const std::vector<Word> coeffs{1, static_cast<Word>(-2), 3, 4};
  const sring::dsp::Matrix8 dct = sring::dsp::dct8_matrix_q7();

  tile::GemmSpec i8;
  i8.m = i8.k = i8.n = dim;
  tile::GemmSpec i16 = i8;
  i16.dtype = tile::Dtype::kInt16;
  i16.shift = 6;
  tile::GemmSpec ws = i8;
  ws.mapping = tile::Mapping::kWeightStationary;
  // filters x (3x3) x out_h*out_w: 3 x 2 x 4 = 24 tiles at full size,
  // 2 x 2 x 2 = 8 in smoke mode.
  tile::Conv2dSpec conv;
  conv.filters = dim;
  conv.kh = conv.kw = 3;
  conv.in_h = conv.in_w = smoke ? 6 : 7;

  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint64_t s = mix(seed, i);
    if (i % 2 == 0) {
      switch ((i / 2) % 4) {
        case 0: add(w, gemm_request(i8, s), "gemm.i8"); break;
        case 1: add(w, gemm_request(i16, s), "gemm.i16"); break;
        case 2: add(w, conv_request(conv, s), "gemm.conv"); break;
        default: add(w, gemm_request(ws, s), "gemm.ws"); break;
      }
      continue;
    }
    Rng rng(s);
    Request r;
    r.kind = Kind::kBatch;
    for (std::size_t j = 0; j < fan; ++j) {
      net::JobRequest job;
      switch (j % 4) {
        case 0: job = fir_job(rng, 64, coeffs); break;
        case 1: job = dwt_job(rng, 64); break;
        case 2: job = matvec_job(rng, 32, dct); break;
        default: job = me_job(rng, 16, 4, 1); break;
      }
      append(r.expected, job_reference(job));
      r.jobs.push_back(std::move(job));
    }
    add(w, std::move(r), "batch");
  }
  return w;
}

std::vector<std::vector<Word>> canonical(const Request& req,
                                         const Outcome& out) {
  if (req.kind == Kind::kDfg || req.kind == Kind::kGemm) return out.raw;
  std::vector<std::vector<Word>> c;
  for (std::size_t i = 0; i < req.jobs.size() && i < out.raw.size(); ++i) {
    append(c, job_canonical(req.jobs[i], out.raw[i]));
  }
  return c;
}

constexpr int kBusyRetries = 8;

void backoff(std::uint32_t retry_after_ms) {
  std::this_thread::sleep_for(
      std::chrono::milliseconds(std::max<std::uint32_t>(1, retry_after_ms)));
}

}  // namespace

sring::obs::JsonValue StackShape::to_json() const {
  auto j = sring::obs::JsonValue::object();
  j.set("served", served);
  j.set("workers", std::uint64_t{workers});
  j.set("shards", std::uint64_t{shards});
  j.set("queue_capacity", std::uint64_t{queue_capacity});
  j.set("clients", std::uint64_t{clients});
  j.set("scratch_tiles", std::uint64_t{scratch_tiles});
  return j;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  if (name == "ring_long") return ring_long(seed, smoke);
  if (name == "serve_small") return serve_small(seed, smoke);
  if (name == "serve_fanout") return serve_fanout(seed, smoke);
  throw std::runtime_error("stackbench: unknown workload '" + name + "'");
}

bool matches(const Request& req, const Outcome& out) {
  return out.ok && canonical(req, out) == req.expected;
}

const char* kernel_label(const net::JobRequest& job) {
  switch (job.kernel) {
    case net::KernelId::kFir: return "fir";
    case net::KernelId::kDwt53: return "dwt53";
    case net::KernelId::kMatvec8: return "matvec8";
    case net::KernelId::kMotionEstimation: return "motion_est";
  }
  return "unknown";
}

namespace {

Outcome remote_call(net::Client& client, const Workload& w,
                    const Request& req) {
  Outcome o;
  switch (req.kind) {
    case Kind::kJob: {
      net::RemoteResult r = client.submit(req.jobs[0]);
      o.ok = r.ok;
      o.busy = r.busy;
      o.error = std::move(r.error);
      o.sim_cycles = r.sim_cycles;
      o.raw.push_back(std::move(r.outputs));
      return o;
    }
    case Kind::kBatch: {
      // Shed entries are resubmitted (as a smaller batch) after the
      // server's hint, like Client::submit does for single jobs.
      o.raw.resize(req.jobs.size());
      std::vector<std::size_t> todo(req.jobs.size());
      for (std::size_t i = 0; i < todo.size(); ++i) todo[i] = i;
      for (int attempt = 0; !todo.empty(); ++attempt) {
        std::vector<net::JobRequest> jobs;
        for (const std::size_t i : todo) jobs.push_back(req.jobs[i]);
        std::vector<net::RemoteResult> rs = client.submit_batch_wire(jobs);
        std::vector<std::size_t> again;
        std::uint32_t hint = 0;
        for (std::size_t k = 0; k < rs.size(); ++k) {
          if (rs[k].busy && attempt < kBusyRetries) {
            again.push_back(todo[k]);
            hint = std::max(hint, rs[k].retry_after_ms);
          } else if (!rs[k].ok) {
            o.busy = rs[k].busy;
            o.error = rs[k].busy ? "shed as busy" : rs[k].error;
            return o;
          } else {
            o.sim_cycles += rs[k].sim_cycles;
            o.raw[todo[k]] = std::move(rs[k].outputs);
          }
        }
        if (!again.empty()) backoff(hint);
        todo = std::move(again);
      }
      o.ok = true;
      return o;
    }
    case Kind::kDfg:
      for (int attempt = 0;; ++attempt) {
        net::RemoteDfgResult r = client.submit_dfg(w.graphs[req.graph].blob,
                                                   req.streams, kGeom);
        if (r.busy && attempt < kBusyRetries) {
          backoff(0);
          continue;
        }
        o.ok = r.ok;
        o.busy = r.busy;
        o.error = std::move(r.error);
        o.sim_cycles = r.sim_cycles;
        o.raw = std::move(r.streams);
        return o;
      }
    case Kind::kGemm:
      for (int attempt = 0;; ++attempt) {
        net::RemoteGemmResult r = client.submit_gemm(
            req.spec, req.a, req.b, kGeom, w.stack.scratch_tiles);
        if (r.busy && attempt < kBusyRetries) {
          backoff(0);
          continue;
        }
        o.ok = r.ok;
        o.busy = r.busy;
        o.error = std::move(r.error);
        o.sim_cycles = r.sim_cycles;
        o.raw.push_back(std::move(r.c));
        return o;
      }
  }
  return o;
}

}  // namespace

Outcome run_remote(net::Client& client, const Workload& w,
                   const Request& req) {
  try {
    return remote_call(client, w, req);
  } catch (const std::exception& e) {
    // Transport damage fails this request; the client reconnects on
    // its next call.
    Outcome o;
    o.error = std::string("transport: ") + e.what();
    return o;
  }
}

Prepared prepare(const Workload& w, const Request& req,
                 sring::svc::CompileService& compile) {
  Prepared p;
  switch (req.kind) {
    case Kind::kJob:
    case Kind::kBatch:
      for (const auto& job : req.jobs) p.jobs.push_back(net::to_rt_job(job));
      break;
    case Kind::kDfg:
      p.compiled =
          compile.get_or_compile(w.graphs[req.graph].blob, kGeom).compiled;
      p.jobs.push_back(sring::svc::make_dfg_job(p.compiled, req.streams));
      break;
    case Kind::kGemm: {
      p.sched = std::make_shared<const tile::TileSchedule>(
          tile::plan_gemm(req.spec, w.stack.scratch_tiles));
      tile::Scratchpad scratch(w.stack.scratch_tiles);
      tile::GemmJobBuilder builder(kGeom, scratch);
      for (const tile::TileStep& step : p.sched->steps) {
        p.jobs.push_back(builder.build(*p.sched, step, req.a, req.b));
      }
      break;
    }
  }
  return p;
}

Outcome assemble(const Request& req, const Prepared& prep,
                 const std::vector<rt::JobResult>& results) {
  Outcome o;
  for (const auto& r : results) {
    if (!r.ok) {
      o.error = r.error;
      return o;
    }
    o.sim_cycles += r.report.stats.cycles;
  }
  o.ok = true;
  switch (req.kind) {
    case Kind::kJob:
    case Kind::kBatch:
      for (const auto& r : results) o.raw.push_back(r.outputs);
      break;
    case Kind::kDfg:
      o.raw = sring::svc::delace_outputs(*prep.compiled, results[0].outputs,
                                         req.streams[0].size());
      break;
    case Kind::kGemm: {
      std::vector<Word> acc(req.spec.m * req.spec.n, 0);
      for (std::size_t i = 0; i < results.size(); ++i) {
        tile::accumulate_tile(*prep.sched, prep.sched->steps[i],
                              results[i].outputs, acc);
      }
      o.raw.push_back(tile::narrow_grid(req.spec, acc));
      break;
    }
  }
  return o;
}

// ---- Stack -------------------------------------------------------------

Stack::Stack(const Workload& w) : w_(w) {
  if (w.stack.served) {
    net::ServerConfig cfg;
    cfg.runtime.workers = w.stack.workers;
    cfg.runtime.queue_capacity = w.stack.queue_capacity;
    cfg.shards = w.stack.shards;
    server_ = std::make_unique<LoopbackServer>(cfg);
    for (std::size_t c = 0; c < w.stack.clients; ++c) {
      net::ClientConfig ccfg;
      ccfg.port = server_->server().port();
      ccfg.busy_retries = kBusyRetries;
      clients_.push_back(std::make_unique<net::Client>(ccfg));
      clients_.back()->connect();
    }
    return;
  }
  rt::RuntimeConfig cfg;
  cfg.workers = w.stack.workers;
  cfg.queue_capacity = w.stack.queue_capacity;
  runtime_ = std::make_unique<rt::Runtime>(cfg);
  compile_ = std::make_unique<sring::svc::CompileService>();
  for (const Request& r : w.requests) {
    prepared_.push_back(prepare(w, r, *compile_));
  }
}

Pass Stack::warm_up() {
  const std::size_t n = w_.requests.size();
  std::vector<Outcome> outs(n);
  if (server_) {
    // Clients split the pass so every worker sees cold programs.
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t i = c; i < n; i += clients_.size()) {
          outs[i] = run_remote(*clients_[c], w_, w_.requests[i]);
        }
      });
    }
    for (auto& t : threads) t.join();
  } else {
    std::vector<rt::Job> jobs;
    for (const Prepared& p : prepared_) {
      jobs.insert(jobs.end(), p.jobs.begin(), p.jobs.end());
    }
    const std::vector<rt::JobResult> results =
        runtime_->submit_batch(std::move(jobs));
    std::size_t at = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = prepared_[i].jobs.size();
      outs[i] = assemble(
          w_.requests[i], prepared_[i],
          {results.begin() + static_cast<std::ptrdiff_t>(at),
           results.begin() + static_cast<std::ptrdiff_t>(at + k)});
      at += k;
    }
  }
  Pass pass;
  Fnv64 digest;
  cycles_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!outs[i].ok) {
      ++pass.failed;
      continue;
    }
    if (!matches(w_.requests[i], outs[i])) ++pass.diverged;
    for (const auto& v : outs[i].raw) digest.add(v);
    cycles_[i] = outs[i].sim_cycles;
  }
  pass.outputs_fnv64 = digest.value();
  pass.sim_cycles = cycles_;
  pass.outcomes = std::move(outs);
  return pass;
}

namespace {

/// Book one finished request into a client's log.
void book(ClientLog& log, const Request& req, const Outcome& out,
          std::uint64_t golden_cycles, Clock::time_point opened,
          Clock::time_point s0, Clock::time_point s1) {
  ++log.attempted;
  double latency = us_between(s0, s1);
  if (!out.ok) {
    if (log.failed == 0) {
      std::fprintf(stderr, "stackbench: request failed: %s\n",
                   out.error.c_str());
    }
    ++log.failed;
    latency = std::numeric_limits<double>::infinity();
  } else if (!matches(req, out) || out.sim_cycles != golden_cycles) {
    ++log.failed;
    ++log.diverged;
    latency = std::numeric_limits<double>::infinity();
  } else {
    ++log.completed;
    log.sim_cycles += out.sim_cycles;
  }
  if (log.used == log.samples.size()) {
    ++log.dropped;
    return;
  }
  const bool good = std::isfinite(latency);
  log.samples[log.used++] = {
      static_cast<float>(latency),
      static_cast<float>(us_between(opened, s1) / 1e6),
      static_cast<std::uint32_t>(req.shape),
      static_cast<std::uint32_t>(good ? out.sim_cycles : 0)};
}

/// Logs for `clients` closed loops of `seconds`, allocated and touched
/// before the window opens.
Window open_window(std::size_t clients, double seconds) {
  Window win;
  const auto cap = static_cast<std::size_t>(
      std::max(1024.0, seconds * Window::kMaxRatePerClient));
  win.logs.resize(clients);
  for (ClientLog& log : win.logs) log.samples.assign(cap, Sample{});
  return win;
}

void close_window(Window& win, Clock::time_point opened) {
  win.wall_s = us_between(opened, Clock::now()) / 1e6;
  for (const ClientLog& log : win.logs) {
    win.attempted += log.attempted;
    win.failed += log.failed;
    win.diverged += log.diverged;
    win.completed += log.completed;
    win.dropped += log.dropped;
    win.sim_cycles += log.sim_cycles;
  }
}

}  // namespace

std::vector<double> Window::latencies(std::size_t shape) const {
  std::vector<double> out;
  for (const ClientLog& log : logs) {
    for (std::size_t i = 0; i < log.used; ++i) {
      if (shape == kAnyShape || log.samples[i].shape == shape) {
        out.push_back(log.samples[i].latency_us);
      }
    }
  }
  return out;
}

WindowStats Window::summarize() const {
  struct Buckets {
    double len = 0;  ///< seconds per sub-window
    std::vector<std::vector<double>> lat;
    std::vector<double> done, cycles;
    std::size_t smallest = 0;
  };
  const auto cut = [this](std::size_t k_n) {
    Buckets b;
    b.len = wall_s / static_cast<double>(k_n);
    b.lat.resize(k_n);
    b.done.assign(k_n, 0.0);
    b.cycles.assign(k_n, 0.0);
    for (const ClientLog& log : logs) {
      for (std::size_t i = 0; i < log.used; ++i) {
        const Sample& s = log.samples[i];
        const std::size_t k =
            std::min(k_n - 1, static_cast<std::size_t>(s.done_s / b.len));
        b.lat[k].push_back(s.latency_us);
        if (std::isfinite(s.latency_us)) {
          b.done[k] += 1.0;
          b.cycles[k] += s.sim_cycles;
        }
      }
    }
    b.smallest = b.lat[0].size();
    for (const auto& v : b.lat) b.smallest = std::min(b.smallest, v.size());
    return b;
  };
  std::size_t n = 0;
  for (const ClientLog& log : logs) n += log.used;

  WindowStats st;
  // Rates and p50: one sub-window per whole second, unless that leaves
  // fewer than kMinRateSamples in each.
  st.sub_windows = std::clamp<std::size_t>(
      std::min(static_cast<std::size_t>(wall_s),
               n / WindowStats::kMinRateSamples),
      1, WindowStats::kMaxSubWindows);
  const Buckets sec = cut(st.sub_windows);
  std::vector<double> rate, mcps, p50;
  for (std::size_t k = 0; k < st.sub_windows; ++k) {
    rate.push_back(sec.done[k] / sec.len);
    mcps.push_back(sec.cycles[k] / sec.len / 1e6);
    if (!sec.lat[k].empty()) p50.push_back(median(sec.lat[k]));
  }
  st.requests_per_s = quantile(rate, 0.75);
  st.sim_mcycles_per_s = quantile(mcps, 0.75);
  st.latency_p50_us = quantile(p50, 0.25);

  // Tail: the most sub-windows that each still hold a tail's worth.
  std::size_t k_t = std::clamp<std::size_t>(
      n / WindowStats::kMinTailSamples, 1, WindowStats::kMaxSubWindows);
  Buckets tb = cut(k_t);
  while (k_t > 1 && tb.smallest < WindowStats::kMinTailSamples) tb = cut(--k_t);
  st.tail_sub_windows = k_t;
  st.tail_quantile = tail_quantile_for(tb.smallest);
  std::vector<double> tail;
  for (const auto& v : tb.lat) tail.push_back(quantile(v, st.tail_quantile));
  st.latency_tail_us = quantile(tail, 0.25);
  return st;
}

Window Stack::run(double seconds, SpanRecorder* spans, std::uint64_t parent) {
  if (!server_) return run_fleet(seconds, spans, parent);
  const std::size_t n = w_.requests.size();
  const std::size_t clients = clients_.size();
  Window win = open_window(clients, seconds);
  std::atomic<std::uint64_t> seq{0};
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Clients start out of phase so different request kinds overlap.
      std::size_t i = (c * (n / clients) + c) % n;
      while (Clock::now() < deadline) {
        const Request& req = w_.requests[i];
        const auto s0 = Clock::now();
        const Outcome out = run_remote(*clients_[c], w_, req);
        const auto s1 = Clock::now();
        book(win.logs[c], req, out, cycles_[i], t0, s0, s1);
        if (spans != nullptr) {
          spans->record("request." + w_.shapes[req.shape], s0, s1, parent,
                        seq.fetch_add(1) + 1,
                        static_cast<std::uint32_t>(c + 1));
        }
        i = (i + 1) % n;
      }
    });
  }
  for (auto& t : threads) t.join();
  close_window(win, t0);
  return win;
}

Window Stack::run_fleet(double seconds, SpanRecorder* spans,
                        std::uint64_t parent) {
  const std::size_t n = w_.requests.size();
  // One caller, but every batch books one sample per job.
  Window win = open_window(1, seconds);
  std::uint64_t batch = 0;
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline) {
    // Each DFG request resolves its program through the compile
    // service, as a server would per submission.
    std::vector<rt::Job> jobs;
    for (std::size_t i = 0; i < n; ++i) {
      const Request& req = w_.requests[i];
      if (req.kind == Kind::kDfg) {
        prepared_[i].compiled =
            compile_->get_or_compile(w_.graphs[req.graph].blob, kGeom)
                .compiled;
        jobs.push_back(
            sring::svc::make_dfg_job(prepared_[i].compiled, req.streams));
      } else {
        jobs.insert(jobs.end(), prepared_[i].jobs.begin(),
                    prepared_[i].jobs.end());
      }
    }
    const auto s0 = Clock::now();
    const std::vector<rt::JobResult> results =
        runtime_->submit_batch(std::move(jobs));
    const auto s1 = Clock::now();
    ++batch;
    if (spans != nullptr) {
      spans->record("rt.submit_batch", s0, s1, parent, batch, 1);
    }
    // Every job's reply reaches the caller when the batch returns.
    std::size_t at = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = prepared_[i].jobs.size();
      const Outcome out = assemble(
          w_.requests[i], prepared_[i],
          {results.begin() + static_cast<std::ptrdiff_t>(at),
           results.begin() + static_cast<std::ptrdiff_t>(at + k)});
      at += k;
      book(win.logs[0], w_.requests[i], out, cycles_[i], t0, s0, s1);
    }
  }
  close_window(win, t0);
  return win;
}

sring::obs::Registry Stack::metrics() const {
  if (server_) return server_->server().metrics();
  sring::obs::Registry reg = runtime_->metrics();
  reg.merge_from(compile_->metrics());
  return reg;
}

std::optional<net::StatsReplyMsg> Stack::stats() const {
  if (!server_) return std::nullopt;
  return server_->server().stats_snapshot(0);
}

}  // namespace stackbench
