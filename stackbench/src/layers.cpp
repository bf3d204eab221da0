#include "layers.hpp"

#include <sched.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>

#include "net/client.hpp"
#include "net/server.hpp"
#include "sim/system.hpp"
#include "svc/dfg_job.hpp"
#include "tile/gemm_runner.hpp"

namespace stackbench {

namespace net = sring::net;
namespace rt = sring::rt;
namespace tile = sring::tile;
using sring::obs::JsonValue;
using sring::obs::Registry;

namespace {

/// L0 rung: fleet jobs straight on bare Systems, one resident System
/// per program key, re-armed with reset_for_rerun + run_until_* the way
/// a worker's pool would arm them.
class BareRing {
 public:
  rt::JobResult run(const rt::Job& job) {
    std::unique_ptr<sring::System>& sys = systems_[job.program_key];
    if (!sys || job.program_key.empty()) {
      sys = std::make_unique<sring::System>(
          sring::SystemConfig{job.program->geometry, job.link});
      sys->load(*job.program);
    } else {
      sys->reset_for_rerun(*job.program);
    }
    sys->host().send(job.input);
    if (job.run == rt::Job::Run::kUntilOutputs) {
      sys->run_until_outputs(job.expected_outputs, job.max_cycles);
    } else {
      sys->run_until_halt(job.max_cycles, job.drain_cycles);
    }
    const std::vector<Word> raw = sys->host().take_received();
    rt::JobResult r;
    if (raw.size() < job.discard_prefix + job.take_words) {
      r.error = "L0: fewer outputs than the job slices";
      return r;
    }
    const auto first = raw.begin() + static_cast<std::ptrdiff_t>(job.discard_prefix);
    r.outputs.assign(first, job.take_words == 0
                                ? raw.end()
                                : first + static_cast<std::ptrdiff_t>(job.take_words));
    r.report.stats = sys->stats();
    r.ok = true;
    return r;
  }

 private:
  std::map<std::string, std::unique_ptr<sring::System>> systems_;
};

/// Pins the calling thread, and every thread it starts from now on, to
/// the CPU it is running on; restores the old mask for the calling
/// thread on destruction.  The ladder runs pinned so that all three
/// rungs compute on one CPU: a difference between rungs is then the
/// layer's own work, not one CPU being slower than another.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    pinned_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    const int cpu = sched_getcpu();
    if (!pinned_ || cpu < 0) {
      pinned_ = false;
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinToOneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

const char* job_kernel(const Request& r, std::size_t k) {
  switch (r.kind) {
    case Kind::kJob:
    case Kind::kBatch: return kernel_label(r.jobs[k]);
    case Kind::kDfg: return "dfg";
    case Kind::kGemm: return "gemm_tile";
  }
  return "unknown";
}

/// One untimed warm call, then timed calls until `budget_s` is spent
/// (at least `min_n`, at most `max_n` samples).  `once(timed)` returns
/// one sample in microseconds.
template <class F>
std::vector<double> sample(F&& once, double budget_s, std::size_t min_n = 3,
                           std::size_t max_n = 31) {
  once(false);
  std::vector<double> us;
  const auto start = Clock::now();
  while (us.size() < min_n ||
         (us.size() < max_n && us_between(start, Clock::now()) < budget_s * 1e6)) {
    us.push_back(once(true));
  }
  return us;
}

double counter(const Registry& r, const char* name) {
  const auto* c = r.find_counter(name);
  return c != nullptr ? static_cast<double>(c->value()) : 0.0;
}

double delta(const Registry& before, const Registry& after, const char* name) {
  return counter(after, name) - counter(before, name);
}

rt::RuntimeConfig fleet_config(std::size_t workers, std::size_t queue) {
  rt::RuntimeConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = queue;
  return cfg;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Server-stamped e2e minus the sum of its stamped phases, per job, over
/// the interval between two stats snapshots.
double unattributed_us(const net::StatsReplyMsg& before,
                       const net::StatsReplyMsg& after) {
  const auto total = [](const net::StatsReplyMsg& s, const std::string& name,
                        double* count) {
    for (const auto& q : s.latencies) {
      if (q.name == name) {
        if (count != nullptr) *count = static_cast<double>(q.count);
        return q.mean_us * static_cast<double>(q.count);
      }
    }
    return 0.0;
  };
  double n0 = 0, n1 = 0;
  double gap = total(after, "net.latency.e2e_us", &n1) -
               total(before, "net.latency.e2e_us", &n0);
  for (const char* phase :
       {"net.latency.queue_wait_us", "net.latency.arm_us",
        "net.latency.execute_us", "net.latency.serialize_us"}) {
    gap -= total(after, phase, nullptr) - total(before, phase, nullptr);
  }
  return ratio(gap, n1 - n0);
}

/// The request and reply payloads one served request exchanges.
struct Frames {
  std::vector<std::uint8_t> request;
  std::vector<std::uint8_t> reply;
};

net::JobResultMsg reply_msg(std::vector<Word> outputs, std::uint64_t cycles) {
  rt::JobResult r;
  r.ok = true;
  r.outputs = std::move(outputs);
  r.report.stats.cycles = cycles;
  return net::make_job_result_msg(1, r);
}

Frames encode_frames(const Workload& w, const Request& req,
                     const Outcome& out) {
  Frames f;
  switch (req.kind) {
    case Kind::kJob:
      f.request = net::encode_job_request(req.jobs[0]);
      f.reply = net::encode_job_result(reply_msg(out.raw[0], out.sim_cycles));
      break;
    case Kind::kBatch: {
      net::SubmitJobBatchMsg msg;
      msg.jobs = req.jobs;
      f.request = net::encode_submit_job_batch(msg);
      net::JobBatchResultMsg res;
      for (const auto& raw : out.raw) {
        net::JobBatchEntryMsg e;
        e.ok = 1;
        e.result = reply_msg(raw, 0);
        res.entries.push_back(std::move(e));
      }
      f.reply = net::encode_job_batch_result(res);
      break;
    }
    case Kind::kDfg: {
      net::SubmitDfgJobMsg msg;
      msg.geometry = kGeom;
      msg.dfg = w.graphs[req.graph].blob;
      msg.streams = req.streams;
      f.request = net::encode_submit_dfg_job(msg);
      std::vector<Word> flat;
      for (const auto& s : out.raw) flat.insert(flat.end(), s.begin(), s.end());
      f.reply = net::encode_job_result(reply_msg(std::move(flat), out.sim_cycles));
      break;
    }
    case Kind::kGemm: {
      net::SubmitGemmMsg msg;
      msg.geometry = kGeom;
      msg.spec = req.spec;
      msg.scratch_tiles = w.stack.scratch_tiles;
      msg.a = req.a;
      msg.b = req.b;
      f.request = net::encode_submit_gemm(msg);
      f.reply = net::encode_job_result(reply_msg(out.raw[0], out.sim_cycles));
      break;
    }
  }
  return f;
}

void decode_frames(const Request& req, const Frames& f) {
  switch (req.kind) {
    case Kind::kJob: (void)net::decode_job_request(f.request); break;
    case Kind::kBatch: (void)net::decode_submit_job_batch(f.request); break;
    case Kind::kDfg: (void)net::decode_submit_dfg_job(f.request); break;
    case Kind::kGemm: (void)net::decode_submit_gemm(f.request); break;
  }
  if (req.kind == Kind::kBatch) {
    (void)net::decode_job_batch_result(f.reply);
  } else {
    (void)net::decode_job_result(f.reply);
  }
}

struct KernelSpeed {
  double cycles = 0;
  double us = 0;
};

struct LadderRow {
  std::string shape;
  double weight = 0;  ///< share of the workload's requests
  std::vector<double> l0, l1, l3;
};

}  // namespace

LayerReport measure_layers(const Workload& w, double seconds,
                           SpanRecorder& spans) {
  LayerReport rep;
  rep.details = JsonValue::object();
  const std::size_t n = w.requests.size();
  const auto check = [&rep](const Request& req, const Outcome& out) {
    ++rep.attempted;
    if (!matches(req, out)) {
      ++rep.failed;
      if (out.ok) ++rep.diverged;
    }
  };

  // ---- loaded windows: untraced, then traced --------------------------
  Stack stack(w);
  const Pass pass = stack.warm_up();
  rep.attempted += n;
  rep.failed += pass.failed + pass.diverged;
  rep.diverged += pass.diverged;

  const double window_s = 0.3 * seconds;
  const Window untraced = stack.run(window_s, nullptr, 0);
  const Registry m0 = stack.metrics();
  const auto st0 = stack.stats();
  const std::uint64_t window_span = spans.next_id();
  const auto tw0 = Clock::now();
  const Window traced = stack.run(window_s, &spans, window_span);
  spans.record("window.traced", tw0, Clock::now(), 0, 0, 0, window_span);
  const Registry m1 = stack.metrics();
  const auto st1 = stack.stats();
  for (const Window* win : {&untraced, &traced}) {
    rep.attempted += win->attempted;
    rep.failed += win->failed;
    rep.diverged += win->diverged;
  }

  // ---- ladder: L0 bare System, L1 idle 1-worker fleet, L3 idle server --
  sring::svc::CompileService compile;
  std::vector<Prepared> prepared;
  for (const Request& r : w.requests) prepared.push_back(prepare(w, r, compile));

  std::optional<PinToOneCpu> pin;
  pin.emplace();
  BareRing bare;
  rt::Runtime fleet1(fleet_config(1, w.stack.queue_capacity));
  net::ServerConfig scfg;
  scfg.runtime.workers = 1;
  scfg.runtime.queue_capacity = w.stack.queue_capacity;
  std::optional<LoopbackServer> idle;
  idle.emplace(scfg);
  net::ClientConfig ccfg;
  ccfg.port = idle->server().port();
  std::optional<net::Client> client;
  client.emplace(ccfg);
  client->connect();

  std::map<std::string, KernelSpeed> speed;
  std::vector<LadderRow> rows(w.shapes.size());
  std::vector<std::size_t> rep_of(w.shapes.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = w.requests[i].shape;
    rows[s].weight += 1.0 / static_cast<double>(n);
    if (rep_of[s] == n) rep_of[s] = i;
  }
  const double rung_s = 0.25 * seconds / (3.0 * static_cast<double>(rows.size()));
  std::map<std::string, double> fold_us;  // per gemm shape
  const std::uint64_t ladder_span = spans.next_id();
  const auto tl0 = Clock::now();
  for (std::size_t s = 0; s < rows.size(); ++s) {
    const Request& req = w.requests[rep_of[s]];
    const Prepared& prep = prepared[rep_of[s]];
    LadderRow& row = rows[s];
    row.shape = w.shapes[s];
    // Each rung call returns its timed microseconds and keeps its outcome
    // for the golden check after sampling, so no checking runs between
    // samples.  Rungs take turns, so host noise lands on all three alike.
    std::vector<Outcome> outs;
    std::vector<rt::JobResult> tiles;  // last L0 tile results, for the fold
    const auto l0 = [&](bool timed) {
      std::vector<rt::JobResult> results;
      double total = 0;
      for (std::size_t k = 0; k < prep.jobs.size(); ++k) {
        const auto s0 = Clock::now();
        results.push_back(bare.run(prep.jobs[k]));
        const double us = us_between(s0, Clock::now());
        total += us;
        if (timed) {
          KernelSpeed& ks = speed[job_kernel(req, k)];
          ks.cycles += static_cast<double>(results.back().report.stats.cycles);
          ks.us += us;
        }
      }
      const auto a0 = Clock::now();
      outs.push_back(assemble(req, prep, results));
      total += us_between(a0, Clock::now());
      tiles = std::move(results);
      return total;
    };
    const auto l1 = [&](bool) {
      std::vector<rt::Job> jobs = prep.jobs;
      const auto s0 = Clock::now();
      const std::vector<rt::JobResult> results =
          fleet1.submit_batch(std::move(jobs));
      outs.push_back(assemble(req, prep, results));
      return us_between(s0, Clock::now());
    };
    const auto l3 = [&](bool) {
      const auto s0 = Clock::now();
      Outcome out = run_remote(*client, w, req);
      const double us = us_between(s0, Clock::now());
      outs.push_back(std::move(out));
      return us;
    };
    l0(false);
    l1(false);
    l3(false);
    const auto start = Clock::now();
    while (row.l0.size() < 3 ||
           (row.l0.size() < 31 &&
            us_between(start, Clock::now()) < 3 * rung_s * 1e6)) {
      for (const auto& [name, rung, out] :
           {std::tuple{"L0.", std::function<double(bool)>(l0), &row.l0},
            std::tuple{"L1.", std::function<double(bool)>(l1), &row.l1},
            std::tuple{"L3.", std::function<double(bool)>(l3), &row.l3}}) {
        const auto r0 = Clock::now();
        out->push_back(rung(true));
        spans.record(name + row.shape, r0, Clock::now(), ladder_span);
      }
    }
    for (const Outcome& out : outs) check(req, out);
    if (req.kind == Kind::kGemm) {
      const auto folds = sample(
          [&](bool) {
            const auto s0 = Clock::now();
            std::vector<Word> acc(req.spec.m * req.spec.n, 0);
            for (std::size_t k = 0; k < tiles.size(); ++k) {
              tile::accumulate_tile(*prep.sched, prep.sched->steps[k],
                                    tiles[k].outputs, acc);
            }
            const std::vector<Word> c = tile::narrow_grid(req.spec, acc);
            const double us = us_between(s0, Clock::now());
            if (c != req.expected[0]) ++rep.diverged;
            return us;
          },
          0.02);
      fold_us[row.shape] = median(folds);
    }
  }
  spans.record("ladder", tl0, Clock::now(), 0, 0, 0, ladder_span);
  const net::StatsReplyMsg idle_stats = idle->server().stats_snapshot(0);
  client.reset();
  idle.reset();
  pin.reset();

  // ---- fleet scaling: one pass of fleet jobs at 1..4 workers ----------
  std::vector<rt::Job> pass_jobs;
  for (const Prepared& p : prepared) {
    pass_jobs.insert(pass_jobs.end(), p.jobs.begin(), p.jobs.end());
  }
  std::vector<double> fleet_rate;
  for (std::size_t workers = 1; workers <= 4; ++workers) {
    rt::Runtime fleet(
        fleet_config(workers, std::max<std::size_t>(64, pass_jobs.size())));
    (void)fleet.submit_batch(pass_jobs);  // warm every worker's pool
    std::size_t jobs_done = 0;
    const auto f0 = Clock::now();
    do {
      for (const auto& r : fleet.submit_batch(pass_jobs)) {
        ++rep.attempted;
        if (!r.ok) ++rep.failed;
      }
      jobs_done += pass_jobs.size();
    } while (us_between(f0, Clock::now()) < 0.15 * seconds / 4 * 1e6);
    const auto f1 = Clock::now();
    spans.record("fleet.w" + std::to_string(workers), f0, f1);
    fleet_rate.push_back(static_cast<double>(jobs_done) / (us_between(f0, f1) / 1e6));
  }

  // ---- single-layer calls: tile planner/fold, compile service, codecs --
  double plan_us = 0, fold_total = 0, run_gemm_us = 0, gemm_shapes = 0;
  for (std::size_t s = 0; s < rows.size(); ++s) {
    const Request& req = w.requests[rep_of[s]];
    if (req.kind != Kind::kGemm) continue;
    const auto t0 = Clock::now();
    plan_us += median(sample(
        [&](bool) {
          const auto p0 = Clock::now();
          const tile::TileSchedule sched =
              tile::plan_gemm(req.spec, w.stack.scratch_tiles);
          const double us = us_between(p0, Clock::now());
          if (sched.steps.empty()) ++rep.diverged;
          return us;
        },
        0.02));
    spans.record("tile.plan_gemm." + rows[s].shape, t0, Clock::now());
    fold_total += fold_us[rows[s].shape];
    run_gemm_us += median(sample(
        [&](bool) {
          const auto g0 = Clock::now();
          const tile::GemmResult g = tile::run_gemm(
              fleet1, {kGeom, w.stack.scratch_tiles}, req.spec, req.a, req.b);
          const double us = us_between(g0, Clock::now());
          if (g.c != req.expected[0]) ++rep.diverged;
          return us;
        },
        0.05));
    gemm_shapes += 1;
  }

  double miss_us = 0, hit_us = 0;
  for (const Graph& g : w.graphs) {
    const auto t0 = Clock::now();
    miss_us += median(sample(
        [&](bool) {
          sring::svc::CompileService fresh;
          const auto c0 = Clock::now();
          const auto r = fresh.get_or_compile(g.blob, kGeom);
          const double us = us_between(c0, Clock::now());
          if (r.cache_hit) ++rep.diverged;
          return us;
        },
        0.05));
    hit_us += median(sample(
        [&](bool) {
          constexpr int kReps = 100;
          const auto c0 = Clock::now();
          for (int i = 0; i < kReps; ++i) {
            if (!compile.get_or_compile(g.blob, kGeom).cache_hit) ++rep.diverged;
          }
          return us_between(c0, Clock::now()) / kReps;
        },
        0.02));
    spans.record("svc.get_or_compile." + g.name, t0, Clock::now());
  }
  const double graphs = static_cast<double>(w.graphs.size());

  std::vector<Frames> frames;
  double bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!pass.outcomes[i].ok) continue;
    frames.push_back(encode_frames(w, w.requests[i], pass.outcomes[i]));
    bytes += static_cast<double>(frames.back().request.size() +
                                 frames.back().reply.size() +
                                 2 * (net::kHeaderBytes + net::kTrailerBytes));
  }
  const auto c0 = Clock::now();
  const double encode_us = median(sample(
      [&](bool) {
        const auto e0 = Clock::now();
        std::size_t k = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if (!pass.outcomes[i].ok) continue;
          const Frames f = encode_frames(w, w.requests[i], pass.outcomes[i]);
          if (f.request.size() != frames[k++].request.size()) ++rep.diverged;
        }
        return us_between(e0, Clock::now());
      },
      0.03)) / static_cast<double>(std::max<std::size_t>(1, frames.size()));
  const double decode_us = median(sample(
      [&](bool) {
        const auto d0 = Clock::now();
        std::size_t k = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if (!pass.outcomes[i].ok) continue;
          decode_frames(w.requests[i], frames[k++]);
        }
        return us_between(d0, Clock::now());
      },
      0.03)) / static_cast<double>(std::max<std::size_t>(1, frames.size()));
  spans.record("net.codecs", c0, Clock::now());

  // ---- fold everything into the metric list ---------------------------
  double sim_self = 0, rt_self = 0, net_self = 0, l3_idle = 0, load_wait = 0;
  JsonValue ladder = JsonValue::array();
  for (std::size_t s = 0; s < rows.size(); ++s) {
    const LadderRow& row = rows[s];
    const double l0 = median(row.l0), l1 = median(row.l1), l3 = median(row.l3);
    const std::vector<double> loaded = untraced.latencies(s);
    const double loaded_p50 = loaded.empty() ? l3 : median(loaded);
    sim_self += row.weight * l0;
    rt_self += row.weight * (l1 - l0);
    net_self += row.weight * (l3 - l1);
    l3_idle += row.weight * l3;
    load_wait += row.weight * (loaded_p50 - l3);
    JsonValue j = JsonValue::object();
    j.set("shape", row.shape);
    j.set("weight", row.weight);
    j.set("l0_us", l0);
    j.set("l1_us", l1);
    j.set("l3_us", l3);
    j.set("samples", std::uint64_t{row.l0.size()});
    j.set("sim_self_us", l0);
    j.set("rt_self_us", l1 - l0);
    j.set("net_self_us", l3 - l1);
    j.set("loaded_p50_us", loaded_p50);
    ladder.push_back(std::move(j));
  }

  const double untraced_rps = untraced.summarize().requests_per_s;
  const double traced_rps = traced.summarize().requests_per_s;
  const double admissions = delta(m0, m1, "net.admission.accepted") +
                            delta(m0, m1, "net.admission.shed");
  const double scratch_hits = delta(m0, m1, "tile.scratch.hits");
  const double svc_hits = delta(m0, m1, "svc.compile.hits");
  const double fast = delta(m0, m1, "rt.pool.fast_resets");
  const double plan_hits = delta(m0, m1, "ring.plan.hits");
  const auto speed_of = [&speed](const char* k) {
    const auto it = speed.find(k);
    return it == speed.end() ? 0.0 : ratio(it->second.cycles, it->second.us);
  };

  auto& m = rep.metrics;
  m.push_back({"sim.self_us", sim_self, "us"});
  for (const char* k : {"fir", "dwt53", "matvec8", "motion_est", "dfg", "gemm_tile"}) {
    m.push_back({std::string("sim.mcycles_per_s.") + k, speed_of(k), "Mcycle/s"});
  }
  m.push_back({"core.plan_hit_rate",
               ratio(plan_hits, plan_hits + delta(m0, m1, "ring.plan.compiles")), "ratio"});
  m.push_back({"core.superstep_cycle_share",
               ratio(delta(m0, m1, "ring.superstep.cycles"), delta(m0, m1, "rt.sim_cycles")),
               "ratio"});
  m.push_back({"rt.self_us", rt_self, "us"});
  m.push_back({"rt.pool_reuse_share",
               ratio(fast, fast + delta(m0, m1, "rt.pool.full_loads")), "ratio"});
  for (std::size_t k = 0; k < fleet_rate.size(); ++k) {
    m.push_back({"rt.fleet_jobs_per_s.w" + std::to_string(k + 1), fleet_rate[k], "1/s"});
  }
  m.push_back({"tile.plan_us", ratio(plan_us, gemm_shapes), "us"});
  m.push_back({"tile.fold_us", ratio(fold_total, gemm_shapes), "us"});
  m.push_back({"tile.run_gemm_ms", ratio(run_gemm_us, gemm_shapes) / 1e3, "ms"});
  m.push_back({"tile.scratch_hit_rate",
               ratio(scratch_hits, scratch_hits + delta(m0, m1, "tile.scratch.refills")),
               "ratio"});
  m.push_back({"svc.compile_miss_us", ratio(miss_us, graphs), "us"});
  m.push_back({"svc.compile_hit_us", ratio(hit_us, graphs), "us"});
  m.push_back({"svc.hit_rate",
               ratio(svc_hits, svc_hits + delta(m0, m1, "svc.compile.misses")), "ratio"});
  m.push_back({"net.encode_us", encode_us, "us"});
  m.push_back({"net.decode_us", decode_us, "us"});
  m.push_back({"net.self_us", net_self, "us"});
  m.push_back({"net.bytes_per_request", ratio(bytes, static_cast<double>(frames.size())), "B"});
  m.push_back({"net.unattributed_us",
               st0 && st1 ? unattributed_us(*st0, *st1)
                          : unattributed_us(net::StatsReplyMsg{}, idle_stats),
               "us"});
  m.push_back({"net.admission_deferred_share",
               ratio(delta(m0, m1, "net.admission.delayed"), admissions), "ratio"});
  m.push_back({"net.shed_share", ratio(delta(m0, m1, "net.admission.shed"), admissions),
               "ratio"});
  m.push_back({"load.wait_us", load_wait, "us"});
  m.push_back({"trace_overhead_share",
               untraced_rps > 0 ? 1.0 - traced_rps / untraced_rps : 0.0, "ratio"});

  JsonValue windows = JsonValue::object();
  for (const auto& [name, win] : {std::pair{"untraced", &untraced}, std::pair{"traced", &traced}}) {
    JsonValue j = JsonValue::object();
    j.set("requests", win->completed);
    j.set("wall_s", win->wall_s);
    const WindowStats st = win->summarize();
    j.set("requests_per_s", st.requests_per_s);
    j.set("latency_p50_us", st.latency_p50_us);
    windows.set(name, std::move(j));
  }
  rep.details.set("ladder", std::move(ladder));
  rep.details.set("idle_l3_us", l3_idle);
  rep.details.set("windows", std::move(windows));
  rep.details.set("outputs_fnv64", pass.outputs_fnv64);
  return rep;
}

}  // namespace stackbench
