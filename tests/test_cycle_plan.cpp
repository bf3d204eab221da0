// The Ring's decoded cycle-plan cache: bit-exactness against the
// interpreter (steady-state kernels, hardware multiplexing, stalls),
// invalidation via the generation counters, stall semantics on the
// planned path, and the plan observability counters.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "asm/assembler.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/ring.hpp"
#include "drive_util.hpp"
#include "kernels/fir_kernel.hpp"
#include "kernels/mac_kernel.hpp"
#include "obs/event.hpp"
#include "sim/system.hpp"

namespace sring {
namespace {

std::vector<Word> signal(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Word> x(n);
  for (auto& w : x) w = rng.next_word_in(-100, 100);
  return x;
}

/// Statistics with the plan counters blanked: everything here must be
/// identical between the planned and the interpreted execution.
SystemStats arch_only(SystemStats s) {
  s.plan_compiles = 0;
  s.plan_hits = 0;
  s.plan_invalidations = 0;
  s.plan_content_hits = 0;
  s.plan_evictions = 0;
  s.plan_seq_fusions = 0;
  s.plan_seq_hits = 0;
  return s;
}

/// Scoped SRING_NO_PLAN_CACHE for kernels that construct their System
/// internally.  Tests are single-threaded; setenv here is safe.
struct ScopedNoPlanEnv {
  ScopedNoPlanEnv() { setenv("SRING_NO_PLAN_CACHE", "1", 1); }
  ~ScopedNoPlanEnv() { unsetenv("SRING_NO_PLAN_CACHE"); }
};

DnodeInstr pass_out(DnodeSrc src) {
  DnodeInstr i;
  i.op = DnodeOp::kPass;
  i.src_a = src;
  i.out_en = true;
  return i;
}

TEST(CyclePlan, EnvVarDisablesCache) {
  {
    ScopedNoPlanEnv no_plan;
    Ring ring({2, 1, 4});
    EXPECT_FALSE(ring.plan_cache_enabled());
  }
  Ring ring({2, 1, 4});
  EXPECT_TRUE(ring.plan_cache_enabled());
}

TEST(CyclePlan, RunningMacBitExactAndServedFromPlan) {
  const RingGeometry g{4, 2, 8};
  const std::vector<Word> a = signal(1, 200);
  const std::vector<Word> b = signal(2, 200);
  const LoadableProgram program = kernels::make_running_mac_program(g);

  std::vector<Word> outs[2];
  SystemStats stats[2];
  std::uint64_t hits = 0;
  for (const bool planned : {false, true}) {
    System sys({g});
    sys.ring().set_plan_cache_enabled(planned);
    sys.load(program);
    std::vector<Word> interleaved;
    for (std::size_t i = 0; i < a.size(); ++i) {
      interleaved.push_back(a[i]);
      interleaved.push_back(b[i]);
    }
    sys.host().send(interleaved);
    sys.run_until_outputs(a.size(), 64 + 16 * a.size());
    outs[planned] = sys.host().take_received();
    stats[planned] = sys.stats();
    if (planned) hits = sys.ring().plan_hits();
  }
  EXPECT_EQ(outs[0], outs[1]);
  EXPECT_EQ(arch_only(stats[0]).to_string(), arch_only(stats[1]).to_string());
  EXPECT_EQ(stats[0].plan_hits, 0u);
  EXPECT_EQ(stats[1].plan_compiles, 1u)
      << "steady-state local-mode kernel compiles exactly once";
  EXPECT_GE(hits + 4, a.size()) << "the MAC loop must run from the plan";
}

TEST(CyclePlan, SpatialFirBitExactViaEnvironmentSwitch) {
  const RingGeometry g{6, 2, 16};
  const std::vector<Word> x = signal(3, 160);
  const std::vector<Word> coeffs{5, static_cast<Word>(-3), 2, 1};

  const kernels::FirResult planned = kernels::run_spatial_fir(g, x, coeffs);
  ScopedNoPlanEnv no_plan;
  const kernels::FirResult interp = kernels::run_spatial_fir(g, x, coeffs);

  EXPECT_EQ(planned.outputs, interp.outputs);
  EXPECT_EQ(arch_only(planned.stats).to_string(),
            arch_only(interp.stats).to_string());
  EXPECT_GT(planned.stats.plan_hits, 0u);
  EXPECT_EQ(interp.stats.plan_hits, 0u);
  EXPECT_EQ(interp.stats.plan_compiles, 0u);
}

TEST(CyclePlan, HardwareMultiplexingBitExactWithoutRecompileThrash) {
  // The paged and word-by-word serial FIRs rewrite configware every
  // cycle (or nearly so) — the plan cache must neither change results
  // nor recompile on every rewrite.
  const RingGeometry g{6, 2, 16};
  const std::vector<Word> x = signal(4, 48);
  const std::vector<Word> coeffs{2, static_cast<Word>(-1), 3};

  const kernels::FirResult paged = kernels::run_paged_serial_fir(g, x, coeffs);
  const kernels::FirResult wordwise =
      kernels::run_wordwise_serial_fir(g, x, coeffs);
  {
    ScopedNoPlanEnv no_plan;
    const kernels::FirResult paged_i =
        kernels::run_paged_serial_fir(g, x, coeffs);
    const kernels::FirResult wordwise_i =
        kernels::run_wordwise_serial_fir(g, x, coeffs);
    EXPECT_EQ(paged.outputs, paged_i.outputs);
    EXPECT_EQ(wordwise.outputs, wordwise_i.outputs);
    EXPECT_EQ(arch_only(paged.stats).to_string(),
              arch_only(paged_i.stats).to_string());
    EXPECT_EQ(arch_only(wordwise.stats).to_string(),
              arch_only(wordwise_i.stats).to_string());
  }
  // Config-in-flux cycles run the interpreter directly: recompiles are
  // bounded by the stable stretches, never one per rewritten cycle.
  EXPECT_LT(paged.stats.plan_compiles, paged.stats.cycles / 4);
  EXPECT_LT(wordwise.stats.plan_compiles, wordwise.stats.cycles / 4);
}

TEST(CyclePlan, LimitedLinkStallsBitExact) {
  // A starved host link makes the ring stall mid-run; the planned and
  // interpreted executions must agree on outputs AND on the exact
  // stall pattern, and the stalls must not corrupt the stream vs an
  // unstalled run.
  const RingGeometry g{6, 2, 16};
  const std::vector<Word> x = signal(5, 96);
  const std::vector<Word> coeffs{1, 4, static_cast<Word>(-2)};
  const LinkRate starved{1, 2};  // one word every two cycles

  const kernels::FirResult planned =
      kernels::run_spatial_fir(g, x, coeffs, starved);
  const kernels::FirResult smooth = kernels::run_spatial_fir(g, x, coeffs);
  ScopedNoPlanEnv no_plan;
  const kernels::FirResult interp =
      kernels::run_spatial_fir(g, x, coeffs, starved);

  ASSERT_GT(planned.stats.ring_stall_cycles, 0u) << "link must starve";
  EXPECT_EQ(planned.outputs, interp.outputs);
  EXPECT_EQ(arch_only(planned.stats).to_string(),
            arch_only(interp.stats).to_string());
  EXPECT_EQ(planned.outputs, smooth.outputs)
      << "stalled and unstalled runs must produce the same stream";
}

TEST(CyclePlan, CountersTrackCompileHitInvalidate) {
  ConfigMemory cfg({2, 1, 4});
  Ring ring({2, 1, 4});
  HostFifo in;
  std::vector<Word> out;
  cfg.write_dnode_instr(0, pass_out(DnodeSrc::kImm).encode());

  ring.step(cfg, 0, in, out);  // first sight: interpreter
  EXPECT_EQ(ring.plan_compiles(), 0u);
  ring.step(cfg, 0, in, out);  // stable: compile + run planned
  EXPECT_EQ(ring.plan_compiles(), 1u);
  EXPECT_EQ(ring.plan_hits(), 0u);
  ring.step(cfg, 0, in, out);  // served by the cached plan
  ring.step(cfg, 0, in, out);
  EXPECT_EQ(ring.plan_hits(), 2u);
  EXPECT_EQ(ring.plan_invalidations(), 0u);

  // A configuration write invalidates; the write-cycle interprets and
  // the plan recompiles one stable step later.
  cfg.write_dnode_instr(0, pass_out(DnodeSrc::kZero).encode());
  ring.step(cfg, 0, in, out);
  EXPECT_EQ(ring.plan_invalidations(), 1u);
  EXPECT_EQ(ring.plan_compiles(), 1u);
  ring.step(cfg, 0, in, out);
  EXPECT_EQ(ring.plan_compiles(), 2u);

  // A local-control write also invalidates (WRLOC path).
  ring.step(cfg, 0, in, out);
  ring.write_local(0, 0, pass_out(DnodeSrc::kImm).encode());
  ring.step(cfg, 0, in, out);
  EXPECT_EQ(ring.plan_invalidations(), 2u);

  // reset() zeroes the counters and drops the plan.
  ring.reset();
  EXPECT_EQ(ring.plan_compiles(), 0u);
  EXPECT_EQ(ring.plan_hits(), 0u);
  EXPECT_EQ(ring.plan_invalidations(), 0u);
}

TEST(CyclePlan, PlannedModeEntryUnderStallCommitsOnce) {
  // A Dnode entering local mode while the ring stalls: the plan path
  // must fetch slot 0 without touching the counter until a cycle
  // actually advances.
  ConfigMemory cfg({1, 1, 4});
  Ring ring({1, 1, 4});
  HostFifo in;
  std::vector<Word> out;

  DnodeInstr eat = pass_out(DnodeSrc::kHost);  // slot 0: pops one word
  DnodeInstr emit = pass_out(DnodeSrc::kImm);  // slot 1: no host data
  emit.imm = 20;
  ring.write_local(0, 0, eat.encode());
  ring.write_local(0, 1, emit.encode());
  ring.write_local(0, LocalControl::kLimitSlot, 1);
  cfg.write_dnode_mode(0, DnodeMode::kLocal);

  EXPECT_TRUE(ring.step(cfg, 0, in, out).stalled);  // interpreter
  EXPECT_TRUE(ring.step(cfg, 0, in, out).stalled);  // compiles, planned
  EXPECT_TRUE(ring.step(cfg, 0, in, out).stalled);  // plan hit
  EXPECT_EQ(ring.plan_compiles(), 1u);
  EXPECT_EQ(ring.dnode(0, 0).local().counter(), 0u)
      << "stalled entry cycles must not advance the local program";

  in.push_back(7);
  EXPECT_FALSE(ring.step(cfg, 0, in, out).stalled);
  EXPECT_EQ(ring.dnode(0, 0).out(), 7u) << "slot 0 runs on the retry";
  EXPECT_EQ(ring.dnode(0, 0).local().counter(), 1u);
  EXPECT_FALSE(ring.step(cfg, 0, in, out).stalled);  // slot 1, no pop
  EXPECT_EQ(ring.dnode(0, 0).out(), 20u);
}

TEST(CyclePlan, CompileRejectsWhatTheInterpreterRejects) {
  // An out-of-geometry feedback route in local slot 1 (limit 1): both
  // paths must throw from step() on the cycle that reaches it.
  for (const bool planned : {false, true}) {
    ConfigMemory cfg({2, 1, 4});
    Ring ring({2, 1, 4});
    ring.set_plan_cache_enabled(planned);
    HostFifo in;
    std::vector<Word> out;

    SwitchRoute bad;
    bad.fifo1 = {7, 0, 0};  // pipe 7 does not exist in 2 layers
    cfg.write_switch_route(0, 0, bad.encode());
    // Slot 0 stays NOP (routes unchecked for NOP on both paths);
    // slot 1 is the first instruction that samples the bad route.
    ring.write_local(0, 1, pass_out(DnodeSrc::kFifo1).encode());
    ring.write_local(0, LocalControl::kLimitSlot, 1);
    cfg.write_dnode_mode(0, DnodeMode::kLocal);

    EXPECT_NO_THROW(ring.step(cfg, 0, in, out));  // slot 0 is a NOP
    // Interpreter: slot 1 executes and trips the range check.  Plan:
    // the compile on this same step validates the whole program.
    EXPECT_THROW(ring.step(cfg, 0, in, out), SimError);
  }
}

TEST(CyclePlan, OverCapPeriodRunsPlannedBitExact) {
  // Three local programs of length 5, 7 and 8: the schedule period
  // (LCM 280) is over the unrolling cap, so the plan keeps one phase,
  // rebuilt from the live counters each cycle.  It must still run from
  // the plan, stalls and prev/feedback operands included, bit-exact
  // with the interpreter — event stream too.
  static_assert(5 * 7 * 8 > kMaxSuperstepPeriod);
  std::string src = R"(
.ring 2 2 8
.controller
    page boot
    halt
.page boot
    dnode 0.0 local
    dnode 0.1 local
    dnode 1.0 local
    switch 1.0 in1=prev0 fifo1=fb(1,0,2)
)";
  const auto local_program = [&](const char* dnode, int len, bool tail) {
    src += std::string(".local ") + dnode + "\n{\n";
    for (int slot = 0; slot < len; ++slot) {
      if (tail && slot % 3 == 0) {
        src += "    add r1, in1, fifo1 host\n";
      } else if (slot % 2 == 0) {
        src += "    add r0, host, r0 out host\n";
      } else {
        src += "    add r0, r0, imm(" + std::to_string(slot) + ") out\n";
      }
    }
    src += "}\n";
  };
  local_program("0.0", 5, false);
  local_program("0.1", 7, false);
  local_program("1.0", 8, true);
  const LoadableProgram program = assemble(src);
  const RingGeometry g{2, 2, 8};

  struct DigestSink : obs::EventSink {
    void event(const obs::Event& e) override {
      digest += std::to_string(e.cycle) + ':' + std::to_string(e.track) +
                ':' + std::string(e.name) + ':' + std::to_string(e.value) +
                ';';
    }
    std::string digest;
  };
  struct Run {
    std::vector<Word> outputs;
    SystemStats stats;
    std::uint64_t cycles = 0;
    std::uint64_t supersteps = 0;
    std::string events;
  };
  const auto run = [&](bool planned, bool traced) {
    System sys({g});
    sys.ring().set_plan_cache_enabled(planned);
    DigestSink sink;
    if (traced) sys.set_trace(&sink);
    sys.load(program);
    sys.host().send(signal(41, 500));
    sys.run_cycles(600);  // the input runs dry: trailing cycles stall
    sys.set_trace(nullptr);
    return Run{sys.host().take_received(), sys.stats(), sys.cycle(),
               sys.ring().superstep_dispatches(), sink.digest};
  };

  for (const bool traced : {false, true}) {
    const Run planned = run(true, traced);
    const Run interp = run(false, traced);
    EXPECT_EQ(planned.outputs, interp.outputs);
    EXPECT_EQ(planned.cycles, interp.cycles);
    EXPECT_EQ(arch_only(planned.stats).to_string(),
              arch_only(interp.stats).to_string());
    EXPECT_EQ(planned.events, interp.events);
    EXPECT_GT(planned.stats.ring_stall_cycles, 0u);
    EXPECT_GT(planned.stats.plan_hits, planned.cycles / 2);
    EXPECT_EQ(planned.supersteps, 0u) << "an over-cap plan is not unrolled";
  }
}

// ---------------------------------------------------------------------
// Supersteps: a multi-cycle dispatch of the planned engine must be
// observationally identical to driving the same engine one step() at a
// time — outputs, full SystemStats (including the plan counters), and
// every metric except ring.superstep.* — across every boundary that
// forces it back to single-step.

/// Metrics snapshot minus the ring.superstep.* counters, the only
/// instruments supersteps are allowed to move.
std::string metrics_no_superstep(const obs::Registry& reg) {
  obs::JsonValue out = obs::JsonValue::object();
  for (const auto& [name, counter] : reg.counters()) {
    if (name.rfind("ring.superstep.", 0) == 0) continue;
    out.set(name, counter.value());
  }
  for (const auto& [name, hist] : reg.histograms()) {
    out.set(name, hist.to_json());
  }
  return out.dump();
}

struct SuperRun {
  std::vector<Word> outputs;
  std::string stats;    ///< full SystemStats, plan counters included
  std::string metrics;  ///< minus ring.superstep.*
  std::uint64_t cycles = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t ss_cycles = 0;
};

/// Run `drive` on a fresh System, fused or per-cycle, and capture
/// everything supersteps must not change.
template <typename DriveFn>
SuperRun drive_system(const RingGeometry& g, const Drive& how,
                      DriveFn&& drive) {
  System sys({g});
  drive(sys, how);
  SuperRun r;
  r.outputs = sys.host().take_received();
  r.stats = sys.stats().to_string();
  r.metrics = metrics_no_superstep(sys.metrics());
  r.cycles = sys.cycle();
  r.dispatches = sys.ring().superstep_dispatches();
  r.ss_cycles = sys.ring().superstep_cycles();
  return r;
}

void expect_transparent(const SuperRun& on, const SuperRun& off) {
  EXPECT_EQ(on.outputs, off.outputs);
  EXPECT_EQ(on.cycles, off.cycles);
  EXPECT_EQ(on.stats, off.stats);
  EXPECT_EQ(on.metrics, off.metrics);
  EXPECT_EQ(off.dispatches, 0u)
      << "one-cycle step() dispatches must never count as supersteps";
}

TEST(Superstep, HostFifoExhaustionAndRefillBitExact) {
  const RingGeometry g{8, 2, 16};
  const std::vector<Word> coeffs{5, static_cast<Word>(-3), 2, 1};
  const std::vector<Word> x = signal(21, 120);
  const LoadableProgram program =
      kernels::make_spatial_fir_program(g, coeffs);

  const auto drive = [&](System& sys, const Drive& how) {
    sys.load(program);
    // First half, then run long enough to drain the FIFO and sit in
    // ring stalls; refill and finish.  A superstep must break exactly
    // at the exhaustion point and resume after the refill.
    std::vector<Word> first(x.begin(), x.begin() + 60);
    sys.host().send(first);
    how.cycles(sys, 100);
    std::vector<Word> rest(x.begin() + 60, x.end());
    rest.insert(rest.end(), coeffs.size(), 0);  // flush the pipeline
    sys.host().send(rest);
    how.until_outputs(sys, x.size() + coeffs.size(), 4096);
  };

  const SuperRun on = drive_system(g, kFusedDrive, drive);
  const SuperRun off = drive_system(g, kPerCycleDrive, drive);
  expect_transparent(on, off);
  EXPECT_GT(on.dispatches, 0u);
  EXPECT_GT(on.ss_cycles, 60u) << "the steady phases must run fused";
}

TEST(Superstep, BusDriveBreaksDispatchBitExact) {
  // Dnode 0.0 drives the bus every executed cycle; 1.0 echoes the bus
  // to the host.  Every drive must end the fused dispatch so the value
  // lands on the System bus before the next cycle reads it.
  const RingGeometry g{2, 1, 4};
  const LoadableProgram program = assemble(R"(
.ring 2 1 4
.controller
    page boot
    halt
.page boot
    dnode 0.0 { pass none, host bus host }
    dnode 1.0 { pass none, bus host }
)");

  const auto drive = [&](System& sys, const Drive& how) {
    sys.load(program);
    sys.host().send(signal(22, 48));
    how.cycles(sys, 64);  // trailing cycles stall on the drained FIFO
  };

  const SuperRun on = drive_system(g, kFusedDrive, drive);
  const SuperRun off = drive_system(g, kPerCycleDrive, drive);
  expect_transparent(on, off);
  EXPECT_GT(on.dispatches, 0u);
}

TEST(Superstep, ControllerWaitAndPageSwapBitExact) {
  // Local two-slot program streams through a long controller WAIT
  // (supersteps must cap at the wake-up), then a page swap flips the
  // Dnode to global mode (plan invalidation mid-run).
  const RingGeometry g{2, 1, 4};
  const LoadableProgram program = assemble(R"(
.ring 2 1 4
.controller
    page boot
    wait 37
    page coda
    halt
.page boot
    dnode 0.0 local
.local 0.0
{
    pass none, host host
    pass none, imm(5) host
}
.page coda
    dnode 0.0 { pass none, imm(9) host }
)");

  const auto drive = [&](System& sys, const Drive& how) {
    sys.load(program);
    sys.host().send(signal(23, 40));
    how.until_halt(sys, 400, 6);
  };

  const SuperRun on = drive_system(g, kFusedDrive, drive);
  const SuperRun off = drive_system(g, kPerCycleDrive, drive);
  expect_transparent(on, off);
  EXPECT_GT(on.dispatches, 0u) << "the WAIT window must run fused";
}

TEST(Superstep, TraceSinkForcesPerCycleBitExact) {
  // A sink attached mid-run must stop fused dispatches immediately —
  // every subsequent cycle needs its events published.
  struct NullSink : obs::EventSink {
    void event(const obs::Event&) override { ++events; }
    std::uint64_t events = 0;
  };

  const RingGeometry g{8, 2, 16};
  const std::vector<Word> coeffs{2, static_cast<Word>(-1), 3};
  const std::vector<Word> x = signal(24, 80);
  const LoadableProgram program =
      kernels::make_spatial_fir_program(g, coeffs);

  NullSink sink;
  std::uint64_t dispatches_at_attach = 0;
  std::uint64_t ss_cycles_at_attach = 0;
  std::uint64_t hits_at_attach = 0;
  std::uint64_t hits_at_detach = 0;
  const auto drive = [&](System& sys, const Drive& how) {
    sys.load(program);
    std::vector<Word> feed = x;
    feed.insert(feed.end(), coeffs.size(), 0);
    sys.host().send(feed);
    how.cycles(sys, 40);
    if (how.fused) {
      dispatches_at_attach = sys.ring().superstep_dispatches();
      ss_cycles_at_attach = sys.ring().superstep_cycles();
      hits_at_attach = sys.ring().plan_hits();
    }
    sys.set_trace(&sink);
    how.until_outputs(sys, x.size() + coeffs.size(), 4096);
    if (how.fused) hits_at_detach = sys.ring().plan_hits();
    sys.set_trace(nullptr);
  };

  const SuperRun on = drive_system(g, kFusedDrive, drive);
  EXPECT_GT(on.dispatches, 0u);
  EXPECT_EQ(on.dispatches, dispatches_at_attach)
      << "no fused dispatch may run while a sink is attached";
  // The traced cycles still run from the plan — as one-cycle step()
  // dispatches, which ring.superstep.* never counts.
  EXPECT_GT(hits_at_detach, hits_at_attach);
  EXPECT_EQ(on.ss_cycles, ss_cycles_at_attach);

  const SuperRun off = drive_system(g, kPerCycleDrive, drive);
  expect_transparent(on, off);
}

TEST(Superstep, ResetForRerunRepeatsBitExact) {
  const RingGeometry g{4, 2, 8};
  const std::vector<Word> a = signal(25, 150);
  const std::vector<Word> b = signal(26, 150);
  const LoadableProgram program = kernels::make_running_mac_program(g);
  std::vector<Word> interleaved;
  for (std::size_t i = 0; i < a.size(); ++i) {
    interleaved.push_back(a[i]);
    interleaved.push_back(b[i]);
  }

  for (const Drive& how : {kFusedDrive, kPerCycleDrive}) {
    System sys({g});
    std::vector<Word> first, second;
    sys.load(program);
    sys.host().send(interleaved);
    how.until_outputs(sys, a.size(), 64 + 16 * a.size());
    first = sys.host().take_received();
    sys.reset_for_rerun(program);
    sys.host().send(interleaved);
    how.until_outputs(sys, a.size(), 64 + 16 * a.size());
    second = sys.host().take_received();
    EXPECT_EQ(first, second)
        << "rerun diverged, " << (how.fused ? "fused" : "per-cycle");
  }
}

TEST(Superstep, Counters) {
  System sys({RingGeometry{4, 2, 8}});

  const std::vector<Word> a = signal(27, 100);
  const LoadableProgram program = kernels::make_running_mac_program({4, 2, 8});
  sys.load(program);
  std::vector<Word> interleaved;
  for (const Word w : a) {
    interleaved.push_back(w);
    interleaved.push_back(1);
  }
  sys.host().send(interleaved);
  sys.run_until_outputs(a.size(), 64 + 16 * a.size());

  const obs::Registry reg = sys.metrics();
  const obs::Counter* d = reg.find_counter("ring.superstep.dispatches");
  const obs::Counter* c = reg.find_counter("ring.superstep.cycles");
  ASSERT_NE(d, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_GT(d->value(), 0u);
  EXPECT_GT(c->value(), a.size() / 2)
      << "a steady local-mode run must spend most cycles fused";
  EXPECT_EQ(sys.ring().superstep_cycles(), c->value());

  // Every superstep hands back for exactly one reason.
  std::uint64_t exits = 0;
  for (const char* why : {"bus_drive", "budget", "output_stop", "host_stall"}) {
    const obs::Counter* e =
        reg.find_counter(std::string("ring.superstep.exit.") + why);
    ASSERT_NE(e, nullptr) << why;
    exits += e->value();
  }
  EXPECT_EQ(exits, d->value());

  // metrics() publishes the superstep counters from stats().
  const SystemStats s = sys.stats();
  const std::pair<const char*, std::uint64_t> published[] = {
      {"ring.superstep.dispatches", s.superstep_dispatches},
      {"ring.superstep.cycles", s.superstep_cycles},
      {"ring.superstep.exit.bus_drive", s.superstep_exit_bus_drive},
      {"ring.superstep.exit.budget", s.superstep_exit_budget},
      {"ring.superstep.exit.output_stop", s.superstep_exit_output_stop},
      {"ring.superstep.exit.host_stall", s.superstep_exit_host_stall},
  };
  for (const auto& [name, value] : published) {
    EXPECT_EQ(reg.find_counter(name)->value(), value) << name;
  }
}

TEST(Superstep, ExitReasons) {
  // One Dnode popping a host word per cycle; every reason is provoked
  // once, in isolation, on the attached plan.
  using Exit = Ring::SuperstepExit;
  const RingGeometry g{1, 1, 4};
  ConfigMemory cfg(g);
  Ring ring(g);
  HostFifo in;
  std::vector<Word> out;
  DnodeInstr eat = pass_out(DnodeSrc::kHost);
  eat.host_en = true;
  cfg.write_dnode_instr(0, eat.encode());
  in.append(signal(31, 64));
  ring.step(cfg, 0, in, out);  // first sighting: interpreter
  ring.step(cfg, 0, in, out);  // compiles and attaches
  constexpr std::size_t kNoStop = std::numeric_limits<std::size_t>::max();

  const auto count = [&](Exit why) { return ring.superstep_exits(why); };
  EXPECT_EQ(ring.run_planned(cfg, 0, in, out, 5, kNoStop, {}).cycles, 5u);
  EXPECT_EQ(count(Exit::kBudget), 1u);

  // host_out holds 2 words: the stop at 5 admits cycles whose top saw
  // 2, 3 and 4 words, then the one that saw 5 hands back.
  out.resize(2);
  EXPECT_EQ(ring.run_planned(cfg, 0, in, out, 100, 5, {}).cycles, 4u);
  EXPECT_EQ(count(Exit::kOutputStop), 1u);

  const std::size_t left = in.size();
  EXPECT_EQ(ring.run_planned(cfg, 0, in, out, 1000, kNoStop, {}).cycles, left);
  EXPECT_EQ(count(Exit::kHostStall), 1u);
  EXPECT_EQ(ring.run_planned(cfg, 0, in, out, 1000, kNoStop, {}).cycles, 0u)
      << "a dispatch whose first cycle stalls runs nothing and counts nothing";

  // Driving the bus ends the dispatch after that cycle.
  DnodeInstr drive = pass_out(DnodeSrc::kImm);
  drive.bus_en = true;
  cfg.write_dnode_instr(0, drive.encode());
  ring.step(cfg, 0, in, out);  // new content: interpreter
  ring.step(cfg, 0, in, out);  // compiles and attaches
  EXPECT_EQ(ring.run_planned(cfg, 0, in, out, 100, kNoStop, {}).cycles, 1u);
  EXPECT_EQ(count(Exit::kBusDrive), 1u);

  EXPECT_EQ(count(Exit::kBudget) + count(Exit::kOutputStop) +
                count(Exit::kHostStall) + count(Exit::kBusDrive),
            ring.superstep_dispatches());
}

TEST(Superstep, StatsSettleAcrossPartialPeriods) {
  // The planned engine settles its per-Dnode and per-switch statistics
  // once per dispatch (whole schedule periods times the phase totals,
  // plus the partial run) and its local/global mode cycles lazily.
  // Local programs of length 3 and 5 give a 15-phase schedule; global
  // Dnodes read feedback at several depths, run MAC/MSU, and pop on
  // in1, in2 and the direct host operand.  Every budget 1..31 from
  // every starting phase must leave each counter equal to the
  // interpreter's, read mid-run, across a mode-vector change between
  // cached plans, and after an interpreted cycle.
  const RingGeometry g{2, 3, 4};
  constexpr std::size_t kNoStop = std::numeric_limits<std::size_t>::max();
  const auto instr = [](DnodeOp op, DnodeSrc a, DnodeSrc b, DnodeSrc c,
                        DnodeDst dst, Word imm = 0) {
    DnodeInstr i;
    i.op = op;
    i.src_a = a;
    i.src_b = b;
    i.src_c = c;
    i.dst = dst;
    i.imm = imm;
    i.out_en = true;
    return i;
  };
  using Op = DnodeOp;
  using Src = DnodeSrc;
  using Dst = DnodeDst;
  const auto fb = [](std::uint8_t pipe, std::uint8_t lane,
                     std::uint8_t depth) {
    return FeedbackAddr{pipe, lane, depth};
  };

  ConfigMemory cfg(g);
  const auto route = [&](std::size_t sw, std::size_t lane, PortRoute in1,
                         PortRoute in2, FeedbackAddr f1, FeedbackAddr f2,
                         bool tap = false) {
    SwitchRoute r;
    r.in1 = in1;
    r.in2 = in2;
    r.fifo1 = f1;
    r.fifo2 = f2;
    r.host_out_en = tap;
    r.host_out_lane = 2;
    cfg.write_switch_route(sw, lane, r.encode());
  };
  const PortRoute host = PortRoute::host();
  route(0, 0, host, PortRoute::feedback(fb(1, 0, 1)), fb(0, 1, 2),
        fb(1, 2, 3));
  route(0, 1, PortRoute::prev(0), host, fb(1, 1, 0), fb(0, 0, 3));
  route(0, 2, host, PortRoute::feedback(fb(1, 0, 2)), fb(0, 2, 0),
        fb(1, 1, 1));
  route(1, 0, PortRoute::prev(1), PortRoute::bus(), fb(0, 0, 1),
        fb(1, 2, 3));
  route(1, 1, host, host, fb(0, 1, 3), fb(1, 0, 0), /*tap=*/true);
  cfg.write_dnode_instr(
      2, instr(Op::kMac, Src::kIn1, Src::kIn2, Src::kFifo1, Dst::kR0).encode());
  cfg.write_dnode_instr(
      3, instr(Op::kMsu, Src::kIn1, Src::kFifo2, Src::kHost, Dst::kR0)
             .encode());
  DnodeInstr add_host = instr(Op::kAdd, Src::kIn1, Src::kIn2, Src::kZero,
                              Dst::kR1);
  add_host.host_en = true;
  cfg.write_dnode_instr(4, add_host.encode());
  // Dnode 1's global instruction, live while it is switched to global.
  cfg.write_dnode_instr(
      1, instr(Op::kAdd, Src::kIn1, Src::kImm, Src::kZero, Dst::kR2, 5)
             .encode());

  DnodeInstr emit = instr(Op::kPass, Src::kHost, Src::kZero, Src::kZero,
                          Dst::kNone);
  emit.host_en = true;
  const std::vector<std::vector<DnodeInstr>> programs = {
      {instr(Op::kMac, Src::kIn1, Src::kImm, Src::kR0, Dst::kR0, 3),
       instr(Op::kAdd, Src::kFifo1, Src::kIn2, Src::kZero, Dst::kR1), emit},
      {instr(Op::kMsu, Src::kIn1, Src::kFifo2, Src::kR0, Dst::kR0),
       DnodeInstr{},
       instr(Op::kSub, Src::kIn2, Src::kHost, Src::kZero, Dst::kR1),
       instr(Op::kMac, Src::kFifo1, Src::kFifo2, Src::kR2, Dst::kR2),
       instr(Op::kAdd, Src::kR3, Src::kImm, Src::kZero, Dst::kR3, 1)}};
  const auto set_modes = [&](bool dnode1_local) {
    cfg.write_dnode_mode(0, DnodeMode::kLocal);
    cfg.write_dnode_mode(1,
                         dnode1_local ? DnodeMode::kLocal : DnodeMode::kGlobal);
  };

  struct Side {
    explicit Side(const RingGeometry& g) : ring(g) {}
    Ring ring;
    HostFifo in;
    std::vector<Word> out;
    std::uint64_t ops = 0, arith = 0, words_in = 0, words_out = 0;
    void add(const Ring::CycleResult& r) {
      ops += r.ops;
      arith += r.arith_ops;
      words_in += r.host_words_in;
      words_out += r.host_words_out;
    }
  };
  const auto snapshot = [](const Side& s) {
    const Ring& r = s.ring;
    return std::vector<std::vector<std::uint64_t>>{
        r.ops_per_dnode(),
        r.mac_ops_per_dnode(),
        r.fb_reads_per_pipe(),
        r.fb_read_depth_counts(),
        r.local_cycles_per_dnode(),
        r.global_cycles_per_dnode(),
        r.host_out_words_per_switch(),
        {s.ops, s.arith, s.words_in, s.words_out, s.in.size()},
        {s.out.begin(), s.out.end()}};
  };

  const std::vector<Word> input = signal(57, 2048);
  for (std::size_t start = 0; start < 15; ++start) {
    for (std::uint64_t budget = 1; budget <= 31; ++budget) {
      SCOPED_TRACE("start phase " + std::to_string(start) + ", budget " +
                   std::to_string(budget));
      Side planned(g);
      Side interp(g);
      interp.ring.set_plan_cache_enabled(false);
      set_modes(true);
      for (Side* s : {&planned, &interp}) {
        for (std::size_t d = 0; d < programs.size(); ++d) {
          for (std::size_t k = 0; k < programs[d].size(); ++k) {
            s->ring.write_local(d, k, programs[d][k].encode());
          }
          s->ring.write_local(d, LocalControl::kLimitSlot,
                              programs[d].size() - 1);
        }
        s->in.append(input);
      }
      const auto step_both = [&](std::size_t cycles) {
        for (std::size_t c = 0; c < cycles; ++c) {
          for (Side* s : {&planned, &interp}) {
            s->add(s->ring.step(cfg, 0, s->in, s->out));
          }
        }
      };
      const auto superstep = [&](std::uint64_t cycles) {
        const Ring::CycleResult r = planned.ring.run_planned(
            cfg, 0, planned.in, planned.out, cycles, kNoStop, {});
        ASSERT_EQ(r.cycles, cycles);
        planned.add(r);
        for (std::uint64_t c = 0; c < cycles; ++c) {
          interp.add(interp.ring.step(cfg, 0, interp.in, interp.out));
        }
      };

      // Two cycles compile and attach the plan; `start` more move the
      // schedule cursor to phase `start`.
      step_both(2 + start);
      superstep(budget);
      ASSERT_EQ(snapshot(planned), snapshot(interp)) << "read mid-run";

      // Switch Dnode 1 to global (new content: interpreted, then
      // compiled), run, and switch back: the cached plan re-attaches
      // with cycles still pending under the other mode vector.
      set_modes(false);
      step_both(2);
      superstep(budget);
      set_modes(true);
      step_both(1);
      superstep(budget);
      ASSERT_EQ(snapshot(planned), snapshot(interp))
          << "across a mode-vector change";

      // One interpreted cycle on the planned side settles first.
      superstep(budget);
      planned.ring.set_plan_cache_enabled(false);
      step_both(1);
      planned.ring.set_plan_cache_enabled(true);
      ASSERT_EQ(snapshot(planned), snapshot(interp))
          << "after an interpreted cycle";
      EXPECT_EQ(planned.ring.superstep_dispatches(), 4u);
    }
  }
}

TEST(CyclePlan, FbReadDepthCountsSizedByGeometry) {
  // The per-depth feedback histogram is sized by fb_depth, not a
  // hard-coded 16-deep stride.
  ConfigMemory cfg({2, 1, 8});
  Ring ring({2, 1, 8});
  HostFifo in;
  std::vector<Word> out;
  ASSERT_EQ(ring.fb_read_depth_counts().size(), 2u * 8u);

  SwitchRoute r;
  r.fifo1 = {1, 0, 5};
  cfg.write_switch_route(0, 0, r.encode());
  cfg.write_dnode_instr(0, pass_out(DnodeSrc::kFifo1).encode());
  for (int c = 0; c < 6; ++c) ring.step(cfg, 0, in, out);

  EXPECT_EQ(ring.fb_read_depth_counts()[1 * 8 + 5], 6u);
  EXPECT_EQ(ring.fb_reads_per_pipe()[1], 6u);
  EXPECT_GT(ring.plan_hits(), 0u) << "reads must also count on the plan path";
}

}  // namespace
}  // namespace sring
