// Robustness and differential fuzzing: random (but structurally valid)
// configurations and data must never crash the simulator, must
// preserve its accounting invariants, and must run bit-exactly on all
// three execution paths — the ConfigMemory interpreter, the planned
// engine one System::step() per cycle, and the planned engine through
// System's run loops (multi-cycle supersteps).
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "drive_util.hpp"
#include "obs/json.hpp"
#include "sim/system.hpp"

namespace sring {
namespace {

RingGeometry random_geometry(Rng& rng) {
  RingGeometry g;
  g.layers = 1 + rng.next_below(8);
  g.lanes = 1 + rng.next_below(4);
  g.fb_depth = 1 + rng.next_below(16);
  return g;
}

DnodeInstr random_instr(Rng& rng) {
  DnodeInstr i;
  i.op = static_cast<DnodeOp>(
      rng.next_below(static_cast<std::uint64_t>(DnodeOp::kOpCount)));
  i.src_a = static_cast<DnodeSrc>(
      rng.next_below(static_cast<std::uint64_t>(DnodeSrc::kSrcCount)));
  i.src_b = static_cast<DnodeSrc>(
      rng.next_below(static_cast<std::uint64_t>(DnodeSrc::kSrcCount)));
  i.src_c = static_cast<DnodeSrc>(
      rng.next_below(static_cast<std::uint64_t>(DnodeSrc::kSrcCount)));
  i.dst = static_cast<DnodeDst>(
      rng.next_below(static_cast<std::uint64_t>(DnodeDst::kDstCount)));
  i.out_en = rng.next_below(2) != 0;
  i.bus_en = rng.next_below(4) == 0;
  i.host_en = rng.next_below(4) == 0;
  i.imm = rng.next_word();
  return i;
}

SwitchRoute random_route(Rng& rng, const RingGeometry& g) {
  const auto random_fb = [&]() {
    FeedbackAddr a;
    a.pipe = static_cast<std::uint8_t>(rng.next_below(g.switch_count()));
    a.lane = static_cast<std::uint8_t>(rng.next_below(g.lanes));
    a.depth = static_cast<std::uint8_t>(rng.next_below(g.fb_depth));
    return a;
  };
  const auto random_port = [&]() -> PortRoute {
    switch (rng.next_below(5)) {
      case 0:
        return PortRoute::zero();
      case 1:
        return PortRoute::prev(
            static_cast<std::uint8_t>(rng.next_below(g.lanes)));
      case 2:
        return PortRoute::host();
      case 3:
        return PortRoute::bus();
      default:
        return PortRoute::feedback(random_fb());
    }
  };
  SwitchRoute r;
  r.in1 = random_port();
  r.in2 = random_port();
  r.fifo1 = random_fb();
  r.fifo2 = random_fb();
  r.host_out_en = rng.next_below(8) == 0;
  r.host_out_lane = static_cast<std::uint8_t>(rng.next_below(g.lanes));
  return r;
}

enum class Path { kInterpreter, kPerCycle, kFused };

/// Everything the three paths must agree on.
struct FuzzOutcome {
  std::vector<Word> outputs;
  SystemStats stats;         ///< plan counters zeroed
  std::string full_stats;    ///< plan counters included
  std::vector<Word> dnodes;  ///< per Dnode: out(), then R0..R3
  std::string metrics;       ///< minus ring.plan.* and ring.superstep.*
  std::uint64_t plan_hits = 0;
};

/// Metrics snapshot without the counters that describe which engine
/// served each cycle rather than the simulated machine.
std::string machine_metrics(const obs::Registry& reg) {
  obs::JsonValue out = obs::JsonValue::object();
  for (const auto& [name, counter] : reg.counters()) {
    if (name.rfind("ring.plan.", 0) == 0 ||
        name.rfind("ring.superstep.", 0) == 0) {
      continue;
    }
    out.set(name, counter.value());
  }
  for (const auto& [name, hist] : reg.histograms()) {
    out.set(name, hist.to_json());
  }
  return out.dump();
}

FuzzOutcome run_random_system(std::uint64_t seed, Path path) {
  Rng rng(seed);
  const RingGeometry g = random_geometry(rng);

  ConfigPage page = ConfigPage::zeroed(g);
  for (auto& w : page.dnode_instr) w = random_instr(rng).encode();
  for (auto& m : page.dnode_mode) {
    m = static_cast<std::uint8_t>(rng.next_below(2));
  }
  for (auto& w : page.switch_route) w = random_route(rng, g).encode();

  LoadableProgram prog;
  prog.name = "fuzz";
  prog.geometry = g;
  prog.pages.push_back(page);
  // Random local programs for every Dnode.
  for (std::size_t d = 0; d < g.dnode_count(); ++d) {
    const std::size_t len = 1 + rng.next_below(kLocalProgramSlots);
    for (std::size_t s = 0; s < len; ++s) {
      prog.local_init.push_back({static_cast<std::uint32_t>(d),
                                 static_cast<std::uint8_t>(s),
                                 random_instr(rng).encode()});
    }
    prog.local_init.push_back(
        {static_cast<std::uint32_t>(d),
         static_cast<std::uint8_t>(LocalControl::kLimitSlot), len - 1});
  }
  // Controller: apply the page, then spin on WAITs until the cycle
  // budget runs out (HALT at the end is never reached in 500 cycles).
  RiscInstr page0;
  page0.op = RiscOp::kPage;
  RiscInstr wait;
  wait.op = RiscOp::kWait;
  wait.imm = 1000;
  RiscInstr halt;
  halt.op = RiscOp::kHalt;
  prog.controller_code = {page0.encode(), wait.encode(), halt.encode()};

  System sys({g});
  if (path == Path::kInterpreter) sys.ring().set_plan_cache_enabled(false);
  sys.load(prog);
  std::vector<Word> feed(2048);
  for (auto& w : feed) w = rng.next_word();
  sys.host().send(feed);
  (path == Path::kFused ? kFusedDrive : kPerCycleDrive).cycles(sys, 500);

  FuzzOutcome out;
  out.outputs = sys.host().take_received();
  out.full_stats = sys.stats().to_string();
  out.stats = sys.stats();
  out.stats.plan_compiles = 0;
  out.stats.plan_hits = 0;
  out.stats.plan_invalidations = 0;
  out.stats.plan_content_hits = 0;
  out.stats.plan_evictions = 0;
  out.stats.plan_seq_fusions = 0;
  out.stats.plan_seq_hits = 0;
  const Ring& ring = std::as_const(sys).ring();
  for (std::size_t i = 0; i < g.dnode_count(); ++i) {
    const Dnode& d = ring.dnode_flat(i);
    out.dnodes.push_back(d.out());
    for (std::size_t r = 0; r < kDnodeRegCount; ++r) {
      out.dnodes.push_back(d.regs().read(r));
    }
  }
  out.metrics = machine_metrics(sys.metrics());
  out.plan_hits = ring.plan_hits();
  return out;
}

void expect_same_machine(const FuzzOutcome& a, const FuzzOutcome& b,
                         const char* what) {
  EXPECT_EQ(a.outputs, b.outputs) << what;
  EXPECT_EQ(a.stats.to_string(), b.stats.to_string()) << what;
  EXPECT_EQ(a.dnodes, b.dnodes) << what;
  EXPECT_EQ(a.metrics, b.metrics) << what;
}

class SystemFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SystemFuzz, RandomConfigurationsNeverCrash) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const FuzzOutcome interp = run_random_system(seed, Path::kInterpreter);

  // Accounting invariants.
  EXPECT_EQ(interp.stats.cycles, 500u);
  EXPECT_LE(interp.stats.dnode_ops, 500u * 32u);
  EXPECT_LE(interp.stats.host_words_in, 2048u);
  EXPECT_GE(interp.stats.arith_ops, interp.stats.dnode_ops);
  EXPECT_LE(interp.stats.arith_ops, 2 * interp.stats.dnode_ops);
  EXPECT_EQ(interp.outputs.size(), interp.stats.host_words_out);

  // The planned engine, per cycle and fused, is the same machine as the
  // interpreter; fusing cycles leaves even the plan counters alone.
  const FuzzOutcome per_cycle = run_random_system(seed, Path::kPerCycle);
  const FuzzOutcome fused = run_random_system(seed, Path::kFused);
  EXPECT_GT(per_cycle.plan_hits, 0u) << "the planned engine never ran";
  expect_same_machine(per_cycle, interp, "per-cycle planned vs interpreter");
  expect_same_machine(fused, interp, "superstep vs interpreter");
  EXPECT_EQ(fused.full_stats, per_cycle.full_stats);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SystemFuzz, ::testing::Range(0, 200));

}  // namespace
}  // namespace sring
