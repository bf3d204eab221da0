// The Ring's content-keyed plan cache: hardware multiplexing over a
// repertoire of configuration pages must compile each distinct
// configware content once (not once per rewrite), re-attach cached
// plans on byte-identical rewrites, fuse periodic page sequences into
// O(1) predicted re-attachment, bound its memory via LRU eviction, and
// stay bit-identical to the interpreter through all of it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "asm/program_builder.hpp"
#include "common/rng.hpp"
#include "core/ring.hpp"
#include "drive_util.hpp"
#include "sim/system.hpp"

namespace sring {
namespace {

constexpr RingGeometry kGeom{4, 2, 8};

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

/// K distinct single-Dnode pages pulsed round-robin by the controller,
/// one cycle each with an idle page between pulses — the synthetic
/// core of the matvec8 hardware-multiplexing pattern.  Page p pops one
/// host word and emits word + (p + 1).
LoadableProgram make_page_cycle_program(const RingGeometry& g,
                                        std::size_t npages,
                                        std::size_t iters) {
  ProgramBuilder pb(g, "page_cycle");
  const std::size_t idle = pb.add_page(PageBuilder(g));
  for (std::size_t p = 0; p < npages; ++p) {
    PageBuilder page(g);
    DnodeInstr add;
    add.op = DnodeOp::kAdd;
    add.src_a = DnodeSrc::kHost;
    add.src_b = DnodeSrc::kImm;
    add.imm = static_cast<Word>(p + 1);
    add.host_en = true;
    page.instr(0, 0, add);
    pb.add_page(page);
  }
  pb.set_reg(1, iters);
  pb.ldi(2, 0);
  pb.label("loop");
  for (std::size_t p = 0; p < npages; ++p) {
    pb.page_switch(1 + p);
    pb.page_switch(idle);
  }
  pb.addi(1, 1, -1);
  pb.branch(RiscOp::kBne, 1, 2, "loop");
  pb.halt();
  return pb.build();
}

struct PageCycleRun {
  std::vector<Word> outputs;
  SystemStats stats;
  std::uint64_t cycles = 0;
  std::uint64_t seq_fusions = 0;
  std::uint64_t seq_hits = 0;
  std::uint64_t evictions = 0;
};

PageCycleRun run_page_cycle(const LoadableProgram& program,
                            const std::vector<Word>& input,
                            bool plan_enabled, const Drive& how) {
  System sys({kGeom});
  sys.ring().set_plan_cache_enabled(plan_enabled);
  sys.load(program);
  sys.host().send(input);
  how.until_outputs(sys, input.size(), 64 + 16 * input.size());
  PageCycleRun r;
  r.outputs = sys.host().take_received();
  r.stats = sys.stats();
  r.cycles = sys.cycle();
  r.seq_fusions = sys.ring().plan_seq_fusions();
  r.seq_hits = sys.ring().plan_seq_hits();
  r.evictions = sys.ring().plan_evictions();
  return r;
}

TEST(PlanCache, PageRepertoireCompilesOncePerContentAndFuses) {
  constexpr std::size_t kPages = 4;
  constexpr std::size_t kIters = 60;
  const LoadableProgram program =
      make_page_cycle_program(kGeom, kPages, kIters);
  const std::vector<Word> x = signal(31, kPages * kIters);

  const PageCycleRun planned = run_page_cycle(program, x, true, kFusedDrive);

  // Ground truth: page p adds p + 1 to its popped word.
  std::vector<Word> expected(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    expected[i] = static_cast<Word>(x[i] + (i % kPages) + 1);
  }
  EXPECT_EQ(planned.outputs, expected);

  // npages element pages + the all-NOP idle/boot content: each
  // distinct content compiles exactly once across 60 rewrites each.
  EXPECT_EQ(planned.stats.plan_compiles, kPages + 1);
  EXPECT_EQ(planned.evictions, 0u);
  EXPECT_GT(planned.stats.plan_content_hits, 0u)
      << "rewritten-but-byte-identical pages must re-attach, not recompile";
  // Every detach after warm-up re-attaches a cached plan: true misses
  // (invalidations minus content hits) are bounded by the first
  // sighting of each content, not by the rewrite count.
  EXPECT_LE(planned.stats.plan_invalidations -
                planned.stats.plan_content_hits,
            kPages + 1);
  EXPECT_GT(planned.stats.plan_hits, planned.cycles / 2)
      << "the multiplexed loop must run predominantly from cached plans";

  // The periodic page schedule (period 2 * kPages <= 64) must be
  // recognized and served by sequence prediction.
  EXPECT_GE(planned.seq_fusions, 1u);
  EXPECT_GT(planned.seq_hits, kPages * kIters / 2);
}

TEST(PlanCache, PageRepertoireBitExactAcrossPaths) {
  constexpr std::size_t kPages = 4;
  constexpr std::size_t kIters = 40;
  const LoadableProgram program =
      make_page_cycle_program(kGeom, kPages, kIters);
  const std::vector<Word> x = signal(32, kPages * kIters);

  const PageCycleRun fused = run_page_cycle(program, x, true, kFusedDrive);
  const PageCycleRun percycle =
      run_page_cycle(program, x, true, kPerCycleDrive);
  const PageCycleRun interp = run_page_cycle(program, x, false, kPerCycleDrive);

  EXPECT_EQ(fused.outputs, interp.outputs);
  EXPECT_EQ(percycle.outputs, interp.outputs);
  EXPECT_EQ(fused.cycles, interp.cycles);
  EXPECT_EQ(arch_only(fused.stats).to_string(),
            arch_only(interp.stats).to_string());
  // Supersteps may not move anything, plan counters included.
  EXPECT_EQ(fused.stats.to_string(), percycle.stats.to_string());
  EXPECT_EQ(interp.stats.plan_compiles, 0u);
  EXPECT_EQ(interp.stats.plan_hits, 0u);
}

TEST(PlanCache, EvictionBoundsCacheAndStaysBitExact) {
  // More distinct contents than kPlanCacheCapacity: the cache must
  // evict (bounded memory) and the adversarial thrash pattern must
  // still be bit-identical to the interpreter.
  constexpr std::size_t kPages = Ring::kPlanCacheCapacity + 4;
  constexpr std::size_t kIters = 8;
  const LoadableProgram program =
      make_page_cycle_program(kGeom, kPages, kIters);
  const std::vector<Word> x = signal(33, kPages * kIters);

  const PageCycleRun planned = run_page_cycle(program, x, true, kFusedDrive);
  const PageCycleRun interp = run_page_cycle(program, x, false, kPerCycleDrive);

  EXPECT_GT(planned.evictions, 0u)
      << "a repertoire wider than the cache must trigger LRU eviction";
  EXPECT_EQ(planned.outputs, interp.outputs);
  EXPECT_EQ(planned.cycles, interp.cycles);
  EXPECT_EQ(arch_only(planned.stats).to_string(),
            arch_only(interp.stats).to_string());
}

TEST(PlanCache, ByteIdenticalRewriteReattachesWithoutRecompile) {
  ConfigMemory cfg({2, 1, 4});
  Ring ring({2, 1, 4});
  HostFifo in;
  std::vector<Word> out;

  DnodeInstr a;
  a.op = DnodeOp::kPass;
  a.src_a = DnodeSrc::kImm;
  a.imm = 7;
  a.out_en = true;
  DnodeInstr b = a;
  b.imm = 9;

  cfg.write_dnode_instr(0, a.encode());
  ring.step(cfg, 0, in, out);  // first sighting: interpreter
  ring.step(cfg, 0, in, out);  // second sighting: compile
  ring.step(cfg, 0, in, out);  // stamp hit
  ASSERT_EQ(ring.plan_compiles(), 1u);
  ASSERT_EQ(ring.plan_invalidations(), 0u);

  // Rewriting the SAME bytes bumps the generation (stamp mismatch) but
  // not the content: the cached plan re-attaches the same cycle, no
  // recompile, and the cycle still counts as a hit.
  cfg.write_dnode_instr(0, a.encode());
  ring.step(cfg, 0, in, out);
  EXPECT_EQ(ring.plan_invalidations(), 1u);
  EXPECT_EQ(ring.plan_content_hits(), 1u);
  EXPECT_EQ(ring.plan_compiles(), 1u);
  EXPECT_EQ(ring.plan_hits(), 2u);

  // Genuinely new content is a true miss: interpret, then compile on
  // the second sighting.
  cfg.write_dnode_instr(0, b.encode());
  ring.step(cfg, 0, in, out);
  EXPECT_EQ(ring.plan_invalidations(), 2u);
  EXPECT_EQ(ring.plan_content_hits(), 1u);
  EXPECT_EQ(ring.plan_compiles(), 1u);
  ring.step(cfg, 0, in, out);
  EXPECT_EQ(ring.plan_compiles(), 2u);

  // Flipping back to the first content re-attaches its cached plan.
  cfg.write_dnode_instr(0, a.encode());
  ring.step(cfg, 0, in, out);
  EXPECT_EQ(ring.plan_compiles(), 2u);
  EXPECT_EQ(ring.plan_content_hits(), 2u);
  EXPECT_EQ(ring.dnode(0, 0).out(), 7u);
}

TEST(PlanCache, ResetForRerunKeepsCompiledPlansWarm) {
  constexpr std::size_t kPages = 4;
  constexpr std::size_t kIters = 30;
  const LoadableProgram program =
      make_page_cycle_program(kGeom, kPages, kIters);
  const std::vector<Word> x = signal(34, kPages * kIters);

  System sys({kGeom});
  sys.load(program);
  sys.host().send(x);
  sys.run_until_outputs(x.size(), 64 + 16 * x.size());
  const std::vector<Word> first = sys.host().take_received();
  EXPECT_EQ(sys.ring().plan_compiles(), kPages + 1);

  sys.reset_for_rerun(program);
  sys.host().send(x);
  sys.run_until_outputs(x.size(), 64 + 16 * x.size());

  EXPECT_EQ(sys.host().take_received(), first);
  EXPECT_EQ(sys.ring().plan_compiles(), 0u)
      << "rerun of the same program must be served from the warm cache";
  EXPECT_GT(sys.ring().plan_content_hits(), 0u)
      << "warm entries re-attach through the content check";
}

}  // namespace
}  // namespace sring
