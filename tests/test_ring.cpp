// Behavioral tests for the Ring operating layer: systolic movement,
// ring closure, feedback pipelines, host I/O, stalls, bus, local mode.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "core/ring.hpp"

namespace sring {
namespace {

DnodeInstr pass_out(DnodeSrc src) {
  DnodeInstr i;
  i.op = DnodeOp::kPass;
  i.src_a = src;
  i.out_en = true;
  return i;
}

SwitchRoute in1_prev(std::uint8_t lane) {
  SwitchRoute r;
  r.in1 = PortRoute::prev(lane);
  return r;
}

struct Harness {
  explicit Harness(const RingGeometry& g) : cfg(g), ring(g) {}

  Ring::CycleResult step(Word bus = 0) {
    return ring.step(cfg, bus, in, out);
  }

  ConfigMemory cfg;
  Ring ring;
  HostFifo in;
  std::vector<Word> out;
};

TEST(Ring, SystolicForwardMovement) {
  // 4 layers x 1 lane: layer 0 reads host, layers 1..3 forward.
  Harness h({4, 1, 4});
  SwitchRoute host_route;
  host_route.in1 = PortRoute::host();
  h.cfg.write_switch_route(0, 0, host_route.encode());
  h.cfg.write_dnode_instr(0, pass_out(DnodeSrc::kIn1).encode());
  for (std::size_t l = 1; l < 4; ++l) {
    h.cfg.write_switch_route(l, 0, in1_prev(0).encode());
    h.cfg.write_dnode_instr(l, pass_out(DnodeSrc::kIn1).encode());
  }
  h.in.assign({101, 102, 103, 104, 105, 106, 107, 108});

  // After k+1 cycles the first word reaches layer k's output register.
  h.step();
  EXPECT_EQ(h.ring.dnode(0, 0).out(), 101u);
  h.step();
  EXPECT_EQ(h.ring.dnode(0, 0).out(), 102u);
  EXPECT_EQ(h.ring.dnode(1, 0).out(), 101u);
  h.step();
  h.step();
  EXPECT_EQ(h.ring.dnode(3, 0).out(), 101u);
  EXPECT_EQ(h.ring.dnode(2, 0).out(), 102u);
}

TEST(Ring, ClosesIntoARing) {
  // Layer 0 forwards from layer 3 (the ring wrap), no host involved.
  Harness h({4, 1, 4});
  for (std::size_t l = 0; l < 4; ++l) {
    h.cfg.write_switch_route(l, 0, in1_prev(0).encode());
    h.cfg.write_dnode_instr(l, pass_out(DnodeSrc::kIn1).encode());
  }
  // Seed layer 3's output register directly.
  DnodeInstr seed;
  seed.op = DnodeOp::kPass;
  seed.src_a = DnodeSrc::kImm;
  seed.imm = 77;
  seed.out_en = true;
  h.cfg.write_dnode_instr(3, seed.encode());
  h.step();
  EXPECT_EQ(h.ring.dnode(3, 0).out(), 77u);
  // Restore forwarding; the token must travel 3 -> 0 -> 1 -> 2 -> 3.
  h.cfg.write_dnode_instr(3, pass_out(DnodeSrc::kIn1).encode());
  h.step();
  EXPECT_EQ(h.ring.dnode(0, 0).out(), 77u) << "wrap from last to first";
  h.step();
  EXPECT_EQ(h.ring.dnode(1, 0).out(), 77u);
}

TEST(Ring, FeedbackPipelineDelaysByDepthPlusOne) {
  // Lane 0 streams the host; a second lane reads the same stream via
  // the feedback pipeline at increasing depth.
  Harness h({2, 2, 8});
  SwitchRoute l0;
  l0.in1 = PortRoute::host();
  h.cfg.write_switch_route(0, 0, l0.encode());
  h.cfg.write_dnode_instr(0, pass_out(DnodeSrc::kIn1).encode());

  // Layer 1 lane 0: direct PREV route.  Layer 1 lane 1: feedback read
  // of pipe 1 (which latches layer 0) at depth 2.
  h.cfg.write_switch_route(1, 0, in1_prev(0).encode());
  h.cfg.write_dnode_instr(2, pass_out(DnodeSrc::kIn1).encode());
  SwitchRoute fbr;
  fbr.in1 = PortRoute::feedback({1, 0, 2});
  h.cfg.write_switch_route(1, 1, fbr.encode());
  h.cfg.write_dnode_instr(3, pass_out(DnodeSrc::kIn1).encode());

  for (Word v = 1; v <= 10; ++v) h.in.push_back(v);
  for (int c = 0; c < 9; ++c) h.step();
  // Direct path: layer1 lane0 lags layer0 by 1 cycle; feedback at
  // depth 2 lags the direct path by 3 more (1 latch + 2 depth).
  const Word direct = h.ring.dnode(1, 0).out();
  const Word fb = h.ring.dnode(1, 1).out();
  EXPECT_EQ(as_signed(direct) - as_signed(fb), 3);
}

TEST(Ring, HostPopOrderIsDeterministic) {
  // Two Dnodes in layer 0 both read host on in1: pops must go lane 0
  // first, then lane 1.
  Harness h({1, 2, 4});
  SwitchRoute hr;
  hr.in1 = PortRoute::host();
  h.cfg.write_switch_route(0, 0, hr.encode());
  h.cfg.write_switch_route(0, 1, hr.encode());
  h.cfg.write_dnode_instr(0, pass_out(DnodeSrc::kIn1).encode());
  h.cfg.write_dnode_instr(1, pass_out(DnodeSrc::kIn1).encode());
  h.in.assign({5, 6});
  const auto res = h.step();
  EXPECT_EQ(res.host_words_in, 2u);
  EXPECT_EQ(h.ring.dnode(0, 0).out(), 5u);
  EXPECT_EQ(h.ring.dnode(0, 1).out(), 6u);
}

TEST(Ring, SamePortReadTwicePopsOnce) {
  // in1 used as both operands: a single port, a single pop.
  Harness h({1, 1, 4});
  SwitchRoute hr;
  hr.in1 = PortRoute::host();
  h.cfg.write_switch_route(0, 0, hr.encode());
  DnodeInstr add;
  add.op = DnodeOp::kAdd;
  add.src_a = DnodeSrc::kIn1;
  add.src_b = DnodeSrc::kIn1;
  add.out_en = true;
  h.cfg.write_dnode_instr(0, add.encode());
  h.in.assign({21, 99});
  const auto res = h.step();
  EXPECT_EQ(res.host_words_in, 1u);
  EXPECT_EQ(h.ring.dnode(0, 0).out(), 42u);
  EXPECT_EQ(h.in.size(), 1u);
}

TEST(Ring, StallsAtomicallyOnUnderflow) {
  // Two host ports needed, only one word available: full stall, the
  // word must NOT be consumed.
  Harness h({1, 2, 4});
  SwitchRoute hr;
  hr.in1 = PortRoute::host();
  h.cfg.write_switch_route(0, 0, hr.encode());
  h.cfg.write_switch_route(0, 1, hr.encode());
  h.cfg.write_dnode_instr(0, pass_out(DnodeSrc::kIn1).encode());
  h.cfg.write_dnode_instr(1, pass_out(DnodeSrc::kIn1).encode());
  h.in.assign({5});
  const auto res = h.step();
  EXPECT_TRUE(res.stalled);
  EXPECT_EQ(res.ops, 0u);
  EXPECT_EQ(h.in.size(), 1u);
  EXPECT_EQ(h.ring.dnode(0, 0).out(), 0u);
  // Providing the second word un-stalls.
  h.in.push_back(6);
  EXPECT_FALSE(h.step().stalled);
}

TEST(Ring, NopDnodesNeedNoHostData) {
  Harness h({1, 1, 4});
  SwitchRoute hr;
  hr.in1 = PortRoute::host();
  h.cfg.write_switch_route(0, 0, hr.encode());
  // Instruction is NOP: the host route must not pop or stall.
  const auto res = h.step();
  EXPECT_FALSE(res.stalled);
  EXPECT_EQ(res.host_words_in, 0u);
}

TEST(Ring, HostEnPushesResults) {
  Harness h({1, 1, 4});
  DnodeInstr i;
  i.op = DnodeOp::kPass;
  i.src_a = DnodeSrc::kImm;
  i.imm = 123;
  i.host_en = true;
  h.cfg.write_dnode_instr(0, i.encode());
  h.step();
  h.step();
  ASSERT_EQ(h.out.size(), 2u);
  EXPECT_EQ(h.out[0], 123u);
}

TEST(Ring, SwitchHostOutTapsUpstreamLane) {
  Harness h({2, 1, 4});
  DnodeInstr i;
  i.op = DnodeOp::kPass;
  i.src_a = DnodeSrc::kImm;
  i.imm = 7;
  i.out_en = true;
  h.cfg.write_dnode_instr(0, i.encode());
  SwitchRoute tap;  // switch 1 taps layer 0's lane 0
  tap.host_out_en = true;
  tap.host_out_lane = 0;
  h.cfg.write_switch_route(1, 0, tap.encode());
  h.step();  // layer0 out becomes 7 at the edge; tap saw pre-edge 0
  h.step();
  ASSERT_GE(h.out.size(), 2u);
  EXPECT_EQ(h.out[0], 0u);
  EXPECT_EQ(h.out[1], 7u);
}

TEST(Ring, BusValueVisibleAndDnodeCanDriveIt) {
  Harness h({1, 1, 4});
  DnodeInstr i;
  i.op = DnodeOp::kAdd;
  i.src_a = DnodeSrc::kBus;
  i.src_b = DnodeSrc::kImm;
  i.imm = 1;
  i.out_en = true;
  i.bus_en = true;
  h.cfg.write_dnode_instr(0, i.encode());
  const auto res = h.step(to_word(41));
  EXPECT_EQ(h.ring.dnode(0, 0).out(), to_word(42));
  ASSERT_TRUE(res.bus_drive.has_value());
  EXPECT_EQ(*res.bus_drive, to_word(42));
}

TEST(Ring, LocalModeRunsPrivateProgram) {
  Harness h({1, 1, 4});
  // Local program: alternately emit 10 and 20.
  DnodeInstr a = pass_out(DnodeSrc::kImm);
  a.imm = 10;
  DnodeInstr b = pass_out(DnodeSrc::kImm);
  b.imm = 20;
  h.ring.write_local(0, 0, a.encode());
  h.ring.write_local(0, 1, b.encode());
  h.ring.write_local(0, LocalControl::kLimitSlot, 1);
  h.cfg.write_dnode_mode(0, DnodeMode::kLocal);
  h.step();
  EXPECT_EQ(h.ring.dnode(0, 0).out(), 10u);
  h.step();
  EXPECT_EQ(h.ring.dnode(0, 0).out(), 20u);
  h.step();
  EXPECT_EQ(h.ring.dnode(0, 0).out(), 10u);
}

TEST(Ring, LocalCounterResetsOnModeEntry) {
  Harness h({1, 1, 4});
  DnodeInstr a = pass_out(DnodeSrc::kImm);
  a.imm = 10;
  DnodeInstr b = pass_out(DnodeSrc::kImm);
  b.imm = 20;
  h.ring.write_local(0, 0, a.encode());
  h.ring.write_local(0, 1, b.encode());
  h.ring.write_local(0, LocalControl::kLimitSlot, 1);
  h.cfg.write_dnode_mode(0, DnodeMode::kLocal);
  h.step();  // slot 0
  h.cfg.write_dnode_mode(0, DnodeMode::kGlobal);
  h.step();  // global nop; local counter now at 1
  h.cfg.write_dnode_mode(0, DnodeMode::kLocal);
  h.step();
  EXPECT_EQ(h.ring.dnode(0, 0).out(), 10u)
      << "re-entering local mode must restart the program at slot 0";
}

TEST(Ring, StalledCycleDoesNotCommitModeTransition) {
  // local -> global where every global-mode cycle stalls -> local:
  // no global cycle ever advanced, so the local program must CONTINUE
  // where it left off, not restart at slot 0.  (Regression: the fetch
  // phase used to update the mode tracking before the stall check, so
  // the stalled global cycles "committed" the transition and re-entry
  // spuriously restarted the program.)
  Harness h({1, 1, 4});
  DnodeInstr a = pass_out(DnodeSrc::kImm);
  a.imm = 10;
  DnodeInstr b = pass_out(DnodeSrc::kImm);
  b.imm = 20;
  h.ring.write_local(0, 0, a.encode());
  h.ring.write_local(0, 1, b.encode());
  h.ring.write_local(0, LocalControl::kLimitSlot, 1);
  h.cfg.write_dnode_mode(0, DnodeMode::kLocal);
  h.step();  // slot 0 -> 10; counter now 1
  EXPECT_EQ(h.ring.dnode(0, 0).out(), 10u);

  // Global instruction needs a host word that never arrives.
  h.cfg.write_dnode_instr(0, pass_out(DnodeSrc::kHost).encode());
  h.cfg.write_dnode_mode(0, DnodeMode::kGlobal);
  EXPECT_TRUE(h.step().stalled);
  EXPECT_TRUE(h.step().stalled);
  EXPECT_EQ(h.ring.dnode(0, 0).local().counter(), 1u)
      << "stalled cycles must not touch the local counter";

  h.cfg.write_dnode_mode(0, DnodeMode::kLocal);
  h.step();
  EXPECT_EQ(h.ring.dnode(0, 0).out(), 20u)
      << "no global cycle committed: the program continues at slot 1";
}

TEST(Ring, ModeEntryStallKeepsLocalCounterUntouched) {
  // Entering local mode on a cycle that stalls: the counter reset
  // belongs to the commit phase, so the stalled cycles leave it alone
  // and the retry still starts the program at slot 0.
  Harness h({1, 1, 4});
  DnodeInstr eat = pass_out(DnodeSrc::kHost);
  DnodeInstr emit = pass_out(DnodeSrc::kImm);
  emit.imm = 20;
  h.ring.write_local(0, 0, eat.encode());
  h.ring.write_local(0, 1, emit.encode());
  h.ring.write_local(0, LocalControl::kLimitSlot, 1);

  // Advance the counter to 1 with a committed local cycle, then run a
  // committed global NOP cycle (counter keeps its value).
  h.cfg.write_dnode_mode(0, DnodeMode::kLocal);
  h.in.push_back(1);
  ASSERT_FALSE(h.step().stalled);
  h.cfg.write_dnode_mode(0, DnodeMode::kGlobal);
  ASSERT_FALSE(h.step().stalled);
  ASSERT_EQ(h.ring.dnode(0, 0).local().counter(), 1u);

  // Re-entry fetches slot 0, which pops -- and the FIFO is empty.
  h.cfg.write_dnode_mode(0, DnodeMode::kLocal);
  EXPECT_TRUE(h.step().stalled);
  EXPECT_EQ(h.ring.dnode(0, 0).local().counter(), 1u)
      << "the entry reset must not happen on a stalled cycle";
  h.in.push_back(9);
  EXPECT_FALSE(h.step().stalled);
  EXPECT_EQ(h.ring.dnode(0, 0).out(), 9u) << "retry runs slot 0";
  h.step();
  EXPECT_EQ(h.ring.dnode(0, 0).out(), 20u) << "then slot 1";
}

TEST(Ring, StallLeavesStatisticsUntouched) {
  // A stalled cycle is a pure retry: every instrumentation counter
  // must read exactly as before the attempt.
  Harness h({2, 2, 4});
  SwitchRoute r00;  // dnode(0,0): host operand + a consumed fb read
  r00.in1 = PortRoute::host();
  r00.fifo1 = {1, 0, 2};
  h.cfg.write_switch_route(0, 0, r00.encode());
  DnodeInstr add;
  add.op = DnodeOp::kAdd;
  add.src_a = DnodeSrc::kIn1;
  add.src_b = DnodeSrc::kFifo1;
  add.out_en = true;
  add.host_en = true;
  add.bus_en = true;
  h.cfg.write_dnode_instr(0, add.encode());
  SwitchRoute tap;  // switch 1 lane 0 forwards to the host
  tap.host_out_en = true;
  h.cfg.write_switch_route(1, 0, tap.encode());
  DnodeInstr local10 = pass_out(DnodeSrc::kImm);
  local10.imm = 10;
  h.ring.write_local(1, 0, local10.encode());
  h.cfg.write_dnode_mode(1, DnodeMode::kLocal);

  h.in.push_back(3);
  ASSERT_FALSE(h.step().stalled);  // one committed cycle seeds stats

  const auto ops = h.ring.ops_per_dnode();
  const auto local_cycles = h.ring.local_cycles_per_dnode();
  const auto global_cycles = h.ring.global_cycles_per_dnode();
  const auto fb_reads = h.ring.fb_reads_per_pipe();
  const auto fb_depths = h.ring.fb_read_depth_counts();
  const auto host_out_words = h.ring.host_out_words_per_switch();
  const auto bus_drives = h.ring.bus_drives();
  const auto pipe_pushes = h.ring.feedback_bank().pushes();
  const auto out_words = h.out.size();
  const auto counter = h.ring.dnode(1, 0).local().counter();

  for (int c = 0; c < 3; ++c) {  // FIFO empty: every attempt stalls
    const auto res = h.step();
    ASSERT_TRUE(res.stalled);
    EXPECT_EQ(res.ops, 0u);
    EXPECT_EQ(res.host_words_in, 0u);
    EXPECT_EQ(res.host_words_out, 0u);
    EXPECT_FALSE(res.bus_drive.has_value());
  }

  EXPECT_EQ(h.ring.ops_per_dnode(), ops);
  EXPECT_EQ(h.ring.local_cycles_per_dnode(), local_cycles);
  EXPECT_EQ(h.ring.global_cycles_per_dnode(), global_cycles);
  EXPECT_EQ(h.ring.fb_reads_per_pipe(), fb_reads);
  EXPECT_EQ(h.ring.fb_read_depth_counts(), fb_depths);
  EXPECT_EQ(h.ring.host_out_words_per_switch(), host_out_words);
  EXPECT_EQ(h.ring.bus_drives(), bus_drives);
  EXPECT_EQ(h.ring.feedback_bank().pushes(), pipe_pushes);
  EXPECT_EQ(h.out.size(), out_words);
  EXPECT_EQ(h.ring.dnode(1, 0).local().counter(), counter);
}

TEST(Ring, CountsOpsAndUtilization) {
  Harness h({2, 1, 4});
  h.cfg.write_dnode_instr(0, pass_out(DnodeSrc::kImm).encode());
  for (int c = 0; c < 10; ++c) h.step();
  EXPECT_EQ(h.ring.ops_per_dnode()[0], 10u);
  EXPECT_EQ(h.ring.ops_per_dnode()[1], 0u);
}

TEST(Ring, MacCountsAsTwoArithOps) {
  Harness h({1, 1, 4});
  DnodeInstr mac;
  mac.op = DnodeOp::kMac;
  mac.src_a = DnodeSrc::kImm;
  mac.src_b = DnodeSrc::kImm;
  mac.src_c = DnodeSrc::kR0;
  mac.dst = DnodeDst::kR0;
  mac.imm = 1;
  h.cfg.write_dnode_instr(0, mac.encode());
  const auto res = h.step();
  EXPECT_EQ(res.ops, 1u);
  EXPECT_EQ(res.arith_ops, 2u);
}

TEST(Ring, OutOfGeometryFeedbackReadRejectedAtRuntime) {
  // The route encoding allows pipe/depth values larger than this
  // instance provides; the ring must reject them when executed, not
  // read out of bounds.
  Harness h({2, 1, 4});
  SwitchRoute r;
  r.in1 = PortRoute::feedback({7, 0, 0});  // pipe 7 does not exist
  DnodeInstr i = pass_out(DnodeSrc::kIn1);
  ConfigPage page = ConfigPage::zeroed({2, 1, 4});
  page.dnode_instr[0] = i.encode();
  page.switch_route[0] = r.encode();
  h.cfg.add_page(page);
  h.cfg.apply_page(0);
  EXPECT_THROW(h.step(), SimError);

  // Same for a depth beyond the pipeline.
  Harness h2({2, 1, 4});
  SwitchRoute r2;
  r2.fifo1 = {1, 0, 9};  // depth 9 in a 4-deep pipeline
  DnodeInstr i2 = pass_out(DnodeSrc::kFifo1);
  h2.cfg.write_dnode_instr(0, i2.encode());
  h2.cfg.write_switch_route(0, 0, r2.encode());
  EXPECT_THROW(h2.step(), SimError);
}

TEST(Ring, GeometryMismatchRejected) {
  Ring ring({2, 1, 4});
  ConfigMemory cfg({4, 1, 4});
  HostFifo in;
  std::vector<Word> out;
  EXPECT_THROW(ring.step(cfg, 0, in, out), SimError);
}

}  // namespace
}  // namespace sring
