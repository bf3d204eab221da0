// Unit tests for register file, local control unit, feedback pipeline
// and the Dnode itself.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/dnode.hpp"
#include "core/feedback_pipeline.hpp"
#include "core/local_control.hpp"
#include "core/register_file.hpp"

namespace sring {
namespace {

TEST(RegisterFile, MasterSlaveTiming) {
  RegisterFile rf;
  rf.stage_write(1, 42);
  EXPECT_EQ(rf.read(1), 0u) << "write must not be visible before commit";
  rf.commit();
  EXPECT_EQ(rf.read(1), 42u);
}

TEST(RegisterFile, DoubleWriteIsAnError) {
  RegisterFile rf;
  rf.stage_write(0, 1);
  EXPECT_THROW(rf.stage_write(1, 2), SimError);
}

TEST(RegisterFile, DiscardDropsStagedWrite) {
  RegisterFile rf;
  rf.stage_write(2, 7);
  rf.discard();
  rf.commit();
  EXPECT_EQ(rf.read(2), 0u);
}

TEST(RegisterFile, BoundsChecked) {
  RegisterFile rf;
  EXPECT_THROW(rf.read(4), SimError);
  EXPECT_THROW(rf.stage_write(4, 0), SimError);
  EXPECT_THROW(rf.poke(9, 0), SimError);
}

TEST(LocalControl, CountsThroughLimitAndWraps) {
  LocalControl lc;
  DnodeInstr i0, i1, i2;
  i0.op = DnodeOp::kPass;
  i1.op = DnodeOp::kAdd;
  i2.op = DnodeOp::kMul;
  lc.write(0, i0.encode());
  lc.write(1, i1.encode());
  lc.write(2, i2.encode());
  lc.write(LocalControl::kLimitSlot, 2);
  EXPECT_EQ(lc.current().op, DnodeOp::kPass);
  lc.advance();
  EXPECT_EQ(lc.current().op, DnodeOp::kAdd);
  lc.advance();
  EXPECT_EQ(lc.current().op, DnodeOp::kMul);
  lc.advance();
  EXPECT_EQ(lc.current().op, DnodeOp::kPass) << "must wrap after LIMIT";
}

TEST(LocalControl, LimitOneRegisterLoopsSlotZero) {
  LocalControl lc;
  DnodeInstr mac;
  mac.op = DnodeOp::kMac;
  lc.write(0, mac.encode());
  lc.write(LocalControl::kLimitSlot, 0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(lc.current().op, DnodeOp::kMac);
    lc.advance();
  }
}

TEST(LocalControl, ResetSlotClearsCounter) {
  LocalControl lc;
  lc.write(LocalControl::kLimitSlot, 7);
  lc.advance();
  lc.advance();
  EXPECT_EQ(lc.counter(), 2);
  lc.write(LocalControl::kResetSlot, 0);
  EXPECT_EQ(lc.counter(), 0);
}

TEST(LocalControl, LimitShrinkResetsOutOfRangeCounter) {
  LocalControl lc;
  lc.write(LocalControl::kLimitSlot, 7);
  for (int i = 0; i < 6; ++i) lc.advance();
  EXPECT_EQ(lc.counter(), 6);
  lc.write(LocalControl::kLimitSlot, 3);
  EXPECT_EQ(lc.counter(), 0) << "counter beyond new LIMIT must clear";
}

TEST(LocalControl, BadSlotRejected) {
  LocalControl lc;
  EXPECT_THROW(lc.write(10, 0), SimError);
}

TEST(FeedbackPipeline, DelaySemantics) {
  FeedbackPipeline fp(2, 4);
  fp.push({10, 20});
  EXPECT_EQ(fp.read(0, 0), 10u);
  EXPECT_EQ(fp.read(1, 0), 20u);
  fp.push({11, 21});
  EXPECT_EQ(fp.read(0, 0), 11u);
  EXPECT_EQ(fp.read(0, 1), 10u);
  fp.push({12, 22});
  EXPECT_EQ(fp.read(0, 2), 10u);
  EXPECT_EQ(fp.read(1, 1), 21u);
}

TEST(FeedbackPipeline, DepthPropertyHolds) {
  // read(lane, d) after k pushes returns the (k-d)-th pushed vector.
  FeedbackPipeline fp(1, 8);
  for (Word v = 1; v <= 20; ++v) {
    fp.push({v});
    for (std::size_t d = 0; d < 8 && d < static_cast<std::size_t>(v); ++d) {
      EXPECT_EQ(fp.read(0, d), static_cast<Word>(v - d));
    }
  }
}

TEST(FeedbackPipeline, BoundsAndReset) {
  FeedbackPipeline fp(2, 3);
  EXPECT_THROW(fp.read(2, 0), SimError);
  EXPECT_THROW(fp.read(0, 3), SimError);
  EXPECT_THROW(fp.push({1}), SimError);
  fp.push({5, 6});
  fp.reset();
  EXPECT_EQ(fp.read(0, 0), 0u);
}

TEST(FeedbackPipeline, MirroredWindowMatchesRead) {
  // The window is contiguous from the depth-0 stage on:
  // window()[d * width + i] == read(i, d) at every head position, across
  // more than two wraps of the ring, and after a reset.
  constexpr std::size_t kWidth = 3;
  constexpr std::size_t kDepth = 4;
  FeedbackPipeline fp(kWidth, kDepth);
  const auto expect_window_is_read = [&] {
    for (std::size_t d = 0; d < kDepth; ++d) {
      for (std::size_t i = 0; i < kWidth; ++i) {
        ASSERT_EQ(fp.window()[d * kWidth + i], fp.read(i, d));
      }
    }
  };
  expect_window_is_read();
  for (Word v = 1; v <= 3 * kDepth + 1; ++v) {
    fp.push({v, static_cast<Word>(v + 100), static_cast<Word>(v + 200)});
    expect_window_is_read();
    for (std::size_t d = 0; d < kDepth && d < v; ++d) {
      EXPECT_EQ(fp.window()[d * kWidth + 2], static_cast<Word>(v - d + 200));
    }
  }
  EXPECT_EQ(fp.pushes(), 3 * kDepth + 1);
  EXPECT_EQ(fp.occupancy(), kDepth);
  fp.reset();
  expect_window_is_read();
  for (std::size_t k = 0; k < kDepth * kWidth; ++k) {
    EXPECT_EQ(fp.window()[k], 0u);
  }
  fp.push({7, 8, 9});
  expect_window_is_read();
  EXPECT_EQ(fp.window()[1], 8u);
  EXPECT_EQ(fp.window()[kWidth + 1], 0u);
}

TEST(Dnode, ExecutesAndCommitsLikeHardware) {
  Dnode d;
  DnodeInstr instr;
  instr.op = DnodeOp::kAdd;
  instr.src_a = DnodeSrc::kIn1;
  instr.src_b = DnodeSrc::kIn2;
  instr.dst = DnodeDst::kR0;
  instr.out_en = true;

  Dnode::Inputs in;
  in.in1 = to_word(30);
  in.in2 = to_word(12);
  const auto eff = d.execute(instr, in);
  EXPECT_TRUE(eff.executed);
  EXPECT_EQ(eff.result, to_word(42));
  EXPECT_EQ(d.out(), 0u) << "output register is master-slave";
  EXPECT_EQ(d.regs().read(0), 0u);
  d.commit(false);
  EXPECT_EQ(d.out(), to_word(42));
  EXPECT_EQ(d.regs().read(0), to_word(42));
}

TEST(Dnode, RegisterToRegisterSingleCycle) {
  Dnode d;
  d.regs().poke(1, to_word(6));
  d.regs().poke(2, to_word(7));
  DnodeInstr instr;
  instr.op = DnodeOp::kMul;
  instr.src_a = DnodeSrc::kR1;
  instr.src_b = DnodeSrc::kR2;
  instr.dst = DnodeDst::kR1;  // result into one of the two registers
  d.execute(instr, {});
  d.commit(false);
  EXPECT_EQ(d.regs().read(1), to_word(42));
  EXPECT_EQ(d.regs().read(2), to_word(7));
}

TEST(Dnode, MacUsesThirdOperand) {
  Dnode d;
  d.regs().poke(0, to_word(100));
  DnodeInstr instr;
  instr.op = DnodeOp::kMac;
  instr.src_a = DnodeSrc::kIn1;
  instr.src_b = DnodeSrc::kImm;
  instr.src_c = DnodeSrc::kR0;
  instr.dst = DnodeDst::kR0;
  instr.imm = to_word(3);
  Dnode::Inputs in;
  in.in1 = to_word(5);
  d.execute(instr, in);
  d.commit(false);
  EXPECT_EQ(d.regs().read(0), to_word(115));
}

TEST(Dnode, NopDoesNothing) {
  Dnode d;
  const auto eff = d.execute(DnodeInstr{}, {});
  EXPECT_FALSE(eff.executed);
  d.commit(false);
  EXPECT_EQ(d.out(), 0u);
}

TEST(Dnode, OutputHoldsWhenNotDriven) {
  Dnode d;
  DnodeInstr drive;
  drive.op = DnodeOp::kPass;
  drive.src_a = DnodeSrc::kImm;
  drive.imm = to_word(55);
  drive.out_en = true;
  d.execute(drive, {});
  d.commit(false);
  EXPECT_EQ(d.out(), to_word(55));
  // Now an instruction without outEn: out register must hold.
  DnodeInstr hold;
  hold.op = DnodeOp::kPass;
  hold.src_a = DnodeSrc::kImm;
  hold.imm = to_word(99);
  hold.dst = DnodeDst::kR3;
  d.execute(hold, {});
  d.commit(false);
  EXPECT_EQ(d.out(), to_word(55));
  EXPECT_EQ(d.regs().read(3), to_word(99));
}

TEST(Dnode, DiscardOnStall) {
  Dnode d;
  DnodeInstr instr;
  instr.op = DnodeOp::kPass;
  instr.src_a = DnodeSrc::kImm;
  instr.imm = to_word(1);
  instr.dst = DnodeDst::kR0;
  instr.out_en = true;
  d.execute(instr, {});
  d.discard();
  d.commit(false);
  EXPECT_EQ(d.out(), 0u);
  EXPECT_EQ(d.regs().read(0), 0u);
}

TEST(Dnode, CommitAdvancesLocalCounterOnlyWhenAsked) {
  Dnode d;
  d.local().write(LocalControl::kLimitSlot, 3);
  d.execute(DnodeInstr{}, {});
  d.commit(false);
  EXPECT_EQ(d.local().counter(), 0);
  d.execute(DnodeInstr{}, {});
  d.commit(true);
  EXPECT_EQ(d.local().counter(), 1);
}

}  // namespace
}  // namespace sring
