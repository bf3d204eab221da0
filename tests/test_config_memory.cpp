// Unit tests for the configuration layer (live words + pages).
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/config_memory.hpp"

namespace sring {
namespace {

RingGeometry small() { return {4, 2, 8}; }

TEST(RingGeometry, Validation) {
  EXPECT_NO_THROW(small().validate());
  EXPECT_THROW((RingGeometry{0, 2, 8}).validate(), SimError);
  EXPECT_THROW((RingGeometry{33, 2, 8}).validate(), SimError);
  EXPECT_THROW((RingGeometry{4, 17, 8}).validate(), SimError);
  EXPECT_THROW((RingGeometry{4, 2, 0}).validate(), SimError);
  EXPECT_THROW((RingGeometry{4, 2, 17}).validate(), SimError);
  EXPECT_EQ(small().dnode_count(), 8u);
  EXPECT_EQ(small().switch_count(), 4u);
}

TEST(ConfigMemory, StartsZeroed) {
  ConfigMemory cfg(small());
  for (std::size_t d = 0; d < 8; ++d) {
    EXPECT_EQ(cfg.dnode_instr(d).op, DnodeOp::kNop);
    EXPECT_EQ(cfg.dnode_mode(d), DnodeMode::kGlobal);
  }
}

TEST(ConfigMemory, WriteAndReadBack) {
  ConfigMemory cfg(small());
  DnodeInstr instr;
  instr.op = DnodeOp::kAdd;
  instr.src_a = DnodeSrc::kIn1;
  instr.src_b = DnodeSrc::kIn2;
  instr.dst = DnodeDst::kR0;
  cfg.write_dnode_instr(3, instr.encode());
  EXPECT_EQ(cfg.dnode_instr(3), instr);

  cfg.write_dnode_mode(3, DnodeMode::kLocal);
  EXPECT_EQ(cfg.dnode_mode(3), DnodeMode::kLocal);

  SwitchRoute r;
  r.in1 = PortRoute::prev(1);
  cfg.write_switch_route(2, 0, r.encode());
  EXPECT_EQ(cfg.switch_route(2, 0), r);
}

TEST(ConfigMemory, RejectsBadIndicesAndWords) {
  ConfigMemory cfg(small());
  EXPECT_THROW(cfg.write_dnode_instr(8, 0), SimError);
  EXPECT_THROW(cfg.write_switch_route(4, 0, 0), SimError);
  EXPECT_THROW(cfg.write_switch_route(0, 2, 0), SimError);
  // Malformed microinstruction must be rejected eagerly.
  EXPECT_THROW(cfg.write_dnode_instr(0, 63), SimError);
}

TEST(ConfigMemory, PagesSwapAtomically) {
  ConfigMemory cfg(small());
  ConfigPage page = ConfigPage::zeroed(small());
  DnodeInstr instr;
  instr.op = DnodeOp::kMul;
  instr.src_a = DnodeSrc::kIn1;
  instr.src_b = DnodeSrc::kIn2;
  instr.out_en = true;
  page.dnode_instr[5] = instr.encode();
  page.dnode_mode[1] = static_cast<std::uint8_t>(DnodeMode::kLocal);
  const std::size_t idx = cfg.add_page(page);
  EXPECT_EQ(idx, 0u);

  cfg.apply_page(0);
  EXPECT_EQ(cfg.dnode_instr(5), instr);
  EXPECT_EQ(cfg.dnode_mode(1), DnodeMode::kLocal);
  EXPECT_EQ(cfg.dnode_instr(0).op, DnodeOp::kNop);
  EXPECT_THROW(cfg.apply_page(1), SimError);
}

TEST(ConfigMemory, PageShapeValidated) {
  ConfigMemory cfg(small());
  ConfigPage page = ConfigPage::zeroed({2, 2, 8});
  EXPECT_THROW(cfg.add_page(page), SimError);
  ConfigPage bad_mode = ConfigPage::zeroed(small());
  bad_mode.dnode_mode[0] = 2;
  EXPECT_THROW(cfg.add_page(bad_mode), SimError);
}

TEST(ConfigMemory, CountsWrites) {
  ConfigMemory cfg(small());
  EXPECT_EQ(cfg.words_written(), 0u);
  cfg.write_dnode_mode(0, DnodeMode::kLocal);
  EXPECT_EQ(cfg.words_written(), 1u);
  cfg.add_page(ConfigPage::zeroed(small()));
  cfg.apply_page(0);
  // A page swap rewrites every configuration word.
  EXPECT_EQ(cfg.words_written(), 1u + 8 + 8 + 8);
}

TEST(ConfigMemory, RouteChangesMatchBruteForceDiffAcrossPageRotation) {
  // Three pages with random routes, rotated (with an off-rotation swap
  // and a word write between swaps): the memoized per-swap diffs must
  // count exactly the lanes whose decoded route differs from the live
  // route before the swap.
  const RingGeometry g = small();
  ConfigMemory cfg(g);
  Rng rng(7);
  const auto random_port = [&]() {
    switch (rng.next_word_in(0, 3)) {
      case 0:
        return PortRoute{};
      case 1:
        return PortRoute::prev(
            static_cast<std::uint8_t>(rng.next_word_in(0, 1)));
      case 2:
        return PortRoute::host();
      default:
        return PortRoute::bus();
    }
  };
  for (int p = 0; p < 3; ++p) {
    ConfigPage page = ConfigPage::zeroed(g);
    for (auto& w : page.switch_route) {
      SwitchRoute r;
      r.in1 = random_port();
      r.in2 = random_port();
      w = r.encode();
    }
    cfg.add_page(page);
  }

  std::vector<std::uint64_t> expected(g.switch_count(), 0);
  const auto apply = [&](std::size_t page) {
    std::vector<SwitchRoute> before;
    for (std::size_t sw = 0; sw < g.switch_count(); ++sw) {
      for (std::size_t lane = 0; lane < g.lanes; ++lane) {
        before.push_back(cfg.switch_route(sw, lane));
      }
    }
    cfg.apply_page(page);
    for (std::size_t sw = 0; sw < g.switch_count(); ++sw) {
      for (std::size_t lane = 0; lane < g.lanes; ++lane) {
        if (!(before[sw * g.lanes + lane] == cfg.switch_route(sw, lane))) {
          ++expected[sw];
        }
      }
    }
    ASSERT_EQ(cfg.route_changes_per_switch(), expected);
  };
  for (int round = 0; round < 4; ++round) {
    for (std::size_t p = 0; p < 3; ++p) apply(p);
  }
  apply(2);  // 2 -> 2: nothing changes
  apply(0);
  apply(2);  // off-rotation successor of page 0
  SwitchRoute host_in1;
  host_in1.in1 = PortRoute::host();
  host_in1.in2 = PortRoute::host();
  if (!(cfg.switch_route(1, 0) == host_in1)) ++expected[1];
  cfg.write_switch_route(1, 0, host_in1.encode());
  ASSERT_EQ(cfg.route_changes_per_switch(), expected);
  apply(1);  // from a word-written image
  apply(2);
  EXPECT_GT(cfg.route_changes_total(), 0u);
}

}  // namespace
}  // namespace sring
