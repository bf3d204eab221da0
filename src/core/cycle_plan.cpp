#include "core/cycle_plan.hpp"

#include "common/error.hpp"
#include "core/local_control.hpp"

namespace sring {

namespace {

std::size_t upstream_of(const RingGeometry& geom, std::size_t layer) noexcept {
  return (layer + geom.layers - 1) % geom.layers;
}

std::size_t lcm_of(std::size_t a, std::size_t b) noexcept {
  std::size_t x = a;
  std::size_t y = b;
  while (y != 0) {
    const std::size_t t = x % y;
    x = y;
    y = t;
  }
  return a / x * b;
}

/// Compile one microinstruction against its switch route.  Performs
/// exactly the validation the interpreter does on a non-stalled cycle:
/// for a non-NOP instruction both input routes and both fifo addresses
/// are range-checked whether or not the instruction reads them (the
/// interpreter samples all four unconditionally), while operand
/// resolution — and host pops — happen only for sources the
/// instruction consumes.  Immediates go to the plan's constant pool.
PlannedSlot compile_slot(const RingGeometry& geom, const DnodeInstr& instr,
                         const SwitchRoute& route, std::size_t up_layer,
                         std::vector<Word>& consts) {
  PlannedSlot ps;
  ps.instr = instr;
  ps.nop = instr.op == DnodeOp::kNop;
  if (ps.nop) return ps;  // the interpreter skips routing for NOP
  ps.is_mac = instr.op == DnodeOp::kMac || instr.op == DnodeOp::kMsu;

  const auto check_port = [&](const PortRoute& p) {
    switch (p.kind) {
      case RouteKind::kZero:
      case RouteKind::kHost:
      case RouteKind::kBus:
        break;
      case RouteKind::kPrev:
        check(p.lane < geom.lanes, "Ring: route lane out of range");
        break;
      case RouteKind::kFeedback:
        p.fb.check_in_range(geom.switch_count(), geom.lanes, geom.fb_depth);
        break;
      case RouteKind::kKindCount:
        throw SimError("Ring: bad route kind");
    }
  };
  check_port(route.in1);
  check_port(route.in2);
  route.fifo1.check_in_range(geom.switch_count(), geom.lanes, geom.fb_depth);
  route.fifo2.check_in_range(geom.switch_count(), geom.lanes, geom.fb_depth);

  // Host pops in the documented port order: in1, in2, direct operand.
  const bool in1_pops = route.in1.kind == RouteKind::kHost &&
                        instr_reads(instr, DnodeSrc::kIn1);
  const bool in2_pops = route.in2.kind == RouteKind::kHost &&
                        instr_reads(instr, DnodeSrc::kIn2);
  const bool direct_pops = instr_reads(instr, DnodeSrc::kHost);
  const auto in1_pop = std::uint16_t{0};
  const auto in2_pop = static_cast<std::uint16_t>(in1_pops);
  const auto direct_pop = static_cast<std::uint16_t>(in1_pops + in2_pops);
  ps.pops = static_cast<std::uint8_t>(in1_pops + in2_pops + direct_pops);

  const auto fb_operand = [&](const FeedbackAddr& a) -> Operand {
    return {OperandBase::kFeedback,
            static_cast<std::uint16_t>(
                a.depth * geom.dnode_count() +
                upstream_of(geom, a.pipe) * geom.lanes + a.lane)};
  };
  const auto port_operand = [&](const PortRoute& p,
                                std::uint16_t pop) -> Operand {
    switch (p.kind) {
      case RouteKind::kPrev:
        return {OperandBase::kPreOuts,
                static_cast<std::uint16_t>(up_layer * geom.lanes + p.lane)};
      case RouteKind::kHost:
        return {OperandBase::kHost, pop};
      case RouteKind::kFeedback:
        return fb_operand(p.fb);
      case RouteKind::kBus:
        return {OperandBase::kConst, kConstBus};
      default:
        return {OperandBase::kConst, kConstZero};
    }
  };
  const auto operand = [&](DnodeSrc src) -> Operand {
    switch (src) {
      case DnodeSrc::kIn1:
        return port_operand(route.in1, in1_pop);
      case DnodeSrc::kIn2:
        return port_operand(route.in2, in2_pop);
      case DnodeSrc::kFifo1:
        return fb_operand(route.fifo1);
      case DnodeSrc::kFifo2:
        return fb_operand(route.fifo2);
      case DnodeSrc::kBus:
        return {OperandBase::kConst, kConstBus};
      case DnodeSrc::kHost:
        return {OperandBase::kHost, direct_pop};
      case DnodeSrc::kImm:
        consts.push_back(instr.imm);
        return {OperandBase::kConst,
                static_cast<std::uint16_t>(consts.size() - 1)};
      case DnodeSrc::kR0:
      case DnodeSrc::kR1:
      case DnodeSrc::kR2:
      case DnodeSrc::kR3:
        return {OperandBase::kRegs,
                static_cast<std::uint16_t>(static_cast<std::size_t>(src) -
                                           static_cast<std::size_t>(
                                               DnodeSrc::kR0))};
      default:
        return {OperandBase::kConst, kConstZero};
    }
  };
  ps.operand[0] = operand(instr.src_a);
  if (op_uses_b(instr.op)) ps.operand[1] = operand(instr.src_b);
  if (op_uses_c(instr.op)) ps.operand[2] = operand(instr.src_c);

  // Feedback-occupancy statistics: the reads the instruction consumes,
  // counted once per port as the interpreter does.
  const auto note_fb = [&](const FeedbackAddr& a) {
    ps.fb_read[ps.fb_reads++] = a;
  };
  if (route.in1.kind == RouteKind::kFeedback &&
      instr_reads(instr, DnodeSrc::kIn1)) {
    note_fb(route.in1.fb);
  }
  if (route.in2.kind == RouteKind::kFeedback &&
      instr_reads(instr, DnodeSrc::kIn2)) {
    note_fb(route.in2.fb);
  }
  if (instr_reads(instr, DnodeSrc::kFifo1)) note_fb(route.fifo1);
  if (instr_reads(instr, DnodeSrc::kFifo2)) note_fb(route.fifo2);
  return ps;
}

}  // namespace

void compile_cycle_plan(const RingGeometry& geom, const ConfigMemory& cfg,
                        const std::vector<Dnode>& dnodes, CyclePlan& plan) {
  const std::size_t n = geom.dnode_count();
  plan.valid = false;
  plan.period = 1;
  plan.dnodes.assign(n, PlannedDnode{});
  plan.consts.assign({0, 0});  // kConstZero, kConstBus
  plan.local_dnodes.clear();
  plan.global_dnodes.clear();
  plan.host_taps.clear();
  plan.sched_valid = false;

  for (std::size_t layer = 0; layer < geom.layers; ++layer) {
    const std::size_t up = upstream_of(geom, layer);
    for (std::size_t lane = 0; lane < geom.lanes; ++lane) {
      const std::size_t i = layer * geom.lanes + lane;
      PlannedDnode& pd = plan.dnodes[i];
      const SwitchRoute& route = cfg.switch_route(layer, lane);
      pd.is_local = cfg.dnode_mode(i) == DnodeMode::kLocal;
      if (pd.is_local) {
        plan.local_dnodes.push_back(static_cast<std::uint16_t>(i));
        const LocalControl& lc = dnodes[i].local();
        // The counter never exceeds LIMIT (writes clamp, advance
        // wraps), so slots above it are unreachable and stay NOP.
        for (std::size_t s = 0; s <= lc.limit(); ++s) {
          pd.local[s] = compile_slot(geom, lc.instr_at(s), route, up,
                                     plan.consts);
        }
        pd.local_len = static_cast<std::uint8_t>(lc.limit() + 1);
        if (plan.period != 0) {
          plan.period = lcm_of(plan.period, pd.local_len);
          if (plan.period > kMaxSuperstepPeriod) {
            plan.period = 0;  // schedule too long to unroll
          }
        }
      } else {
        plan.global_dnodes.push_back(static_cast<std::uint16_t>(i));
        pd.global =
            compile_slot(geom, cfg.dnode_instr(i), route, up, plan.consts);
      }
    }
  }

  // Host-out taps fire independently of the downstream instruction.
  for (std::size_t s = 0; s < geom.switch_count(); ++s) {
    for (std::size_t lane = 0; lane < geom.lanes; ++lane) {
      const SwitchRoute& route = cfg.switch_route(s, lane);
      if (!route.host_out_en) continue;
      check(route.host_out_lane < geom.lanes,
            "Ring: host-out lane out of range");
      HostTapPlan tap;
      tap.src = static_cast<std::uint32_t>(upstream_of(geom, s) * geom.lanes +
                                           route.host_out_lane);
      tap.sw = static_cast<std::uint32_t>(s);
      plan.host_taps.push_back(tap);
    }
  }
}

}  // namespace sring
