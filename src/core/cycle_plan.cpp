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
/// instruction consumes.
PlannedSlot compile_slot(const RingGeometry& geom, const DnodeInstr& instr,
                         const SwitchRoute& route, std::size_t up_layer) {
  PlannedSlot ps;
  ps.instr = instr;
  ps.nop = instr.op == DnodeOp::kNop;
  if (ps.nop) return ps;  // the interpreter skips routing for NOP
  ps.is_mac = instr.op == DnodeOp::kMac || instr.op == DnodeOp::kMsu;
  ps.sel_a = instr.src_a;
  ps.sel_b = op_uses_b(instr.op) ? instr.src_b : DnodeSrc::kZero;
  ps.sel_c = op_uses_c(instr.op) ? instr.src_c : DnodeSrc::kZero;

  const auto compile_port = [&](const PortRoute& p, DnodeSrc src,
                                PlannedSlot::Port& kind, std::uint16_t& prev,
                                FeedbackAddr& fb) {
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
    if (!instr_reads(instr, src)) return;  // operand unused: stays kZero
    switch (p.kind) {
      case RouteKind::kZero:
        break;
      case RouteKind::kPrev:
        kind = PlannedSlot::Port::kPrev;
        prev = static_cast<std::uint16_t>(up_layer * geom.lanes + p.lane);
        break;
      case RouteKind::kHost:
        kind = PlannedSlot::Port::kHost;
        ++ps.pops;
        break;
      case RouteKind::kFeedback:
        kind = PlannedSlot::Port::kFeedback;
        fb = p.fb;
        break;
      case RouteKind::kBus:
        kind = PlannedSlot::Port::kBus;
        break;
      case RouteKind::kKindCount:
        break;
    }
  };
  compile_port(route.in1, DnodeSrc::kIn1, ps.in1, ps.in1_prev, ps.in1_fb);
  compile_port(route.in2, DnodeSrc::kIn2, ps.in2, ps.in2_prev, ps.in2_fb);

  route.fifo1.check_in_range(geom.switch_count(), geom.lanes, geom.fb_depth);
  route.fifo2.check_in_range(geom.switch_count(), geom.lanes, geom.fb_depth);
  ps.read_fifo1 = instr_reads(instr, DnodeSrc::kFifo1);
  ps.read_fifo2 = instr_reads(instr, DnodeSrc::kFifo2);
  ps.fifo1 = route.fifo1;
  ps.fifo2 = route.fifo2;

  if (instr_reads(instr, DnodeSrc::kHost)) {
    ps.direct_pop = true;
    ++ps.pops;
  }
  return ps;
}

}  // namespace

void compile_cycle_plan(const RingGeometry& geom, const ConfigMemory& cfg,
                        const std::vector<Dnode>& dnodes, CyclePlan& plan) {
  const std::size_t n = geom.dnode_count();
  plan.valid = false;
  plan.static_pops = 0;
  plan.period = 1;
  plan.dnodes.assign(n, PlannedDnode{});
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
          pd.local[s] = compile_slot(geom, lc.instr_at(s), route, up);
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
        pd.global = compile_slot(geom, cfg.dnode_instr(i), route, up);
        plan.static_pops += pd.global.pops;
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
