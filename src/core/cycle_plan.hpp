// Decoded cycle plan — the Ring's compiled hot path.
//
// The paper's hardware multiplexing lets the controller rewrite any
// configuration word every cycle, but between rewrites the
// configuration layer is stable.  Re-interpreting ConfigMemory every
// cycle (fetch mode word, fetch microinstruction, decode route kinds,
// re-derive host-pop needs, re-validate feedback addresses) made the
// interpreter the throughput ceiling.  A CyclePlan flattens the current
// configuration page + per-Dnode mode vector into pre-resolved operand
// sources, pre-validated route indices, a host-pop schedule and the
// host-out tap list, so steady-state cycles execute straight from the
// plan.
//
// Attachment contract: a plan is *attached* (executing without any
// per-cycle checks beyond the stamp compare) exactly while
//   (cfg.uid(), cfg.generation(), ring local-control generation)
// match the values stamped at the last attach.  Every ConfigMemory
// write path (WRCFG/WRMODE/WRSW, page swaps, reset_live) bumps the
// generation; Ring::write_local (the controller's WRLOC path) bumps
// the local generation.  A stamp mismatch only *detaches* — compiled
// plans live in the Ring's bounded content-keyed cache and re-attach
// whenever the rewritten configuration's content matches a cached key
// (see Ring), so hardware multiplexing over a repertoire of
// configurations recompiles each distinct content once, not once per
// rewrite.  The interpreter remains the reference for content never
// seen twice.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/config_memory.hpp"
#include "core/dnode.hpp"
#include "core/switch.hpp"
#include "isa/dnode_instr.hpp"

namespace sring {

/// Where a pre-addressed operand lives.  The planned engine points each
/// base at its storage once per cycle (kRegs once per executed slot), so
/// reading an operand is one indexed load.
enum class OperandBase : std::uint8_t {
  kConst,     ///< the plan's constant pool (CyclePlan::consts)
  kPreOuts,   ///< pre-edge output vector, by flat Dnode index
  kFeedback,  ///< feedback bank window: depth * dnodes + flat lane
  kHost,      ///< the cycle's host-pop window, by pop ordinal
  kRegs,      ///< the executing Dnode's register file
  kCount,
};

/// One pre-addressed operand: the value is base[off].
struct Operand {
  OperandBase base = OperandBase::kConst;
  std::uint16_t off = 0;
};

/// Constant-pool layout: word 0 is zero, word 1 the dispatch's bus
/// value (rewritten by every dispatch), immediates follow.
inline constexpr std::uint16_t kConstZero = 0;
inline constexpr std::uint16_t kConstBus = 1;

/// Everything one Dnode needs to execute one specific microinstruction:
/// the decoded instruction plus its operands and statistics with all
/// route decoding and validation hoisted to compile time.
struct PlannedSlot {
  DnodeInstr instr{};            ///< decoded copy (owned by the plan)
  bool nop = true;
  bool is_mac = false;           ///< MAC/MSU: counts as two arith ops
  /// A, B, C.  An operand the operation ignores reads constant zero
  /// (what Dnode::execute feeds the ALU for it).  kHost offsets are
  /// ordinals among this slot's own pops (in1, in2, then direct);
  /// the schedule rebases them to the phase.
  std::array<Operand, 3> operand{};
  std::uint8_t pops = 0;         ///< host words this slot consumes
  /// Feedback reads the instruction consumes (ports it reads through a
  /// feedback route, then fifo1/fifo2): the fb_read statistics.
  std::uint8_t fb_reads = 0;
  std::array<FeedbackAddr, 4> fb_read{};
};

/// Per-Dnode plan: one slot in global mode, the whole local
/// microprogram (slots 0..limit) in stand-alone mode.
struct PlannedDnode {
  bool is_local = false;
  /// Local program length (limit + 1); 1 when !is_local.
  std::uint8_t local_len = 1;
  PlannedSlot global;                                  ///< !is_local
  std::array<PlannedSlot, kLocalProgramSlots> local{}; ///< is_local
};

/// One switch host-out tap: which pre-edge output word it forwards.
struct HostTapPlan {
  std::uint32_t src = 0;  ///< flat index into the pre-edge output vector
  std::uint32_t sw = 0;   ///< owning switch (per-switch statistics)
};

/// One executing (non-NOP) slot of the unrolled phase schedule, lowered
/// to an operand record: operands addressed relative to the phase
/// (kHost offsets are pop ordinals within the cycle, in the documented
/// order) plus what the clock edge and the statistics need.
struct PlannedExec {
  std::array<Operand, 3> operand{};
  DnodeOp op = DnodeOp::kNop;
  DnodeDst dst = DnodeDst::kNone;
  bool out_en = false;
  bool bus_en = false;
  bool host_en = false;
  bool is_mac = false;
  std::uint16_t dnode = 0;
};

/// One feedback read of a phase, as the two statistics it bumps.
struct PlannedFbRead {
  std::uint16_t pipe = 0;  ///< fb_reads_per_pipe index
  std::uint16_t cell = 0;  ///< fb_read_depth_counts index
};

/// A plan's schedule repeats with the LCM of its local program lengths.
/// Periods beyond this cap (mixed 5/7/8-step programs can reach 840)
/// are not worth unrolling: such a plan keeps a single phase, rebuilt
/// from the live local counters before every cycle, and runs one cycle
/// per dispatch.  The cap governs only unrolling.
inline constexpr std::size_t kMaxSuperstepPeriod = 64;

struct CyclePlan {
  bool valid = false;
  // Invalidation key captured at compile time (see header comment).
  std::uint64_t cfg_uid = 0;
  std::uint64_t cfg_generation = 0;
  std::uint64_t local_generation = 0;

  /// LCM of local program lengths (the schedule repeat period); 0 when
  /// it would exceed kMaxSuperstepPeriod.
  std::size_t period = 1;
  std::vector<PlannedDnode> dnodes;          ///< [layer * lanes + lane]
  std::vector<Word> consts;                  ///< kConst pool (see above)
  std::vector<std::uint16_t> local_dnodes;   ///< flat indices, ascending
  std::vector<std::uint16_t> global_dnodes;  ///< flat indices, ascending
  std::vector<HostTapPlan> host_taps;        ///< switch-asc, lane-asc

  // Unrolled phase schedule, built by the Ring (compile_cycle_plan only
  // marks it stale).  Phase p holds the slots every local Dnode fetches
  // p cycles after its counter stood at `sched_origin`, so it stays
  // current while the counters advance in lockstep with a phase cursor.
  // A global-only plan's schedule never depends on a counter and is
  // built once per compile.  The per-phase statistics (exec count,
  // arith ops, feedback reads) are the same for every cycle of a phase,
  // so the engine settles them once per dispatch.
  bool sched_valid = false;
  std::vector<std::uint8_t> sched_origin;  ///< per local_dnodes entry
  std::vector<PlannedExec> sched_exec;     ///< non-NOP slots, phase-major
  std::vector<std::uint32_t> sched_begin;  ///< [phases + 1] into sched_exec
  std::vector<std::uint32_t> sched_pops;   ///< [phases] host pops per phase
  std::vector<std::uint32_t> sched_arith;  ///< [phases] arith ops per phase
  std::vector<std::uint32_t> sched_out;    ///< sched_exec idx w/ host/bus en
  std::vector<std::uint32_t> sched_out_begin;  ///< [phases + 1]
  std::vector<PlannedFbRead> sched_fb;     ///< feedback reads, phase-major
  std::vector<std::uint32_t> sched_fb_begin;   ///< [phases + 1]
};

/// Compile the live configuration + local-control programs into `plan`
/// (storage is reused across recompiles; the caller stamps the
/// invalidation key and `valid`).  Throws SimError on any route the
/// interpreter would reject at execution time — pre-validation must
/// not accept configurations the cycle-accurate path rejects.
void compile_cycle_plan(const RingGeometry& geom, const ConfigMemory& cfg,
                        const std::vector<Dnode>& dnodes, CyclePlan& plan);

}  // namespace sring
