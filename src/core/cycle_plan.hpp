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

/// Everything one Dnode needs to execute one specific microinstruction:
/// the decoded instruction plus its operand routing with all validation
/// hoisted to compile time.
struct PlannedSlot {
  /// Pre-resolved source of one input port.  kHost always pops (a host
  /// route whose operand the instruction never reads compiles to
  /// kZero, matching the interpreter's "no pop, value 0" behaviour).
  enum class Port : std::uint8_t { kZero, kPrev, kHost, kFeedback, kBus };

  DnodeInstr instr{};            ///< decoded copy (owned by the plan)
  bool nop = true;
  bool is_mac = false;           ///< MAC/MSU: counts as two arith ops
  /// Operand select: the A/B/C sources as indices into the engine's
  /// per-exec value vector, with an operand the operation ignores
  /// pinned to kZero (what Dnode::execute feeds the ALU for it).
  DnodeSrc sel_a = DnodeSrc::kZero;
  DnodeSrc sel_b = DnodeSrc::kZero;
  DnodeSrc sel_c = DnodeSrc::kZero;
  Port in1 = Port::kZero;
  Port in2 = Port::kZero;
  std::uint16_t in1_prev = 0;    ///< flat upstream Dnode index (kPrev)
  std::uint16_t in2_prev = 0;
  FeedbackAddr in1_fb{};         ///< pre-validated (kFeedback)
  FeedbackAddr in2_fb{};
  bool read_fifo1 = false;       ///< instruction consumes fifo1/fifo2
  bool read_fifo2 = false;
  FeedbackAddr fifo1{};          ///< pre-validated
  FeedbackAddr fifo2{};
  bool direct_pop = false;       ///< instruction reads the HOST source
  std::uint8_t pops = 0;         ///< host words this slot consumes
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

/// One executing (non-NOP) slot of the unrolled phase schedule.
struct PlannedExec {
  std::uint16_t dnode = 0;
  const PlannedSlot* slot = nullptr;  ///< into the owning plan's dnodes
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

  std::size_t static_pops = 0;  ///< host pops from global-mode Dnodes
  /// LCM of local program lengths (the schedule repeat period); 0 when
  /// it would exceed kMaxSuperstepPeriod.
  std::size_t period = 1;
  std::vector<PlannedDnode> dnodes;          ///< [layer * lanes + lane]
  std::vector<std::uint16_t> local_dnodes;   ///< flat indices, ascending
  std::vector<std::uint16_t> global_dnodes;  ///< flat indices, ascending
  std::vector<HostTapPlan> host_taps;        ///< switch-asc, lane-asc

  // Unrolled phase schedule, built by the Ring (compile_cycle_plan only
  // marks it stale).  Phase p holds the slots every local Dnode fetches
  // p cycles after its counter stood at `sched_origin`, so it stays
  // current while the counters advance in lockstep with a phase cursor.
  // A global-only plan's schedule never depends on a counter and is
  // built once per compile.
  bool sched_valid = false;
  std::vector<std::uint8_t> sched_origin;  ///< per local_dnodes entry
  std::vector<PlannedExec> sched_exec;     ///< non-NOP slots, phase-major
  std::vector<std::uint32_t> sched_begin;  ///< [phases + 1] into sched_exec
  std::vector<std::uint32_t> sched_pops;   ///< [phases] host pops per phase
  std::vector<std::uint32_t> sched_out;    ///< sched_exec idx w/ host/bus en
  std::vector<std::uint32_t> sched_out_begin;  ///< [phases + 1]
};

/// Compile the live configuration + local-control programs into `plan`
/// (storage is reused across recompiles; the caller stamps the
/// invalidation key and `valid`).  Throws SimError on any route the
/// interpreter would reject at execution time — pre-validation must
/// not accept configurations the cycle-accurate path rejects.
void compile_cycle_plan(const RingGeometry& geom, const ConfigMemory& cfg,
                        const std::vector<Dnode>& dnodes, CyclePlan& plan);

}  // namespace sring
