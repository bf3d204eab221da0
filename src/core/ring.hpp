// The Ring operating layer (paper §4.2).
//
// `layers` Dnode layers of `lanes` Dnodes each, closed into a ring.
// Switch s routes data from layer s-1 (mod layers) into layer s; its
// feedback pipeline latches layer s-1's outputs every clock edge.  As
// every switch latches at every edge, the Ring keeps the pipelines as
// one feedback bank whose stage is the whole pre-edge output vector:
// pipeline s is layer s-1's slice of it.
//
// Per-cycle evaluation order (one call to step()):
//   1. every Dnode's microinstruction is fetched from the configuration
//      memory (global mode) or its local control unit (local mode) — a
//      Dnode entering local mode this cycle fetches slot 0;
//   2. the host-FIFO pops required by this cycle are counted; if the
//      input FIFO cannot satisfy them the whole ring stalls (systolic
//      back-pressure) and NO state advances — not the local counters,
//      not the mode-transition tracking, not any statistic.  A stalled
//      cycle is a pure retry: re-issuing it later behaves exactly as if
//      the stall never happened;
//   3. switches resolve each Dnode's in1/in2/fifo1/fifo2 operands from
//      the upstream output registers (previous edge), the feedback
//      pipelines, the bus, or freshly popped host words (pop order:
//      layer-ascending, lane-ascending, port order in1, in2, direct
//      host operand);
//   4. all Dnodes execute combinationally and stage their writes;
//   5. commit: mode transitions take architectural effect (a Dnode
//      entering local mode resets its counter), register files and
//      output registers latch, local counters advance, the feedback
//      bank latches the pre-edge output vector (every pipeline its
//      upstream layer's slice),
//      switch host-out taps and Dnode hostEn results append to the
//      host output stream.
//
// Planned engine: with a compiled CyclePlan attached, cycles execute
// from the plan's unrolled phase schedule instead of re-interpreting
// the configuration.  step() is a one-cycle dispatch of that engine and
// run_planned() (the System's superstep) a multi-cycle one; the
// interpreter stays the reference for content that has no plan.
//
// Cycle-plan cache: compiled CyclePlans are cached in a small bounded
// pool keyed by configuration *content* — a hash of the live
// configuration bytes plus the local-control programs — not by write
// generation.  A configuration write detaches the current plan, but if
// the resulting content was seen before (hardware multiplexing:
// configware pages pulsed in rotation, or a word rewritten with the
// byte-identical value), the cached plan re-attaches in O(1) instead
// of recompiling.  Unknown content is interpreted and compiled on its
// second sighting.  On top of the cache, the Ring watches the sequence
// of plan attachments: a periodic rotation (period capped by
// kMaxSuperstepPeriod) is fused so each detach predicts its successor and
// verifies it by provenance in O(1) — no hashing, no lookup.  Outputs
// and architectural statistics are bit-exact with the interpreter; only
// the ring.plan.* counters differ.  Set the SRING_NO_PLAN_CACHE
// environment variable (any non-empty value, read at Ring
// construction) or call set_plan_cache_enabled(false) to force the
// interpreter.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/host_fifo.hpp"
#include "core/config_memory.hpp"
#include "core/cycle_plan.hpp"
#include "core/dnode.hpp"
#include "core/feedback_pipeline.hpp"
#include "core/switch.hpp"

namespace sring {

class Ring {
 public:
  explicit Ring(const RingGeometry& g);

  const RingGeometry& geometry() const noexcept { return geom_; }

  /// Outcome of one step() or one planned dispatch: tallies summed over
  /// every executed cycle.
  struct CycleResult {
    bool stalled = false;           ///< step(): host input underflow
    std::uint64_t cycles = 0;       ///< non-stalled cycles executed
    std::uint64_t ops = 0;          ///< Dnode instructions executed
    std::uint64_t arith_ops = 0;    ///< arithmetic operations (MAC/MSU = 2)
    std::uint64_t host_words_in = 0;   ///< words popped from the input FIFO
    std::uint64_t host_words_out = 0;  ///< words pushed to the output stream
    /// host_out.size() observed at the top of the last executed cycle —
    /// what a per-cycle host mirror (one tick behind) would have
    /// published after that cycle.
    std::size_t out_size_at_last_top = 0;
    std::optional<Word> bus_drive;  ///< drive from the final cycle, if any
  };

  /// Advance one clock cycle.  `bus` is the shared-bus value visible to
  /// the Dnodes this cycle; host traffic uses the given FIFOs.  With a
  /// plan attached this is a one-cycle dispatch of the planned engine.
  CycleResult step(const ConfigMemory& cfg, Word bus,
                   HostFifo& host_in, std::vector<Word>& host_out);

  /// Host-FIFO depth histogram probe handed into run_planned(): the
  /// System's per-cycle depth sample, so fused cycles record exactly
  /// the histogram per-cycle execution would.  `lut` maps a clamped
  /// depth (index 0..lut_max) to a bucket counter in `counts`.
  struct HostDepthProbe {
    std::uint64_t* counts = nullptr;
    const std::uint8_t* lut = nullptr;
    std::size_t lut_max = 0;
  };

  /// Superstep: a multi-cycle dispatch of the planned engine, up to
  /// `max_cycles` consecutive cycles straight from the attached plan.
  /// Returns cycles == 0 (and touches nothing) unless the plan is
  /// attached, current and unrolled (period within
  /// kMaxSuperstepPeriod), and the first cycle does not stall.  Breaks
  /// back to the caller exactly at an impending stall (the stall cycle
  /// itself is NOT executed — step() replays it), after any cycle that
  /// drives the bus (the new value must be visible next cycle), and
  /// once host_out reached `host_out_stop` with the per-cycle
  /// host-visibility lag (size at the top of the previous cycle; pass
  /// SIZE_MAX for no stop — the caller must have admitted the first
  /// cycle against its own stop condition).  Architectural state,
  /// outputs and statistics are bit-identical with the same cycles run
  /// through step().
  CycleResult run_planned(const ConfigMemory& cfg, Word bus,
                          HostFifo& host_in, std::vector<Word>& host_out,
                          std::uint64_t max_cycles,
                          std::size_t host_out_stop,
                          const HostDepthProbe& probe);

  // --- state access ---------------------------------------------------
  Dnode& dnode(std::size_t layer, std::size_t lane);
  const Dnode& dnode(std::size_t layer, std::size_t lane) const;
  Dnode& dnode_flat(std::size_t index);
  const Dnode& dnode_flat(std::size_t index) const;

  /// The feedback bank: one stage per depth, each the whole pre-edge
  /// output vector; switch s's pipeline is layer s-1's slice of it, so
  /// every pipeline has the bank's pushes() and occupancy().
  const FeedbackPipeline& feedback_bank() const noexcept { return bank_; }

  /// Write a local-control register of a Dnode (controller WRLOC path).
  /// Invalidates the compiled cycle plan.
  void write_local(std::size_t dnode_index, std::size_t slot,
                   std::uint64_t value);

  /// Cumulative executed-instruction count per Dnode (utilization).
  const std::vector<std::uint64_t>& ops_per_dnode() const noexcept {
    return ops_per_dnode_;
  }

  // --- instrumentation (observation only, reset() clears) -------------
  /// MAC/MSU instructions per Dnode (the rest of ops_per_dnode is the
  /// plain-ALU mix).
  const std::vector<std::uint64_t>& mac_ops_per_dnode() const noexcept {
    return mac_ops_per_dnode_;
  }
  /// Non-stalled cycles each Dnode spent in local (stand-alone) mode.
  const std::vector<std::uint64_t>& local_cycles_per_dnode()
      const noexcept {
    settle_mode_cycles();
    return local_cycles_per_dnode_;
  }
  /// Non-stalled cycles each Dnode spent under global configuration.
  const std::vector<std::uint64_t>& global_cycles_per_dnode()
      const noexcept {
    settle_mode_cycles();
    return global_cycles_per_dnode_;
  }
  /// Host-out words forwarded by each switch's tap.
  const std::vector<std::uint64_t>& host_out_words_per_switch()
      const noexcept {
    return host_out_words_per_switch_;
  }
  /// Feedback reads per pipeline.
  const std::vector<std::uint64_t>& fb_reads_per_pipe() const noexcept {
    return fb_reads_per_pipe_;
  }
  /// Feedback reads per pipeline by depth, stride geometry().fb_depth:
  /// entry [pipe * fb_depth + depth] counts reads of that pipe at that
  /// depth.
  const std::vector<std::uint64_t>& fb_read_depth_counts() const noexcept {
    return fb_read_depth_counts_;
  }
  std::uint64_t bus_drives() const noexcept { return bus_drives_; }
  /// Cycles in which more than one Dnode drove the shared bus (the
  /// highest Dnode index won; the others were lost drives).
  std::uint64_t bus_conflicts() const noexcept { return bus_conflicts_; }

  // --- cycle-plan cache -----------------------------------------------
  /// Bound on cached plans.  Eviction is LRU by attachment; the bound
  /// covers page-rotation kernels (one entry per pulsed page) with
  /// room to spare, while capping memory at a few tens of KB.
  static constexpr std::size_t kPlanCacheCapacity = 16;

  /// Cycle plans compiled since construction/reset — one per *distinct*
  /// configuration content, not one per rewrite.
  std::uint64_t plan_compiles() const noexcept { return plan_compiles_; }
  /// Cycles executed from a compiled plan (attached or re-attached).
  std::uint64_t plan_hits() const noexcept { return plan_hits_; }
  /// Times the attached plan was detached because the configuration
  /// changed.  plan_invalidations - plan_content_hits is the true miss
  /// count (content never seen compiled before).
  std::uint64_t plan_invalidations() const noexcept {
    return plan_invalidations_;
  }
  /// Detachments recovered by re-attaching a cached plan whose content
  /// key matched the rewritten configuration — the cycles that were
  /// recompiles (or interpreter fallbacks) before the content-keyed
  /// cache.  Subset of plan_hits.
  std::uint64_t plan_content_hits() const noexcept {
    return plan_content_hits_;
  }
  /// Cache entries discarded to stay within kPlanCacheCapacity.
  std::uint64_t plan_evictions() const noexcept { return plan_evictions_; }
  /// Periodic plan-attachment sequences recognized and fused.
  std::uint64_t plan_seq_fusions() const noexcept {
    return plan_seq_fusions_;
  }
  /// Re-attachments served by sequence prediction (O(1) provenance
  /// check, no hash/lookup).  Subset of plan_content_hits.
  std::uint64_t plan_seq_hits() const noexcept { return plan_seq_hits_; }
  bool plan_cache_enabled() const noexcept { return plan_enabled_; }
  /// Superstep dispatches (run_planned() calls that executed >= 1
  /// cycle) and total cycles they covered; one-cycle step() dispatches
  /// never count.  Observability only: these are the ONLY counters
  /// allowed to differ between superstep and per-cycle execution.
  std::uint64_t superstep_dispatches() const noexcept {
    return superstep_dispatches_;
  }
  std::uint64_t superstep_cycles() const noexcept {
    return superstep_cycles_;
  }
  /// Why a superstep handed back to its caller, tested in this order
  /// after each cycle: the cycle drove the bus, the cycle budget is
  /// spent, the host-out stop is reached, the next cycle would stall on
  /// the host input.  Each dispatch counts its first reason, so the four
  /// counts sum to superstep_dispatches().
  enum class SuperstepExit : std::uint8_t {
    kBusDrive,
    kBudget,
    kOutputStop,
    kHostStall,
    kCount,
  };
  std::uint64_t superstep_exits(SuperstepExit why) const noexcept {
    return superstep_exits_[static_cast<std::size_t>(why)];
  }
  /// Enable/disable the cycle-plan cache at runtime (A/B comparisons).
  /// Disabling detaches the current plan without counting an
  /// invalidation — it is a tooling action, not a configuration write.
  void set_plan_cache_enabled(bool enabled) noexcept;
  /// Bumped by every write_local(); part of the plan invalidation key.
  std::uint64_t local_generation() const noexcept {
    return local_generation_;
  }

  // --- last-cycle views for event tracing ------------------------------
  // Valid immediately after a non-stalled step(); the System's event
  // emitter is the only intended consumer.  The planned engine
  // maintains the full per-Dnode views only while trace mode is on (the
  // System toggles it with the sink) — with tracing off it touches only
  // the Dnodes that execute.
  std::span<const Dnode::Effects> last_effects() const noexcept {
    return effects_;
  }
  const std::vector<const DnodeInstr*>& last_fetched() const noexcept {
    return fetched_;
  }
  /// Keep the per-Dnode trace views (last_effects/last_fetched) exact
  /// in the planned engine.  The System sets this together with its
  /// event sink.
  void set_trace_views(bool on) noexcept { trace_views_ = on; }

  /// Clear all architectural state (configuration memory is separate).
  /// Also drops the whole plan cache and zeroes the plan counters.
  void reset();

  /// Clear architectural state but KEEP the compiled plan cache — the
  /// pooled-rerun fast path.  Cached plans re-attach on the rerun only
  /// after their content key is re-verified against the live
  /// configuration (provenance hints are dropped, so the first
  /// re-attachment per entry does a full content compare), which makes
  /// a rerun of a different program a clean miss.  Counters are zeroed
  /// and the sequence fusion state cleared; outputs and architectural
  /// statistics of a rerun are bit-identical to a fresh System, only
  /// the ring.plan.* counters reflect the warm cache.
  void reset_for_rerun();

 private:
  /// One cached compiled plan, keyed by configuration content.
  struct PlanCacheEntry {
    std::uint64_t key_hash = 0;  ///< content_hash(cfg) mixed w/ local hash
    /// Full content snapshot backing the hash: live instruction words,
    /// widened mode bytes, route words, then per-Dnode local limit +
    /// raw slots.  Collision guard — a hash match attaches only after
    /// this compares equal (or the provenance hint proves identity).
    std::vector<std::uint64_t> content;
    // Provenance hint: the content is byte-identical to the live image
    // whenever the same ConfigMemory (uid) has the same immutable page
    // applied and no local-control write happened since — an O(1)
    // identity proof that skips the content compare.  src_page == -1
    // (word-written image) never matches.
    std::uint64_t src_uid = 0;
    std::ptrdiff_t src_page = -1;
    std::uint64_t src_local_gen = 0;
    std::uint32_t sightings = 0;  ///< compile on the second sighting
    std::uint64_t last_use = 0;   ///< LRU clock for eviction
    bool compiled = false;
    CyclePlan plan;
  };

  std::size_t flat_index(std::size_t layer, std::size_t lane) const;
  std::size_t upstream_layer(std::size_t layer) const noexcept;

  Word read_feedback(const FeedbackAddr& addr) const;

  /// Record one feedback read actually consumed by an instruction.
  void note_fb_read(const FeedbackAddr& addr);

  /// Add the planned cycles pending under last_mode_ to the per-Dnode
  /// local/global cycle counts.  Runs before last_mode_ changes and on
  /// read, so the engine's dispatches only bump one count.
  void settle_mode_cycles() const noexcept;
  /// Settle the per-phase statistics of `cycles` planned cycles that
  /// started at schedule phase `first`: whole periods times the phase
  /// totals plus the partial run, touching min(cycles, phases) phases.
  /// Adds the executed ops and arith ops to `ops` and `arith`.
  void settle_phase_stats(const CyclePlan& plan, std::size_t first,
                          std::uint64_t cycles, std::uint64_t& ops,
                          std::uint64_t& arith);

  /// Reference path: re-interpret ConfigMemory + local programs.
  CycleResult step_interpreted(const ConfigMemory& cfg, Word bus,
                               HostFifo& host_in,
                               std::vector<Word>& host_out);
  /// The planned engine: execute up to `max_cycles` cycles of the
  /// attached `plan` (see run_planned() for the break rules).  step()
  /// calls it with a budget of one cycle; run_planned() with more.
  CycleResult exec_plan(CyclePlan& plan, Word bus, HostFifo& host_in,
                        std::vector<Word>& host_out,
                        std::uint64_t max_cycles, std::size_t host_out_stop,
                        const HostDepthProbe& probe);
  /// Make the plan's phase schedule match the live local counters
  /// (rebuilding it if they moved since it was built) and restart the
  /// phase cursor.
  void sync_schedule(CyclePlan& plan);
  /// Clock-edge tail of the interpreter: capture pre-edge outputs,
  /// commit every Dnode, latch the feedback bank.
  void commit_edge();
  /// Dnode hostEn pushes and bus drives (after commit_edge()).
  void drain_effects(CycleResult& result, std::vector<Word>& host_out);

  // --- plan cache internals -------------------------------------------
  /// Hash of the local-control content (limits + raw slots), cached
  /// per local_generation_.
  std::uint64_t local_content_hash();
  /// Combined content key of the live configuration.
  std::uint64_t live_key_hash(const ConfigMemory& cfg);
  /// Append the full live content (see PlanCacheEntry::content).
  void build_content(const ConfigMemory& cfg,
                     std::vector<std::uint64_t>& out) const;
  bool content_matches(const ConfigMemory& cfg,
                       const std::vector<std::uint64_t>& content) const;
  bool hint_matches(const PlanCacheEntry& e,
                    const ConfigMemory& cfg) const noexcept {
    return e.src_page >= 0 && e.src_uid == cfg.uid() &&
           e.src_page == cfg.live_page() &&
           e.src_local_gen == local_generation_;
  }
  /// Find the entry for the live content (hash + hint-or-content
  /// verify), or nullptr.
  PlanCacheEntry* find_entry(const ConfigMemory& cfg, std::uint64_t key);
  /// Shared architectural-state reset (Dnodes, pipes, statistics).
  void reset_arch_state();
  /// Insert a fresh entry for the live content, evicting the LRU entry
  /// at capacity.  Returns the (possibly reused) entry.
  PlanCacheEntry* insert_entry(const ConfigMemory& cfg, std::uint64_t key);
  /// Make `e` the attached plan: restamp the validity key, refresh the
  /// provenance hint, reset mode sync, record the attachment in the
  /// sequence history.
  void attach_plan(PlanCacheEntry* e, const ConfigMemory& cfg);
  /// Record an attachment in the history and try to detect a periodic
  /// sequence (no-op while fused).
  void note_attach(PlanCacheEntry* e);
  void unfuse() noexcept;

  RingGeometry geom_;
  std::vector<Dnode> dnodes_;              // [layer * lanes + lane]
  FeedbackPipeline bank_;                  // dnode_count() words wide
  std::vector<DnodeMode> last_mode_;       // mode at last NON-stalled cycle
  std::vector<std::uint64_t> ops_per_dnode_;
  std::vector<std::uint64_t> mac_ops_per_dnode_;
  // Settled lazily, also by the const accessors (see
  // settle_mode_cycles): planned cycles since the last settle all ran
  // under last_mode_.  Like the rest of the Ring, one thread at a time.
  mutable std::vector<std::uint64_t> local_cycles_per_dnode_;
  mutable std::vector<std::uint64_t> global_cycles_per_dnode_;
  mutable std::uint64_t pending_mode_cycles_ = 0;
  std::vector<std::uint64_t> host_out_words_per_switch_;
  std::vector<std::uint64_t> fb_reads_per_pipe_;
  std::vector<std::uint64_t> fb_read_depth_counts_;  // [pipe*fb_depth+depth]
  std::uint64_t bus_drives_ = 0;
  std::uint64_t bus_conflicts_ = 0;

  // Plan cache (see header comment).  current_plan_ is the attached
  // entry; its plan is current while the stamped (cfg uid, cfg
  // generation, local_generation_) match the live values.
  std::vector<std::unique_ptr<PlanCacheEntry>> plan_cache_;
  PlanCacheEntry* current_plan_ = nullptr;
  std::uint64_t plan_use_clock_ = 0;
  bool plan_enabled_ = true;
  // last_mode_ holds the attached plan's modes: synced_locals_ (the
  // local-Dnode set the planned engine last committed) equals the plan's
  // local set.  An attachment with the same set keeps the flag, so page
  // rotations over one mode vector skip the O(n) mode sync; interpreted
  // cycles and resets clear it.
  bool mode_synced_ = false;
  std::vector<std::uint16_t> synced_locals_;
  bool pre_outs_valid_ = false;  // pre_outs_[i] == dnodes_[i].out()
  // The attached plan's schedule was checked against the local counters
  // and phase_ tracks them.  Cleared with every attachment and by
  // mutable Dnode access.
  bool sched_synced_ = false;
  std::size_t phase_ = 0;        // schedule phase of the next cycle
  bool trace_views_ = false;     // maintain full effects_/fetched_
  std::uint64_t local_generation_ = 0;
  std::uint64_t local_hash_ = 0;
  std::uint64_t local_hash_gen_ = ~std::uint64_t{0};
  // Sequence fusion: history of recent attachments while hunting for a
  // period; the fused sequence and its cursor afterwards.
  std::vector<PlanCacheEntry*> plan_history_;
  std::vector<PlanCacheEntry*> seq_;
  std::size_t seq_pos_ = 0;
  bool seq_fused_ = false;
  std::uint64_t plan_compiles_ = 0;
  std::uint64_t plan_hits_ = 0;
  std::uint64_t plan_invalidations_ = 0;
  std::uint64_t plan_content_hits_ = 0;
  std::uint64_t plan_evictions_ = 0;
  std::uint64_t plan_seq_fusions_ = 0;
  std::uint64_t plan_seq_hits_ = 0;

  // Per-cycle scratch (members to avoid per-step allocations).
  struct PortNeed {
    bool in1_host = false;
    bool in2_host = false;
    bool direct_host = false;
  };
  std::vector<const DnodeInstr*> fetched_;
  std::vector<bool> is_local_;
  std::vector<PortNeed> needs_;
  std::vector<Dnode::Effects> effects_;     // planned: trace views only
  std::vector<Word> pre_outs_;             // [layer * lanes + lane]
  std::vector<Word> results_;  // planned: one phase's results, exec order
  std::uint64_t superstep_dispatches_ = 0;
  std::uint64_t superstep_cycles_ = 0;
  std::array<std::uint64_t,
             static_cast<std::size_t>(SuperstepExit::kCount)>
      superstep_exits_{};
};

}  // namespace sring
