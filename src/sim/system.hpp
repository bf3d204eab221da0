// Top-level cycle-accurate model: Ring + configuration layer + RISC
// configuration controller + host interface (paper fig. 2).
//
// Per-cycle ordering (one call to step()):
//   1. the host link moves words under its bandwidth limit;
//   2. the controller executes one instruction; a BUSW result is
//      visible to the Dnodes in the same cycle (the controller sits
//      upstream of the operating layer's bus);
//   3. the ring evaluates one cycle; a Dnode bus drive becomes visible
//      the next cycle;
//   4. statistics and the cycle counter advance; if an event sink is
//      attached, the cycle's events and post-edge state are published.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "core/config_memory.hpp"
#include "core/ring.hpp"
#include "ctrl/controller.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "sim/host_interface.hpp"
#include "sim/program.hpp"
#include "sim/stats.hpp"

namespace sring {

struct SystemConfig {
  RingGeometry geometry;
  LinkRate link = LinkRate::unlimited();
};

class System {
 public:
  explicit System(const SystemConfig& config);

  /// Load an application: fresh configuration memory with the
  /// program's pages, controller program loaded, ring state cleared,
  /// host FIFOs drained.
  void load(const LoadableProgram& program);

  /// Re-arm the machine for another run of the program most recently
  /// load()ed, skipping the configware rebuild (pages stay decoded in
  /// configuration memory — the software analogue of the paper's
  /// preloaded configuration layer).  `program` must be the same
  /// program passed to the last load(); it is re-taken here only for
  /// the boot-time local-control writes.  Afterwards the machine's
  /// architectural state, outputs and statistics are indistinguishable
  /// from a freshly constructed System that just load()ed `program` —
  /// the runtime's determinism test holds it to that — with ONE
  /// carve-out: the ring keeps its compiled cycle-plan cache warm
  /// (entries re-verify their content key before re-attaching, so a
  /// different same-page-count program misses cleanly), which shows up
  /// only in the ring.plan.* counters.
  void reset_for_rerun(const LoadableProgram& program);

  /// Advance one clock cycle.
  void step();

  /// Run until the controller halts (or `max_cycles` elapse; throws if
  /// exceeded), then `drain_cycles` extra cycles for in-flight data.
  void run_until_halt(std::uint64_t max_cycles,
                      std::uint64_t drain_cycles = 0);

  /// Run until the host has received `count` words in total (throws
  /// after `max_cycles`).
  void run_until_outputs(std::size_t count, std::uint64_t max_cycles);

  void run_cycles(std::uint64_t n);

  // --- accessors --------------------------------------------------------
  Ring& ring() noexcept { return ring_; }
  const Ring& ring() const noexcept { return ring_; }
  ConfigMemory& config() noexcept { return cfg_; }
  const ConfigMemory& config() const noexcept { return cfg_; }
  Controller& controller() noexcept { return ctrl_; }
  const Controller& controller() const noexcept { return ctrl_; }
  HostInterface& host() noexcept { return host_; }
  const HostInterface& host() const noexcept { return host_; }

  std::uint64_t cycle() const noexcept { return cycle_; }
  Word bus() const noexcept { return bus_; }
  SystemStats stats() const;

  /// Named snapshot of every instrument in the machine (per-Dnode
  /// issue/mix/mode counters, per-switch route and feedback activity,
  /// controller stall causes, host-link traffic, input-FIFO depth
  /// histogram).  Assembling the snapshot never perturbs the run.
  obs::Registry metrics() const;

  /// Attach / detach a structured event sink.  The sink is borrowed —
  /// never owned — by raw pointer: it must outlive every step() made
  /// while attached (detach with nullptr first otherwise).  Attaching
  /// calls sink->begin() with the track table; the System never calls
  /// sink->end() — finalizing the output is the owner's job.  With no
  /// sink attached the per-cycle cost is a single null check.
  void set_trace(obs::EventSink* sink);

 private:
  void reset_common(const LoadableProgram& program, bool keep_plans);
  void emit_cycle_events(const Controller::StepResult& ctrl_res,
                         const Ring::CycleResult& ring_res);

  /// Try to run a fused superstep covering up to `cycle_budget` cycles
  /// (see Ring::run_planned).  Eligible only while per-cycle stepping
  /// could not observe anything a fused run skips: no trace sink,
  /// unlimited host link, and the controller halted or inside a
  /// multi-cycle WAIT (the fused run is then capped at the wake-up).
  /// `host_out_stop` carries run_until_outputs' target into the ring
  /// (SIZE_MAX otherwise).  Returns the cycles executed, 0 when
  /// ineligible or nothing ran — the caller must then fall back to
  /// step(), the same engine at a budget of one cycle, so progress is
  /// guaranteed.
  std::uint64_t try_superstep(std::uint64_t cycle_budget,
                              std::size_t host_out_stop);

  RingGeometry geom_;
  ConfigMemory cfg_;
  Ring ring_;
  Controller ctrl_;
  HostInterface host_;
  Word bus_ = 0;
  std::uint64_t cycle_ = 0;
  SystemStats stats_;

  // Input-FIFO depth sampled once per cycle; bucket i counts cycles
  // with depth <= kHostDepthBounds[i], the last bucket the overflow.
  // The depth->bucket map is a compile-time LUT so the per-cycle
  // sample is one clamped load instead of a linear bound scan.
  static constexpr std::array<std::uint64_t, 10> kHostDepthBounds{
      0, 1, 2, 4, 8, 16, 32, 64, 128, 256};
  static constexpr std::size_t kDepthLutMax = kHostDepthBounds.back() + 1;
  static constexpr auto kDepthLut = [] {
    std::array<std::uint8_t, kDepthLutMax + 1> lut{};
    for (std::size_t d = 0; d < lut.size(); ++d) {
      std::size_t b = 0;
      while (b < kHostDepthBounds.size() && d > kHostDepthBounds[b]) ++b;
      lut[d] = static_cast<std::uint8_t>(b);
    }
    return lut;
  }();
  std::array<std::uint64_t, kHostDepthBounds.size() + 1>
      host_depth_counts_{};

  obs::EventSink* sink_ = nullptr;
  std::vector<obs::Track> tracks_;          // built on sink attachment
  std::vector<std::uint64_t> route_marks_;  // per-switch change watermark
};

}  // namespace sring
