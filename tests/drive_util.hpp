// Two ways to drive a System for the planned engine's equivalence
// tests: through System's own run loops (multi-cycle superstep
// dispatches wherever they are eligible), or one System::step() per
// cycle — the same engine at a budget of one cycle, so no superstep
// ever dispatches.  The per-cycle loops mirror the System's exactly,
// budget checks included.
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "rt/job.hpp"
#include "sim/system.hpp"

namespace sring {

struct Drive {
  bool fused = true;

  void cycles(System& sys, std::uint64_t n) const {
    if (fused) return sys.run_cycles(n);
    for (std::uint64_t i = 0; i < n; ++i) sys.step();
  }

  void until_outputs(System& sys, std::size_t count,
                     std::uint64_t max_cycles) const {
    if (fused) return sys.run_until_outputs(count, max_cycles);
    for (std::uint64_t n = 0; sys.host().received().size() < count; ++n) {
      check(n < max_cycles, "Drive::until_outputs: cycle budget exceeded");
      sys.step();
    }
  }

  void until_halt(System& sys, std::uint64_t max_cycles,
                  std::uint64_t drain_cycles = 0) const {
    if (fused) return sys.run_until_halt(max_cycles, drain_cycles);
    for (std::uint64_t n = 0; !sys.controller().halted(); ++n) {
      check(n < max_cycles, "Drive::until_halt: cycle budget exceeded");
      sys.step();
    }
    cycles(sys, drain_cycles);
  }

  /// Run a job's cycles the way rt::Runtime does.
  void job(System& sys, const rt::Job& job) const {
    if (job.run == rt::Job::Run::kUntilOutputs) {
      until_outputs(sys, job.expected_outputs, job.max_cycles);
    } else {
      until_halt(sys, job.max_cycles, job.drain_cycles);
    }
  }
};

inline constexpr Drive kFusedDrive{true};
inline constexpr Drive kPerCycleDrive{false};

}  // namespace sring
