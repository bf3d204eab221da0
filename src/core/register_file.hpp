// Dnode register file: 4 x 16-bit, two read ports, master-slave timing.
//
// Reads during a cycle observe the state latched at the previous clock
// edge; at most one write is staged per cycle and committed at the
// edge.  This reproduces the paper's "result stored in one of these two
// registers (master-slave register architecture)" single-cycle
// register-to-register operations.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/error.hpp"
#include "common/types.hpp"

namespace sring {

// Every member is defined inline: read/stage_write/commit run for each
// active Dnode every cycle, and the ring's fused superstep loop needs
// them visible for inlining without LTO.
class RegisterFile {
 public:
  /// Read port: value latched at the last clock edge.
  Word read(std::size_t index) const {
    check(index < kDnodeRegCount, "RegisterFile::read: index out of range");
    return regs_[index];
  }

  /// Stage a write; takes effect at commit().  A second staged write in
  /// the same cycle is a model invariant violation.
  void stage_write(std::size_t index, Word value) {
    check(index < kDnodeRegCount,
          "RegisterFile::stage_write: index out of range");
    check(!staged_.has_value(),
          "RegisterFile::stage_write: double write in one cycle");
    staged_ = {index, value};
  }

  /// Clock edge: apply the staged write, if any.
  void commit() noexcept {
    if (staged_) {
      regs_[staged_->first] = staged_->second;
      staged_.reset();
    }
  }

  /// Drop any staged write (used when the ring stalls).
  void discard() noexcept { staged_.reset(); }

  /// Directly set a register (initialization / controller poke paths).
  void poke(std::size_t index, Word value) {
    check(index < kDnodeRegCount, "RegisterFile::poke: index out of range");
    regs_[index] = value;
  }

  /// All read ports at once: the values latched at the last clock edge.
  const std::array<Word, kDnodeRegCount>& values() const noexcept {
    return regs_;
  }

  /// Unchecked clock-edge write for the planned engine, which latches
  /// decoded (range-checked) destinations without staging.
  void latch(std::size_t index, Word value) noexcept { regs_[index] = value; }

 private:
  std::array<Word, kDnodeRegCount> regs_{};
  std::optional<std::pair<std::size_t, Word>> staged_;
};

}  // namespace sring
