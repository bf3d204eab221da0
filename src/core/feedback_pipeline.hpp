// Feedback pipeline (the "reverse dataflow" of paper §4.2).
//
// Every clock edge a switch's pipeline unconditionally latches the full
// output vector of its upstream Dnode layer.  All switches may read any
// pipeline at any depth, which replaces long-distance routing and
// provides the delays recursive filters need.
//
// Because every switch latches at every edge, the Ring keeps ONE
// pipeline whose stage is the whole pre-edge output vector (`width` =
// Dnode count): switch s's pipeline is the slice of layer s-1 in it.
// One edge is then one copy of the vector instead of one small copy per
// switch.
//
// Depth convention: read(lane, 0) returns the value latched at the most
// recent clock edge, i.e. the upstream output delayed by exactly one
// cycle relative to the direct (PREV) route.  read(lane, d) is delayed
// by d additional cycles.
//
// Storage is a mirrored ring: each stage is written twice, `depth`
// stages apart, so the `depth` stages from the depth-0 one on are
// always contiguous — window()[d * width + lane] == read(lane, d) with
// no wrap test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace sring {

class FeedbackPipeline {
 public:
  FeedbackPipeline(std::size_t width, std::size_t depth);

  std::size_t width() const noexcept { return width_; }
  std::size_t depth() const noexcept { return depth_; }

  /// Read one lane at the given depth (0 = most recently latched).
  Word read(std::size_t lane, std::size_t depth) const;

  /// The live stages, depth-major: window()[d * width() + lane] is
  /// read(lane, d) for d < depth().  Valid until the next push/reset —
  /// the planned engine's feedback operands index it with offsets
  /// validated at plan-compile time.
  const Word* window() const noexcept {
    return stages_.data() + head_ * width_;
  }

  /// Clock edge: latch the upstream output vector.
  void push(const std::vector<Word>& upstream_outputs);

  /// Same, from a raw pointer to `width()` words.  Inline: latched once
  /// per cycle by both of the Ring's engines.  The oldest stage is
  /// overwritten (in both mirrors) and becomes the new depth-0 stage.
  /// Conditional decrement, not modulo: a runtime division dominated
  /// the latch cost.  Plain word loops, not std::copy: std::copy of a
  /// runtime length becomes a memmove call that costs more than a
  /// short copy.
  void push_from(const Word* upstream_outputs) {
    head_ = (head_ == 0 ? depth_ : head_) - 1;
    Word* const stage = stages_.data() + head_ * width_;
    Word* const mirror = stage + depth_ * width_;
    for (std::size_t lane = 0; lane < width_; ++lane) {
      stage[lane] = upstream_outputs[lane];
      mirror[lane] = upstream_outputs[lane];
    }
    ++pushes_;
  }

  /// Clock edges latched since the last reset (instrumentation).
  std::uint64_t pushes() const noexcept { return pushes_; }

  /// Stages holding live (post-reset) data: min(pushes, depth).
  std::size_t occupancy() const noexcept {
    return pushes_ < depth_ ? static_cast<std::size_t>(pushes_) : depth_;
  }

  /// Clear all stages to zero.
  void reset() noexcept;

 private:
  std::size_t width_;
  std::size_t depth_;
  std::size_t head_ = 0;                 // index of the depth-0 stage
  std::uint64_t pushes_ = 0;
  std::vector<Word> stages_;             // 2 x depth_ x width_, mirrored
};

}  // namespace sring
