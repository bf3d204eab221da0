// Tiled GEMM/conv execution on the rt worker fleet.
//
// GemmFold is the one fold of a GEMM: it stages tiles through a
// Scratchpad, lowers every schedule step to an rt::Job
// (GemmJobBuilder) and folds each step's partial products into a
// 16-bit accumulator grid with wrapping adds — order-independent
// (mod-2^16 addition is associative and commutative), which is what
// makes the result bit-identical at any worker count and in any
// completion order.  The final grid is narrowed with the
// rounding-saturating readback.  run_gemm drives a fold over one
// blocking batch; the net server drives one tile completion at a time
// from its poll loop.
//
// accumulate_tile and narrow_grid are the fold's two steps, exposed
// for callers that time or drive them on their own.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "rt/runtime.hpp"
#include "tile/gemm_job.hpp"

namespace sring::tile {

struct GemmRunConfig {
  RingGeometry geometry{8, 2, 16};
  /// Scratchpad size in operand tiles.  128 holds the full working
  /// set of a 64x64x64 / tile_n=8 GEMM (64 A + 64 B tiles).
  std::size_t scratch_tiles = 128;
};

struct GemmResult {
  std::vector<Word> c;    ///< row-major m*n narrowed outputs
  TileSchedule schedule;  ///< includes the up-front reuse prediction

  std::uint64_t jobs = 0;
  std::uint64_t sim_cycles = 0;

  // Observed scratchpad behaviour (equals the schedule's prediction).
  std::uint64_t scratch_hits = 0;
  std::uint64_t scratch_refills = 0;
  std::uint64_t scratch_evictions = 0;
  std::uint64_t bytes_filled = 0;
  std::uint64_t bytes_saved = 0;
  /// streamed_bytes / bytes_filled — operand-traffic reduction vs the
  /// stream-every-job baseline.
  double traffic_reduction = 1.0;
};

/// Fold one tile job's host outputs into the m*n accumulator grid
/// (wrapping adds; padded rows/columns are discarded here).
void accumulate_tile(const TileSchedule& sched, const TileStep& step,
                     std::span<const Word> outputs, std::span<Word> acc);

/// Apply the rounding-saturating readback to a full accumulator grid.
std::vector<Word> narrow_grid(const GemmSpec& spec,
                              std::span<const Word> acc);

/// One GEMM in flight: operands, scratchpad, job builder, accumulator
/// grid and the cycle tally.  Not copyable or movable: the builder
/// holds a reference to the scratchpad.
class GemmFold {
 public:
  /// Throws SimError when `geometry` cannot host the tile pages.
  GemmFold(const RingGeometry& geometry,
           std::shared_ptr<const TileSchedule> schedule, std::vector<Word> a,
           std::vector<Word> b, std::size_t scratch_tiles);
  GemmFold(const GemmFold&) = delete;
  GemmFold& operator=(const GemmFold&) = delete;

  std::size_t steps() const { return sched_->steps.size(); }

  /// The rt::Job of schedule step `i`.  Build each step once, in
  /// schedule order, so the scratchpad sees the accesses the planner
  /// predicted.
  rt::Job build(std::size_t i);

  /// Fold step `i`'s successful result into the grid.  Throws SimError
  /// on an output count the schedule does not expect.
  void fold(std::size_t i, const rt::JobResult& result);

  /// The narrowed grid plus the observed tallies.
  GemmResult result() const;

 private:
  std::shared_ptr<const TileSchedule> sched_;
  std::vector<Word> a_, b_;
  Scratchpad scratch_;
  GemmJobBuilder builder_;  ///< holds a reference to scratch_
  std::vector<Word> acc_;   ///< m*n wrapping accumulator grid
  std::uint64_t sim_cycles_ = 0;
};

/// Execute `spec` over the fleet.  Throws SimError on invalid
/// operands or a failed tile job.
GemmResult run_gemm(rt::Runtime& rt, const GemmRunConfig& cfg,
                    const GemmSpec& spec, std::span<const Word> a,
                    std::span<const Word> b);

/// im2col-lowered convolution; returns the GEMM result whose rows are
/// filters and columns are output pixels (row-major filters x
/// (out_h*out_w)).
GemmResult run_conv2d(rt::Runtime& rt, const GemmRunConfig& cfg,
                      const Conv2dSpec& spec,
                      std::span<const Word> filters,
                      std::span<const Word> image);

}  // namespace sring::tile
