#include "tile/gemm_runner.hpp"

#include "common/error.hpp"

namespace sring::tile {

void accumulate_tile(const TileSchedule& sched, const TileStep& step,
                     std::span<const Word> outputs, std::span<Word> acc) {
  const GemmSpec& spec = sched.spec;
  check(outputs.size() == GemmJobBuilder::output_words(sched),
        "tile: tile job returned an unexpected output count");
  check(acc.size() == spec.m * spec.n,
        "tile: accumulator grid size does not match m*n");
  for (std::size_t c = 0; c < spec.tile_n; ++c) {
    const std::size_t col = std::size_t{step.tj} * spec.tile_n + c;
    if (col >= spec.n) break;  // padded columns are discarded
    for (std::size_t r = 0; r < kTileM; ++r) {
      const std::size_t row = std::size_t{step.ti} * kTileM + r;
      if (row >= spec.m) break;  // padded rows are discarded
      Word& slot = acc[row * spec.n + col];
      slot = to_word(std::int64_t{as_signed(slot)} +
                     as_signed(outputs[c * kTileM + r]));
    }
  }
}

std::vector<Word> narrow_grid(const GemmSpec& spec,
                              std::span<const Word> acc) {
  check(acc.size() == spec.m * spec.n,
        "tile: accumulator grid size does not match m*n");
  std::vector<Word> out(acc.size());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    out[i] = narrow_readback(acc[i], spec.shift, spec.dtype);
  }
  return out;
}

GemmFold::GemmFold(const RingGeometry& geometry,
                   std::shared_ptr<const TileSchedule> schedule,
                   std::vector<Word> a, std::vector<Word> b,
                   std::size_t scratch_tiles)
    : sched_(std::move(schedule)),
      a_(std::move(a)),
      b_(std::move(b)),
      scratch_(scratch_tiles),
      builder_(geometry, scratch_),
      acc_(sched_->spec.m * sched_->spec.n, 0) {}

rt::Job GemmFold::build(std::size_t i) {
  return builder_.build(*sched_, sched_->steps[i], a_, b_);
}

void GemmFold::fold(std::size_t i, const rt::JobResult& result) {
  accumulate_tile(*sched_, sched_->steps[i], result.outputs, acc_);
  sim_cycles_ += result.report.stats.cycles;
}

GemmResult GemmFold::result() const {
  GemmResult res;
  res.c = narrow_grid(sched_->spec, acc_);
  res.schedule = *sched_;
  res.jobs = steps();
  res.sim_cycles = sim_cycles_;
  res.scratch_hits = scratch_.hits();
  res.scratch_refills = scratch_.refills();
  res.scratch_evictions = scratch_.evictions();
  res.bytes_filled = scratch_.bytes_filled();
  res.bytes_saved = scratch_.bytes_saved();
  res.traffic_reduction =
      res.bytes_filled > 0
          ? static_cast<double>(res.schedule.streamed_bytes) /
                static_cast<double>(res.bytes_filled)
          : 1.0;
  return res;
}

GemmResult run_gemm(rt::Runtime& rt, const GemmRunConfig& cfg,
                    const GemmSpec& spec, std::span<const Word> a,
                    std::span<const Word> b) {
  GemmFold fold(cfg.geometry,
                std::make_shared<const TileSchedule>(
                    plan_gemm(spec, cfg.scratch_tiles)),
                {a.begin(), a.end()}, {b.begin(), b.end()},
                cfg.scratch_tiles);
  std::vector<rt::Job> jobs;
  jobs.reserve(fold.steps());
  for (std::size_t i = 0; i < fold.steps(); ++i) jobs.push_back(fold.build(i));

  const std::vector<rt::JobResult> results =
      rt.submit_batch(std::move(jobs));
  for (std::size_t i = 0; i < results.size(); ++i) {
    check(results[i].ok, "tile: tile job failed: " + results[i].error);
    fold.fold(i, results[i]);
  }
  return fold.result();
}

GemmResult run_conv2d(rt::Runtime& rt, const GemmRunConfig& cfg,
                      const Conv2dSpec& spec,
                      std::span<const Word> filters,
                      std::span<const Word> image) {
  spec.validate();
  const GemmSpec gemm = spec.as_gemm();
  check(filters.size() == gemm.m * gemm.k,
        "tile: conv2d filter bank size does not match filters*kh*kw");
  const std::vector<Word> patches = im2col(spec, image);
  return run_gemm(rt, cfg, gemm, filters, patches);
}

}  // namespace sring::tile
