// rt::Runtime behaviour: job results match direct kernel runs
// bit-for-bit, batches keep submission order, errors are propagated
// (not fatal to the fleet), metrics aggregate, shutdown is clean.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/image.hpp"
#include "common/rng.hpp"
#include "dsp/fir.hpp"
#include "dsp/matvec.hpp"
#include "dsp/sad.hpp"
#include "kernels/dwt_kernel.hpp"
#include "kernels/fir_kernel.hpp"
#include "kernels/jobs.hpp"
#include "kernels/matvec_kernel.hpp"
#include "kernels/motion_estimation.hpp"
#include "rt/runtime.hpp"

namespace sring::rt {
namespace {

constexpr RingGeometry kGeom{8, 2, 16};

std::vector<Word> signal(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Word> x(n);
  for (auto& w : x) w = rng.next_word_in(-100, 100);
  return x;
}

Image image(std::uint64_t seed, std::size_t w, std::size_t h) {
  Rng rng(seed);
  Image img(w, h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      img.at(x, y) = rng.next_word_in(0, 255);
    }
  }
  return img;
}

TEST(Runtime, FirJobMatchesDirectKernelRun) {
  const std::vector<Word> coeffs{1, static_cast<Word>(-2), 3, 4};
  const std::vector<Word> x = signal(1, 64);

  Runtime rt({.workers = 2});
  JobResult r = rt.submit(kernels::make_spatial_fir_job(kGeom, x, coeffs))
                    .get();
  ASSERT_TRUE(r.ok) << r.error;

  const kernels::FirResult direct =
      kernels::run_spatial_fir(kGeom, x, coeffs);
  EXPECT_EQ(r.outputs, direct.outputs);
  EXPECT_EQ(r.outputs, dsp::fir_reference(x, coeffs));
  // Same program, same feed, same machine, both on a fresh System: every
  // SystemStats field agrees, the dispatch counters included.
  EXPECT_EQ(r.report.stats, direct.stats) << r.report.stats.to_string();
  EXPECT_GT(r.report.stats.superstep_dispatches, 0u);
}

TEST(Runtime, MotionEstimationJobMatchesReference) {
  const Image ref = image(2, 16, 16);
  const Image cand = image(3, 16, 16);
  constexpr int kRange = 2;

  Runtime rt({.workers = 2});
  JobResult r =
      rt.submit(kernels::make_motion_estimation_job(kGeom, ref, 4, 4, cand,
                                                    kRange))
          .get();
  ASSERT_TRUE(r.ok) << r.error;

  const auto expect = dsp::all_candidate_sads(ref, 4, 4, cand, kRange);
  ASSERT_EQ(r.outputs.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(r.outputs[i], static_cast<Word>(expect[i])) << "candidate " << i;
  }

  const dsp::MotionVector best =
      kernels::best_motion_vector(r.outputs, kRange);
  const dsp::MotionVector want = dsp::full_search(ref, 4, 4, cand, kRange);
  EXPECT_EQ(best.dx, want.dx);
  EXPECT_EQ(best.dy, want.dy);
  EXPECT_EQ(best.sad, want.sad);
}

TEST(Runtime, DwtJobMatchesDirectKernelRun) {
  const std::vector<Word> x = signal(4, 128);

  Runtime rt({.workers = 2});
  JobResult r = rt.submit(kernels::make_dwt53_job(kGeom, x)).get();
  ASSERT_TRUE(r.ok) << r.error;

  const dsp::Subbands got =
      kernels::dwt53_bands_from_raw(r.outputs, x.size() / 2);
  const kernels::DwtResult direct = kernels::run_dwt53(kGeom, x);
  EXPECT_EQ(got.low, direct.bands.low);
  EXPECT_EQ(got.high, direct.bands.high);
}

TEST(Runtime, MatvecJobMatchesReference) {
  const dsp::Matrix8 dct = dsp::dct8_matrix_q7();
  const std::vector<Word> x = signal(5, 32);  // 4 blocks

  Runtime rt({.workers = 2});
  JobResult r = rt.submit(kernels::make_matvec8_job(kGeom, dct, x)).get();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.outputs, dsp::block_matvec8_reference(dct, x));
}

TEST(Runtime, BatchKeepsSubmissionOrder) {
  const std::vector<Word> coeffs{2, 3};
  std::vector<Job> jobs;
  std::vector<std::vector<Word>> want;
  for (std::size_t i = 0; i < 12; ++i) {
    const std::vector<Word> x = signal(100 + i, 48);
    jobs.push_back(kernels::make_spatial_fir_job(kGeom, x, coeffs));
    want.push_back(dsp::fir_reference(x, coeffs));
  }

  Runtime rt({.workers = 3, .queue_capacity = 4});
  const std::vector<JobResult> results = rt.submit_batch(std::move(jobs));
  ASSERT_EQ(results.size(), want.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << i << ": " << results[i].error;
    EXPECT_EQ(results[i].outputs, want[i]) << "job " << i;
  }
}

TEST(Runtime, FailedJobReportsErrorAndFleetSurvives) {
  const std::vector<Word> coeffs{1, 2, 3, 4};
  const std::vector<Word> x = signal(6, 64);

  Runtime rt({.workers = 2});

  Job starved = kernels::make_spatial_fir_job(kGeom, x, coeffs);
  starved.max_cycles = 3;  // cannot possibly produce the outputs
  JobResult bad = rt.submit(std::move(starved)).get();
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());

  Job null_prog;
  null_prog.name = "null";
  JobResult null_res = rt.submit(std::move(null_prog)).get();
  EXPECT_FALSE(null_res.ok);

  // The fleet keeps serving after failures.
  JobResult good =
      rt.submit(kernels::make_spatial_fir_job(kGeom, x, coeffs)).get();
  ASSERT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.outputs, dsp::fir_reference(x, coeffs));

  const obs::Registry m = rt.metrics();
  ASSERT_NE(m.find_counter("rt.jobs"), nullptr);
  EXPECT_EQ(m.find_counter("rt.jobs")->value(), 3u);
  ASSERT_NE(m.find_counter("rt.jobs_failed"), nullptr);
  EXPECT_EQ(m.find_counter("rt.jobs_failed")->value(), 2u);
}

TEST(Runtime, PoolReusesSystemForSameProgramKey) {
  const std::vector<Word> coeffs{1, 2};
  Runtime rt({.workers = 1});

  JobResult a =
      rt.submit(kernels::make_spatial_fir_job(kGeom, signal(7, 32), coeffs))
          .get();
  JobResult b =
      rt.submit(kernels::make_spatial_fir_job(kGeom, signal(8, 32), coeffs))
          .get();
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_FALSE(a.reused_system);
  EXPECT_TRUE(b.reused_system);  // same key, single worker: fast re-arm
  EXPECT_EQ(b.outputs, dsp::fir_reference(signal(8, 32), coeffs));

  const obs::Registry m = rt.metrics();
  ASSERT_NE(m.find_counter("rt.pool.fast_resets"), nullptr);
  EXPECT_EQ(m.find_counter("rt.pool.fast_resets")->value(), 1u);
}

TEST(Runtime, MetricsAggregateAcrossWorkers) {
  const std::vector<Word> coeffs{1, 2, 3};
  std::vector<Job> jobs;
  std::uint64_t want_cycles = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::vector<Word> x = signal(200 + i, 40);
    jobs.push_back(kernels::make_spatial_fir_job(kGeom, x, coeffs));
    want_cycles += kernels::run_spatial_fir(kGeom, x, coeffs).stats.cycles;
  }

  Runtime rt({.workers = 4});
  const auto results = rt.submit_batch(std::move(jobs));
  for (const auto& r : results) ASSERT_TRUE(r.ok) << r.error;

  const obs::Registry m = rt.metrics();
  ASSERT_NE(m.find_counter("rt.jobs"), nullptr);
  EXPECT_EQ(m.find_counter("rt.jobs")->value(), 8u);
  ASSERT_NE(m.find_counter("rt.sim_cycles"), nullptr);
  EXPECT_EQ(m.find_counter("rt.sim_cycles")->value(), want_cycles);
  ASSERT_NE(m.find_counter("rt.workers"), nullptr);
  EXPECT_EQ(m.find_counter("rt.workers")->value(), 4u);
  ASSERT_NE(m.find_counter("rt.queue.enqueued"), nullptr);
  EXPECT_EQ(m.find_counter("rt.queue.enqueued")->value(), 8u);
  EXPECT_EQ(m.find_counter("rt.queue.dequeued")->value(), 8u);
  ASSERT_NE(m.find_histogram("rt.job_cycles"), nullptr);
  EXPECT_EQ(m.find_histogram("rt.job_cycles")->count(), 8u);

  // Every job landed on some worker; per-worker counts sum to the total.
  std::uint64_t per_worker_sum = 0;
  for (std::size_t w = 0; w < 4; ++w) {
    const auto* c =
        m.find_counter("rt.worker." + std::to_string(w) + ".jobs");
    if (c != nullptr) per_worker_sum += c->value();
  }
  EXPECT_EQ(per_worker_sum, 8u);

  // Conservation: each fleet total is the sum of the matching field
  // over the jobs' SystemStats.
  const std::pair<const char*, std::uint64_t SystemStats::*> folded[] = {
      {"rt.sim_cycles", &SystemStats::cycles},
      {"rt.dnode_ops", &SystemStats::dnode_ops},
      {"rt.host_words_in", &SystemStats::host_words_in},
      {"rt.host_words_out", &SystemStats::host_words_out},
      {"ring.plan.compiles", &SystemStats::plan_compiles},
      {"ring.plan.hits", &SystemStats::plan_hits},
      {"ring.plan.invalidations", &SystemStats::plan_invalidations},
      {"ring.superstep.dispatches", &SystemStats::superstep_dispatches},
      {"ring.superstep.cycles", &SystemStats::superstep_cycles},
      {"ring.superstep.exit.bus_drive", &SystemStats::superstep_exit_bus_drive},
      {"ring.superstep.exit.budget", &SystemStats::superstep_exit_budget},
      {"ring.superstep.exit.output_stop",
       &SystemStats::superstep_exit_output_stop},
      {"ring.superstep.exit.host_stall",
       &SystemStats::superstep_exit_host_stall},
  };
  for (const auto& [name, field] : folded) {
    std::uint64_t sum = 0;
    for (const auto& r : results) sum += r.report.stats.*field;
    const obs::Counter* c = m.find_counter(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_EQ(c->value(), sum) << name;
  }

  // The jobs reached supersteps, and the exit reasons still sum to the
  // dispatches.
  const std::uint64_t dispatches =
      m.find_counter("ring.superstep.dispatches")->value();
  EXPECT_GT(dispatches, 0u);
  std::uint64_t exits = 0;
  for (const char* why : {"bus_drive", "budget", "output_stop", "host_stall"}) {
    exits += m.find_counter(std::string("ring.superstep.exit.") + why)->value();
  }
  EXPECT_EQ(exits, dispatches);
}

TEST(Runtime, SubmitAfterShutdownThrows) {
  Runtime rt({.workers = 1});
  rt.shutdown();
  rt.shutdown();  // idempotent
  Job job;
  job.name = "late";
  EXPECT_THROW((void)rt.submit(std::move(job)), SimError);
}

TEST(Runtime, ZeroWorkerConfigFallsBackToHardware) {
  Runtime rt({.workers = 0});
  EXPECT_GE(rt.worker_count(), 1u);
}

}  // namespace
}  // namespace sring::rt
