#include "rt/runtime.hpp"

#include <cstdio>
#include <exception>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "obs/quantile.hpp"
#include "sim/system.hpp"

namespace sring::rt {

namespace {

std::size_t resolve_workers(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Bucket bounds for the per-worker job-cycle histogram: powers of
/// two up to 1M simulated cycles.
std::vector<std::uint64_t> job_cycle_bounds() {
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t b = 64; b <= (1u << 20); b <<= 1) bounds.push_back(b);
  return bounds;
}

}  // namespace

Runtime::Runtime(RuntimeConfig config)
    : config_(std::move(config)), queue_(config_.queue_capacity) {
  const std::size_t n = resolve_workers(config_.workers);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto w = std::make_unique<Worker>(config_.pool_systems_per_worker);
    if (config_.sink_factory) w->sink = config_.sink_factory(i);
    workers_.push_back(std::move(w));
  }
  // Threads start only after every Worker slot exists: worker_main
  // indexes workers_ freely.
  for (std::size_t i = 0; i < n; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_main(i); });
  }
}

Runtime::~Runtime() { shutdown(); }

void Runtime::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  queue_.close();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

std::future<JobResult> Runtime::submit(Job job) {
  JobQueue::Envelope env;
  env.job = std::move(job);
  std::future<JobResult> fut = env.result.get_future();
  // Stamped before push(): a full queue blocks here, and that wait IS
  // the queue-wait phase the latency histograms must see.
  env.timeline.stamp(obs::SpanTimeline::kEnqueued);
  check(queue_.push(std::move(env)),
        "Runtime::submit: runtime is shut down");
  return fut;
}

Runtime::TrySubmit Runtime::try_submit(Job job,
                                       std::function<void()> notify) {
  JobQueue::Envelope env;
  env.job = std::move(job);
  env.notify = std::move(notify);
  env.timeline.stamp(obs::SpanTimeline::kEnqueued);
  TrySubmit out;
  out.result = env.result.get_future();
  switch (queue_.try_push(env)) {
    case JobQueue::PushStatus::kOk:
      out.status = SubmitStatus::kAccepted;
      break;
    case JobQueue::PushStatus::kFull:
      out.status = SubmitStatus::kQueueFull;
      out.result = {};
      break;
    case JobQueue::PushStatus::kClosed:
      out.status = SubmitStatus::kShutDown;
      out.result = {};
      break;
  }
  return out;
}

std::vector<JobResult> Runtime::submit_batch(std::vector<Job> jobs) {
  std::vector<std::future<JobResult>> futures;
  futures.reserve(jobs.size());
  for (auto& job : jobs) futures.push_back(submit(std::move(job)));
  std::vector<JobResult> results;
  results.reserve(futures.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

void Runtime::worker_main(std::size_t index) {
  Worker& w = *workers_[index];
  while (auto env = queue_.pop()) {
    env->timeline.stamp(obs::SpanTimeline::kDequeued);
    JobResult result = run_job(env->job, index, w, env->timeline);

    {  // job-boundary accounting; the simulation itself ran lock-free
      std::lock_guard lock(w.mu);
      char name[64];
      std::snprintf(name, sizeof(name), "rt.worker.%zu.", index);
      const std::string p(name);
      obs::Registry& reg = w.registry;
      reg.counter("rt.jobs").add(1);
      reg.counter(p + "jobs").add(1);
      if (!result.ok) {
        reg.counter("rt.jobs_failed").add(1);
        reg.counter(p + "jobs_failed").add(1);
      } else {
        const SystemStats& s = result.report.stats;
        reg.counter("rt.sim_cycles").add(s.cycles);
        reg.counter("rt.dnode_ops").add(s.dnode_ops);
        reg.counter("rt.host_words_in").add(s.host_words_in);
        reg.counter("rt.host_words_out").add(s.host_words_out);
        reg.counter(p + "sim_cycles").add(s.cycles);
        reg.histogram("rt.job_cycles", job_cycle_bounds())
            .record(s.cycles);
        // Plan-cache / superstep effectiveness per deployment, not
        // just per cycle-bench run (ROADMAP: matvec8's 0.29 hit rate).
        reg.counter("ring.plan.compiles").add(s.plan_compiles);
        reg.counter("ring.plan.hits").add(s.plan_hits);
        reg.counter("ring.plan.invalidations").add(s.plan_invalidations);
        // Every ring.superstep.* counter (dispatches, cycles, exit
        // reasons): one ordered range of the job's registry.
        constexpr std::string_view kSuperstep = "ring.superstep.";
        const auto& counters = result.report.metrics.counters();
        for (auto it = counters.lower_bound(kSuperstep);
             it != counters.end() && it->first.starts_with(kSuperstep); ++it) {
          reg.counter(it->first).add(it->second.value());
        }
      }
      if (obs::telemetry_enabled()) {
        const obs::SpanTimeline& tl = result.timeline;
        reg.histogram("rt.latency.queue_wait_us", obs::latency_bounds_us())
            .record(tl.queue_wait_us());
        reg.histogram("rt.latency.arm_us", obs::latency_bounds_us())
            .record(tl.arm_us());
        reg.histogram("rt.latency.execute_us", obs::latency_bounds_us())
            .record(tl.execute_us());
        // Worker busy time; utilization = rate(rt.busy_us) / workers.
        reg.counter("rt.busy_us")
            .add(tl.us_between(obs::SpanTimeline::kDequeued,
                               obs::SpanTimeline::kCompleted));
      }
      // set() with the pool's cumulative totals: each worker owns its
      // registry, and merge_from() adds counters, so shared names
      // (rt.pool.*) sum across the fleet at snapshot time.
      reg.counter("rt.pool.fast_resets").set(w.pool.fast_resets());
      reg.counter("rt.pool.full_loads").set(w.pool.full_loads());
      reg.counter(p + "pool.fast_resets").set(w.pool.fast_resets());
      reg.counter(p + "pool.full_loads").set(w.pool.full_loads());
      reg.counter(p + "pool.systems").set(w.pool.systems_constructed());
    }

    env->result.set_value(std::move(result));
    if (env->notify) env->notify();
  }
  if (w.sink) w.sink->end();
}

JobResult Runtime::run_job(const Job& job, std::size_t index,
                           Worker& worker, obs::SpanTimeline& timeline) {
  JobResult result;
  result.worker = index;
  result.trace_id = job.trace_id;
  try {
    check(job.program != nullptr, "rt job '" + job.name + "': no program");
    const SystemPool::Lease lease = worker.pool.acquire(job);
    System& sys = lease.system;
    result.reused_system = lease.reused_program;
    timeline.stamp(obs::SpanTimeline::kArmed);
    if (worker.sink) sys.set_trace(worker.sink.get());

    sys.host().send(job.input);
    if (job.run == Job::Run::kUntilOutputs) {
      sys.run_until_outputs(job.expected_outputs, job.max_cycles);
    } else {
      sys.run_until_halt(job.max_cycles, job.drain_cycles);
    }
    timeline.stamp(obs::SpanTimeline::kExecuted);

    std::vector<Word> raw = sys.host().take_received();
    check(raw.size() >= job.discard_prefix,
          "rt job '" + job.name + "': fewer outputs than discard_prefix");
    const std::size_t avail = raw.size() - job.discard_prefix;
    const std::size_t take =
        job.take_words == 0 ? avail : std::min(job.take_words, avail);
    check(job.take_words == 0 || avail >= job.take_words,
          "rt job '" + job.name + "': fewer outputs than requested");
    result.outputs.assign(
        raw.begin() + static_cast<std::ptrdiff_t>(job.discard_prefix),
        raw.begin() +
            static_cast<std::ptrdiff_t>(job.discard_prefix + take));
    result.report = RunReport::from_system(job.name, sys);
    if (worker.sink) sys.set_trace(nullptr);
    result.ok = true;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  timeline.stamp(obs::SpanTimeline::kCompleted);
  result.timeline = timeline;
  return result;
}

obs::Registry Runtime::metrics() const {
  obs::Registry out;
  out.counter("rt.workers").set(workers_.size());

  const JobQueue::Stats q = queue_.stats();
  out.counter("rt.queue.capacity").set(q.capacity);
  out.counter("rt.queue.depth").set(q.depth);
  out.counter("rt.queue.enqueued").set(q.enqueued);
  out.counter("rt.queue.dequeued").set(q.dequeued);
  out.counter("rt.queue.max_depth").set(q.max_depth);
  out.counter("rt.queue.blocked_pushes").set(q.blocked_pushes);
  out.counter("rt.queue.rejected_full").set(q.rejected_full);
  out.counter("rt.queue.rejected_closed").set(q.rejected_closed);

  for (const auto& w : workers_) {
    std::lock_guard lock(w->mu);
    out.merge_from(w->registry);
  }
  return out;
}

}  // namespace sring::rt
