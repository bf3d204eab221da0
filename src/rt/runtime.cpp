#include "rt/runtime.hpp"

#include <exception>
#include <string>
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

/// The SystemStats fields a worker sums over its successful jobs, and
/// the fleet names metrics() gives the sums.
constexpr std::pair<const char*, std::uint64_t SystemStats::*> kSummed[] = {
    {"rt.sim_cycles", &SystemStats::cycles},
    {"rt.dnode_ops", &SystemStats::dnode_ops},
    {"rt.host_words_in", &SystemStats::host_words_in},
    {"rt.host_words_out", &SystemStats::host_words_out},
    // Plan-cache / superstep effectiveness per deployment, not just per
    // cycle-bench run.
    {"ring.plan.compiles", &SystemStats::plan_compiles},
    {"ring.plan.hits", &SystemStats::plan_hits},
    {"ring.plan.invalidations", &SystemStats::plan_invalidations},
    {"ring.superstep.dispatches", &SystemStats::superstep_dispatches},
    {"ring.superstep.cycles", &SystemStats::superstep_cycles},
    {"ring.superstep.exit.bus_drive", &SystemStats::superstep_exit_bus_drive},
    {"ring.superstep.exit.budget", &SystemStats::superstep_exit_budget},
    {"ring.superstep.exit.output_stop",
     &SystemStats::superstep_exit_output_stop},
    {"ring.superstep.exit.host_stall", &SystemStats::superstep_exit_host_stall},
};

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

Runtime::Totals::Totals()
    : job_cycles(job_cycle_bounds()),
      queue_wait_us(obs::latency_bounds_us()),
      arm_us(obs::latency_bounds_us()),
      execute_us(obs::latency_bounds_us()) {}

void Runtime::Totals::add(const JobResult& result, const SystemPool& pool) {
  ++jobs;
  if (!result.ok) {
    ++jobs_failed;
  } else {
    const SystemStats& s = result.report.stats;
    for (const auto& [name, field] : kSummed) ok.*field += s.*field;
    job_cycles.record(s.cycles);
  }
  if (obs::telemetry_enabled()) {
    const obs::SpanTimeline& tl = result.timeline;
    queue_wait_us.record(tl.queue_wait_us());
    arm_us.record(tl.arm_us());
    execute_us.record(tl.execute_us());
    busy_us += tl.us_between(obs::SpanTimeline::kDequeued,
                             obs::SpanTimeline::kCompleted);
  }
  // Copied here: metrics() must not read a pool its worker is using.
  pool_fast_resets = pool.fast_resets();
  pool_full_loads = pool.full_loads();
  pool_systems = pool.systems_constructed();
}

void Runtime::Totals::publish(obs::Registry& out, std::size_t worker) const {
  // A name appears once a job that feeds it has closed, and shared
  // names add across the fleet.
  if (jobs == 0) return;
  const std::string p = "rt.worker." + std::to_string(worker) + ".";
  out.counter("rt.jobs").add(jobs);
  out.counter(p + "jobs").add(jobs);
  if (jobs_failed > 0) {
    out.counter("rt.jobs_failed").add(jobs_failed);
    out.counter(p + "jobs_failed").add(jobs_failed);
  }
  if (jobs > jobs_failed) {
    for (const auto& [name, field] : kSummed) out.counter(name).add(ok.*field);
    out.counter(p + "sim_cycles").add(ok.cycles);
    out.histogram("rt.job_cycles", job_cycles.bounds()).merge_from(job_cycles);
  }
  if (execute_us.count() > 0) {
    const auto& bounds = obs::latency_bounds_us();
    out.histogram("rt.latency.queue_wait_us", bounds).merge_from(queue_wait_us);
    out.histogram("rt.latency.arm_us", bounds).merge_from(arm_us);
    out.histogram("rt.latency.execute_us", bounds).merge_from(execute_us);
    // Worker busy time; utilization = rate(rt.busy_us) / workers.
    out.counter("rt.busy_us").add(busy_us);
  }
  out.counter("rt.pool.fast_resets").add(pool_fast_resets);
  out.counter("rt.pool.full_loads").add(pool_full_loads);
  out.counter(p + "pool.fast_resets").add(pool_fast_resets);
  out.counter(p + "pool.full_loads").add(pool_full_loads);
  out.counter(p + "pool.systems").add(pool_systems);
}

void Runtime::worker_main(std::size_t index) {
  Worker& w = *workers_[index];
  while (auto env = queue_.pop()) {
    env->timeline.stamp(obs::SpanTimeline::kDequeued);
    JobResult result = run_job(env->job, index, w, env->timeline);
    {  // job-boundary accounting; the simulation itself ran lock-free
      std::lock_guard lock(w.mu);
      w.totals.add(result, w.pool);
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
    result.report = RunReport::from_stats(job.name, sys.stats());
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

  for (std::size_t i = 0; i < workers_.size(); ++i) {
    std::lock_guard lock(workers_[i]->mu);
    workers_[i]->totals.publish(out, i);
  }
  return out;
}

}  // namespace sring::rt
