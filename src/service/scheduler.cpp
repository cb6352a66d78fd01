#include "service/scheduler.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"

namespace privid::service {

QueryScheduler::QueryScheduler(ThreadPool* pool, std::size_t threads,
                               std::shared_mutex* owner_mu,
                               SettleCallback on_settled,
                               std::size_t shutdown_grace_ms)
    : pool_(pool), threads_(std::max<std::size_t>(threads, 1)),
      owner_mu_(owner_mu),
      on_settled_(std::move(on_settled)),
      shutdown_grace_ms_(shutdown_grace_ms) {
  if (!owner_mu_) throw ArgumentError("QueryScheduler requires owner mutex");
  // privcheck:allow(raw-thread): spawn of the scheduler's single dispatcher
  // control thread (see scheduler.hpp); task execution stays on the pool.
  dispatcher_ = std::thread([this] { loop(); });
}

QueryScheduler::~QueryScheduler() { shutdown(); }

void QueryScheduler::shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
    work_cv_.notify_all();
    // Bounded drain: give in-flight queries the grace period, then
    // abandon whatever is still queued. The duration is a shutdown bound,
    // not part of any query's result, so the wall-clock wait cannot
    // perturb determinism.
    const bool drained =
        idle_cv_.wait_for(lock, std::chrono::milliseconds(shutdown_grace_ms_),
                          [&] { return unsettled_jobs_ == 0; });
    if (!drained) {
      abandon_ = true;
      work_cv_.notify_all();
    }
  }
  if (dispatcher_.joinable()) dispatcher_.join();
}

void QueryScheduler::set_weight(const std::string& analyst, double weight) {
  if (weight <= 0) throw ArgumentError("analyst weight must be positive");
  std::lock_guard<std::mutex> lock(mu_);
  queue_.set_weight(analyst, weight);
}

void QueryScheduler::submit(const std::shared_ptr<QueryJob>& job) {
  if (!job || !job->prepared) {
    throw ArgumentError("QueryScheduler::submit requires a prepared job");
  }
  const std::size_t total = job->prepared->total_tasks();
  if (total == 0) {
    throw ArgumentError("QueryScheduler::submit requires at least one task");
  }
  job->tasks_left.store(total, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) throw ArgumentError("QueryScheduler is shut down");
    ++unsettled_jobs_;
    for (std::size_t phase = 0; phase < job->prepared->phase_count();
         ++phase) {
      const std::size_t n = job->prepared->task_count(phase);
      for (std::size_t t = 0; t < n; ++t) {
        queue_.push(job->analyst, TaskRef{job, phase, t});
      }
    }
    g_queued_->set(static_cast<std::int64_t>(queue_.size()));
  }
  work_cv_.notify_all();
}

void QueryScheduler::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return unsettled_jobs_ == 0; });
}

bool QueryScheduler::cancel(const std::shared_ptr<QueryJob>& job,
                            CancelReason reason) {
  if (!job || reason == CancelReason::kNone) return false;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    if (job->state == QueryState::kDone || job->state == QueryState::kFailed ||
        job->state == QueryState::kCancelled) {
      return false;  // already settled; nothing to cancel
    }
  }
  int expected = static_cast<int>(CancelReason::kNone);
  return job->cancel_reason.compare_exchange_strong(
      expected, static_cast<int>(reason), std::memory_order_acq_rel);
}

void QueryScheduler::loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      // On stop, keep serving until every admitted job settles — a
      // reservation must end in commit or refund, never limbo. (Abandoned
      // jobs *also* settle, as cancellations.) An empty queue between busy
      // periods means every job has settled.
      if (queue_.empty()) break;
    }
    obs::Span span("sched.round", "sched");
    c_rounds_->add();
    if (pool_ != nullptr && threads_ > 1) {
      try {
        pool_->parallel_for(
            threads_, [this](std::size_t) { pull(); }, threads_);
      } catch (...) {
        // A participant lost to a pool-level failure dies before it pulls,
        // so no task is lost; if every participant was lost, this thread
        // finishes the busy period itself.
        pull();
      }
    } else {
      pull();
    }
  }
}

void QueryScheduler::pull() {
  bool retired = false;  // this participant has finished a task
  for (;;) {
    TaskRef t;  // released outside mu_: it may hold a job's last reference
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (retired && --running_ == 0 && queue_.empty()) {
        work_cv_.notify_all();
      }
      // With the queue empty, stay while a sibling still runs a task: a
      // query submitted during the busy period's tail is served at once.
      work_cv_.wait(lock, [&] { return !queue_.empty() || running_ == 0; });
      if (!queue_.pop(&t)) return;
      g_queued_->set(static_cast<std::int64_t>(queue_.size()));
      if (abandon_) {
        // Bounded shutdown expired its grace: every still-queued task is
        // dropped and its job settles kCancelled/kShutdown — never run
        // past the bound, never left in limbo holding a reservation.
        int expected = static_cast<int>(CancelReason::kNone);
        t.job->cancel_reason.compare_exchange_strong(
            expected, static_cast<int>(CancelReason::kShutdown),
            std::memory_order_acq_rel);
      }
      ++running_;
    }
    retire(t);
    retired = true;
  }
}

void QueryScheduler::retire(TaskRef& t) {
  QueryJob& job = *t.job;
  // Owner-side mutations (mask registration, re-tuning, budget restore)
  // take this mutex exclusively; holding it shared for the task and its
  // query's settle means neither observes a camera change mid-call.
  std::shared_lock<std::shared_mutex> owner(*owner_mu_);
  if (job.failed.load(std::memory_order_acquire) ||
      job.cancel_reason.load(std::memory_order_acquire) !=
          static_cast<int>(CancelReason::kNone)) {
    // A sibling task already failed the query, or it was cancelled; don't
    // waste pool time.
    c_tasks_dropped_->add();
  } else {
    if (!job.started.exchange(true)) {
      // First dispatch of this query: its scheduling wait ends here.
      job.queue_wait.observe(h_queue_wait_);
      std::lock_guard<std::mutex> lock(job.mu);
      if (job.state == QueryState::kQueued) job.state = QueryState::kRunning;
    }
    obs::Span task_span("sched.task", "sched");
    if (task_span.active()) {
      task_span.tag("query", job.id)
          .tag("analyst", job.analyst)
          .tag("phase", static_cast<std::uint64_t>(t.phase))
          .tag("task", static_cast<std::uint64_t>(t.task));
    }
    try {
      // Models the dispatch path itself dying between dequeue and the
      // engine (the per-task seam closest to a lost RPC once execution is
      // sharded). Lands in task_error like any task failure — the retry
      // ladder lives below, in the engine.
      fault::inject("sched.dispatch");
      job.slots[t.phase][t.task] =
          job.prepared->run_range(t.phase, t.task, t.task + 1);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(job.error_mu);
        if (!job.task_error) job.task_error = std::current_exception();
      }
      job.failed.store(true, std::memory_order_release);
    }
    c_tasks_run_->add();
    if (job.tasks_run) job.tasks_run->add();
  }
  // The last retire sees every sibling's slot write (acq_rel RMW chain).
  if (job.tasks_left.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  finalize(job);
  std::lock_guard<std::mutex> lock(mu_);
  if (--unsettled_jobs_ == 0) idle_cv_.notify_all();
}

void QueryScheduler::finalize(QueryJob& job) {
  obs::Span span("query.finalize", "sched");
  if (span.active()) {
    span.tag("query", job.id).tag("analyst", job.analyst);
  }
  QueryState settled = QueryState::kFailed;
  try {
    if (job.failed.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(job.error_mu);
      std::rethrow_exception(job.task_error);
    }
    // A task failure outranks cancellation (the failure is what actually
    // happened to the query); otherwise a won cancel settles it here.
    const int reason = job.cancel_reason.load(std::memory_order_acquire);
    if (reason != static_cast<int>(CancelReason::kNone)) {
      settled = QueryState::kCancelled;
      const std::string who =
          "query " + std::to_string(job.id) + " (" + job.analyst + ")";
      if (reason == static_cast<int>(CancelReason::kShutdown)) {
        throw CancelledError(who + " abandoned at scheduler shutdown");
      }
      throw CancelledError(who + " by request");
    }
    for (std::size_t phase = 0; phase < job.prepared->phase_count(); ++phase) {
      job.prepared->assemble(phase, std::move(job.slots[phase]));
    }
    engine::QueryResult result = job.prepared->finish();
    job.reservation.commit();
    {
      std::lock_guard<std::mutex> lock(job.mu);
      job.result = std::move(result);
      job.state = QueryState::kDone;
    }
    settled = QueryState::kDone;
  } catch (...) {
    // Exactly-once refund: Reservation settles on the first commit/refund
    // and ignores the rest, so neither a task error nor a finish()-time
    // error (nor both) can refund twice. A refund the ledger refuses
    // (owner restored a pre-reservation snapshot) must fail this query,
    // not the participant settling it.
    try {
      job.reservation.refund();
    } catch (...) {
    }
    std::lock_guard<std::mutex> lock(job.mu);
    job.error = std::current_exception();
    job.state = settled;
  }
  if (span.active()) {
    span.tag("ok", settled == QueryState::kDone ? "true" : "false");
    if (settled == QueryState::kCancelled) span.tag("cancelled", "true");
  }
  job.cv.notify_all();
  if (on_settled_) on_settled_(job, settled);
}

}  // namespace privid::service
