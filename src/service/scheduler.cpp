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
      round_size_(kRoundTasksPerThread * threads_), owner_mu_(owner_mu),
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
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) throw ArgumentError("QueryScheduler is shut down");
    ++unsettled_jobs_;
    if (job->total_tasks == 0) {
      taskless_jobs_.push_back(job);
    } else {
      for (std::size_t phase = 0; phase < job->prepared->phase_count();
           ++phase) {
        const std::size_t n = job->prepared->task_count(phase);
        for (std::size_t t = 0; t < n; ++t) {
          queue_.push(job->analyst, TaskRef{job, phase, t});
        }
      }
      g_queued_->set(static_cast<std::int64_t>(queue_.size()));
    }
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
  const bool won = job->cancel_reason.compare_exchange_strong(
      expected, static_cast<int>(reason), std::memory_order_acq_rel);
  // Wake the dispatcher so the drop happens promptly even when idle.
  work_cv_.notify_all();
  return won;
}

QueryScheduler::Stats QueryScheduler::stats() const {
  Stats s;
  s.tasks_run = c_tasks_run_->value();
  s.tasks_dropped = c_tasks_dropped_->value();
  s.rounds = c_rounds_->value();
  s.queries_settled = c_settled_->value();
  s.queries_cancelled = c_cancelled_->value();
  return s;
}

std::map<std::string, std::uint64_t> QueryScheduler::served() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.served();
}

void QueryScheduler::loop() {
  while (true) {
    std::vector<TaskRef> round;
    std::vector<std::shared_ptr<QueryJob>> finished;
    std::size_t dropped = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ || !queue_.empty() || !taskless_jobs_.empty();
      });
      // On stop, keep dispatching until every admitted job settles — a
      // reservation must end in commit or refund, never limbo. (Abandoned
      // jobs below *also* settle, as cancellations.)
      if (stop_ && queue_.empty() && taskless_jobs_.empty()) break;
      finished.reserve(taskless_jobs_.size());
      for (auto& job : taskless_jobs_) finished.push_back(std::move(job));
      taskless_jobs_.clear();

      TaskRef t;
      if (abandon_) {
        // Bounded shutdown expired its grace: every still-queued task is
        // dropped and its job settles kCancelled/kShutdown — never run
        // past the bound, never left in limbo holding a reservation.
        while (queue_.pop(&t)) {
          int expected = static_cast<int>(CancelReason::kNone);
          t.job->cancel_reason.compare_exchange_strong(
              expected, static_cast<int>(CancelReason::kShutdown),
              std::memory_order_acq_rel);
          ++dropped;
          if (++t.job->tasks_done == t.job->total_tasks) {
            finished.push_back(t.job);
          }
        }
      }
      while (round.size() < round_size_ && queue_.pop(&t)) {
        if (t.job->failed.load(std::memory_order_acquire) ||
            t.job->cancel_reason.load(std::memory_order_acquire) !=
                static_cast<int>(CancelReason::kNone)) {
          // A sibling task already failed the query, or it was cancelled;
          // don't waste pool time.
          ++dropped;
          if (++t.job->tasks_done == t.job->total_tasks) {
            finished.push_back(t.job);
          }
          continue;
        }
        round.push_back(std::move(t));
      }
      g_queued_->set(static_cast<std::int64_t>(queue_.size()));
    }

    const std::size_t skipped = run_round(round, &finished);

    c_tasks_run_->add(round.size() - skipped);
    c_tasks_dropped_->add(dropped + skipped);
    if (!round.empty()) c_rounds_->add();
    c_settled_->add(finished.size());
    {
      std::lock_guard<std::mutex> lock(mu_);
      unsettled_jobs_ -= finished.size();
      if (unsettled_jobs_ == 0) idle_cv_.notify_all();
    }
  }
}

std::size_t QueryScheduler::run_round(
    std::vector<TaskRef>& round,
    std::vector<std::shared_ptr<QueryJob>>* finished) {
  if (round.empty() && finished->empty()) return 0;
  obs::Span round_span("sched.round", "sched");
  if (round_span.active()) {
    round_span.tag("tasks", static_cast<std::uint64_t>(round.size()));
  }
  // Owner-side mutations (mask registration, re-tuning, budget restore)
  // take this mutex exclusively; holding it shared for the whole round
  // means a query never observes a camera change mid-flight.
  std::shared_lock<std::shared_mutex> owner(*owner_mu_);

  for (auto& t : round) {
    if (!t.job->started.exchange(true)) {
      // First dispatch of this query: its scheduling wait ends here.
      t.job->queue_wait.observe(h_queue_wait_);
      std::lock_guard<std::mutex> lock(t.job->mu);
      if (t.job->state == QueryState::kQueued) {
        t.job->state = QueryState::kRunning;
      }
    }
  }

  std::atomic<std::size_t> skipped{0};
  auto run_one = [&](std::size_t i) {
    TaskRef& t = round[i];
    if (t.job->failed.load(std::memory_order_acquire) ||
        t.job->cancel_reason.load(std::memory_order_acquire) !=
            static_cast<int>(CancelReason::kNone)) {
      skipped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    obs::Span task_span("sched.task", "sched");
    if (task_span.active()) {
      task_span.tag("query", t.job->id)
          .tag("analyst", t.job->analyst)
          .tag("phase", static_cast<std::uint64_t>(t.phase))
          .tag("task", static_cast<std::uint64_t>(t.task));
    }
    try {
      // Models the dispatch path itself dying between dequeue and the
      // engine (the per-task seam closest to a lost RPC once execution is
      // sharded). Lands in task_error like any task failure — the retry
      // ladder lives below, in the engine.
      fault::inject("sched.dispatch");
      t.job->slots[t.phase][t.task] =
          t.job->prepared->run_task(t.phase, t.task);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(t.job->error_mu);
        if (!t.job->task_error) t.job->task_error = std::current_exception();
      }
      t.job->failed.store(true, std::memory_order_release);
    }
  };
  try {
    if (pool_ != nullptr && threads_ > 1 && round.size() > 1) {
      pool_->parallel_for(round.size(), run_one, threads_);
    } else {
      for (std::size_t i = 0; i < round.size(); ++i) run_one(i);
    }
  } catch (...) {
    // Pool-level failure (a worker slot died before any task function
    // ran, so no job's catch above recorded it): fail every job in the
    // round so each settles kFailed and refunds exactly once, instead of
    // unwinding the dispatcher with the round's accounting half-done.
    for (auto& t : round) {
      {
        std::lock_guard<std::mutex> lock(t.job->error_mu);
        if (!t.job->task_error) t.job->task_error = std::current_exception();
      }
      t.job->failed.store(true, std::memory_order_release);
    }
  }

  for (auto& t : round) {
    if (++t.job->tasks_done == t.job->total_tasks) finished->push_back(t.job);
  }
  for (auto& job : *finished) finalize(*job);
  return skipped.load(std::memory_order_relaxed);
}

void QueryScheduler::finalize(QueryJob& job) {
  obs::Span span("query.finalize", "sched");
  if (span.active()) {
    span.tag("query", job.id).tag("analyst", job.analyst);
  }
  bool ok = false;
  bool cancelled = false;
  try {
    if (job.failed.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(job.error_mu);
      std::rethrow_exception(job.task_error);
    }
    // A task failure outranks cancellation (the failure is what actually
    // happened to the query); otherwise a won cancel settles it here.
    const int reason = job.cancel_reason.load(std::memory_order_acquire);
    if (reason != static_cast<int>(CancelReason::kNone)) {
      cancelled = true;
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
    ok = true;
  } catch (...) {
    // Exactly-once refund: Reservation settles on the first commit/refund
    // and ignores the rest, so neither a task error nor a finish()-time
    // error (nor both) can refund twice. A refund the ledger refuses
    // (owner restored a pre-reservation snapshot) must fail this query,
    // not the dispatcher thread.
    try {
      job.reservation.refund();
    } catch (...) {
    }
    {
      std::lock_guard<std::mutex> lock(job.mu);
      job.error = std::current_exception();
      job.state = cancelled ? QueryState::kCancelled : QueryState::kFailed;
    }
    if (cancelled) c_cancelled_->add();
  }
  if (span.active()) {
    span.tag("ok", ok ? "true" : "false");
    if (cancelled) span.tag("cancelled", "true");
  }
  job.cv.notify_all();
  if (on_settled_) on_settled_(job, ok);
}

}  // namespace privid::service
