// Weighted fair-share scheduling of chunk-level query tasks.
//
// Every admitted query is decomposed (engine::PreparedQuery) into its
// chunk x region tasks, and the tasks of all in-flight queries compete for
// the shared thread pool. Scheduling is stride-based: each analyst has a
// lane with a weight; serving a task advances the lane's virtual "pass" by
// 1/weight, and every pull serves the lane with the smallest pass (ties
// break by analyst id, for determinism). Over any window, an analyst with
// weight w therefore gets ~w shares of the pool regardless of how many
// queries it has queued — a flood from one analyst cannot starve the
// others.
//
// Execution model: a dispatcher thread waits for queued work, then hosts
// one ThreadPool batch per busy period in which every participant pulls
// the next task in stride order, runs it, and repeats until the queue is
// empty and no sibling is still running a task (so a query submitted
// during the period's tail is served at once). There is no barrier
// between tasks: a long task holds only its own participant. Each task
// runs as a one-task range (PreparedQuery::run_range) into its own
// pre-sized slot, so this scheduling layer cannot perturb
// results: whichever participant retires a query's last task assembles
// its tables from the slots in sequential task order, making releases
// byte-identical no matter what else the service is running (see
// engine/executor.hpp on PreparedQuery).
//
// Failure: the first task error flips the job's failed flag; its remaining
// queued tasks are dropped when pulled, and finalize() refunds the
// admission reservation (exactly once — Reservation settles atomically)
// instead of committing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "engine/executor.hpp"
#include "obs/metrics.hpp"
#include "query/ast.hpp"
#include "engine/admission.hpp"

namespace privid::service {

enum class QueryState { kQueued, kRunning, kDone, kFailed, kCancelled };

// Why a query was cancelled (QueryJob::cancel_reason; kNone = live). Set
// exactly once by compare-exchange — the first canceller wins, later ones
// observe a settled/settling query.
enum class CancelReason : int {
  kNone = 0,
  kUser,      // QueryService::cancel
  kShutdown,  // scheduler abandoned it during bounded shutdown
};

// One submitted query's full lifecycle state. Created by
// QueryService::submit, driven by the scheduler, observed through
// QueryTicket. The parsed AST lives here because PreparedQuery keeps
// pointers into it.
struct QueryJob {
  // Identity (immutable after submit).
  std::uint64_t id = 0;
  std::string analyst;
  std::uint64_t sequence = 0;  // per-analyst submission ordinal
  // The analyst's analyst.tasks_run counter, bumped once per task run
  // (null counts nothing).
  obs::Counter* tasks_run = nullptr;

  // Execution state (task-owned after submit: each task writes only its
  // own slot; the reservation, rng and assembly belong to whichever task
  // retires last).
  query::ParsedQuery parsed;
  Rng rng{0};  // this query's private noise stream
  std::unique_ptr<engine::Executor> exec;
  std::unique_ptr<engine::PreparedQuery> prepared;
  // [phase][task]: each task's output as a one-task range.
  std::vector<std::vector<engine::TaskRange>> slots;
  engine::Reservation reservation;
  // Tasks not yet retired (run or dropped); set by submit. The task whose
  // decrement reaches zero settles the query.
  std::atomic<std::size_t> tasks_left{0};
  // Started at submit; observed into sched.queue_wait when the first task
  // dispatches (opaque: only the histogram ever sees the duration).
  obs::Stopwatch queue_wait;
  std::atomic<bool> started{false};
  std::atomic<bool> failed{false};
  // First CancelReason to win the compare-exchange (kNone = live). Queued
  // tasks of a cancelled job are dropped when pulled, and finalize()
  // refunds and settles it kCancelled.
  std::atomic<int> cancel_reason{static_cast<int>(CancelReason::kNone)};
  std::mutex error_mu;
  std::exception_ptr task_error;  // first task failure observed

  // Observable state (guarded by mu; cv signals settle).
  mutable std::mutex mu;
  mutable std::condition_variable cv;
  QueryState state = QueryState::kQueued;
  engine::QueryResult result;
  std::exception_ptr error;
};

// Stride scheduler over per-analyst task lanes. Deterministic and
// externally locked (the scheduler calls it under its own mutex); exposed
// and header-only so the policy is unit-testable with plain values.
template <typename Task>
class FairShareQueue {
 public:
  // Creates (or re-weights) the analyst's lane. Weight w gets w shares.
  void set_weight(const std::string& analyst, double weight) {
    Lane& lane = lanes_[analyst];
    lane.weight = weight;
  }

  void push(const std::string& analyst, Task task) {
    Lane& lane = lanes_[analyst];
    if (lane.tasks.empty()) {
      // A lane that was idle re-enters at the current virtual time: it
      // must not burn accumulated credit to monopolize the pool, nor be
      // penalized for having been idle.
      if (lane.pass < virtual_time_) lane.pass = virtual_time_;
    }
    lane.tasks.push_back(std::move(task));
    ++size_;
  }

  // Pops the next task by stride order; false when empty.
  bool pop(Task* out) {
    Lane* best = nullptr;
    for (auto& [id, lane] : lanes_) {  // map order: ties break by id
      if (lane.tasks.empty()) continue;
      if (best == nullptr || lane.pass < best->pass) best = &lane;
    }
    if (best == nullptr) return false;
    virtual_time_ = best->pass;
    best->pass += 1.0 / best->weight;
    *out = std::move(best->tasks.front());
    best->tasks.pop_front();
    --size_;
    return true;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

 private:
  struct Lane {
    std::deque<Task> tasks;
    double weight = 1.0;
    double pass = 0.0;
  };
  std::map<std::string, Lane> lanes_;
  double virtual_time_ = 0.0;
  std::size_t size_ = 0;
};

class QueryScheduler {
 public:
  // Called on the participant that retires a job's last task when the job
  // settles, with the state it settled in (kDone / kFailed / kCancelled),
  // after its reservation committed (kDone) or refunded.
  using SettleCallback = std::function<void(QueryJob&, QueryState settled)>;

  // `pool` (non-owning, may be null for sequential execution) hosts each
  // busy period; `threads` is the number of participants pulling tasks.
  // `owner_mu` (non-owning) is held shared while each task runs (and while
  // it settles its query) so owner-side mutations (mask registration,
  // re-tuning) serialize against in-flight tasks. `shutdown_grace_ms`
  // bounds how long shutdown() waits for in-flight queries to drain
  // before abandoning queued work.
  QueryScheduler(ThreadPool* pool, std::size_t threads,
                 std::shared_mutex* owner_mu, SettleCallback on_settled,
                 std::size_t shutdown_grace_ms = 30000);
  ~QueryScheduler();  // bounded shutdown(), then joins the dispatcher

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  void set_weight(const std::string& analyst, double weight);

  // Enqueues every task of the job (all phases — PROCESS statements are
  // independent) on the analyst's lane. The job must be fully prepared
  // (prepared, slots sized) and have at least one task.
  void submit(const std::shared_ptr<QueryJob>& job);

  // Requests cancellation of a live job. Returns true when this call won
  // the job's cancel race before it settled — its queued tasks will be
  // dropped and it settles kCancelled with `reason`'s error, refunded.
  // Returns false when the job already settled (or another canceller
  // won). Best-effort at the margin: a job observed live here may still
  // complete if it was already finalizing.
  bool cancel(const std::shared_ptr<QueryJob>& job,
              CancelReason reason = CancelReason::kUser);

  // Blocks until every submitted job has settled.
  void drain();

  // Bounded, idempotent shutdown (the destructor calls it): rejects new
  // submissions, waits up to shutdown_grace_ms for in-flight queries to
  // settle, then abandons whatever is still queued — each abandoned job
  // settles kCancelled (CancelledError, kShutdown) and refunds exactly
  // once — and joins the dispatcher. In-process task functions cannot be
  // killed mid-call, so a task already executing still unwinds before
  // the join returns; the grace bound guarantees queued-but-undispatched
  // work is never silently executed past it. (Killing a truly wedged
  // task needs process isolation — ROADMAP's sharded execution item.)
  void shutdown();

  // sched.tasks_run (tasks executed), sched.tasks_dropped (skipped when
  // pulled because their job already failed or was cancelled),
  // sched.rounds (busy periods, one pool batch each), the
  // sched.queued_tasks gauge and the sched.queue_wait histogram.
  const obs::MetricGroup& metrics() const { return metrics_; }

 private:
  struct TaskRef {
    std::shared_ptr<QueryJob> job;
    std::size_t phase = 0;
    std::size_t task = 0;
  };

  void loop();
  // One participant's share of a busy period: pops and runs tasks in
  // stride order until the queue is empty and no task is running.
  void pull();
  // Runs (or drops) one task and, when it is the job's last, settles it.
  void retire(TaskRef& t);
  void finalize(QueryJob& job);

  ThreadPool* pool_;
  const std::size_t threads_;
  std::shared_mutex* owner_mu_;
  SettleCallback on_settled_;
  const std::size_t shutdown_grace_ms_;

  mutable std::mutex mu_;  // guards queue_, counts below, stop_, abandon_
  std::condition_variable work_cv_;  // dispatcher and idle participants
  std::condition_variable idle_cv_;  // drain() waits
  FairShareQueue<TaskRef> queue_;
  std::size_t running_ = 0;  // tasks participants are running right now
  std::size_t unsettled_jobs_ = 0;
  bool stop_ = false;
  // Set by shutdown() after the grace expires: participants drop the
  // entire remaining queue as kShutdown cancellations instead of running
  // it.
  bool abandon_ = false;

  // sched.* metrics; registration declared after the group so it detaches
  // first.
  obs::MetricGroup metrics_;
  obs::Counter* c_tasks_run_ = metrics_.counter("sched.tasks_run");
  obs::Counter* c_tasks_dropped_ = metrics_.counter("sched.tasks_dropped");
  obs::Counter* c_rounds_ = metrics_.counter("sched.rounds");
  obs::Gauge* g_queued_ = metrics_.gauge("sched.queued_tasks");
  obs::LatencyHistogram* h_queue_wait_ =
      metrics_.histogram("sched.queue_wait");
  obs::Registration registration_ =
      obs::Registry::global().attach(&metrics_);
  // privcheck:allow(raw-thread): the dispatcher is the scheduler's single
  // long-lived control-loop thread: an async submit() cannot host a
  // blocking parallel_for, so it hosts each busy period's batch; all
  // per-task PROCESS work still runs on the shared ThreadPool.
  std::thread dispatcher_;
};

}  // namespace privid::service
