// Shared worker pool for data-parallel engine phases.
//
// The executor's PROCESS phase is embarrassingly parallel: every
// chunk x region sandbox invocation is a pure function of its ChunkView
// with a private random tape (engine/sandbox.hpp), so invocations can run
// in any order on any thread. The pool deliberately has no work stealing
// and no futures — every participant writes into caller-owned state, so
// results are byte-identical to the sequential order no matter how the
// scheduler interleaves tasks.
//
// Participants claim indices in guided morsels: one fetch_add on the
// batch's cursor takes max(1, unclaimed / (4 x participants)) consecutive
// indices. Microsecond tasks (a Porto fan-out runs 10^4-10^5 of them per
// query) then pay one shared-cacheline RMW per morsel instead of per
// index, while the grain shrinks to a single index at the tail, so a
// batch of a few long tasks still spreads one task per thread. The range
// form hands each morsel to the body whole, as [begin, end), so a body can
// also amortize its own per-call costs (one output buffer per morsel).
//
// Determinism contract: parallel_for_ranges(n, fn) calls fn(begin, end)
// over disjoint ranges that together cover [0, n), each index exactly
// once; fn must only write state owned by its range. parallel_for(n, fn)
// is the index form over it: fn(i) runs exactly once for every i. Under
// either contract the observable outcome is independent of the worker
// count; only the range boundaries vary, so a range body's output must
// not depend on where its range was cut.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace privid {

class ThreadPool {
 public:
  // Spawns `workers` background threads. The calling thread also executes
  // tasks inside parallel_for, so total parallelism is workers + 1;
  // for_threads(n) below sizes a pool for "n threads of compute".
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }
  // Total compute threads a parallel_for uses (workers + the caller).
  std::size_t parallelism() const { return workers_.size() + 1; }

  using RangeFn = std::function<void(std::size_t begin, std::size_t end)>;

  // Runs fn over ranges [begin, end) that tile [0, n), distributed over
  // the workers and the calling thread; blocks until all complete. Each
  // claimed morsel reaches fn as one range, except that an index whose
  // pool.task fault fires (a participant lost as it picks the index up) is
  // cut out of its morsel and never reaches fn. Concurrent calls from
  // different threads are serialized. A nested call from inside a task
  // runs inline on the calling thread (no deadlock, same results).
  //
  // Errors: an exception from fn(begin, end) is attributed to `begin`, a
  // lost index to itself, and after the batch drains the one with the
  // lowest index is rethrown. A body that walks its range in ascending
  // order and throws its first failure therefore surfaces exactly the
  // failure a sequential loop would have hit first.
  //
  // `max_threads` caps the compute threads participating in THIS batch
  // (0 = no cap). A hardware-sized pool serves smaller requests without
  // respawning workers: the first max_threads - 1 workers to wake join and
  // the rest sit the batch out. The cap never changes results — only
  // resource use. On return every participant has left the batch, so the
  // active-worker gauge reads zero at quiescence.
  void parallel_for_ranges(std::size_t n, const RangeFn& fn,
                           std::size_t max_threads = 0);

  // Index form: runs fn(0), ..., fn(n-1), each exactly once (every index
  // runs even after another throws), and rethrows the exception of the
  // lowest failing index. A thin adapter over parallel_for_ranges.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t max_threads = 0);

  // Resolves a RunOptions-style thread count: 0 means "all hardware
  // threads" (at least 1), anything else is taken literally.
  static std::size_t resolve_threads(std::size_t requested);

  // pool.* metrics, among them the pool.queue_depth (indices of the
  // current batch not yet claimed) and pool.active_workers (participants
  // executing tasks, a participating caller included) gauges.
  const obs::MetricGroup& metrics() const { return metrics_; }

 private:
  struct Batch {
    std::size_t n = 0;
    const RangeFn* fn = nullptr;
    std::size_t max_workers = 0;            // worker join cap (caller extra)
    std::atomic<std::size_t> joined{0};     // workers that claimed a slot
    std::atomic<std::size_t> next{0};       // first unclaimed index
    std::atomic<std::size_t> remaining{0};  // indices not yet finished
    std::atomic<std::size_t> inside{0};  // participants still in work()
    std::mutex error_mu;
    std::exception_ptr first_error;
    std::size_t first_error_index = 0;
  };

  void worker_loop();
  void work(Batch& batch);
  // Runs the claimed indices [begin, end) of `batch`: one pool.task visit
  // per index, then fn over the runs of indices no fault removed.
  static void run_morsel(Batch& batch, std::size_t begin, std::size_t end);

  std::vector<std::thread> workers_;
  std::mutex mu_;                  // guards batch_, generation_, stop_
  std::condition_variable wake_;   // workers wait for a new batch / stop
  std::condition_variable done_;   // caller waits for batch completion
  std::shared_ptr<Batch> batch_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::mutex run_mu_;              // serializes parallel_for callers

  // pool.* metrics; registration declared after the group so it detaches
  // first.
  obs::MetricGroup metrics_;
  obs::Counter* c_batches_ = metrics_.counter("pool.batches");
  obs::Counter* c_items_ = metrics_.counter("pool.items");
  obs::Counter* c_inline_batches_ = metrics_.counter("pool.inline_batches");
  obs::Counter* c_inline_items_ = metrics_.counter("pool.inline_items");
  obs::Gauge* g_workers_ = metrics_.gauge("pool.workers");
  obs::Gauge* g_queue_depth_ = metrics_.gauge("pool.queue_depth");
  obs::Gauge* g_active_workers_ = metrics_.gauge("pool.active_workers");
  obs::LatencyHistogram* h_batch_ = metrics_.histogram("pool.batch");
  obs::Registration registration_ =
      obs::Registry::global().attach(&metrics_);
};

}  // namespace privid
