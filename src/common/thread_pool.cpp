#include "common/thread_pool.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "obs/trace.hpp"

namespace privid {

namespace {
// A task that calls parallel_for again must not block on run_mu_ (its own
// batch holds the lock); it runs the nested loop inline instead.
thread_local bool t_inside_pool_task = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  g_workers_->set(static_cast<std::int64_t>(workers_.size()));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t max_threads) {
  parallel_for_ranges(
      n,
      [&fn](std::size_t begin, std::size_t end) {
        // Every index runs; the range rethrows its lowest failure, which
        // the batch orders by the range's begin.
        std::exception_ptr first;
        for (std::size_t i = begin; i < end; ++i) {
          try {
            fn(i);
          } catch (...) {
            if (!first) first = std::current_exception();
          }
        }
        if (first) std::rethrow_exception(first);
      },
      max_threads);
}

void ThreadPool::parallel_for_ranges(std::size_t n, const RangeFn& fn,
                                     std::size_t max_threads) {
  if (n == 0) return;
  if (workers_.empty() || n == 1 || max_threads == 1 || t_inside_pool_task) {
    // Inline execution, tagged so traces can distinguish it from a real
    // fan-out (the nested-call case especially, where a task re-entering
    // parallel_for silently runs sequential).
    obs::Span span("pool.inline", "pool");
    if (span.active()) {
      span.tag("items", static_cast<std::uint64_t>(n));
      span.tag("reason", workers_.empty()    ? "no-workers"
                         : n == 1            ? "single-item"
                         : max_threads == 1  ? "capped"
                                             : "nested");
    }
    c_inline_batches_->add();
    c_inline_items_->add(n);
    // The whole batch is one morsel on the caller: the same fault seam and
    // error ordering as the pooled path below.
    Batch batch;
    batch.n = n;
    batch.fn = &fn;
    run_morsel(batch, 0, n);
    if (batch.first_error) std::rethrow_exception(batch.first_error);
    return;
  }

  std::lock_guard<std::mutex> serialize(run_mu_);
  obs::Span span("pool.batch", "pool");
  obs::ScopedTimer timer(h_batch_);
  c_batches_->add();
  c_items_->add(n);
  g_queue_depth_->set(static_cast<std::int64_t>(n));
  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->fn = &fn;
  batch->max_workers =
      max_threads == 0 ? workers_.size()
                       : std::min(workers_.size(), max_threads - 1);
  if (span.active()) {
    span.tag("items", static_cast<std::uint64_t>(n));
    span.tag("max_workers", static_cast<std::uint64_t>(batch->max_workers));
  }
  batch->remaining.store(n, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(mu_);
    batch_ = batch;
    ++generation_;
  }
  wake_.notify_all();

  work(*batch);  // the caller participates

  std::unique_lock<std::mutex> lk(mu_);
  done_.wait(lk, [&] {
    return batch->remaining.load(std::memory_order_acquire) == 0 &&
           batch->inside.load(std::memory_order_acquire) == 0;
  });
  batch_ = nullptr;  // workers keep the shared_ptr alive while draining
  lk.unlock();
  g_queue_depth_->set(0);

  // Move the error out of the batch: a worker may drop the last reference
  // to the batch after this returns, and must not be the thread that
  // releases the exception the caller is still handling.
  if (std::exception_ptr error = std::move(batch->first_error)) {
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lk(mu_);
      wake_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      batch = batch_;
    }
    // Respect the batch's participation cap: surplus workers sit it out.
    if (batch &&
        batch->joined.fetch_add(1, std::memory_order_relaxed) <
            batch->max_workers) {
      work(*batch);
    }
  }
}

void ThreadPool::work(Batch& batch) {
  t_inside_pool_task = true;
  // A participant counts as active from its first claimed morsel until it
  // finds the batch drained. parallel_for returns only once `inside` is
  // back at zero, so the gauges read zero at quiescence; a worker that
  // arrives after the last index was claimed never counts at all.
  bool counted = false;
  const std::size_t divisor = 4 * (batch.max_workers + 1);  // + the caller
  for (;;) {
    // Guided grain from a possibly stale cursor read: a stale read only
    // makes the grain larger than the exact guided value, never zero.
    const std::size_t seen = batch.next.load(std::memory_order_relaxed);
    if (seen >= batch.n) break;
    const std::size_t grain =
        std::max<std::size_t>(1, (batch.n - seen) / divisor);
    const std::size_t begin =
        batch.next.fetch_add(grain, std::memory_order_relaxed);
    if (begin >= batch.n) break;
    const std::size_t end = std::min(batch.n, begin + grain);
    const std::size_t claimed = end - begin;
    if (!counted) {
      counted = true;
      batch.inside.fetch_add(1, std::memory_order_relaxed);
      g_active_workers_->add(1);
    }
    g_queue_depth_->sub(static_cast<std::int64_t>(claimed));
    run_morsel(batch, begin, end);
    if (batch.remaining.fetch_sub(claimed, std::memory_order_acq_rel) ==
        claimed) {
      std::lock_guard<std::mutex> lk(mu_);  // pair with the caller's wait
      done_.notify_all();
    }
  }
  if (counted) {
    g_active_workers_->sub(1);
    if (batch.inside.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lk(mu_);  // pair with the caller's wait
      done_.notify_all();
    }
  }
  t_inside_pool_task = false;
}

void ThreadPool::run_morsel(Batch& batch, std::size_t begin,
                            std::size_t end) {
  const auto fail = [&batch](std::size_t index, std::exception_ptr error) {
    std::lock_guard<std::mutex> lk(batch.error_mu);
    if (!batch.first_error || index < batch.first_error_index) {
      batch.first_error = std::move(error);
      batch.first_error_index = index;
    }
  };
  const auto run = [&](std::size_t lo, std::size_t hi) {
    if (lo == hi) return;
    try {
      (*batch.fn)(lo, hi);
    } catch (...) {
      fail(lo, std::current_exception());
    }
  };
  std::size_t lo = begin;
  for (std::size_t i = begin; i < end; ++i) {
    std::exception_ptr lost;
    try {
      // Models a worker dying as it picks up index i — before the body
      // sees it, so it lands in first_error like any task failure.
      fault::inject("pool.task");
    } catch (...) {
      lost = std::current_exception();
    }
    if (!lost) continue;
    run(lo, i);
    fail(i, std::move(lost));
    lo = i + 1;
  }
  run(lo, end);
}

}  // namespace privid
