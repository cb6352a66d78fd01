#include "engine/single_flight.hpp"

#include <utility>

#include "fault/fault.hpp"
#include "obs/trace.hpp"

namespace privid::engine {

bool SingleFlight::run(const Fingerprint& key, const Compute& compute,
                       ColumnSlab* out) {
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = flights_.try_emplace(key);
    if (inserted) it->second = std::make_shared<Flight>();
    flight = it->second;
    leader = inserted;
  }

  if (leader) {
    // Publish only after compute returns — compute also inserts into the
    // chunk cache (see PreparedQuery::append_task), so by the time the flight
    // is retired the cache already covers the key and a late arrival hits
    // one or the other, never neither.
    try {
      ColumnSlab slab = compute();
      // Models the leader dying *after* compute (which has already inserted
      // into the chunk cache) but before publishing: followers fall back to
      // compute() and hit the cache, and the thrown TransientError reaches
      // the executor's retry ladder on the leader's own task.
      fault::inject("flight.leader");
      {
        std::lock_guard<std::mutex> lock(mu_);
        flights_.erase(key);
      }
      c_leaders_->add();
      {
        std::lock_guard<std::mutex> lock(flight->mu);
        flight->slab = slab;
        flight->done = true;
      }
      flight->cv.notify_all();
      *out = std::move(slab);
      return true;
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        flights_.erase(key);
      }
      {
        std::lock_guard<std::mutex> lock(flight->mu);
        flight->failed = true;
        flight->done = true;
      }
      flight->cv.notify_all();
      throw;
    }
  }

  bool leader_failed = false;
  {
    obs::Span span("dedup.wait", "dedup");
    obs::ScopedTimer timer(h_wait_);
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&] { return flight->done; });
    leader_failed = flight->failed;
    if (!leader_failed) *out = flight->slab;
    span.tag("outcome", leader_failed ? "fallback" : "served");
  }
  if (leader_failed) {
    c_fallbacks_->add();
    // The leader failed; compute independently so one analyst's crash
    // cannot fail another analyst's query.
    *out = compute();
  } else {
    c_followers_->add();
  }
  return false;
}

}  // namespace privid::engine
