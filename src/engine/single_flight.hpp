// Single-flight execution of identical in-flight chunk work.
//
// The chunk cache (engine/chunk_cache.hpp) deduplicates PROCESS work
// *across time*: a chunk computed once is served from memory afterwards.
// It does nothing for work that is identical and *concurrent* — N analysts
// asking overlapping questions about the same camera all miss the cold
// cache together and would each pay the full sandbox cost. SingleFlight
// closes that gap: tasks are keyed by the same common/fingerprint scheme
// the cache uses, the first arrival for a key becomes the leader and
// computes (inserting into the cache inside its flight, so there is no
// window where neither the flight nor the cache covers the key), and every
// concurrent arrival for the same key blocks and receives the leader's
// slab instead of recomputing. Composed with the cache — lookup first,
// single-flight the miss — N identical concurrent queries pay ~1x the
// PROCESS cost.
//
// Failure: if the leader's computation throws, waiting followers fall back
// to computing individually (returning the leader's error to an unrelated
// query would couple failure domains across analysts).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "table/column.hpp"

namespace privid::engine {

class SingleFlight {
 public:
  using Compute = std::function<ColumnSlab()>;

  // Runs `compute` under single-flight for `key`: if no flight for `key`
  // is active this call leads (computes, publishes, returns true); if one
  // is, this call blocks until the leader finishes and receives its slab
  // (returns false). `compute` must be a pure function of `key` — two
  // callers with equal keys must accept each other's output.
  bool run(const Fingerprint& key, const Compute& compute, ColumnSlab* out);

  // dedup.leaders (calls that computed), dedup.followers (calls served by
  // a concurrent leader), dedup.fallbacks (followers that recomputed after
  // a leader failure) and the dedup.wait histogram.
  const obs::MetricGroup& metrics() const { return metrics_; }

 private:
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool failed = false;
    ColumnSlab slab;
  };

  mutable std::mutex mu_;  // guards flights_
  std::unordered_map<Fingerprint, std::shared_ptr<Flight>, FingerprintHash>
      flights_;

  // Per-instance dedup.* metrics; registration after the group so it
  // detaches first.
  obs::MetricGroup metrics_;
  obs::Counter* c_leaders_ = metrics_.counter("dedup.leaders");
  obs::Counter* c_followers_ = metrics_.counter("dedup.followers");
  obs::Counter* c_fallbacks_ = metrics_.counter("dedup.fallbacks");
  obs::LatencyHistogram* h_wait_ = metrics_.histogram("dedup.wait");
  obs::Registration registration_ =
      obs::Registry::global().attach(&metrics_);
};

}  // namespace privid::engine
