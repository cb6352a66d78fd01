// Per-analyst sessions for the multi-analyst query service.
//
// Each analyst the service knows about has one session: a scheduling
// weight (fair-share shares, service/scheduler.hpp), a deterministic
// private noise-stream seed, and an accounting view of what the analyst
// has submitted and spent.
//
// Noise streams: the facade's Privid::execute draws every query's noise
// from one process-wide RNG, which makes a query's releases depend on
// every query executed before it. Under concurrency that ordering is a
// race, so the service gives each *query* its own stream instead, seeded
// from (service seed, analyst id, per-analyst submission ordinal) via the
// fingerprint mixer. A query's releases then depend only on who submitted
// it and how many submissions that analyst made before — never on what
// other analysts are doing — which is what makes results byte-identical
// solo vs. under arbitrary concurrent load.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace privid::service {

class AnalystSession {
 public:
  AnalystSession(std::string id, double weight, std::uint64_t seed);

  const std::string& id() const { return id_; }
  double weight() const;
  void set_weight(double weight);

  // Claims the next submission ordinal (0, 1, 2, ...). Every submission
  // attempt burns one — including those admission later rejects — so a
  // query's noise stream never depends on other analysts' outcomes.
  std::uint64_t next_sequence();
  // The noise seed of this session's `sequence`-th submission. Pure:
  // depends only on the session seed and the ordinal.
  std::uint64_t noise_seed(std::uint64_t sequence) const;

  void record_accepted();
  void record_rejected();
  void record_completed(double epsilon_committed);
  void record_failed();
  void record_cancelled();
  // Bumped by the scheduler participant that runs one of this analyst's
  // tasks (QueryJob keeps the pointer); dropped tasks are not counted.
  obs::Counter* tasks_run_counter() { return c_tasks_run_; }

  const obs::MetricGroup& metrics() const { return metrics_; }

 private:
  const std::string id_;
  const std::uint64_t seed_;
  mutable std::mutex mu_;
  double weight_;
  std::uint64_t next_sequence_ = 0;

  // analyst.* metrics, one counter per settle outcome (aggregated across
  // sessions in a Registry snapshot, which makes them the service-wide
  // totals). Registration declared after the group so it detaches first.
  obs::MetricGroup metrics_;
  obs::Counter* c_accepted_ = metrics_.counter("analyst.submitted");
  obs::Counter* c_completed_ = metrics_.counter("analyst.completed");
  obs::Counter* c_failed_ = metrics_.counter("analyst.failed");
  obs::Counter* c_cancelled_ = metrics_.counter("analyst.cancelled");
  obs::Counter* c_rejected_ = metrics_.counter("analyst.rejected");
  obs::Counter* c_tasks_run_ = metrics_.counter("analyst.tasks_run");
  obs::DoubleCounter* d_epsilon_ =
      metrics_.double_counter("analyst.epsilon_committed");
  obs::Registration registration_ =
      obs::Registry::global().attach(&metrics_);
};

// Thread-safe id -> session map. Sessions are created on first use (weight
// 1.0) or explicitly via register_analyst with a chosen weight; they are
// never removed — accounting must outlive the analyst's last query.
class SessionRegistry {
 public:
  explicit SessionRegistry(std::uint64_t service_seed);

  // Returns the analyst's session, creating it with `weight` if absent.
  // An existing session keeps its seed and counters; its weight is only
  // changed when `update_weight` is set (register_analyst semantics).
  AnalystSession& get_or_create(const std::string& id, double weight = 1.0,
                                bool update_weight = false);
  // Null when the analyst has never been seen.
  const AnalystSession* find(const std::string& id) const;

  // Every session's analyst.* group. The pointers stay valid for the
  // registry's lifetime: sessions are never removed.
  std::vector<const obs::MetricGroup*> metric_groups() const;

 private:
  const std::uint64_t service_seed_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<AnalystSession>> sessions_;
};

}  // namespace privid::service
