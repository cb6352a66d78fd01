// QueryService: the multi-analyst front door.
//
// The Privid facade executes one query at a time on the caller's thread.
// The paper's deployment model is the opposite — many analysts querying a
// shared camera fleet under one privacy budget — and this service is that
// front door:
//
//   - per-analyst sessions (service/session.hpp): fair-share weight, a
//     private deterministic noise stream per query, accounting;
//   - admission control (engine/admission.hpp, the facade's controller —
//     the same one Privid::execute pays through): the full query cost is
//     reserved against every involved camera's ledger atomically at
//     submit; insufficient budget rejects at the door (BudgetError from
//     submit), and an admitted query that later aborts is refunded exactly
//     once;
//   - weighted fair-share scheduling (service/scheduler.hpp): admitted
//     queries decompose into chunk-level tasks interleaved on the shared
//     thread pool, so a flood from one analyst cannot starve another;
//   - in-flight dedup (engine/single_flight.hpp): identical concurrent
//     chunk work — keyed by the same common/fingerprint scheme as the
//     chunk cache, composed with it — runs once, so N analysts asking
//     overlapping questions pay ~1x the PROCESS cost.
//
// Determinism: a query's releases, sensitivities and ledger charges are
// byte-identical whether it runs alone or amid arbitrary concurrent load,
// at any thread count. Releases depend only on (service seed, analyst id,
// the analyst's submission ordinal) and the query itself; ledger charges
// are exactly what a direct Privid::execute reserves (both price through
// PreparedQuery::admission_charges). Note the service's noise streams
// intentionally differ from Privid::execute's process-wide stream — a
// shared sequential stream is exactly what cannot be deterministic under
// concurrency.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>

#include "engine/chunk_cache.hpp"
#include "engine/executor.hpp"
#include "engine/registry.hpp"
#include "engine/single_flight.hpp"
#include "engine/admission.hpp"
#include "service/scheduler.hpp"
#include "service/session.hpp"

namespace privid::service {

// Handle to a submitted query. Copyable; all copies observe the same job.
class QueryTicket {
 public:
  QueryTicket() = default;
  bool valid() const { return job_ != nullptr; }
  std::uint64_t id() const;
  const std::string& analyst() const;

 private:
  friend class QueryService;
  explicit QueryTicket(std::shared_ptr<QueryJob> job) : job_(std::move(job)) {}
  std::shared_ptr<QueryJob> job_;
};

class QueryService {
 public:
  struct Config {
    // Compute threads serving PROCESS tasks (0 = all hardware threads,
    // 1 = run tasks on the dispatcher thread).
    std::size_t num_threads = 0;
    // Chunk-output cache policy for every query this service runs
    // (kDefault resolves PRIVID_CACHE). Service policy, not per-query:
    // RunOptions::cache passed to submit() is ignored.
    engine::CacheMode cache = engine::CacheMode::kDefault;
    // Base seed for every per-query noise stream (the Privid facade passes
    // its own noise seed, so facade-created services are reproducible).
    std::uint64_t noise_seed = 0x5EAF00Dull;
    // Bound on how long shutdown() (and the destructor) waits for
    // in-flight queries before abandoning queued work — each abandoned
    // query settles kCancelled and refunds (see QueryScheduler::shutdown).
    std::size_t shutdown_grace_ms = 30000;
  };

  // Constructed by the Privid facade, which lends its registrations, its
  // admission controller and its worker pool; all are non-owning and must
  // outlive the service. `shared_cache` may be null (kShared degrades to
  // uncached). `shared_pool` serves num_threads > 1 and is required then.
  QueryService(std::map<std::string, engine::CameraState>* cameras,
               const engine::ExecutableRegistry* registry,
               engine::ChunkCache* shared_cache,
               engine::AdmissionController* admission, Config config,
               ThreadPool* shared_pool);
  ~QueryService();  // drains every in-flight query first

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Creates the analyst's session with the given fair-share weight, or
  // re-weights an existing one. Unknown analysts submitting directly get
  // weight 1.0 implicitly.
  void register_analyst(const std::string& id, double weight = 1.0);

  // Parses, validates, plans and admits the query, then enqueues its chunk
  // tasks; returns immediately. Throws ParseError / ValidationError /
  // SensitivityError for malformed queries and BudgetError when admission
  // denies it (nothing charged). opts.charge_budget = false reserves
  // nothing (owner-side what-if runs); opts.cache is overridden by the
  // service's configured mode.
  QueryTicket submit(const std::string& analyst,
                     const std::string& query_text,
                     engine::RunOptions opts = {});
  QueryTicket submit(const std::string& analyst, query::ParsedQuery q,
                     engine::RunOptions opts = {});

  QueryState poll(const QueryTicket& ticket) const;
  // Blocks until the query settles; returns its result or rethrows the
  // error that failed/cancelled it (after its reservation was refunded —
  // CancelledError for a cancellation).
  engine::QueryResult wait(const QueryTicket& ticket) const;
  // Requests cancellation. True when the request won before the query
  // settled: its remaining tasks are dropped, it settles kCancelled and
  // its reservation refunds exactly once. False when it had already
  // settled. Best-effort at the margin — a query observed live here may
  // still complete if it was already finalizing.
  bool cancel(const QueryTicket& ticket);
  // Blocks until every submitted query has settled.
  void drain();
  // Bounded shutdown (the destructor calls it): waits up to
  // Config::shutdown_grace_ms for in-flight queries, then abandons queued
  // ones as kCancelled with a full refund. Subsequent submits throw.
  void shutdown();

  // This service's metrics as one snapshot: the service.submit histogram,
  // the scheduler's sched.*, the single-flight's dedup.* and every
  // session's analyst.* group. Same-named metrics sum, so analyst.* reads
  // as service-wide totals (docs/OBSERVABILITY.md has the catalog).
  obs::Snapshot metrics() const;
  // One analyst's analyst.* counters (throws LookupError for an analyst
  // the service has never seen).
  obs::Snapshot analyst_metrics(const std::string& id) const;

  // Held shared while queries execute; owner-side mutations (mask
  // registration, re-tuning, budget restore) must hold it exclusively so
  // they serialize against in-flight queries (the Privid facade does).
  std::shared_mutex& owner_mutex() { return owner_mu_; }

 private:
  std::map<std::string, engine::CameraState>* cameras_;
  const engine::ExecutableRegistry* registry_;
  engine::ChunkCache* shared_cache_;
  const Config config_;
  const engine::CacheMode cache_mode_;  // config_.cache resolved

  std::shared_mutex owner_mu_;
  SessionRegistry sessions_;
  engine::AdmissionController* admission_;
  engine::SingleFlight inflight_;
  ThreadPool* pool_ = nullptr;  // null when num_threads resolves to 1
  std::unique_ptr<QueryScheduler> scheduler_;

  mutable std::mutex id_mu_;
  std::uint64_t next_query_id_ = 1;

  // service.* metrics (query outcomes are counted per analyst, in the
  // sessions); registration declared after the group so it detaches first.
  obs::MetricGroup metrics_;
  obs::LatencyHistogram* h_submit_ = metrics_.histogram("service.submit");
  obs::Registration registration_ =
      obs::Registry::global().attach(&metrics_);
};

}  // namespace privid::service
