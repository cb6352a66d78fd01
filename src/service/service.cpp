#include "service/service.hpp"

#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "query/parser.hpp"

namespace privid::service {

std::uint64_t QueryTicket::id() const {
  if (!job_) throw ArgumentError("empty QueryTicket");
  return job_->id;
}

const std::string& QueryTicket::analyst() const {
  if (!job_) throw ArgumentError("empty QueryTicket");
  return job_->analyst;
}

QueryService::QueryService(std::map<std::string, engine::CameraState>* cameras,
                           const engine::ExecutableRegistry* registry,
                           engine::ChunkCache* shared_cache,
                           engine::AdmissionController* admission,
                           Config config, ThreadPool* shared_pool)
    : cameras_(cameras), registry_(registry), shared_cache_(shared_cache),
      config_(config), cache_mode_(engine::resolve_cache_mode(config.cache)),
      sessions_(config.noise_seed), admission_(admission) {
  if (!cameras || !registry || !admission) {
    throw ArgumentError(
        "QueryService requires cameras, registry and admission");
  }
  std::size_t threads = ThreadPool::resolve_threads(config_.num_threads);
  if (threads > 1) {
    if (shared_pool == nullptr) {
      throw ArgumentError("QueryService with threads > 1 requires a pool");
    }
    pool_ = shared_pool;
  }
  scheduler_ = std::make_unique<QueryScheduler>(
      pool_, threads, &owner_mu_,
      [this](QueryJob& job, QueryState settled) {
        AnalystSession& session = sessions_.get_or_create(job.analyst);
        if (settled == QueryState::kDone) {
          // kDone means finalize committed the reservation.
          session.record_completed(job.reservation.total_epsilon());
        } else if (settled == QueryState::kCancelled) {
          session.record_cancelled();
        } else {
          session.record_failed();
        }
      },
      config.shutdown_grace_ms);
}

QueryService::~QueryService() {
  // Settle everything (bounded — abandoned queries cancel and refund)
  // before members are torn down; shutting down here rather than via
  // scheduler_'s own destructor keeps accounting callbacks running
  // against a fully-alive service.
  scheduler_->shutdown();
  scheduler_.reset();
}

void QueryService::register_analyst(const std::string& id, double weight) {
  sessions_.get_or_create(id, weight, /*update_weight=*/true);
  scheduler_->set_weight(id, weight);
}

QueryTicket QueryService::submit(const std::string& analyst,
                                 const std::string& query_text,
                                 engine::RunOptions opts) {
  return submit(analyst, query::parse_query(query_text), std::move(opts));
}

QueryTicket QueryService::submit(const std::string& analyst,
                                 query::ParsedQuery q,
                                 engine::RunOptions opts) {
  obs::Span span("service.submit", "service");
  if (span.active()) span.tag("analyst", analyst);
  obs::ScopedTimer timer(h_submit_);
  AnalystSession& session = sessions_.get_or_create(analyst);

  // Reads camera/registry state: exclude concurrent owner mutations.
  std::shared_lock<std::shared_mutex> owner(owner_mu_);

  auto job = std::make_shared<QueryJob>();
  job->analyst = analyst;
  job->sequence = session.next_sequence();
  job->tasks_run = session.tasks_run_counter();
  job->parsed = std::move(q);
  // The query's private noise stream: a pure function of (service seed,
  // analyst, submission ordinal) — independent of concurrent load.
  job->rng = Rng(session.noise_seed(job->sequence));
  job->exec = std::make_unique<engine::Executor>(
      cameras_, registry_, &job->rng, /*pool=*/nullptr, shared_cache_,
      &inflight_);

  opts.cache = cache_mode_;  // service policy overrides the caller's

  // Decompose first (validates and resolves everything), then admit — a
  // malformed query must not briefly hold budget.
  job->prepared = std::make_unique<engine::PreparedQuery>(
      job->exec->prepare(job->parsed, opts));

  try {
    job->reservation = admission_->reserve(*job->prepared);
  } catch (const BudgetError&) {
    session.record_rejected();
    if (span.active()) span.tag("outcome", "rejected");
    throw;
  }

  job->slots.resize(job->prepared->phase_count());
  for (std::size_t phase = 0; phase < job->prepared->phase_count(); ++phase) {
    job->slots[phase].resize(job->prepared->task_count(phase));
  }

  session.record_accepted();
  {
    std::lock_guard<std::mutex> lock(id_mu_);
    job->id = next_query_id_++;
  }
  if (span.active()) span.tag("query", job->id).tag("outcome", "admitted");
  scheduler_->set_weight(analyst, session.weight());
  scheduler_->submit(job);
  return QueryTicket(job);
}

QueryState QueryService::poll(const QueryTicket& ticket) const {
  if (!ticket.valid()) throw ArgumentError("empty QueryTicket");
  std::lock_guard<std::mutex> lock(ticket.job_->mu);
  return ticket.job_->state;
}

engine::QueryResult QueryService::wait(const QueryTicket& ticket) const {
  if (!ticket.valid()) throw ArgumentError("empty QueryTicket");
  QueryJob& job = *ticket.job_;
  std::unique_lock<std::mutex> lock(job.mu);
  job.cv.wait(lock, [&] {
    return job.state == QueryState::kDone ||
           job.state == QueryState::kFailed ||
           job.state == QueryState::kCancelled;
  });
  if (job.state != QueryState::kDone) std::rethrow_exception(job.error);
  return job.result;
}

bool QueryService::cancel(const QueryTicket& ticket) {
  if (!ticket.valid()) throw ArgumentError("empty QueryTicket");
  return scheduler_->cancel(ticket.job_, CancelReason::kUser);
}

void QueryService::drain() { scheduler_->drain(); }

void QueryService::shutdown() { scheduler_->shutdown(); }

obs::Snapshot QueryService::metrics() const {
  std::vector<const obs::MetricGroup*> groups = sessions_.metric_groups();
  groups.push_back(&metrics_);
  groups.push_back(&scheduler_->metrics());
  groups.push_back(&inflight_.metrics());
  return obs::snapshot_of(groups);
}

obs::Snapshot QueryService::analyst_metrics(const std::string& id) const {
  const AnalystSession* session = sessions_.find(id);
  if (!session) throw LookupError("unknown analyst '" + id + "'");
  return session->metrics().snapshot();
}

}  // namespace privid::service
