// Privid facade: the public entry point of the library.
//
// A video owner constructs a Privid instance, registers cameras (with their
// recordings, (ρ, K) policies, per-frame budget, published masks and region
// schemes) and the analyst-supplied executables, then serves query text.
//
//   privid::engine::Privid system;
//   system.register_camera(...);
//   system.register_executable("count_people", exe);
//   auto result = system.execute(R"(
//     SPLIT camA BEGIN 21600 END 64800 BY TIME 5 STRIDE 0 INTO chunksA;
//     PROCESS chunksA USING count_people TIMEOUT 1 PRODUCING 10 ROWS
//       WITH SCHEMA (entered:NUMBER=0) INTO tableA;
//     SELECT SUM(range(entered, 0, 10)) FROM tableA;
//   )");
//
// Guarantee (Theorems 6.1/6.2): with policy (ρ, K) and per-frame budget ε_C
// per camera, the sequence of all accepted queries is (ρ, K, ε_C)-private.
// The facade owns the one AdmissionController (engine/admission.hpp) that
// writes the ledgers: execute(), standing queries and the query service
// all pay for a query through a single atomic reservation before its first
// PROCESS task, so every path prices and denies identically.
// It also owns the one worker pool every multi-threaded query runs on,
// sized to the hardware once and never replaced.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "engine/admission.hpp"
#include "engine/executor.hpp"
// privcheck:allow(layering): the Privid facade composes the multi-analyst
// QueryService for owners who want admission + fair-share out of the box.
// This is the one sanctioned engine -> service edge; no other engine file
// may include service headers (the cycle stays broken at file granularity:
// service/ never includes engine/privid.hpp).
#include "service/service.hpp"

namespace privid::engine {

struct CameraRegistration {
  VideoMeta meta;
  CameraContent content;
  sensitivity::Policy policy;     // unmasked (ρ, K)
  double epsilon_budget = 10.0;   // per-frame ε_C
  std::map<std::string, MaskEntry> masks;
  std::map<std::string, RegionScheme> regions;
};

class Privid {
 public:
  explicit Privid(std::uint64_t noise_seed = 0xD1CEull);

  // Movable so factory helpers can build-and-return a configured system.
  // The source must be quiescent; a query service on either side is
  // drained and discarded by the move (it holds pointers into its
  // facade's camera map, which do not travel) — move right after
  // registration, before serving queries. The admission controller is
  // not moved: each facade's stays bound to its own camera map.
  Privid(Privid&& other) noexcept;
  Privid& operator=(Privid&& other) noexcept;

  // Owner-side registration. Throws ArgumentError on duplicates / invalid
  // parameters.
  void register_camera(CameraRegistration reg);
  void register_executable(const std::string& name, Executable exe);

  // Publishes (or replaces) a mask after camera registration. Bumps the
  // camera's content epoch: every chunk-cache entry for this camera is
  // invalidated, because a replaced mask changes what PROCESS sees.
  void register_mask(const std::string& camera, const std::string& mask_id,
                     MaskEntry entry);
  // Owner-side re-tuning: replaces the camera's unmasked (ρ, K) policy and
  // bumps the content epoch. The epoch bump is deliberately conservative —
  // re-tuning usually accompanies detector/content changes, and a stale
  // cached row is a correctness bug while a recomputed one is only a
  // cache miss.
  void retune_camera(const std::string& camera, sensitivity::Policy policy);

  bool has_camera(const std::string& id) const;

  // Parses, validates and executes a query: prepare, reserve the whole
  // query's budget (every SELECT, every camera, atomically), PROCESS,
  // release, commit. Throws ParseError / ValidationError /
  // SensitivityError, or BudgetError when admission denies the query —
  // then nothing was charged and no executable ran. A query that fails
  // after admission (e.g. retries exhausted) refunds its reservation.
  QueryResult execute(const std::string& query_text, RunOptions opts = {});
  QueryResult execute(const query::ParsedQuery& q, RunOptions opts = {});

  // Dry run: validates the query, computes per-release sensitivity / noise
  // scale, prices its ledger charges exactly as admission would, and
  // checks admissibility against the current ledgers — without processing
  // a single chunk or consuming budget. Each SELECT is checked on its own;
  // admission reserves them cumulatively, so a multi-SELECT query that
  // only fits one SELECT at a time is denied at admission, whole.
  QueryPlan plan(const std::string& query_text) const;
  QueryPlan plan(const query::ParsedQuery& q) const;

  // ---- Multi-analyst query service (async path) ----
  //
  // The service front door: per-analyst sessions, admission through this
  // facade's controller (budget reserved atomically at submit; rejection
  // throws BudgetError from submit, nothing charged), weighted fair-share
  // scheduling of
  // chunk tasks, and in-flight dedup of identical chunk work (see
  // service/service.hpp). Owner-side mutations on this facade
  // (register_mask, retune_camera, restore_budget, ...) serialize against
  // in-flight service queries via the service's owner mutex.
  //
  // service() lazily creates the service with a default config (all
  // hardware threads, shared cache, this facade's noise seed); call
  // configure_service first to choose differently. Either way the
  // service borrows the facade's one worker pool, the same one
  // execute() uses. Note the service's
  // per-query noise streams are deliberately not execute()'s process-wide
  // stream — see service/session.hpp.
  service::QueryService& service();
  // Creates the service with `config` (noise_seed 0 inherits this
  // facade's). Throws ArgumentError if the service already exists.
  service::QueryService& configure_service(
      service::QueryService::Config config);
  bool has_service() const;

  // Async convenience wrappers: submit under `analyst` (session created on
  // first use, weight 1.0), poll the ticket, or block for the result.
  service::QueryTicket submit(const std::string& analyst,
                              const std::string& query_text,
                              RunOptions opts = {});
  service::QueryState poll(const service::QueryTicket& ticket) const;
  QueryResult wait(const service::QueryTicket& ticket) const;
  // Requests cancellation (QueryService::cancel): true when the request
  // won before the query settled — it refunds in full and wait() throws
  // CancelledError.
  bool cancel(const service::QueryTicket& ticket);

  // Budget persistence: a restarted deployment that forgets past charges
  // silently voids the privacy guarantee, so ledgers are serializable.
  // save_budget writes one camera's ledger; restore_budget replaces it
  // (the camera must already be registered with the same ε_C).
  void save_budget(const std::string& camera, std::ostream& os) const;
  void restore_budget(const std::string& camera, std::istream& is);

  // Remaining per-frame budget (owner-side diagnostics).
  double remaining_budget(const std::string& camera, FrameIndex frame) const;
  // Minimum remaining budget over a time window.
  double min_remaining_budget(const std::string& camera,
                              TimeInterval window) const;

  const VideoMeta& camera_meta(const std::string& camera) const;

  // The process-wide chunk-output cache, shared by every query this
  // instance executes with CacheMode::kShared (standing queries included).
  // Exposed so owners can size it (set_byte_budget) or drop it wholesale.
  ChunkCache& chunk_cache() { return *cache_; }
  // Cumulative hit/miss/eviction counters and current footprint of the
  // shared cache — the observability hook tests and benches assert on.
  CacheStats cache_stats() const { return cache_->stats(); }

 private:
  // The one worker pool, serving every query (ad-hoc, standing and
  // service) whose thread count resolves to > 1; null for sequential
  // requests. Created at hardware size on the first such request and never
  // replaced: each query caps its own batches at its num_threads through
  // parallel_for's max_threads, and the query service borrows the same
  // pool.
  ThreadPool* shared_pool(std::size_t num_threads);

  // The service pointer under its creation lock (null until first use).
  // Two analysts making their first submit() concurrently must not race
  // the lazy construction; the pointer is stable once set (the service
  // lives until ~Privid), so callers may use it after the lock drops.
  service::QueryService* service_ptr() const {
    std::lock_guard<std::mutex> lock(service_mu_);
    return service_.get();
  }

  // Runs `fn` under the service's exclusive owner lock when the service
  // exists (owner-side mutations must not race in-flight queries).
  template <typename Fn>
  void with_owner_lock(Fn&& fn) {
    if (service::QueryService* svc = service_ptr()) {
      std::unique_lock<std::shared_mutex> lock(svc->owner_mutex());
      fn();
    } else {
      fn();
    }
  }

  std::map<std::string, CameraState> cameras_;
  // The one ledger writer, bound to cameras_ (never moved with it).
  AdmissionController admission_{&cameras_};
  ExecutableRegistry registry_;
  Rng noise_rng_;
  std::uint64_t noise_seed_;
  std::mutex pool_mu_;  // guards pool_ creation
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ChunkCache> cache_;
  mutable std::mutex service_mu_;  // guards service_ creation
  std::unique_ptr<service::QueryService> service_;
};

}  // namespace privid::engine
