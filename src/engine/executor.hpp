// Query execution (Algorithm 1).
//
// The executor runs one parsed query end to end:
//   1. SPLIT  — resolve the camera, clip to the recording, enumerate chunks
//   2. PROCESS — run the analyst executable over every chunk (x region) in
//      the sandbox, assembling the untrusted intermediate table with the
//      trusted `chunk` (and `region`, `camera`) columns appended
//   3. SELECT — validate, compute per-release sensitivity on the AST
//      (Fig. 10), evaluate the raw aggregate, add Laplace noise (line 13),
//      and emit the releases
//
// Budget accounting (lines 1-5) happens before PROCESS, not here: every
// caller reserves PreparedQuery::admission_charges() through the
// AdmissionController (engine/admission.hpp) between prepare() and the
// first task, so the executor itself never writes a ledger. A SELECT's
// charge per frame is
//     ε_release x (#aggregate projections) x Π|WITH KEYS|
// where ε_release is release_epsilon(): CONSUMING, else kDefaultEpsilon.
// Releases grouped over *trusted* chunk bins partition the window in time,
// so they share one charge (the Theorem E.2 cross-bin argument); releases
// keyed by analyst columns all cover the same frames and therefore add.
//
// prepare() exposes the task-granular pipeline — a PreparedQuery whose
// chunk-level tasks an external scheduler (service/scheduler.hpp) can
// interleave with other queries' tasks; run() drives the same tasks on
// the caller's thread (fanning PROCESS over the thread pool, one range of
// tasks per claimed morsel, when RunOptions::num_threads > 1). Both
// produce byte-identical releases and sensitivities.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "engine/chunk_cache.hpp"
#include "engine/registry.hpp"
#include "engine/sandbox.hpp"
#include "engine/single_flight.hpp"
#include "privacy/budget.hpp"
#include "query/ast.hpp"
#include "sensitivity/constraints.hpp"
#include "video/chunker.hpp"
#include "video/region.hpp"

namespace privid::engine {

struct MaskEntry {
  Mask mask;
  sensitivity::Policy policy;  // the (ρ, K) this mask buys (§7.1)
};

// Everything the owner registers for one camera.
struct CameraState {
  VideoMeta meta;
  CameraContent content;
  sensitivity::Policy policy;    // unmasked (ρ, K)
  double epsilon_budget = 10.0;  // per-frame allocation ε_C
  std::map<std::string, MaskEntry> masks;
  std::map<std::string, RegionScheme> regions;
  std::unique_ptr<BudgetLedger> ledger;  // created at registration
  // Bumped by owner-side changes that can alter what PROCESS sees for a
  // chunk (mask (re)registration, camera re-tuning). The chunk-output
  // cache folds it into every key, so a bump atomically invalidates all of
  // this camera's cached rows without scanning the cache.
  std::uint64_t content_epoch = 0;
};

// Per-release ε of a SELECT without a CONSUMING clause.
inline constexpr double kDefaultEpsilon = 1.0;

// A SELECT's per-release ε: its CONSUMING value, else kDefaultEpsilon.
double release_epsilon(const query::SelectStmt& s);

struct RunOptions {
  // (ε, δ)-DP variant (paper footnote 5): when delta > 0, releases use the
  // Gaussian mechanism (requires per-release ε <= 1) instead of Laplace.
  double delta = 0.0;
  // Include raw (pre-noise) values and sensitivities in releases. This is
  // an owner-side evaluation hook (the analyst never sees them); every
  // bench uses it to compute the paper's accuracy metrics.
  bool reveal_raw = false;
  // Skip the budget ledger (owner-side what-if runs, e.g. parameter
  // sweeps). Analyst-facing deployments keep this true. Read only by
  // AdmissionController::reserve (engine/admission.hpp).
  bool charge_budget = true;
  // PROCESS-phase parallelism: chunk x region sandbox invocations fan out
  // across at most this many threads of the executor's pool. 0 = all
  // hardware threads, 1 = the sequential path. Results are bit-identical
  // regardless of the value: each task has its private per-chunk random
  // tape, each contiguous range of tasks writes its own slab, and the
  // ranges are assembled in task order (see common/thread_pool.hpp).
  std::size_t num_threads = 1;
  // Chunk-output caching (see engine/chunk_cache.hpp): kOff recomputes
  // every chunk, kShared consults the executor's shared cache (the Privid
  // facade passes its process-wide one). kDefault resolves from the
  // PRIVID_CACHE env var, off when unset. Caching never changes results:
  // releases, sensitivities and budget charges are byte-identical in every
  // mode.
  CacheMode cache = CacheMode::kDefault;
};

struct Release {
  std::string label;               // "AVG(speed)" / "COUNT(plate)[RED]"
  std::vector<Value> group_key;    // empty when not grouped
  double value = 0;                // noisy released value
  bool is_argmax = false;
  std::string argmax_key;          // released key when is_argmax
  double epsilon = 0;
  // Populated only when RunOptions::reveal_raw:
  double raw = 0;
  double sensitivity = 0;
};

struct QueryResult {
  std::vector<Release> releases;
  std::map<std::string, std::size_t> table_rows;  // diagnostics
  // Chunk-cache activity attributable to this run (all-zero when the run
  // was uncached). For a shared cache the hit/miss/eviction deltas are
  // exact only while queries run one at a time; bytes/entries are the
  // cache's state right after the run.
  CacheStats cache;
};

// Dry-run planning: what a query would cost and whether it would be
// admitted, computed from split arithmetic and the sensitivity rules alone
// — no chunk is processed and no budget is charged. This is safe to expose
// to analysts: everything it reveals (sensitivity, noise scale, remaining
// admissibility) is derived from public parameters.
struct ReleasePlan {
  std::string label;        // aggregate label (per-key groups share one row)
  double sensitivity = 0;
  double epsilon = 0;
  double noise_scale = 0;   // Laplace b = sensitivity / epsilon
};

// The ledger charge one SELECT makes against one camera — the unit the
// admission controller reserves before PROCESS and refunds on abort.
struct CameraCharge {
  // One table the SELECT reads on this camera.
  struct Window {
    FrameInterval frames;   // the table's split window, camera frame space
    FrameIndex margin = 0;  // the table's own ρ widening, checked only
  };
  std::string camera;
  std::vector<Window> windows;  // each checked, widened, before the SELECT
  // The union of the windows' frames (ascending, disjoint): charged once
  // per frame however many tables cover it.
  std::vector<FrameInterval> charged;
  double epsilon = 0;  // charge_per_frame of the owning SELECT
};

struct SelectPlan {
  std::vector<ReleasePlan> releases;   // one per aggregate projection
  // ε per charged frame: ε x aggregates x declared keys (trusted time bins
  // add releases but not same-frame charge).
  double charge_per_frame = 0;
  // The ledger charges admission would reserve for this SELECT, one per
  // distinct camera (the pricing PreparedQuery::admission_charges uses).
  std::vector<CameraCharge> charges;
  // This SELECT's windows fit the current ledgers on their own. Admission
  // reserves all SELECTs cumulatively, so a query whose SELECTs fit only
  // one at a time is denied there, with nothing charged.
  bool admissible = true;
};

struct QueryPlan {
  std::vector<SelectPlan> selects;
  bool admissible = true;
};

// Everything a SPLIT statement resolves to. Internal to the executor
// pipeline; at namespace scope so PreparedQuery can hold one per phase.
struct ResolvedSplit {
  CameraState* cam = nullptr;
  const Mask* mask = nullptr;
  const RegionScheme* scheme = nullptr;
  sensitivity::Policy policy;
  TimeInterval window;
  FrameInterval frames;
};

// A PROCESS statement's output table bound to its camera facts.
struct BoundTable {
  Table data;
  sensitivity::TableInfo info;
  std::string camera;
  FrameInterval frames;  // the split window, camera frame space
};

// The output of a contiguous run [begin, end) of one phase's tasks: their
// rows in task order, in one slab over the phase table's full schema — the
// sandboxed cells and the trusted chunk/region/camera cells.
struct TaskRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  ColumnSlab rows;
};

class Executor;

// A query decomposed into chunk-level tasks: the task-granular entry point
// the multi-analyst scheduler drives. Usage contract:
//
//   PreparedQuery pq = executor.prepare(q, opts);
//   for each phase p:                       // phases are independent —
//     for each range [lo, hi) of a tiling   // ranges of all phases may run
//         of [0, task_count(p)):            // concurrently, in any order,
//       ranges.push_back(pq.run_range(p, lo, hi));  // on any thread
//     pq.assemble(p, std::move(ranges));
//   QueryResult r = pq.finish();            // single-threaded
//
// run_range is thread-safe and pure per (phase, task): it owns no shared
// mutable state beyond the (mutex-guarded) chunk cache and single-flight
// registry, so any interleaving with other queries' tasks yields the same
// rows. Executor::run runs every phase's tasks in one pool batch and hands
// it each morsel, cut at phase boundaries; the service scheduler one task
// at a time. assemble concatenates the ranges in task order, and
// a range slab's rows and dictionaries are those its tasks would have
// produced one at a time, so the final table — and everything derived
// from it — is byte-identical to a sequential run however the tasks were
// cut into ranges. finish runs the SELECT phase: sensitivity, aggregation
// and noise from the Rng the executor was built with. The budget is not
// charged here: callers reserve admission_charges() through the
// AdmissionController before the first task.
//
// Lifetimes: the ParsedQuery, camera map, registry, rng, caches and
// single-flight registry passed to the Executor must outlive this object.
class PreparedQuery {
 public:
  PreparedQuery(PreparedQuery&&) noexcept = default;
  PreparedQuery& operator=(PreparedQuery&&) noexcept = default;

  std::size_t phase_count() const { return phases_.size(); }
  std::size_t task_count(std::size_t phase) const;
  std::size_t total_tasks() const;

  // Runs tasks [lo, hi) of `phase` in task order and returns their rows.
  // Each task is one chunk x region sandbox invocation with its own cache
  // lookup, single-flight and transient-retry ladder, and its own
  // task.process observation. Stops at, and rethrows, the first task that
  // fails. Throws ArgumentError for a range outside the phase.
  TaskRange run_range(std::size_t phase, std::size_t lo,
                      std::size_t hi) const;

  // Concatenates the phase's range slabs into its table in task order.
  // The ranges may come in any order but must tile [0, task_count(phase))
  // (ArgumentError otherwise). Must be called exactly once per phase.
  void assemble(std::size_t phase, std::vector<TaskRange>&& ranges);

  // Runs the SELECT phase over the assembled tables and returns the
  // result. Throws ArgumentError if a phase was never assembled.
  QueryResult finish();

  // The ledger charges admission control must reserve for this query: one
  // CameraCharge per (SELECT, distinct camera) in execution order,
  // computed from the already-resolved phases (no second SPLIT
  // resolution or sensitivity pass). Executor::plan prices through the
  // same function.
  std::vector<CameraCharge> admission_charges() const;

  // The options the query was prepared with (cache mode resolved).
  const RunOptions& options() const { return opts_; }

 private:
  friend class Executor;
  // Reads the assembled intermediate tables (tests/test_engine.cpp).
  friend struct PreparedQueryTestAccess;
  PreparedQuery() = default;

  struct Phase {
    const query::ProcessStmt* p = nullptr;
    const query::SplitStmt* s = nullptr;
    ResolvedSplit rs;
    std::vector<Chunk> chunks;
    std::size_t n_regions = 1;
    // Snapshots taken at prepare time, so owner-side mutations between
    // scheduler rounds (register_mask replacing the mask in place,
    // register_executable swapping the function) cannot make a query's
    // later tasks see different inputs than its earlier ones — every task
    // runs against the registration state the query was admitted under,
    // matching the content epoch folded into its cache keys. rs.mask is
    // re-pointed at the snapshot.
    Executable exe;
    std::optional<Mask> mask;
    SandboxPolicy sandbox;
    // Base cache/single-flight key for this PROCESS statement (set when
    // `keyed`); each task forks it and adds its own chunk/region
    // coordinates.
    FingerprintBuilder base_key;
    bool keyed = false;
    BoundTable* bound = nullptr;  // into tables_ (map nodes are stable)
    bool assembled = false;
  };

  // Appends task `task`'s rows, trusted cells included, to `out`.
  void append_task(std::size_t phase, std::size_t task,
                   ColumnSlab* out) const;
  void run_select(const query::SelectStmt& s, QueryResult* out);

  std::map<std::string, CameraState>* cameras_ = nullptr;
  Rng* noise_rng_ = nullptr;
  const query::ParsedQuery* q_ = nullptr;
  RunOptions opts_;              // cache mode resolved
  ChunkCache* cache_ = nullptr;  // null when uncached
  SingleFlight* inflight_ = nullptr;
  CacheStats before_;
  std::vector<Phase> phases_;
  std::map<std::string, BoundTable> tables_;  // keyed by INTO name
};

class Executor {
 public:
  // `pool` (optional, non-owning) serves RunOptions::num_threads > 1; when
  // null every query runs on the calling thread regardless of the option.
  // `shared_cache` (optional, non-owning) serves CacheMode::kShared; when
  // null a kShared run degrades to uncached.
  // `inflight` (optional, non-owning) single-flights identical chunk tasks
  // across concurrent queries sharing the registry (the query service
  // passes one per service); when null every miss computes.
  Executor(std::map<std::string, CameraState>* cameras,
           const ExecutableRegistry* registry, Rng* noise_rng,
           ThreadPool* pool = nullptr, ChunkCache* shared_cache = nullptr,
           SingleFlight* inflight = nullptr);

  // Decomposes the query into chunk-level tasks without running any (see
  // PreparedQuery). Validates and resolves every SPLIT up front, so the
  // same failures PROCESS would hit surface here instead.
  PreparedQuery prepare(const query::ParsedQuery& q, const RunOptions& opts);

  // Runs every task of `pq` on the caller's thread (or the pool), then
  // assembles and finishes it. The caller reserves its budget first.
  QueryResult run(PreparedQuery& pq);

  // Validates and costs the query without executing it (see QueryPlan).
  QueryPlan plan(const query::ParsedQuery& q) const;

 private:
  ResolvedSplit resolve_split(const query::SplitStmt& s) const;
  sensitivity::TableInfo table_info(const query::ProcessStmt& p,
                                    const query::SplitStmt& s,
                                    const ResolvedSplit& rs) const;

  std::map<std::string, CameraState>* cameras_;
  const ExecutableRegistry* registry_;
  Rng* noise_rng_;
  ThreadPool* pool_;
  ChunkCache* shared_cache_;
  SingleFlight* inflight_;
};

}  // namespace privid::engine
