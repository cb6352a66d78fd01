#include "engine/executor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <utility>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "engine/relexec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "privacy/gaussian.hpp"
#include "privacy/laplace.hpp"
#include "query/validator.hpp"
#include "sensitivity/rules.hpp"
#include "table/aggregate.hpp"
#include "video/chunker.hpp"

namespace privid::engine {

using query::ParsedQuery;
using query::ProcessStmt;
using query::Projection;
using query::SelectStmt;
using query::SplitStmt;
using sensitivity::SensitivityEngine;
using sensitivity::TableInfo;

Executor::Executor(std::map<std::string, CameraState>* cameras,
                   const ExecutableRegistry* registry, Rng* noise_rng,
                   ThreadPool* pool, ChunkCache* shared_cache,
                   SingleFlight* inflight)
    : cameras_(cameras), registry_(registry), noise_rng_(noise_rng),
      pool_(pool), shared_cache_(shared_cache), inflight_(inflight) {
  if (!cameras || !registry || !noise_rng) {
    throw ArgumentError("Executor requires cameras, registry and rng");
  }
}

namespace {

// File-scoped engine-plane histograms (task.process / query.assemble /
// query.finish): per-executor groups would fragment the latency
// distributions across the many short-lived Executors tests create, and
// the registry merges same-named histograms anyway. Function-local static
// keeps the registration detaching at exit.
struct EngineMetrics {
  obs::MetricGroup group;
  obs::LatencyHistogram* task_process = group.histogram("task.process");
  obs::LatencyHistogram* assemble = group.histogram("query.assemble");
  obs::LatencyHistogram* finish = group.histogram("query.finish");
  // Retry ladder (kSandboxRetries): attempts counts *extra*
  // attempts only, so a fault-free run leaves all three at zero;
  // recovered + exhausted reconciles against the transient failures the
  // fault plane reports having fired into the sandbox seams.
  obs::Counter* retry_attempts = group.counter("retry.attempts");
  obs::Counter* retry_recovered = group.counter("retry.recovered");
  obs::Counter* retry_exhausted = group.counter("retry.exhausted");
  obs::Registration registration = obs::Registry::global().attach(&group);
};

EngineMetrics& engine_metrics() {
  static EngineMetrics m;
  return m;
}

// Span tag helper: the hex form of a cache/single-flight fingerprint,
// matching the slab filenames the disk tier writes.
std::string fingerprint_hex(const Fingerprint& key) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(key.hi),
                static_cast<unsigned long long>(key.lo));
  return buf;
}

// Fingerprint of everything that determines one PROCESS statement's
// per-chunk rows except the chunk coordinates themselves: the canonical
// program (executable name + registry version, timeout, max_rows, declared
// schema) and the content source (camera identity, seed, content epoch,
// the mask's grid and cells, the region scheme's definition, chunk
// duration). Window begin/end and stride are deliberately absent — they
// only select which chunks exist; each chunk's own coordinates are folded
// per task, so overlapping windows share entries for the chunks they have
// in common. The mask and scheme are folded by content, not by name: the
// content epoch is process-local, so across a restart sharing one disk
// tier a mask re-registered under its old name must not hit the slabs the
// old mask's PROCESS wrote.
FingerprintBuilder process_fingerprint(const ProcessStmt& p,
                                       const SplitStmt& s,
                                       const ResolvedSplit& rs,
                                       std::uint64_t exe_version) {
  FingerprintBuilder fp;
  fp.add(p.executable).add(exe_version);
  fp.add(p.timeout).add(static_cast<std::uint64_t>(p.max_rows));
  fp.add(static_cast<std::uint64_t>(p.schema.size()));
  for (const auto& col : p.schema) {
    fp.add(col.name).add(static_cast<std::uint64_t>(col.type));
    if (col.default_value.is_number()) {
      fp.add(col.default_value.as_number());
    } else {
      fp.add(col.default_value.as_string());
    }
  }
  const CameraState& cam = *rs.cam;
  fp.add(s.camera).add(cam.content.seed).add(cam.content_epoch);
  fp.add(static_cast<std::int64_t>(cam.content.porto_camera));
  fp.add(rs.mask != nullptr);
  if (rs.mask != nullptr) {
    const Mask& m = *rs.mask;
    fp.add(static_cast<std::int64_t>(m.frame_width()))
        .add(static_cast<std::int64_t>(m.frame_height()))
        .add(static_cast<std::int64_t>(m.grid_cols()))
        .add(static_cast<std::int64_t>(m.grid_rows()));
    fp.add_bytes(m.cells().data(), m.cells().size());
  }
  fp.add(rs.scheme != nullptr);
  if (rs.scheme != nullptr) {
    const RegionScheme& rg = *rs.scheme;
    fp.add(rg.name()).add(static_cast<std::uint64_t>(rg.boundaries()));
    fp.add(static_cast<std::uint64_t>(rg.region_count()));
    for (const Region& r : rg.regions()) {
      fp.add(r.name).add(r.extent.x).add(r.extent.y);
      fp.add(r.extent.w).add(r.extent.h);
    }
  }
  fp.add(s.chunk);
  return fp;
}

// Bounded retry for *transient* per-task failures (TransientError:
// sandbox-worker startup death, single-flight leader crash — not
// executable crashes, which Appendix B converts to a default row
// in-sandbox). Each task re-attempts immediately up to this many extra
// times before the error fails the query; the re-attempt recomputes the
// same pure function, so a recovered retry is byte-identical to a
// never-failed run. Backoff is deterministic by construction: the sandbox
// is in-process (nothing to wait out) and a wall-clock sleep would be
// both useless and nondeterministic.
constexpr std::size_t kSandboxRetries = 2;

// A SELECT's per-frame ledger charge: ε x #aggregate projections x
// Π|WITH KEYS| (see the header comment).
double select_charge_per_frame(const SelectStmt& s) {
  const double eps = release_epsilon(s);
  std::size_t n_aggs = 0;
  for (const auto& p : s.core.projections) {
    if (p.agg) ++n_aggs;
  }
  double key_product = 1;
  for (const auto& g : s.core.group_by) {
    if (!g.keys.empty()) key_product *= static_cast<double>(g.keys.size());
  }
  return eps * static_cast<double>(n_aggs) * key_product;
}

void collect_table_refs(const query::Relation& rel,
                        std::vector<std::string>* out) {
  switch (rel.kind) {
    case query::Relation::Kind::kTableRef:
      out->push_back(rel.table);
      return;
    case query::Relation::Kind::kSelect:
      collect_table_refs(*rel.select->from, out);
      return;
    case query::Relation::Kind::kJoin:
    case query::Relation::Kind::kUnion:
      collect_table_refs(*rel.left, out);
      collect_table_refs(*rel.right, out);
      return;
  }
}

const BoundTable& find_table(const std::map<std::string, BoundTable>& tables,
                             const std::string& name) {
  auto it = tables.find(name);
  if (it == tables.end()) throw LookupError("unknown table '" + name + "'");
  return it->second;
}

SensitivityEngine sensitivity_over(
    const std::map<std::string, BoundTable>& tables) {
  return SensitivityEngine([&tables](const std::string& name) {
    return find_table(tables, name).info;
  });
}

// The one pricing function (Alg. 1 lines 1-5): the ledger charges of one
// SELECT, one per distinct camera it reads, in first-reference order.
// Every table the SELECT reads on a camera contributes its window, checked
// with that table's own ρ margin; the camera is charged once per frame of
// the windows' union. PreparedQuery::admission_charges (what admission
// reserves) and Executor::plan both price through here.
std::vector<CameraCharge> price_select(
    const SelectStmt& s, const std::map<std::string, BoundTable>& tables,
    const std::map<std::string, CameraState>& cameras) {
  const double epsilon = select_charge_per_frame(s);
  std::vector<std::string> refs;
  collect_table_refs(*s.core.from, &refs);
  std::vector<CameraCharge> out;
  for (const auto& ref : refs) {
    const BoundTable& bt = find_table(tables, ref);
    auto ch = std::find_if(out.begin(), out.end(), [&](const CameraCharge& c) {
      return c.camera == bt.camera;
    });
    if (ch == out.end()) {
      ch = out.insert(out.end(), CameraCharge{bt.camera, {}, {}, epsilon});
    }
    ch->windows.push_back(CameraCharge::Window{
        bt.frames,
        to_frames_round(bt.info.policy.rho, cameras.at(bt.camera).meta.fps)});
  }
  for (auto& ch : out) {
    std::vector<FrameInterval> frames;
    for (const auto& w : ch.windows) frames.push_back(w.frames);
    std::sort(frames.begin(), frames.end(), [](auto a, auto b) {
      return a.begin < b.begin;
    });
    for (const FrameInterval& f : frames) {
      if (!ch.charged.empty() && f.begin <= ch.charged.back().end) {
        ch.charged.back().end = std::max(ch.charged.back().end, f.end);
      } else {
        ch.charged.push_back(f);
      }
    }
  }
  return out;
}

}  // namespace

double release_epsilon(const SelectStmt& s) {
  return s.consuming > 0 ? s.consuming : kDefaultEpsilon;
}

ResolvedSplit Executor::resolve_split(const SplitStmt& s) const {
  auto cam_it = cameras_->find(s.camera);
  if (cam_it == cameras_->end()) {
    throw LookupError("unknown camera '" + s.camera + "'");
  }
  ResolvedSplit rs;
  rs.cam = &cam_it->second;
  rs.policy = rs.cam->policy;

  if (s.mask_id) {
    auto m = rs.cam->masks.find(*s.mask_id);
    if (m == rs.cam->masks.end()) {
      throw LookupError("camera '" + s.camera + "' has no mask '" +
                        *s.mask_id + "'");
    }
    rs.mask = &m->second.mask;
    rs.policy = m->second.policy;
  }
  if (s.region_scheme) {
    auto r = rs.cam->regions.find(*s.region_scheme);
    if (r == rs.cam->regions.end()) {
      throw LookupError("camera '" + s.camera + "' has no region scheme '" +
                        *s.region_scheme + "'");
    }
    rs.scheme = &r->second;
    // §7.2: soft boundaries require single-frame chunks — except grid
    // schemes, whose declared size/speed bounds substitute for the
    // restriction (the influenced-cells bound grows with chunk duration).
    if (rs.scheme->requires_single_frame_chunks() && !rs.scheme->is_grid() &&
        to_frames_exact(s.chunk, rs.cam->meta.fps) != 1) {
      throw ValidationError(
          "region scheme '" + rs.scheme->name() +
          "' has soft boundaries: SPLIT must use a chunk of exactly 1 frame");
    }
  }
  rs.window = TimeInterval{s.begin, s.end}.intersect(rs.cam->meta.extent);
  if (rs.window.empty()) {
    throw ValidationError("SPLIT window does not intersect the recording of '" +
                          s.camera + "'");
  }
  rs.frames = FrameInterval{rs.cam->meta.frame_at(rs.window.begin),
                            rs.cam->meta.frame_at(rs.window.end)};
  return rs;
}

sensitivity::TableInfo Executor::table_info(const ProcessStmt& p,
                                            const SplitStmt& s,
                                            const ResolvedSplit& rs) const {
  sensitivity::TableInfo info;
  info.chunk_seconds = s.chunk;
  info.max_rows = p.max_rows;
  info.regions_per_event =
      rs.scheme && rs.scheme->is_grid() ? rs.scheme->occupied_cells_bound()
                                        : 1;
  info.num_chunks =
      count_chunks(rs.cam->meta, rs.window, ChunkSpec{s.chunk, s.stride});
  info.num_regions = rs.scheme ? rs.scheme->region_count() : 1;
  info.policy = rs.policy;
  return info;
}

PreparedQuery Executor::prepare(const ParsedQuery& q, const RunOptions& opts) {
  query::validate(q);

  PreparedQuery pq;
  pq.cameras_ = cameras_;
  pq.noise_rng_ = noise_rng_;
  pq.q_ = &q;
  pq.opts_ = opts;
  pq.opts_.cache = resolve_cache_mode(opts.cache);
  pq.inflight_ = inflight_;

  if (pq.opts_.cache == CacheMode::kShared) pq.cache_ = shared_cache_;
  pq.before_ = pq.cache_ ? pq.cache_->stats() : CacheStats{};

  // Bind SPLITs by chunk-set name and resolve one phase per PROCESS.
  std::map<std::string, const SplitStmt*> splits;
  for (const auto& s : q.splits) splits[s.into] = &s;

  pq.phases_.reserve(q.processes.size());  // snapshot pointers need stability
  for (const auto& p : q.processes) {
    PreparedQuery::Phase ph;
    ph.p = &p;
    ph.s = splits.at(p.chunk_set);
    ph.rs = resolve_split(*ph.s);
    CameraState& cam = *ph.rs.cam;
    ph.exe = registry_->get(p.executable);  // snapshot (see Phase)
    if (ph.rs.mask != nullptr) ph.mask = *ph.rs.mask;
    ph.chunks = make_chunks(cam.meta, ph.rs.window,
                            ChunkSpec{ph.s->chunk, ph.s->stride});
    ph.n_regions = ph.rs.scheme ? ph.rs.scheme->region_count() : 1;

    // Analyst schema + trusted columns.
    std::vector<Column> cols;
    for (const auto& c : p.schema) {
      cols.push_back({c.name, c.type, c.default_value});
    }
    ph.sandbox = SandboxPolicy{p.timeout, p.max_rows, Schema(cols)};
    cols.push_back({kChunkColumn, DType::kNumber, Value(0.0)});
    if (ph.rs.scheme) {
      cols.push_back({kRegionColumn, DType::kString, Value(std::string())});
    }
    cols.push_back({"camera", DType::kString, Value(std::string())});

    BoundTable bound;
    bound.camera = ph.s->camera;
    bound.frames = ph.rs.frames;
    bound.info = table_info(p, *ph.s, ph.rs);
    bound.data = Table(Schema(cols),
                       TableProvenance{ph.s->chunk, p.max_rows,
                                       bound.info.regions_per_event});
    auto [it, inserted] = pq.tables_.emplace(p.into, std::move(bound));
    (void)inserted;  // validate() rejects duplicate INTO names
    ph.bound = &it->second;

    // Tasks need keys when either a cache serves this run or a
    // single-flight registry dedups it across concurrent runs.
    ph.keyed = pq.cache_ != nullptr || pq.inflight_ != nullptr;
    if (ph.keyed) {
      ph.base_key = process_fingerprint(p, *ph.s, ph.rs,
                                        registry_->version(p.executable));
    }
    pq.phases_.push_back(std::move(ph));
    // Re-point the resolved mask at this phase's own snapshot (the vector
    // was reserved above, so the element address is final).
    PreparedQuery::Phase& stored = pq.phases_.back();
    if (stored.mask) stored.rs.mask = &*stored.mask;
  }
  return pq;
}

std::size_t PreparedQuery::task_count(std::size_t phase) const {
  const Phase& ph = phases_.at(phase);
  return ph.chunks.size() * ph.n_regions;
}

std::size_t PreparedQuery::total_tasks() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < phases_.size(); ++i) n += task_count(i);
  return n;
}

// One task per chunk x region, in the sequential nesting order (chunks
// outer, regions inner). Each sandbox invocation is a pure function of its
// ChunkView with a private per-chunk tape, so tasks can run on any thread;
// a range appends its tasks' rows in task order and assemble() concatenates
// the ranges in order, making the result bit-identical to a sequential run
// however the phase was cut. The same purity makes the chunk cache and
// single-flight exact: a cached or shared task's sandbox slab is
// byte-identical to a recomputed one, and the trusted columns are appended
// outside both either way.
TaskRange PreparedQuery::run_range(std::size_t phase, std::size_t lo,
                                   std::size_t hi) const {
  const Phase& ph = phases_.at(phase);
  if (lo > hi || hi > task_count(phase)) {
    throw ArgumentError("PreparedQuery: task range outside the phase");
  }
  TaskRange range{lo, hi, ColumnSlab(ph.bound->data.schema())};
  for (std::size_t task = lo; task < hi; ++task) {
    append_task(phase, task, &range.rows);
  }
  return range;
}

void PreparedQuery::append_task(std::size_t phase, std::size_t task,
                                ColumnSlab* out) const {
  obs::Span span("task.process", "engine");
  obs::ScopedTimer timer(engine_metrics().task_process);
  const Phase& ph = phases_[phase];
  const auto& chunk = ph.chunks[task / ph.n_regions];
  const std::size_t r = task % ph.n_regions;
  const Region* region = ph.rs.scheme ? &ph.rs.scheme->region(r) : nullptr;
  if (span.active()) {
    span.tag("phase", static_cast<std::uint64_t>(phase))
        .tag("task", static_cast<std::uint64_t>(task));
  }
  const auto view = [&] {
    return ChunkView(&ph.rs.cam->content, &ph.rs.cam->meta, chunk.index,
                     chunk.time, chunk.frames, ph.rs.mask, region);
  };

  // Appends the task's sandboxed cells to `out`, or throws before
  // appending any.
  auto attempt = [&]() {
    if (!ph.keyed) {
      // Nothing caches or shares this task's slab: the sandbox coerces
      // straight into the range.
      obs::Span sandbox_span("task.sandbox", "engine");
      run_sandboxed(ph.exe, view(), ph.sandbox, out);
      return;
    }
    FingerprintBuilder task_key = ph.base_key;
    task_key.add(static_cast<std::uint64_t>(chunk.index));
    task_key.add(chunk.time.begin).add(chunk.time.end);
    task_key.add(static_cast<std::int64_t>(chunk.frames.begin));
    task_key.add(static_cast<std::int64_t>(chunk.frames.end));
    task_key.add(region ? region->name : std::string());
    const Fingerprint key = task_key.digest();
    if (span.active()) span.tag("fingerprint", fingerprint_hex(key));
    ColumnSlab slab;
    const bool hit = cache_ != nullptr && cache_->lookup(key, &slab);
    if (span.active()) span.tag("cache", hit ? "hit" : "miss");
    if (!hit) {
      auto compute = [&]() {
        obs::Span sandbox_span("task.sandbox", "engine");
        ColumnSlab fresh(ph.sandbox.schema);
        run_sandboxed(ph.exe, view(), ph.sandbox, &fresh);
        if (cache_ != nullptr) cache_->insert(key, fresh);
        return fresh;
      };
      if (inflight_ != nullptr) {
        // Close the miss->join window: a task that missed the cache, then
        // lost the CPU while the previous leader finished and retired its
        // flight, would otherwise become a fresh leader and recompute a slab
        // the cache now holds. Re-checking inside the flight keeps "each
        // keyed task computes at most once per cache lifetime" exact.
        auto compute_in_flight = [&]() {
          ColumnSlab cached;
          if (cache_ != nullptr && cache_->lookup(key, &cached)) return cached;
          return compute();
        };
        // A follower's slab is already in the cache: the leader
        // inserted it inside compute.
        inflight_->run(key, compute_in_flight, &slab);
      } else {
        slab = compute();
      }
    }
    out->append_rows(slab);
  };

  // Bounded retry for transient infrastructure failures only — a
  // recovered attempt recomputes the same pure function (possibly served
  // straight from the cache a crashed leader already populated), so the
  // rows are byte-identical to a never-failed run. Any non-transient
  // exception propagates on first occurrence and fails the query.
  const std::size_t before = out->row_count();
  const std::size_t max_attempts = 1 + kSandboxRetries;
  for (std::size_t attempt_no = 1;; ++attempt_no) {
    try {
      attempt();
      if (attempt_no > 1) engine_metrics().retry_recovered->add();
      break;
    } catch (const TransientError&) {
      if (attempt_no >= max_attempts) {
        engine_metrics().retry_exhausted->add();
        throw;
      }
      engine_metrics().retry_attempts->add();
      if (span.active()) {
        span.tag("retry", static_cast<std::uint64_t>(attempt_no));
      }
    }
  }

  // The trusted cells, one per appended row. Strings intern even for a
  // zero-row task, so a table's region and camera dictionaries list every
  // task's trusted strings in task order, whichever tasks produced rows.
  const std::size_t n = out->row_count() - before;
  std::size_t c = ph.sandbox.schema.size();
  out->repeat_number(c++, chunk.time.begin, n);
  if (region != nullptr) out->repeat_string(c++, region->name, n);
  out->repeat_string(c, ph.s->camera, n);
}

void PreparedQuery::assemble(std::size_t phase,
                             std::vector<TaskRange>&& ranges) {
  obs::Span span("query.assemble", "engine");
  obs::ScopedTimer timer(engine_metrics().assemble);
  if (span.active()) {
    span.tag("phase", static_cast<std::uint64_t>(phase))
        .tag("ranges", static_cast<std::uint64_t>(ranges.size()));
  }
  Phase& ph = phases_.at(phase);
  if (ph.assembled) {
    throw ArgumentError("PreparedQuery: phase assembled twice");
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const TaskRange& a, const TaskRange& b) {
              return a.begin != b.begin ? a.begin < b.begin : a.end < b.end;
            });
  std::size_t next = 0;
  std::size_t total = 0;
  for (const TaskRange& range : ranges) {
    if (range.begin != next || range.end < range.begin) {
      throw ArgumentError(
          "PreparedQuery: assemble expects ranges that tile the phase");
    }
    next = range.end;
    total += range.rows.row_count();
  }
  if (next != task_count(phase)) {
    throw ArgumentError(
        "PreparedQuery: assemble expects ranges that tile the phase");
  }
  ph.bound->data.reserve_rows(total);
  for (const TaskRange& range : ranges) ph.bound->data.append_slab(range.rows);
  ph.assembled = true;
}

std::vector<CameraCharge> PreparedQuery::admission_charges() const {
  std::vector<CameraCharge> out;
  for (const auto& s : q_->selects) {
    for (auto& ch : price_select(s, tables_, *cameras_)) {
      out.push_back(std::move(ch));
    }
  }
  return out;
}

QueryResult PreparedQuery::finish() {
  obs::Span span("query.finish", "engine");
  obs::ScopedTimer timer(engine_metrics().finish);
  for (const auto& ph : phases_) {
    if (!ph.assembled) {
      throw ArgumentError("PreparedQuery: finish before every phase assembled");
    }
  }
  QueryResult result;
  for (const auto& [name, bt] : tables_) {
    result.table_rows[name] = bt.data.row_count();
  }
  if (cache_ != nullptr) {
    const CacheStats after = cache_->stats();
    result.cache.hits = after.hits - before_.hits;
    result.cache.misses = after.misses - before_.misses;
    result.cache.evictions = after.evictions - before_.evictions;
    result.cache.bytes = after.bytes;
    result.cache.entries = after.entries;
  }
  for (const auto& s : q_->selects) {
    run_select(s, &result);
  }
  return result;
}

void PreparedQuery::run_select(const SelectStmt& s, QueryResult* out) {
  // Covers sensitivity analysis, relational evaluation and the noisy
  // release — the span observes the release path but its timing never
  // feeds it (see src/obs/ and the privcheck obs-timing rule).
  obs::Span span("query.select", "engine");
  const RunOptions& opts = opts_;
  SensitivityEngine sens = sensitivity_over(tables_);
  const double eps = release_epsilon(s);

  // Evaluate the outer input table (FROM + WHERE + LIMIT).
  TableMap tmap;
  for (const auto& [name, bt] : tables_) tmap[name] = &bt.data;
  Table input = eval_relation(*s.core.from, tmap);
  if (s.core.where) {
    const auto& schema = input.schema();
    const auto* where = s.core.where.get();
    input = select_rows(input, [&, where](const RowView& r) {
      return eval_predicate(*where, r, schema);
    });
  }
  if (s.core.limit) input = limit_rows(input, *s.core.limit);

  // Build releases.
  auto emit = [&](const Projection& p, const std::vector<std::size_t>& rows,
                  const std::vector<Value>& group_key, std::string label) {
    double sensitivity = sens.release_sensitivity(p, s.core);
    // Raw aggregate with range clamping of the input values. Resolve the
    // input column once per release, not per row.
    double raw;
    bool is_col = p.expr->kind == query::Expr::Kind::kColumn;
    // COUNT ignores its argument (row-era parity: the name was never
    // resolved), so only value aggregates resolve the column.
    std::size_t idx = is_col && *p.agg != AggFunc::kCount
                          ? input.schema().index_of(p.expr->name)
                          : 0;
    if (*p.agg == AggFunc::kCount) {
      raw = static_cast<double>(rows.size());
    } else if (is_col &&
               input.schema().column(idx).type == DType::kNumber) {
      // Columnar fast path: gather + clamp straight off the number column.
      const std::vector<double>& col = input.numbers(idx);
      std::vector<double> vals;
      vals.reserve(rows.size());
      for (std::size_t r : rows) {
        double v = col[r];
        if (p.range) v = std::clamp(v, p.range->first, p.range->second);
        vals.push_back(v);
      }
      raw = aggregate_numbers(*p.agg, vals);
    } else {
      std::vector<Value> vals;
      vals.reserve(rows.size());
      for (std::size_t r : rows) {
        Value v = is_col ? input.at(r, idx)
                         : eval_expr(*p.expr, input.row(r), input.schema());
        if (p.range && v.is_number()) {
          v = Value(std::clamp(v.as_number(), p.range->first, p.range->second));
        }
        vals.push_back(std::move(v));
      }
      raw = aggregate_column(*p.agg, vals);
    }
    Release rel;
    rel.label = std::move(label);
    rel.group_key = group_key;
    rel.epsilon = eps;
    rel.value = opts.delta > 0
                    ? GaussianMechanism::release(raw, sensitivity, eps,
                                                 opts.delta, *noise_rng_)
                    : LaplaceMechanism::release(raw, sensitivity, eps,
                                                *noise_rng_);
    if (opts.reveal_raw) {
      rel.raw = raw;
      rel.sensitivity = sensitivity;
    }
    out->releases.push_back(std::move(rel));
  };

  std::vector<std::size_t> all_rows(input.row_count());
  for (std::size_t i = 0; i < all_rows.size(); ++i) all_rows[i] = i;

  if (s.core.group_by.empty()) {
    for (const auto& p : s.core.projections) {
      if (!p.agg) continue;
      emit(p, all_rows, {}, p.output_name());
    }
    return;
  }

  auto groups = compute_groups(input, s.core.group_by);
  for (const auto& p : s.core.projections) {
    if (!p.agg) continue;
    if (*p.agg == AggFunc::kArgmax) {
      // Report-noisy-max: noise every group's inner aggregate, release only
      // the winning key.
      Projection inner;
      inner.agg = p.argmax_inner;
      inner.expr = p.expr->clone();
      inner.range = p.range;
      double sensitivity = sens.release_sensitivity(inner, s.core);
      double best = -std::numeric_limits<double>::infinity();
      std::size_t best_g = 0;
      double best_raw = 0;
      for (std::size_t g = 0; g < groups.size(); ++g) {
        double raw = 0;
        if (*p.argmax_inner == AggFunc::kCount) {
          raw = static_cast<double>(groups[g].rows.size());
        } else {
          raw = aggregate_rows(*p.argmax_inner, input, p.expr->name,
                               groups[g].rows);
        }
        double noisy =
            LaplaceMechanism::release(raw, sensitivity, eps, *noise_rng_);
        if (noisy > best) {
          best = noisy;
          best_g = g;
          best_raw = raw;
        }
      }
      Release rel;
      rel.label = p.output_name();
      rel.is_argmax = true;
      rel.group_key = groups.empty() ? std::vector<Value>{} : groups[best_g].key;
      for (std::size_t i = 0; i < rel.group_key.size(); ++i) {
        if (i) rel.argmax_key += ",";
        rel.argmax_key += rel.group_key[i].to_string();
      }
      rel.epsilon = eps;
      rel.value = best;
      if (opts.reveal_raw) {
        rel.raw = best_raw;
        rel.sensitivity = sensitivity;
      }
      out->releases.push_back(std::move(rel));
      continue;
    }
    for (const auto& g : groups) {
      std::string label = p.output_name() + "[";
      for (std::size_t i = 0; i < g.key.size(); ++i) {
        if (i) label += ",";
        label += g.key[i].to_string();
      }
      label += "]";
      emit(p, g.rows, g.key, std::move(label));
    }
  }
}

QueryPlan Executor::plan(const ParsedQuery& q) const {
  query::validate(q);
  std::map<std::string, const SplitStmt*> splits;
  for (const auto& s : q.splits) splits[s.into] = &s;

  // The bound tables admission prices, from split arithmetic only (no
  // rows).
  std::map<std::string, BoundTable> tables;
  for (const auto& p : q.processes) {
    const SplitStmt* s = splits.at(p.chunk_set);
    ResolvedSplit rs = resolve_split(*s);
    BoundTable& bt = tables[p.into];
    bt.info = table_info(p, *s, rs);
    bt.camera = s->camera;
    bt.frames = rs.frames;
  }
  SensitivityEngine sens = sensitivity_over(tables);

  QueryPlan out;
  for (const auto& sel : q.selects) {
    SelectPlan sp;
    const double eps = release_epsilon(sel);
    for (const auto& p : sel.core.projections) {
      if (!p.agg) continue;
      ReleasePlan rp;
      rp.label = p.output_name();
      rp.epsilon = eps;
      rp.sensitivity = sens.release_sensitivity(p, sel.core);
      rp.noise_scale = eps > 0 ? rp.sensitivity / eps : 0.0;
      sp.releases.push_back(std::move(rp));
    }
    sp.charge_per_frame = select_charge_per_frame(sel);
    sp.charges = price_select(sel, tables, *cameras_);
    for (const auto& ch : sp.charges) {
      const BudgetLedger& ledger = *cameras_->at(ch.camera).ledger;
      for (const auto& w : ch.windows) {
        if (!ledger.can_charge(w.frames, w.margin, ch.epsilon)) {
          sp.admissible = false;
        }
      }
    }
    out.admissible = out.admissible && sp.admissible;
    out.selects.push_back(std::move(sp));
  }
  return out;
}

QueryResult Executor::run(PreparedQuery& pq) {
  const std::size_t n_threads =
      ThreadPool::resolve_threads(pq.options().num_threads);
  const std::size_t n_phases = pq.phase_count();
  // first[p] is phase p's first task in the query's phase-major task order.
  std::vector<std::size_t> first(n_phases + 1, 0);
  for (std::size_t p = 0; p < n_phases; ++p) {
    first[p + 1] = first[p] + pq.task_count(p);
  }
  std::vector<std::vector<TaskRange>> ranges(n_phases);
  if (pool_ != nullptr && n_threads > 1 && first[n_phases] > 1) {
    // Phases are independent, so one pool batch runs every phase's tasks:
    // a query pays one fan-out and one join, not one per PROCESS. A morsel
    // that straddles phases runs as one range per phase, in task order, so
    // the lowest failing task is still the one a sequential run hits first.
    std::mutex mu;  // guards `ranges`: one push per range
    pool_->parallel_for_ranges(
        first[n_phases],
        [&](std::size_t lo, std::size_t hi) {
          std::size_t p = static_cast<std::size_t>(
              std::upper_bound(first.begin(), first.end(), lo) -
              first.begin() - 1);
          for (; lo < hi; ++p) {
            const std::size_t end = std::min(hi, first[p + 1]);
            TaskRange range = pq.run_range(p, lo - first[p], end - first[p]);
            std::lock_guard<std::mutex> lock(mu);
            ranges[p].push_back(std::move(range));
            lo = end;
          }
        },
        n_threads);
  } else {
    for (std::size_t p = 0; p < n_phases; ++p) {
      ranges[p].push_back(pq.run_range(p, 0, pq.task_count(p)));
    }
  }
  for (std::size_t p = 0; p < n_phases; ++p) {
    pq.assemble(p, std::move(ranges[p]));
  }
  return pq.finish();
}

}  // namespace privid::engine
