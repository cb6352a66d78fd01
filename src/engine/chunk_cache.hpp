// Chunk-output cache: memoized PROCESS results for repeated and standing
// queries — a memory LRU with an optional disk spill tier.
//
// Standing queries (§6.1) and overlapping ad-hoc windows re-run the same
// deterministic per-chunk PROCESS work — each sandbox invocation is a pure
// function of its ChunkView with a private per-chunk random tape (see
// engine/sandbox.hpp), so its output can be memoized exactly like a
// DAG executor memoizes pure node outputs. The cache stores the
// *sandboxed* column slab (post-coercion, pre-trusted-columns) keyed by a
// fingerprint of everything that determines it:
//
//   (canonical PROCESS program + executable version, camera id, camera
//    content seed, camera content epoch, chunk index, chunk frame/time
//    coordinates, mask id, region)
//
// Because noise is drawn at release (SELECT) time from the system RNG and
// the per-chunk tape is keyed by chunk index, serving cached rows leaves
// releases, sensitivities and budget-ledger charges byte-identical to an
// uncached run — the same argument that makes the parallel PROCESS phase
// bit-identical (docs/ARCHITECTURE.md) makes the cached one, whichever
// tier a slab came from.
//
// Tiers (docs/CACHE.md is the full story):
//
//   memory — mutex-guarded, byte-budgeted LRU, exactly as before.
//   disk   — optional (attach_disk_tier / PRIVID_CACHE_DIR): entries the
//            memory LRU evicts are demoted to one file per fingerprint
//            (the ColumnSlab wire format, table/slab_io.*, no second
//            format); a memory miss probes the directory, deserializes
//            and promotes back. The destructor demotes what memory still
//            holds, so a restarted process pointed at the same directory
//            resumes with a warm cache instead of re-paying history
//            (bench_standing_cache's restart-warm leg gates this).
//            Corrupted, truncated or wrong-version files are dropped and
//            served as misses — never errors.
//
// Invalidation: owner-side changes that can alter chunk content (mask
// (re)registration, camera re-tuning) bump the camera's content epoch,
// which is folded into every key — stale entries are never served and age
// out of both LRUs lazily: memory by budget pressure, disk files when the
// disk budget reaches them (they are unreachable the moment the epoch
// bumps, so their only cost is disk bytes). Re-registering an executable
// bumps its registry version with the same effect.
//
// Locking: the memory tier keeps its single mutex; the disk tier has its
// own guarding the file index, and no path holds both at once — disk I/O
// happens with the memory lock released, so concurrent PROCESS workers
// serialize only on pointer splices plus the (slow-path) demote writes.
#pragma once

#include <cstdint>
#include <filesystem>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "table/column.hpp"

namespace privid::engine {

// RunOptions::cache values. kDefault resolves from the PRIVID_CACHE
// environment variable ("off", "shared"; unset means off) so
// whole test/bench suites can be replayed under a different cache mode
// without code changes — CI's cache-equivalence job relies on this.
enum class CacheMode { kDefault, kOff, kShared };

// Resolves kDefault against PRIVID_CACHE; other values pass through.
// Unrecognized env text resolves to kOff (never crash a deployment over a
// typo; the run is merely uncached).
CacheMode resolve_cache_mode(CacheMode mode);

// Disk spill tier parameters. The directory is created on attach; files
// already there (a previous process's demotions) are indexed and servable
// immediately — that is the restart-survivable construction.
struct DiskTierConfig {
  // Default disk budget: 1 GiB of serialized slabs holds decades of
  // small-row standing-query history.
  static constexpr std::size_t kDefaultByteBudget = 1u << 30;
  // Circuit breaker: after kBreakerThreshold *consecutive* disk I/O
  // failures (unreadable reads, corrupt parses, failed demote writes) the
  // tier trips to memory-only — a dying disk must degrade the cache, never
  // the query plane. While open, every kBreakerReprobe-th disk operation
  // is let through as a half-open probe; one success closes the breaker.
  static constexpr std::uint64_t kBreakerThreshold = 4;
  static constexpr std::uint64_t kBreakerReprobe = 16;

  std::string dir;
  std::size_t byte_budget = kDefaultByteBudget;
  // Eagerly parse the directory's slab files into the memory tier at
  // attach (newest-indexed first, bounded by the memory byte budget), so
  // a restarted process replays history at memory speed instead of paying
  // one file open per chunk on its first pass. Off by default: attach
  // stays O(directory listing) and corrupt files surface at probe time.
  bool preload = false;

  // Reads PRIVID_CACHE_DIR (the directory; unset/empty means no disk
  // tier), PRIVID_CACHE_DISK_BYTES (budget override; unparsable or zero
  // falls back to the default — same never-crash-over-a-typo rule as
  // PRIVID_CACHE) and PRIVID_CACHE_PRELOAD ("1"/"true"/"on" warms the
  // memory tier at attach).
  static std::optional<DiskTierConfig> from_env();
};

// Thin snapshot view over the cache's obs metrics (cache.* names; see
// docs/OBSERVABILITY.md). stats() materializes one from the per-instance
// metric group, so these values and a Registry snapshot can never drift.
struct CacheStats {
  std::uint64_t hits = 0;     // lookups served, from either tier
  std::uint64_t misses = 0;   // lookups that must recompute
  std::uint64_t evictions = 0;  // memory entries evicted for the budget
  std::size_t bytes = 0;        // current estimated memory footprint
  std::size_t entries = 0;      // current memory entry count
  // Disk tier (all zero while no tier is attached).
  std::uint64_t disk_hits = 0;   // subset of `hits` promoted from disk
  std::uint64_t demotions = 0;   // slab files written
  std::uint64_t disk_evictions = 0;  // files unlinked for the disk budget
  std::uint64_t corrupt_drops = 0;   // unreadable files dropped as misses
  std::uint64_t orphan_drops = 0;    // crash-orphaned .tmp files reaped
  std::size_t disk_bytes = 0;    // current on-disk footprint (file bytes)
  std::size_t disk_entries = 0;  // current slab file count
  // Circuit breaker (docs/ROBUSTNESS.md): trips after consecutive disk
  // I/O failures; while open the tier serves memory-only.
  std::uint64_t breaker_trips = 0;   // open transitions
  std::uint64_t breaker_skips = 0;   // disk ops suppressed while open
  std::uint64_t breaker_probes = 0;  // half-open re-probe ops let through
  bool breaker_open = false;         // current state
};

class ChunkCache {
 public:
  // Default budget: 64 MiB holds ~years of small-row standing-query
  // output; owner deployments size it via set_byte_budget.
  static constexpr std::size_t kDefaultByteBudget = 64u << 20;

  explicit ChunkCache(std::size_t byte_budget = kDefaultByteBudget);
  // Demotes the memory tier to disk (flush_disk) when a disk tier is
  // attached, so a clean shutdown persists what memory still holds.
  ~ChunkCache();

  // Attaches the disk spill tier. Call before the cache is shared across
  // threads (the Privid facade attaches in its constructor); creates the
  // directory, indexes existing slab files (sorted by name, then evicted
  // down to the budget) and leaves their contents unverified — a corrupt
  // file surfaces as a miss on first probe, not an attach failure. With
  // config.preload the files are instead parsed into the memory tier up
  // front (corrupt ones dropped here instead of at probe time).
  // Throws ArgumentError if a tier is already attached.
  void attach_disk_tier(DiskTierConfig config);
  bool has_disk_tier() const { return disk_ != nullptr; }

  // On hit copies the slab into *out, refreshes recency and returns true;
  // on miss returns false. Counts one hit or miss either way. A memory
  // miss probes the disk tier (when attached) and promotes a parsed file
  // back into memory; an unreadable file is dropped and counted a miss.
  bool lookup(const Fingerprint& key, ColumnSlab* out);

  // Inserts (or refreshes) the slab under `key`, then evicts LRU entries
  // until the budget holds — evicted entries demote to the disk tier.
  // Slabs larger than the whole memory budget are not cached at all —
  // inserting them would only churn every other entry.
  void insert(const Fingerprint& key, const ColumnSlab& slab);

  CacheStats stats() const;

  std::size_t byte_budget() const;
  // Shrinks/grows the memory budget; shrinking demotes/evicts down
  // immediately.
  void set_byte_budget(std::size_t bytes);

  // Writes every memory entry not already on disk to the disk tier
  // (no-op without one). The destructor calls this; tests and owners can
  // force a checkpoint earlier.
  void flush_disk();

  // Drops every entry in both tiers — slab files included — keeping the
  // budgets and cumulative counters.
  void clear();

  // Estimated footprint of one cached value: typed column payloads plus
  // string-dictionary storage and container overhead (see
  // ColumnSlab::bytes). An estimate is fine — the budget bounds memory
  // order, not allocator bytes — but it must *track* the real footprint:
  // each number costs 8 bytes, each string cell 4 bytes of code, and each
  // distinct string one dictionary copy, so duplicate-heavy columns are
  // accounted (and evicted) at their deduplicated size.
  static std::size_t slab_bytes(const ColumnSlab& slab);

  // The slab file serving `key` under `dir` (<fingerprint-hex>.slab) —
  // exposed so tests can corrupt/truncate specific entries.
  static std::filesystem::path slab_path(const std::string& dir,
                                         const Fingerprint& key);

 private:
  struct Entry {
    Fingerprint key;
    ColumnSlab slab;
    std::size_t bytes = 0;
  };

  // On-disk index: filenames are derived from keys, so the index exists
  // to drive LRU eviction and byte accounting, not to locate files.
  struct DiskEntry {
    Fingerprint key;
    std::size_t bytes = 0;  // serialized file size
  };

  // Byte/entry accounting and cumulative counters live in the metric
  // group below (cache.disk.* names), not here — one source of truth for
  // both budget enforcement and reporting.
  struct DiskTier {
    DiskTierConfig config;
    mutable std::mutex mu;
    std::list<DiskEntry> lru;  // front = most recently used
    std::unordered_map<Fingerprint, std::list<DiskEntry>::iterator,
                       FingerprintHash>
        index;
    // Circuit-breaker state, all under mu. The index survives an open
    // breaker untouched — entries become servable again the moment a
    // half-open probe succeeds and closes it.
    std::uint64_t consecutive_failures = 0;
    bool breaker_open = false;
    std::uint64_t ops_while_open = 0;  // drives the every-Nth re-probe
  };

  // Evicts LRU entries until the memory tier fits the budget. With a disk
  // tier attached, victims are not destroyed: they move into the demotion
  // buffer (demoting_) where lookups can still serve them until the slab
  // file is durably written — otherwise a query racing the (fsync-paced)
  // write would see the key in neither tier and recompute. Returns the
  // keys the caller must pass to demote_evicted() outside mu_.
  std::vector<Fingerprint> evict_to_budget_locked();
  // Persists evicted entries parked in the demotion buffer, then releases
  // them. Each key is owned by exactly one demoter: the evictor that
  // spliced it into the buffer.
  void demote_evicted(const std::vector<Fingerprint>& keys);
  // Flush path: persists copies of still-resident entries (no eviction,
  // so no demotion buffer involved).
  void demote_entries(std::vector<Entry> victims);
  // Ensures `key` is present in the disk tier, serializing and writing
  // `slab` unless it is already indexed (contents are deterministic, so a
  // re-demotion is a recency touch, not a rewrite).
  void persist_one(const Fingerprint& key, const ColumnSlab& slab);
  // Parses indexed slab files into the memory tier (newest first) until
  // the memory budget is full; unparsable files are dropped and counted
  // as corrupt. Counts no hits or misses.
  void preload_from_disk();
  // Reads and parses the slab file for `key`; nullopt on absence. A file
  // that exists but fails to parse is unlinked and dropped from the
  // index, and *corrupt is set.
  std::optional<ColumnSlab> disk_probe(const Fingerprint& key, bool* corrupt);
  void disk_drop_locked(const Fingerprint& key);
  void disk_evict_to_budget_locked();
  // True when the breaker admits a disk operation right now: always while
  // closed; while open, only every kBreakerReprobe-th attempt (a half-open
  // probe). Suppressed attempts count as breaker skips.
  bool breaker_admits_locked();
  // Feeds one disk I/O outcome into the breaker: success resets the
  // failure streak and closes an open breaker; failure extends the streak
  // and trips at kBreakerThreshold.
  void breaker_record_locked(bool ok);

  mutable std::mutex mu_;
  std::size_t byte_budget_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<Fingerprint, std::list<Entry>::iterator, FingerprintHash>
      index_;
  // Evicted-but-not-yet-persisted entries (see evict_to_budget_locked).
  // Not counted against the memory budget: the buffer is bounded by
  // in-flight demotions, and draining it must never trigger eviction.
  std::list<Entry> demoting_;
  std::unordered_map<Fingerprint, std::list<Entry>::iterator, FingerprintHash>
      demoting_index_;
  // Set once by attach_disk_tier before concurrent use; read-only after.
  std::unique_ptr<DiskTier> disk_;

  // Per-instance metrics (cache.* catalog) — the live accounting: the
  // bytes gauges drive budget eviction, the counters are the cumulative
  // stats. Mutated under mu_ / disk_->mu like the fields they replaced.
  // The registration must come after the group so it detaches first.
  obs::MetricGroup metrics_;
  obs::Counter* c_hits_ = metrics_.counter("cache.hits");
  obs::Counter* c_misses_ = metrics_.counter("cache.misses");
  obs::Counter* c_evictions_ = metrics_.counter("cache.evictions");
  obs::Counter* c_corrupt_drops_ = metrics_.counter("cache.corrupt_drops");
  obs::Counter* c_disk_hits_ = metrics_.counter("cache.disk.hits");
  obs::Counter* c_demotions_ = metrics_.counter("cache.disk.demotions");
  obs::Counter* c_disk_evictions_ = metrics_.counter("cache.disk.evictions");
  obs::Counter* c_orphan_drops_ = metrics_.counter("cache.disk.orphan_drops");
  obs::Counter* c_breaker_trips_ = metrics_.counter("cache.disk.breaker_trips");
  obs::Counter* c_breaker_skips_ = metrics_.counter("cache.disk.breaker_skips");
  obs::Counter* c_breaker_probes_ =
      metrics_.counter("cache.disk.breaker_probes");
  obs::Gauge* g_bytes_ = metrics_.gauge("cache.bytes");
  obs::Gauge* g_entries_ = metrics_.gauge("cache.entries");
  obs::Gauge* g_disk_bytes_ = metrics_.gauge("cache.disk.bytes");
  obs::Gauge* g_disk_entries_ = metrics_.gauge("cache.disk.entries");
  obs::Gauge* g_breaker_open_ = metrics_.gauge("cache.disk.breaker_open");
  obs::Registration registration_ =
      obs::Registry::global().attach(&metrics_);
};

}  // namespace privid::engine
