#include "engine/chunk_cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "table/slab_io.hpp"

namespace privid::engine {

namespace fs = std::filesystem;

CacheMode resolve_cache_mode(CacheMode mode) {
  if (mode != CacheMode::kDefault) return mode;
  // PRIVID_CACHE selects the cache tier only — the cache-equivalence CI
  // leg replays the engine suites under every mode and byte-diffs a full
  // bench to prove releases, sensitivities and ledger charges are
  // identical, so this env read cannot perturb them. (This file is the
  // privcheck determinism-env allowlist entry for exactly the PRIVID_CACHE*
  // family of knobs; see tools/privcheck and docs/PRIVCHECK.md.)
  const char* v = std::getenv("PRIVID_CACHE");
  if (!v || !*v) return CacheMode::kOff;
  if (std::strcmp(v, "shared") == 0) return CacheMode::kShared;
  return CacheMode::kOff;
}

std::optional<DiskTierConfig> DiskTierConfig::from_env() {
  const char* dir = std::getenv("PRIVID_CACHE_DIR");
  if (!dir || !*dir) return std::nullopt;
  DiskTierConfig config;
  config.dir = dir;
  if (const char* budget = std::getenv("PRIVID_CACHE_DISK_BYTES")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(budget, &end, 10);
    // Unparsable or zero keeps the default: a typo must not wedge the
    // deployment into a zero-byte tier that evicts everything it writes.
    if (end != budget && *end == '\0' && v > 0) {
      config.byte_budget = static_cast<std::size_t>(v);
    }
  }
  if (const char* preload = std::getenv("PRIVID_CACHE_PRELOAD")) {
    config.preload = std::strcmp(preload, "1") == 0 ||
                     std::strcmp(preload, "true") == 0 ||
                     std::strcmp(preload, "on") == 0;
  }
  return config;
}

namespace {

constexpr const char* kSlabSuffix = ".slab";

// <16 hex of hi><16 hex of lo>.slab — the key is the name, so a probe
// needs no index and a restarted process re-derives every key by parsing
// names back (see parse_slab_name).
std::string slab_name(const Fingerprint& key) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx%s",
                static_cast<unsigned long long>(key.hi),
                static_cast<unsigned long long>(key.lo), kSlabSuffix);
  return buf;
}

std::optional<Fingerprint> parse_slab_name(const std::string& name) {
  const std::string suffix = kSlabSuffix;
  if (name.size() != 32 + suffix.size() ||
      name.compare(32, suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  Fingerprint key;
  auto hi = std::from_chars(name.data(), name.data() + 16, key.hi, 16);
  auto lo = std::from_chars(name.data() + 16, name.data() + 32, key.lo, 16);
  if (hi.ec != std::errc() || hi.ptr != name.data() + 16 ||
      lo.ec != std::errc() || lo.ptr != name.data() + 32) {
    return std::nullopt;
  }
  return key;
}

std::optional<std::vector<std::uint8_t>> read_file(const fs::path& path) {
  // Models a torn/failing read (bad sector, disappearing mount): callers
  // already treat nullopt as "drop the entry and miss".
  if (fault::fail_point("disk.read")) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  if (in.bad()) return std::nullopt;
  return bytes;
}

// Flushes `path` to stable storage; pass directory=true for the parent
// directory (which is what makes a rename durable across power loss).
bool fsync_path(const fs::path& path, bool directory) {
  int flags = O_RDONLY;
  if (directory) flags |= O_DIRECTORY;
  const int fd = ::open(path.c_str(), flags);  // NOLINT
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

// Write-then-fsync-then-rename-then-fsync(dir) so a committed .slab file
// survives power loss (the data is flushed before the rename publishes
// the name; the directory fsync flushes the name itself), and a crash at
// any earlier point leaves only a .tmp orphan — never a half-written
// .slab that a later probe would have to reject (attach reaps orphans).
// Returns false (leaving no *published* file behind) on any I/O failure —
// a slab that fails to persist is a future cache miss, not an error.
bool write_file_atomic(const fs::path& path,
                       const std::vector<std::uint8_t>& bytes) {
  // Models an out-of-space/EIO write failure before any bytes land.
  if (fault::fail_point("disk.write")) return false;
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) {
      out.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  if (!fsync_path(tmp, /*directory=*/false)) {
    std::error_code ec;
    fs::remove(tmp, ec);
    return false;
  }
  // Models a crash between write and rename: the fully-written .tmp stays
  // behind as the orphan the next attach must reap.
  if (fault::fail_point("disk.rename")) return false;
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  if (!fsync_path(path.parent_path(), /*directory=*/true)) {
    // The rename landed but is not durable; honor the false ⇒ no-file
    // contract so the index never references a maybe-gone-after-crash
    // entry.
    fs::remove(path, ec);
    return false;
  }
  return true;
}

}  // namespace

ChunkCache::ChunkCache(std::size_t byte_budget) : byte_budget_(byte_budget) {}

ChunkCache::~ChunkCache() { flush_disk(); }

std::size_t ChunkCache::slab_bytes(const ColumnSlab& slab) {
  return sizeof(Entry) + slab.bytes();
}

std::filesystem::path ChunkCache::slab_path(const std::string& dir,
                                            const Fingerprint& key) {
  return fs::path(dir) / slab_name(key);
}

void ChunkCache::attach_disk_tier(DiskTierConfig config) {
  if (disk_) {
    throw ArgumentError("ChunkCache: disk tier already attached");
  }
  if (config.dir.empty()) {
    throw ArgumentError("ChunkCache: disk tier requires a directory");
  }
  std::error_code ec;
  fs::create_directories(config.dir, ec);
  if (ec || !fs::is_directory(config.dir)) {
    // Unlike a malformed env *value*, an uncreatable directory means the
    // owner asked for persistence the process cannot provide — fail loud
    // at construction rather than silently dropping the guarantee.
    throw ArgumentError("ChunkCache: cannot create cache directory '" +
                        config.dir + "'");
  }
  auto tier = std::make_unique<DiskTier>();
  // Index what a previous process left behind. Names are sorted so the
  // initial recency order — and therefore which files a shrunken budget
  // evicts below — is deterministic across directory-iteration orders.
  // Contents stay unverified: a corrupt file costs its finder one miss,
  // not every restart an O(dir) validation pass.
  std::vector<std::pair<std::string, std::size_t>> found;
  for (const auto& entry : fs::directory_iterator(config.dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0 &&
        parse_slab_name(name.substr(0, name.size() - 4))) {
      // A crash between write and rename left this orphan behind; it was
      // never published, so reap it rather than letting orphans accrete
      // unbudgeted bytes across restarts. (Only <key>.slab.tmp names —
      // foreign .tmp files are not ours to delete.)
      std::error_code rm_ec;
      fs::remove(entry.path(), rm_ec);
      c_orphan_drops_->add();
      continue;
    }
    if (!parse_slab_name(name)) continue;  // foreign files are not ours
    std::error_code size_ec;
    const auto size = entry.file_size(size_ec);
    if (size_ec) continue;
    found.emplace_back(name, static_cast<std::size_t>(size));
  }
  std::sort(found.begin(), found.end());
  tier->config = std::move(config);
  for (const auto& [name, size] : found) {
    const Fingerprint key = *parse_slab_name(name);
    tier->lru.push_front(DiskEntry{key, size});
    tier->index[key] = tier->lru.begin();
    g_disk_bytes_->add(static_cast<std::int64_t>(size));
  }
  g_disk_entries_->set(static_cast<std::int64_t>(tier->index.size()));
  {
    std::lock_guard<std::mutex> lock(tier->mu);
    disk_ = std::move(tier);  // publish, then trim to the budget
    disk_evict_to_budget_locked();
  }
  if (disk_->config.preload) preload_from_disk();
}

void ChunkCache::preload_from_disk() {
  // Snapshot newest-indexed first. Entries are appended at the memory
  // LRU's *back*, so the first (most recent) key loaded stays the most
  // recent in memory and a budget-bounded preload keeps the right set.
  std::vector<Fingerprint> keys;
  {
    std::lock_guard<std::mutex> lock(disk_->mu);
    keys.reserve(disk_->lru.size());
    for (const DiskEntry& entry : disk_->lru) keys.push_back(entry.key);
  }
  for (const Fingerprint& key : keys) {
    std::optional<std::vector<std::uint8_t>> bytes =
        read_file(slab_path(disk_->config.dir, key));
    std::optional<ColumnSlab> slab =
        bytes ? deserialize_slab(*bytes) : std::nullopt;
    if (!slab) {
      // Same contract as a probe: unreadable means drop, unparsable means
      // drop and count the corruption. Either way the key is a clean miss
      // later, never an attach failure.
      {
        std::lock_guard<std::mutex> lock(disk_->mu);
        disk_drop_locked(key);
      }
      if (bytes) c_corrupt_drops_->add();
      continue;
    }
    const std::size_t slab_cost = slab_bytes(*slab);
    std::lock_guard<std::mutex> lock(mu_);
    if (static_cast<std::size_t>(g_bytes_->value()) + slab_cost >
        byte_budget_) {
      break;  // memory is full
    }
    if (index_.count(key)) continue;
    lru_.push_back(Entry{key, std::move(*slab), slab_cost});
    index_[key] = std::prev(lru_.end());
    g_bytes_->add(static_cast<std::int64_t>(slab_cost));
    g_entries_->set(static_cast<std::int64_t>(index_.size()));
  }
}

bool ChunkCache::lookup(const Fingerprint& key, ColumnSlab* out) {
  obs::Span span("cache.probe", "cache");
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      c_hits_->add();
      span.tag("tier", "mem");
      lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
      *out = it->second->slab;
      return true;
    }
    // An evicted entry whose slab file is still being written (fsync can
    // take a while) is served from the demotion buffer — the key must
    // never be a miss while it sits between tiers.
    auto dit = demoting_index_.find(key);
    if (dit != demoting_index_.end()) {
      c_hits_->add();
      span.tag("tier", "mem");
      *out = dit->second->slab;
      return true;
    }
    if (!disk_) {
      c_misses_->add();
      span.tag("tier", "miss");
      return false;
    }
  }
  // Memory missed; probe the disk tier with the memory lock released.
  bool corrupt = false;
  std::optional<ColumnSlab> slab = disk_probe(key, &corrupt);
  if (!slab) {
    c_misses_->add();
    if (corrupt) c_corrupt_drops_->add();
    span.tag("tier", "miss");
    return false;
  }
  *out = std::move(*slab);
  // Promote: the key is hot again, so it belongs in memory. The file
  // stays on disk — demoting it later is then a recency touch, not a
  // rewrite (contents are deterministic, so they cannot have changed).
  std::vector<Fingerprint> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    c_hits_->add();
    c_disk_hits_->add();
    span.tag("tier", "disk");
    const std::size_t bytes = slab_bytes(*out);
    if (bytes <= byte_budget_) {
      auto it = index_.find(key);
      if (it != index_.end()) {
        // A racing promoter/inserter beat us; refresh recency only.
        lru_.splice(lru_.begin(), lru_, it->second);
      } else {
        lru_.push_front(Entry{key, *out, bytes});
        index_[key] = lru_.begin();
        g_bytes_->add(static_cast<std::int64_t>(bytes));
        g_entries_->set(static_cast<std::int64_t>(index_.size()));
      }
      victims = evict_to_budget_locked();
    }
  }
  demote_evicted(victims);
  return true;
}

void ChunkCache::insert(const Fingerprint& key, const ColumnSlab& slab) {
  // The slab deep-copy happens before the lock so concurrent cold-path
  // workers serialize only on the pointer splices, not on payload copies.
  Entry entry{key, slab, slab_bytes(slab)};
  std::vector<Fingerprint> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entry.bytes > byte_budget_) return;  // would evict all for nothing
    auto it = index_.find(key);
    if (it != index_.end()) {
      // Refresh: deterministic keys mean the value can only be identical,
      // but replacing keeps the cache correct even if a caller misuses it.
      g_bytes_->sub(static_cast<std::int64_t>(it->second->bytes));
      g_bytes_->add(static_cast<std::int64_t>(entry.bytes));
      *it->second = std::move(entry);
      lru_.splice(lru_.begin(), lru_, it->second);
    } else {
      lru_.push_front(std::move(entry));
      index_[key] = lru_.begin();
      g_bytes_->add(static_cast<std::int64_t>(lru_.front().bytes));
      g_entries_->set(static_cast<std::int64_t>(index_.size()));
    }
    victims = evict_to_budget_locked();
  }
  demote_evicted(victims);
}

std::vector<Fingerprint> ChunkCache::evict_to_budget_locked() {
  std::vector<Fingerprint> keys;
  while (static_cast<std::size_t>(g_bytes_->value()) > byte_budget_ &&
         !lru_.empty()) {
    Entry& victim = lru_.back();
    g_bytes_->sub(static_cast<std::int64_t>(victim.bytes));
    index_.erase(victim.key);
    c_evictions_->add();
    if (disk_ && demoting_index_.count(victim.key) == 0) {
      // Park the victim in the demotion buffer instead of destroying it:
      // lookups keep serving it until the slab file is durably written.
      const Fingerprint key = victim.key;
      demoting_.splice(demoting_.begin(), lru_, std::prev(lru_.end()));
      demoting_index_[key] = demoting_.begin();
      keys.push_back(key);
    } else {
      // No disk tier, or a demotion of this key is already in flight
      // (contents are deterministic-identical, so it covers this victim).
      lru_.pop_back();
    }
  }
  g_entries_->set(static_cast<std::int64_t>(index_.size()));
  return keys;
}

void ChunkCache::persist_one(const Fingerprint& key, const ColumnSlab& slab) {
  {
    std::lock_guard<std::mutex> lock(disk_->mu);
    auto it = disk_->index.find(key);
    if (it != disk_->index.end()) {
      // Already persisted (a promoted entry coming back down, or a racing
      // demoter won): contents are deterministic-identical, so refresh
      // recency and skip the write.
      disk_->lru.splice(disk_->lru.begin(), disk_->lru, it->second);
      return;
    }
  }
  // Serialize outside the disk lock; only the write itself is held.
  const std::vector<std::uint8_t> bytes = serialize_slab(slab);
  std::lock_guard<std::mutex> lock(disk_->mu);
  if (disk_->index.count(key)) return;  // racing demoter won
  if (bytes.size() > disk_->config.byte_budget) return;
  // An open breaker drops the victim instead of writing — losing a
  // demotion costs a future recompute, not a query failure.
  if (!breaker_admits_locked()) return;
  const fs::path path = slab_path(disk_->config.dir, key);
  const bool wrote = write_file_atomic(path, bytes);
  breaker_record_locked(wrote);
  if (!wrote) return;  // future miss, no error
  disk_->lru.push_front(DiskEntry{key, bytes.size()});
  disk_->index[key] = disk_->lru.begin();
  g_disk_bytes_->add(static_cast<std::int64_t>(bytes.size()));
  g_disk_entries_->set(static_cast<std::int64_t>(disk_->index.size()));
  c_demotions_->add();
  disk_evict_to_budget_locked();
}

void ChunkCache::demote_evicted(const std::vector<Fingerprint>& keys) {
  if (!disk_ || keys.empty()) return;
  for (const Fingerprint& key : keys) {
    const ColumnSlab* slab = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = demoting_index_.find(key);
      if (it == demoting_index_.end()) continue;
      slab = &it->second->slab;
    }
    // Safe to read outside mu_: buffer entries are never mutated in
    // place, and only this demoter (the evictor that parked `key`)
    // erases it.
    persist_one(key, *slab);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = demoting_index_.find(key);
    if (it != demoting_index_.end()) {
      demoting_.erase(it->second);
      demoting_index_.erase(it);
    }
  }
}

void ChunkCache::demote_entries(std::vector<Entry> victims) {
  if (!disk_ || victims.empty()) return;
  for (Entry& victim : victims) persist_one(victim.key, victim.slab);
}

std::optional<ColumnSlab> ChunkCache::disk_probe(const Fingerprint& key,
                                                 bool* corrupt) {
  {
    std::lock_guard<std::mutex> lock(disk_->mu);
    auto it = disk_->index.find(key);
    if (it == disk_->index.end()) return std::nullopt;
    // An open breaker suppresses the probe but keeps the entry: the file
    // is (probably) fine, the disk underneath it is not, and the entry is
    // servable again the moment a re-probe closes the breaker.
    if (!breaker_admits_locked()) return std::nullopt;
    disk_->lru.splice(disk_->lru.begin(), disk_->lru, it->second);
  }
  const fs::path path = slab_path(disk_->config.dir, key);
  std::optional<std::vector<std::uint8_t>> bytes = read_file(path);
  if (bytes) {
    if (std::optional<ColumnSlab> slab = deserialize_slab(*bytes)) {
      std::lock_guard<std::mutex> lock(disk_->mu);
      breaker_record_locked(/*ok=*/true);
      return slab;
    }
    // Parsed files are misses only when absent; an unparsable one is
    // corruption — unlink it so it cannot cost another probe.
    *corrupt = true;
  }
  // Unreadable or unparsable: drop the entry (and file), feed the breaker
  // one failure, and miss.
  std::lock_guard<std::mutex> lock(disk_->mu);
  breaker_record_locked(/*ok=*/false);
  disk_drop_locked(key);
  return std::nullopt;
}

bool ChunkCache::breaker_admits_locked() {
  if (!disk_->breaker_open) return true;
  disk_->ops_while_open += 1;
  if (disk_->ops_while_open % DiskTierConfig::kBreakerReprobe == 0) {
    c_breaker_probes_->add();
    return true;  // half-open: let one operation test the disk
  }
  c_breaker_skips_->add();
  return false;
}

void ChunkCache::breaker_record_locked(bool ok) {
  if (ok) {
    disk_->consecutive_failures = 0;
    if (disk_->breaker_open) {
      disk_->breaker_open = false;
      disk_->ops_while_open = 0;
      g_breaker_open_->set(0);
    }
    return;
  }
  disk_->consecutive_failures += 1;
  if (!disk_->breaker_open &&
      disk_->consecutive_failures >= DiskTierConfig::kBreakerThreshold) {
    disk_->breaker_open = true;
    disk_->ops_while_open = 0;
    c_breaker_trips_->add();
    g_breaker_open_->set(1);
  }
}

void ChunkCache::disk_drop_locked(const Fingerprint& key) {
  auto it = disk_->index.find(key);
  if (it != disk_->index.end()) {
    g_disk_bytes_->sub(static_cast<std::int64_t>(it->second->bytes));
    disk_->lru.erase(it->second);
    disk_->index.erase(it);
    g_disk_entries_->set(static_cast<std::int64_t>(disk_->index.size()));
  }
  std::error_code ec;
  fs::remove(slab_path(disk_->config.dir, key), ec);
}

void ChunkCache::disk_evict_to_budget_locked() {
  while (static_cast<std::size_t>(g_disk_bytes_->value()) >
             disk_->config.byte_budget &&
         !disk_->lru.empty()) {
    const DiskEntry& victim = disk_->lru.back();
    g_disk_bytes_->sub(static_cast<std::int64_t>(victim.bytes));
    std::error_code ec;
    fs::remove(slab_path(disk_->config.dir, victim.key), ec);
    disk_->index.erase(victim.key);
    disk_->lru.pop_back();
    c_disk_evictions_->add();
  }
  g_disk_entries_->set(static_cast<std::int64_t>(disk_->index.size()));
}

void ChunkCache::flush_disk() {
  if (!disk_) return;
  std::vector<Entry> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.reserve(lru_.size());
    // Oldest first, so the disk LRU ends up with the same recency order
    // memory had and a tight disk budget keeps the hottest entries.
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      snapshot.push_back(*it);
    }
  }
  demote_entries(std::move(snapshot));
}

CacheStats ChunkCache::stats() const {
  // Pure metric reads — the struct is a view over cache.* metrics, so it
  // can never drift from what a Registry snapshot reports.
  CacheStats s;
  s.hits = c_hits_->value();
  s.misses = c_misses_->value();
  s.evictions = c_evictions_->value();
  s.bytes = static_cast<std::size_t>(g_bytes_->value());
  s.entries = static_cast<std::size_t>(g_entries_->value());
  s.disk_hits = c_disk_hits_->value();
  s.demotions = c_demotions_->value();
  s.disk_evictions = c_disk_evictions_->value();
  s.corrupt_drops = c_corrupt_drops_->value();
  s.orphan_drops = c_orphan_drops_->value();
  s.disk_bytes = static_cast<std::size_t>(g_disk_bytes_->value());
  s.disk_entries = static_cast<std::size_t>(g_disk_entries_->value());
  s.breaker_trips = c_breaker_trips_->value();
  s.breaker_skips = c_breaker_skips_->value();
  s.breaker_probes = c_breaker_probes_->value();
  s.breaker_open = g_breaker_open_->value() != 0;
  return s;
}

std::size_t ChunkCache::byte_budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return byte_budget_;
}

void ChunkCache::set_byte_budget(std::size_t bytes) {
  std::vector<Fingerprint> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    byte_budget_ = bytes;
    victims = evict_to_budget_locked();
  }
  demote_evicted(victims);
}

void ChunkCache::clear() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    index_.clear();
    g_bytes_->set(0);
    g_entries_->set(0);
  }
  if (disk_) {
    std::lock_guard<std::mutex> lock(disk_->mu);
    for (const DiskEntry& entry : disk_->lru) {
      std::error_code ec;
      fs::remove(slab_path(disk_->config.dir, entry.key), ec);
    }
    disk_->lru.clear();
    disk_->index.clear();
    g_disk_bytes_->set(0);
    g_disk_entries_->set(0);
  }
}

}  // namespace privid::engine
