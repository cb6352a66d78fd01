// Chunk-output cache tests: fingerprint framing, LRU eviction at the byte
// budget, hit/miss stats, epoch invalidation on mask re-registration and
// re-tuning, and the core guarantee — releases, sensitivities and
// budget-ledger charges are bit-identical with the cache off vs. shared at
// any thread count, on grouped, keyed and standing queries.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "counting_exe.hpp"
#include "engine/chunk_cache.hpp"
#include "engine/privid.hpp"
#include "engine/standing.hpp"
#include "sim/scenarios.hpp"
#include "table/slab_io.hpp"

namespace privid::engine {
namespace {

// This suite pins exact hit/miss/eviction counts, so CI's chaos replay
// (PRIVID_FAULTS) must not perturb it — the equivalence suites in
// test_fault.cpp are the ones that run armed. Static-init so it runs
// before the fault plane's lazy env read can ever happen.
const bool g_faults_cleared = [] {
  unsetenv("PRIVID_FAULTS");
  return true;
}();

// ------------------------------------------------------------ fixtures

// Deterministic scene: `n` people crossing one at a time, each visible for
// 10 s, one every 20 s starting at t = 5 (same shape as test_engine.cpp).
std::shared_ptr<sim::Scene> staircase_scene(int n) {
  VideoMeta m;
  m.camera_id = "cam";
  m.fps = 10;
  m.width = 1280;
  m.height = 720;
  m.extent = {0, 20.0 * n + 20};
  auto s = std::make_shared<sim::Scene>(m);
  for (int i = 0; i < n; ++i) {
    sim::Entity e;
    e.id = i + 1;
    e.cls = sim::EntityClass::kPerson;
    e.appearance_feature.assign(8, 0.1);
    double t0 = 5.0 + 20.0 * i;
    e.appearances.push_back(sim::Trajectory::linear(
        t0, t0 + 10, Box{0, 300, 60, 120}, Box{1200, 300, 60, 120}));
    s->add_entity(e);
  }
  return s;
}

using testutil::counting_exe;

// Emits one string-keyed row per chunk so keyed GROUP BY queries have
// something to group on; the parity key exercises per-chunk determinism.
Executable parity_exe() {
  return [](const ChunkView& view) {
    ExecOutput out;
    out.rows.push_back(
        {Value(view.chunk_index() % 2 == 0 ? "even" : "odd"), Value(1.0)});
    out.simulated_runtime = 0.1;
    return out;
  };
}

Privid make_system(int n_people = 5, double rho = 10, int k = 1,
                   double budget = 100, std::uint64_t noise_seed = 7) {
  // This suite pins cache modes and tiers programmatically — hit/miss
  // assertions and explicit attach_disk_tier calls must not be perturbed
  // by CI's env-driven cache replay (PRIVID_CACHE_DIR would auto-attach a
  // dir shared across every suite in the run).
  unsetenv("PRIVID_CACHE_DIR");
  unsetenv("PRIVID_CACHE_PRELOAD");
  Privid sys(noise_seed);
  auto scene = staircase_scene(n_people);
  CameraRegistration reg;
  reg.meta = scene->meta();
  reg.content.scene = scene;
  reg.content.seed = 11;
  reg.policy = {rho, k};
  reg.epsilon_budget = budget;
  Mask top(1280, 720, 64, 36);
  top.mask_box(Box{0, 0, 1280, 120});
  reg.masks.emplace("top_strip", MaskEntry{top, {rho / 2, k}});
  sys.register_camera(std::move(reg));
  sys.register_executable("count", counting_exe());
  sys.register_executable("parity", parity_exe());
  return sys;
}

constexpr const char* kGroupedQuery =
    "SPLIT cam BEGIN 0 END 100 BY TIME 5 STRIDE 0 INTO c;"
    "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
    "WITH SCHEMA (seen:NUMBER=0) INTO t;"
    "SELECT COUNT(*) FROM t GROUP BY hour(chunk);";

constexpr const char* kKeyedQuery =
    "SPLIT cam BEGIN 0 END 100 BY TIME 5 STRIDE 0 INTO c;"
    "PROCESS c USING parity TIMEOUT 1 PRODUCING 1 ROWS "
    "WITH SCHEMA (side:STRING=\"even\", n:NUMBER=0) INTO t;"
    "SELECT side, COUNT(*) FROM t GROUP BY side WITH KEYS "
    "[\"even\", \"odd\"];";

void expect_releases_identical(const std::vector<Release>& a,
                               const std::vector<Release>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].group_key, b[i].group_key);
    EXPECT_EQ(a[i].value, b[i].value);  // bit-identical, not approximate
    EXPECT_EQ(a[i].raw, b[i].raw);
    EXPECT_EQ(a[i].sensitivity, b[i].sensitivity);
    EXPECT_EQ(a[i].epsilon, b[i].epsilon);
    EXPECT_EQ(a[i].argmax_key, b[i].argmax_key);
  }
}

Fingerprint key_of(std::uint64_t i) {
  FingerprintBuilder fp;
  fp.add(i);
  return fp.digest();
}

// A cached slab whose footprint is dominated by `payload` string bytes.
ColumnSlab slab_with_payload(std::size_t payload) {
  Schema schema({{"s", DType::kString, Value(std::string())}});
  ColumnSlab slab(schema);
  slab.append_string(0, std::string(payload, 'x'));
  slab.finish_row();
  return slab;
}

// -------------------------------------------------------- fingerprints

TEST(Fingerprint, FramingPreventsAliasing) {
  FingerprintBuilder ab_c, a_bc;
  ab_c.add(std::string("ab")).add(std::string("c"));
  a_bc.add(std::string("a")).add(std::string("bc"));
  EXPECT_FALSE(ab_c.digest() == a_bc.digest());

  // Same payload bits, different types.
  FingerprintBuilder as_u64, as_f64;
  as_u64.add(std::uint64_t{0});
  as_f64.add(0.0);
  EXPECT_FALSE(as_u64.digest() == as_f64.digest());
}

TEST(Fingerprint, OrderAndValueSensitive) {
  FingerprintBuilder ab, ba;
  ab.add(std::uint64_t{1}).add(std::uint64_t{2});
  ba.add(std::uint64_t{2}).add(std::uint64_t{1});
  EXPECT_FALSE(ab.digest() == ba.digest());
  EXPECT_EQ(key_of(42), key_of(42));
  EXPECT_FALSE(key_of(42) == key_of(43));
}

// -------------------------------------------------------- cache basics

TEST(ChunkCache, HitMissStats) {
  ChunkCache cache(1 << 20);
  ColumnSlab out;
  EXPECT_FALSE(cache.lookup(key_of(1), &out));
  cache.insert(key_of(1), slab_with_payload(16));
  EXPECT_TRUE(cache.lookup(key_of(1), &out));
  ASSERT_EQ(out.row_count(), 1u);
  EXPECT_EQ(out.string_at(0, 0), std::string(16, 'x'));

  CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, 16u);
}

TEST(ChunkCache, LruEvictionAtByteBudget) {
  // Budget sized for exactly two payload-1KiB entries.
  const std::size_t entry = ChunkCache::slab_bytes(slab_with_payload(1024));
  ChunkCache cache(2 * entry);
  cache.insert(key_of(1), slab_with_payload(1024));
  cache.insert(key_of(2), slab_with_payload(1024));
  ColumnSlab out;
  ASSERT_TRUE(cache.lookup(key_of(1), &out));  // 1 is now most recent
  cache.insert(key_of(3), slab_with_payload(1024));

  EXPECT_FALSE(cache.lookup(key_of(2), &out));  // LRU victim
  EXPECT_TRUE(cache.lookup(key_of(1), &out));
  EXPECT_TRUE(cache.lookup(key_of(3), &out));
  CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes, 2 * entry);
}

TEST(ChunkCache, OversizeValueIsNotCached) {
  ChunkCache cache(64);
  cache.insert(key_of(1), slab_with_payload(4096));
  ColumnSlab out;
  EXPECT_FALSE(cache.lookup(key_of(1), &out));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ChunkCache, ShrinkingBudgetEvictsDown) {
  ChunkCache cache(1 << 20);
  for (std::uint64_t i = 0; i < 8; ++i) {
    cache.insert(key_of(i), slab_with_payload(1024));
  }
  EXPECT_EQ(cache.stats().entries, 8u);
  cache.set_byte_budget(3 * ChunkCache::slab_bytes(slab_with_payload(1024)));
  EXPECT_LE(cache.stats().entries, 3u);
  EXPECT_GE(cache.stats().evictions, 5u);
  // The survivors are the most recently inserted.
  ColumnSlab out;
  EXPECT_TRUE(cache.lookup(key_of(7), &out));
  EXPECT_FALSE(cache.lookup(key_of(0), &out));
}

TEST(ChunkCache, ClearKeepsCounters) {
  ChunkCache cache(1 << 20);
  cache.insert(key_of(1), slab_with_payload(8));
  ColumnSlab out;
  EXPECT_TRUE(cache.lookup(key_of(1), &out));
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);  // cumulative counters survive
  EXPECT_FALSE(cache.lookup(key_of(1), &out));
}

TEST(ChunkCache, EnvResolution) {
  EXPECT_EQ(resolve_cache_mode(CacheMode::kOff), CacheMode::kOff);
  EXPECT_EQ(resolve_cache_mode(CacheMode::kShared), CacheMode::kShared);
  // kDefault follows PRIVID_CACHE; with the variable unset it must be off.
  if (!std::getenv("PRIVID_CACHE")) {
    EXPECT_EQ(resolve_cache_mode(CacheMode::kDefault), CacheMode::kOff);
  }
}

// ------------------------------------------------- facade integration

TEST(ChunkCache, SharedModeHitsOnRepeatedQuery) {
  Privid sys = make_system();
  RunOptions opts;
  opts.cache = CacheMode::kShared;
  auto cold = sys.execute(kGroupedQuery, opts);
  EXPECT_EQ(cold.cache.hits, 0u);
  EXPECT_EQ(cold.cache.misses, 20u);  // 100 s / 5 s chunks
  auto warm = sys.execute(kGroupedQuery, opts);
  EXPECT_EQ(warm.cache.hits, 20u);
  EXPECT_EQ(warm.cache.misses, 0u);
  CacheStats s = sys.cache_stats();
  EXPECT_EQ(s.hits, 20u);
  EXPECT_EQ(s.misses, 20u);
  EXPECT_EQ(s.entries, 20u);
}

// --------------------------------------------------- the core guarantee

// Releases (raw, sensitivity *and* noise), table rows and ledger charges
// must be byte-identical with the cache off vs. shared, cold and warm, at
// 1 and 4 and all-hardware threads, on grouped and keyed queries.
TEST(CacheEquivalence, BitIdenticalOffVsSharedAcrossThreads) {
  for (const char* query : {kGroupedQuery, kKeyedQuery}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{4},
                                std::size_t{0}}) {
      Privid off_sys = make_system();
      Privid shared_sys = make_system();
      RunOptions off;
      off.reveal_raw = true;
      off.num_threads = threads;
      off.cache = CacheMode::kOff;
      RunOptions shared = off;
      shared.cache = CacheMode::kShared;

      // Same query twice on each system: the second shared run is warm.
      auto off1 = off_sys.execute(query, off);
      auto off2 = off_sys.execute(query, off);
      auto shared1 = shared_sys.execute(query, shared);
      auto shared2 = shared_sys.execute(query, shared);
      EXPECT_GT(shared2.cache.hits, 0u);
      EXPECT_EQ(shared2.cache.misses, 0u);

      expect_releases_identical(off1.releases, shared1.releases);
      expect_releases_identical(off2.releases, shared2.releases);
      EXPECT_EQ(off1.table_rows, shared1.table_rows);
      EXPECT_EQ(off2.table_rows, shared2.table_rows);
      // Ledger charges are identical too: same remaining budget everywhere.
      for (FrameIndex f : {0, 250, 500, 999}) {
        EXPECT_EQ(off_sys.remaining_budget("cam", f),
                  shared_sys.remaining_budget("cam", f));
      }
    }
  }
}

TEST(CacheEquivalence, MaskedQueryIdenticalAndCached) {
  constexpr const char* kMasked =
      "SPLIT cam BEGIN 0 END 100 BY TIME 5 STRIDE 0 WITH MASK top_strip "
      "INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t;";
  Privid off_sys = make_system();
  Privid shared_sys = make_system();
  RunOptions off;
  off.reveal_raw = true;
  off.cache = CacheMode::kOff;
  RunOptions shared = off;
  shared.cache = CacheMode::kShared;
  // Unmasked then masked: the mask id is part of the key, so the masked
  // run must not reuse unmasked rows.
  auto off_plain = off_sys.execute(kGroupedQuery, off);
  auto off_masked = off_sys.execute(kMasked, off);
  auto shared_plain = shared_sys.execute(kGroupedQuery, shared);
  auto shared_masked = shared_sys.execute(kMasked, shared);
  EXPECT_EQ(shared_masked.cache.hits, 0u);  // distinct key space
  expect_releases_identical(off_plain.releases, shared_plain.releases);
  expect_releases_identical(off_masked.releases, shared_masked.releases);
}

// ------------------------------------------------------- invalidation

TEST(CacheInvalidation, MaskReRegistrationBumpsEpoch) {
  constexpr const char* kMasked =
      "SPLIT cam BEGIN 0 END 100 BY TIME 5 STRIDE 0 WITH MASK top_strip "
      "INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t;";
  Privid sys = make_system();
  RunOptions opts;
  opts.reveal_raw = true;
  opts.cache = CacheMode::kShared;
  auto before = sys.execute(kMasked, opts);
  EXPECT_GT(before.releases[0].raw, 0.0);  // people visible at y=300

  // Replace top_strip with a mask that blocks the whole frame: cached rows
  // for the old mask must not be served.
  Mask full(1280, 720, 64, 36);
  full.mask_box(Box{0, 0, 1280, 720});
  sys.register_mask("cam", "top_strip", MaskEntry{full, {5, 1}});
  auto after = sys.execute(kMasked, opts);
  EXPECT_EQ(after.cache.hits, 0u);  // epoch bumped -> all misses
  EXPECT_EQ(after.cache.misses, 20u);
  EXPECT_EQ(after.releases[0].raw, 0.0);  // fully masked: nothing seen

  // Unknown camera / bad policy are rejected.
  EXPECT_THROW(sys.register_mask("nope", "m", MaskEntry{full, {5, 1}}),
               LookupError);
  EXPECT_THROW(sys.register_mask("cam", "m", MaskEntry{full, {-1, 1}}),
               ArgumentError);
}

TEST(CacheInvalidation, RetuneCameraBumpsEpoch) {
  Privid sys = make_system();
  RunOptions opts;
  opts.cache = CacheMode::kShared;
  sys.execute(kGroupedQuery, opts);
  auto warm = sys.execute(kGroupedQuery, opts);
  EXPECT_EQ(warm.cache.hits, 20u);
  sys.retune_camera("cam", {12, 1});
  auto after = sys.execute(kGroupedQuery, opts);
  EXPECT_EQ(after.cache.hits, 0u);
  EXPECT_EQ(after.cache.misses, 20u);
  EXPECT_THROW(sys.retune_camera("nope", {5, 1}), LookupError);
}

TEST(CacheInvalidation, ExecutableReplacementBumpsVersion) {
  constexpr const char* kFlatCount =
      "SPLIT cam BEGIN 0 END 100 BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t;";
  Privid sys = make_system();
  RunOptions opts;
  opts.reveal_raw = true;
  opts.cache = CacheMode::kShared;
  auto before = sys.execute(kFlatCount, opts);
  ASSERT_EQ(before.releases.size(), 1u);
  EXPECT_GT(before.releases[0].raw, 0.0);
  // Replace "count" with an executable that reports nothing: the cached
  // rows of the old function must be unreachable under the new version.
  sys.register_executable("count", [](const ChunkView&) {
    ExecOutput out;
    out.simulated_runtime = 0.1;
    return out;
  });
  auto after = sys.execute(kFlatCount, opts);
  EXPECT_EQ(after.cache.hits, 0u);
  ASSERT_EQ(after.releases.size(), 1u);
  EXPECT_EQ(after.releases[0].raw, 0.0);
}

// ---------------------------------------------------- standing queries

constexpr const char* kStandingTemplate =
    "SPLIT cam BEGIN {BEGIN} END {END} BY TIME 5 STRIDE 0 INTO c;"
    "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
    "WITH SCHEMA (seen:NUMBER=0) INTO t;"
    "SELECT COUNT(*) FROM t;";

TEST(StandingCache, WarmReplayServesEveryChunkFromCache) {
  Privid sys = make_system(5, 10, 1, /*budget=*/50);
  StandingQuery::Spec spec;
  spec.query_template = kStandingTemplate;
  spec.period = 30;
  spec.opts.reveal_raw = true;
  spec.opts.cache = CacheMode::kShared;

  StandingQuery cold(&sys, spec);
  auto cold_releases = cold.advance(90);  // three periods, 6 chunks each
  ASSERT_EQ(cold_releases.size(), 3u);
  CacheStats after_cold = sys.cache_stats();
  EXPECT_EQ(after_cold.hits, 0u);
  EXPECT_EQ(after_cold.misses, 18u);

  // A second standing query over the same history (re-deployment replay)
  // pays zero PROCESS work: every chunk is served from the cache, and the
  // raw aggregates match the cold run exactly.
  StandingQuery warm(&sys, spec);
  auto warm_releases = warm.advance(90);
  ASSERT_EQ(warm_releases.size(), 3u);
  CacheStats after_warm = sys.cache_stats();
  EXPECT_EQ(after_warm.hits, 18u);
  EXPECT_EQ(after_warm.misses, 18u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(warm_releases[i].raw, cold_releases[i].raw);
    EXPECT_EQ(warm_releases[i].sensitivity, cold_releases[i].sensitivity);
  }
}

TEST(StandingCache, OffVsSharedStandingBitIdentical) {
  // Twin systems, same seed, same advance() sequence: one cached, one not.
  // Everything the analyst sees — noise included — must be bit-identical,
  // and so must the ledger.
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Privid off_sys = make_system(5, 10, 1, 50);
    Privid shared_sys = make_system(5, 10, 1, 50);
    StandingQuery::Spec spec;
    spec.query_template = kStandingTemplate;
    spec.period = 30;
    spec.opts.reveal_raw = true;
    spec.opts.num_threads = threads;

    spec.opts.cache = CacheMode::kOff;
    StandingQuery off_q(&off_sys, spec);
    spec.opts.cache = CacheMode::kShared;
    StandingQuery shared_q(&shared_sys, spec);

    for (Seconds now : {30.0, 90.0}) {
      auto a = off_q.advance(now);
      auto b = shared_q.advance(now);
      expect_releases_identical(a, b);
    }
    for (FrameIndex f : {0, 450, 899}) {
      EXPECT_EQ(off_sys.remaining_budget("cam", f),
                shared_sys.remaining_budget("cam", f));
    }
  }
}

TEST(StandingCache, TemplateReleasesMatchHandSubstitutedExecute) {
  // Every period substitutes its window into the template text and
  // parses it, wherever the placeholders sit: only in the SPLIT, or also
  // in a WHERE literal. Either way the releases must be byte-identical to
  // executing the hand-substituted text directly.
  const std::string where_template =
      "SPLIT cam BEGIN {BEGIN} END {END} BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t WHERE seen < {END};";
  for (const std::string& text : {std::string(kStandingTemplate),
                                  where_template}) {
    SCOPED_TRACE(text);
    Privid sys = make_system(5, 10, 1, 50, /*noise_seed=*/21);
    StandingQuery::Spec spec;
    spec.query_template = text;
    spec.period = 30;
    spec.opts.reveal_raw = true;
    StandingQuery standing(&sys, spec);
    auto releases = standing.advance(60);

    Privid ref = make_system(5, 10, 1, 50, /*noise_seed=*/21);
    std::vector<Release> expected;
    for (Seconds begin : {0.0, 30.0}) {
      auto r = ref.execute(substitute_window(text, begin, begin + 30),
                           spec.opts);
      for (auto& rel : r.releases) expected.push_back(std::move(rel));
    }
    ASSERT_EQ(expected.size(), 2u);
    expect_releases_identical(releases, expected);
  }
}

TEST(StandingCache, MalformedTemplateStillThrowsAtAdvance) {
  Privid sys = make_system(2);
  StandingQuery::Spec spec;
  spec.query_template = "{BEGIN} {END} not a query";
  spec.period = 10;
  StandingQuery q(&sys, spec);  // constructor must not throw
  EXPECT_THROW(q.advance(10), Error);
}

// -------------------------------------------------------- disk tier

// A fresh cache directory under the test's working directory (ctest runs
// inside the build tree, so nothing leaks outside it).
std::filesystem::path fresh_cache_dir(const std::string& name) {
  auto dir = std::filesystem::current_path() / ("privid_cache_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

std::size_t slab_file_count(const std::filesystem::path& dir) {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".slab") ++n;
  }
  return n;
}

DiskTierConfig disk_config(const std::filesystem::path& dir,
                           std::size_t budget = 64u << 20) {
  DiskTierConfig config;
  config.dir = dir.string();
  config.byte_budget = budget;
  return config;
}

TEST(DiskTier, DemoteOnEvictAndPromoteOnMiss) {
  const auto dir = fresh_cache_dir("demote");
  const std::size_t entry = ChunkCache::slab_bytes(slab_with_payload(1024));
  ChunkCache cache(2 * entry);
  cache.attach_disk_tier(disk_config(dir));
  EXPECT_TRUE(cache.has_disk_tier());

  cache.insert(key_of(1), slab_with_payload(1024));
  cache.insert(key_of(2), slab_with_payload(1024));
  cache.insert(key_of(3), slab_with_payload(1024));  // evicts 1 -> disk
  CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.demotions, 1u);
  EXPECT_EQ(s.disk_entries, 1u);
  EXPECT_GT(s.disk_bytes, 0u);
  EXPECT_TRUE(
      std::filesystem::exists(ChunkCache::slab_path(dir.string(), key_of(1))));

  // A memory miss is served from disk and promoted back; the slab file
  // stays in place, so a later re-demotion is a free recency touch.
  ColumnSlab out;
  EXPECT_TRUE(cache.lookup(key_of(1), &out));
  EXPECT_EQ(out.string_at(0, 0), std::string(1024, 'x'));
  s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.disk_hits, 1u);
  EXPECT_EQ(s.corrupt_drops, 0u);
  EXPECT_TRUE(
      std::filesystem::exists(ChunkCache::slab_path(dir.string(), key_of(1))));
  // Promotion evicted the then-LRU key 2, which demoted in turn.
  EXPECT_TRUE(cache.lookup(key_of(2), &out));
  EXPECT_EQ(cache.stats().disk_hits, 2u);
}

TEST(DiskTier, FlushOnDestructionAndRestartWarm) {
  const auto dir = fresh_cache_dir("restart");
  {
    ChunkCache cache(1 << 20);
    cache.attach_disk_tier(disk_config(dir));
    for (std::uint64_t i = 0; i < 5; ++i) {
      cache.insert(key_of(i), slab_with_payload(64 + i));
    }
    // Nothing evicted, so nothing on disk yet: the destructor's flush is
    // what persists the memory tier.
    EXPECT_EQ(cache.stats().disk_entries, 0u);
  }
  EXPECT_EQ(slab_file_count(dir), 5u);

  // A new cache pointed at the same directory serves its predecessor's
  // slabs without a single insert.
  ChunkCache revived(1 << 20);
  revived.attach_disk_tier(disk_config(dir));
  EXPECT_EQ(revived.stats().disk_entries, 5u);
  ColumnSlab out;
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(revived.lookup(key_of(i), &out)) << i;
    EXPECT_EQ(out.string_at(0, 0), std::string(64 + i, 'x'));
  }
  EXPECT_EQ(revived.stats().disk_hits, 5u);
}

TEST(DiskTier, CorruptTruncatedAndWrongVersionFilesAreCleanMisses) {
  const auto dir = fresh_cache_dir("corrupt");
  ChunkCache cache(1 << 20);
  cache.attach_disk_tier(disk_config(dir));
  for (std::uint64_t i = 0; i < 3; ++i) {
    cache.insert(key_of(i), slab_with_payload(256));
  }
  cache.flush_disk();
  ASSERT_EQ(slab_file_count(dir), 3u);

  // Mangle each file a different way: truncation, version flip, garbage.
  const auto p0 = ChunkCache::slab_path(dir.string(), key_of(0));
  const auto p1 = ChunkCache::slab_path(dir.string(), key_of(1));
  const auto p2 = ChunkCache::slab_path(dir.string(), key_of(2));
  std::filesystem::resize_file(p0, 10);
  {
    std::fstream f(p1, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    f.put('\x7f');  // version byte
  }
  {
    std::ofstream f(p2, std::ios::binary | std::ios::trunc);
    f << "not a slab at all";
  }

  // Memory still holds the slabs; drop it (keeping the files) by probing
  // through a fresh cache on the same directory.
  ChunkCache fresh(1 << 20);
  fresh.attach_disk_tier(disk_config(dir));
  ASSERT_EQ(fresh.stats().disk_entries, 3u);
  ColumnSlab out;
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(fresh.lookup(key_of(i), &out)) << i;  // miss, not error
  }
  CacheStats s = fresh.stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.corrupt_drops, 3u);
  EXPECT_EQ(s.disk_entries, 0u);  // dropped from the index...
  EXPECT_EQ(slab_file_count(dir), 0u);  // ...and unlinked
}

TEST(DiskTier, DiskBudgetEvictsOldestFiles) {
  const auto dir = fresh_cache_dir("budget");
  const std::size_t file_bytes =
      serialize_slab(slab_with_payload(1024)).size();
  ChunkCache cache(1 << 20);
  // Disk holds two files; the memory tier holds everything.
  cache.attach_disk_tier(disk_config(dir, 2 * file_bytes + file_bytes / 2));
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.insert(key_of(i), slab_with_payload(1024));
  }
  cache.flush_disk();
  CacheStats s = cache.stats();
  EXPECT_EQ(s.disk_entries, 2u);
  EXPECT_EQ(s.disk_evictions, 2u);
  EXPECT_LE(s.disk_bytes, 2 * file_bytes + file_bytes / 2);
  EXPECT_EQ(slab_file_count(dir), 2u);
}

TEST(DiskTier, ClearUnlinksSlabFiles) {
  const auto dir = fresh_cache_dir("clear");
  ChunkCache cache(1 << 20);
  cache.attach_disk_tier(disk_config(dir));
  cache.insert(key_of(1), slab_with_payload(64));
  cache.flush_disk();
  ASSERT_EQ(slab_file_count(dir), 1u);
  cache.clear();
  EXPECT_EQ(cache.stats().disk_entries, 0u);
  EXPECT_EQ(cache.stats().disk_bytes, 0u);
  EXPECT_EQ(slab_file_count(dir), 0u);
  ColumnSlab out;
  EXPECT_FALSE(cache.lookup(key_of(1), &out));
}

TEST(DiskTier, PreloadOnAttachWarmsMemoryTier) {
  const auto dir = fresh_cache_dir("preload");
  {
    ChunkCache cache(1 << 20);
    cache.attach_disk_tier(disk_config(dir));
    for (std::uint64_t i = 0; i < 4; ++i) {
      cache.insert(key_of(i), slab_with_payload(64));
    }
  }  // flush on destruction
  // Corrupt one file: preload must drop it and warm the other three.
  {
    std::ofstream f(ChunkCache::slab_path(dir.string(), key_of(3)),
                    std::ios::binary | std::ios::trunc);
    f << "garbage";
  }
  DiskTierConfig config = disk_config(dir);
  config.preload = true;
  ChunkCache revived(1 << 20);
  revived.attach_disk_tier(config);
  CacheStats s = revived.stats();
  EXPECT_EQ(s.entries, 3u);
  EXPECT_EQ(s.corrupt_drops, 1u);
  EXPECT_EQ(s.hits, 0u);  // preload is not a lookup
  // Every healthy key is a *memory* hit now; the corrupted one is a miss.
  ColumnSlab out;
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(revived.lookup(key_of(i), &out)) << i;
  }
  EXPECT_FALSE(revived.lookup(key_of(3), &out));
  s = revived.stats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.disk_hits, 0u);  // served from memory, no file opens
}

TEST(DiskTier, PreloadStopsAtMemoryBudget) {
  const auto dir = fresh_cache_dir("preload_budget");
  {
    ChunkCache cache(1 << 20);
    cache.attach_disk_tier(disk_config(dir));
    for (std::uint64_t i = 0; i < 6; ++i) {
      cache.insert(key_of(i), slab_with_payload(1024));
    }
  }
  DiskTierConfig config = disk_config(dir);
  config.preload = true;
  // Memory holds two entries; preload must warm exactly the two newest-
  // indexed and leave the rest to lazy promotion.
  ChunkCache revived(2 * ChunkCache::slab_bytes(slab_with_payload(1024)));
  revived.attach_disk_tier(config);
  EXPECT_EQ(revived.stats().entries, 2u);
  EXPECT_EQ(revived.stats().disk_entries, 6u);  // files all stay in place
  ColumnSlab out;
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(revived.lookup(key_of(i), &out)) << i;
  }
  EXPECT_EQ(revived.stats().hits, 6u);
  // At least the four that did not fit in memory came from disk (more if
  // promotion churn evicted a preloaded entry before its lookup).
  EXPECT_GE(revived.stats().disk_hits, 4u);
}

TEST(DiskTier, AttachTwiceThrows) {
  const auto dir = fresh_cache_dir("twice");
  ChunkCache cache(1 << 20);
  cache.attach_disk_tier(disk_config(dir));
  EXPECT_THROW(cache.attach_disk_tier(disk_config(dir)), ArgumentError);
}

TEST(DiskTier, ConfigFromEnv) {
  // Unset: no disk tier.
  unsetenv("PRIVID_CACHE_DIR");
  unsetenv("PRIVID_CACHE_DISK_BYTES");
  EXPECT_FALSE(DiskTierConfig::from_env().has_value());

  setenv("PRIVID_CACHE_DIR", "/some/dir", 1);
  auto config = DiskTierConfig::from_env();
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->dir, "/some/dir");
  EXPECT_EQ(config->byte_budget, DiskTierConfig::kDefaultByteBudget);

  setenv("PRIVID_CACHE_DISK_BYTES", "123456", 1);
  config = DiskTierConfig::from_env();
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->byte_budget, 123456u);

  // Unparsable or zero budget falls back to the default (same
  // never-crash-over-a-typo rule as PRIVID_CACHE).
  setenv("PRIVID_CACHE_DISK_BYTES", "lots", 1);
  EXPECT_EQ(DiskTierConfig::from_env()->byte_budget,
            DiskTierConfig::kDefaultByteBudget);
  setenv("PRIVID_CACHE_DISK_BYTES", "0", 1);
  EXPECT_EQ(DiskTierConfig::from_env()->byte_budget,
            DiskTierConfig::kDefaultByteBudget);

  // Preload knob: "1"/"true"/"on" enable, anything else stays off.
  setenv("PRIVID_CACHE_DIR", "/some/dir", 1);
  EXPECT_FALSE(DiskTierConfig::from_env()->preload);
  setenv("PRIVID_CACHE_PRELOAD", "1", 1);
  EXPECT_TRUE(DiskTierConfig::from_env()->preload);
  setenv("PRIVID_CACHE_PRELOAD", "yes-please", 1);
  EXPECT_FALSE(DiskTierConfig::from_env()->preload);

  // Empty dir means unset.
  setenv("PRIVID_CACHE_DIR", "", 1);
  EXPECT_FALSE(DiskTierConfig::from_env().has_value());
  unsetenv("PRIVID_CACHE_DIR");
  unsetenv("PRIVID_CACHE_DISK_BYTES");
  unsetenv("PRIVID_CACHE_PRELOAD");
}

// The core guarantee extends to the disk tier: releases, sensitivities and
// ledger charges are byte-identical with the cache off vs. shared with a
// memory+disk tier actively demoting/promoting mid-run, at 1, 4 and
// all-hardware threads.
TEST(CacheEquivalence, BitIdenticalMemVsMemDiskAcrossThreads) {
  for (const char* query : {kGroupedQuery, kKeyedQuery}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{4},
                                std::size_t{0}}) {
      const auto dir = fresh_cache_dir("equiv");
      Privid off_sys = make_system();
      Privid tiered_sys = make_system();
      tiered_sys.chunk_cache().attach_disk_tier(disk_config(dir));
      RunOptions off;
      off.reveal_raw = true;
      off.num_threads = threads;
      off.cache = CacheMode::kOff;
      RunOptions shared = off;
      shared.cache = CacheMode::kShared;

      auto off1 = off_sys.execute(query, off);
      auto off2 = off_sys.execute(query, off);
      auto tiered1 = tiered_sys.execute(query, shared);
      // Squeeze the memory tier so most entries demote to disk: the warm
      // run is then served substantially from slab files.
      tiered_sys.chunk_cache().set_byte_budget(
          tiered_sys.cache_stats().bytes / 4);
      EXPECT_GT(tiered_sys.cache_stats().disk_entries, 0u);
      auto tiered2 = tiered_sys.execute(query, shared);
      EXPECT_GT(tiered2.cache.hits, 0u);
      EXPECT_EQ(tiered2.cache.misses, 0u);
      EXPECT_GT(tiered_sys.cache_stats().disk_hits, 0u);

      expect_releases_identical(off1.releases, tiered1.releases);
      expect_releases_identical(off2.releases, tiered2.releases);
      EXPECT_EQ(off1.table_rows, tiered1.table_rows);
      EXPECT_EQ(off2.table_rows, tiered2.table_rows);
      for (FrameIndex f : {0, 250, 500, 999}) {
        EXPECT_EQ(off_sys.remaining_budget("cam", f),
                  tiered_sys.remaining_budget("cam", f));
      }
    }
  }
}

// Facade-level restart: a new process (here, a new Privid) pointed at the
// same cache directory replays the whole query from disk, with releases
// byte-identical to the first process's run (same noise seed, same
// system-RNG stream position).
TEST(CacheEquivalence, RestartWarmServesFromDiskBitIdentical) {
  const auto dir = fresh_cache_dir("facade_restart");
  RunOptions opts;
  opts.reveal_raw = true;
  opts.cache = CacheMode::kShared;
  std::vector<Release> first;
  {
    Privid sys = make_system();
    sys.chunk_cache().attach_disk_tier(disk_config(dir));
    auto res = sys.execute(kGroupedQuery, opts);
    EXPECT_EQ(res.cache.misses, 20u);
    first = res.releases;
  }  // ~Privid -> ~ChunkCache flushes the memory tier to dir
  EXPECT_EQ(slab_file_count(dir), 20u);

  Privid revived = make_system();
  revived.chunk_cache().attach_disk_tier(disk_config(dir));
  auto res = revived.execute(kGroupedQuery, opts);
  EXPECT_EQ(res.cache.hits, 20u);
  EXPECT_EQ(res.cache.misses, 0u);
  EXPECT_EQ(revived.cache_stats().disk_hits, 20u);
  expect_releases_identical(first, res.releases);
}

TEST(CacheInvalidation, MaskReplacedAcrossRestartMissesOldSlabs) {
  // A restarted deployment sharing the disk tier re-registers mask `m`
  // under its old name with different cells. The content epoch is
  // process-local (both facades are at epoch 1 after their one
  // register_mask), so only the mask's contents in the key keep the old
  // slabs from being served — serving them would release the unmasked
  // count under the new mask's ρ = 0 sensitivity.
  constexpr const char* kMasked =
      "SPLIT cam BEGIN 0 END 100 BY TIME 5 STRIDE 0 WITH MASK m INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t;";
  const auto dir = fresh_cache_dir("mask_restart");
  RunOptions opts;
  opts.reveal_raw = true;
  opts.cache = CacheMode::kShared;
  {
    Privid first = make_system();
    first.chunk_cache().attach_disk_tier(disk_config(dir));
    first.register_mask("cam", "m", MaskEntry{Mask(1280, 720, 64, 36),
                                              {10, 1}});
    EXPECT_GT(first.execute(kMasked, opts).releases[0].raw, 0.0);
  }  // flushes the unmasked rows to dir
  ASSERT_EQ(slab_file_count(dir), 20u);

  Mask hide_all(1280, 720, 64, 36);
  hide_all.mask_box(Box{0, 0, 1280, 720});
  Privid reference = make_system();
  reference.register_mask("cam", "m", MaskEntry{hide_all, {0, 1}});
  RunOptions uncached = opts;
  uncached.cache = CacheMode::kOff;
  auto expected = reference.execute(kMasked, uncached);
  EXPECT_EQ(expected.releases[0].raw, 0.0);

  Privid restarted = make_system();
  restarted.chunk_cache().attach_disk_tier(disk_config(dir));
  restarted.register_mask("cam", "m", MaskEntry{hide_all, {0, 1}});
  auto res = restarted.execute(kMasked, opts);
  EXPECT_EQ(res.cache.hits, 0u);
  EXPECT_EQ(res.cache.misses, 20u);
  expect_releases_identical(expected.releases, res.releases);
}

}  // namespace
}  // namespace privid::engine
