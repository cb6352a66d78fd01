// Columnar data-plane tests.
//
// Three layers of coverage:
//   1. Row-vs-columnar equivalence: the engine suites' grouped, keyed and
//      standing queries replayed at threads {1, 4, hw} x cache {off,
//      shared} must reproduce — byte for byte — the releases (noise
//      included), sensitivities and ledger charges captured from the
//      row-based engine at the commit that introduced the columnar data
//      plane. The goldens below are hexfloat dumps from that run.
//   2. Unit tests for the columnar primitives: StringDict interning edge
//      cases (empty string, duplicate-heavy columns, copy semantics),
//      ColumnSlab typed appends and mixed-dtype schema validation errors,
//      Table slab splices and cross-dictionary gathers.
//   3. ChunkCache byte accounting: accounted bytes must track the actual
//      columnar footprint — including string-dictionary storage, so
//      duplicate-heavy payloads are accounted (and evicted) at their
//      deduplicated size.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "counting_exe.hpp"
#include "engine/chunk_cache.hpp"
#include "engine/privid.hpp"
#include "engine/relexec.hpp"
#include "engine/standing.hpp"
#include "sim/scenarios.hpp"
#include "table/column.hpp"
#include "table/ops.hpp"
#include "table/table.hpp"

namespace privid::engine {
namespace {

// ------------------------------------------------------------ fixtures
// Same shape as test_chunk_cache.cpp: `n` people crossing one at a time.

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

Executable parity_exe() {
  return [](const ChunkView& view) {
    ExecOutput out;
    out.rows.push_back(
        {Value(view.chunk_index() % 2 == 0 ? "even" : "odd"), Value(1.0)});
    out.simulated_runtime = 0.1;
    return out;
  };
}

Privid make_system() {
  Privid sys(7);
  auto scene = staircase_scene(5);
  CameraRegistration reg;
  reg.meta = scene->meta();
  reg.content.scene = scene;
  reg.content.seed = 11;
  reg.policy = {10, 1};
  reg.epsilon_budget = 100;
  Mask top(1280, 720, 64, 36);
  top.mask_box(Box{0, 0, 1280, 120});
  reg.masks.emplace("top_strip", MaskEntry{top, {5, 1}});
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

constexpr const char* kStandingTemplate =
    "SPLIT cam BEGIN {BEGIN} END {END} BY TIME 5 STRIDE 0 INTO c;"
    "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
    "WITH SCHEMA (seen:NUMBER=0) INTO t;"
    "SELECT COUNT(*) FROM t;";

// -------------------------------------------- row-vs-columnar goldens
//
// Captured from the row-based engine (`Row = std::vector<Value>` storage)
// immediately before the columnar rewrite, threads = 1, cache off,
// noise seed 7, camera seed 11. Hexfloat: every bit of the noise draw and
// ledger arithmetic is pinned, not just a rounded decimal.

struct GoldenRelease {
  const char* label;
  const char* key;  // joined group key, "" when ungrouped
  double value;
  double raw;
  double sensitivity;
};

constexpr GoldenRelease kGroupedGolden[] = {
    {"*[0]", "0", 0x1.065c8e4276fc3p+4, 0x1.4p+3, 0x1.2p+3},
};
constexpr double kGroupedLedger = 0x1.8cp+6;  // remaining at any frame

constexpr GoldenRelease kKeyedGolden[] = {
    {"*[even]", "even", 0x1.843db42c4f52dp+3, 0x1.4p+3, 0x1.8p+1},
    {"*[odd]", "odd", 0x1.0ddb9e46dcb5fp+4, 0x1.4p+3, 0x1.8p+1},
};
constexpr double kKeyedLedger = 0x1.88p+6;

constexpr GoldenRelease kStandingGolden[] = {
    {"*", "", 0x1.2cb91c84edf86p+3, 0x1.8p+1, 0x1.2p+3},
    {"*", "", 0x1.7992dad49621dp+4, 0x1.8p+1, 0x1.2p+3},
    {"*", "", -0x1.4148776170d6ep+3, 0x1.8p+1, 0x1.2p+3},
};
constexpr double kStandingLedger = 0x1.8cp+6;

std::string joined_key(const Release& r) {
  std::string out;
  for (std::size_t i = 0; i < r.group_key.size(); ++i) {
    if (i) out += ",";
    out += r.group_key[i].to_string();
  }
  return out;
}

template <std::size_t N>
void expect_matches_golden(const std::vector<Release>& releases,
                           const GoldenRelease (&golden)[N]) {
  ASSERT_EQ(releases.size(), N);
  for (std::size_t i = 0; i < N; ++i) {
    EXPECT_EQ(releases[i].label, golden[i].label);
    EXPECT_EQ(joined_key(releases[i]), golden[i].key);
    // Bit-identical, not approximate: the columnar engine must reproduce
    // the row-based engine's doubles exactly.
    EXPECT_EQ(releases[i].value, golden[i].value) << "release " << i;
    EXPECT_EQ(releases[i].raw, golden[i].raw) << "release " << i;
    EXPECT_EQ(releases[i].sensitivity, golden[i].sensitivity)
        << "release " << i;
    EXPECT_EQ(releases[i].epsilon, 1.0);
  }
}

struct EquivalenceConfig {
  std::size_t threads;
  CacheMode cache;
};

class ColumnarEquivalence
    : public ::testing::TestWithParam<EquivalenceConfig> {};

TEST_P(ColumnarEquivalence, GroupedQueryMatchesRowEraGolden) {
  Privid sys = make_system();
  RunOptions opts;
  opts.reveal_raw = true;
  opts.num_threads = GetParam().threads;
  opts.cache = GetParam().cache;
  auto r = sys.execute(kGroupedQuery, opts);
  expect_matches_golden(r.releases, kGroupedGolden);
  for (FrameIndex f : {0, 250, 500, 999}) {
    EXPECT_EQ(sys.remaining_budget("cam", f), kGroupedLedger);
  }
}

TEST_P(ColumnarEquivalence, KeyedQueryMatchesRowEraGolden) {
  Privid sys = make_system();
  RunOptions opts;
  opts.reveal_raw = true;
  opts.num_threads = GetParam().threads;
  opts.cache = GetParam().cache;
  auto r = sys.execute(kKeyedQuery, opts);
  expect_matches_golden(r.releases, kKeyedGolden);
  for (FrameIndex f : {0, 250, 500, 999}) {
    EXPECT_EQ(sys.remaining_budget("cam", f), kKeyedLedger);
  }
}

TEST_P(ColumnarEquivalence, StandingQueryMatchesRowEraGolden) {
  Privid sys = make_system();
  StandingQuery::Spec spec;
  spec.query_template = kStandingTemplate;
  spec.period = 30;
  spec.opts.reveal_raw = true;
  spec.opts.num_threads = GetParam().threads;
  spec.opts.cache = GetParam().cache;
  StandingQuery q(&sys, spec);
  auto releases = q.advance(90);
  expect_matches_golden(releases, kStandingGolden);
  for (FrameIndex f : {0, 450, 899}) {
    EXPECT_EQ(sys.remaining_budget("cam", f), kStandingLedger);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsByCache, ColumnarEquivalence,
    ::testing::Values(EquivalenceConfig{1, CacheMode::kOff},
                      EquivalenceConfig{1, CacheMode::kShared},
                      EquivalenceConfig{4, CacheMode::kOff},
                      EquivalenceConfig{4, CacheMode::kShared},
                      EquivalenceConfig{0, CacheMode::kOff},
                      EquivalenceConfig{0, CacheMode::kShared}),
    [](const ::testing::TestParamInfo<EquivalenceConfig>& info) {
      std::string name = info.param.threads == 0
                             ? "hwThreads"
                             : std::to_string(info.param.threads) + "Threads";
      name += info.param.cache == CacheMode::kOff ? "CacheOff" : "CacheShared";
      return name;
    });

// ------------------------------------------------- number rendering

// Value::to_string moved from snprintf ("%lld" / "%g") to std::to_chars.
// The golden here is the old snprintf rendering itself: every
// representative double must render byte-identically.
std::string snprintf_render(double d) {
  char buf[32];
  if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
  } else {
    std::snprintf(buf, sizeof(buf), "%g", d);
  }
  return buf;
}

TEST(ValueGolden, ToCharsMatchesSnprintfRendering) {
  const double cases[] = {0.0,       -0.0,      1.0,       -1.0,
                          3.0,       3.25,      -2.5,      0.1,
                          1.0 / 3.0, M_PI,      1e-5,      1e-4,
                          -1e-5,     123456.789, 1234567.0, 9.99999e5,
                          1e6,       1e15,      1e15 - 1,  1e16,
                          -1e16,     5e-324,    1.7976931348623157e308,
                          0.000123456, 99999.5, 100000.5,  7200.0,
                          86400.0,   -86399.999};
  for (double d : cases) {
    EXPECT_EQ(Value(d).to_string(), snprintf_render(d)) << d;
  }
  // Non-finite values render like %g too.
  EXPECT_EQ(Value(std::nan("")).to_string(),
            snprintf_render(std::nan("")));
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).to_string(),
            snprintf_render(std::numeric_limits<double>::infinity()));
  // And a deterministic sweep across magnitudes.
  for (int e = -300; e <= 300; e += 7) {
    double d = std::ldexp(0.7306397245, e);
    EXPECT_EQ(Value(d).to_string(), snprintf_render(d)) << d;
  }
}

// ------------------------------------------------------- StringDict

TEST(StringDict, InternsAndDeduplicates) {
  StringDict d;
  EXPECT_EQ(d.intern("RED"), 0u);
  EXPECT_EQ(d.intern("WHITE"), 1u);
  EXPECT_EQ(d.intern("RED"), 0u);  // duplicate -> same code
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.at(0), "RED");
  EXPECT_EQ(d.at(1), "WHITE");
  EXPECT_EQ(d.find("WHITE"), std::optional<std::uint32_t>{1u});
  EXPECT_FALSE(d.find("BLUE").has_value());
}

TEST(StringDict, EmptyStringIsAValue) {
  StringDict d;
  std::uint32_t empty = d.intern("");
  std::uint32_t other = d.intern("x");
  EXPECT_NE(empty, other);
  EXPECT_EQ(d.at(empty), "");
  EXPECT_EQ(d.intern(""), empty);
  EXPECT_EQ(d.find(""), std::optional<std::uint32_t>{empty});
}

TEST(StringDict, DuplicateHeavyColumnStoresOneCopy) {
  StringDict d;
  const std::string big(4096, 'z');
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(d.intern(big), 0u);
  EXPECT_EQ(d.size(), 1u);
  // bytes() accounts one copy of the string, not a thousand.
  EXPECT_LT(d.bytes(), 2 * big.size());
}

TEST(StringDict, ReferencesSurviveInternOnACopy) {
  // Copying must restore the last block's reserved capacity: holding an
  // at() reference into a copy and then interning more strings must not
  // reallocate the block under the reference. The first block holds 4
  // strings and later ones 16, so a copy of 2 strings has a partially
  // filled first block and a copy of 5 a partially filled second one.
  for (std::uint32_t n : {2u, 5u}) {
    StringDict a;
    for (std::uint32_t i = 0; i < n; ++i) a.intern("s" + std::to_string(i));
    StringDict b = a;  // partially filled last block
    std::vector<const std::string*> held;
    for (std::uint32_t code = 0; code < n; ++code) held.push_back(&b.at(code));
    for (int i = 0; i < 200; ++i) b.intern("t" + std::to_string(i));
    for (std::uint32_t code = 0; code < n; ++code) {
      EXPECT_EQ(&b.at(code), held[code]) << n;
      EXPECT_EQ(*held[code], "s" + std::to_string(code)) << n;
    }
    // Every code still maps to its string across the block boundaries.
    for (std::uint32_t i = 0; i < 200; ++i) {
      EXPECT_EQ(b.at(n + i), "t" + std::to_string(i)) << n;
      EXPECT_EQ(b.find("t" + std::to_string(i)), std::optional{n + i}) << n;
    }
  }
}

TEST(StringDict, CopyRebindsCodeTable) {
  // by_code_ points into the index map; a copy must point into its own
  // map. A dangling copy would crash or serve garbage here.
  StringDict a;
  a.intern("alpha");
  a.intern("beta");
  StringDict b = a;
  a.intern("gamma");     // mutate the original
  StringDict c;
  c = b;                 // and copy-assign too
  EXPECT_EQ(b.at(0), "alpha");
  EXPECT_EQ(b.at(1), "beta");
  EXPECT_EQ(c.at(0), "alpha");
  EXPECT_EQ(c.at(1), "beta");
  EXPECT_EQ(b.intern("delta"), 2u);  // copies keep interning independently
  EXPECT_EQ(a.at(2), "gamma");
}

// ------------------------------------------------------- ColumnSlab

Schema mixed_schema() {
  return Schema({{"plate", DType::kString, Value(std::string())},
                 {"speed", DType::kNumber, Value(0.0)}});
}

TEST(ColumnSlab, TypedAppendsAndAccessors) {
  ColumnSlab slab(mixed_schema());
  slab.append_string(0, "AAA");
  slab.append_number(1, 42.0);
  slab.finish_row();
  slab.append_string(0, "AAA");
  slab.append_number(1, 55.0);
  slab.finish_row();
  EXPECT_EQ(slab.row_count(), 2u);
  EXPECT_EQ(slab.string_at(0, 0), "AAA");
  EXPECT_DOUBLE_EQ(slab.number_at(1, 1), 55.0);
  EXPECT_EQ(slab.value_at(1, 0), Value("AAA"));
  // Duplicate-heavy string column: one dictionary entry.
  EXPECT_EQ(slab.column(0).dict.size(), 1u);
  // Typed access with the wrong dtype throws.
  EXPECT_THROW(slab.number_at(0, 0), TypeError);
  EXPECT_THROW(slab.string_at(0, 1), TypeError);
}

TEST(ColumnSlab, MixedDtypeAppendValueValidates) {
  ColumnSlab slab(mixed_schema());
  EXPECT_THROW(slab.append_value(0, Value(3.0)), TypeError);
  EXPECT_THROW(slab.append_value(1, Value("oops")), TypeError);
  slab.append_value(0, Value("ok"));
  slab.append_value(1, Value(1.0));
  slab.finish_row();
  EXPECT_EQ(slab.row_count(), 1u);
}

TEST(Table, AppendSlabSplicesAndFillsTrustedColumns) {
  Schema full({{"plate", DType::kString, Value(std::string())},
               {"speed", DType::kNumber, Value(0.0)},
               {kChunkColumn, DType::kNumber, Value(0.0)},
               {"camera", DType::kString, Value(std::string())}});
  // One range slab per chunk: the sandboxed cells, then the trusted cells
  // repeated once per row.
  const auto range = [&](double chunk) {
    ColumnSlab slab(full);
    slab.append_string(0, "AAA");
    slab.append_number(1, 42.0);
    slab.finish_row();
    slab.append_string(0, "BBB");
    slab.append_number(1, 55.0);
    slab.finish_row();
    slab.repeat_number(2, chunk, 2);
    slab.repeat_string(3, "cam", 2);
    return slab;
  };
  Table t(full);
  t.append_slab(range(15.0));
  t.append_slab(range(20.0));
  ASSERT_EQ(t.row_count(), 4u);
  EXPECT_EQ(t.string_at(0, 0), "AAA");
  EXPECT_EQ(t.string_at(3, 0), "BBB");
  EXPECT_DOUBLE_EQ(t.number_at(2, 2), 20.0);
  EXPECT_EQ(t.string_at(1, 3), "cam");
  // The table's dictionary deduplicates across slabs and the constant
  // camera column interns exactly once.
  EXPECT_EQ(t.dict(0).size(), 2u);
  EXPECT_EQ(t.dict(3).size(), 1u);

  // A zero-row slab's dictionary entries still land, in order.
  ColumnSlab empty(full);
  empty.repeat_string(3, "other", 0);
  t.append_slab(empty);
  EXPECT_EQ(t.row_count(), 4u);
  ASSERT_EQ(t.dict(3).size(), 2u);
  EXPECT_EQ(t.dict(3).at(1), "other");

  // Arity and dtype mismatches are rejected.
  EXPECT_THROW(t.append_slab(ColumnSlab(mixed_schema())), TypeError);
  Schema mistyped({{"plate", DType::kString, Value(std::string())},
                   {"speed", DType::kNumber, Value(0.0)},
                   {kChunkColumn, DType::kString, Value(std::string())},
                   {"camera", DType::kString, Value(std::string())}});
  EXPECT_THROW(t.append_slab(ColumnSlab(mistyped)), TypeError);
  // So is a ragged slab, a column short of the row count, before any of
  // it lands.
  ColumnSlab ragged(full);
  ragged.append_string(0, "CCC");
  ragged.append_number(1, 1.0);
  ragged.finish_row();
  ragged.repeat_number(2, 25.0, 1);  // no camera cell
  EXPECT_THROW(t.append_slab(ragged), TypeError);
  EXPECT_EQ(t.row_count(), 4u);
  EXPECT_EQ(t.numbers(2).size(), 4u);
}

TEST(Table, GatherRemapsCodesAcrossDictionaries) {
  Schema s({{"color", DType::kString, Value(std::string())}});
  Table a(s);
  a.append({Value("RED")});
  a.append({Value("WHITE")});
  a.append({Value("RED")});
  Table b(s);
  b.append({Value("WHITE")});  // b's code 0 is a's code 1
  b.append_gather(a, {2, 0, 1});
  ASSERT_EQ(b.row_count(), 4u);
  EXPECT_EQ(b.string_at(0, 0), "WHITE");
  EXPECT_EQ(b.string_at(1, 0), "RED");
  EXPECT_EQ(b.string_at(2, 0), "RED");
  EXPECT_EQ(b.string_at(3, 0), "WHITE");
  EXPECT_EQ(b.dict(0).size(), 2u);
}

TEST(Table, RowViewMaterializesCells) {
  Table t(mixed_schema());
  t.append({Value("AAA"), Value(42.0)});
  RowView r = t.row(0);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], Value("AAA"));
  EXPECT_DOUBLE_EQ(r.number(1), 42.0);
  EXPECT_EQ(r.string(0), "AAA");
  EXPECT_THROW(r.number(0), TypeError);
  EXPECT_THROW(t.row(5), ArgumentError);
}

TEST(ComputeGroups, BadColumnThrowsEvenOnEmptyTable) {
  // The error must not be data-dependent: a misspelled GROUP BY column
  // throws LookupError even when an earlier trusted column saw no rows
  // (e.g. a standing query's empty period).
  Table t(Schema({{"n", DType::kNumber, Value(0.0)},
                  {kChunkColumn, DType::kNumber, Value(0.0)}}));
  query::GroupKey chunk;
  chunk.column = kChunkColumn;
  query::GroupKey typo;
  typo.column = "no_such_column";
  typo.keys = {Value("x")};
  EXPECT_THROW(compute_groups(t, {chunk, typo}), LookupError);
}

// ----------------------------------------- ChunkCache byte accounting

ColumnSlab payload_slab(std::size_t n_rows, const std::string& s, double x) {
  ColumnSlab slab(mixed_schema());
  for (std::size_t i = 0; i < n_rows; ++i) {
    slab.append_string(0, s);
    slab.append_number(1, x);
    slab.finish_row();
  }
  return slab;
}

TEST(ChunkCacheBytes, AccountedBytesTrackColumnarFootprint) {
  // The accounted size must scale with the real footprint: 8 bytes per
  // number cell, 4 bytes per string code, one dictionary copy per
  // distinct string.
  const auto small = payload_slab(10, "plate", 1.0);
  const auto big = payload_slab(1000, "plate", 1.0);
  const std::size_t small_b = ChunkCache::slab_bytes(small);
  const std::size_t big_b = ChunkCache::slab_bytes(big);
  // 990 more rows = 990 * (8 + 4) cell bytes, dictionary unchanged.
  EXPECT_EQ(big_b - small_b, 990u * 12u);
  // And the slab's own estimate is what the cache charges (plus the fixed
  // per-entry overhead).
  EXPECT_EQ(big_b, big.bytes() + (ChunkCache::slab_bytes(ColumnSlab{}) -
                                  ColumnSlab{}.bytes()));
}

TEST(ChunkCacheBytes, DuplicateHeavyStringsAccountedAtDedupedSize) {
  // 1000 copies of a 1 KiB string: the row-era layout charged ~1 MiB; the
  // columnar dictionary stores (and accounts) one copy + 4-byte codes.
  const std::string big(1024, 'x');
  const auto slab = payload_slab(1000, big, 0.0);
  const std::size_t b = ChunkCache::slab_bytes(slab);
  EXPECT_LT(b, 32u * 1024u);                    // ~13 KiB, not ~1 MiB
  EXPECT_GT(b, big.size() + 1000u * 12u);       // but >= cells + one copy
}

TEST(ChunkCacheBytes, StatsBytesEqualSumOfAccountedEntries) {
  ChunkCache cache(1 << 20);
  std::vector<ColumnSlab> slabs;
  std::size_t expected = 0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    FingerprintBuilder fp;
    fp.add(i);
    auto slab = payload_slab(10 + i, "p" + std::to_string(i), double(i));
    expected += ChunkCache::slab_bytes(slab);
    cache.insert(fp.digest(), slab);
  }
  EXPECT_EQ(cache.stats().bytes, expected);
}

TEST(ChunkCacheBytes, BudgetEvictsOnActualColumnarFootprint) {
  // Two deduplicated entries fit; a third forces one LRU eviction — if
  // accounting under-counted dictionary bytes the budget would never
  // trigger.
  const std::string big(8192, 'y');
  const std::size_t entry = ChunkCache::slab_bytes(payload_slab(4, big, 0.0));
  ChunkCache cache(2 * entry);
  for (std::uint64_t i = 0; i < 3; ++i) {
    FingerprintBuilder fp;
    fp.add(i);
    cache.insert(fp.digest(), payload_slab(4, big, double(i)));
  }
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, 2 * entry);
}

}  // namespace
}  // namespace privid::engine
