// Unit tests for the engine: sandbox enforcement, chunk views, the query
// executor, budget accounting, masks/regions, and the Privid facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "counting_exe.hpp"
#include "engine/mask_registration.hpp"
#include "engine/privid.hpp"
#include "engine/standing.hpp"
#include "maskopt/greedy.hpp"
#include "maskopt/heatmap.hpp"
#include "query/parser.hpp"
#include "sim/scenarios.hpp"

namespace privid::engine {

// The intermediate table a PROCESS wrote INTO `into`.
struct PreparedQueryTestAccess {
  static const Table& table(const PreparedQuery& pq, const std::string& into) {
    return pq.tables_.at(into).data;
  }
};

namespace {

// A tiny deterministic scene: `n` people crossing one at a time, each
// visible for 10 s, one every 20 s starting at t = 5.
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
  s->add_light(sim::TrafficLight(Box{600, 20, 30, 60}, 30, 30, 0));
  return s;
}

using testutil::counting_exe;

Privid make_system(int n_people = 5, double rho = 10, int k = 1,
                   double budget = 100) {
  Privid sys(7);
  auto scene = staircase_scene(n_people);
  CameraRegistration reg;
  reg.meta = scene->meta();
  reg.content.scene = scene;
  reg.content.seed = 11;
  reg.policy = {rho, k};
  reg.epsilon_budget = budget;
  // A published mask covering the top strip (where the light is).
  Mask top(1280, 720, 64, 36);
  top.mask_box(Box{0, 0, 1280, 120});
  reg.masks.emplace("top_strip", MaskEntry{top, {rho / 2, k}});
  reg.regions.emplace(
      "halves", RegionScheme("halves", BoundaryKind::kHard,
                             {{"left", Box{0, 0, 640, 720}},
                              {"right", Box{640, 0, 640, 720}}}));
  sys.register_camera(std::move(reg));
  sys.register_executable("count", counting_exe());
  return sys;
}

constexpr const char* kCountQuery =
    "SPLIT cam BEGIN 0 END 100 BY TIME 5 STRIDE 0 INTO c;"
    "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
    "WITH SCHEMA (seen:NUMBER=0) INTO t;"
    "SELECT COUNT(*) FROM t;";

// ------------------------------------------------------------- sandbox

ColumnSlab sandboxed(const Executable& exe, const ChunkView& view,
                     const SandboxPolicy& policy) {
  ColumnSlab slab(policy.schema);
  run_sandboxed(exe, view, policy, &slab);
  return slab;
}

TEST(Sandbox, TruncatesToMaxRows) {
  auto exe = [](const ChunkView&) {
    ExecOutput out;
    for (int i = 0; i < 10; ++i) out.rows.push_back({Value(1.0)});
    return out;
  };
  auto scene = staircase_scene(1);
  CameraContent content{scene, nullptr, -1, 1};
  VideoMeta meta = scene->meta();
  ChunkView view(&content, &meta, 0, {0, 5}, {0, 50}, nullptr, nullptr);
  Schema schema({{"n", DType::kNumber, Value(0.0)}});
  ColumnSlab slab = sandboxed(exe, view, {1.0, 3, schema});
  EXPECT_EQ(slab.row_count(), 3u);
}

TEST(Sandbox, CoercesRows) {
  auto exe = [](const ChunkView&) {
    ExecOutput out;
    // Extra column, wrong type, missing column.
    out.rows.push_back({Value("oops"), Value(2.0), Value(9.0)});
    out.rows.push_back({Value(5.0)});
    return out;
  };
  auto scene = staircase_scene(1);
  CameraContent content{scene, nullptr, -1, 1};
  VideoMeta meta = scene->meta();
  ChunkView view(&content, &meta, 0, {0, 5}, {0, 50}, nullptr, nullptr);
  Schema schema({{"a", DType::kNumber, Value(-1.0)},
                 {"b", DType::kNumber, Value(-2.0)}});
  ColumnSlab slab = sandboxed(exe, view, {1.0, 5, schema});
  ASSERT_EQ(slab.row_count(), 2u);
  EXPECT_EQ(slab.value_at(0, 0), Value(-1.0));  // wrong type -> default
  EXPECT_EQ(slab.value_at(0, 1), Value(2.0));   // extra column 9.0 dropped
  EXPECT_EQ(slab.value_at(1, 0), Value(5.0));
  EXPECT_EQ(slab.value_at(1, 1), Value(-2.0));  // missing -> default
}

TEST(Sandbox, CrashYieldsDefaultRow) {
  auto exe = [](const ChunkView&) -> ExecOutput {
    throw std::runtime_error("model blew up");
  };
  auto scene = staircase_scene(1);
  CameraContent content{scene, nullptr, -1, 1};
  VideoMeta meta = scene->meta();
  ChunkView view(&content, &meta, 0, {0, 5}, {0, 50}, nullptr, nullptr);
  Schema schema({{"n", DType::kNumber, Value(7.0)}});
  ColumnSlab slab = sandboxed(exe, view, {1.0, 3, schema});
  ASSERT_EQ(slab.row_count(), 1u);
  EXPECT_EQ(slab.value_at(0, 0), Value(7.0));
}

TEST(Sandbox, TimeoutYieldsDefaultRow) {
  auto exe = [](const ChunkView&) {
    ExecOutput out;
    out.rows.push_back({Value(1.0)});
    out.simulated_runtime = 5.0;  // exceeds TIMEOUT 1
    return out;
  };
  auto scene = staircase_scene(1);
  CameraContent content{scene, nullptr, -1, 1};
  VideoMeta meta = scene->meta();
  ChunkView view(&content, &meta, 0, {0, 5}, {0, 50}, nullptr, nullptr);
  Schema schema({{"n", DType::kNumber, Value(-9.0)}});
  ColumnSlab slab = sandboxed(exe, view, {1.0, 3, schema});
  ASSERT_EQ(slab.row_count(), 1u);
  EXPECT_EQ(slab.value_at(0, 0), Value(-9.0));
}

TEST(Sandbox, NonFiniteNumbersRejected) {
  // A malicious executable emitting NaN/Inf must not poison the aggregate:
  // NaN survives range() clamping and would turn the release into a side
  // channel.
  auto exe = [](const ChunkView&) {
    ExecOutput out;
    out.rows.push_back({Value(std::nan("")), Value(1.0)});
    out.rows.push_back({Value(std::numeric_limits<double>::infinity()),
                        Value(2.0)});
    out.rows.push_back({Value(3.0), Value(-std::numeric_limits<double>::infinity())});
    return out;
  };
  auto scene = staircase_scene(1);
  CameraContent content{scene, nullptr, -1, 1};
  VideoMeta meta = scene->meta();
  ChunkView view(&content, &meta, 0, {0, 5}, {0, 50}, nullptr, nullptr);
  Schema schema({{"a", DType::kNumber, Value(-1.0)},
                 {"b", DType::kNumber, Value(-2.0)}});
  ColumnSlab slab = sandboxed(exe, view, {1.0, 5, schema});
  ASSERT_EQ(slab.row_count(), 3u);
  EXPECT_EQ(slab.value_at(0, 0), Value(-1.0));  // NaN -> default
  EXPECT_EQ(slab.value_at(0, 1), Value(1.0));
  EXPECT_EQ(slab.value_at(1, 0), Value(-1.0));  // +inf -> default
  EXPECT_EQ(slab.value_at(2, 1), Value(-2.0));  // -inf -> default
  EXPECT_EQ(slab.value_at(2, 0), Value(3.0));
}

TEST(ChunkView, IsolationRejectsOutsideObservation) {
  auto scene = staircase_scene(1);
  CameraContent content{scene, nullptr, -1, 1};
  VideoMeta meta = scene->meta();
  ChunkView view(&content, &meta, 2, {10, 15}, {100, 150}, nullptr, nullptr);
  cv::DetectorConfig det;
  EXPECT_NO_THROW(view.detect_into(det, 12.0));
  EXPECT_THROW(view.detect_into(det, 9.0), ArgumentError);   // previous chunk
  EXPECT_THROW(view.detect_into(det, 16.0), ArgumentError);  // next chunk
  EXPECT_THROW(view.light_state(0, 20.0), ArgumentError);
}

TEST(ChunkView, PerChunkRngIndependentButStable) {
  auto scene = staircase_scene(1);
  CameraContent content{scene, nullptr, -1, 1};
  VideoMeta meta = scene->meta();
  ChunkView a(&content, &meta, 0, {0, 5}, {0, 50}, nullptr, nullptr);
  ChunkView b(&content, &meta, 1, {5, 10}, {50, 100}, nullptr, nullptr);
  Rng ra1 = a.fork_rng(), ra2 = a.fork_rng(), rb = b.fork_rng();
  EXPECT_DOUBLE_EQ(ra1.uniform(), ra2.uniform());  // stable per chunk
  Rng ra3 = a.fork_rng();
  EXPECT_NE(ra3.uniform(), rb.uniform());          // independent across
}

// ------------------------------------------------------------ executor

TEST(Executor, EndToEndCountWithNoise) {
  Privid sys = make_system(4);
  RunOptions opts;
  opts.reveal_raw = true;
  auto result = sys.execute(kCountQuery, opts);
  ASSERT_EQ(result.releases.size(), 1u);
  const auto& r = result.releases[0];
  // 4 people, each visible in 2-3 five-second chunk midpoints: raw between
  // 4 and 12.
  EXPECT_GE(r.raw, 4.0);
  EXPECT_LE(r.raw, 12.0);
  // Sensitivity: max_rows 3 * K 1 * (1 + ceil(10/5)) = 9.
  EXPECT_DOUBLE_EQ(r.sensitivity, 9.0);
  EXPECT_DOUBLE_EQ(r.epsilon, 1.0);
  EXPECT_NE(r.value, r.raw);  // noise was added
}

TEST(Executor, RawDeterministicAcrossRuns) {
  Privid a = make_system(4), b = make_system(4);
  RunOptions opts;
  opts.reveal_raw = true;
  auto ra = a.execute(kCountQuery, opts);
  auto rb = b.execute(kCountQuery, opts);
  EXPECT_DOUBLE_EQ(ra.releases[0].raw, rb.releases[0].raw);
}

TEST(Executor, ChunkAndCameraColumnsAppended) {
  Privid sys = make_system(2);
  RunOptions opts;
  opts.reveal_raw = true;
  // Group by hour(chunk) proves the chunk column exists and is trusted.
  auto result = sys.execute(
      "SPLIT cam BEGIN 0 END 60 BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t GROUP BY hour(chunk);",
      opts);
  ASSERT_EQ(result.releases.size(), 1u);  // all chunks in hour 0
  EXPECT_EQ(result.releases[0].group_key[0], Value(0.0));
}

TEST(Executor, GroupByKeysEmitsAllDeclaredKeys) {
  Privid sys = make_system(3);
  auto exe = [](const ChunkView& view) {
    ExecOutput out;
    cv::DetectorConfig det;
    det.base_detect_prob = 0.98;
    det.false_positives_per_frame = 0;
    double mid = view.time().begin + view.time().duration() / 2;
    const std::size_t n = view.detect_into(det, mid).size();
    for (std::size_t i = 0; i < n; ++i) out.rows.push_back({Value("blue")});
    return out;
  };
  sys.register_executable("colors", exe);
  RunOptions opts;
  opts.reveal_raw = true;
  auto result = sys.execute(
      "SPLIT cam BEGIN 0 END 60 BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING colors TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (shade:STRING=\"\") INTO t;"
      "SELECT shade, COUNT(*) FROM t GROUP BY shade "
      "WITH KEYS [\"blue\", \"green\"];",
      opts);
  ASSERT_EQ(result.releases.size(), 2u);  // one per declared key, even empty
  EXPECT_GT(result.releases[0].raw, 0.0);   // blue
  EXPECT_DOUBLE_EQ(result.releases[1].raw, 0.0);  // green: empty but released
}

TEST(Executor, MaskLowersSensitivity) {
  Privid sys = make_system(4, 10, 1);
  RunOptions opts;
  opts.reveal_raw = true;
  auto masked = sys.execute(
      "SPLIT cam BEGIN 0 END 100 BY TIME 5 STRIDE 0 WITH MASK top_strip "
      "INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t;",
      opts);
  // Mask policy rho = 5 -> 1 + ceil(5/5) = 2 chunks; delta = 3*1*2 = 6 < 9.
  EXPECT_DOUBLE_EQ(masked.releases[0].sensitivity, 6.0);
}

TEST(Executor, SoftRegionsRequireSingleFrameChunks) {
  Privid sys = make_system(2);
  // Register a soft scheme.
  Privid sys2(3);
  auto scene = staircase_scene(2);
  CameraRegistration reg;
  reg.meta = scene->meta();
  reg.content.scene = scene;
  reg.content.seed = 11;
  reg.policy = {10, 1};
  reg.regions.emplace(
      "soft", RegionScheme("soft", BoundaryKind::kSoft,
                           {{"a", Box{0, 0, 640, 720}},
                            {"b", Box{640, 0, 640, 720}}}));
  sys2.register_camera(std::move(reg));
  sys2.register_executable("count", counting_exe());
  EXPECT_THROW(sys2.execute(
                   "SPLIT cam BEGIN 0 END 30 BY TIME 5 STRIDE 0 "
                   "BY REGION soft INTO c;"
                   "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
                   "WITH SCHEMA (seen:NUMBER=0) INTO t;"
                   "SELECT COUNT(*) FROM t;"),
               ValidationError);
  // 0.1 s = 1 frame at 10 fps: accepted.
  EXPECT_NO_THROW(sys2.execute(
      "SPLIT cam BEGIN 0 END 3 BY TIME 0.1 STRIDE 0 BY REGION soft INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t;"));
}

TEST(Executor, HardRegionsAddRegionColumn) {
  Privid sys = make_system(3);
  RunOptions opts;
  opts.reveal_raw = true;
  auto result = sys.execute(
      "SPLIT cam BEGIN 0 END 60 BY TIME 5 STRIDE 0 BY REGION halves INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t GROUP BY region;",
      opts);
  // One release per observed region value.
  EXPECT_GE(result.releases.size(), 1u);
  EXPECT_LE(result.releases.size(), 2u);
}

// Where a phase's tasks are cut into ranges must not show in its table:
// every cell and every column dictionary (entries and order) is the same
// for single-task ranges, one whole-phase range, random cuts and the
// pool's own morsels. The phase mixes zero-row tasks, crashing tasks
// (default row), three regions and a STRING column. Task (chunk 0, mid)
// returns no rows, so "mid" sits between "left" and "right" in the region
// dictionary only because a zero-row task still interns its trusted
// region — and a concatenation that interned only the strings its cells
// use would move it.
void expect_same_table(const Table& a, const Table& b, const std::string& how) {
  ASSERT_EQ(a.row_count(), b.row_count()) << how;
  ASSERT_EQ(a.schema().size(), b.schema().size()) << how;
  for (std::size_t c = 0; c < a.schema().size(); ++c) {
    if (a.schema().column(c).type == DType::kNumber) {
      EXPECT_EQ(a.numbers(c), b.numbers(c)) << how << " column " << c;
      continue;
    }
    EXPECT_EQ(a.codes(c), b.codes(c)) << how << " column " << c;
    ASSERT_EQ(a.dict(c).size(), b.dict(c).size()) << how << " column " << c;
    for (std::uint32_t code = 0; code < a.dict(c).size(); ++code) {
      EXPECT_EQ(a.dict(c).at(code), b.dict(c).at(code))
          << how << " column " << c << " code " << code;
    }
  }
}

TEST(Executor, RangeCutsAreUnobservable) {
  auto scene = staircase_scene(5);
  std::map<std::string, CameraState> cameras;
  CameraState& cam = cameras["cam"];
  cam.meta = scene->meta();
  cam.content.scene = scene;
  cam.content.seed = 11;
  cam.policy = {10, 1};
  cam.regions.emplace(
      "thirds", RegionScheme("thirds", BoundaryKind::kHard,
                             {{"left", Box{0, 0, 427, 720}},
                              {"mid", Box{427, 0, 426, 720}},
                              {"right", Box{853, 0, 427, 720}}}));
  ExecutableRegistry registry;
  registry.add("plates", [](const ChunkView& view) -> ExecOutput {
    const std::size_t i = view.chunk_index();
    const bool mid = view.region()->name == "mid";
    if (i % 4 == 1) throw std::runtime_error("crash");  // default row
    if (i % 4 == 2 || (i == 0 && mid)) return {};       // zero rows
    ExecOutput out;
    for (std::size_t r = 0; r <= i % 3; ++r) {
      out.rows.push_back({Value("P" + std::to_string((i * 7 + r) % 5)),
                          Value(static_cast<double>(i + r))});
    }
    return out;
  });
  Rng rng(7);
  ThreadPool pool(3);
  Executor exec(&cameras, &registry, &rng, &pool);
  const query::ParsedQuery q = query::parse_query(
      "SPLIT cam BEGIN 0 END 100 BY TIME 2 STRIDE 0 BY REGION thirds INTO c;"
      "PROCESS c USING plates TIMEOUT 1 PRODUCING 2 ROWS "
      "WITH SCHEMA (plate:STRING=\"none\", n:NUMBER=-1) INTO t;"
      "SELECT COUNT(*) FROM t;");
  RunOptions opts;
  opts.cache = CacheMode::kOff;

  // Assembles the phase from the ranges between consecutive cuts, handed
  // to assemble last range first.
  const auto cut_at = [&](const std::vector<std::size_t>& cuts) {
    PreparedQuery pq = exec.prepare(q, opts);
    std::vector<TaskRange> ranges;
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
      ranges.push_back(pq.run_range(0, cuts[k], cuts[k + 1]));
    }
    std::reverse(ranges.begin(), ranges.end());
    pq.assemble(0, std::move(ranges));
    return pq;
  };
  PreparedQuery probe = exec.prepare(q, opts);
  const std::size_t n = probe.task_count(0);
  ASSERT_EQ(n, 150u);

  std::vector<std::size_t> singles;
  for (std::size_t t = 0; t <= n; ++t) singles.push_back(t);
  const PreparedQuery reference = cut_at(singles);
  const Table& t = PreparedQueryTestAccess::table(reference, "t");
  // Rows 0 and 1 are (chunk 0, left) and (chunk 0, right); the zero-row
  // (chunk 0, mid) still interned "mid" between them.
  const std::size_t region_col = t.schema().index_of(kRegionColumn);
  ASSERT_EQ(t.dict(region_col).size(), 3u);
  EXPECT_EQ(t.dict(region_col).at(0), "left");
  EXPECT_EQ(t.dict(region_col).at(1), "mid");
  EXPECT_EQ(t.dict(region_col).at(2), "right");
  EXPECT_EQ(t.string_at(1, region_col), "right");
  EXPECT_TRUE(t.dict(t.schema().index_of("plate")).find("none"));

  expect_same_table(t, PreparedQueryTestAccess::table(cut_at({0, n}), "t"),
                    "one range");
  Rng cuts_rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::size_t> cuts = {0, n};
    for (int k = 0; k < 6; ++k) {
      cuts.push_back(static_cast<std::size_t>(
          cuts_rng.uniform_int(0, static_cast<std::int64_t>(n))));
    }
    std::sort(cuts.begin(), cuts.end());  // repeats make empty ranges
    expect_same_table(t, PreparedQueryTestAccess::table(cut_at(cuts), "t"),
                      "random cuts, trial " + std::to_string(trial));
  }
  for (std::size_t threads : {1u, 4u}) {
    opts.num_threads = threads;
    PreparedQuery pq = exec.prepare(q, opts);
    exec.run(pq);
    expect_same_table(t, PreparedQueryTestAccess::table(pq, "t"),
                      "Executor::run at " + std::to_string(threads));
  }
  EXPECT_THROW(probe.run_range(0, 5, n + 1), ArgumentError);
  std::vector<TaskRange> gap;
  gap.push_back(probe.run_range(0, 0, 3));
  gap.push_back(probe.run_range(0, 4, n));
  EXPECT_THROW(probe.assemble(0, std::move(gap)), ArgumentError);
}

TEST(Executor, ConsumingSetsEpsilon) {
  Privid sys = make_system(3);
  RunOptions opts;
  opts.reveal_raw = true;
  auto result = sys.execute(
      "SPLIT cam BEGIN 0 END 60 BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t CONSUMING 0.5;",
      opts);
  EXPECT_DOUBLE_EQ(result.releases[0].epsilon, 0.5);
}

TEST(Executor, LookupFailures) {
  Privid sys = make_system(2);
  EXPECT_THROW(sys.execute(
                   "SPLIT nocam BEGIN 0 END 10 BY TIME 5 STRIDE 0 INTO c;"
                   "PROCESS c USING count TIMEOUT 1 PRODUCING 1 ROWS "
                   "WITH SCHEMA (n:NUMBER) INTO t; SELECT COUNT(*) FROM t;"),
               LookupError);
  EXPECT_THROW(sys.execute(
                   "SPLIT cam BEGIN 0 END 10 BY TIME 5 STRIDE 0 INTO c;"
                   "PROCESS c USING nope TIMEOUT 1 PRODUCING 1 ROWS "
                   "WITH SCHEMA (n:NUMBER) INTO t; SELECT COUNT(*) FROM t;"),
               LookupError);
  EXPECT_THROW(sys.execute(
                   "SPLIT cam BEGIN 0 END 10 BY TIME 5 STRIDE 0 "
                   "WITH MASK ghost INTO c;"
                   "PROCESS c USING count TIMEOUT 1 PRODUCING 1 ROWS "
                   "WITH SCHEMA (n:NUMBER) INTO t; SELECT COUNT(*) FROM t;"),
               LookupError);
}

// -------------------------------------------------------------- budget

TEST(Budgeting, DepletesAndDenies) {
  Privid sys = make_system(3, 10, 1, /*budget=*/2.0);
  // Each run charges eps 1.0 over [0, 100s).
  EXPECT_NO_THROW(sys.execute(kCountQuery));
  EXPECT_NO_THROW(sys.execute(kCountQuery));
  EXPECT_THROW(sys.execute(kCountQuery), BudgetError);
}

TEST(Budgeting, GroupKeysMultiplyCharge) {
  Privid sys = make_system(3, 10, 1, /*budget=*/2.0);
  // Two declared keys -> charge 2.0; a second identical query must fail.
  const char* q =
      "SPLIT cam BEGIN 0 END 60 BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT seen, COUNT(*) FROM t GROUP BY seen WITH KEYS [0, 1];";
  EXPECT_NO_THROW(sys.execute(q));
  EXPECT_THROW(sys.execute(q), BudgetError);
}

TEST(Budgeting, DisabledChargingAllowsSweeps) {
  Privid sys = make_system(3, 10, 1, /*budget=*/1.0);
  RunOptions opts;
  opts.charge_budget = false;
  for (int i = 0; i < 5; ++i) {
    EXPECT_NO_THROW(sys.execute(kCountQuery, opts));
  }
}

TEST(Budgeting, RemainingBudgetQueries) {
  Privid sys = make_system(3, 10, 1, /*budget=*/5.0);
  sys.execute(kCountQuery);
  EXPECT_DOUBLE_EQ(sys.remaining_budget("cam", 50), 4.0);
  EXPECT_DOUBLE_EQ(sys.min_remaining_budget("cam", {0, 50}), 4.0);
  EXPECT_THROW(sys.remaining_budget("ghost", 0), LookupError);
}

TEST(Budgeting, DisjointWindowsHaveSeparateBudgets) {
  Privid sys = make_system(5, 10, 1, /*budget=*/1.0);
  auto q = [](double b, double e) {
    return "SPLIT cam BEGIN " + std::to_string(b) + " END " +
           std::to_string(e) +
           " BY TIME 5 STRIDE 0 INTO c;"
           "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
           "WITH SCHEMA (seen:NUMBER=0) INTO t;"
           "SELECT COUNT(*) FROM t;";
  };
  EXPECT_NO_THROW(sys.execute(q(0, 40)));
  // Adjacent window: the rho margin (10 s) collides -> denied.
  EXPECT_THROW(sys.execute(q(40, 80)), BudgetError);
  // rho-disjoint window (> 2*rho past the charged end): allowed.
  EXPECT_NO_THROW(sys.execute(q(65, 100)));
}

TEST(Executor, MultiSelectReservesCumulativelyAndAtomically) {
  // Two SELECTs in one query are separate data releases: each consumes its
  // own epsilon from the same frames, so admission reserves them
  // cumulatively — and atomically: a query whose second SELECT does not
  // fit is denied whole, before any executable runs.
  Privid sys = make_system(3, 10, 1, /*budget=*/1.5);
  auto calls = std::make_shared<int>(0);
  sys.register_executable("tally", [calls](const ChunkView&) {
    ++*calls;
    return ExecOutput{};
  });
  const char* q =
      "SPLIT cam BEGIN 0 END 60 BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING tally TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t CONSUMING 1.0;"
      "SELECT COUNT(seen) FROM t CONSUMING 1.0;";
  std::ostringstream before;
  sys.save_budget("cam", before);
  EXPECT_THROW(sys.execute(q), BudgetError);
  std::ostringstream after;
  sys.save_budget("cam", after);
  EXPECT_EQ(after.str(), before.str());
  EXPECT_EQ(*calls, 0);
}

// A second SPLIT window on the same camera is charged too: per SELECT and
// camera, ε is charged once per frame of the union of the windows read.
// Each query reads a fresh t1 window and the same t2 window [1500, 1550),
// so with ε_C = 1 and ε = 1 at most one of them may be accepted — through
// execute(), through the service, and as plan() prices it.
std::string same_camera_union_query(int i) {
  const int b = 50 * i;  // t1 windows 30 s apart: wider than 2ρ = 20 s
  return "SPLIT cam BEGIN " + std::to_string(b) + " END " +
         std::to_string(b + 20) +
         " BY TIME 5 STRIDE 0 INTO c1;"
         "SPLIT cam BEGIN 1500 END 1550 BY TIME 5 STRIDE 0 INTO c2;"
         "PROCESS c1 USING count TIMEOUT 1 PRODUCING 3 ROWS "
         "WITH SCHEMA (seen:NUMBER=0) INTO t1;"
         "PROCESS c2 USING count TIMEOUT 1 PRODUCING 3 ROWS "
         "WITH SCHEMA (seen:NUMBER=0) INTO t2;"
         "SELECT COUNT(*) FROM t1 UNION t2 CONSUMING 1.0;";
}

TEST(Budgeting, SameCameraWindowsAreChargedTheirUnion) {
  constexpr int kAttempts = 10;
  {
    Privid sys = make_system(80, 10, 1, /*budget=*/1.0);
    int accepted = 0;
    for (int i = 0; i < kAttempts; ++i) {
      try {
        sys.execute(same_camera_union_query(i));
        ++accepted;
      } catch (const BudgetError&) {
      }
    }
    EXPECT_LE(accepted, 1);
    EXPECT_DOUBLE_EQ(sys.remaining_budget("cam", 15200), 0.0);  // t = 1520 s
  }
  {
    Privid sys = make_system(80, 10, 1, /*budget=*/1.0);
    int accepted = 0;
    for (int i = 0; i < kAttempts; ++i) {
      try {
        sys.wait(sys.submit("alice", same_camera_union_query(i)));
        ++accepted;
      } catch (const BudgetError&) {
      }
    }
    EXPECT_LE(accepted, 1);
    EXPECT_DOUBLE_EQ(sys.remaining_budget("cam", 15200), 0.0);
  }
  {
    Privid sys = make_system(80, 10, 1, /*budget=*/1.0);
    int admissible = 0;
    for (int i = 0; i < kAttempts; ++i) {
      const std::string q = same_camera_union_query(i);
      if (!sys.plan(q).admissible) continue;
      ++admissible;
      sys.execute(q);
    }
    EXPECT_LE(admissible, 1);
  }
}

TEST(Planner, PricesEverySameCameraWindow) {
  Privid sys = make_system(80, 10, 1, /*budget=*/1.0);
  const QueryPlan plan = sys.plan(same_camera_union_query(0));
  const auto& charges = plan.selects[0].charges;
  ASSERT_EQ(charges.size(), 1u);
  EXPECT_EQ(charges[0].camera, "cam");
  EXPECT_DOUBLE_EQ(charges[0].epsilon, 1.0);
  // Each window checked with the table's ρ margin (10 s at 10 fps) ...
  ASSERT_EQ(charges[0].windows.size(), 2u);
  EXPECT_EQ(charges[0].windows[0].frames, (FrameInterval{0, 200}));
  EXPECT_EQ(charges[0].windows[1].frames, (FrameInterval{15000, 15500}));
  EXPECT_EQ(charges[0].windows[0].margin, 100);
  // ... and their union charged once per frame: overlapping windows merge.
  EXPECT_EQ(charges[0].charged,
            (std::vector<FrameInterval>{{0, 200}, {15000, 15500}}));
  const std::string overlapping =
      "SPLIT cam BEGIN 0 END 30 BY TIME 5 STRIDE 0 INTO c1;"
      "SPLIT cam BEGIN 20 END 50 BY TIME 5 STRIDE 0 INTO c2;"
      "PROCESS c1 USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t1;"
      "PROCESS c2 USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t2;"
      "SELECT COUNT(*) FROM t1 UNION t2;";
  EXPECT_EQ(sys.plan(overlapping).selects[0].charges[0].charged,
            (std::vector<FrameInterval>{{0, 500}}));
  // Two windows closer than 2ρ do not deny each other within one SELECT.
  EXPECT_TRUE(sys.plan(overlapping).admissible);
  EXPECT_NO_THROW(sys.execute(overlapping));
  EXPECT_DOUBLE_EQ(sys.remaining_budget("cam", 250), 0.0);
  EXPECT_DOUBLE_EQ(sys.remaining_budget("cam", 500), 1.0);
}

TEST(Executor, OverlappingStrideProcessesEveryChunk) {
  Privid sys = make_system(2);
  RunOptions opts;
  opts.reveal_raw = true;
  // chunk 5 s, stride -2.5 s: chunks start every 2.5 s (overlapping).
  auto result = sys.execute(
      "SPLIT cam BEGIN 0 END 30 BY TIME 5 STRIDE -2.5 INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t;",
      opts);
  // Overlap roughly doubles the observation count of the plain split.
  auto plain = sys.execute(
      "SPLIT cam BEGIN 30 END 60 BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t;",
      opts);
  (void)plain;
  EXPECT_GT(result.releases[0].raw, 0.0);
}

TEST(Executor, UnionAcrossTwoCamerasChargesBoth) {
  Privid sys(9);
  for (const char* id : {"camA", "camB"}) {
    auto scene = staircase_scene(3);
    CameraRegistration reg;
    reg.meta = scene->meta();
    reg.meta.camera_id = id;
    reg.content.scene = scene;
    reg.content.seed = 11;
    reg.policy = {10, 1};
    reg.epsilon_budget = 5.0;
    sys.register_camera(std::move(reg));
  }
  sys.register_executable("count", counting_exe());
  auto r = sys.execute(
      "SPLIT camA BEGIN 0 END 60 BY TIME 5 STRIDE 0 INTO ca;"
      "SPLIT camB BEGIN 0 END 60 BY TIME 5 STRIDE 0 INTO cb;"
      "PROCESS ca USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO ta;"
      "PROCESS cb USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO tb;"
      "SELECT COUNT(*) FROM ta UNION tb;");
  ASSERT_EQ(r.releases.size(), 1u);
  EXPECT_DOUBLE_EQ(sys.remaining_budget("camA", 100), 4.0);
  EXPECT_DOUBLE_EQ(sys.remaining_budget("camB", 100), 4.0);
}

TEST(Executor, DeniedQueryChargesNothing) {
  // The check-all-then-charge discipline: a query over two cameras where
  // the second lacks budget must not charge the first.
  Privid sys(9);
  int i = 0;
  for (const char* id : {"rich", "poor"}) {
    auto scene = staircase_scene(3);
    CameraRegistration reg;
    reg.meta = scene->meta();
    reg.meta.camera_id = id;
    reg.content.scene = scene;
    reg.content.seed = 11;
    reg.policy = {10, 1};
    reg.epsilon_budget = (i++ == 0) ? 5.0 : 0.5;
    sys.register_camera(std::move(reg));
  }
  sys.register_executable("count", counting_exe());
  EXPECT_THROW(sys.execute(
                   "SPLIT rich BEGIN 0 END 60 BY TIME 5 STRIDE 0 INTO ca;"
                   "SPLIT poor BEGIN 0 END 60 BY TIME 5 STRIDE 0 INTO cb;"
                   "PROCESS ca USING count TIMEOUT 1 PRODUCING 3 ROWS "
                   "WITH SCHEMA (seen:NUMBER=0) INTO ta;"
                   "PROCESS cb USING count TIMEOUT 1 PRODUCING 3 ROWS "
                   "WITH SCHEMA (seen:NUMBER=0) INTO tb;"
                   "SELECT COUNT(*) FROM ta UNION tb;"),
               BudgetError);
  EXPECT_DOUBLE_EQ(sys.remaining_budget("rich", 100), 5.0);  // untouched
}

// ---------------------------------------------------------- extensions

TEST(Extensions, GaussianReleaseOption) {
  // (eps, delta)-DP variant: delta > 0 switches the release mechanism.
  Privid sys = make_system(4);
  RunOptions opts;
  opts.reveal_raw = true;
  opts.delta = 1e-5;
  auto r = sys.execute(kCountQuery, opts);
  ASSERT_EQ(r.releases.size(), 1u);
  EXPECT_NE(r.releases[0].value, r.releases[0].raw);
  // Same raw result as the Laplace path (mechanism only changes noise).
  Privid sys2 = make_system(4);
  RunOptions lap;
  lap.reveal_raw = true;
  auto r2 = sys2.execute(kCountQuery, lap);
  EXPECT_DOUBLE_EQ(r.releases[0].raw, r2.releases[0].raw);
}

TEST(Extensions, GridSplitAllowsMultiFrameChunks) {
  Privid sys(4);
  auto scene = staircase_scene(3);
  CameraRegistration reg;
  reg.meta = scene->meta();
  reg.content.scene = scene;
  reg.content.seed = 11;
  reg.policy = {10, 1};
  reg.regions.emplace("grid", RegionScheme::grid(scene->meta(), 4, 4,
                                                 /*max_obj_w=*/80,
                                                 /*max_obj_h=*/140,
                                                 /*max_speed=*/150));
  sys.register_camera(std::move(reg));
  sys.register_executable("count", counting_exe());
  RunOptions opts;
  opts.reveal_raw = true;
  // Grid is "soft" but its declared bounds admit 5-second chunks.
  auto r = sys.execute(
      "SPLIT cam BEGIN 0 END 60 BY TIME 5 STRIDE 0 BY REGION grid INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t;",
      opts);
  ASSERT_EQ(r.releases.size(), 1u);
  // Sensitivity includes the occupied-cells factor:
  // 3 rows * K1 * 3 chunks * cells_bound.
  auto grid = RegionScheme::grid(scene->meta(), 4, 4, 80, 140, 150);
  EXPECT_DOUBLE_EQ(r.releases[0].sensitivity,
                   3.0 * 1 * 3 * static_cast<double>(grid.occupied_cells_bound()));
}

TEST(Planner, MatchesExecutionSensitivity) {
  Privid sys = make_system(4);
  auto plan = sys.plan(kCountQuery);
  ASSERT_EQ(plan.selects.size(), 1u);
  ASSERT_EQ(plan.selects[0].releases.size(), 1u);
  EXPECT_TRUE(plan.admissible);
  RunOptions opts;
  opts.reveal_raw = true;
  auto result = sys.execute(kCountQuery, opts);
  EXPECT_DOUBLE_EQ(plan.selects[0].releases[0].sensitivity,
                   result.releases[0].sensitivity);
  EXPECT_DOUBLE_EQ(plan.selects[0].releases[0].noise_scale,
                   result.releases[0].sensitivity / result.releases[0].epsilon);
}

TEST(Planner, DoesNotConsumeBudget) {
  Privid sys = make_system(3, 10, 1, /*budget=*/1.0);
  for (int i = 0; i < 5; ++i) {
    auto plan = sys.plan(kCountQuery);
    EXPECT_TRUE(plan.admissible);
  }
  EXPECT_DOUBLE_EQ(sys.remaining_budget("cam", 100), 1.0);
  // A real execution still works afterwards.
  EXPECT_NO_THROW(sys.execute(kCountQuery));
  // And now the plan reports inadmissibility.
  EXPECT_FALSE(sys.plan(kCountQuery).admissible);
}

TEST(Planner, ReportsKeyMultipliedCharge) {
  Privid sys = make_system(3);
  auto plan = sys.plan(
      "SPLIT cam BEGIN 0 END 60 BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT seen, COUNT(*) FROM t GROUP BY seen WITH KEYS [0, 1, 2];");
  ASSERT_EQ(plan.selects.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.selects[0].charge_per_frame, 3.0);
  ASSERT_EQ(plan.selects[0].charges.size(), 1u);
  EXPECT_EQ(plan.selects[0].charges[0].camera, "cam");
  EXPECT_DOUBLE_EQ(plan.selects[0].charges[0].epsilon, 3.0);
}

TEST(Planner, RejectsInvalidQueries) {
  Privid sys = make_system(2);
  EXPECT_THROW(sys.plan("SELECT speed FROM nowhere;"), ValidationError);
}

TEST(Extensions, MaskEntriesFromPolicyMap) {
  auto scene = staircase_scene(2);
  auto hm = maskopt::build_heatmap(*scene, {0, 60}, 16, 9, 1.0);
  auto ordering = maskopt::greedy_mask_ordering(hm, 10);
  maskopt::MaskPolicyMap map(scene->meta(), ordering, 1.2, 2, 4);
  auto entries = mask_entries_from_policy_map(map);
  EXPECT_EQ(entries.size(), map.size());
  ASSERT_TRUE(entries.count("mask_0"));
  EXPECT_DOUBLE_EQ(entries.at("mask_0").policy.rho, map.entry(0).rho);

  // Register them and query through one.
  Privid sys(4);
  CameraRegistration reg;
  reg.meta = scene->meta();
  reg.content.scene = scene;
  reg.content.seed = 11;
  reg.policy = {map.entry(0).rho, 2};
  reg.masks = std::move(entries);
  sys.register_camera(std::move(reg));
  sys.register_executable("count", counting_exe());
  EXPECT_NO_THROW(sys.execute(
      "SPLIT cam BEGIN 0 END 30 BY TIME 5 STRIDE 0 WITH MASK mask_0 INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t;"));
}

// ------------------------------------------------------------- standing

TEST(Standing, SubstitutesWindow) {
  std::string q = substitute_window("BEGIN {BEGIN} END {END} x {BEGIN}",
                                    10.0, 20.0);
  EXPECT_EQ(q, "BEGIN 10 END 20 x 10");
}

TEST(Standing, AdvancesPeriodByPeriod) {
  Privid sys = make_system(5, 10, 1, /*budget=*/50);
  StandingQuery::Spec spec;
  spec.query_template =
      "SPLIT cam BEGIN {BEGIN} END {END} BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t;";
  spec.start = 0;
  spec.period = 30;
  StandingQuery standing(&sys, spec);

  EXPECT_TRUE(standing.advance(29).empty());  // first period incomplete
  auto first = standing.advance(30);
  EXPECT_EQ(first.size(), 1u);
  EXPECT_EQ(standing.periods_executed(), 1u);
  EXPECT_TRUE(standing.advance(30).empty());  // idempotent
  // Jumping the clock executes every elapsed period, in order.
  auto batch = standing.advance(120);
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(standing.periods_executed(), 4u);
  EXPECT_DOUBLE_EQ(standing.next_due(), 150.0);
}

TEST(Standing, BudgetDenialDoesNotSkipPeriods) {
  Privid sys = make_system(5, 10, 1, /*budget=*/1.0);
  StandingQuery::Spec spec;
  spec.query_template =
      "SPLIT cam BEGIN {BEGIN} END {END} BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t;";
  spec.period = 30;
  StandingQuery standing(&sys, spec);
  // Adjacent periods collide through the rho margin (rho = 10 s): period 1
  // succeeds, period 2 is denied and stays pending.
  standing.advance(30);
  EXPECT_THROW(standing.advance(60), BudgetError);
  EXPECT_DOUBLE_EQ(standing.next_period_start(), 30.0);  // not skipped
}

TEST(Standing, Validation) {
  Privid sys = make_system(2);
  StandingQuery::Spec spec;
  spec.query_template = "no placeholders";
  EXPECT_THROW(StandingQuery(&sys, spec), ArgumentError);
  spec.query_template = "{BEGIN} {END}";
  spec.period = 0;
  EXPECT_THROW(StandingQuery(&sys, spec), ArgumentError);
  spec.period = 10;
  EXPECT_THROW(StandingQuery(nullptr, spec), ArgumentError);
}

// -------------------------------------------------------------- facade

TEST(Facade, BudgetSurvivesRestart) {
  // Owner restart scenario: charges made before the restart must still be
  // enforced after restoring the serialized ledger into a fresh instance.
  Privid first = make_system(3, 10, 1, /*budget=*/2.0);
  first.execute(kCountQuery);  // consumes 1.0 over [0, 100s)
  std::ostringstream saved;
  first.save_budget("cam", saved);

  Privid second = make_system(3, 10, 1, /*budget=*/2.0);
  std::istringstream is(saved.str());
  second.restore_budget("cam", is);
  EXPECT_DOUBLE_EQ(second.remaining_budget("cam", 100), 1.0);
  EXPECT_NO_THROW(second.execute(kCountQuery));   // 1.0 left
  EXPECT_THROW(second.execute(kCountQuery), BudgetError);

  // Mismatched epsilon_C is rejected.
  Privid third = make_system(3, 10, 1, /*budget=*/5.0);
  std::istringstream is2(saved.str());
  EXPECT_THROW(third.restore_budget("cam", is2), ArgumentError);
}

TEST(Facade, MovedSystemReservesAgainstItsOwnCameras) {
  // The admission controller is rebound, not moved: a moved-to facade
  // reserves against the camera map it now owns, on every path.
  Privid source = make_system(3, 10, 1, /*budget=*/2.0);
  Privid moved(std::move(source));
  EXPECT_NO_THROW(moved.execute(kCountQuery));
  EXPECT_DOUBLE_EQ(moved.remaining_budget("cam", 100), 1.0);
  EXPECT_NO_THROW(moved.wait(moved.submit("alice", kCountQuery)));
  EXPECT_DOUBLE_EQ(moved.remaining_budget("cam", 100), 0.0);

  Privid assigned(5);
  assigned = std::move(moved);
  EXPECT_THROW(assigned.execute(kCountQuery), BudgetError);
  EXPECT_THROW(assigned.submit("alice", kCountQuery), BudgetError);
  EXPECT_DOUBLE_EQ(assigned.remaining_budget("cam", 100), 0.0);
}

TEST(Facade, RegistrationValidation) {
  Privid sys(1);
  CameraRegistration empty;
  empty.meta.camera_id = "x";
  EXPECT_THROW(sys.register_camera(std::move(empty)), ArgumentError);

  auto scene = staircase_scene(1);
  CameraRegistration bad_policy;
  bad_policy.meta = scene->meta();
  bad_policy.content.scene = scene;
  bad_policy.policy = {-1, 1};
  EXPECT_THROW(sys.register_camera(std::move(bad_policy)), ArgumentError);

  CameraRegistration ok;
  ok.meta = scene->meta();
  ok.content.scene = scene;
  ok.policy = {5, 1};
  sys.register_camera(std::move(ok));
  EXPECT_TRUE(sys.has_camera("cam"));
  EXPECT_EQ(sys.camera_meta("cam").fps, 10);

  CameraRegistration dup;
  dup.meta = scene->meta();
  dup.content.scene = scene;
  dup.policy = {5, 1};
  EXPECT_THROW(sys.register_camera(std::move(dup)), ArgumentError);
}

}  // namespace
}  // namespace privid::engine
