// Unit tests for the shared thread pool and for the determinism contract of
// the parallel PROCESS phase: whatever RunOptions::num_threads is, a query's
// releases (raw values, sensitivities and noise draws) and budget charges
// are bit-identical to the sequential run.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "counting_exe.hpp"
#include "engine/privid.hpp"
#include "engine/standing.hpp"
#include "snapshot_reads.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "sim/scenarios.hpp"

namespace privid::engine {
namespace {

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  EXPECT_EQ(pool.parallelism(), 4u);
  std::vector<std::atomic<int>> counts(1000);
  pool.parallel_for(counts.size(),
                    [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ZeroTasksIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.parallelism(), 1u);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // single-threaded: no race
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int batch = 0; batch < 10; ++batch) {
    pool.parallel_for(50, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPool, RethrowsLowestIndexException) {
  ThreadPool pool(3);
  std::atomic<int> executed{0};
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      executed.fetch_add(1);
      if (i == 3 || i == 7 || i == 50) {
        throw std::runtime_error(std::to_string(i));
      }
    });
    FAIL() << "expected the batch to rethrow";
  } catch (const std::runtime_error& e) {
    // Every index still ran (the batch drains), and the error surfaced is
    // the one a sequential loop would have hit first.
    EXPECT_STREQ(e.what(), "3");
  }
  EXPECT_EQ(executed.load(), 64);
}

// Arms a pool.task plan that visits but never fires (for the sizes used
// here), so site_stats counts one visit per index handed out.
void arm_silent_pool_task_plan() {
  std::optional<fault::FaultPlan> plan =
      fault::FaultPlan::parse("pool.task:every1000000000");
  ASSERT_TRUE(plan.has_value());
  fault::Injector::global().set_plan(*std::move(plan));
}

TEST(ThreadPool, EveryIndexRunsOnceAcrossSizesAndCaps) {
  // Sizes around the morsel arithmetic: fewer indices than participants,
  // a prime, and a batch large enough for multi-index morsels. The index
  // form and the range form both cover every index exactly once, and the
  // range form still visits pool.task once per index.
  ThreadPool pool(3);
  for (std::size_t n : {2u, 3u, 5u, 97u, 100003u}) {
    for (std::size_t cap : {0u, 2u}) {
      std::vector<std::atomic<int>> counts(n);
      pool.parallel_for(
          n, [&](std::size_t i) { counts[i].fetch_add(1); }, cap);
      std::size_t wrong = 0;
      for (const auto& c : counts) wrong += c.load() != 1;
      EXPECT_EQ(wrong, 0u) << "n=" << n << " max_threads=" << cap;

      std::vector<std::atomic<int>> covered(n);
      std::atomic<std::size_t> empty_ranges{0};
      arm_silent_pool_task_plan();
      pool.parallel_for_ranges(
          n,
          [&](std::size_t begin, std::size_t end) {
            if (begin >= end) empty_ranges.fetch_add(1);
            for (std::size_t i = begin; i < end; ++i) covered[i].fetch_add(1);
          },
          cap);
      const fault::SiteStats stats =
          fault::Injector::global().site_stats().at("pool.task");
      fault::Injector::global().clear();
      wrong = 0;
      for (const auto& c : covered) wrong += c.load() != 1;
      EXPECT_EQ(wrong, 0u) << "ranges n=" << n << " max_threads=" << cap;
      EXPECT_EQ(empty_ranges.load(), 0u);
      EXPECT_EQ(stats.visits, n) << "ranges n=" << n;
      EXPECT_EQ(stats.fired, 0u);
    }
  }
}

TEST(ThreadPool, LowestIndexRethrowSpansMorsels) {
  // The two throwing indices are far apart, so they land in different
  // morsels (and usually on different threads); the lower one still wins.
  ThreadPool pool(3);
  std::atomic<std::size_t> executed{0};
  try {
    pool.parallel_for(100000, [&](std::size_t i) {
      executed.fetch_add(1);
      if (i == 40000 || i == 99999) {
        throw std::runtime_error(std::to_string(i));
      }
    });
    FAIL() << "expected the batch to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "40000");
  }
  EXPECT_EQ(executed.load(), 100000u);

  // Range form: a body that walks its range in order and throws its first
  // failure surfaces the same lowest index, whatever the morsels were.
  for (int rep = 0; rep < 20; ++rep) {
    try {
      pool.parallel_for_ranges(100000, [](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          if (i == 40000 || i == 40001 || i == 99999) {
            throw std::runtime_error(std::to_string(i));
          }
        }
      });
      FAIL() << "expected the range batch to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "40000") << "rep " << rep;
    }
  }
}

TEST(ThreadPool, GaugesAndItemCountSettleOnReturn) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 50000;
  std::atomic<std::size_t> ran{0};
  pool.parallel_for(kN, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), kN);
  const obs::Snapshot after = pool.metrics().snapshot();
  EXPECT_EQ(counter_at(after, "pool.items"), kN);
  EXPECT_EQ(gauge_at(after, "pool.queue_depth"), 0);
  EXPECT_EQ(gauge_at(after, "pool.active_workers"), 0);
}

TEST(ThreadPool, TaskFaultPlanFailsEveryNthIndex) {
  // pool.task fires once per index, before fn(i), whatever the morsel
  // grain: under every<N>, exactly floor(n / N) indices never run.
  ThreadPool pool(3);
  for (std::size_t every : {1u, 7u, 1000u}) {
    constexpr std::size_t kN = 20011;
    std::optional<fault::FaultPlan> plan =
        fault::FaultPlan::parse("pool.task:every" + std::to_string(every));
    ASSERT_TRUE(plan.has_value());
    fault::Injector::global().set_plan(*std::move(plan));
    std::atomic<std::size_t> ran{0};
    const auto count_run = [&](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    };
    EXPECT_THROW(pool.parallel_for(kN, count_run), FaultInjectedError);
    const fault::SiteStats stats =
        fault::Injector::global().site_stats().at("pool.task");
    fault::Injector::global().clear();
    EXPECT_EQ(kN - ran.load(), kN / every) << "every" << every;
    EXPECT_EQ(stats.visits, kN);
    EXPECT_EQ(stats.fired, kN / every);
  }
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> counts(4 * 8);
  pool.parallel_for(4, [&](std::size_t outer) {
    pool.parallel_for(8, [&](std::size_t inner) {
      counts[outer * 8 + inner].fetch_add(1);
    });
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ConcurrentCallersAreSerialized) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> a(200), b(200);
  std::thread t1([&] {
    pool.parallel_for(a.size(), [&](std::size_t i) { a[i].fetch_add(1); });
  });
  std::thread t2([&] {
    pool.parallel_for(b.size(), [&](std::size_t i) { b[i].fetch_add(1); });
  });
  t1.join();
  t2.join();
  for (const auto& c : a) EXPECT_EQ(c.load(), 1);
  for (const auto& c : b) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, MaxThreadsCapsParticipation) {
  // A pool sized for a big request serves a smaller one without respawning
  // workers: at most max_threads distinct threads touch the batch.
  ThreadPool pool(3);
  std::mutex mu;
  std::set<std::thread::id> seen;
  pool.parallel_for(
      64,
      [&](std::size_t) {
        std::lock_guard<std::mutex> lk(mu);
        seen.insert(std::this_thread::get_id());
      },
      2);
  EXPECT_LE(seen.size(), 2u);
  EXPECT_GE(seen.size(), 1u);
}

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(ThreadPool::resolve_threads(5), 5u);
  EXPECT_EQ(ThreadPool::resolve_threads(1), 1u);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
}

// ------------------------------------- executor determinism under threads

// Same fixture as test_engine.cpp: `n` people crossing one at a time.
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

Privid make_system(int n_people = 5, double budget = 100) {
  Privid sys(7);
  auto scene = staircase_scene(n_people);
  CameraRegistration reg;
  reg.meta = scene->meta();
  reg.content.scene = scene;
  reg.content.seed = 11;
  reg.policy = {10, 1};
  reg.epsilon_budget = budget;
  reg.regions.emplace(
      "halves", RegionScheme("halves", BoundaryKind::kHard,
                             {{"left", Box{0, 0, 640, 720}},
                              {"right", Box{640, 0, 640, 720}}}));
  sys.register_camera(std::move(reg));
  sys.register_executable("count", counting_exe());
  return sys;
}

QueryResult run_with_threads(std::size_t num_threads, const std::string& q,
                             int n_people = 5) {
  Privid sys = make_system(n_people);
  RunOptions opts;
  opts.reveal_raw = true;
  opts.num_threads = num_threads;
  return sys.execute(q, opts);
}

// Exact comparison: the parallel path must be *bit*-identical, noise
// included, so EXPECT_EQ on doubles is deliberate.
void expect_identical(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.releases.size(), b.releases.size());
  for (std::size_t i = 0; i < a.releases.size(); ++i) {
    const Release& ra = a.releases[i];
    const Release& rb = b.releases[i];
    EXPECT_EQ(ra.label, rb.label);
    EXPECT_EQ(ra.value, rb.value);
    EXPECT_EQ(ra.raw, rb.raw);
    EXPECT_EQ(ra.sensitivity, rb.sensitivity);
    EXPECT_EQ(ra.epsilon, rb.epsilon);
    EXPECT_EQ(ra.argmax_key, rb.argmax_key);
  }
  EXPECT_EQ(a.table_rows, b.table_rows);
}

void expect_thread_invariant(const std::string& query, int n_people = 5) {
  auto sequential = run_with_threads(1, query, n_people);
  auto four = run_with_threads(4, query, n_people);
  auto hardware = run_with_threads(0, query, n_people);
  expect_identical(sequential, four);
  expect_identical(sequential, hardware);
}

TEST(ParallelDeterminism, GroupedQuery) {
  expect_thread_invariant(
      "SPLIT cam BEGIN 0 END 100 BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t GROUP BY chunk;");
}

TEST(ParallelDeterminism, KeyedQuery) {
  expect_thread_invariant(
      "SPLIT cam BEGIN 0 END 100 BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT seen, COUNT(*) FROM t GROUP BY seen WITH KEYS [0, 1, 2];");
}

TEST(ParallelDeterminism, MultiRegionQuery) {
  expect_thread_invariant(
      "SPLIT cam BEGIN 0 END 100 BY TIME 5 STRIDE 0 BY REGION halves INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t GROUP BY region;");
}

// execute() runs every phase's tasks (here 20, 1 and 40) in one pool
// batch, so morsels straddle phase boundaries; each phase's table must
// still come out in its own task order.
TEST(ParallelDeterminism, MultiPhaseQuery) {
  expect_thread_invariant(
      "SPLIT cam BEGIN 0 END 100 BY TIME 5 STRIDE 0 INTO a;"
      "SPLIT cam BEGIN 0 END 5 BY TIME 5 STRIDE 0 INTO b;"
      "SPLIT cam BEGIN 0 END 100 BY TIME 5 STRIDE 0 BY REGION halves INTO c;"
      "PROCESS a USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO ta;"
      "PROCESS b USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO tb;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO tc;"
      "SELECT COUNT(*) FROM ta UNION tb GROUP BY chunk;"
      "SELECT COUNT(*) FROM tc GROUP BY region;");
}

TEST(ParallelDeterminism, StandingQueryPath) {
  auto run = [](std::size_t num_threads) {
    Privid sys = make_system(5);
    StandingQuery::Spec spec;
    spec.query_template =
        "SPLIT cam BEGIN {BEGIN} END {END} BY TIME 5 STRIDE 0 INTO c;"
        "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
        "WITH SCHEMA (seen:NUMBER=0) INTO t;"
        "SELECT COUNT(*) FROM t;";
    spec.start = 0;
    spec.period = 30;
    spec.opts.reveal_raw = true;
    spec.opts.num_threads = num_threads;
    StandingQuery sq(&sys, spec);
    return sq.advance(120);
  };
  auto sequential = run(1);
  auto parallel = run(4);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].value, parallel[i].value);
    EXPECT_EQ(sequential[i].raw, parallel[i].raw);
    EXPECT_EQ(sequential[i].sensitivity, parallel[i].sensitivity);
  }
}

// A crashing chunk substitutes the default row; that substitution (and the
// resulting sensitivities) must survive parallel scheduling unchanged.
TEST(ParallelDeterminism, CrashingChunksMatchSequential) {
  auto run = [](std::size_t num_threads) {
    Privid sys(7);
    auto scene = staircase_scene(5);
    CameraRegistration reg;
    reg.meta = scene->meta();
    reg.content.scene = scene;
    reg.content.seed = 11;
    reg.policy = {10, 1};
    reg.epsilon_budget = 100;
    sys.register_camera(std::move(reg));
    sys.register_executable("flaky", [](const ChunkView& view) -> ExecOutput {
      if (view.chunk_index() % 3 == 1) throw std::runtime_error("crash");
      return {{{Value(1.0)}}, 0.1};
    });
    RunOptions opts;
    opts.reveal_raw = true;
    opts.num_threads = num_threads;
    return sys.execute(
        "SPLIT cam BEGIN 0 END 100 BY TIME 5 STRIDE 0 INTO c;"
        "PROCESS c USING flaky TIMEOUT 1 PRODUCING 2 ROWS "
        "WITH SCHEMA (seen:NUMBER=0) INTO t;"
        "SELECT COUNT(*) FROM t GROUP BY chunk;",
        opts);
  };
  auto a = run(1);
  auto b = run(4);
  expect_identical(a, b);
}

// ------------------------------------------------- wide-sweep stress test

// A >= 500-chunk sweep under the pool: releases AND the per-frame budget
// ledger must match the sequential run exactly — identical tables give
// identical sensitivities give identical charges.
TEST(ParallelStress, WideChunkSweepMatchesLedger) {
  const std::string query =
      "SPLIT cam BEGIN 0 END 120 BY TIME 0.2 STRIDE 0 INTO c;"  // 600 chunks
      "PROCESS c USING count TIMEOUT 1 PRODUCING 2 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t;"
      "SELECT SUM(range(seen, 0, 2)) FROM t CONSUMING 0.25;";
  auto run = [&](std::size_t num_threads) {
    Privid sys = make_system(5);
    RunOptions opts;
    opts.reveal_raw = true;
    opts.num_threads = num_threads;
    auto result = sys.execute(query, opts);
    std::vector<double> remaining;
    for (FrameIndex f = 0; f < 1200; f += 97) {
      remaining.push_back(sys.remaining_budget("cam", f));
    }
    remaining.push_back(sys.min_remaining_budget("cam", {0, 120}));
    return std::make_pair(result, remaining);
  };
  auto [seq_result, seq_ledger] = run(1);
  auto [par_result, par_ledger] = run(4);
  ASSERT_EQ(seq_result.table_rows.at("t"), par_result.table_rows.at("t"));
  expect_identical(seq_result, par_result);
  ASSERT_EQ(seq_ledger.size(), par_ledger.size());
  for (std::size_t i = 0; i < seq_ledger.size(); ++i) {
    EXPECT_EQ(seq_ledger[i], par_ledger[i]) << "ledger slot " << i;
  }
}

}  // namespace
}  // namespace privid::engine
