// Observability plane tests: metric primitives under concurrency, bucket
// percentile math, registry aggregation, Chrome-trace span shape, the
// lifecycle spans a real service query emits, the determinism guard
// (tracing on vs. off leaves releases/sensitivities/ledgers byte-
// identical), and the Stats structs' equivalence with registry snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "counting_exe.hpp"
#include "engine/privid.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/scenarios.hpp"
#include "snapshot_reads.hpp"

namespace privid::obs {
namespace {

using engine::CameraRegistration;
using engine::ChunkView;
using engine::Executable;
using engine::ExecOutput;
using engine::Privid;
using engine::QueryResult;
using engine::Release;
using engine::RunOptions;

// Restores the recorder to a quiet state no matter how a test exits, so
// trace-enabled tests can't leak events into later suites.
struct TraceQuiesce {
  TraceQuiesce() {
    TraceRecorder::global().set_enabled(false);
    TraceRecorder::global().clear();
  }
  ~TraceQuiesce() {
    TraceRecorder::global().set_enabled(false);
    TraceRecorder::global().clear();
  }
};

// ------------------------------------------------------------ fixtures
// Same deterministic scene/query shape as test_service.cpp.

std::shared_ptr<sim::Scene> staircase_scene(const std::string& camera_id,
                                            int n) {
  VideoMeta m;
  m.camera_id = camera_id;
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

Privid make_system(std::uint64_t noise_seed = 7) {
  Privid sys(noise_seed);
  auto scene = staircase_scene("camA", 5);
  CameraRegistration reg;
  reg.meta = scene->meta();
  reg.content.scene = scene;
  reg.content.seed = 11;
  reg.policy = {10.0, 1};
  reg.epsilon_budget = 100;
  sys.register_camera(std::move(reg));
  sys.register_executable("count", counting_exe());
  return sys;
}

std::string probe_query() {
  return "SPLIT camA BEGIN 0 END 100 BY TIME 5 STRIDE 0 INTO c;"
         "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
         "WITH SCHEMA (seen:NUMBER=0) INTO t;"
         "SELECT SUM(range(seen, 0, 3)) FROM t;";
}

std::string ledger_bytes(const Privid& sys) {
  std::ostringstream os;
  sys.save_budget("camA", os);
  return os.str();
}

// ------------------------------------------------------------- counters

TEST(ObsCounter, SingleThreadAddsSumExactly) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

class ObsCounterThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ObsCounterThreads, ConcurrentAddsAreExactAtQuiescence) {
  const std::size_t threads = GetParam() == 0
                                  ? ThreadPool::resolve_threads(0)
                                  : GetParam();
  constexpr std::uint64_t kPerThread = 20000;
  Counter c;
  Gauge g;
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < threads; ++t) {
    ts.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add();
        g.add(2);
        g.sub(1);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), threads * kPerThread);
  EXPECT_EQ(g.value(), static_cast<std::int64_t>(threads * kPerThread));
}

// 1 (sequential), 4, 0 (all hardware threads) — the TSan leg replays this
// suite for data-race coverage of the striped counters.
INSTANTIATE_TEST_SUITE_P(Threads, ObsCounterThreads,
                         ::testing::Values(1u, 4u, 0u));

TEST(ObsCounter, DoubleCounterAccumulates) {
  DoubleCounter d;
  EXPECT_EQ(d.value(), 0.0);
  d.add(0.5);
  d.add(1.25);
  EXPECT_DOUBLE_EQ(d.value(), 1.75);

  // Concurrent adds of the same addend land exactly (CAS loop, and 0.25
  // sums have exact binary representations at this magnitude).
  DoubleCounter shared;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) shared.add(0.25);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_DOUBLE_EQ(shared.value(), 4 * 1000 * 0.25);
}

// ------------------------------------------------------------ histograms

TEST(ObsHistogram, CountSumMaxAndBucketsAgree) {
  LatencyHistogram h;
  // One observation per decade-ish value, including the sub-256ns bucket
  // and a large one.
  const std::vector<std::uint64_t> samples = {10, 300, 5'000, 70'000,
                                              1'000'000, 50'000'000};
  std::uint64_t sum = 0;
  for (auto s : samples) {
    h.observe_ns(s);
    sum += s;
  }
  EXPECT_EQ(h.count(), samples.size());
  EXPECT_EQ(h.sum_ns(), sum);
  EXPECT_EQ(h.max_ns(), 50'000'000u);

  auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), LatencyHistogram::kBuckets);
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  EXPECT_EQ(total, samples.size());
  EXPECT_EQ(counts[0], 1u);  // the 10ns sample sits in [0, 256)

  // Every sample's bucket brackets the sample.
  auto lower = LatencyHistogram::bucket_lower_ns();
  auto upper = LatencyHistogram::bucket_upper_ns();
  ASSERT_EQ(lower.size(), counts.size());
  ASSERT_EQ(upper.size(), counts.size());
  for (auto s : samples) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (s >= lower[i] && s < upper[i]) {
        EXPECT_GT(counts[i], 0u) << "sample " << s << " bucket " << i;
      }
    }
  }
}

TEST(ObsHistogram, BucketPercentileInterpolatesWithinBuckets) {
  // Synthetic two-bucket distribution: 3 samples in [0,10), 1 in [10,20).
  std::vector<std::uint64_t> counts = {3, 1};
  std::vector<double> lower = {0, 10};
  std::vector<double> upper = {10, 20};
  // Ranks are (n-1)-based like privid::percentile: p0 -> first sample,
  // p100 -> last sample's bucket lower edge (single-sample bucket pins).
  EXPECT_DOUBLE_EQ(bucket_percentile(counts, lower, upper, 0), 0.0);
  EXPECT_DOUBLE_EQ(bucket_percentile(counts, lower, upper, 100), 10.0);
  // p50 -> rank 1.5 of {r0,r1,r2 in bucket0}: frac (1.5-0)/2 = 0.75.
  EXPECT_DOUBLE_EQ(bucket_percentile(counts, lower, upper, 50), 7.5);

  EXPECT_EQ(bucket_percentile({0, 0}, lower, upper, 50), 0.0);  // empty
  EXPECT_THROW(bucket_percentile({}, {}, {}, 50), ArgumentError);
  EXPECT_THROW(bucket_percentile(counts, lower, upper, -1), ArgumentError);
  EXPECT_THROW(bucket_percentile(counts, lower, upper, 101), ArgumentError);
  EXPECT_THROW(bucket_percentile(counts, lower, {20}, 50), ArgumentError);
}

TEST(ObsHistogram, ConcurrentObservationsAllLand) {
  LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe_ns(static_cast<std::uint64_t>(t) * 1000 + 100);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t total = 0;
  for (auto c : h.bucket_counts()) total += c;
  EXPECT_EQ(total, h.count());
  std::uint64_t sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    sum += static_cast<std::uint64_t>(kPerThread) *
           (static_cast<std::uint64_t>(t) * 1000 + 100);
  }
  EXPECT_EQ(h.sum_ns(), sum);
  EXPECT_EQ(h.max_ns(), static_cast<std::uint64_t>(kThreads - 1) * 1000 + 100);
}

TEST(ObsHistogram, StripedSnapshotMatchesSingleThreadFeed) {
  // The same multiset of observations, fed from 4 threads into one
  // histogram and from 1 thread into another, must snapshot identically:
  // striping changes where a sample lands, never what the readers report.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3000;
  auto sample = [](int t, int i) {
    // Spread over ~15 buckets, with a distinct maximum per thread.
    return static_cast<std::uint64_t>((i * 7919 + t * 104729) % 4'000'000) +
           static_cast<std::uint64_t>(t) * 13;
  };
  Registry striped_reg;
  Registry serial_reg;
  MetricGroup striped_group;
  MetricGroup serial_group;
  LatencyHistogram* striped = striped_group.histogram("h");
  LatencyHistogram* serial = serial_group.histogram("h");
  Registration r1 = striped_reg.attach(&striped_group);
  Registration r2 = serial_reg.attach(&serial_group);

  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) striped->observe_ns(sample(t, i));
    });
  }
  for (auto& t : ts) t.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) serial->observe_ns(sample(t, i));
  }

  EXPECT_EQ(striped->bucket_counts(), serial->bucket_counts());
  EXPECT_EQ(striped->count(), serial->count());
  EXPECT_EQ(striped->sum_ns(), serial->sum_ns());
  EXPECT_EQ(striped->max_ns(), serial->max_ns());
  const Snapshot a = striped_reg.snapshot();
  const Snapshot b = serial_reg.snapshot();
  const Snapshot::HistogramRow* ra = a.histogram_row("h");
  const Snapshot::HistogramRow* rb = b.histogram_row("h");
  ASSERT_NE(ra, nullptr);
  ASSERT_NE(rb, nullptr);
  EXPECT_EQ(ra->count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(ra->count, rb->count);
  EXPECT_EQ(ra->total_ms, rb->total_ms);
  EXPECT_EQ(ra->p50_ms, rb->p50_ms);
  EXPECT_EQ(ra->p90_ms, rb->p90_ms);
  EXPECT_EQ(ra->p99_ms, rb->p99_ms);
  EXPECT_EQ(ra->max_ms, rb->max_ms);
  EXPECT_EQ(a.json(), b.json());
}

// -------------------------------------------------------------- registry

TEST(ObsRegistry, SnapshotMergesSameNamedMetricsAcrossGroups) {
  Registry reg;  // private registry: no interference from live components
  MetricGroup a;
  MetricGroup b;
  a.counter("x.events")->add(3);
  b.counter("x.events")->add(4);
  a.gauge("x.level")->set(10);
  b.gauge("x.level")->set(-2);
  a.double_counter("x.eps")->add(0.5);
  b.double_counter("x.eps")->add(0.25);
  a.histogram("x.lat")->observe_ns(1000);
  b.histogram("x.lat")->observe_ns(3000);

  auto ra = reg.attach(&a);
  auto rb = reg.attach(&b);
  EXPECT_EQ(reg.group_count(), 2u);

  Snapshot s = reg.snapshot();
  EXPECT_EQ(s.counter_value("x.events"), 7u);
  EXPECT_EQ(s.gauge_value("x.level"), 8);
  EXPECT_DOUBLE_EQ(s.double_value("x.eps"), 0.75);
  const Snapshot::HistogramRow* row = s.histogram_row("x.lat");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, 2u);
  EXPECT_GT(row->max_ms, 0.0);
  EXPECT_LE(row->p50_ms, row->p99_ms);
  EXPECT_LE(row->p99_ms, row->max_ms + 1e-9);

  // Absent names read as zero, not errors.
  EXPECT_EQ(s.counter_value("nope"), 0u);
  EXPECT_EQ(s.histogram_row("nope"), nullptr);
}

TEST(ObsRegistry, GroupSnapshotReadsLikeTheRegistry) {
  Registry reg;
  MetricGroup a;
  MetricGroup b;
  a.counter("x.events")->add(3);
  a.gauge("x.level")->set(-2);
  a.double_counter("x.eps")->add(0.5);
  a.histogram("x.lat")->observe_ns(1'000'000);
  b.counter("x.events")->add(4);
  b.histogram("x.lat")->observe_ns(3'000'000);
  {
    Registration r = reg.attach(&a);
    EXPECT_EQ(a.snapshot().json(), reg.snapshot().json());
  }
  // One builder: a registry over two groups reads as snapshot_of them.
  Registration ra = reg.attach(&a);
  Registration rb = reg.attach(&b);
  EXPECT_EQ(snapshot_of({&a, &b}).json(), reg.snapshot().json());
  EXPECT_EQ(counter_at(reg.snapshot(), "x.events"), 7u);
}

TEST(ObsRegistry, RegistrationDetachesOnDestruction) {
  Registry reg;
  MetricGroup g;
  g.counter("y.events")->add(1);
  {
    Registration r = reg.attach(&g);
    EXPECT_EQ(reg.group_count(), 1u);
    EXPECT_EQ(reg.snapshot().counter_value("y.events"), 1u);
  }
  EXPECT_EQ(reg.group_count(), 0u);
  EXPECT_EQ(reg.snapshot().counter_value("y.events"), 0u);

  // Moved-from registrations don't double-detach.
  Registration r1 = reg.attach(&g);
  Registration r2 = std::move(r1);
  EXPECT_EQ(reg.group_count(), 1u);
}

TEST(ObsRegistry, MetricGroupReturnsStablePointers) {
  MetricGroup g;
  Counter* c1 = g.counter("same");
  Counter* c2 = g.counter("same");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(static_cast<void*>(g.gauge("same")), static_cast<void*>(c1));
}

TEST(ObsRegistry, TableAndJsonAreStableAndWellFormed) {
  Registry reg;
  MetricGroup g;
  g.counter("z.b")->add(2);
  g.counter("z.a")->add(1);
  g.histogram("z.lat")->observe_ns(2000);
  auto r = reg.attach(&g);
  Snapshot s = reg.snapshot();

  // Sorted rows: z.a before z.b.
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].first, "z.a");
  EXPECT_EQ(s.counters[1].first, "z.b");

  std::string table = s.table();
  EXPECT_NE(table.find("z.a"), std::string::npos);
  EXPECT_NE(table.find("z.lat"), std::string::npos);

  std::string json = s.json();
  EXPECT_NE(json.find("\"z.a\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p99_ms\""), std::string::npos);
  // Compact mode is a single line for the bench handshake.
  std::string compact = s.json(/*compact=*/true);
  EXPECT_FALSE(compact.empty());
  EXPECT_EQ(std::count(compact.begin(), compact.end(), '\n'), 0);
  // Identical state serializes identically (stable key order).
  EXPECT_EQ(json, reg.snapshot().json());
}

// ---------------------------------------------------------------- tracing

TEST(ObsTrace, DisabledSpansAreInertAndFree) {
  TraceQuiesce quiet;
  ASSERT_FALSE(TraceRecorder::global().enabled());
  {
    Span s("should.not.appear", "test");
    EXPECT_FALSE(s.active());
    s.tag("key", "value");  // must be a no-op, not a crash
  }
  EXPECT_EQ(TraceRecorder::global().event_count(), 0u);
}

TEST(ObsTrace, RecordsNestedSpansWithTags) {
  TraceQuiesce quiet;
  TraceRecorder::global().set_enabled(true);
  {
    Span outer("outer", "test");
    EXPECT_TRUE(outer.active());
    outer.tag("query", std::uint64_t{42}).tag("analyst", "alice");
    {
      Span inner("inner", "test");
      inner.tag("step", "one");
    }
  }
  TraceRecorder::global().set_enabled(false);

  auto events = TraceRecorder::global().events();
  ASSERT_EQ(events.size(), 2u);
  // Spans record at destruction: inner closes first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].category, "test");
  // The outer span brackets the inner one.
  EXPECT_LE(events[1].start_ns, events[0].start_ns);
  EXPECT_GE(events[1].start_ns + events[1].duration_ns,
            events[0].start_ns + events[0].duration_ns);
  ASSERT_EQ(events[1].args.size(), 2u);
  EXPECT_EQ(events[1].args[0].first, "query");
  EXPECT_EQ(events[1].args[0].second, "42");
  EXPECT_EQ(events[1].args[1].second, "alice");
}

TEST(ObsTrace, JsonIsChromeTraceShape) {
  TraceQuiesce quiet;
  TraceRecorder::global().set_enabled(true);
  {
    Span s("na\"me\n", "cat");  // exercises escaping
    s.tag("k", "v\\w");
  }
  TraceRecorder::global().set_enabled(false);

  std::string json = TraceRecorder::global().json();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("na\\\"me\\n"), std::string::npos);
  EXPECT_NE(json.find("v\\\\w"), std::string::npos);
  // No raw control characters survive escaping.
  for (char c : json) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n');
  }

  TraceRecorder::global().clear();
  EXPECT_EQ(TraceRecorder::global().event_count(), 0u);
}

TEST(ObsTraceQuery, ServiceRunEmitsLifecycleSpans) {
  TraceQuiesce quiet;
  TraceRecorder::global().set_enabled(true);
  {
    Privid sys = make_system();
    service::QueryService::Config cfg;
    cfg.num_threads = 4;
    cfg.cache = engine::CacheMode::kShared;
    auto& service = sys.configure_service(cfg);
    service.wait(service.submit("alice", probe_query()));
    service.wait(service.submit("alice", probe_query()));  // cache hits
    service.drain();
  }
  TraceRecorder::global().set_enabled(false);

  auto events = TraceRecorder::global().events();
  std::set<std::string> names;
  for (const auto& ev : events) names.insert(ev.name);
  for (const char* expected :
       {"service.submit", "sched.round", "sched.task", "task.process",
        "task.sandbox", "cache.probe", "query.assemble", "query.select",
        "query.finalize", "admission.reserve"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span " << expected;
  }

  // The submit span carries analyst + query id + outcome tags.
  bool found_submit = false;
  bool cache_hit_seen = false;
  bool cache_miss_seen = false;
  for (const auto& ev : events) {
    if (ev.name == "service.submit") {
      found_submit = true;
      std::set<std::string> keys;
      for (const auto& [k, v] : ev.args) keys.insert(k);
      EXPECT_TRUE(keys.count("analyst"));
      EXPECT_TRUE(keys.count("query"));
      EXPECT_TRUE(keys.count("outcome"));
    }
    if (ev.name == "cache.probe") {
      for (const auto& [k, v] : ev.args) {
        if (k == "tier" && v == "mem") cache_hit_seen = true;
        if (k == "tier" && v == "miss") cache_miss_seen = true;
      }
    }
    if (ev.name == "task.process") {
      std::set<std::string> keys;
      for (const auto& [k, v] : ev.args) keys.insert(k);
      EXPECT_TRUE(keys.count("fingerprint"));
    }
  }
  EXPECT_TRUE(found_submit);
  EXPECT_TRUE(cache_miss_seen);  // first query computes
  EXPECT_TRUE(cache_hit_seen);   // second query is served from memory
  TraceRecorder::global().clear();
}

TEST(ObsTracePool, InlineBatchesCarryReasonTag) {
  TraceQuiesce quiet;
  TraceRecorder::global().set_enabled(true);
  {
    ThreadPool no_workers(0);
    no_workers.parallel_for(3, [](std::size_t) {});
  }
  TraceRecorder::global().set_enabled(false);
  bool found = false;
  for (const auto& ev : TraceRecorder::global().events()) {
    if (ev.name != "pool.inline") continue;
    for (const auto& [k, v] : ev.args) {
      if (k == "reason" && v == "no-workers") found = true;
    }
  }
  EXPECT_TRUE(found);
  TraceRecorder::global().clear();
}

// ------------------------------------------------------------ determinism

class ObsDeterminism : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ObsDeterminism, TracingDoesNotChangeReleasesOrLedger) {
  TraceQuiesce quiet;
  RunOptions reveal;
  reveal.reveal_raw = true;
  auto run = [&](bool traced) {
    TraceRecorder::global().set_enabled(traced);
    Privid sys = make_system();
    service::QueryService::Config cfg;
    cfg.num_threads = GetParam();
    cfg.cache = engine::CacheMode::kShared;
    auto& service = sys.configure_service(cfg);
    QueryResult r =
        service.wait(service.submit("alice", probe_query(), reveal));
    service.drain();
    TraceRecorder::global().set_enabled(false);
    return std::make_pair(r, ledger_bytes(sys));
  };

  auto [plain, plain_ledger] = run(false);
  auto [traced, traced_ledger] = run(true);

  // Tracing observed a full run...
  EXPECT_GT(TraceRecorder::global().event_count(), 0u);
  // ...and changed nothing: releases (noisy value, raw, sensitivity,
  // epsilon) and the ledger are byte-identical.
  ASSERT_EQ(traced.releases.size(), plain.releases.size());
  for (std::size_t i = 0; i < plain.releases.size(); ++i) {
    EXPECT_EQ(traced.releases[i].value, plain.releases[i].value);
    EXPECT_EQ(traced.releases[i].raw, plain.releases[i].raw);
    EXPECT_EQ(traced.releases[i].sensitivity, plain.releases[i].sensitivity);
    EXPECT_EQ(traced.releases[i].epsilon, plain.releases[i].epsilon);
  }
  EXPECT_EQ(traced_ledger, plain_ledger);
  TraceRecorder::global().clear();
}

INSTANTIATE_TEST_SUITE_P(Threads, ObsDeterminism,
                         ::testing::Values(1u, 4u, 0u));

// ------------------------------------------------- stats <-> registry

TEST(ObsStatsEquivalence, CacheStatsMatchRegistryDeltas) {
  Snapshot before = Registry::global().snapshot();
  Privid sys = make_system();
  service::QueryService::Config cfg;
  cfg.num_threads = 2;
  cfg.cache = engine::CacheMode::kShared;
  auto& service = sys.configure_service(cfg);
  service.wait(service.submit("alice", probe_query()));
  service.wait(service.submit("alice", probe_query()));
  service.drain();

  Snapshot after = Registry::global().snapshot();
  auto delta = [&](const char* name) {
    return after.counter_value(name) - before.counter_value(name);
  };

  // Cache view: the service's cache counters match the registry deltas,
  // and the second (fully cached) run produced hits.
  auto cache = sys.cache_stats();
  EXPECT_EQ(cache.hits, delta("cache.hits"));
  EXPECT_EQ(cache.misses, delta("cache.misses"));
  EXPECT_GT(cache.hits, 0u);
  EXPECT_EQ(after.gauge_value("cache.entries") -
                before.gauge_value("cache.entries"),
            static_cast<std::int64_t>(cache.entries));

  // Latency histograms saw the work: one submit per query, one process
  // observation per executed task.
  const Snapshot::HistogramRow* submit = after.histogram_row("service.submit");
  ASSERT_NE(submit, nullptr);
  EXPECT_GE(submit->count, 2u);
  const Snapshot::HistogramRow* task = after.histogram_row("task.process");
  ASSERT_NE(task, nullptr);
  EXPECT_GE(task->count, counter_at(service.metrics(), "sched.tasks_run"));
}

// ------------------------------------------------------------------ pool

TEST(ObsPool, FacadeKeepsOneHardwareSizedPoolAcrossThreadCounts) {
  const auto workers = [] {
    return Registry::global().snapshot().gauge_value("pool.workers");
  };
  const auto hw_workers =
      static_cast<std::int64_t>(ThreadPool::resolve_threads(0)) - 1;
  Privid sys = make_system();
  RunOptions opts;
  opts.charge_budget = false;
  opts.num_threads = 1;
  sys.execute(probe_query(), opts);
  EXPECT_EQ(workers(), 0);  // sequential queries never create the pool
  // The first multi-threaded query creates the pool at hardware size;
  // later queries, whatever their thread count, cap their own batches
  // instead of resizing it, and the service borrows the same pool.
  for (std::size_t threads : {2u, 4u, 0u}) {
    opts.num_threads = threads;
    sys.execute(probe_query(), opts);
    EXPECT_EQ(workers(), hw_workers) << "after execute at " << threads;
  }
  service::QueryService& service = sys.service();
  EXPECT_EQ(workers(), hw_workers);
  service.wait(service.submit("alice", probe_query()));
  EXPECT_EQ(workers(), hw_workers);
}

}  // namespace
}  // namespace privid::obs
