// Fault-plane tests: PRIVID_FAULTS grammar, seeded trigger determinism,
// an every-seam crash sweep (each injection site either fails the query
// cleanly with an exactly-once refund or recovers to byte-identical
// output), the disk-tier circuit breaker and crash durability, bounded
// scheduler shutdown / user cancellation, and the chaos equivalence suite
// CI replays under the canned fault plans.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "counting_exe.hpp"
#include "engine/chunk_cache.hpp"
#include "engine/privid.hpp"
#include "fault/fault.hpp"
#include "service/service.hpp"
#include "sim/scenarios.hpp"
#include "snapshot_reads.hpp"

namespace privid {
namespace {

using engine::CacheMode;
using engine::CacheStats;
using engine::CameraRegistration;
using engine::ChunkCache;
using engine::ChunkView;
using engine::DiskTierConfig;
using engine::Executable;
using engine::ExecOutput;
using engine::Privid;
using engine::QueryResult;
using engine::Release;
using engine::RunOptions;
using fault::FaultPlan;
using fault::FaultRule;
using service::QueryService;
using service::QueryState;
using service::QueryTicket;

// This binary arms fault plans programmatically (and asserts on their
// exact firing patterns), so CI's env-driven chaos replay must never
// stack a second plan underneath. Static-init so it runs before the
// global injector's lazy env read.
const bool g_faults_cleared = [] {
  unsetenv("PRIVID_FAULTS");
  return true;
}();

// ------------------------------------------------------------ fixtures

// Arms the process-global injector for one test scope; clearing on every
// exit path keeps a failed assertion from leaking a storm into the next
// test in the binary.
struct PlanGuard {
  explicit PlanGuard(const std::string& spec) {
    std::string err;
    std::optional<FaultPlan> plan = FaultPlan::parse(spec, &err);
    if (!plan.has_value()) {
      ADD_FAILURE() << "bad plan spec '" << spec << "': " << err;
      return;
    }
    fault::Injector::global().set_plan(*std::move(plan));
  }
  PlanGuard(const PlanGuard&) = delete;
  ~PlanGuard() { fault::Injector::global().clear(); }
};

FaultPlan plan_of(const std::string& spec) {
  std::string err;
  std::optional<FaultPlan> plan = FaultPlan::parse(spec, &err);
  if (!plan.has_value()) {
    ADD_FAILURE() << "bad plan spec '" << spec << "': " << err;
    return FaultPlan{};
  }
  return *std::move(plan);
}

// Deterministic scene: `n` people crossing one at a time, each visible for
// 10 s, one every 20 s starting at t = 5 (same shape as test_service.cpp).
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

// Blocks every invocation until the shared gate opens — lets a test hold
// a participant mid-task while it cancels / shuts down around it.
Executable gated_exe(std::shared_future<void> gate) {
  return [gate](const ChunkView& view) {
    gate.wait();
    ExecOutput out;
    out.rows.push_back({Value(static_cast<double>(view.chunk_index() % 3))});
    out.simulated_runtime = 0.1;
    return out;
  };
}

Privid make_system(double budget_a = 100, double budget_b = 100,
                   std::uint64_t noise_seed = 7) {
  // Cache tiers are attached programmatically below; the env-driven cache
  // replay must not stack a shared directory under these suites.
  unsetenv("PRIVID_CACHE_DIR");
  unsetenv("PRIVID_CACHE_PRELOAD");
  Privid sys(noise_seed);
  for (auto [id, budget] :
       {std::pair<const char*, double>{"camA", budget_a}, {"camB", budget_b}}) {
    auto scene = staircase_scene(id, 5);
    CameraRegistration reg;
    reg.meta = scene->meta();
    reg.content.scene = scene;
    reg.content.seed = 11;
    reg.policy = {10.0, 1};
    reg.epsilon_budget = budget;
    sys.register_camera(std::move(reg));
  }
  sys.register_executable("count", counting_exe());
  return sys;
}

QueryService::Config service_config(std::size_t threads, CacheMode cache) {
  QueryService::Config cfg;
  cfg.num_threads = threads;
  cfg.cache = cache;
  return cfg;
}

// 20 chunks over `cam`; charge = 1.0 x 1 aggregate.
std::string probe_query(const std::string& cam) {
  return "SPLIT " + cam +
         " BEGIN 0 END 100 BY TIME 5 STRIDE 0 INTO c;"
         "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
         "WITH SCHEMA (seen:NUMBER=0) INTO t;"
         "SELECT SUM(range(seen, 0, 3)) FROM t;";
}

// One chunk over camA through the gated executable.
std::string gate_query() {
  return "SPLIT camA BEGIN 0 END 5 BY TIME 5 STRIDE 0 INTO c;"
         "PROCESS c USING gate TIMEOUT 1 PRODUCING 3 ROWS "
         "WITH SCHEMA (seen:NUMBER=0) INTO t;"
         "SELECT SUM(range(seen, 0, 3)) FROM t;";
}

std::string ledger_bytes(const Privid& sys, const std::string& cam) {
  std::ostringstream os;
  sys.save_budget(cam, os);
  return os.str();
}

// The ledger a camera must hold after exactly `charges` completed probe
// queries — charges are analyst- and noise-independent, so a direct run
// is the reference (ServiceAdmission pins direct == service charging).
std::string charged_ledger(const std::string& cam, int charges) {
  Privid sys = make_system();
  for (int i = 0; i < charges; ++i) sys.execute(probe_query(cam));
  return ledger_bytes(sys, cam);
}

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

// A fresh cache directory under the test's working directory (ctest runs
// inside the build tree, so nothing leaks outside it).
std::filesystem::path fresh_cache_dir(const std::string& name) {
  auto dir = std::filesystem::current_path() / ("privid_fault_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

DiskTierConfig disk_config(const std::filesystem::path& dir,
                           std::size_t budget = 64u << 20) {
  DiskTierConfig config;
  config.dir = dir.string();
  config.byte_budget = budget;
  return config;
}

// A cached slab whose footprint is dominated by `payload` string bytes.
ColumnSlab slab_with_payload(std::size_t payload) {
  Schema schema({{"s", DType::kString, Value(std::string())}});
  ColumnSlab slab(schema);
  slab.append_string(0, std::string(payload, 'x'));
  slab.finish_row();
  return slab;
}

Fingerprint key_of(std::uint64_t i) {
  FingerprintBuilder fp;
  fp.add(i);
  return fp.digest();
}

std::size_t file_count(const std::filesystem::path& dir,
                       const std::string& suffix) {
  std::size_t n = 0;
  if (!std::filesystem::exists(dir)) return 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      ++n;
    }
  }
  return n;
}

// ----------------------------------------------------- PRIVID_FAULTS grammar

TEST(FaultSpec, ParsesSeedAndAllTriggerForms) {
  std::string err;
  std::optional<FaultPlan> plan = FaultPlan::parse(
      "seed=42,sandbox.exec:every5,disk.read:once3,pool.task:p0.25", &err);
  ASSERT_TRUE(plan.has_value()) << err;
  EXPECT_EQ(plan->seed, 42u);
  ASSERT_EQ(plan->rules.size(), 3u);
  EXPECT_EQ(plan->rules[0].site, "sandbox.exec");
  EXPECT_EQ(plan->rules[0].trigger, FaultRule::Trigger::kEveryNth);
  EXPECT_EQ(plan->rules[0].n, 5u);
  EXPECT_EQ(plan->rules[1].site, "disk.read");
  EXPECT_EQ(plan->rules[1].trigger, FaultRule::Trigger::kOnceAt);
  EXPECT_EQ(plan->rules[1].n, 3u);
  EXPECT_EQ(plan->rules[2].site, "pool.task");
  EXPECT_EQ(plan->rules[2].trigger, FaultRule::Trigger::kProbability);
  EXPECT_DOUBLE_EQ(plan->rules[2].probability, 0.25);
}

TEST(FaultSpec, SeedDefaultsToZero) {
  std::optional<FaultPlan> plan = FaultPlan::parse("x:every1", nullptr);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seed, 0u);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                    // empty clause
      ",",                   // empty clauses
      "seed=",               // no seed value
      "seed=abc",            // non-numeric seed
      "seed=42",             // seed but no site rules
      "site",                // no trigger
      "site:",               // empty trigger
      ":every1",             // empty site
      "site:every0",         // everyN needs N > 0
      "site:once0",          // onceK needs K > 0
      "site:everyx",         // non-numeric N
      "site:p1.5",           // probability out of range
      "site:p-1",            // negative probability
      "site:maybe",          // unknown trigger
      "a:every1,a:once1",    // duplicate site
      "a:every1,,b:once1",   // empty middle clause
  };
  for (const char* spec : bad) {
    std::string err;
    EXPECT_FALSE(FaultPlan::parse(spec, &err).has_value()) << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
}

TEST(FaultSpec, FromEnvReadsValidatesAndNeverArmsPartialPlans) {
  setenv("PRIVID_FAULTS", "seed=7,sandbox.exec:every2", 1);
  std::optional<FaultPlan> plan = FaultPlan::from_env();
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seed, 7u);
  ASSERT_EQ(plan->rules.size(), 1u);

  // Malformed specs warn and run fault-free rather than crash or half-arm.
  setenv("PRIVID_FAULTS", "sandbox.exec:every2,garbage", 1);
  EXPECT_FALSE(FaultPlan::from_env().has_value());

  unsetenv("PRIVID_FAULTS");
  EXPECT_FALSE(FaultPlan::from_env().has_value());
}

// ----------------------------------------------------- trigger determinism

TEST(FaultInjector, EveryNthFiresOnExactMultiples) {
  fault::Injector in;
  in.set_plan(plan_of("x:every3"));
  EXPECT_TRUE(in.armed());
  for (int visit = 1; visit <= 9; ++visit) {
    EXPECT_EQ(in.should_fail("x"), visit % 3 == 0) << "visit " << visit;
  }
  auto stats = in.site_stats();
  EXPECT_EQ(stats.at("x").visits, 9u);
  EXPECT_EQ(stats.at("x").fired, 3u);
}

TEST(FaultInjector, OnceAtFiresExactlyOnce) {
  fault::Injector in;
  in.set_plan(plan_of("x:once2"));
  for (int visit = 1; visit <= 8; ++visit) {
    EXPECT_EQ(in.should_fail("x"), visit == 2) << "visit " << visit;
  }
  EXPECT_EQ(in.site_stats().at("x").fired, 1u);
}

TEST(FaultInjector, ProbabilityStreamIsSeedDeterministic) {
  // Same seed, same plan -> bit-identical firing pattern in two injectors.
  fault::Injector a, b;
  a.set_plan(plan_of("seed=99,x:p0.5"));
  b.set_plan(plan_of("seed=99,x:p0.5"));
  std::uint64_t fired = 0;
  for (int visit = 0; visit < 64; ++visit) {
    bool fa = a.should_fail("x");
    EXPECT_EQ(fa, b.should_fail("x")) << "visit " << visit;
    fired += fa ? 1 : 0;
  }
  // p=0.5 over 64 visits: certain to be neither all-fire nor no-fire for
  // any seed that passes this test once (the stream is fixed by the seed).
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, 64u);

  // Degenerate probabilities are certainties.
  fault::Injector never, always;
  never.set_plan(plan_of("x:p0"));
  always.set_plan(plan_of("x:p1"));
  for (int visit = 0; visit < 16; ++visit) {
    EXPECT_FALSE(never.should_fail("x"));
    EXPECT_TRUE(always.should_fail("x"));
  }
}

TEST(FaultInjector, UnknownSitesNeverFireOrCount) {
  fault::Injector in;
  in.set_plan(plan_of("x:every1"));
  EXPECT_FALSE(in.should_fail("y"));
  EXPECT_EQ(in.site_stats().count("y"), 0u);
}

TEST(FaultInjector, ClearDisarmsTheGlobalFailPoint) {
  auto& g = fault::Injector::global();
  g.set_plan(plan_of("x:every1"));
  EXPECT_TRUE(g.armed());
  EXPECT_TRUE(fault::fail_point("x"));
  g.clear();
  EXPECT_FALSE(g.armed());
  EXPECT_FALSE(fault::fail_point("x"));
}

TEST(FaultInjector, InjectThrowsTransientErrorNamingTheSite) {
  PlanGuard guard("x:every1");
  try {
    fault::inject("x");
    FAIL() << "inject must throw while armed";
  } catch (const TransientError& e) {
    EXPECT_NE(std::string(e.what()).find('x'), std::string::npos);
  }
  // FaultInjectedError must stay catchable as the retry ladder's type.
  EXPECT_THROW(fault::inject("x"), FaultInjectedError);
}

// --------------------------------------------------- every-seam crash sweep
//
// For each injection site: the query either fails cleanly (wait() throws,
// the reservation refunds exactly once, nothing wedges) or recovers to
// output byte-identical to a fault-free run.

TEST(FaultSites, SandboxExecExhaustedRetriesFailCleanlyAndRefundOnce) {
  Privid sys = make_system();
  auto& service = sys.configure_service(service_config(4, CacheMode::kOff));
  const std::string pristine = ledger_bytes(sys, "camA");
  {
    PlanGuard guard("sandbox.exec:every1");  // every attempt dies
    QueryTicket t = service.submit("alice", probe_query("camA"));
    EXPECT_THROW(service.wait(t), FaultInjectedError);
    EXPECT_EQ(service.poll(t), QueryState::kFailed);
    auto stats = fault::Injector::global().site_stats();
    EXPECT_GE(stats.at("sandbox.exec").fired, 1u);
  }
  // Exactly-once refund: the ledger is byte-identical to pristine, and the
  // refunded budget is genuinely usable again once the storm clears.
  EXPECT_EQ(ledger_bytes(sys, "camA"), pristine);
  QueryResult r = service.wait(service.submit("alice", probe_query("camA")));
  EXPECT_EQ(r.releases.size(), 1u);
  service.drain();
  const obs::Snapshot s = service.metrics();
  EXPECT_EQ(counter_at(s, "analyst.submitted"),
            counter_at(s, "analyst.completed") +
                counter_at(s, "analyst.failed") +
                counter_at(s, "analyst.cancelled"));
}

TEST(Facade, ExecuteRefundsItsReservationWhenRetriesExhaust) {
  // execute() reserves before PROCESS, so a query that dies after
  // admission must hand its charge back. Dyadic ε keeps the refund
  // bit-exact on top of an earlier charge. Uncached, so the failing query
  // cannot be served from the first one's slabs.
  Privid sys = make_system();
  RunOptions uncached;
  uncached.cache = CacheMode::kOff;
  sys.execute(probe_query("camA"), uncached);
  const std::string before = ledger_bytes(sys, "camA");
  const std::string quarter =
      "SPLIT camA BEGIN 0 END 100 BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT SUM(range(seen, 0, 3)) FROM t CONSUMING 0.25;";
  {
    PlanGuard guard("sandbox.exec:every1");  // every attempt dies
    EXPECT_THROW(sys.execute(quarter, uncached), FaultInjectedError);
  }
  EXPECT_EQ(ledger_bytes(sys, "camA"), before);
  // The refunded budget is usable again once the storm clears.
  sys.execute(probe_query("camA"), uncached);
  EXPECT_EQ(ledger_bytes(sys, "camA"), charged_ledger("camA", 2));
}

TEST(FaultSites, SandboxExecTransientFaultRecoversViaRetry) {
  std::vector<Release> baseline;
  {
    Privid sys = make_system();
    auto& service = sys.configure_service(service_config(1, CacheMode::kOff));
    baseline = service.wait(service.submit("alice", probe_query("camA")))
                   .releases;
  }
  Privid sys = make_system();
  auto& service = sys.configure_service(service_config(1, CacheMode::kOff));
  PlanGuard guard("sandbox.exec:once1");  // first attempt dies, retry lands
  QueryResult r = service.wait(service.submit("alice", probe_query("camA")));
  expect_releases_identical(r.releases, baseline);
  EXPECT_EQ(ledger_bytes(sys, "camA"), charged_ledger("camA", 1));
}

TEST(FaultSites, DiskReadFaultsDegradeToMissesNotErrors) {
  const auto dir = fresh_cache_dir("site_disk_read");
  std::vector<Release> baseline;
  {
    // Populate the disk tier fault-free, flushing so the slabs persist.
    Privid sys = make_system();
    auto& service =
        sys.configure_service(service_config(1, CacheMode::kShared));
    sys.chunk_cache().attach_disk_tier(disk_config(dir));
    baseline = service.wait(service.submit("alice", probe_query("camA")))
                   .releases;
    sys.chunk_cache().flush_disk();
  }
  ASSERT_GT(file_count(dir, ".slab"), 0u);

  // A fresh system attaches the populated directory with every disk read
  // dying: every probe degrades to a miss and recomputes — same bytes out.
  Privid sys = make_system();
  auto& service = sys.configure_service(service_config(1, CacheMode::kShared));
  // Memory tier too small to hold the working set, so lookups actually
  // probe the disk index instead of being served from memory.
  sys.chunk_cache().set_byte_budget(1);
  sys.chunk_cache().attach_disk_tier(disk_config(dir));
  ASSERT_GT(sys.cache_stats().disk_entries, 0u);
  {
    PlanGuard guard("disk.read:every1");
    QueryResult r = service.wait(service.submit("alice", probe_query("camA")));
    expect_releases_identical(r.releases, baseline);
    auto stats = fault::Injector::global().site_stats();
    EXPECT_GE(stats.at("disk.read").fired, 1u);
  }
  EXPECT_EQ(ledger_bytes(sys, "camA"), charged_ledger("camA", 1));
  CacheStats s = sys.cache_stats();
  // Every failed probe counted as a miss; none crashed the query.
  EXPECT_GT(s.misses, 0u);
  EXPECT_EQ(s.disk_hits, 0u);
}

TEST(FaultSites, DiskWriteAndRenameFaultsDropPersistenceNotCorrectness) {
  const auto dir = fresh_cache_dir("site_disk_write");
  std::vector<Release> baseline;
  {
    Privid sys = make_system();
    auto& service = sys.configure_service(service_config(1, CacheMode::kOff));
    baseline = service.wait(service.submit("alice", probe_query("camA")))
                   .releases;
  }
  {
    Privid sys = make_system();
    auto& service =
        sys.configure_service(service_config(1, CacheMode::kShared));
    // Tiny memory tier forces demotions (disk writes) during the run.
    sys.chunk_cache().set_byte_budget(1 << 10);
    sys.chunk_cache().attach_disk_tier(disk_config(dir));
    PlanGuard guard("seed=3,disk.write:every2,disk.rename:every2");
    QueryResult r = service.wait(service.submit("alice", probe_query("camA")));
    expect_releases_identical(r.releases, baseline);
    EXPECT_EQ(ledger_bytes(sys, "camA"), charged_ledger("camA", 1));
  }
  // A rename fault models a crash between write and publish: the .tmp
  // orphan it leaves must be reaped by the next attach (crash durability).
  const std::size_t orphans = file_count(dir, ".slab.tmp");
  ChunkCache fresh(1 << 20);
  fresh.attach_disk_tier(disk_config(dir));
  EXPECT_EQ(file_count(dir, ".slab.tmp"), 0u);
  EXPECT_EQ(fresh.stats().orphan_drops, orphans);
}

TEST(FaultSites, FlightLeaderCrashRecoversFromCacheByteIdentical) {
  std::vector<Release> baseline;
  {
    Privid sys = make_system();
    auto& service = sys.configure_service(service_config(1, CacheMode::kOff));
    baseline = service.wait(service.submit("alice", probe_query("camA")))
                   .releases;
  }
  // The leader dies after compute (which already inserted into the shared
  // cache) but before publishing: the retry hits the cache it populated.
  Privid sys = make_system();
  auto& service = sys.configure_service(service_config(1, CacheMode::kShared));
  PlanGuard guard("flight.leader:once1");
  QueryResult r = service.wait(service.submit("alice", probe_query("camA")));
  expect_releases_identical(r.releases, baseline);
  EXPECT_EQ(ledger_bytes(sys, "camA"), charged_ledger("camA", 1));
  EXPECT_GT(sys.cache_stats().hits, 0u);  // the retry was a cache hit
}

TEST(FaultSites, FlightLeaderRepeatedCrashFailsCleanlyWithoutCache) {
  // With the cache off there is nothing for the retry to fall back to, so
  // a persistent leader crash must exhaust the ladder and refund.
  Privid sys = make_system();
  auto& service = sys.configure_service(service_config(1, CacheMode::kOff));
  const std::string pristine = ledger_bytes(sys, "camA");
  {
    PlanGuard guard("flight.leader:every1");
    QueryTicket t = service.submit("alice", probe_query("camA"));
    EXPECT_THROW(service.wait(t), FaultInjectedError);
    EXPECT_EQ(service.poll(t), QueryState::kFailed);
  }
  EXPECT_EQ(ledger_bytes(sys, "camA"), pristine);
}

TEST(FaultSites, PoolTaskFaultLosesNoTaskAndChargesOnce) {
  // A participant lost to pool.task dies before it pulls anything, so no
  // task is lost: the surviving participants finish the busy period, or
  // the dispatcher itself does when every participant is lost. The query
  // completes byte-identical to a fault-free run and is charged once.
  std::vector<Release> baseline;
  {
    Privid sys = make_system();
    auto& service = sys.configure_service(service_config(4, CacheMode::kOff));
    baseline = service.wait(service.submit("alice", probe_query("camA")))
                   .releases;
  }
  // once1 loses one participant; every1 loses all four.
  for (const auto& [spec, lost] :
       {std::pair<const char*, std::uint64_t>{"pool.task:once1", 1},
        {"pool.task:every1", 4}}) {
    SCOPED_TRACE(spec);
    // A fresh service, so this query opens its first busy period.
    Privid sys = make_system();
    auto& service = sys.configure_service(service_config(4, CacheMode::kOff));
    {
      PlanGuard guard(spec);
      QueryResult r =
          service.wait(service.submit("alice", probe_query("camA")));
      expect_releases_identical(r.releases, baseline);
      EXPECT_EQ(fault::Injector::global().site_stats().at("pool.task").fired,
                lost);
    }
    EXPECT_EQ(ledger_bytes(sys, "camA"), charged_ledger("camA", 1));
    // The pool and dispatcher survived: later queries run normally.
    QueryResult r = service.wait(service.submit("bob", probe_query("camB")));
    EXPECT_EQ(r.releases.size(), 1u);
    service.drain();
    const obs::Snapshot s = service.metrics();
    EXPECT_EQ(counter_at(s, "analyst.submitted"), 2u);
    EXPECT_EQ(counter_at(s, "analyst.completed"), 2u);
    EXPECT_EQ(counter_at(s, "analyst.failed"), 0u);
    EXPECT_EQ(counter_at(s, "analyst.cancelled"), 0u);
    EXPECT_EQ(counter_at(s, "sched.tasks_run"), 40u);
    EXPECT_EQ(counter_at(s, "sched.tasks_dropped"), 0u);
  }
}

TEST(FaultSites, SchedDispatchFaultFailsOnlyTheStruckQuery) {
  std::vector<Release> baseline_bob;
  {
    Privid sys = make_system();
    auto& service = sys.configure_service(service_config(1, CacheMode::kOff));
    baseline_bob = service.wait(service.submit("bob", probe_query("camB")))
                       .releases;
  }
  Privid sys = make_system();
  auto& service = sys.configure_service(service_config(1, CacheMode::kOff));
  const std::string pristine_a = ledger_bytes(sys, "camA");
  {
    // The first dispatched task is alice's (fair-share ties break
    // lexicographically); its dispatch fault fails her query only.
    PlanGuard guard("sched.dispatch:once1");
    QueryTicket ta = service.submit("alice", probe_query("camA"));
    QueryTicket tb = service.submit("bob", probe_query("camB"));
    EXPECT_THROW(service.wait(ta), FaultInjectedError);
    QueryResult rb = service.wait(tb);
    expect_releases_identical(rb.releases, baseline_bob);
  }
  EXPECT_EQ(ledger_bytes(sys, "camA"), pristine_a);
  EXPECT_EQ(ledger_bytes(sys, "camB"), charged_ledger("camB", 1));
  service.drain();
  const obs::Snapshot s = service.metrics();
  EXPECT_EQ(counter_at(s, "analyst.submitted"), 2u);
  EXPECT_EQ(counter_at(s, "analyst.completed"), 1u);
  EXPECT_EQ(counter_at(s, "analyst.failed"), 1u);
  EXPECT_EQ(counter_at(s, "analyst.cancelled"), 0u);
  EXPECT_EQ(counter_at(service.analyst_metrics("alice"), "analyst.failed"),
            1u);
}

// ------------------------------------------------------- circuit breaker

TEST(FaultBreaker, TripsAfterConsecutiveFailuresReprobesAndCloses) {
  constexpr std::uint64_t kTrip = DiskTierConfig::kBreakerThreshold;
  constexpr std::uint64_t kReprobe = DiskTierConfig::kBreakerReprobe;
  // Enough slabs to trip the breaker and reach its first re-probe while
  // the storm lasts, with some left over for the recovery pass.
  constexpr std::uint64_t kSlabs = kTrip + kReprobe + 4;
  const auto dir = fresh_cache_dir("breaker");
  {
    ChunkCache cache(1 << 20);
    cache.attach_disk_tier(disk_config(dir));
    for (std::uint64_t i = 0; i < kSlabs; ++i) {
      cache.insert(key_of(i), slab_with_payload(256));
    }
  }  // destructor flushes every slab to disk

  ChunkCache cache(1 << 20);
  cache.attach_disk_tier(disk_config(dir));
  ASSERT_EQ(cache.stats().disk_entries, kSlabs);

  ColumnSlab out;
  {
    PlanGuard guard("disk.read:every1");
    // kTrip consecutive probe failures trip the breaker; the next probes
    // are skipped outright except every kReprobe-th, which re-probes (and
    // fails again while the storm lasts, keeping the breaker open).
    for (std::uint64_t i = 0; i < kSlabs; ++i) {
      EXPECT_FALSE(cache.lookup(key_of(i), &out));
    }
    CacheStats s = cache.stats();
    EXPECT_TRUE(s.breaker_open);
    EXPECT_EQ(s.breaker_trips, 1u);
    EXPECT_GT(s.breaker_skips, 0u);
    EXPECT_GT(s.breaker_probes, 0u);
    EXPECT_EQ(s.disk_hits, 0u);
  }

  // Storm over: the next admitted re-probe succeeds, one success closes
  // the breaker, and the surviving index serves disk hits again.
  std::uint64_t hits = 0;
  for (int round = 0; round < 3 && hits == 0; ++round) {
    for (std::uint64_t i = 0; i < kSlabs; ++i) {
      if (cache.lookup(key_of(i), &out)) ++hits;
    }
  }
  CacheStats s = cache.stats();
  EXPECT_FALSE(s.breaker_open);
  EXPECT_GT(s.disk_hits, 0u);
  EXPECT_EQ(s.breaker_trips, 1u);  // no re-trip after recovery
}

TEST(FaultBreaker, OpenBreakerAlsoShedsWrites) {
  const auto dir = fresh_cache_dir("breaker_writes");
  const std::size_t entry = ChunkCache::slab_bytes(slab_with_payload(1024));
  ChunkCache cache(2 * entry);
  cache.attach_disk_tier(disk_config(dir));
  {
    PlanGuard guard("disk.write:every1");
    // Every insert past the first two demotes one entry. The first
    // kBreakerThreshold demotions fail and trip the breaker; the rest are
    // shed without touching the filesystem at all (too few to reach the
    // first re-probe).
    const std::uint64_t inserts = 2 + DiskTierConfig::kBreakerThreshold +
                                  DiskTierConfig::kBreakerReprobe / 2;
    for (std::uint64_t i = 0; i < inserts; ++i) {
      cache.insert(key_of(i), slab_with_payload(1024));
    }
    CacheStats s = cache.stats();
    EXPECT_TRUE(s.breaker_open);
    EXPECT_EQ(s.breaker_trips, 1u);
    EXPECT_GT(s.breaker_skips, 0u);
    EXPECT_EQ(s.breaker_probes, 0u);
    EXPECT_EQ(s.disk_entries, 0u);
  }
  EXPECT_EQ(file_count(dir, ".slab"), 0u);
}

// ------------------------------------------------------- crash durability

TEST(FaultDurability, AttachReapsOrphanTempsAndLeavesForeignFilesAlone) {
  const auto dir = fresh_cache_dir("durability");
  {
    ChunkCache cache(1 << 20);
    cache.attach_disk_tier(disk_config(dir));
    cache.insert(key_of(1), slab_with_payload(64));
    cache.flush_disk();
  }
  // A crash mid-publish leaves `<key>.slab.tmp`; unrelated files must not
  // be touched by the reaper.
  std::filesystem::path orphan =
      ChunkCache::slab_path(dir.string(), key_of(2));
  orphan += ".tmp";
  { std::ofstream f(orphan, std::ios::binary); f << "half-written"; }
  { std::ofstream f(dir / "junk.tmp", std::ios::binary); f << "not ours"; }

  ChunkCache revived(1 << 20);
  revived.attach_disk_tier(disk_config(dir));
  EXPECT_FALSE(std::filesystem::exists(orphan));
  EXPECT_TRUE(std::filesystem::exists(dir / "junk.tmp"));
  EXPECT_EQ(revived.stats().orphan_drops, 1u);
  // The published slab survived and is servable.
  ColumnSlab out;
  EXPECT_TRUE(revived.lookup(key_of(1), &out));
}

TEST(FaultDurability, RenameCrashPublishesNothingAndNextAttachCleansUp) {
  const auto dir = fresh_cache_dir("durability_rename");
  const std::size_t entry = ChunkCache::slab_bytes(slab_with_payload(1024));
  {
    ChunkCache cache(2 * entry);
    cache.attach_disk_tier(disk_config(dir));
    PlanGuard guard("disk.rename:once1");
    for (std::uint64_t i = 0; i < 3; ++i) {
      cache.insert(key_of(i), slab_with_payload(1024));  // third demotes
    }
    // The faulted publish left a temp file but no .slab and no index
    // entry — a reader can never observe a half-written slab.
    EXPECT_EQ(cache.stats().disk_entries, 0u);
    EXPECT_EQ(file_count(dir, ".slab"), 0u);
    EXPECT_EQ(file_count(dir, ".slab.tmp"), 1u);
    cache.clear();  // drop memory so the destructor flushes nothing
  }
  ChunkCache revived(1 << 20);
  revived.attach_disk_tier(disk_config(dir));
  EXPECT_EQ(file_count(dir, ".slab.tmp"), 0u);
  EXPECT_EQ(revived.stats().orphan_drops, 1u);
}

// ------------------------------------------ shutdown and cancellation

TEST(FaultShutdown, BoundedShutdownAbandonsQueuedQueriesWithFullRefund) {
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  Privid sys = make_system();
  sys.register_executable("gate", gated_exe(opened));
  QueryService::Config cfg = service_config(1, CacheMode::kOff);
  cfg.shutdown_grace_ms = 200;
  auto& service = sys.configure_service(cfg);
  const std::string pristine_b = ledger_bytes(sys, "camB");

  // A's single task blocks the only participant; B and C queue behind it
  // and the grace period expires long before the gate opens, so both
  // still have queued work to abandon.
  QueryTicket a = service.submit("alice", gate_query());
  QueryTicket b = service.submit("bob", probe_query("camB"));
  QueryTicket c = service.submit("bob", probe_query("camB"));
  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
    gate.set_value();
  });
  service.shutdown();  // bounded: grace, then abandon the queue
  opener.join();

  // The in-flight query finished; the queued ones settled kCancelled with
  // a CancelledError and refunded in full — nothing wedges, nothing leaks.
  EXPECT_EQ(service.poll(a), QueryState::kDone);
  EXPECT_EQ(service.wait(a).releases.size(), 1u);
  EXPECT_EQ(service.poll(b), QueryState::kCancelled);
  EXPECT_EQ(service.poll(c), QueryState::kCancelled);
  EXPECT_THROW(service.wait(b), CancelledError);
  EXPECT_THROW(service.wait(c), CancelledError);
  EXPECT_EQ(ledger_bytes(sys, "camB"), pristine_b);
  const obs::Snapshot s = service.metrics();
  EXPECT_EQ(counter_at(s, "analyst.completed"), 1u);
  EXPECT_EQ(counter_at(s, "analyst.cancelled"), 2u);
  EXPECT_EQ(counter_at(s, "analyst.failed"), 0u);

  // Expected camA charge: the same one-chunk query run to completion.
  std::promise<void> open_now;
  open_now.set_value();
  Privid ref = make_system();
  ref.register_executable("gate", gated_exe(open_now.get_future().share()));
  ref.execute(gate_query());
  EXPECT_EQ(ledger_bytes(sys, "camA"), ledger_bytes(ref, "camA"));
}

TEST(FaultShutdown, ShutdownIsIdempotentAndDestructorSafe) {
  Privid sys = make_system();
  auto& service = sys.configure_service(service_config(1, CacheMode::kOff));
  service.wait(service.submit("alice", probe_query("camA")));
  service.shutdown();
  service.shutdown();  // second call is a no-op, not a deadlock
}

TEST(FaultCancel, UserCancelDropsQueuedWorkAndRefunds) {
  std::promise<void> gate;
  Privid sys = make_system();
  sys.register_executable("gate", gated_exe(gate.get_future().share()));
  auto& service =
      sys.configure_service(service_config(1, CacheMode::kOff));
  const std::string pristine_b = ledger_bytes(sys, "camB");

  // A blocks the only participant; none of B's tasks has run when the
  // cancel lands, so each is dropped when its turn comes.
  QueryTicket a = service.submit("alice", gate_query());
  QueryTicket b = service.submit("bob", probe_query("camB"));
  EXPECT_TRUE(service.cancel(b));
  gate.set_value();

  EXPECT_EQ(service.wait(a).releases.size(), 1u);
  EXPECT_THROW(service.wait(b), CancelledError);
  EXPECT_EQ(service.poll(b), QueryState::kCancelled);
  EXPECT_EQ(ledger_bytes(sys, "camB"), pristine_b);
  // Cancelling a settled query reports that it lost the race.
  EXPECT_FALSE(service.cancel(b));
  EXPECT_FALSE(service.cancel(a));
  service.drain();
  const obs::Snapshot s = service.metrics();
  EXPECT_EQ(counter_at(s, "analyst.completed"), 1u);
  EXPECT_EQ(counter_at(s, "analyst.cancelled"), 1u);
  EXPECT_EQ(counter_at(s, "analyst.failed"), 0u);
  // The cancellation is bob's alone, counted as a cancellation and not a
  // failure, and none of his 20 dropped tasks counts as run.
  const obs::Snapshot bob = service.analyst_metrics("bob");
  EXPECT_EQ(counter_at(bob, "analyst.failed"), 0u);
  EXPECT_EQ(counter_at(bob, "analyst.cancelled"), 1u);
  EXPECT_EQ(counter_at(bob, "analyst.tasks_run"), 0u);
  EXPECT_EQ(counter_at(s, "sched.tasks_dropped"), 20u);
}

// ----------------------------------------------------- chaos equivalence
//
// The CI contract: under the canned fault plans, at any thread count and
// cache configuration, every query either fails cleanly (full refund) or
// produces releases and ledger charges byte-identical to a fault-free
// run. CI replays the cross-suite filter under the same plans; this suite
// is the self-contained in-binary version.

struct ChaosPlan {
  const char* name;
  const char* spec;
};

constexpr ChaosPlan kChaosPlans[] = {
    {"sandbox_flaky", "seed=11,sandbox.exec:every5"},
    {"disk_degraded",
     "seed=12,disk.read:every4,disk.write:every3,disk.rename:every5"},
    {"leader_crash", "seed=13,flight.leader:every3"},
};

struct TrioOutcome {
  std::map<std::string, std::vector<Release>> releases;  // completed only
  int completed_a = 0;  // camA queries completed (alice + carol)
  int completed_b = 0;  // camB queries completed (bob)
  std::string ledger_a;
  std::string ledger_b;
};

// Three analysts, one query each (so every completed query is its
// analyst's first submission and noise streams line up with the
// baseline): alice -> camA, bob -> camB, carol -> camA.
TrioOutcome run_trio(std::size_t threads, int cache_mode,
                     const std::string& dir_tag, const char* spec) {
  Privid sys = make_system();
  auto& service = sys.configure_service(service_config(
      threads, cache_mode == 0 ? CacheMode::kOff : CacheMode::kShared));
  if (cache_mode == 2) {
    // Small memory tier so the disk tier sees traffic during the run.
    sys.chunk_cache().set_byte_budget(4 << 10);
    sys.chunk_cache().attach_disk_tier(disk_config(fresh_cache_dir(dir_tag)));
  }
  std::optional<PlanGuard> guard;
  if (spec != nullptr) guard.emplace(spec);

  struct Sub {
    const char* analyst;
    const char* cam;
    QueryTicket ticket;
  };
  Sub subs[] = {{"alice", "camA", {}}, {"bob", "camB", {}},
                {"carol", "camA", {}}};
  for (Sub& s : subs) s.ticket = service.submit(s.analyst, probe_query(s.cam));

  TrioOutcome out;
  for (Sub& s : subs) {
    try {
      QueryResult r = service.wait(s.ticket);
      out.releases[s.analyst] = r.releases;
      (std::string(s.cam) == "camA" ? out.completed_a : out.completed_b) += 1;
    } catch (const TransientError&) {
      // Clean failure is an allowed outcome under concurrency (retries can
      // exhaust if interleaving lines visits up with the trigger); the
      // refund is asserted through the ledger below.
      EXPECT_EQ(service.poll(s.ticket), QueryState::kFailed);
    }
  }
  guard.reset();  // disarm before the destructor's disk flush
  out.ledger_a = ledger_bytes(sys, "camA");
  out.ledger_b = ledger_bytes(sys, "camB");
  return out;
}

class FaultChaosEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FaultChaosEquivalence, CompletedQueriesAreByteIdenticalToFaultFree) {
  const std::size_t threads = GetParam();
  // Expected ledgers for every completion count a run can end with.
  const std::string ledger_a[] = {charged_ledger("camA", 0),
                                  charged_ledger("camA", 1),
                                  charged_ledger("camA", 2)};
  const std::string ledger_b[] = {charged_ledger("camB", 0),
                                  charged_ledger("camB", 1)};

  for (int cache_mode = 0; cache_mode < 3; ++cache_mode) {
    const std::string tag =
        "chaos_" + std::to_string(threads) + "_" + std::to_string(cache_mode);
    TrioOutcome base = run_trio(threads, cache_mode, tag + "_base", nullptr);
    ASSERT_EQ(base.completed_a, 2);
    ASSERT_EQ(base.completed_b, 1);
    EXPECT_EQ(base.ledger_a, ledger_a[2]);
    EXPECT_EQ(base.ledger_b, ledger_b[1]);

    for (const ChaosPlan& plan : kChaosPlans) {
      SCOPED_TRACE(std::string(plan.name) + " cache_mode=" +
                   std::to_string(cache_mode) + " threads=" +
                   std::to_string(threads));
      TrioOutcome run =
          run_trio(threads, cache_mode,
                   tag + "_" + plan.name, plan.spec);
      // Single-threaded dispatch is fully deterministic: the canned plans
      // are constructed so bounded retry always recovers there.
      if (threads == 1) {
        EXPECT_EQ(run.completed_a, 2);
        EXPECT_EQ(run.completed_b, 1);
      }
      for (const auto& [analyst, releases] : run.releases) {
        expect_releases_identical(releases, base.releases.at(analyst));
      }
      // Ledger charges depend only on how many queries completed — failed
      // ones refunded exactly once, completed ones charged exactly what a
      // fault-free run charges.
      EXPECT_EQ(run.ledger_a, ledger_a[run.completed_a]);
      EXPECT_EQ(run.ledger_b, ledger_b[run.completed_b]);
    }
  }
}

// 0 = all hardware threads. A literal, not hardware_concurrency(): on a
// 4-thread host that would repeat the /4 instance, whose twin would share
// its test name and its cache directories under ctest -j.
INSTANTIATE_TEST_SUITE_P(Threads, FaultChaosEquivalence,
                         ::testing::Values(std::size_t{1}, std::size_t{4},
                                           std::size_t{0}));

}  // namespace
}  // namespace privid
