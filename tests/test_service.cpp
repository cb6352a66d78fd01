// Multi-analyst query service tests: stride fair-share policy, atomic
// admission (reserve == what a direct run charges; reject leaves ledgers
// untouched; abort refunds exactly once), single-flight dedup of identical
// chunk work, and the core guarantee — a query's releases, sensitivities
// and ledger charges are byte-identical whether it runs alone or amid
// concurrent load from other analysts, at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "counting_exe.hpp"
#include "engine/privid.hpp"
#include "service/scheduler.hpp"
#include "sim/scenarios.hpp"
#include "snapshot_reads.hpp"

namespace privid::service {
namespace {

using engine::CameraRegistration;
using engine::ChunkView;
using engine::Executable;
using engine::ExecOutput;
using engine::Privid;
using engine::QueryResult;
using engine::Release;
using engine::RunOptions;

// ------------------------------------------------------------ fixtures

// This suite pins exact invocation/dedup counts, so CI's chaos replay
// (PRIVID_FAULTS) must not perturb it — the equivalence suites in
// test_fault.cpp are the ones that run armed. Static-init so it runs
// before the fault plane's lazy env read can ever happen.
const bool g_faults_cleared = [] {
  unsetenv("PRIVID_FAULTS");
  return true;
}();

// Deterministic scene: `n` people crossing one at a time, each visible for
// 10 s, one every 20 s starting at t = 5 (same shape as test_engine.cpp).
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

// Counts real sandbox invocations — the dedup tests assert N identical
// concurrent queries trigger exactly one per chunk.
Executable tallying_exe(std::shared_ptr<std::atomic<int>> invocations) {
  return [invocations](const ChunkView& view) {
    invocations->fetch_add(1, std::memory_order_relaxed);
    ExecOutput out;
    out.rows.push_back({Value(static_cast<double>(view.chunk_index() % 7))});
    out.simulated_runtime = 0.1;
    return out;
  };
}

// A crash the sandbox cannot absorb: run_sandboxed turns std::exceptions
// into the default row (Appendix B), so a non-std exception is what an
// aborted sandbox looks like to the executor. The service must fail the
// query and refund its admission reservation exactly once.
struct SandboxBoom {};
Executable boom_exe() {
  return [](const ChunkView&) -> ExecOutput { throw SandboxBoom{}; };
}

Privid make_system(double budget_a = 100, double budget_b = 100,
                   std::uint64_t noise_seed = 7) {
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

QueryService::Config service_config(std::size_t threads,
                                    engine::CacheMode cache) {
  QueryService::Config cfg;
  cfg.num_threads = threads;
  cfg.cache = cache;
  return cfg;
}

// 20 chunks over camA; charge = 1.0 x 1 aggregate.
std::string probe_query(const std::string& cam) {
  return "SPLIT " + cam +
         " BEGIN 0 END 100 BY TIME 5 STRIDE 0 INTO c;"
         "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
         "WITH SCHEMA (seen:NUMBER=0) INTO t;"
         "SELECT SUM(range(seen, 0, 3)) FROM t;";
}

std::string ledger_bytes(const Privid& sys, const std::string& cam) {
  std::ostringstream os;
  sys.save_budget(cam, os);
  return os.str();
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

// --------------------------------------------- fair-share queue policy

TEST(ServiceFairShare, StrideOrderRespectsWeights) {
  FairShareQueue<int> q;
  q.set_weight("a", 1.0);
  q.set_weight("b", 2.0);
  for (int i = 0; i < 3; ++i) q.push("a", i);
  for (int i = 0; i < 6; ++i) q.push("b", 100 + i);
  // Strides 1 and 0.5; ties break lexicographically: a b b a b b a b b.
  std::vector<std::string> order;
  int task = 0;
  while (q.pop(&task)) order.push_back(task < 100 ? "a" : "b");
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "b", "a", "b", "b",
                                             "a", "b", "b"}));
}

TEST(ServiceFairShare, EqualWeightsAlternate) {
  FairShareQueue<int> q;
  for (int i = 0; i < 3; ++i) q.push("a", i);
  for (int i = 0; i < 3; ++i) q.push("b", 100 + i);
  std::vector<std::string> order;
  int task = 0;
  while (q.pop(&task)) order.push_back(task < 100 ? "a" : "b");
  EXPECT_EQ(order,
            (std::vector<std::string>{"a", "b", "a", "b", "a", "b"}));
}

TEST(ServiceFairShare, IdleLaneReentersAtVirtualTimeNotZero) {
  FairShareQueue<int> q;
  for (int i = 0; i < 8; ++i) q.push("a", i);
  int task = 0;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.pop(&task));  // a's pass -> 4
  // b arrives late: it must enter at the current virtual time (3.0, the
  // pass of the last served task), not at 0 — so it gets its fair share
  // from now on but no retroactive credit to monopolize the pool.
  for (int i = 0; i < 4; ++i) q.push("b", 100 + i);
  std::vector<std::string> order;
  while (q.pop(&task)) order.push_back(task < 100 ? "a" : "b");
  EXPECT_EQ(order, (std::vector<std::string>{"b", "a", "b", "a", "b", "a",
                                             "b", "a"}));
}

// ---------------------------------------------------------- admission

TEST(ServiceAdmission, ReservationChargesExactlyWhatADirectRunCharges) {
  Privid direct = make_system();
  direct.execute(probe_query("camA"));
  const std::string direct_ledger = ledger_bytes(direct, "camA");

  Privid sys = make_system();
  auto& service =
      sys.configure_service(service_config(1, engine::CacheMode::kOff));
  service.wait(service.submit("alice", probe_query("camA")));
  EXPECT_EQ(ledger_bytes(sys, "camA"), direct_ledger);
}

TEST(ServiceAdmission, RejectionLeavesLedgersByteIdentical) {
  Privid sys = make_system(/*budget_a=*/0.5);  // probe costs 1.0
  auto& service =
      sys.configure_service(service_config(1, engine::CacheMode::kOff));
  const std::string before = ledger_bytes(sys, "camA");
  EXPECT_THROW(service.submit("alice", probe_query("camA")), BudgetError);
  EXPECT_EQ(ledger_bytes(sys, "camA"), before);
  const obs::Snapshot alice = service.analyst_metrics("alice");
  EXPECT_EQ(counter_at(alice, "analyst.rejected"), 1u);
  EXPECT_EQ(counter_at(alice, "analyst.submitted"), 0u);
}

TEST(ServiceAdmission, MultiSelectQueriesReserveCumulatively) {
  // Budget fits one SELECT (1.0) but not two over the same frames; the
  // synchronous path would release the first and die on the second —
  // admission must reject the whole query up front instead.
  Privid sys = make_system(/*budget_a=*/1.5);
  auto& service =
      sys.configure_service(service_config(1, engine::CacheMode::kOff));
  std::string two_selects =
      "SPLIT camA BEGIN 0 END 100 BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING count TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT SUM(range(seen, 0, 3)) FROM t;"
      "SELECT COUNT(*) FROM t;";
  const std::string before = ledger_bytes(sys, "camA");
  EXPECT_THROW(service.submit("alice", two_selects), BudgetError);
  EXPECT_EQ(ledger_bytes(sys, "camA"), before);
  // A single-SELECT query still fits.
  service.wait(service.submit("alice", probe_query("camA")));
}

TEST(ServiceAdmission, ChargeBudgetFalseSkipsAdmission) {
  Privid sys = make_system(/*budget_a=*/0.5);  // too small for the probe
  auto& service =
      sys.configure_service(service_config(1, engine::CacheMode::kOff));
  RunOptions opts;
  opts.charge_budget = false;  // owner-side what-if replay
  QueryResult r =
      service.wait(service.submit("owner", probe_query("camA"), opts));
  EXPECT_EQ(r.releases.size(), 1u);
  EXPECT_EQ(ledger_bytes(sys, "camA"),
            ledger_bytes(make_system(0.5), "camA"));  // nothing charged
}

// ------------------------------------------------------- refund on abort

TEST(ServiceRefund, SandboxCrashRefundsReservationExactlyOnce) {
  Privid sys = make_system();
  sys.register_executable("boom", boom_exe());
  auto& service =
      sys.configure_service(service_config(4, engine::CacheMode::kOff));
  const std::string pristine = ledger_bytes(sys, "camA");

  std::string crashing =
      "SPLIT camA BEGIN 0 END 100 BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING boom TIMEOUT 1 PRODUCING 1 ROWS "
      "WITH SCHEMA (n:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t;";
  QueryTicket ticket = service.submit("alice", crashing);
  EXPECT_THROW(service.wait(ticket), SandboxBoom);
  EXPECT_EQ(service.poll(ticket), QueryState::kFailed);

  // The reservation was refunded — exactly once: the ledger is
  // byte-identical to pristine (a double refund would have thrown inside
  // the scheduler and left the query unsettled; an unrefunded one would
  // show a spent segment here).
  EXPECT_EQ(ledger_bytes(sys, "camA"), pristine);
  service.drain();  // settle accounting (wait() returns at notify)
  EXPECT_EQ(counter_at(service.analyst_metrics("alice"), "analyst.failed"),
            1u);

  // The refunded budget is genuinely usable again.
  QueryResult r = service.wait(service.submit("alice", probe_query("camA")));
  EXPECT_EQ(r.releases.size(), 1u);
}

TEST(ServiceRefund, RepeatedAbortsEachRefundOnce) {
  // Reservation settles at most once: every aborted query refunds exactly
  // its own charge, and the ledger returns to pristine after each round —
  // a double refund would throw ArgumentError inside the ledger and leave
  // the query unsettled, a missed one would leave a spent segment.
  Privid sys = make_system();
  auto& service =
      sys.configure_service(service_config(1, engine::CacheMode::kOff));
  const std::string pristine = ledger_bytes(sys, "camA");
  sys.register_executable("boom", boom_exe());
  std::string crashing =
      "SPLIT camA BEGIN 0 END 100 BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING boom TIMEOUT 1 PRODUCING 1 ROWS "
      "WITH SCHEMA (n:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t;";
  for (int i = 0; i < 2; ++i) {
    QueryTicket t = service.submit("alice", crashing);
    EXPECT_THROW(service.wait(t), SandboxBoom);
    EXPECT_EQ(ledger_bytes(sys, "camA"), pristine) << "round " << i;
  }
}

// ---------------------------------------------------------- determinism

class ServiceDeterminism : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ServiceDeterminism, SoloVsConcurrentLoadByteIdentical) {
  const std::size_t threads = GetParam();
  RunOptions reveal;
  reveal.reveal_raw = true;

  // Solo: alice's first submission on a fresh system.
  std::vector<Release> solo_releases;
  std::string solo_ledger;
  {
    Privid sys = make_system();
    auto& service =
        sys.configure_service(
            service_config(threads, engine::CacheMode::kShared));
    QueryResult r =
        service.wait(service.submit("alice", probe_query("camA"), reveal));
    solo_releases = r.releases;
    service.drain();
    solo_ledger = ledger_bytes(sys, "camA");
  }

  // Same submission amid concurrent load from three other analysts
  // hammering camB from their own threads.
  {
    Privid sys = make_system();
    auto& service =
        sys.configure_service(
            service_config(threads, engine::CacheMode::kShared));
    service.register_analyst("alice", 1.0);
    service.register_analyst("bob", 2.0);
    service.register_analyst("carol", 1.0);
    service.register_analyst("dave", 4.0);

    std::vector<std::thread> load;
    for (const std::string other : {"bob", "carol", "dave"}) {
      load.emplace_back([&service, other] {
        for (int i = 0; i < 3; ++i) {
          service.wait(service.submit(other, probe_query("camB")));
        }
      });
    }
    QueryResult r =
        service.wait(service.submit("alice", probe_query("camA"), reveal));
    for (auto& th : load) th.join();
    service.drain();

    expect_releases_identical(r.releases, solo_releases);
    // Only alice touched camA: its ledger must be byte-identical to solo.
    EXPECT_EQ(ledger_bytes(sys, "camA"), solo_ledger);
  }
}

// threads = 1 (dispatcher-inline), 4, 0 (all hardware threads): the service
// must be byte-deterministic at every pool size.
INSTANTIATE_TEST_SUITE_P(Threads, ServiceDeterminism,
                         ::testing::Values(1u, 4u, 0u));

TEST(ServiceDeterminismMore, ThreadCountDoesNotChangeReleases) {
  RunOptions reveal;
  reveal.reveal_raw = true;
  std::vector<Release> at_one;
  for (std::size_t threads : {1u, 4u, 0u}) {
    Privid sys = make_system();
    auto& service =
        sys.configure_service(
            service_config(threads, engine::CacheMode::kShared));
    QueryResult r =
        service.wait(service.submit("alice", probe_query("camA"), reveal));
    if (threads == 1) {
      at_one = r.releases;
    } else {
      expect_releases_identical(r.releases, at_one);
    }
  }
}

// ------------------------------------------------------- in-flight dedup

TEST(ServiceDedup, ConcurrentIdenticalQueriesComputeEachChunkOnce) {
  auto invocations = std::make_shared<std::atomic<int>>(0);
  Privid sys = make_system();
  sys.register_executable("tally", tallying_exe(invocations));
  auto& service =
      sys.configure_service(service_config(4, engine::CacheMode::kShared));

  std::string query =
      "SPLIT camA BEGIN 0 END 100 BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING tally TIMEOUT 1 PRODUCING 1 ROWS "
      "WITH SCHEMA (n:NUMBER=0) INTO t;"
      "SELECT SUM(range(n, 0, 7)) FROM t;";
  constexpr int kAnalysts = 4;
  constexpr int kChunks = 20;

  std::vector<QueryTicket> tickets;
  for (int i = 0; i < kAnalysts; ++i) {
    tickets.push_back(service.submit("analyst" + std::to_string(i), query));
  }
  std::vector<QueryResult> results;
  for (auto& t : tickets) results.push_back(service.wait(t));

  // Cache + single-flight: each of the 20 chunks ran the sandbox exactly
  // once across all four queries — concurrent arrivals joined the leader's
  // flight, later ones hit the cache.
  EXPECT_EQ(invocations->load(), kChunks);
  for (int i = 1; i < kAnalysts; ++i) {
    ASSERT_EQ(results[i].releases.size(), results[0].releases.size());
  }
  service.drain();  // settle scheduler counters before asserting on them
  const obs::Snapshot stats = service.metrics();
  EXPECT_EQ(counter_at(stats, "sched.tasks_run"),
            static_cast<std::uint64_t>(kAnalysts) * kChunks);
  EXPECT_EQ(counter_at(stats, "dedup.fallbacks"), 0u);
}

TEST(ServiceDedup, CacheOffStillDedupsOnlyConcurrentWork) {
  auto invocations = std::make_shared<std::atomic<int>>(0);
  Privid sys = make_system();
  sys.register_executable("tally", tallying_exe(invocations));
  auto& service =
      sys.configure_service(service_config(2, engine::CacheMode::kOff));
  std::string query =
      "SPLIT camA BEGIN 0 END 50 BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING tally TIMEOUT 1 PRODUCING 1 ROWS "
      "WITH SCHEMA (n:NUMBER=0) INTO t;"
      "SELECT SUM(range(n, 0, 7)) FROM t;";
  // Sequential submissions with the cache off recompute every chunk.
  service.wait(service.submit("alice", query));
  service.wait(service.submit("alice", query));
  EXPECT_EQ(invocations->load(), 20);  // 2 x 10 chunks
}

// ------------------------------------------------ concurrent exhaustion

TEST(ServiceBudgetRace, TwoAnalystsRacingForLastEpsilonSerialize) {
  // camA's whole budget fits exactly one probe (charge 1.0). Two analysts
  // submit concurrently: exactly one must be admitted, the other rejected,
  // and the ledger must never over-spend. Run several rounds; the TSan leg
  // replays this suite for data-race coverage.
  for (int round = 0; round < 5; ++round) {
    Privid sys = make_system(/*budget_a=*/1.0);
    auto& service =
        sys.configure_service(service_config(2, engine::CacheMode::kOff));
    std::atomic<int> admitted{0};
    std::atomic<int> rejected{0};
    std::vector<std::thread> analysts;
    for (const std::string who : {"alice", "bob"}) {
      analysts.emplace_back([&, who] {
        try {
          service.wait(service.submit(who, probe_query("camA")));
          ++admitted;
        } catch (const BudgetError&) {
          ++rejected;
        }
      });
    }
    for (auto& th : analysts) th.join();
    EXPECT_EQ(admitted.load(), 1) << "round " << round;
    EXPECT_EQ(rejected.load(), 1) << "round " << round;
    // The winner's charge spent the window exactly once: nothing left,
    // but never negative (over-spend would throw in IntervalMap math and
    // show here as remaining < 0).
    EXPECT_DOUBLE_EQ(sys.min_remaining_budget("camA", {0, 100}), 0.0);
  }
}

// ------------------------------------------------------ pull scheduling

TEST(ServiceScheduler, LongTaskDoesNotHoldAnotherAnalystsQuery) {
  // Alice's one task runs until released (at most 5 s). There is no
  // barrier between tasks, so Bob's 20 run on the other participant and
  // his query settles while hers is still running.
  if (ThreadPool::resolve_threads(0) < 2) {
    GTEST_SKIP() << "the facade's pool has no worker on one hardware thread";
  }
  auto released = std::make_shared<std::atomic<bool>>(false);
  Privid sys = make_system();
  sys.register_executable("hold", [released](const ChunkView&) {
    for (int i = 0; i < 500 && !released->load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ExecOutput out;
    out.rows.push_back({Value(1.0)});
    out.simulated_runtime = 0.1;
    return out;
  });
  auto& service =
      sys.configure_service(service_config(2, engine::CacheMode::kOff));
  QueryTicket alice = service.submit(
      "alice",
      "SPLIT camA BEGIN 0 END 5 BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING hold TIMEOUT 1 PRODUCING 1 ROWS "
      "WITH SCHEMA (n:NUMBER=0) INTO t;"
      "SELECT COUNT(*) FROM t;");
  QueryTicket bob = service.submit("bob", probe_query("camB"));
  EXPECT_EQ(service.wait(bob).releases.size(), 1u);
  EXPECT_NE(service.poll(alice), QueryState::kDone);
  released->store(true);
  EXPECT_EQ(service.wait(alice).releases.size(), 1u);
}

// ------------------------------------------------------------- lifecycle

TEST(ServiceQuery, TicketPollAndRepeatedWait) {
  Privid sys = make_system();
  auto& service =
      sys.configure_service(service_config(2, engine::CacheMode::kShared));
  QueryTicket ticket = service.submit("alice", probe_query("camA"));
  EXPECT_TRUE(ticket.valid());
  EXPECT_EQ(ticket.analyst(), "alice");
  QueryState st = service.poll(ticket);
  EXPECT_TRUE(st == QueryState::kQueued || st == QueryState::kRunning ||
              st == QueryState::kDone);
  QueryResult first = service.wait(ticket);
  EXPECT_EQ(service.poll(ticket), QueryState::kDone);
  QueryResult second = service.wait(ticket);  // waiting again is idempotent
  expect_releases_identical(first.releases, second.releases);
  EXPECT_THROW(service.poll(QueryTicket{}), ArgumentError);
}

TEST(ServiceQuery, PrividFacadeSubmitPollWaitAndOwnerOps) {
  Privid sys = make_system();
  auto ticket = sys.submit("alice", probe_query("camA"));
  QueryResult r = sys.wait(ticket);
  EXPECT_EQ(r.releases.size(), 1u);

  // Owner-side mutation between queries takes the service's owner lock and
  // bumps the content epoch; subsequent queries still work.
  Mask top(1280, 720, 64, 36);
  top.mask_box(Box{0, 0, 1280, 120});
  sys.register_mask("camA", "strip", engine::MaskEntry{top, {5.0, 1}});
  auto ticket2 = sys.submit("alice", probe_query("camA"));
  EXPECT_EQ(sys.wait(ticket2).releases.size(), 1u);
  EXPECT_TRUE(sys.has_service());
}

TEST(ServiceQuery, AccountingTracksSubmissionsAndCommittedEpsilon) {
  Privid sys = make_system();
  auto& service =
      sys.configure_service(service_config(1, engine::CacheMode::kShared));
  service.register_analyst("alice", 2.0);
  service.wait(service.submit("alice", probe_query("camA")));
  service.wait(service.submit("alice", probe_query("camB")));
  // wait() returns at settle; counters land in the settling participant's
  // accounting just after — drain() synchronizes with that.
  service.drain();
  const obs::Snapshot alice = service.analyst_metrics("alice");
  EXPECT_EQ(counter_at(alice, "analyst.submitted"), 2u);
  EXPECT_EQ(counter_at(alice, "analyst.completed"), 2u);
  EXPECT_EQ(counter_at(alice, "analyst.failed"), 0u);
  EXPECT_EQ(counter_at(alice, "analyst.cancelled"), 0u);
  // 1.0 ε and 20 chunk tasks per probe.
  EXPECT_DOUBLE_EQ(double_at(alice, "analyst.epsilon_committed"), 2.0);
  EXPECT_EQ(counter_at(alice, "analyst.tasks_run"), 40u);
  EXPECT_THROW(service.analyst_metrics("nobody"), LookupError);

  const obs::Snapshot svc = service.metrics();
  EXPECT_EQ(counter_at(svc, "analyst.submitted"), 2u);
  EXPECT_EQ(counter_at(svc, "analyst.completed"), 2u);
  EXPECT_EQ(counter_at(svc, "sched.tasks_run"), 40u);
  // Each outcome has one counter: no group registers a service-level copy.
  const obs::Snapshot all = obs::Registry::global().snapshot();
  for (const char* gone :
       {"service.submitted", "service.completed", "service.failed",
        "service.cancelled", "service.rejected", "sched.queries_settled",
        "sched.queries_cancelled"}) {
    for (const auto& [name, value] : all.counters) EXPECT_NE(name, gone);
  }
}

TEST(ServiceQuery, ManyAnalystsManyQueriesAllSettle) {
  Privid sys = make_system();
  auto& service =
      sys.configure_service(service_config(0, engine::CacheMode::kShared));
  service.register_analyst("heavy", 4.0);
  service.register_analyst("light", 1.0);
  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(service.submit("heavy", probe_query("camA")));
    tickets.push_back(service.submit("light", probe_query("camB")));
  }
  for (auto& t : tickets) service.wait(t);
  service.drain();
  const obs::Snapshot stats = service.metrics();
  EXPECT_EQ(counter_at(stats, "analyst.completed"), 8u);
  EXPECT_EQ(counter_at(stats, "analyst.failed"), 0u);
  EXPECT_EQ(counter_at(stats, "sched.tasks_dropped"), 0u);
  // Every task run is counted once, on the analyst it ran for.
  const std::uint64_t run_for_analysts =
      counter_at(service.analyst_metrics("heavy"), "analyst.tasks_run") +
      counter_at(service.analyst_metrics("light"), "analyst.tasks_run");
  EXPECT_EQ(run_for_analysts, counter_at(stats, "sched.tasks_run"));
}

}  // namespace
}  // namespace privid::service
