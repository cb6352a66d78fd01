// Query-service demo: admission control, weighted fair-share, and
// in-flight dedup from one binary.
//
// Three scenes:
//   1. Admission — a camera with a small budget admits the first analyst's
//      query, rejects the second at submit time (BudgetError, nothing
//      charged), and refunds a query that crashes mid-run.
//   2. Fair share — a heavy analyst (weight 4) and a light one (weight 1)
//      flood the service together; the scheduler's served counters show
//      the 4:1 split without either starving.
//   3. Dedup — four analysts concurrently ask the same question; the
//      sandbox-invocation counter shows the service paid for it once.
//
// Build: cmake --build build --target service_demo
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "engine/privid.hpp"

using namespace privid;

namespace {

std::shared_ptr<sim::Scene> crossing_scene(const std::string& camera_id,
                                           int people) {
  VideoMeta m;
  m.camera_id = camera_id;
  m.fps = 10;
  m.width = 1280;
  m.height = 720;
  m.extent = {0, 20.0 * people + 20};
  auto s = std::make_shared<sim::Scene>(m);
  for (int i = 0; i < people; ++i) {
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

void register_camera(engine::Privid* sys, const std::string& id,
                     double budget) {
  auto scene = crossing_scene(id, 5);
  engine::CameraRegistration reg;
  reg.meta = scene->meta();
  reg.content.scene = scene;
  reg.content.seed = 11;
  reg.policy = {10.0, 1};
  reg.epsilon_budget = budget;
  sys->register_camera(std::move(reg));
}

std::string count_query(const std::string& cam, const std::string& exe) {
  return "SPLIT " + cam +
         " BEGIN 0 END 100 BY TIME 5 STRIDE 0 INTO c;"
         "PROCESS c USING " + exe +
         " TIMEOUT 1 PRODUCING 3 ROWS "
         "WITH SCHEMA (seen:NUMBER=0) INTO t;"
         "SELECT SUM(range(seen, 0, 3)) FROM t;";
}

engine::Executable people_counter(std::shared_ptr<std::atomic<int>> tally) {
  return [tally](const engine::ChunkView& view) {
    if (tally) tally->fetch_add(1, std::memory_order_relaxed);
    engine::ExecOutput out;
    cv::DetectorConfig det;
    det.base_detect_prob = 0.98;
    det.false_positives_per_frame = 0;
    double mid = view.time().begin + view.time().duration() / 2;
    out.rows.push_back(
        {Value(static_cast<double>(view.detect_into(det, mid).size()))});
    out.simulated_runtime = 0.1;
    return out;
  };
}

struct DemoBoom {};

void admission_scene() {
  std::printf("\n--- 1. admission control ---\n");
  engine::Privid sys(2024);
  // The probe query costs epsilon 1.0; budget 1.5 fits one, not two.
  register_camera(&sys, "gate", 1.5);
  sys.register_executable("count", people_counter(nullptr));
  sys.register_executable("crash",
                          [](const engine::ChunkView&) -> engine::ExecOutput {
                            throw DemoBoom{};
                          });
  auto& service = sys.service();

  auto first = service.submit("alice", count_query("gate", "count"));
  auto result = service.wait(first);
  std::printf("alice admitted: released %.2f (epsilon %.1f)\n",
              result.releases[0].value, result.releases[0].epsilon);
  try {
    service.submit("bob", count_query("gate", "count"));
    std::printf("bob admitted (unexpected!)\n");
  } catch (const BudgetError& e) {
    std::printf("bob rejected at submit: %s\n", e.what());
  }
  std::printf("remaining budget mid-window: %.2f\n",
              sys.min_remaining_budget("gate", {0, 100}));

  // A crashing query refunds its reservation. Carol's CONSUMING 0.5 fits
  // the remaining budget, so she is admitted — then the sandbox crash
  // aborts the query and the 0.5 comes back.
  std::string crashing =
      "SPLIT gate BEGIN 0 END 100 BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING crash TIMEOUT 1 PRODUCING 3 ROWS "
      "WITH SCHEMA (seen:NUMBER=0) INTO t;"
      "SELECT SUM(range(seen, 0, 3)) FROM t CONSUMING 0.5;";
  try {
    service.wait(service.submit("carol", crashing));
    std::printf("carol's query completed (unexpected!)\n");
  } catch (const BudgetError&) {
    std::printf("carol rejected at submit (unexpected!)\n");
  } catch (...) {
    std::printf("carol's query crashed mid-run; reservation refunded\n");
  }
  std::printf("remaining budget after refund: %.2f\n",
              sys.min_remaining_budget("gate", {0, 100}));
}

void fair_share_scene() {
  std::printf("\n--- 2. weighted fair share ---\n");
  engine::Privid sys(2024);
  register_camera(&sys, "plaza", 1000.0);
  sys.register_executable("count", people_counter(nullptr));
  service::QueryService::Config cfg;
  cfg.num_threads = 2;
  auto& service = sys.configure_service(cfg);
  constexpr double kHeavy = 4.0;
  constexpr double kLight = 1.0;
  service.register_analyst("heavy", kHeavy);
  service.register_analyst("light", kLight);

  std::vector<service::QueryTicket> tickets;
  for (int i = 0; i < 5; ++i) {
    tickets.push_back(service.submit("heavy", count_query("plaza", "count")));
    tickets.push_back(service.submit("light", count_query("plaza", "count")));
  }
  for (auto& t : tickets) service.wait(t);
  service.drain();
  auto report = [&](const char* id, double weight) {
    const obs::Snapshot m = service.analyst_metrics(id);
    std::printf("%s (weight %.0f): %llu tasks run, %llu queries done\n", id,
                weight,
                static_cast<unsigned long long>(
                    m.counter_value("analyst.tasks_run")),
                static_cast<unsigned long long>(
                    m.counter_value("analyst.completed")));
  };
  report("heavy", kHeavy);
  report("light", kLight);
  std::printf("(while both queues were backed up, tasks were interleaved "
              "~%.0f:1)\n", kHeavy / kLight);
}

void dedup_scene() {
  std::printf("\n--- 3. in-flight dedup ---\n");
  engine::Privid sys(2024);
  register_camera(&sys, "mall", 1000.0);
  auto tally = std::make_shared<std::atomic<int>>(0);
  sys.register_executable("count", people_counter(tally));
  service::QueryService::Config cfg;
  cfg.num_threads = 4;
  cfg.cache = engine::CacheMode::kShared;
  auto& service = sys.configure_service(cfg);

  std::vector<service::QueryTicket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(service.submit("analyst" + std::to_string(i),
                                     count_query("mall", "count")));
  }
  for (auto& t : tickets) service.wait(t);
  service.drain();
  const obs::Snapshot stats = service.metrics();
  std::printf("4 identical queries x 20 chunks -> %d sandbox runs\n",
              tally->load());
  std::printf("scheduler ran %llu tasks; dedup: %llu leaders, "
              "%llu followers; cache hits this service: %llu\n",
              static_cast<unsigned long long>(
                  stats.counter_value("sched.tasks_run")),
              static_cast<unsigned long long>(
                  stats.counter_value("dedup.leaders")),
              static_cast<unsigned long long>(
                  stats.counter_value("dedup.followers")),
              static_cast<unsigned long long>(sys.cache_stats().hits));
}

}  // namespace

int main() {
  std::printf("Privid query service demo: one owner, many analysts, one "
              "privacy budget\n");
  admission_scene();
  fair_share_scene();
  dedup_scene();
  std::printf("\ndone\n");
  return 0;
}
