// Multi-analyst service bench: 8 analysts, overlapping standing-style
// queries, cold vs warm.
//
// Wave 1 (cold): 8 analysts concurrently submit the *same* window over one
// camera. With the shared cache + single-flight dedup, the 8 queries must
// cost ~1x one query's PROCESS work — the acceptance gate is sandbox
// invocations < 1.5x the chunk count (leader computes, concurrent
// followers join the flight, later arrivals hit the cache).
// Wave 2 (warm): 8 more analysts replay the same window — every chunk is
// served from the cache, so the PROCESS delta must stay ~0.
// Wave 3 (extended): the window grows by half — the standing-query
// pattern of re-asking over a longer history. Chunk identity includes the
// chunk index (the per-chunk random tape is keyed by it), so reuse
// requires the same window anchor: the extension keeps BEGIN and computes
// only the new chunks.
//
// PRIVID_NUM_THREADS sizes the service pool; PRIVID_CACHE selects the
// cache mode (bench_all runs off and shared and records both — the dedup
// gates only bind under "shared": with the cache off, non-overlapping
// tasks legitimately recompute). Releases differ per analyst (private
// noise streams) but every analyst's *raw* aggregate must agree exactly.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "engine/privid.hpp"

using namespace privid;

namespace {

constexpr double kChunkSeconds = 30.0;
constexpr double kWindow = 3600.0;          // one hour per wave
constexpr int kChunksPerWave = 120;         // kWindow / kChunkSeconds
constexpr int kAnalysts = 8;

std::shared_ptr<sim::Scene> scene_2h() {
  VideoMeta m;
  m.camera_id = "cam";
  m.fps = 2;
  m.width = 1280;
  m.height = 720;
  m.extent = {0, 2 * kWindow};
  auto s = std::make_shared<sim::Scene>(m);
  const int entities = 400;
  for (int i = 0; i < entities; ++i) {
    sim::Entity e;
    e.id = i + 1;
    e.cls = sim::EntityClass::kPerson;
    e.appearance_feature.assign(8, 0.1);
    double t0 = 10.0 + (2 * kWindow / entities) * i;
    e.appearances.push_back(sim::Trajectory::linear(
        t0, t0 + 90, Box{0, 300, 60, 120}, Box{1200, 300, 60, 120}));
    s->add_entity(e);
  }
  return s;
}

// Samples a detection pass every 0.5 s of its chunk (60 per chunk): enough
// work that the cold wave measures real PROCESS cost, counted so the
// dedup gate is exact.
engine::Executable sampling_counter(std::shared_ptr<std::atomic<long>> n) {
  return [n](const engine::ChunkView& view) {
    n->fetch_add(1, std::memory_order_relaxed);
    engine::ExecOutput out;
    cv::DetectorConfig det;
    det.base_detect_prob = 0.9;
    det.false_positives_per_frame = 0;
    double seen = 0;
    for (Seconds t = view.time().begin; t < view.time().end; t += 0.5) {
      seen += static_cast<double>(view.detect_into(det, t).size());
    }
    out.rows.push_back({Value(seen)});
    out.simulated_runtime = 0.1;
    return out;
  };
}

std::string window_query(double begin, double end) {
  return "SPLIT cam BEGIN " + std::to_string(begin) + " END " +
         std::to_string(end) + " BY TIME " + std::to_string(kChunkSeconds) +
         " STRIDE 0 INTO c;"
         "PROCESS c USING counter TIMEOUT 1 PRODUCING 1 ROWS "
         "WITH SCHEMA (n:NUMBER=0) INTO t;"
         "SELECT SUM(range(n, 0, 500)) FROM t;";
}

struct Wave {
  double wall_seconds = 0;
  long invocations = 0;  // sandbox runs this wave triggered
  double raw_sum = 0;    // any analyst's raw aggregate (all must agree)
  bool raw_agree = true;
};

Wave run_wave(service::QueryService* service, const std::string& prefix,
              double begin, double end,
              const std::shared_ptr<std::atomic<long>>& invocations) {
  engine::RunOptions opts;
  opts.reveal_raw = true;
  opts.charge_budget = false;  // owner-side replay: the bench reruns windows

  Wave wave;
  long before = invocations->load();
  auto start = std::chrono::steady_clock::now();
  std::vector<service::QueryTicket> tickets;
  tickets.reserve(kAnalysts);
  for (int i = 0; i < kAnalysts; ++i) {
    tickets.push_back(service->submit(prefix + std::to_string(i),
                                      window_query(begin, end), opts));
  }
  bool first = true;
  for (auto& t : tickets) {
    engine::QueryResult r = service->wait(t);
    double raw = r.releases.at(0).raw;
    if (first) {
      wave.raw_sum = raw;
      first = false;
    } else if (raw != wave.raw_sum) {
      wave.raw_agree = false;
    }
  }
  auto stop = std::chrono::steady_clock::now();
  wave.wall_seconds = std::chrono::duration<double>(stop - start).count();
  wave.invocations = invocations->load() - before;
  return wave;
}

}  // namespace

int main() {
  bench::print_header(
      "Service concurrency - 8 analysts, overlapping queries, cold vs warm");

  engine::RunOptions opts = bench::run_options();
  engine::CacheMode mode = engine::resolve_cache_mode(opts.cache);
  const char* mode_name = mode == engine::CacheMode::kShared ? "shared" : "off";

  auto invocations = std::make_shared<std::atomic<long>>(0);
  engine::Privid sys(123);
  auto scene = scene_2h();
  engine::CameraRegistration reg;
  reg.meta = scene->meta();
  reg.content.scene = scene;
  reg.content.seed = 31;
  reg.policy = {60.0, 2};
  reg.epsilon_budget = 1000.0;
  sys.register_camera(std::move(reg));
  sys.register_executable("counter", sampling_counter(invocations));

  service::QueryService::Config cfg;
  cfg.num_threads = opts.num_threads;
  cfg.cache = opts.cache;
  auto& service = sys.configure_service(cfg);

  Wave cold = run_wave(&service, "cold", 0, kWindow, invocations);
  bench::print_obs_summary("cold");
  Wave warm = run_wave(&service, "warm", 0, kWindow, invocations);
  bench::print_obs_summary("warm");
  Wave extended = run_wave(&service, "ext", 0, 1.5 * kWindow, invocations);
  service.drain();
  bench::print_obs_summary("extended");
  bench::print_rule();

  const obs::Snapshot stats = service.metrics();
  auto count = [&](const char* name) {
    return static_cast<unsigned long long>(stats.counter_value(name));
  };
  std::printf("cache mode:       %s (threads=%zu)\n", mode_name,
              opts.num_threads);
  std::printf("analysts/wave:    %d (identical window, %d chunks)\n",
              kAnalysts, kChunksPerWave);
  std::printf("cold wave:        %.3f s, %ld sandbox runs, raw %.0f\n",
              cold.wall_seconds, cold.invocations, cold.raw_sum);
  std::printf("warm wave:        %.3f s, %ld sandbox runs, raw %.0f\n",
              warm.wall_seconds, warm.invocations, warm.raw_sum);
  std::printf("extended wave:    %.3f s, %ld sandbox runs, raw %.0f\n",
              extended.wall_seconds, extended.invocations, extended.raw_sum);
  std::printf("scheduler:        %llu tasks in %llu busy periods, "
              "%llu dropped\n",
              count("sched.tasks_run"), count("sched.rounds"),
              count("sched.tasks_dropped"));
  std::printf("dedup:            %llu leaders, %llu followers, "
              "%llu fallbacks\n",
              count("dedup.leaders"), count("dedup.followers"),
              count("dedup.fallbacks"));

  // Every analyst of every wave must compute the same raw aggregate.
  if (!cold.raw_agree || !warm.raw_agree || !extended.raw_agree ||
      warm.raw_sum != cold.raw_sum) {
    std::printf("FAIL: analysts disagree on the raw aggregate\n");
    return 1;
  }
  if (mode == engine::CacheMode::kShared) {
    // Acceptance gate: 8 identical concurrent queries must cost < 1.5x one
    // query's PROCESS work (single-flight + cache, vs 8x without).
    if (cold.invocations >= kChunksPerWave * 3 / 2) {
      std::printf("FAIL: cold wave ran %ld sandbox invocations "
                  "(>= 1.5x %d chunks): dedup is not working\n",
                  cold.invocations, kChunksPerWave);
      return 1;
    }
    // Replaying the same window must be pure cache hits.
    if (warm.invocations > kChunksPerWave / 10) {
      std::printf("FAIL: warm wave recomputed %ld chunks\n",
                  warm.invocations);
      return 1;
    }
    // The extended window computes only its ~60 new chunks, not all 180.
    if (extended.invocations >= kChunksPerWave * 3 / 4) {
      std::printf("FAIL: extended wave recomputed %ld chunks "
                  "(expected ~%d new ones)\n",
                  extended.invocations, kChunksPerWave / 2);
      return 1;
    }
  }
  return 0;
}
