// Standing-query chunk-cache bench: a year of daily standing periods, cold
// then warm.
//
// A camera records for a year; a standing COUNT query releases one value
// per day (365 periods x 24 hourly chunks = 8760 PROCESS invocations).
// The cold pass runs the full year from scratch. The warm pass replays the
// same year through a second StandingQuery on the same system — the
// re-deployment / second-analyst scenario — and, with the chunk cache on,
// serves every chunk from memory.
//
// PRIVID_CACHE selects the mode (bench_all runs this bench at "off" and
// "shared" and records both, so bench_compare.py gates regressions in the
// hit path like any other bench). With the cache on, the warm pass must be
// at least 5x faster than cold and its raw aggregates must match the cold
// pass exactly — either failure exits non-zero and fails bench_all.
//
// Shared mode adds a restart-warm leg: the first system's cache is flushed
// to a disk tier, the system is destroyed, and a brand-new system pointed
// at the same directory replays the year. Before the disk tier existed a
// restart re-paid the full ~130x cold cost; now the replay must land
// within 2x of the in-memory warm pass (gated in-binary) and its raw
// aggregates must match the cold run exactly.
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "bench_util.hpp"
#include "engine/privid.hpp"
#include "engine/standing.hpp"

using namespace privid;

namespace {

constexpr double kDay = 86400.0;
constexpr int kDays = 365;

// A year-long scene with ~2 crossings per day. Low fps keeps frame indices
// and the temporal bucket index reasonable at year scale.
std::shared_ptr<sim::Scene> year_scene() {
  VideoMeta m;
  m.camera_id = "longcam";
  m.fps = 1;
  m.width = 1280;
  m.height = 720;
  m.extent = {0, kDays * kDay};
  auto s = std::make_shared<sim::Scene>(m);
  const int entities = 2 * kDays;
  for (int i = 0; i < entities; ++i) {
    sim::Entity e;
    e.id = i + 1;
    e.cls = sim::EntityClass::kPerson;
    e.appearance_feature.assign(8, 0.1);
    double t0 = 40.0 + (kDays * kDay / entities) * i;
    e.appearances.push_back(sim::Trajectory::linear(
        t0, t0 + 120, Box{0, 300, 60, 120}, Box{1200, 300, 60, 120}));
    s->add_entity(e);
  }
  return s;
}

// Samples a detection pass every 30 s of its chunk (120 per hourly chunk)
// and reports the total — enough per-chunk work that the cold pass
// measures real PROCESS cost (~1 M detector passes over the year), cheap
// enough that a year stays a bench and not a soak test.
engine::Executable sampling_counter() {
  return [](const engine::ChunkView& view) {
    engine::ExecOutput out;
    cv::DetectorConfig det;
    det.base_detect_prob = 0.9;
    det.false_positives_per_frame = 0;
    double seen = 0;
    for (Seconds t = view.time().begin; t < view.time().end; t += 30.0) {
      seen += static_cast<double>(view.detect_into(det, t).size());
    }
    out.rows.push_back({Value(seen)});
    out.simulated_runtime = 0.1;
    return out;
  };
}

double run_year(engine::Privid* sys, const engine::RunOptions& opts,
                double* raw_sum, double* wall_seconds) {
  engine::StandingQuery::Spec spec;
  spec.query_template =
      "SPLIT longcam BEGIN {BEGIN} END {END} BY TIME 3600 STRIDE 0 INTO c;"
      "PROCESS c USING counter TIMEOUT 1 PRODUCING 1 ROWS "
      "WITH SCHEMA (n:NUMBER=0) INTO t;"
      "SELECT SUM(range(n, 0, 500)) FROM t;";
  spec.period = kDay;
  spec.opts = opts;
  spec.opts.reveal_raw = true;
  spec.opts.charge_budget = false;  // owner-side evaluation replay

  engine::StandingQuery standing(sys, spec);
  auto start = std::chrono::steady_clock::now();
  auto releases = standing.advance(kDays * kDay);
  auto end = std::chrono::steady_clock::now();
  *wall_seconds = std::chrono::duration<double>(end - start).count();
  *raw_sum = 0;
  for (const auto& r : releases) *raw_sum += r.raw;
  return static_cast<double>(releases.size());
}

}  // namespace

int main() {
  bench::print_header(
      "Standing-query chunk cache - one year of daily periods, cold vs warm");

  engine::RunOptions opts = bench::run_options();
  engine::CacheMode mode = engine::resolve_cache_mode(opts.cache);
  const char* mode_name = mode == engine::CacheMode::kShared ? "shared" : "off";

  auto scene = year_scene();
  auto make_sys = [&] {
    engine::Privid sys(123);
    engine::CameraRegistration reg;
    reg.meta = scene->meta();
    reg.content.scene = scene;
    reg.content.seed = 31;
    reg.policy = {60.0, 2};
    reg.epsilon_budget = 1000.0;
    sys.register_camera(std::move(reg));
    sys.register_executable("counter", sampling_counter());
    return sys;
  };

  // The restart leg's cache directory (shared mode only): the first
  // system's cold pass populates it via flush_disk, the revived system
  // replays from it.
  const auto cache_dir =
      std::filesystem::current_path() / "bench_standing_cache.dir";
  std::filesystem::remove_all(cache_dir);
  auto disk_config = [&] {
    engine::DiskTierConfig config;
    config.dir = cache_dir.string();
    // The restarted system preloads at attach — replaying the year is
    // then memory-speed lookups, not one file open per chunk. The preload
    // cost is paid once at construction and reported below.
    config.preload = true;
    return config;
  };

  engine::Privid sys = make_sys();
  if (mode == engine::CacheMode::kShared) {
    sys.chunk_cache().attach_disk_tier(disk_config());
  }

  double cold_raw = 0, warm_raw = 0, cold_s = 0, warm_s = 0;
  double cold_periods = run_year(&sys, opts, &cold_raw, &cold_s);
  bench::print_obs_summary("cold");
  double warm_periods = run_year(&sys, opts, &warm_raw, &warm_s);
  bench::print_obs_summary("warm");

  engine::CacheStats stats = sys.cache_stats();
  std::printf("cache mode:       %s (threads=%zu)\n", mode_name,
              opts.num_threads);
  std::printf("periods:          cold %.0f, warm %.0f (24 chunks each)\n",
              cold_periods, warm_periods);
  std::printf("raw sum:          cold %.0f, warm %.0f\n", cold_raw, warm_raw);
  std::printf("wall:             cold %.3f s, warm %.3f s  (speedup %.1fx)\n",
              cold_s, warm_s, cold_s / (warm_s > 0 ? warm_s : 1e-9));
  std::printf("cache:            %llu hits, %llu misses, %llu evictions, "
              "%zu entries, %.1f MiB\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.evictions),
              stats.entries, static_cast<double>(stats.bytes) / (1 << 20));

  // The warm replay must be exact — cached rows are the same rows.
  if (warm_raw != cold_raw || warm_periods != cold_periods) {
    std::printf("FAIL: warm replay diverged from cold run\n");
    return 1;
  }
  // Acceptance gate: with the shared cache, replaying history must be at
  // least 5x cheaper than computing it.
  if (mode == engine::CacheMode::kShared && warm_s * 5.0 > cold_s) {
    std::printf("FAIL: warm replay not >= 5x faster than cold "
                "(cold %.3f s, warm %.3f s)\n",
                cold_s, warm_s);
    return 1;
  }

  if (mode == engine::CacheMode::kShared) {
    // Restart-warm leg: persist the year to the disk tier, drop the whole
    // system, and replay through a fresh one on the same directory.
    auto flush_start = std::chrono::steady_clock::now();
    sys.chunk_cache().flush_disk();
    double flush_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - flush_start)
                         .count();
    stats = sys.cache_stats();
    std::printf("disk flush:       %.3f s, %zu slab files, %.1f MiB\n",
                flush_s, stats.disk_entries,
                static_cast<double>(stats.disk_bytes) / (1 << 20));
    sys = make_sys();  // the old system (and its memory tier) is gone
    auto attach_start = std::chrono::steady_clock::now();
    sys.chunk_cache().attach_disk_tier(disk_config());
    double attach_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - attach_start)
                          .count();
    std::printf("attach+preload:   %.3f s, %zu entries warmed\n", attach_s,
                sys.cache_stats().entries);

    double restart_raw = 0, restart_s = 0;
    double restart_periods = run_year(&sys, opts, &restart_raw, &restart_s);
    stats = sys.cache_stats();
    std::printf("restart-warm:     %.3f s (vs warm %.3f s, cold %.3f s), "
                "%llu disk hits, %llu corrupt drops\n",
                restart_s, warm_s, cold_s,
                static_cast<unsigned long long>(stats.disk_hits),
                static_cast<unsigned long long>(stats.corrupt_drops));
    bench::print_obs_summary("restart-warm");
    std::filesystem::remove_all(cache_dir);

    if (restart_raw != cold_raw || restart_periods != cold_periods) {
      std::printf("FAIL: restart-warm replay diverged from cold run\n");
      return 1;
    }
    // Acceptance gate: a restarted process pointed at the same cache
    // directory must not re-pay PROCESS history — within 2x of the
    // in-memory warm pass.
    if (restart_s > 2.0 * warm_s) {
      std::printf("FAIL: restart-warm not within 2x of warm "
                  "(warm %.3f s, restart %.3f s)\n",
                  warm_s, restart_s);
      return 1;
    }
  }
  return 0;
}
