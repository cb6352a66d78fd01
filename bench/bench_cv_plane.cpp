// CV data-plane micro-bench: the batch/SoA pipeline vs the AoS scalar
// reference it replaced.
//
// The DetectionBatch rewrite turned the per-frame CV hot path — detector
// emit, NMS, IoU + cosine cost matrices, Kalman predict/update — from
// one heap-backed `Detection` struct per object and one `KalmanBox` per
// track into contiguous SoA columns consumed by dense kernels
// (cv/kernels.hpp), with a reusable FrameArena so a steady-state frame
// allocates nothing. The library ships only the batch pipeline; the
// scalar one survives as the test-only oracle this bench links
// (tests/cv_oracle/: scalar_detect + ScalarTracker). Both run here over
// the same deterministic detector tape, so the comparison is live, not a
// number in a file.
//
// In-binary gates (exit non-zero on failure):
//   - batch pipeline throughput >= 2x the scalar reference (the
//     acceptance bar for the rewrite)
//   - steady-state allocations   == 0 per frame (detector + tracker,
//     after warm-up; counted via global operator new)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "cv/detector.hpp"
#include "cv/tracker.hpp"
#include "cv_oracle/scalar_detector.hpp"
#include "cv_oracle/scalar_tracker.hpp"
#include "sim/scene.hpp"
#include "sim/trajectory.hpp"

// ----------------------------------------------------------------------
// Global allocation counter: every operator new in this binary ticks it.
static std::atomic<std::uint64_t> g_allocs{0};

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace privid {
namespace {

// A steady association-heavy scene: a dense grid of stationary entities,
// all present for the whole clip, separated so no pair overlaps (no NMS
// suppression, no identity switches). With zero false positives, every
// track is born in the first frames and never dies — so past warm-up the
// pipeline is pure per-frame work (detector emit + O(n^2) association),
// the shape the >= 2x gate targets. The grid is dense enough that the
// cost matrices dominate, like the paper's crowded-campus videos.
sim::Scene bench_scene(int cols = 24, int rows = 36) {
  VideoMeta m;
  m.camera_id = "bench";
  m.fps = 10;
  m.width = 1280;
  m.height = 1080;
  m.extent = {0, 3600};
  sim::Scene s(m);
  for (int i = 0; i < cols * rows; ++i) {
    sim::Entity e;
    e.id = i + 1;
    e.cls = sim::EntityClass::kPerson;
    e.appearance_feature.assign(8, 0.0);
    e.appearance_feature[static_cast<std::size_t>(i) % 8] = 1.0;
    e.appearance_feature[static_cast<std::size_t>(i / 8) % 8] += 0.5;
    Box at{5.0 + 53.0 * (i % cols), 2.0 + 25.5 * (i / cols), 60.0, 40.0};
    e.appearances.push_back(sim::Trajectory::linear(0, 3600, at, at));
    s.add_entity(e);
  }
  return s;
}

cv::DetectorConfig bench_detector() {
  cv::DetectorConfig det;
  det.base_detect_prob = 1.0;  // clamps to max_detect_prob
  det.false_positives_per_frame = 0;
  return det;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Measured {
  double secs = 0;
  std::uint64_t allocs = 0;
};

template <typename Fn>
Measured measure(Fn&& fn) {
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  Measured m;
  m.secs = seconds_since(t0);
  m.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
  return m;
}

}  // namespace
}  // namespace privid

int main() {
  using namespace privid;
  const int kWarmupFrames = 50;
  const int kWindowFrames = 100;  // alloc-gate measurement window
  const int kMaxWindows = 5;
  const int kBenchFrames = 300;
  const std::uint64_t kSeed = 97;

  sim::Scene scene = bench_scene();
  cv::DetectorConfig det_cfg = bench_detector();
  cv::TrackerConfig trk_cfg = cv::TrackerConfig::deepsort(0.4, 0.2, 64, 2);

  std::printf("cv data-plane micro-bench: %zu entities, %d frames\n",
              scene.entities().size(), kBenchFrames);

  // ---- 1. throughput: batch vs the retained scalar reference ----------
  // Fresh trackers, same detector tape: both pipelines see byte-identical
  // detections frame for frame, so the confirmed-track counts must agree
  // (the byte-level equivalence lives in tests/test_cv_batch.cpp; this is
  // the bench's cheap cross-check that it measured the same work).
  std::size_t scalar_tracks = 0, batch_tracks = 0;
  Measured scalar_m = measure([&] {
    cv::ScalarTracker trk(trk_cfg);
    for (int f = 0; f < kBenchFrames; ++f) {
      Seconds t = scene.meta().time_of(f);
      trk.step(t, cv::scalar_detect(det_cfg, kSeed, scene, t, f, nullptr));
    }
    scalar_tracks = trk.all_tracks().size();
  });
  Measured batch_m = measure([&] {
    cv::Detector d(det_cfg, kSeed);
    cv::Tracker trk(trk_cfg);
    cv::FrameArena a;
    for (int f = 0; f < kBenchFrames; ++f) {
      Seconds t = scene.meta().time_of(f);
      trk.step(t, d.detect_into(scene, t, f, nullptr, a));
    }
    batch_tracks = trk.take_tracks().size();
  });
  if (batch_tracks != scalar_tracks) {
    std::printf("FAIL: track counts diverged (batch %zu vs scalar %zu)\n",
                batch_tracks, scalar_tracks);
    return 1;
  }
  const double scalar_fps = kBenchFrames / scalar_m.secs;
  const double batch_fps = kBenchFrames / batch_m.secs;
  std::printf("pipeline  scalar : %10.0f frames/s  (%llu allocs)\n",
              scalar_fps, static_cast<unsigned long long>(scalar_m.allocs));
  std::printf("pipeline   batch : %10.0f frames/s  (%llu allocs)  %.2fx\n",
              batch_fps, static_cast<unsigned long long>(batch_m.allocs),
              batch_fps / scalar_fps);

  // ---- 2. steady-state allocations (batch pipeline) -------------------
  // Scratch capacities are sticky but the per-frame detection count is
  // stochastic, so a record-high frame shortly after warm-up can still
  // grow a buffer once (then geometric growth covers every later frame).
  // Steady state is reached when a full window allocates nothing; gate on
  // finding such a window, not on the warm-up tail.
  cv::Detector detector(det_cfg, kSeed);
  cv::Tracker tracker(trk_cfg);
  cv::FrameArena arena;
  int frame = 0;
  auto run_frames = [&](int n) {
    for (int k = 0; k < n; ++k, ++frame) {
      Seconds t = scene.meta().time_of(frame);
      tracker.step(t, detector.detect_into(scene, t, frame, nullptr, arena));
    }
  };
  run_frames(kWarmupFrames);
  std::uint64_t window_allocs = 0;
  bool clean_window = false;
  for (int w = 0; w < kMaxWindows && !clean_window; ++w) {
    Measured steady = measure([&] { run_frames(kWindowFrames); });
    window_allocs = steady.allocs;
    clean_window = steady.allocs == 0;
    std::printf("steady-state w%d : %llu allocs over %d frames\n", w,
                static_cast<unsigned long long>(steady.allocs),
                kWindowFrames);
  }

  // ---- gates ----------------------------------------------------------
  int failures = 0;
  if (!clean_window) {
    std::printf("FAIL: no allocation-free %d-frame window (last saw %llu)\n",
                kWindowFrames, static_cast<unsigned long long>(window_allocs));
    ++failures;
  }
  if (batch_fps < 2.0 * scalar_fps) {
    std::printf("FAIL: batch pipeline %.2fx scalar (< 2x gate)\n",
                batch_fps / scalar_fps);
    ++failures;
  }
  if (failures == 0) std::printf("all cv-plane gates passed\n");
  return failures == 0 ? 0 : 1;
}
