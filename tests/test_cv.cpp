// Unit tests for the synthetic CV stack: detector, Kalman filter, tracker,
// persistence estimation, tuning harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "cv/batch.hpp"
#include "cv/detector.hpp"
#include "cv/kalman.hpp"
#include "cv/persistence.hpp"
#include "cv/tracker.hpp"
#include "cv/tuning.hpp"
#include "sim/scenarios.hpp"

namespace privid::cv {
namespace {

sim::Scene crossing_scene(int n_entities = 3) {
  VideoMeta m;
  m.camera_id = "t";
  m.fps = 10;
  m.extent = {0, 120};
  sim::Scene s(m);
  for (int i = 0; i < n_entities; ++i) {
    sim::Entity e;
    e.id = i + 1;
    e.cls = sim::EntityClass::kPerson;
    e.appearance_feature.assign(8, 0.0);
    e.appearance_feature[static_cast<std::size_t>(i) % 8] = 1.0;
    double y = 100.0 + 150.0 * i;
    e.appearances.push_back(sim::Trajectory::linear(
        5.0 + 10 * i, 45.0 + 10 * i, Box{0, y, 40, 80}, Box{1200, y, 40, 80}));
    s.add_entity(e);
  }
  return s;
}

// ------------------------------------------------------------ Detector

TEST(Detector, DeterministicPerFrame) {
  auto scene = crossing_scene();
  Detector d(DetectorConfig{}, 99);
  FrameArena arena_a, arena_b;
  const DetectionBatch& a = d.detect_into(scene, 20.0, 200, nullptr, arena_a);
  const DetectionBatch& b = d.detect_into(scene, 20.0, 200, nullptr, arena_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.truth_id(i), b.truth_id(i));
    EXPECT_DOUBLE_EQ(a.box(i).x, b.box(i).x);
  }
}

TEST(Detector, DetectProbabilityShape) {
  DetectorConfig cfg;
  Detector d(cfg, 1);
  // Bigger objects are easier.
  EXPECT_GT(d.detect_probability(5000, 1.0), d.detect_probability(500, 1.0));
  // Masked-out objects are undetectable.
  EXPECT_DOUBLE_EQ(d.detect_probability(5000, 0.1), 0.0);
  EXPECT_DOUBLE_EQ(d.detect_probability(0, 1.0), 0.0);
  // Clamped to [min, max].
  EXPECT_LE(d.detect_probability(1e9, 1.0), cfg.max_detect_prob);
  EXPECT_GE(d.detect_probability(700, 1.0), cfg.min_detect_prob);
}

TEST(Detector, MissesSomeFrames) {
  auto scene = crossing_scene(1);
  DetectorConfig cfg;
  cfg.base_detect_prob = 0.5;
  Detector d(cfg, 7);
  FrameArena arena;
  int detected = 0, frames = 0;
  for (double t = 6; t < 44; t += 0.1) {
    ++frames;
    const DetectionBatch& dets =
        d.detect_into(scene, t, scene.meta().frame_at(t), nullptr, arena);
    for (std::size_t i = 0; i < dets.size(); ++i) {
      if (dets.truth_id(i) == 1) {
        ++detected;
        break;
      }
    }
  }
  // Some but not all frames hit.
  EXPECT_GT(detected, frames / 5);
  EXPECT_LT(detected, frames);
}

TEST(Detector, MaskSuppressesDetections) {
  auto scene = crossing_scene(1);
  Detector d(DetectorConfig{}, 7);
  Mask mask(1280, 720, 64, 36);
  mask.mask_box(Box{0, 0, 1280, 720});  // everything
  FrameArena arena;
  for (double t = 6; t < 44; t += 1.0) {
    const DetectionBatch& dets =
        d.detect_into(scene, t, scene.meta().frame_at(t), &mask, arena);
    for (std::size_t i = 0; i < dets.size(); ++i) {
      EXPECT_EQ(dets.truth_id(i), -1);
    }
  }
}

TEST(Detector, CarriesAttributes) {
  VideoMeta m;
  m.fps = 10;
  m.extent = {0, 100};
  sim::Scene s(m);
  sim::Entity car;
  car.id = 5;
  car.cls = sim::EntityClass::kCar;
  car.plate = "ABC-123";
  car.color = "RED";
  car.appearance_feature.assign(8, 0.5);
  car.appearances.push_back(sim::Trajectory::stationary(0, 100, Box{100, 100, 80, 50}));
  s.add_entity(car);
  DetectorConfig cfg;
  cfg.base_detect_prob = 0.98;
  Detector d(cfg, 3);
  FrameArena arena;
  bool saw = false;
  for (double t = 1; t < 50 && !saw; t += 1) {
    const DetectionBatch& dets =
        d.detect_into(s, t, s.meta().frame_at(t), nullptr, arena);
    for (std::size_t i = 0; i < dets.size(); ++i) {
      if (dets.truth_id(i) == 5) {
        EXPECT_EQ(dets.symbol_or_empty(dets.plate_codes()[i]), "ABC-123");
        EXPECT_EQ(dets.symbol_or_empty(dets.color_codes()[i]), "RED");
        saw = true;
      }
    }
  }
  EXPECT_TRUE(saw);
}

TEST(Detector, Validation) {
  EXPECT_THROW(Detector(DetectorConfig{.base_detect_prob = 1.5}, 1),
               ArgumentError);
  DetectorConfig bad;
  bad.size_ref_area = 0;
  EXPECT_THROW(Detector(bad, 1), ArgumentError);
}

TEST(Detector, NmsSuppressesOverlappingObjects) {
  // Two entities fully overlapping: only one detection survives NMS.
  VideoMeta m;
  m.fps = 10;
  m.extent = {0, 100};
  sim::Scene s(m);
  for (int i = 0; i < 2; ++i) {
    sim::Entity e;
    e.id = i + 1;
    e.appearance_feature.assign(8, 0.1 * (i + 1));
    e.appearances.push_back(
        sim::Trajectory::stationary(0, 100, Box{500, 300, 50, 90}));
    s.add_entity(e);
  }
  DetectorConfig cfg;
  cfg.base_detect_prob = 0.98;
  cfg.false_positives_per_frame = 0;
  cfg.box_jitter_px = 0.5;
  Detector d(cfg, 5);
  FrameArena arena;
  int doubles = 0, frames = 0;
  for (double t = 1; t < 50; t += 1) {
    const DetectionBatch& dets =
        d.detect_into(s, t, s.meta().frame_at(t), nullptr, arena);
    ++frames;
    if (dets.size() > 1) ++doubles;
  }
  EXPECT_LT(doubles, frames / 10);  // overlap almost always suppressed
}

TEST(Detector, NmsDisabledKeepsBoth) {
  VideoMeta m;
  m.fps = 10;
  m.extent = {0, 100};
  sim::Scene s(m);
  for (int i = 0; i < 2; ++i) {
    sim::Entity e;
    e.id = i + 1;
    e.appearance_feature.assign(8, 0.1);
    e.appearances.push_back(
        sim::Trajectory::stationary(0, 100, Box{500, 300, 50, 90}));
    s.add_entity(e);
  }
  DetectorConfig cfg;
  cfg.base_detect_prob = 0.98;
  cfg.false_positives_per_frame = 0;
  cfg.nms_iou = 2.0;  // disabled
  Detector d(cfg, 5);
  FrameArena arena;
  bool saw_both = false;
  for (double t = 1; t < 50 && !saw_both; t += 1) {
    saw_both =
        d.detect_into(s, t, s.meta().frame_at(t), nullptr, arena).size() == 2;
  }
  EXPECT_TRUE(saw_both);
}

TEST(Tracker, FastSmallObjectStaysOneTrack) {
  // Regression: at 10 fps a fast object moves more than its own width per
  // frame; the centre-distance gate must keep it a single track despite
  // detector misses.
  VideoMeta m;
  m.fps = 10;
  m.extent = {0, 60};
  sim::Scene s(m);
  sim::Entity e;
  e.id = 1;
  e.appearance_feature.assign(8, 0.5);
  // 1280 px in 10 s = 128 px/s with a 20 px wide box.
  e.appearances.push_back(sim::Trajectory::linear(
      5, 15, Box{0, 300, 20, 45}, Box{1260, 300, 20, 45}));
  s.add_entity(e);
  DetectorConfig cfg;
  cfg.base_detect_prob = 0.55;  // misses ~half the frames
  cfg.false_positives_per_frame = 0;
  Detector det(cfg, 9);
  FrameArena arena;
  Tracker tr(TrackerConfig::sort(20, 2, 0.1));
  for (double t = 0; t < 20; t += 0.1) {
    tr.step(t, det.detect_into(s, t, s.meta().frame_at(t), nullptr, arena));
  }
  EXPECT_LE(tr.take_tracks().size(), 2u);
}

// -------------------------------------------------------------- Kalman

// Each test drives row 0 of a one-row bank.

TEST(Kalman, ConvergesToConstantVelocity) {
  Box b0{100, 100, 20, 20};
  KalmanBank kf;
  const std::size_t row = kf.add(b0, 0.0);
  // Feed measurements moving +10 px/s in x.
  for (int i = 1; i <= 30; ++i) {
    double t = i * 0.1;
    kf.update(row, Box{100 + 10 * t, 100, 20, 20}, t);
  }
  EXPECT_NEAR(kf.vx(row), 10.0, 2.0);
  EXPECT_NEAR(kf.vy(row), 0.0, 1.0);
  // Prediction extrapolates: last measurement centre was 110 + 10*3 = 140,
  // one more second at ~10 px/s puts it near 150.
  kf.predict(row, 4.0);
  EXPECT_NEAR(kf.cx(row), 150.0, 10.0);
}

TEST(Kalman, UpdateReducesUncertainty) {
  KalmanBank kf;
  const std::size_t row = kf.add(Box{0, 0, 10, 10}, 0.0);
  double before = kf.position_variance(row);
  kf.update(row, Box{0, 0, 10, 10}, 0.1);
  EXPECT_LT(kf.position_variance(row), before);
}

TEST(Kalman, StateBoxTracksSize) {
  KalmanBank kf;
  const std::size_t row = kf.add(Box{0, 0, 10, 10}, 0.0);
  for (int i = 1; i <= 20; ++i) {
    kf.update(row, Box{0, 0, 30, 30}, i * 0.1);
  }
  EXPECT_NEAR(kf.state_box(row).w, 30.0, 2.0);
}

// ------------------------------------------------------------- Tracker

// Appends one 40x80 detection at (x, y) to a frame.
void add_det(DetectionBatch& frame, double x, double y, int truth,
             const std::vector<double>& feat = {1, 0, 0, 0}) {
  std::size_t row = frame.push(Box{x, y, 40, 80}, sim::EntityClass::kPerson,
                               1.0, truth, feat.size());
  std::copy(feat.begin(), feat.end(), frame.feature_row(row));
}

// A frame holding one detection at (x, y).
DetectionBatch det_at(double x, double y, int truth,
                      const std::vector<double>& feat = {1, 0, 0, 0}) {
  DetectionBatch frame;
  add_det(frame, x, y, truth, feat);
  return frame;
}

TEST(Tracker, SingleTrackLifecycle) {
  Tracker tr(TrackerConfig::sort(5, 2, 0.1));
  for (int i = 0; i < 20; ++i) {
    tr.step(i * 0.1, det_at(100 + i * 2.0, 100, 1));
  }
  auto tracks = tr.take_tracks();
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].dominant_truth, 1);
  EXPECT_NEAR(tracks[0].duration(), 1.9, 1e-9);
  EXPECT_EQ(tracks[0].hits, 20);
}

TEST(Tracker, UnconfirmedShortTracksDropped) {
  Tracker tr(TrackerConfig::sort(5, 5, 0.1));
  tr.step(0.0, det_at(100, 100, 1));
  tr.step(0.1, det_at(102, 100, 1));
  // Only 2 hits < n_init 5: not confirmed.
  EXPECT_TRUE(tr.take_tracks().empty());
}

TEST(Tracker, SurvivesMissedFrames) {
  Tracker tr(TrackerConfig::sort(10, 2, 0.1));
  for (int i = 0; i < 30; ++i) {
    if (i % 3 == 2) {
      tr.step(i * 0.1, DetectionBatch{});  // missed detection
    } else {
      tr.step(i * 0.1, det_at(100 + i * 2.0, 100, 1));
    }
  }
  auto tracks = tr.take_tracks();
  ASSERT_EQ(tracks.size(), 1u);  // one stitched track despite misses
}

TEST(Tracker, FragmentsWhenMaxAgeSmall) {
  Tracker tr(TrackerConfig::sort(1, 1, 0.1));
  for (int i = 0; i < 40; ++i) {
    if (i % 8 > 3) {
      tr.step(i * 0.1, DetectionBatch{});  // 4-frame gaps exceed max_age 1
    } else {
      tr.step(i * 0.1, det_at(100 + i * 2.0, 100, 1));
    }
  }
  EXPECT_GT(tr.take_tracks().size(), 1u);
}

TEST(Tracker, SeparatesDistantObjects) {
  Tracker tr(TrackerConfig::sort(5, 2, 0.1));
  for (int i = 0; i < 20; ++i) {
    DetectionBatch frame = det_at(100 + i * 2.0, 100, 1);
    add_det(frame, 100 + i * 2.0, 500, 2);
    tr.step(i * 0.1, frame);
  }
  auto tracks = tr.take_tracks();
  ASSERT_EQ(tracks.size(), 2u);
  std::set<sim::EntityId> ids{tracks[0].dominant_truth,
                              tracks[1].dominant_truth};
  EXPECT_TRUE(ids.count(1));
  EXPECT_TRUE(ids.count(2));
}

TEST(Tracker, AppearanceGateBlocksMismatchedFeatures) {
  // DeepSORT-style: two objects crossing paths with distinct appearance
  // features stay distinct tracks when the cosine gate is tight.
  TrackerConfig cfg = TrackerConfig::deepsort(0.2, 0.05, 10, 1);
  Tracker tr(cfg);
  std::vector<double> fa{1, 0, 0, 0}, fb{0, 1, 0, 0};
  for (int i = 0; i < 20; ++i) {
    DetectionBatch frame = det_at(100 + i * 10.0, 100, 1, fa);
    add_det(frame, 300 - i * 10.0, 100, 2, fb);
    tr.step(i * 0.1, frame);
  }
  auto tracks = tr.take_tracks();
  std::size_t switches = 0;
  for (const auto& rec : tracks) {
    if (rec.dominant_truth < 0) ++switches;
  }
  EXPECT_GE(tracks.size(), 2u);
}

TEST(Tracker, RejectsOutOfOrderFrames) {
  Tracker tr(TrackerConfig{});
  tr.step(1.0, DetectionBatch{});
  EXPECT_THROW(tr.step(0.5, DetectionBatch{}), ArgumentError);
  EXPECT_THROW(tr.step(1.0, DetectionBatch{}), ArgumentError);
  EXPECT_THROW(Tracker(TrackerConfig::sort(0, 1, 0.1)), ArgumentError);
}

// --------------------------------------------------------- Persistence

TEST(Persistence, GroundTruthDurations) {
  auto scene = crossing_scene(3);
  auto gt = ground_truth_durations(scene, {0, 120});
  EXPECT_EQ(gt.entity_count, 3u);
  EXPECT_EQ(gt.durations.size(), 3u);
  EXPECT_NEAR(gt.max_duration, 40.0, 0.5);
  // Clipped window shortens durations.
  auto clipped = ground_truth_durations(scene, {0, 25});
  EXPECT_NEAR(clipped.max_duration, 20.0, 0.5);
}

TEST(Persistence, EstimateConservativelyBoundsGT) {
  // The Table 1 claim: detector+tracker estimates the max duration at or
  // above the truth (tracker padding via max_age), despite missed frames.
  auto scenario = sim::make_campus(11, 0.5, 0.6);
  TimeInterval win{6 * 3600.0, 6 * 3600.0 + 600};
  auto gt = ground_truth_durations(scenario.scene, win);
  DetectorConfig det;
  det.base_detect_prob = 0.7;
  auto est = estimate_persistence(scenario.scene, win, det,
                                  TrackerConfig::sort(40, 2, 0.1), 5, nullptr,
                                  5.0);
  ASSERT_GT(est.track_durations.size(), 0u);
  EXPECT_GT(est.max_duration, 0.6 * gt.max_duration);
  EXPECT_GT(est.frame_miss_rate, 0.0);
  EXPECT_LT(est.frame_miss_rate, 1.0);
}

TEST(Persistence, PolicySuggestion) {
  PersistenceEstimate est;
  est.max_duration = 50;
  auto p = suggest_policy(est, 1.2, 2);
  EXPECT_DOUBLE_EQ(p.rho, 60.0);
  EXPECT_EQ(p.k, 2);
  EXPECT_THROW(suggest_policy(est, 0.5), ArgumentError);
}

// ------------------------------------------------------------- Tuning

TEST(Tuning, SortGridRanksBySimilarity) {
  auto scene = crossing_scene(4);
  SortGrid grid;
  grid.max_age = {5, 40};
  grid.n_init = {2};
  grid.iou_gate = {0.1, 0.3};
  auto results = tune_sort(scene, {0, 120}, DetectorConfig{}, grid, 3, 5.0);
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_LE(results[i - 1].distance, results[i].distance);
  }
  EXPECT_FALSE(results[0].label.empty());
}

TEST(Tuning, DeepsortGridRuns) {
  auto scene = crossing_scene(3);
  DeepSortGrid grid;
  grid.cos = {0.5};
  grid.iou = {0.1};
  grid.age = {20};
  grid.n_init = {2, 3};
  auto results =
      tune_deepsort(scene, {0, 120}, DetectorConfig{}, grid, 3, 5.0);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_GE(results[0].max_duration, 0.0);
}

}  // namespace
}  // namespace privid::cv
