// Equivalence suite for the batch/SoA CV plane.
//
// Three layers of byte-exactness checks, from kernels up to the engine:
//
//   1. CvKernels / CvKalmanBank — each dense kernel (IoU matrix, cosine
//      matrix, confidence index-sort, KalmanBank rows) byte-compared
//      against the scalar routine it replaced, over randomized inputs,
//      including runs inside a ThreadPool at {1, 4, hw} threads (the
//      kernels are called concurrently from PROCESS workers).
//   2. CvBatchTracker — the batch Detector and Tracker vs the scalar
//      oracle (tests/cv_oracle/: scalar_detect, ScalarTracker) over
//      randomized detection streams and a dense scene: every detection
//      and TrackRecord field, doubles compared bitwise.
//   3. CvGolden / CvEngineGolden — the hexfloat goldens under
//      tests/golden/cv_*.txt, captured from the AoS pipeline immediately
//      before the rewrite; the batch pipeline must reproduce them byte
//      for byte, the engine leg across threads {1,4,hw} x cache
//      {off,shared}.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "cv/batch.hpp"
#include "cv/detector.hpp"
#include "cv/kalman.hpp"
#include "cv/kernels.hpp"
#include "cv/tracker.hpp"
#include "cv_golden_util.hpp"
#include "cv_oracle/detection.hpp"
#include "cv_oracle/kalman_box.hpp"
#include "cv_oracle/scalar_detector.hpp"
#include "cv_oracle/scalar_tracker.hpp"

using namespace privid;

namespace {

// ------------------------------------------------------------ helpers

std::vector<Box> random_boxes(Rng& rng, std::size_t n) {
  std::vector<Box> boxes(n);
  for (auto& b : boxes) {
    b.x = rng.uniform(-50, 1200);
    b.y = rng.uniform(-50, 700);
    // Mix in degenerate sizes: iou() must agree on zero/negative areas.
    double roll = rng.uniform();
    b.w = roll < 0.1 ? 0.0 : rng.uniform(-5, 200);
    b.h = roll < 0.2 ? 0.0 : rng.uniform(-5, 200);
  }
  return boxes;
}

struct Soa {
  std::vector<double> x, y, w, h;
};

Soa split(const std::vector<Box>& boxes) {
  Soa s;
  for (const Box& b : boxes) {
    s.x.push_back(b.x);
    s.y.push_back(b.y);
    s.w.push_back(b.w);
    s.h.push_back(b.h);
  }
  return s;
}

// The AoS-era per-pair cosine (ScalarTracker::cosine_distance is private,
// so the reference is restated here verbatim: interleaved dot/na/nb
// accumulators, one loop).
double scalar_cosine(const std::vector<double>& a,
                     const std::vector<double>& b) {
  if (a.empty() || b.empty() || a.size() != b.size()) return 1.0;
  double dot = 0, na = 0, nb = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  double denom = std::sqrt(na * nb);
  if (denom <= 1e-12) return 1.0;
  return 1.0 - dot / denom;
}

// Feature rows in the flat fixed-stride layout DetectionBatch uses, with a
// mix of full, short and empty rows.
struct FeatureMatrix {
  std::vector<double> flat;
  std::vector<std::uint32_t> len;
  std::size_t stride = 8;

  std::vector<double> row_vec(std::size_t i) const {
    return std::vector<double>(flat.begin() + i * stride,
                               flat.begin() + i * stride + len[i]);
  }
};

FeatureMatrix random_features(Rng& rng, std::size_t n) {
  FeatureMatrix m;
  m.flat.assign(n * m.stride, 0.0);
  m.len.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double roll = rng.uniform();
    std::uint32_t len = roll < 0.1 ? 0u : roll < 0.2 ? 4u : 8u;
    m.len[i] = len;
    for (std::uint32_t k = 0; k < len; ++k) {
      // Occasional near-zero rows exercise the denom <= 1e-12 branch.
      m.flat[i * m.stride + k] =
          rng.uniform() < 0.05 ? 1e-8 * rng.normal() : rng.normal();
    }
  }
  return m;
}

// ------------------------------------------------------------ kernels

TEST(CvKernels, IouMatrixMatchesScalarPairwise) {
  Rng rng(101);
  for (int round = 0; round < 20; ++round) {
    std::size_t na = static_cast<std::size_t>(rng.uniform_int(0, 40));
    std::size_t nb = static_cast<std::size_t>(rng.uniform_int(0, 40));
    auto a = random_boxes(rng, na);
    auto b = random_boxes(rng, nb);
    Soa sa = split(a), sb = split(b);
    std::vector<double> out(na * nb, -1.0);
    cv::iou_matrix(sa.x.data(), sa.y.data(), sa.w.data(), sa.h.data(), na,
                   sb.x.data(), sb.y.data(), sb.w.data(), sb.h.data(), nb,
                   out.data());
    for (std::size_t i = 0; i < na; ++i) {
      for (std::size_t j = 0; j < nb; ++j) {
        EXPECT_EQ(out[i * nb + j], iou(a[i], b[j]))
            << "round " << round << " pair (" << i << "," << j << ")";
      }
    }
  }
}

TEST(CvKernels, SquaredNormMatchesIndexOrderAccumulation) {
  Rng rng(102);
  std::vector<double> v(37);
  for (auto& x : v) x = rng.normal(0, 3);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                        v.size()}) {
    double ref = 0;
    for (std::size_t i = 0; i < n; ++i) ref += v[i] * v[i];
    EXPECT_EQ(cv::squared_norm(v.data(), n), ref);
  }
}

TEST(CvKernels, CosineMatrixMatchesScalarCosine) {
  Rng rng(103);
  for (int round = 0; round < 20; ++round) {
    std::size_t na = static_cast<std::size_t>(rng.uniform_int(0, 24));
    std::size_t nb = static_cast<std::size_t>(rng.uniform_int(0, 24));
    FeatureMatrix a = random_features(rng, na);
    FeatureMatrix b = random_features(rng, nb);
    std::vector<double> anorm(na), bnorm(nb);
    for (std::size_t i = 0; i < na; ++i) {
      anorm[i] = cv::squared_norm(a.flat.data() + i * a.stride, a.len[i]);
    }
    for (std::size_t j = 0; j < nb; ++j) {
      bnorm[j] = cv::squared_norm(b.flat.data() + j * b.stride, b.len[j]);
    }
    std::vector<double> out(na * nb, -1.0);
    cv::cosine_matrix(a.flat.data(), a.stride, a.len.data(), anorm.data(),
                      na, b.flat.data(), b.stride, b.len.data(),
                      bnorm.data(), nb, out.data());
    for (std::size_t i = 0; i < na; ++i) {
      for (std::size_t j = 0; j < nb; ++j) {
        EXPECT_EQ(out[i * nb + j], scalar_cosine(a.row_vec(i), b.row_vec(j)))
            << "round " << round << " pair (" << i << "," << j << ")";
      }
    }
  }
}

TEST(CvKernels, SortByConfidenceMatchesElementSortIncludingTies) {
  Rng rng(104);
  for (int round = 0; round < 20; ++round) {
    std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 60));
    std::vector<double> conf(n);
    // Draw from a tiny value set so ties are common: the index sort must
    // produce the exact permutation the AoS element sort produced, ties
    // included.
    for (auto& c : conf) c = 0.25 * rng.uniform_int(0, 4);
    struct Elem {
      double conf;
      std::size_t payload;
    };
    std::vector<Elem> elems(n);
    for (std::size_t i = 0; i < n; ++i) elems[i] = {conf[i], i};
    std::sort(elems.begin(), elems.end(),
              [](const Elem& a, const Elem& b) { return a.conf > b.conf; });
    std::vector<std::uint32_t> order;
    cv::sort_by_confidence_desc(conf.data(), n, order);
    ASSERT_EQ(order.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(order[i], elems[i].payload) << "round " << round << " slot "
                                            << i;
    }
  }
}

// The kernels run concurrently from PROCESS workers; they must be pure
// functions of their inputs. Same inputs from {1, 4, hw} compute threads
// must yield byte-identical outputs on every thread.
TEST(CvKernels, ByteIdenticalAcrossThreadCounts) {
  Rng rng(105);
  constexpr std::size_t kA = 31, kB = 29;
  auto a = random_boxes(rng, kA);
  auto b = random_boxes(rng, kB);
  Soa sa = split(a), sb = split(b);
  FeatureMatrix fa = random_features(rng, kA);
  FeatureMatrix fb = random_features(rng, kB);
  std::vector<double> anorm(kA), bnorm(kB);
  for (std::size_t i = 0; i < kA; ++i) {
    anorm[i] = cv::squared_norm(fa.flat.data() + i * fa.stride, fa.len[i]);
  }
  for (std::size_t j = 0; j < kB; ++j) {
    bnorm[j] = cv::squared_norm(fb.flat.data() + j * fb.stride, fb.len[j]);
  }

  std::vector<double> ref_iou(kA * kB), ref_cos(kA * kB);
  cv::iou_matrix(sa.x.data(), sa.y.data(), sa.w.data(), sa.h.data(), kA,
                 sb.x.data(), sb.y.data(), sb.w.data(), sb.h.data(), kB,
                 ref_iou.data());
  cv::cosine_matrix(fa.flat.data(), fa.stride, fa.len.data(), anorm.data(),
                    kA, fb.flat.data(), fb.stride, fb.len.data(),
                    bnorm.data(), kB, ref_cos.data());

  for (std::size_t threads :
       {std::size_t{1}, std::size_t{4}, ThreadPool::resolve_threads(0)}) {
    ThreadPool pool(threads - 1);
    constexpr std::size_t kRuns = 16;
    std::vector<std::vector<double>> ious(kRuns), coss(kRuns);
    pool.parallel_for(kRuns, [&](std::size_t r) {
      ious[r].assign(kA * kB, 0.0);
      coss[r].assign(kA * kB, 0.0);
      cv::iou_matrix(sa.x.data(), sa.y.data(), sa.w.data(), sa.h.data(), kA,
                     sb.x.data(), sb.y.data(), sb.w.data(), sb.h.data(), kB,
                     ious[r].data());
      cv::cosine_matrix(fa.flat.data(), fa.stride, fa.len.data(),
                        anorm.data(), kA, fb.flat.data(), fb.stride,
                        fb.len.data(), bnorm.data(), kB, coss[r].data());
    });
    for (std::size_t r = 0; r < kRuns; ++r) {
      EXPECT_EQ(ious[r], ref_iou) << threads << " threads, run " << r;
      EXPECT_EQ(coss[r], ref_cos) << threads << " threads, run " << r;
    }
  }
}

// --------------------------------------------------------- KalmanBank

TEST(CvKalmanBank, RowMatchesKalmanBoxOverRandomMeasurements) {
  Rng rng(201);
  for (int round = 0; round < 10; ++round) {
    Box b0{rng.uniform(0, 1000), rng.uniform(0, 600), rng.uniform(10, 120),
           rng.uniform(10, 120)};
    double t0 = rng.uniform(0, 2);
    cv::KalmanBox box(b0, t0);
    cv::KalmanBank bank;
    std::size_t row = bank.add(b0, t0);
    double t = t0;
    for (int s = 0; s < 40; ++s) {
      t += rng.uniform(0.05, 0.6);
      if (rng.bernoulli(0.3)) {
        // Predict-only frame (a miss).
        box.predict(t);
        bank.predict(row, t);
      } else {
        Box z{rng.uniform(0, 1000), rng.uniform(0, 600),
              rng.uniform(10, 120), rng.uniform(10, 120)};
        box.update(z, t);
        bank.update(row, z, t);
      }
      EXPECT_EQ(bank.cx(row), box.cx());
      EXPECT_EQ(bank.cy(row), box.cy());
      EXPECT_EQ(bank.vx(row), box.vx());
      EXPECT_EQ(bank.vy(row), box.vy());
      EXPECT_EQ(bank.last_time(row), box.last_time());
      EXPECT_EQ(bank.position_variance(row), box.position_variance());
      Box sb = bank.state_box(row);
      Box sc = box.state_box();
      EXPECT_EQ(sb.x, sc.x);
      EXPECT_EQ(sb.y, sc.y);
      EXPECT_EQ(sb.w, sc.w);
      EXPECT_EQ(sb.h, sc.h);
    }
  }
}

TEST(CvKalmanBank, PredictAllMatchesPerRowPredict) {
  Rng rng(202);
  cv::KalmanBank all, each;
  for (int i = 0; i < 12; ++i) {
    Box b{rng.uniform(0, 1000), rng.uniform(0, 600), rng.uniform(10, 120),
          rng.uniform(10, 120)};
    double t0 = 0.1 * i;
    all.add(b, t0);
    each.add(b, t0);
  }
  double t = 1.0;
  for (int s = 0; s < 5; ++s) {
    t += 0.37;
    all.predict_all(t);
    for (std::size_t i = 0; i < each.size(); ++i) each.predict(i, t);
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(all.cx(i), each.cx(i));
      EXPECT_EQ(all.cy(i), each.cy(i));
      EXPECT_EQ(all.vx(i), each.vx(i));
      EXPECT_EQ(all.vy(i), each.vy(i));
      EXPECT_EQ(all.position_variance(i), each.position_variance(i));
    }
  }
}

TEST(CvKalmanBank, CompactKeepsRowsStably) {
  Rng rng(203);
  cv::KalmanBank bank;
  std::vector<cv::KalmanBox> boxes;
  for (int i = 0; i < 10; ++i) {
    Box b{rng.uniform(0, 1000), rng.uniform(0, 600), rng.uniform(10, 120),
          rng.uniform(10, 120)};
    bank.add(b, 0.0);
    boxes.emplace_back(b, 0.0);
  }
  bank.predict_all(1.0);
  for (auto& kb : boxes) kb.predict(1.0);
  std::vector<char> keep = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1};
  bank.compact(keep);
  ASSERT_EQ(bank.size(), 6u);
  std::size_t out = 0;
  for (std::size_t i = 0; i < keep.size(); ++i) {
    if (!keep[i]) continue;
    EXPECT_EQ(bank.cx(out), boxes[i].cx());
    EXPECT_EQ(bank.cy(out), boxes[i].cy());
    EXPECT_EQ(bank.vx(out), boxes[i].vx());
    EXPECT_EQ(bank.position_variance(out), boxes[i].position_variance());
    ++out;
  }
}

// ------------------------------------------------- tracker equivalence

std::vector<cv::Detection> random_frame(Rng& rng, double t) {
  std::vector<cv::Detection> dets;
  // A handful of persistent movers plus clutter: enough structure to
  // exercise matches, misses, births and deaths.
  for (int e = 0; e < 8; ++e) {
    if (!rng.bernoulli(0.8)) continue;
    cv::Detection d;
    double speed = 30.0 + 10.0 * e;
    d.box = Box{speed * t + 5.0 * e, 60.0 * e + rng.normal(0, 2),
                50 + rng.normal(0, 1), 80 + rng.normal(0, 1)};
    d.confidence = rng.uniform(0.5, 1.0);
    d.truth_id = e + 1;
    if (e % 3 != 0) {
      d.feature.assign(8, 0.0);
      d.feature[static_cast<std::size_t>(e) % 8] = 1.0;
      for (auto& f : d.feature) f += rng.normal(0, 0.05);
    }
    if (e % 2 == 0) {
      d.plate = "P-" + std::to_string(e);
      d.color = e % 4 ? "RED" : "BLUE";
    }
    dets.push_back(std::move(d));
  }
  for (int fp = 0; fp < 2; ++fp) {
    if (!rng.bernoulli(0.2)) continue;
    cv::Detection d;
    d.box = Box{rng.uniform(0, 1200), rng.uniform(0, 600), 40, 40};
    d.confidence = rng.uniform(0.3, 0.6);
    d.truth_id = -1;
    dets.push_back(std::move(d));
  }
  return dets;
}

void expect_records_equal(const std::vector<cv::TrackRecord>& got,
                          const std::vector<cv::TrackRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(got[i].track_id, want[i].track_id);
    EXPECT_EQ(got[i].first_seen, want[i].first_seen);
    EXPECT_EQ(got[i].last_seen, want[i].last_seen);
    EXPECT_EQ(got[i].hits, want[i].hits);
    EXPECT_EQ(got[i].confirmed, want[i].confirmed);
    EXPECT_EQ(got[i].dominant_truth, want[i].dominant_truth);
    EXPECT_EQ(got[i].last_box.x, want[i].last_box.x);
    EXPECT_EQ(got[i].last_box.y, want[i].last_box.y);
    EXPECT_EQ(got[i].last_box.w, want[i].last_box.w);
    EXPECT_EQ(got[i].last_box.h, want[i].last_box.h);
    ASSERT_EQ(got[i].mean_feature.size(), want[i].mean_feature.size());
    for (std::size_t k = 0; k < got[i].mean_feature.size(); ++k) {
      EXPECT_EQ(got[i].mean_feature[k], want[i].mean_feature[k]);
    }
  }
}

void run_equivalence(const cv::TrackerConfig& cfg, std::uint64_t seed) {
  Rng rng(seed);
  cv::Tracker batch(cfg);
  cv::ScalarTracker scalar(cfg);
  cv::DetectionBatch packed;
  for (int f = 0; f < 200; ++f) {
    double t = 0.1 * (f + 1);
    auto dets = random_frame(rng, t);
    cv::pack_detections(dets, packed);
    batch.step(t, packed);
    scalar.step(t, dets);
  }
  expect_records_equal(batch.take_tracks(), scalar.all_tracks());
}

TEST(CvBatchTracker, MatchesScalarTrackerSortConfig) {
  run_equivalence(cv::TrackerConfig::sort(20, 3, 0.1), 301);
  run_equivalence(cv::TrackerConfig::sort(5, 2, 0.3), 302);
}

TEST(CvBatchTracker, MatchesScalarTrackerDeepSortConfig) {
  run_equivalence(cv::TrackerConfig::deepsort(0.4, 0.2, 24, 2), 303);
  run_equivalence(cv::TrackerConfig::deepsort(0.7, 0.1, 8, 3), 304);
}

// One leg of the detector comparison: over 300 frames of `scene`,
// detect_into must emit exactly what the scalar oracle emits (same RNG
// tape, same NMS order, same mask handling), and the batch tracker must
// treat the result exactly as ScalarTracker does. Adds the leg's
// detection count to `total`.
void expect_detector_matches_oracle(const sim::Scene& scene,
                                    const cv::DetectorConfig& cfg,
                                    const Mask* mask, std::size_t& total) {
  constexpr std::uint64_t kSeed = 23;
  cv::Detector detector(cfg, kSeed);
  cv::Tracker from_batch(cv::TrackerConfig::deepsort());
  cv::ScalarTracker from_aos(cv::TrackerConfig::deepsort());
  cv::FrameArena arena;
  for (int f = 0; f < 300; ++f) {
    Seconds t = scene.meta().time_of(f);
    const cv::DetectionBatch& batch =
        detector.detect_into(scene, t, f, mask, arena);
    std::vector<cv::Detection> aos =
        cv::scalar_detect(cfg, kSeed, scene, t, f, mask);
    ASSERT_EQ(batch.size(), aos.size()) << "frame " << f;
    total += aos.size();
    for (std::size_t d = 0; d < aos.size(); ++d) {
      EXPECT_EQ(batch.box(d).x, aos[d].box.x);
      EXPECT_EQ(batch.box(d).y, aos[d].box.y);
      EXPECT_EQ(batch.box(d).w, aos[d].box.w);
      EXPECT_EQ(batch.box(d).h, aos[d].box.h);
      EXPECT_EQ(batch.confidence(d), aos[d].confidence);
      EXPECT_EQ(batch.truth_id(d), aos[d].truth_id);
      EXPECT_EQ(batch.symbol_or_empty(batch.plate_codes()[d]), aos[d].plate);
      EXPECT_EQ(batch.symbol_or_empty(batch.color_codes()[d]), aos[d].color);
      ASSERT_EQ(batch.feature_len(d), aos[d].feature.size());
      for (std::size_t k = 0; k < aos[d].feature.size(); ++k) {
        EXPECT_EQ(batch.feature_row(d)[k], aos[d].feature[k]);
      }
    }
    from_batch.step(t, batch);
    from_aos.step(t, aos);
  }
  expect_records_equal(from_batch.take_tracks(), from_aos.all_tracks());
}

TEST(CvBatchTracker, DetectorBatchMatchesDetectorAoS) {
  // 40 entities: dense enough that default NMS suppresses a few pairs, so
  // the NMS-disabled leg emits more than the default one.
  sim::Scene scene = testutil::dense_scene(40);
  cv::DetectorConfig defaults;
  std::size_t plain = 0, masked = 0, unsuppressed = 0;
  {
    SCOPED_TRACE("defaults, no mask");
    expect_detector_matches_oracle(scene, defaults, nullptr, plain);
  }
  {
    // Hides the upper-right quarter: objects crossing its edge are partly
    // visible, and false positives inside it are dropped.
    SCOPED_TRACE("mask");
    Mask mask(1280, 720, 64, 36);
    mask.mask_box(Box{640, 0, 640, 360});
    expect_detector_matches_oracle(scene, defaults, &mask, masked);
  }
  {
    SCOPED_TRACE("NMS disabled");
    cv::DetectorConfig no_nms;
    no_nms.nms_iou = 2.0;
    expect_detector_matches_oracle(scene, no_nms, nullptr, unsuppressed);
  }
  // Each extra leg must change what the detector emits.
  EXPECT_LT(masked, plain);
  EXPECT_GT(unsuppressed, plain);
}

// ------------------------------------------------------------- goldens

std::string golden_path(const char* name) {
  return std::string(PRIVID_GOLDEN_DIR) + "/" + name;
}

TEST(CvGolden, DenseTracksSortMatchesAoSCapture) {
  EXPECT_EQ(testutil::dump_dense_tracks(false),
            testutil::read_file(golden_path("cv_tracks_sort_v1.txt")));
}

TEST(CvGolden, DenseTracksDeepSortMatchesAoSCapture) {
  EXPECT_EQ(testutil::dump_dense_tracks(true),
            testutil::read_file(golden_path("cv_tracks_deepsort_v1.txt")));
}

TEST(CvGolden, PersistenceMatchesAoSCapture) {
  EXPECT_EQ(testutil::dump_persistence(),
            testutil::read_file(golden_path("cv_persistence_v1.txt")));
}

struct EngineGoldenConfig {
  std::size_t threads;
  engine::CacheMode cache;
};

class CvEngineGolden : public ::testing::TestWithParam<EngineGoldenConfig> {};

TEST_P(CvEngineGolden, ReleasesAndLedgerMatchAoSCapture) {
  EXPECT_EQ(
      testutil::dump_engine_releases(GetParam().threads, GetParam().cache),
      testutil::read_file(golden_path("cv_engine_v1.txt")));
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsByCache, CvEngineGolden,
    ::testing::Values(EngineGoldenConfig{1, engine::CacheMode::kOff},
                      EngineGoldenConfig{1, engine::CacheMode::kShared},
                      EngineGoldenConfig{4, engine::CacheMode::kOff},
                      EngineGoldenConfig{4, engine::CacheMode::kShared},
                      EngineGoldenConfig{0, engine::CacheMode::kOff},
                      EngineGoldenConfig{0, engine::CacheMode::kShared}),
    [](const ::testing::TestParamInfo<EngineGoldenConfig>& info) {
      std::string name =
          info.param.threads == 0
              ? "hw"
              : "t" + std::to_string(info.param.threads);
      name += info.param.cache == engine::CacheMode::kShared ? "_shared"
                                                             : "_off";
      return name;
    });

}  // namespace
