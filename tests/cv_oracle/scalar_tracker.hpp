// ScalarTracker: the AoS-era tracker, retained verbatim as the scalar
// reference for the batch CV plane.
//
// This is the pre-DetectionBatch `Tracker` implementation — one KalmanBox
// object per track, `std::vector<Detection>` in, per-pair cosine distances
// recomputed from scratch — kept out of the library, in this test-only
// target, so that (a) the equivalence suite in tests/test_cv_batch.cpp
// can byte-compare the batch tracker's output against it, and (b)
// bench_cv_plane can measure the >= 2x speedup gate against a live
// baseline instead of a number in a file. It shares TrackerConfig /
// TrackRecord with the batch tracker so both consume the same
// configuration.
//
// Do not "optimize" this file: its value is being the unchanged original.
#pragma once

#include <cstdint>
#include <vector>

#include "cv/tracker.hpp"
#include "cv_oracle/detection.hpp"
#include "cv_oracle/kalman_box.hpp"

namespace privid::cv {

class ScalarTracker {
 public:
  explicit ScalarTracker(TrackerConfig cfg);

  // Processes the detections of one frame at time t. Frames must be fed in
  // increasing time order.
  void step(Seconds t, const std::vector<Detection>& detections);

  // Tracks that have been confirmed and have since died.
  const std::vector<TrackRecord>& finished() const { return finished_; }
  // Confirmed tracks still alive; call after the last frame to collect the
  // remainder.
  std::vector<TrackRecord> active() const;
  // finished() + active(): every confirmed track.
  std::vector<TrackRecord> all_tracks() const;

  const TrackerConfig& config() const { return cfg_; }

 private:
  struct Track {
    int id;
    KalmanBox kf;
    TrackRecord rec;
    int misses = 0;
    int consecutive_hits = 0;
    std::vector<std::pair<sim::EntityId, int>> truth_votes;
    std::vector<double> feature;  // EWMA appearance
  };

  static double cosine_distance(const std::vector<double>& a,
                                const std::vector<double>& b);
  void vote_truth(Track& tr, sim::EntityId id);
  void finalize(Track& tr);

  TrackerConfig cfg_;
  std::vector<Track> tracks_;
  std::vector<TrackRecord> finished_;
  int next_id_ = 1;
  Seconds last_t_ = -1e300;
};

}  // namespace privid::cv
