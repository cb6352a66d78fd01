// Multi-object tracker: SORT / DeepSORT stand-in, batch-native.
//
// Greedy gated data association over a Kalman-predicted state, with an
// optional appearance term (cosine distance over embeddings) — weight 0
// gives SORT (IoU only; Appendix A, Table 5), weight > 0 gives the
// DeepSORT-style tracker (Table 4).
//
// The tracker consumes a `DetectionBatch` (SoA columns) and keeps its own
// state as parallel arrays: a `KalmanBank` row per track plus flat id /
// hit-count / last-box / feature columns. Each `step()` builds the IoU
// matrix as one dense kernel sweep over contiguous arrays, hoists the
// squared feature norms per row, and evaluates cosine distances lazily
// for motion-gated pairs only (cv/kernels.hpp); every kernel is bit-exact
// with the AoS-era scalar reference, which lives on as a test-only oracle
// (tests/cv_oracle/scalar_tracker.hpp), so tracks are byte-identical to
// the AoS era's. All association scratch is owned by the tracker and
// reused — in steady state (no track births or deaths) a step performs
// zero heap allocations (gated by bench_cv_plane).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cv/batch.hpp"
#include "cv/kalman.hpp"

namespace privid::cv {

struct TrackerConfig {
  int max_age = 32;        // frames a track survives without a match
  int n_init = 3;          // consecutive hits before a track is confirmed
  double iou_gate = 0.1;   // minimum IoU to allow an association
  double cos_gate = 0.5;   // maximum cosine distance to allow an association
  double appearance_weight = 0.5;  // 0 = pure SORT
  // Fallback gate: a detection whose IoU with the prediction is below
  // iou_gate may still associate if its centre lies within
  // `center_gate_diag` box diagonals of the predicted centre. Covers fast
  // objects at low frame rates, where one missed frame zeroes the IoU.
  double center_gate_diag = 1.5;

  // Factories speak the same vocabulary as the fields they set. Paper
  // crosswalk: the SORT tuning table (Appendix A, Table 5) calls `n_init`
  // "min_hits" and `iou_gate` "iou_dist" (1 - IoU threshold family);
  // the DeepSORT table (Table 4) calls `cos_gate` "max cosine distance"
  // and `max_age` "max age".
  static TrackerConfig sort(int max_age = 240, int n_init = 5,
                            double iou_gate = 0.3);
  static TrackerConfig deepsort(double cos_gate = 0.5, double iou_gate = 0.3,
                                int max_age = 64, int n_init = 3);
};

// A finished (or in-progress) track as the analyst sees it.
struct TrackRecord {
  int track_id = 0;
  Seconds first_seen = 0;
  Seconds last_seen = 0;
  int hits = 0;
  bool confirmed = false;
  sim::EntityId dominant_truth = -1;  // evaluation only
  Box last_box;
  std::vector<double> mean_feature;

  Seconds duration() const { return last_seen - first_seen; }
};

// Lightweight per-frame view of one confirmed live track, served by
// Tracker::for_each_active without materializing TrackRecord vectors.
struct ActiveTrack {
  int track_id = 0;
  Seconds first_seen = 0;
  Seconds last_seen = 0;
  int hits = 0;
  Box last_box;
};

class Tracker {
 public:
  explicit Tracker(TrackerConfig cfg);

  // Processes the detections of one frame at time t. Frames must be fed in
  // strictly increasing time order; a non-increasing t throws.
  void step(Seconds t, const DetectionBatch& detections);

  // The single consumption point for track output: every confirmed track,
  // dead ones first (in death order, with their EWMA appearance as
  // mean_feature) followed by the still-live ones in track order. Moves
  // the dead-track records out — call once, after the last frame.
  std::vector<TrackRecord> take_tracks();

  // Visits each confirmed live track (in track order) with an ActiveTrack
  // view — the per-frame read path for executables, allocation-free.
  template <typename Fn>
  void for_each_active(Fn&& fn) const {
    for (std::size_t i = 0; i < id_.size(); ++i) {
      if (!confirmed_[i]) continue;
      fn(ActiveTrack{id_[i], first_[i], last_[i], hits_[i],
                     Box{lx_[i], ly_[i], lw_[i], lh_[i]}});
    }
  }

  std::size_t live_track_count() const { return id_.size(); }
  const TrackerConfig& config() const { return cfg_; }

 private:
  using Votes = std::vector<std::pair<sim::EntityId, int>>;

  static void vote_truth(Votes& votes, sim::EntityId id);
  static sim::EntityId dominant_truth(const Votes& votes);

  double* track_feature_row(std::size_t i) {
    return tfeat_.data() + i * tstride_;
  }
  const double* track_feature_row(std::size_t i) const {
    return tfeat_.data() + i * tstride_;
  }
  void grow_track_stride(std::size_t stride);
  void adopt_feature(std::size_t ti, const DetectionBatch& dets,
                     std::size_t di);
  void spawn(const DetectionBatch& dets, std::size_t di, Seconds t);
  void finalize_dead(std::size_t ti);

  TrackerConfig cfg_;

  // Per-track state, one row per live track (parallel arrays).
  KalmanBank bank_;
  std::vector<int> id_;
  std::vector<int> misses_, chits_, hits_;
  std::vector<Seconds> first_, last_;
  std::vector<char> confirmed_;
  std::vector<double> lx_, ly_, lw_, lh_;  // last matched box
  std::vector<Votes> votes_;
  // EWMA appearance features, flat matrix like DetectionBatch's.
  std::vector<double> tfeat_;
  std::vector<std::uint32_t> tfeat_len_;
  std::size_t tstride_ = 0;

  std::vector<TrackRecord> finished_;
  int next_id_ = 1;
  Seconds last_t_ = 0;
  bool started_ = false;

  // Association scratch, reused across frames (capacity is sticky).
  struct Cand {
    double cost;
    std::uint32_t track, det;
  };
  std::vector<double> px_, py_, pw_, ph_;  // predicted boxes
  std::vector<double> dcx_, dcy_;          // detection centres
  std::vector<double> iou_buf_;
  std::vector<double> tnorm_, dnorm_;      // squared feature norms
  std::vector<Cand> cands_;
  std::vector<char> track_used_, det_used_, keep_;
};

}  // namespace privid::cv
