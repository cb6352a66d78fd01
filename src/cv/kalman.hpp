// Constant-velocity Kalman filter over bounding-box centres.
//
// The motion model of SORT/DeepSORT: state [cx, cy, vx, vy], observation
// [cx, cy]. Box width/height are tracked with exponential smoothing (the
// aspect component of the full SORT state adds nothing to duration
// estimation, which is what the paper uses trackers for).
#pragma once

#include <cstddef>
#include <vector>

#include "video/video.hpp"

namespace privid::cv {

// SoA bank of constant-velocity Kalman filters, one row per track.
//
// Bit-exactness contract: every expression (predict, update, state_box,
// initial covariance) is copied verbatim from the AoS-era per-track
// `KalmanBox`, now a test-only oracle (tests/cv_oracle/kalman_box.hpp).
// The covariance is stored as the three unique per-axis terms
// {P[p][p], P[p][v], P[v][v]} that KalmanBox's symmetric 4x4 block
// updates actually read and write. The equivalence suite in
// tests/test_cv_batch.cpp byte-compares a bank row against a KalmanBox
// driven with the same measurement sequence.
class KalmanBank {
 public:
  explicit KalmanBank(double process_noise = 8.0,
                      double measurement_noise = 4.0)
      : q_(process_noise), r_(measurement_noise) {}

  std::size_t size() const { return cx_.size(); }
  void clear();
  void reserve(std::size_t n);

  // Appends a filter initialized from a first detection at t0 (same prior
  // as KalmanBox's constructor); returns its row index.
  std::size_t add(const Box& b, Seconds t0);

  // Predict step for every row (the batch tracker's per-frame sweep).
  void predict_all(Seconds t);
  // Predict step for one row.
  void predict(std::size_t i, Seconds t);
  // Measurement update for row i (predicts first if t is ahead).
  void update(std::size_t i, const Box& b, Seconds t);

  Box state_box(std::size_t i) const {
    return Box{cx_[i] - w_[i] / 2, cy_[i] - h_[i] / 2, w_[i], h_[i]};
  }
  double cx(std::size_t i) const { return cx_[i]; }
  double cy(std::size_t i) const { return cy_[i]; }
  double vx(std::size_t i) const { return vx_[i]; }
  double vy(std::size_t i) const { return vy_[i]; }
  Seconds last_time(std::size_t i) const { return t_[i]; }
  double position_variance(std::size_t i) const {
    return pxx_[i] + pyy_[i];
  }

  // Stable in-place compaction: keeps rows with keep[i] != 0 in order.
  void compact(const std::vector<char>& keep);

 private:
  double q_, r_;
  std::vector<double> cx_, cy_, vx_, vy_;
  // Per-axis covariance blocks (symmetric: only 3 unique terms each).
  std::vector<double> pxx_, pxv_, pvvx_;
  std::vector<double> pyy_, pyv_, pvvy_;
  std::vector<double> w_, h_;
  std::vector<Seconds> t_;
};

}  // namespace privid::cv
