// The AoS-era per-track Kalman filter (same model as src/cv/kalman.hpp),
// kept verbatim as the oracle that cv::KalmanBank rows are byte-compared
// against, and as ScalarTracker's per-track filter. Do not "optimize"
// this file: its value is being the unchanged original.
#pragma once

#include "video/video.hpp"

namespace privid::cv {

class KalmanBox {
 public:
  // Initializes from a first detection at time t0.
  KalmanBox(const Box& b, Seconds t0, double process_noise = 8.0,
            double measurement_noise = 4.0);

  // Advances the state to time t (predict step).
  void predict(Seconds t);
  // Incorporates a measurement at time t (predicts first if needed).
  void update(const Box& b, Seconds t);

  // Current estimate as a box.
  Box state_box() const;
  double cx() const { return x_[0]; }
  double cy() const { return x_[1]; }
  double vx() const { return x_[2]; }
  double vy() const { return x_[3]; }
  Seconds last_time() const { return t_; }
  // Position uncertainty (trace of the position covariance block).
  double position_variance() const { return p_[0][0] + p_[1][1]; }

 private:
  double x_[4];      // state: cx, cy, vx, vy
  double p_[4][4];   // covariance
  double w_, h_;     // smoothed size
  Seconds t_;
  double q_, r_;     // process / measurement noise intensity
};

}  // namespace privid::cv
