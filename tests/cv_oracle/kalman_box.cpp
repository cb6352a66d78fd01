#include "cv_oracle/kalman_box.hpp"

#include <cstring>

namespace privid::cv {

KalmanBox::KalmanBox(const Box& b, Seconds t0, double process_noise,
                     double measurement_noise)
    : w_(b.w), h_(b.h), t_(t0), q_(process_noise), r_(measurement_noise) {
  x_[0] = b.cx();
  x_[1] = b.cy();
  x_[2] = 0;
  x_[3] = 0;
  std::memset(p_, 0, sizeof(p_));
  p_[0][0] = p_[1][1] = r_ * r_;
  p_[2][2] = p_[3][3] = 100.0;  // unknown initial velocity
}

void KalmanBox::predict(Seconds t) {
  double dt = t - t_;
  if (dt <= 0) return;
  t_ = t;
  // x' = F x with F = [[1,0,dt,0],[0,1,0,dt],[0,0,1,0],[0,0,0,1]].
  x_[0] += dt * x_[2];
  x_[1] += dt * x_[3];
  // P' = F P F^T + Q. With block structure per axis (indices {0,2}, {1,3}).
  for (int axis = 0; axis < 2; ++axis) {
    int p = axis;       // position index
    int v = axis + 2;   // velocity index
    double ppp = p_[p][p], ppv = p_[p][v], pvv = p_[v][v];
    p_[p][p] = ppp + 2 * dt * ppv + dt * dt * pvv;
    p_[p][v] = ppv + dt * pvv;
    p_[v][p] = p_[p][v];
    // White-noise acceleration model Q.
    double q = q_ * q_;
    p_[p][p] += 0.25 * dt * dt * dt * dt * q;
    p_[p][v] += 0.5 * dt * dt * dt * q;
    p_[v][p] = p_[p][v];
    p_[v][v] = pvv + dt * dt * q;
  }
}

void KalmanBox::update(const Box& b, Seconds t) {
  if (t > t_) predict(t);
  // H = [[1,0,0,0],[0,1,0,0]]; per-axis scalar update.
  for (int axis = 0; axis < 2; ++axis) {
    int p = axis;
    int v = axis + 2;
    double z = (axis == 0) ? b.cx() : b.cy();
    double y = z - x_[p];
    double s = p_[p][p] + r_ * r_;
    double kp = p_[p][p] / s;
    double kv = p_[v][p] / s;
    x_[p] += kp * y;
    x_[v] += kv * y;
    double ppp = p_[p][p], ppv = p_[p][v], pvv = p_[v][v];
    p_[p][p] = (1 - kp) * ppp;
    p_[p][v] = (1 - kp) * ppv;
    p_[v][p] = p_[p][v];
    p_[v][v] = pvv - kv * ppv;
  }
  // Smooth the size.
  constexpr double kAlpha = 0.3;
  w_ = (1 - kAlpha) * w_ + kAlpha * b.w;
  h_ = (1 - kAlpha) * h_ + kAlpha * b.h;
}

Box KalmanBox::state_box() const {
  return Box{x_[0] - w_ / 2, x_[1] - h_ / 2, w_, h_};
}

}  // namespace privid::cv
