#include "cv/kalman.hpp"

namespace privid::cv {

void KalmanBank::clear() {
  cx_.clear(); cy_.clear(); vx_.clear(); vy_.clear();
  pxx_.clear(); pxv_.clear(); pvvx_.clear();
  pyy_.clear(); pyv_.clear(); pvvy_.clear();
  w_.clear(); h_.clear(); t_.clear();
}

void KalmanBank::reserve(std::size_t n) {
  cx_.reserve(n); cy_.reserve(n); vx_.reserve(n); vy_.reserve(n);
  pxx_.reserve(n); pxv_.reserve(n); pvvx_.reserve(n);
  pyy_.reserve(n); pyv_.reserve(n); pvvy_.reserve(n);
  w_.reserve(n); h_.reserve(n); t_.reserve(n);
}

std::size_t KalmanBank::add(const Box& b, Seconds t0) {
  std::size_t i = cx_.size();
  cx_.push_back(b.cx());
  cy_.push_back(b.cy());
  vx_.push_back(0);
  vy_.push_back(0);
  // Same prior as KalmanBox: position variance r^2, velocity variance 100.
  pxx_.push_back(r_ * r_);
  pxv_.push_back(0);
  pvvx_.push_back(100.0);
  pyy_.push_back(r_ * r_);
  pyv_.push_back(0);
  pvvy_.push_back(100.0);
  w_.push_back(b.w);
  h_.push_back(b.h);
  t_.push_back(t0);
  return i;
}

namespace {

// One axis of KalmanBox::predict, expression-for-expression.
inline void predict_axis(double dt, double q, double& pos, double& vel,
                         double& ppp, double& ppv, double& pvv) {
  pos += dt * vel;
  double ppp0 = ppp, ppv0 = ppv, pvv0 = pvv;
  ppp = ppp0 + 2 * dt * ppv0 + dt * dt * pvv0;
  ppv = ppv0 + dt * pvv0;
  ppp += 0.25 * dt * dt * dt * dt * q;
  ppv += 0.5 * dt * dt * dt * q;
  pvv = pvv0 + dt * dt * q;
}

// One axis of KalmanBox::update, expression-for-expression.
inline void update_axis(double z, double r, double& pos, double& vel,
                        double& ppp, double& ppv, double& pvv) {
  double y = z - pos;
  double s = ppp + r * r;
  double kp = ppp / s;
  double kv = ppv / s;  // P[v][p] == P[p][v] by symmetry
  pos += kp * y;
  vel += kv * y;
  double ppp0 = ppp, ppv0 = ppv, pvv0 = pvv;
  ppp = (1 - kp) * ppp0;
  ppv = (1 - kp) * ppv0;
  pvv = pvv0 - kv * ppv0;
}

}  // namespace

void KalmanBank::predict(std::size_t i, Seconds t) {
  double dt = t - t_[i];
  if (dt <= 0) return;
  t_[i] = t;
  double q = q_ * q_;
  predict_axis(dt, q, cx_[i], vx_[i], pxx_[i], pxv_[i], pvvx_[i]);
  predict_axis(dt, q, cy_[i], vy_[i], pyy_[i], pyv_[i], pvvy_[i]);
}

void KalmanBank::predict_all(Seconds t) {
  std::size_t n = cx_.size();
  for (std::size_t i = 0; i < n; ++i) predict(i, t);
}

void KalmanBank::update(std::size_t i, const Box& b, Seconds t) {
  if (t > t_[i]) predict(i, t);
  update_axis(b.cx(), r_, cx_[i], vx_[i], pxx_[i], pxv_[i], pvvx_[i]);
  update_axis(b.cy(), r_, cy_[i], vy_[i], pyy_[i], pyv_[i], pvvy_[i]);
  constexpr double kAlpha = 0.3;
  w_[i] = (1 - kAlpha) * w_[i] + kAlpha * b.w;
  h_[i] = (1 - kAlpha) * h_[i] + kAlpha * b.h;
}

void KalmanBank::compact(const std::vector<char>& keep) {
  std::size_t out = 0;
  std::size_t n = cx_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!keep[i]) continue;
    if (out != i) {
      cx_[out] = cx_[i]; cy_[out] = cy_[i];
      vx_[out] = vx_[i]; vy_[out] = vy_[i];
      pxx_[out] = pxx_[i]; pxv_[out] = pxv_[i]; pvvx_[out] = pvvx_[i];
      pyy_[out] = pyy_[i]; pyv_[out] = pyv_[i]; pvvy_[out] = pvvy_[i];
      w_[out] = w_[i]; h_[out] = h_[i]; t_[out] = t_[i];
    }
    ++out;
  }
  cx_.resize(out); cy_.resize(out); vx_.resize(out); vy_.resize(out);
  pxx_.resize(out); pxv_.resize(out); pvvx_.resize(out);
  pyy_.resize(out); pyv_.resize(out); pvvy_.resize(out);
  w_.resize(out); h_.resize(out); t_.resize(out);
}

}  // namespace privid::cv
