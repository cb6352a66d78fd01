#include "sim/porto.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "common/error.hpp"

namespace privid::sim {

// All per-(taxi, day, camera) streams key off the shared privid::seed_mix
// (common/rng.hpp) so every module derives seeds the same way.
using privid::seed_mix;

PortoSynth::PortoSynth(PortoConfig cfg) : cfg_(cfg) {
  if (cfg_.n_taxis <= 0 || cfg_.n_cameras <= 0 || cfg_.n_days <= 0) {
    throw ArgumentError("PortoConfig counts must be positive");
  }
  // Camera popularity: smooth decay with camera 20 boosted so it is the
  // busiest (Table 3's Q6 answer is porto20).
  camera_weight_.resize(static_cast<std::size_t>(cfg_.n_cameras));
  for (int c = 0; c < cfg_.n_cameras; ++c) {
    Rng r(seed_mix(cfg_.seed, 0x1000 + static_cast<std::uint64_t>(c)));
    camera_weight_[static_cast<std::size_t>(c)] =
        0.4 + r.uniform() * 1.2;
  }
  // Camera 20 is unambiguously the busiest (Table 3's Q6 ground truth);
  // the margin must dominate route-sampling variance even for small fleets.
  camera_weight_[20 % cfg_.n_cameras] = 4.0;

  // Deterministic per-camera visit-duration cap in [15, 525] s.
  camera_rho_.resize(static_cast<std::size_t>(cfg_.n_cameras));
  for (int c = 0; c < cfg_.n_cameras; ++c) {
    Rng r(seed_mix(cfg_.seed, 0x3000 + static_cast<std::uint64_t>(c)));
    camera_rho_[static_cast<std::size_t>(c)] = 15.0 + r.uniform() * 510.0;
  }

  memo_ = std::vector<std::atomic<const DayVisits*>>(
      static_cast<std::size_t>(cfg_.n_cameras) *
      static_cast<std::size_t>(cfg_.n_days));

  // Each taxi's habitual route: sampled by popularity weight.
  routes_.resize(static_cast<std::size_t>(cfg_.n_taxis));
  double total_w = 0;
  for (double w : camera_weight_) total_w += w;
  for (int t = 0; t < cfg_.n_taxis; ++t) {
    Rng r(seed_mix(cfg_.seed, 0x2000 + static_cast<std::uint64_t>(t)));
    std::set<int> route;
    int want = std::min(cfg_.route_cameras, cfg_.n_cameras);
    while (static_cast<int>(route.size()) < want) {
      double x = r.uniform(0, total_w);
      int cam = 0;
      for (; cam < cfg_.n_cameras - 1; ++cam) {
        x -= camera_weight_[static_cast<std::size_t>(cam)];
        if (x <= 0) break;
      }
      route.insert(cam);
    }
    routes_[static_cast<std::size_t>(t)].assign(route.begin(), route.end());
  }
}

PortoSynth::~PortoSynth() {
  for (auto& cell : memo_) delete cell.load(std::memory_order_acquire);
}

bool PortoSynth::taxi_visits_camera(int taxi, int camera) const {
  const auto& r = routes_.at(static_cast<std::size_t>(taxi));
  return std::binary_search(r.begin(), r.end(), camera);
}

Seconds PortoSynth::camera_rho(int camera) const {
  if (camera < 0 || camera >= cfg_.n_cameras) {
    throw ArgumentError("camera id out of range");
  }
  return camera_rho_[static_cast<std::size_t>(camera)];
}

void PortoSynth::taxi_day_visits(int taxi, int day, int camera,
                                 std::vector<TaxiVisit>* out) const {
  if (!taxi_visits_camera(taxi, camera)) return;
  std::uint64_t dc_tag = seed_mix(static_cast<std::uint64_t>(day),
                                  static_cast<std::uint64_t>(camera));
  std::uint64_t tdc_tag =
      seed_mix(0x4000 + static_cast<std::uint64_t>(taxi), dc_tag);
  Rng r(seed_mix(cfg_.seed, tdc_tag));
  // Shift model: this taxi's shift today. Drawn from the same generator for
  // every camera (keyed only on taxi/day) so cameras agree on the shift.
  std::uint64_t td_tag = seed_mix(0x5000 + static_cast<std::uint64_t>(taxi),
                                  static_cast<std::uint64_t>(day));
  Rng shift_rng(seed_mix(cfg_.seed, td_tag));
  double shift_start_h = std::clamp(shift_rng.normal(8.0, 2.0), 0.0, 18.0);
  double shift_len_h =
      std::clamp(shift_rng.normal(cfg_.mean_shift_hours, 1.5), 1.0, 16.0);
  // ~6% of days off.
  if (shift_rng.bernoulli(0.06)) return;

  Seconds day0 = static_cast<Seconds>(day) * 86400.0;
  Seconds s0 = day0 + shift_start_h * 3600.0;
  Seconds s1 = s0 + shift_len_h * 3600.0;

  const Seconds rho = camera_rho_[static_cast<std::size_t>(camera)];
  std::int64_t n = r.poisson(cfg_.visits_per_camera_day);
  for (std::int64_t i = 0; i < n; ++i) {
    TaxiVisit v;
    v.taxi_id = taxi;
    v.camera_id = camera;
    v.start = r.uniform(s0, s1);
    v.duration = std::min(rho, 10.0 + r.exponential(1.0 / 40.0));
    out->push_back(v);
  }
}

const std::vector<TaxiVisit>& PortoSynth::day_visits(int camera,
                                                     int day) const {
  const auto days = static_cast<std::size_t>(cfg_.n_days);
  std::atomic<const DayVisits*>& cell =
      memo_[static_cast<std::size_t>(camera) * days +
            static_cast<std::size_t>(day)];
  const DayVisits* published = cell.load(std::memory_order_acquire);
  if (published != nullptr) return *published;
  // Generation is deterministic, so racing threads build identical copies
  // and the first to publish wins.
  auto out = std::make_unique<DayVisits>();
  for (int taxi = 0; taxi < cfg_.n_taxis; ++taxi) {
    taxi_day_visits(taxi, day, camera, out.get());
  }
  std::sort(out->begin(), out->end(),
            [](const TaxiVisit& a, const TaxiVisit& b) {
              return a.start < b.start;
            });
  if (cell.compare_exchange_strong(published, out.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return *out.release();
  }
  return *published;  // lost the race: `out` frees this thread's copy
}

std::vector<TaxiVisit> PortoSynth::visits(int camera,
                                          TimeInterval interval) const {
  if (camera < 0 || camera >= cfg_.n_cameras) {
    throw ArgumentError("camera id out of range");
  }
  int day_lo = std::max(0, static_cast<int>(std::floor(interval.begin / 86400.0)));
  int day_hi = std::min(cfg_.n_days - 1,
                        static_cast<int>(std::floor(interval.end / 86400.0)));
  std::vector<TaxiVisit> out;
  for (int day = day_lo; day <= day_hi; ++day) {
    const auto& dv = day_visits(camera, day);
    auto lo = std::lower_bound(dv.begin(), dv.end(), interval.begin,
                               [](const TaxiVisit& v, Seconds t) {
                                 return v.start < t;
                               });
    for (auto it = lo; it != dv.end() && it->start < interval.end; ++it) {
      out.push_back(*it);
    }
  }
  return out;
}

double PortoSynth::true_avg_working_hours(int cam_a, int cam_b) const {
  TimeInterval all{0, static_cast<Seconds>(cfg_.n_days) * 86400.0};
  auto va = visits(cam_a, all);
  auto vb = visits(cam_b, all);
  // (taxi, day) -> [first, last] sighting across the two cameras.
  std::map<std::pair<int, int>, std::pair<Seconds, Seconds>> spans;
  auto fold = [&](const std::vector<TaxiVisit>& vs) {
    for (const auto& v : vs) {
      int day = static_cast<int>(v.start / 86400.0);
      auto key = std::make_pair(v.taxi_id, day);
      auto it = spans.find(key);
      if (it == spans.end()) {
        spans[key] = {v.start, v.start};
      } else {
        it->second.first = std::min(it->second.first, v.start);
        it->second.second = std::max(it->second.second, v.start);
      }
    }
  };
  fold(va);
  fold(vb);
  double total = 0;
  std::size_t n = 0;
  for (const auto& [key, span] : spans) {
    double hours = (span.second - span.first) / 3600.0;
    if (hours > 0) {
      total += hours;
      ++n;
    }
  }
  return n ? total / static_cast<double>(n) : 0.0;
}

double PortoSynth::true_avg_taxis_both(int cam_a, int cam_b) const {
  TimeInterval all{0, static_cast<Seconds>(cfg_.n_days) * 86400.0};
  auto va = visits(cam_a, all);
  auto vb = visits(cam_b, all);
  std::map<int, std::set<int>> at_a, at_b;  // day -> taxis
  for (const auto& v : va) {
    at_a[static_cast<int>(v.start / 86400.0)].insert(v.taxi_id);
  }
  for (const auto& v : vb) {
    at_b[static_cast<int>(v.start / 86400.0)].insert(v.taxi_id);
  }
  double total = 0;
  for (int day = 0; day < cfg_.n_days; ++day) {
    auto ia = at_a.find(day);
    auto ib = at_b.find(day);
    if (ia == at_a.end() || ib == at_b.end()) continue;
    std::size_t both = 0;
    for (int t : ia->second) {
      if (ib->second.count(t)) ++both;
    }
    total += static_cast<double>(both);
  }
  return total / static_cast<double>(cfg_.n_days);
}

int PortoSynth::true_busiest_camera() const {
  TimeInterval all{0, static_cast<Seconds>(cfg_.n_days) * 86400.0};
  int best = 0;
  double best_count = -1;
  for (int c = 0; c < cfg_.n_cameras; ++c) {
    double n = static_cast<double>(visits(c, all).size());
    if (n > best_count) {
      best_count = n;
      best = c;
    }
  }
  return best;
}

std::string PortoSynth::plate_of(int taxi_id) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "TX-%04d", taxi_id);
  return buf;
}

}  // namespace privid::sim
