// Porto taxi dataset synthesizer (the §8 multi-camera case study).
//
// The paper processes the public Porto taxi dataset (1.7M trajectories of
// 442 taxis, Jan 2013-Jul 2014) into "the set of timestamps each taxi would
// have been visible to each of 105 cameras". We synthesize an equivalent:
// each taxi works a daily shift (start time and length drawn per day from a
// per-taxi profile), and while on shift it passes cameras from its habitual
// route set according to a Poisson process. Visit durations are short
// (seconds to minutes) with per-camera caps, giving the per-camera ρ range
// of [15, 525] s reported in Table 3.
//
// Generation is lazy and deterministic: visits for a camera are derived
// from (seed, taxi, day) so queries over one camera never pay for the other
// 104.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/timeutil.hpp"

namespace privid::sim {

struct TaxiVisit {
  int taxi_id = 0;
  int camera_id = 0;
  Seconds start = 0;      // seconds from dataset epoch (day 0, 00:00)
  Seconds duration = 0;   // visibility duration at the camera
};

struct PortoConfig {
  int n_taxis = 442;
  int n_cameras = 105;
  int n_days = 365;
  double mean_shift_hours = 6.5;
  double visits_per_camera_day = 6.0;  // per habitual camera, while on shift
  int route_cameras = 8;               // habitual cameras per taxi
  std::uint64_t seed = 1234;
};

class PortoSynth {
 public:
  explicit PortoSynth(PortoConfig cfg);
  ~PortoSynth();

  // Concurrent tasks hold references into the visit memo.
  PortoSynth(const PortoSynth&) = delete;
  PortoSynth& operator=(const PortoSynth&) = delete;

  const PortoConfig& config() const { return cfg_; }

  // All visits to `camera` whose start lies in [interval). Sorted by start.
  // Generated deterministically; repeated calls agree.
  std::vector<TaxiVisit> visits(int camera, TimeInterval interval) const;

  // Maximum single-visit duration cap for a camera (the per-camera ρ of
  // Table 3, in [15, 525] s).
  Seconds camera_rho(int camera) const;

  // Ground truths for Q4-Q6 (computed from the raw visits, no privacy).
  // Mean per-taxi-day working span (hours) observed via the union of the
  // two cameras, over taxi-days with >= 2 sightings.
  double true_avg_working_hours(int cam_a, int cam_b) const;
  // Mean over days of the number of distinct taxis seen at both cameras on
  // the same day.
  double true_avg_taxis_both(int cam_a, int cam_b) const;
  // Camera with the highest mean daily visit count.
  int true_busiest_camera() const;

  // Plate string for a taxi id ("TX-0042"); the analyst-visible identifier.
  static std::string plate_of(int taxi_id);

 private:
  // Visits by one taxi on one day, restricted to `camera` (deterministic).
  void taxi_day_visits(int taxi, int day, int camera,
                       std::vector<TaxiVisit>* out) const;
  bool taxi_visits_camera(int taxi, int camera) const;
  // All visits to a camera on one day, sorted by start; memoized so
  // chunked queries (thousands of lookups per day) pay generation once.
  const std::vector<TaxiVisit>& day_visits(int camera, int day) const;

  PortoConfig cfg_;
  // taxi -> habitual route (sorted camera ids)
  std::vector<std::vector<int>> routes_;
  std::vector<double> camera_weight_;
  std::vector<Seconds> camera_rho_;
  // The visit memo: one cell per (camera, day), at camera * n_days + day,
  // null until that day's visits are first generated. A cell is published
  // once by compare-and-swap (a racing generator frees its identical copy)
  // and is immutable afterwards, so concurrent PROCESS tasks read it
  // without a lock and returned references live as long as the synth.
  using DayVisits = std::vector<TaxiVisit>;
  mutable std::vector<std::atomic<const DayVisits*>> memo_;
};

}  // namespace privid::sim
