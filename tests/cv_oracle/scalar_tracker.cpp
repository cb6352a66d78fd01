// The AoS-era tracker, verbatim — see scalar_tracker.hpp for why this
// exists and why it must not be modernized.
#include "cv_oracle/scalar_tracker.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace privid::cv {

ScalarTracker::ScalarTracker(TrackerConfig cfg) : cfg_(cfg) {
  if (cfg.max_age <= 0 || cfg.n_init <= 0) {
    throw ArgumentError("tracker max_age/n_init must be positive");
  }
}

double ScalarTracker::cosine_distance(const std::vector<double>& a,
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

void ScalarTracker::vote_truth(Track& tr, sim::EntityId id) {
  for (auto& [tid, n] : tr.truth_votes) {
    if (tid == id) {
      ++n;
      return;
    }
  }
  tr.truth_votes.emplace_back(id, 1);
}

void ScalarTracker::finalize(Track& tr) {
  if (!tr.rec.confirmed) return;
  int best = 0;
  for (const auto& [tid, n] : tr.truth_votes) {
    if (n > best) {
      best = n;
      tr.rec.dominant_truth = tid;
    }
  }
  tr.rec.mean_feature = tr.feature;
  finished_.push_back(tr.rec);
}

void ScalarTracker::step(Seconds t, const std::vector<Detection>& detections) {
  if (t <= last_t_) {
    throw ArgumentError("tracker frames must be fed in increasing time order");
  }
  last_t_ = t;

  // Predict all live tracks to the current time.
  for (auto& tr : tracks_) tr.kf.predict(t);

  // Build the gated cost matrix and match greedily (lowest cost first).
  struct Cand {
    double cost;
    std::size_t track, det;
  };
  std::vector<Cand> cands;
  for (std::size_t ti = 0; ti < tracks_.size(); ++ti) {
    Box pred = tracks_[ti].kf.state_box();
    double diag = std::hypot(pred.w, pred.h);
    for (std::size_t di = 0; di < detections.size(); ++di) {
      const Box& db = detections[di].box;
      double overlap = iou(pred, db);
      double dist = std::hypot(pred.cx() - db.cx(), pred.cy() - db.cy());
      bool gated_in = overlap >= cfg_.iou_gate ||
                      (cfg_.center_gate_diag > 0 && diag > 0 &&
                       dist <= cfg_.center_gate_diag * diag);
      if (!gated_in) continue;
      double cosd = cfg_.appearance_weight > 0
                        ? cosine_distance(tracks_[ti].feature,
                                          detections[di].feature)
                        : 0.0;
      if (cosd > cfg_.cos_gate) continue;
      // Motion cost: 1 - IoU when boxes overlap, else grows with the
      // normalised centre distance so overlapping matches always win.
      double motion = overlap > 0 ? 1.0 - overlap
                                  : 1.0 + (diag > 0 ? dist / diag : 1.0);
      double cost = cfg_.appearance_weight * cosd +
                    (1.0 - cfg_.appearance_weight) * motion;
      cands.push_back({cost, ti, di});
    }
  }
  std::sort(cands.begin(), cands.end(),
            [](const Cand& a, const Cand& b) { return a.cost < b.cost; });

  std::vector<char> track_used(tracks_.size(), 0);
  std::vector<char> det_used(detections.size(), 0);
  for (const auto& c : cands) {
    if (track_used[c.track] || det_used[c.det]) continue;
    track_used[c.track] = det_used[c.det] = 1;
    Track& tr = tracks_[c.track];
    const Detection& d = detections[c.det];
    tr.kf.update(d.box, t);
    tr.misses = 0;
    tr.consecutive_hits++;
    tr.rec.hits++;
    tr.rec.last_seen = t;
    tr.rec.last_box = d.box;
    if (!tr.rec.confirmed && tr.consecutive_hits >= cfg_.n_init) {
      tr.rec.confirmed = true;
    }
    if (d.truth_id >= 0) vote_truth(tr, d.truth_id);
    // EWMA of the appearance embedding.
    if (tr.feature.empty()) {
      tr.feature = d.feature;
    } else if (!d.feature.empty() && d.feature.size() == tr.feature.size()) {
      for (std::size_t i = 0; i < tr.feature.size(); ++i) {
        tr.feature[i] = 0.8 * tr.feature[i] + 0.2 * d.feature[i];
      }
    }
  }

  // Unmatched tracks age; dead ones are finalized.
  for (std::size_t ti = 0; ti < tracks_.size(); ++ti) {
    if (track_used[ti]) continue;
    tracks_[ti].misses++;
    tracks_[ti].consecutive_hits = 0;
  }
  std::vector<Track> alive;
  alive.reserve(tracks_.size());
  for (auto& tr : tracks_) {
    if (tr.misses > cfg_.max_age) {
      finalize(tr);
    } else {
      alive.push_back(std::move(tr));
    }
  }
  tracks_ = std::move(alive);

  // Unmatched detections spawn new tracks.
  for (std::size_t di = 0; di < detections.size(); ++di) {
    if (det_used[di]) continue;
    const Detection& d = detections[di];
    Track tr{next_id_++, KalmanBox(d.box, t), TrackRecord{}, 0, 1, {}, {}};
    tr.rec.track_id = tr.id;
    tr.rec.first_seen = t;
    tr.rec.last_seen = t;
    tr.rec.hits = 1;
    tr.rec.last_box = d.box;
    tr.rec.confirmed = (cfg_.n_init <= 1);
    tr.feature = d.feature;
    if (d.truth_id >= 0) vote_truth(tr, d.truth_id);
    tracks_.push_back(std::move(tr));
  }
}

std::vector<TrackRecord> ScalarTracker::active() const {
  std::vector<TrackRecord> out;
  for (const auto& tr : tracks_) {
    if (!tr.rec.confirmed) continue;
    TrackRecord rec = tr.rec;
    int best = 0;
    for (const auto& [tid, n] : tr.truth_votes) {
      if (n > best) {
        best = n;
        rec.dominant_truth = tid;
      }
    }
    out.push_back(std::move(rec));
  }
  return out;
}

std::vector<TrackRecord> ScalarTracker::all_tracks() const {
  std::vector<TrackRecord> out = finished_;
  auto act = active();
  out.insert(out.end(), act.begin(), act.end());
  return out;
}

}  // namespace privid::cv
