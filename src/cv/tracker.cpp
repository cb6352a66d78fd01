#include "cv/tracker.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "cv/kernels.hpp"

namespace privid::cv {

TrackerConfig TrackerConfig::sort(int max_age, int n_init, double iou_gate) {
  TrackerConfig c;
  c.max_age = max_age;
  c.n_init = n_init;
  c.iou_gate = iou_gate;
  c.cos_gate = 1e9;  // appearance unused
  c.appearance_weight = 0.0;
  return c;
}

TrackerConfig TrackerConfig::deepsort(double cos_gate, double iou_gate,
                                      int max_age, int n_init) {
  TrackerConfig c;
  c.max_age = max_age;
  c.n_init = n_init;
  c.iou_gate = iou_gate;
  c.cos_gate = cos_gate;
  c.appearance_weight = 0.5;
  return c;
}

Tracker::Tracker(TrackerConfig cfg) : cfg_(cfg) {
  if (cfg.max_age <= 0 || cfg.n_init <= 0) {
    throw ArgumentError("tracker max_age/n_init must be positive");
  }
}

void Tracker::vote_truth(Votes& votes, sim::EntityId id) {
  for (auto& [tid, n] : votes) {
    if (tid == id) {
      ++n;
      return;
    }
  }
  votes.emplace_back(id, 1);
}

sim::EntityId Tracker::dominant_truth(const Votes& votes) {
  sim::EntityId dominant = -1;
  int best = 0;
  for (const auto& [tid, n] : votes) {
    if (n > best) {
      best = n;
      dominant = tid;
    }
  }
  return dominant;
}

void Tracker::grow_track_stride(std::size_t stride) {
  if (stride <= tstride_) return;
  std::size_t n = tfeat_len_.size();
  std::vector<double> wide(n * stride, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy_n(tfeat_.data() + i * tstride_, tstride_,
                wide.data() + i * stride);
  }
  tfeat_ = std::move(wide);
  tstride_ = stride;
}

void Tracker::adopt_feature(std::size_t ti, const DetectionBatch& dets,
                            std::size_t di) {
  std::size_t dlen = dets.feature_len(di);
  grow_track_stride(dlen);
  double* row = track_feature_row(ti);
  std::fill_n(row, tstride_, 0.0);
  std::copy_n(dets.feature_row(di), dlen, row);
  tfeat_len_[ti] = static_cast<std::uint32_t>(dlen);
}

void Tracker::spawn(const DetectionBatch& dets, std::size_t di, Seconds t) {
  Box db = dets.box(di);
  bank_.add(db, t);
  id_.push_back(next_id_++);
  misses_.push_back(0);
  chits_.push_back(1);
  hits_.push_back(1);
  first_.push_back(t);
  last_.push_back(t);
  confirmed_.push_back(cfg_.n_init <= 1 ? 1 : 0);
  lx_.push_back(db.x);
  ly_.push_back(db.y);
  lw_.push_back(db.w);
  lh_.push_back(db.h);
  votes_.emplace_back();
  if (dets.truth_id(di) >= 0) vote_truth(votes_.back(), dets.truth_id(di));
  std::size_t dlen = dets.feature_len(di);
  grow_track_stride(dlen);
  tfeat_.resize(tfeat_.size() + tstride_, 0.0);
  tfeat_len_.push_back(static_cast<std::uint32_t>(dlen));
  std::copy_n(dets.feature_row(di), dlen, track_feature_row(id_.size() - 1));
}

void Tracker::finalize_dead(std::size_t ti) {
  if (!confirmed_[ti]) return;
  TrackRecord rec;
  rec.track_id = id_[ti];
  rec.first_seen = first_[ti];
  rec.last_seen = last_[ti];
  rec.hits = hits_[ti];
  rec.confirmed = true;
  rec.dominant_truth = dominant_truth(votes_[ti]);
  rec.last_box = Box{lx_[ti], ly_[ti], lw_[ti], lh_[ti]};
  rec.mean_feature.assign(track_feature_row(ti),
                          track_feature_row(ti) + tfeat_len_[ti]);
  finished_.push_back(std::move(rec));
}

void Tracker::step(Seconds t, const DetectionBatch& dets) {
  if (started_ && t <= last_t_) {
    throw ArgumentError("tracker frames must be fed in increasing time order");
  }
  started_ = true;
  last_t_ = t;

  const std::size_t nt = id_.size();
  const std::size_t nd = dets.size();

  // Predict all live tracks to the current time (one SoA sweep).
  bank_.predict_all(t);
  px_.resize(nt);
  py_.resize(nt);
  pw_.resize(nt);
  ph_.resize(nt);
  for (std::size_t i = 0; i < nt; ++i) {
    Box p = bank_.state_box(i);
    px_[i] = p.x;
    py_[i] = p.y;
    pw_[i] = p.w;
    ph_[i] = p.h;
  }

  // Dense cost ingredients: the IoU matrix in one kernel sweep, and the
  // squared feature norms hoisted per row. Cosine distances are evaluated
  // lazily, only for pairs that survive the motion gate — in a dense
  // frame the gate admits a tiny fraction of the nt x nd pairs, so a full
  // cosine matrix would be almost entirely dead work. Each lazy cosine
  // goes through cosine_distance_norms, which is bit-exact with the
  // scalar reference's per-pair cosine.
  iou_buf_.resize(nt * nd);
  if (nt && nd) {
    iou_matrix(px_.data(), py_.data(), pw_.data(), ph_.data(), nt, dets.xs(),
               dets.ys(), dets.ws(), dets.hs(), nd, iou_buf_.data());
  }
  const bool use_app = cfg_.appearance_weight > 0;
  if (use_app && nt && nd) {
    tnorm_.resize(nt);
    for (std::size_t i = 0; i < nt; ++i) {
      tnorm_[i] = squared_norm(track_feature_row(i), tfeat_len_[i]);
    }
    dnorm_.resize(nd);
    for (std::size_t j = 0; j < nd; ++j) {
      dnorm_[j] = squared_norm(dets.feature_row(j), dets.feature_len(j));
    }
  }

  // Gate and cost in the scalar reference's (track, det) order with its
  // exact expressions. The only shortcut: the scalar path computed
  // hypot(dx, dy) for every pair, but the distance only matters when the
  // pair passes the centre gate (or has zero overlap and needs the
  // distance-based motion cost) — so pairs whose *squared* distance
  // provably exceeds the gate (with a margin far above hypot's ulp error)
  // skip the hypot without any chance of flipping the gate outcome.
  dcx_.resize(nd);
  dcy_.resize(nd);
  for (std::size_t j = 0; j < nd; ++j) {
    Box db = dets.box(j);
    dcx_[j] = db.cx();
    dcy_[j] = db.cy();
  }
  cands_.clear();
  for (std::size_t ti = 0; ti < nt; ++ti) {
    Box pred{px_[ti], py_[ti], pw_[ti], ph_[ti]};
    double diag = std::hypot(pred.w, pred.h);
    const double pcx = pred.cx(), pcy = pred.cy();
    const double lim =
        cfg_.center_gate_diag > 0 && diag > 0 ? cfg_.center_gate_diag * diag
                                              : 0.0;
    const double lim2 = lim * lim * (1.0 + 1e-9);
    const double* trow = use_app ? track_feature_row(ti) : nullptr;
    const std::uint32_t tlen = use_app ? tfeat_len_[ti] : 0;
    for (std::size_t di = 0; di < nd; ++di) {
      double overlap = iou_buf_[ti * nd + di];
      double dx = pcx - dcx_[di];
      double dy = pcy - dcy_[di];
      double dist = 0.0;
      if (overlap >= cfg_.iou_gate) {
        // Gated in by IoU; the distance is only read by the motion cost
        // when the boxes do not overlap.
        if (overlap <= 0) dist = std::hypot(dx, dy);
      } else {
        if (lim <= 0) continue;
        if (dx * dx + dy * dy > lim2) continue;  // provably dist > lim
        dist = std::hypot(dx, dy);
        if (dist > lim) continue;
      }
      double cosd = 0.0;
      if (use_app) {
        std::size_t dlen = dets.feature_len(di);
        cosd = (tlen == 0 || dlen == 0 || dlen != tlen)
                   ? 1.0
                   : cosine_distance_norms(trow, dets.feature_row(di), tlen,
                                           tnorm_[ti], dnorm_[di]);
      }
      if (cosd > cfg_.cos_gate) continue;
      // Motion cost: 1 - IoU when boxes overlap, else grows with the
      // normalised centre distance so overlapping matches always win.
      double motion = overlap > 0 ? 1.0 - overlap
                                  : 1.0 + (diag > 0 ? dist / diag : 1.0);
      double cost = cfg_.appearance_weight * cosd +
                    (1.0 - cfg_.appearance_weight) * motion;
      cands_.push_back({cost, static_cast<std::uint32_t>(ti),
                        static_cast<std::uint32_t>(di)});
    }
  }
  std::sort(cands_.begin(), cands_.end(),
            [](const Cand& a, const Cand& b) { return a.cost < b.cost; });

  // Greedy matching, lowest cost first.
  track_used_.assign(nt, 0);
  det_used_.assign(nd, 0);
  for (const auto& c : cands_) {
    if (track_used_[c.track] || det_used_[c.det]) continue;
    track_used_[c.track] = det_used_[c.det] = 1;
    std::size_t ti = c.track, di = c.det;
    Box db = dets.box(di);
    bank_.update(ti, db, t);
    misses_[ti] = 0;
    chits_[ti]++;
    hits_[ti]++;
    last_[ti] = t;
    lx_[ti] = db.x;
    ly_[ti] = db.y;
    lw_[ti] = db.w;
    lh_[ti] = db.h;
    if (!confirmed_[ti] && chits_[ti] >= cfg_.n_init) confirmed_[ti] = 1;
    if (dets.truth_id(di) >= 0) vote_truth(votes_[ti], dets.truth_id(di));
    // EWMA of the appearance embedding (adopt on first sighting).
    std::size_t dlen = dets.feature_len(di);
    if (tfeat_len_[ti] == 0) {
      adopt_feature(ti, dets, di);
    } else if (dlen != 0 && dlen == tfeat_len_[ti]) {
      double* f = track_feature_row(ti);
      const double* g = dets.feature_row(di);
      for (std::size_t k = 0; k < dlen; ++k) {
        f[k] = 0.8 * f[k] + 0.2 * g[k];
      }
    }
  }

  // Unmatched tracks age; dead ones are finalized (in track order) and the
  // survivors compacted in place, preserving order.
  keep_.resize(nt);
  bool any_dead = false;
  for (std::size_t ti = 0; ti < nt; ++ti) {
    if (!track_used_[ti]) {
      misses_[ti]++;
      chits_[ti] = 0;
    }
    keep_[ti] = misses_[ti] <= cfg_.max_age;
    if (!keep_[ti]) {
      finalize_dead(ti);
      any_dead = true;
    }
  }
  if (any_dead) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < nt; ++i) {
      if (!keep_[i]) continue;
      if (out != i) {
        id_[out] = id_[i];
        misses_[out] = misses_[i];
        chits_[out] = chits_[i];
        hits_[out] = hits_[i];
        first_[out] = first_[i];
        last_[out] = last_[i];
        confirmed_[out] = confirmed_[i];
        lx_[out] = lx_[i];
        ly_[out] = ly_[i];
        lw_[out] = lw_[i];
        lh_[out] = lh_[i];
        votes_[out] = std::move(votes_[i]);
        tfeat_len_[out] = tfeat_len_[i];
        std::copy_n(tfeat_.data() + i * tstride_, tstride_,
                    tfeat_.data() + out * tstride_);
      }
      ++out;
    }
    id_.resize(out);
    misses_.resize(out);
    chits_.resize(out);
    hits_.resize(out);
    first_.resize(out);
    last_.resize(out);
    confirmed_.resize(out);
    lx_.resize(out);
    ly_.resize(out);
    lw_.resize(out);
    lh_.resize(out);
    votes_.resize(out);
    tfeat_len_.resize(out);
    tfeat_.resize(out * tstride_);
    bank_.compact(keep_);
  }

  // Unmatched detections spawn new tracks.
  for (std::size_t di = 0; di < nd; ++di) {
    if (!det_used_[di]) spawn(dets, di, t);
  }
}

std::vector<TrackRecord> Tracker::take_tracks() {
  std::vector<TrackRecord> out = std::move(finished_);
  finished_.clear();
  for (std::size_t i = 0; i < id_.size(); ++i) {
    if (!confirmed_[i]) continue;
    TrackRecord rec;
    rec.track_id = id_[i];
    rec.first_seen = first_[i];
    rec.last_seen = last_[i];
    rec.hits = hits_[i];
    rec.confirmed = true;
    rec.dominant_truth = dominant_truth(votes_[i]);
    rec.last_box = Box{lx_[i], ly_[i], lw_[i], lh_[i]};
    // mean_feature stays empty for live tracks, as the AoS era's active()
    // snapshots did (only death finalization captured the EWMA feature).
    out.push_back(std::move(rec));
  }
  return out;
}

}  // namespace privid::cv
