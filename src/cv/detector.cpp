#include "cv/detector.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "cv/kernels.hpp"

namespace privid::cv {

// Detection draws key off the shared privid::seed_mix (common/rng.hpp) so
// every module derives per-(seed, entity, frame) streams the same way.
using privid::seed_mix;

Detector::Detector(DetectorConfig cfg, std::uint64_t seed)
    : cfg_(cfg), seed_(seed) {
  if (cfg.base_detect_prob < 0 || cfg.base_detect_prob > 1) {
    throw ArgumentError("base_detect_prob out of [0,1]");
  }
  if (cfg.size_ref_area <= 0) throw ArgumentError("size_ref_area must be > 0");
}

double Detector::detect_probability(double area,
                                    double visible_fraction) const {
  if (area <= 0 || visible_fraction < cfg_.visibility_threshold) return 0.0;
  double size_factor = std::pow(area / cfg_.size_ref_area, cfg_.size_exponent);
  double p = cfg_.base_detect_prob * size_factor * visible_fraction;
  return std::clamp(p, cfg_.min_detect_prob, cfg_.max_detect_prob);
}

const DetectionBatch& Detector::detect_into(const sim::Scene& scene,
                                            Seconds t, FrameIndex frame,
                                            const Mask* mask,
                                            FrameArena& arena) const {
  DetectionBatch& out = arena.batch;
  out.clear();
  const auto& entities = scene.entities();
  for (std::size_t i : scene.candidates_at(t)) {
    const auto& e = entities[i];
    auto b = e.box_at(t);
    if (!b) continue;
    double visible = mask ? mask->visible_fraction(*b) : 1.0;
    double p = detect_probability(b->area(), visible);
    if (p <= 0) continue;

    // Deterministic draw per (seed, entity, frame).
    std::uint64_t tag = seed_mix(static_cast<std::uint64_t>(e.id),
                                 static_cast<std::uint64_t>(frame));
    Rng draw(seed_mix(seed_, tag));
    if (!draw.bernoulli(p)) continue;

    Box box = *b;
    box.x += draw.normal(0, cfg_.box_jitter_px);
    box.y += draw.normal(0, cfg_.box_jitter_px);
    box.w = std::max(1.0, box.w + draw.normal(0, cfg_.box_jitter_px));
    box.h = std::max(1.0, box.h + draw.normal(0, cfg_.box_jitter_px));
    double conf = std::clamp(p + draw.normal(0, 0.05), 0.05, 1.0);
    std::size_t row = out.push(box, e.cls, conf, e.id,
                               e.appearance_feature.size(),
                               out.intern(e.plate), out.intern(e.color));
    double* feat = out.feature_row(row);
    for (std::size_t k = 0; k < e.appearance_feature.size(); ++k) {
      feat[k] = e.appearance_feature[k] + draw.normal(0, cfg_.feature_noise);
    }
  }

  // Non-maximum suppression: keep the higher-confidence of any pair of
  // heavily overlapping detections (mutual occlusion loses, like a real
  // detector head). The sort permutation (sort_by_confidence_desc) and
  // the IoU expression match the scalar reference; survivors are
  // gathered through the arena's staging batch.
  if (cfg_.nms_iou <= 1.0 && out.size() > 1) {
    sort_by_confidence_desc(out.confidences(), out.size(), arena.order);
    DetectionBatch& kept = arena.staging;
    kept.clear();
    for (std::uint32_t idx : arena.order) {
      if (!any_iou_above(out.box(idx), kept.xs(), kept.ys(), kept.ws(),
                         kept.hs(), kept.size(), cfg_.nms_iou)) {
        kept.push_row_from(out, idx);
      }
    }
    out.swap_rows(kept);
  }

  // False positives: a small deterministic Poisson count per frame
  // (masked-out boxes still consume their w, h, x, y draws before the
  // mask check).
  std::uint64_t fp_tag =
      seed_mix(0xF05EFull, static_cast<std::uint64_t>(frame));
  Rng fp_rng(seed_mix(seed_, fp_tag));
  std::int64_t n_fp = fp_rng.poisson(cfg_.false_positives_per_frame);
  Box fb = scene.meta().frame_box();
  for (std::int64_t k = 0; k < n_fp; ++k) {
    double w = fp_rng.uniform(15, 60);
    double h = fp_rng.uniform(25, 90);
    Box box{fp_rng.uniform(0, fb.w - w), fp_rng.uniform(0, fb.h - h), w, h};
    if (mask && !mask->visible(box, cfg_.visibility_threshold)) continue;
    double conf = fp_rng.uniform(0.05, 0.5);
    std::size_t row =
        out.push(box, sim::EntityClass::kOther, conf, -1, 8);
    double* feat = out.feature_row(row);
    for (std::size_t j = 0; j < 8; ++j) feat[j] = fp_rng.normal(0, 0.5);
  }
  return out;
}

}  // namespace privid::cv
