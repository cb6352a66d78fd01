#include "cv_oracle/scalar_detector.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace privid::cv {

std::vector<Detection> scalar_detect(const DetectorConfig& cfg,
                                     std::uint64_t seed,
                                     const sim::Scene& scene, Seconds t,
                                     FrameIndex frame, const Mask* mask) {
  // Only the per-object probability comes from the library detector.
  const Detector detector(cfg, seed);
  std::vector<Detection> out;
  const auto& entities = scene.entities();
  for (std::size_t i : scene.candidates_at(t)) {
    const auto& e = entities[i];
    auto b = e.box_at(t);
    if (!b) continue;
    double visible = mask ? mask->visible_fraction(*b) : 1.0;
    double p = detector.detect_probability(b->area(), visible);
    if (p <= 0) continue;

    // Deterministic draw per (seed, entity, frame).
    std::uint64_t tag = seed_mix(static_cast<std::uint64_t>(e.id),
                                 static_cast<std::uint64_t>(frame));
    Rng draw(seed_mix(seed, tag));
    if (!draw.bernoulli(p)) continue;

    Detection d;
    d.box = *b;
    d.box.x += draw.normal(0, cfg.box_jitter_px);
    d.box.y += draw.normal(0, cfg.box_jitter_px);
    d.box.w = std::max(1.0, d.box.w + draw.normal(0, cfg.box_jitter_px));
    d.box.h = std::max(1.0, d.box.h + draw.normal(0, cfg.box_jitter_px));
    d.cls = e.cls;
    d.confidence = std::clamp(p + draw.normal(0, 0.05), 0.05, 1.0);
    d.plate = e.plate;   // plate OCR; assumed readable when detected
    d.color = e.color;
    d.truth_id = e.id;
    d.feature = e.appearance_feature;
    for (auto& f : d.feature) f += draw.normal(0, cfg.feature_noise);
    out.push_back(std::move(d));
  }

  // Non-maximum suppression: keep the higher-confidence of any pair of
  // heavily overlapping detections (mutual occlusion loses, like a real
  // detector head).
  if (cfg.nms_iou <= 1.0 && out.size() > 1) {
    std::sort(out.begin(), out.end(),
              [](const Detection& a, const Detection& b) {
                return a.confidence > b.confidence;
              });
    std::vector<Detection> kept;
    for (auto& d : out) {
      bool suppressed = false;
      for (const auto& k : kept) {
        if (iou(d.box, k.box) > cfg.nms_iou) {
          suppressed = true;
          break;
        }
      }
      if (!suppressed) kept.push_back(std::move(d));
    }
    out = std::move(kept);
  }

  // False positives: a small deterministic Poisson count per frame.
  std::uint64_t fp_tag =
      seed_mix(0xF05EFull, static_cast<std::uint64_t>(frame));
  Rng fp_rng(seed_mix(seed, fp_tag));
  std::int64_t n_fp = fp_rng.poisson(cfg.false_positives_per_frame);
  Box fb = scene.meta().frame_box();
  for (std::int64_t k = 0; k < n_fp; ++k) {
    Detection d;
    double w = fp_rng.uniform(15, 60);
    double h = fp_rng.uniform(25, 90);
    d.box = Box{fp_rng.uniform(0, fb.w - w), fp_rng.uniform(0, fb.h - h), w, h};
    if (mask && !mask->visible(d.box, cfg.visibility_threshold)) continue;
    d.cls = sim::EntityClass::kOther;
    d.confidence = fp_rng.uniform(0.05, 0.5);
    d.truth_id = -1;
    d.feature.assign(8, 0.0);
    for (auto& f : d.feature) f = fp_rng.normal(0, 0.5);
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace privid::cv
