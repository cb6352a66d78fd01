// Synthetic object detector — the Faster-RCNN stand-in.
//
// Emits detections for the entities visible in a scene at a frame time,
// with the failure modes that matter to the paper's argument (Table 1,
// Fig. 2): per-frame misses that worsen for small objects, occasional false
// positives, bounding-box jitter, and noisy appearance embeddings.
//
// Detection is *deterministic per (seed, entity, frame)* — like a real
// model, running it twice over the same frame yields the same boxes — so
// query results are reproducible and chunk processing order is irrelevant.
#pragma once

#include <cstdint>

#include "cv/batch.hpp"
#include "sim/scene.hpp"
#include "video/mask.hpp"

namespace privid::cv {

struct DetectorConfig {
  double base_detect_prob = 0.75;  // probability for a reference-size object
  double size_ref_area = 2400;     // px^2 at which base prob applies
  double size_exponent = 0.7;      // sensitivity to object area
  double min_detect_prob = 0.02;
  double max_detect_prob = 0.98;
  double false_positives_per_frame = 0.02;
  double box_jitter_px = 2.0;      // stddev of box corner noise
  double feature_noise = 0.15;     // stddev added to appearance embedding
  double visibility_threshold = 0.3;  // min unmasked fraction to be seen
  // Non-maximum suppression: of two detections overlapping above this IoU,
  // only the higher-confidence one is emitted (occluded objects are missed,
  // as with a real detector). Set > 1 to disable.
  double nms_iou = 0.6;
};

class Detector {
 public:
  Detector(DetectorConfig cfg, std::uint64_t seed);

  const DetectorConfig& config() const { return cfg_; }

  // Detections at time t, emitted straight into `arena.batch` (SoA
  // columns, plates/colours interned) with no per-detection heap
  // allocation; NMS runs over the batch arrays through the arena's
  // staging buffers. `frame` must be the frame index of t in the scene's
  // video (drives the deterministic noise). Mask may be null. Returns
  // arena.batch. The arena is reusable — after a few frames its buffers
  // reach steady-state capacity and a call allocates nothing.
  //
  // The random draw order and floating-point expression trees match the
  // AoS-era scalar reference (tests/cv_oracle/scalar_detector.hpp), and
  // tests/test_cv_batch.cpp byte-compares the two.
  const DetectionBatch& detect_into(const sim::Scene& scene, Seconds t,
                                    FrameIndex frame, const Mask* mask,
                                    FrameArena& arena) const;

  // Per-object detection probability for a box of the given area, after
  // scaling by the visible (unmasked) fraction.
  double detect_probability(double area, double visible_fraction) const;

 private:
  DetectorConfig cfg_;
  std::uint64_t seed_;
};

}  // namespace privid::cv
