// A single detection as the AoS-era detector emitted it, one heap-backed
// struct per object: the scalar oracle's frame type. The library carries
// detections as cv::DetectionBatch columns.
//
// `truth_id` is ground-truth provenance used only by the evaluation harness
// (to score trackers); analyst code must not rely on it, mirroring how a
// real detector has no access to identity.
#pragma once

#include <string>
#include <vector>

#include "cv/batch.hpp"
#include "sim/entity.hpp"
#include "video/video.hpp"

namespace privid::cv {

struct Detection {
  Box box;
  sim::EntityClass cls = sim::EntityClass::kPerson;
  double confidence = 1.0;
  std::vector<double> feature;   // appearance embedding (noisy)
  // Analyst-observable attributes read "from pixels" (plate OCR, colour
  // classification); empty when not applicable or unreadable.
  std::string plate;
  std::string color;
  sim::EntityId truth_id = -1;   // -1 for false positives
};

// Packs an AoS detection list into `out` (cleared first; its symbol table
// is kept, so plate/colour codes stay stable across frames), one row per
// detection in list order.
void pack_detections(const std::vector<Detection>& dets, DetectionBatch& out);

}  // namespace privid::cv
