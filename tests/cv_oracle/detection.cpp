#include "cv_oracle/detection.hpp"

#include <algorithm>

namespace privid::cv {

void pack_detections(const std::vector<Detection>& dets,
                     DetectionBatch& out) {
  out.clear();
  out.reserve(dets.size());
  for (const auto& d : dets) {
    std::size_t i =
        out.push(d.box, d.cls, d.confidence, d.truth_id, d.feature.size(),
                 out.intern(d.plate), out.intern(d.color));
    std::copy(d.feature.begin(), d.feature.end(), out.feature_row(i));
  }
}

}  // namespace privid::cv
