// The counting executable shared by the engine-level suites.
#pragma once

#include <cstddef>

#include "cv/detector.hpp"
#include "engine/sandbox.hpp"

namespace privid::testutil {

// Counts ground-truth entities visible at the chunk midpoint via a
// high-recall detector (deterministic): one Value(1.0) row per detection.
inline engine::Executable counting_exe() {
  return [](const engine::ChunkView& view) {
    engine::ExecOutput out;
    cv::DetectorConfig det;
    det.base_detect_prob = 0.98;
    det.false_positives_per_frame = 0;
    double mid = view.time().begin + view.time().duration() / 2;
    const std::size_t n = view.detect_into(det, mid).size();
    for (std::size_t i = 0; i < n; ++i) out.rows.push_back({Value(1.0)});
    out.simulated_runtime = 0.1;
    return out;
  };
}

}  // namespace privid::testutil
