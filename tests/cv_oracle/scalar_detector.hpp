// The AoS-era detector, kept verbatim as the scalar oracle for
// cv::Detector::detect_into: same random tapes, draw order and
// floating-point expressions, one heap-backed Detection per object.
// Do not "optimize" this file: its value is being the unchanged original.
#pragma once

#include <cstdint>
#include <vector>

#include "cv/detector.hpp"
#include "cv_oracle/detection.hpp"
#include "sim/scene.hpp"
#include "video/mask.hpp"

namespace privid::cv {

// Detections at time t of a detector built from (cfg, seed). `frame` must
// be the frame index of t in the scene's video (drives the deterministic
// noise). Mask may be null.
std::vector<Detection> scalar_detect(const DetectorConfig& cfg,
                                     std::uint64_t seed,
                                     const sim::Scene& scene, Seconds t,
                                     FrameIndex frame,
                                     const Mask* mask = nullptr);

}  // namespace privid::cv
