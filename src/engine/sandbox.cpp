#include "engine/sandbox.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "fault/fault.hpp"

namespace privid::engine {

// Per-chunk / per-frame tapes key off the shared privid::seed_mix
// (common/rng.hpp) so every module derives streams the same way.
using privid::seed_mix;

ChunkView::ChunkView(const CameraContent* content, const VideoMeta* meta,
                     std::size_t chunk_index, TimeInterval time,
                     FrameInterval frames, const Mask* mask,
                     const Region* region)
    : content_(content), meta_(meta), chunk_index_(chunk_index), time_(time),
      frames_(frames), mask_(mask), region_(region) {
  if (!content || !meta) throw ArgumentError("ChunkView needs content/meta");
}

void ChunkView::check_inside(Seconds t) const {
  // The chunk's last frame time is < time_.end; accept the half-open range.
  if (t < time_.begin - 1e-9 || t >= time_.end + 1e-9) {
    throw ArgumentError(
        "executable attempted to observe outside its chunk (isolation "
        "violation)");
  }
}

const cv::DetectionBatch& ChunkView::detect_into(
    const cv::DetectorConfig& model, Seconds t) const {
  check_inside(t);
  if (!content_->scene) {
    throw ArgumentError("detect_into() on a non-visual camera");
  }
  cv::Detector detector(model, content_->seed);
  FrameIndex frame = meta_->frame_at(t);
  const cv::DetectionBatch& b =
      detector.detect_into(*content_->scene, t, frame, mask_, arena_);
  if (region_) {
    arena_.keep.resize(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) {
      Box box = b.box(i);
      arena_.keep[i] =
          region_->extent.contains(box.cx(), box.cy()) ? 1 : 0;
    }
    arena_.batch.filter_rows(arena_.keep);
  }
  return arena_.batch;
}

std::size_t ChunkView::light_count() const {
  return content_->scene ? content_->scene->lights().size() : 0;
}

std::optional<sim::LightState> ChunkView::light_state(std::size_t idx,
                                                      Seconds t) const {
  check_inside(t);
  if (!content_->scene) return std::nullopt;
  const auto& lights = content_->scene->lights();
  if (idx >= lights.size()) return std::nullopt;
  const auto& light = lights[idx];
  if (mask_ && !mask_->visible(light.box(), 0.5)) return std::nullopt;
  if (region_ &&
      !region_->extent.contains(light.box().cx(), light.box().cy())) {
    return std::nullopt;
  }
  return light.state_at(t);
}

std::vector<std::pair<Box, bool>> ChunkView::observe_trees(
    Seconds t, double flip_prob) const {
  check_inside(t);
  std::vector<std::pair<Box, bool>> out;
  if (!content_->scene) return out;
  FrameIndex frame = meta_->frame_at(t);
  const auto& trees = content_->scene->trees();
  for (std::size_t i = 0; i < trees.size(); ++i) {
    const auto& tree = trees[i];
    if (mask_ && !mask_->visible(tree.box, 0.5)) continue;
    if (region_ && !region_->extent.contains(tree.box.cx(), tree.box.cy())) {
      continue;
    }
    std::uint64_t tag =
        seed_mix(0x7EE5ull + i, static_cast<std::uint64_t>(frame));
    Rng draw(seed_mix(content_->seed, tag));
    bool observed = tree.bloomed;
    if (draw.bernoulli(flip_prob)) observed = !observed;
    out.emplace_back(tree.box, observed);
  }
  return out;
}

std::vector<sim::TaxiVisit> ChunkView::taxi_visits() const {
  if (!content_->porto) {
    throw ArgumentError("taxi_visits() on a non-Porto camera");
  }
  // Visits *starting* in this chunk — the §6.2 convention so that one
  // appearance maps to one row even when it spans chunk boundaries is
  // applied by the executable; the view serves starts for simplicity.
  return content_->porto->visits(content_->porto_camera, time_);
}

Rng ChunkView::fork_rng() const {
  std::uint64_t tag =
      seed_mix(0xC4A9ull, static_cast<std::uint64_t>(chunk_index_));
  return Rng(seed_mix(content_->seed, tag));
}

void run_sandboxed(const Executable& exe, const ChunkView& view,
                   const SandboxPolicy& policy, ColumnSlab* out) {
  // Models the sandbox worker dying *before* the executable runs (startup
  // failure), so the throw escapes to the executor's retry ladder. Inside
  // the try it would be absorbed into a default row — that path is the
  // executable crashing, which Appendix B deliberately makes unobservable.
  fault::inject("sandbox.exec");
  ExecOutput result;
  bool failed = false;
  try {
    result = exe(view);
  } catch (const std::exception&) {
    failed = true;  // crash -> default row (Appendix B)
  }
  if (!failed && result.simulated_runtime > policy.timeout) {
    failed = true;  // timeout -> default row
  }

  const std::size_t n_cols = policy.schema.size();
  if (failed) {
    for (std::size_t c = 0; c < n_cols; ++c) {
      out->append_value(c, policy.schema.column(c).default_value);
    }
    out->finish_row();
    return;
  }

  const std::size_t n_rows = std::min(result.rows.size(), policy.max_rows);
  out->reserve_rows(n_rows);
  for (std::size_t r = 0; r < n_rows; ++r) {
    const Row& src = result.rows[r];
    for (std::size_t c = 0; c < n_cols; ++c) {
      const Column& col = policy.schema.column(c);
      // Mistyped cells keep the default — Privid places no trust in the
      // executable's output shape. Non-finite numbers are rejected too:
      // NaN survives range() clamping (clamp(NaN) is NaN) and would poison
      // the aggregate, turning the release itself into a side channel.
      const Value* v = &col.default_value;
      if (c < src.size() && src[c].type() == col.type &&
          !(src[c].is_number() && !std::isfinite(src[c].as_number()))) {
        v = &src[c];
      }
      if (col.type == DType::kNumber) {
        out->append_number(c, v->as_number());
      } else {
        out->append_string(c, v->as_string());
      }
    }
    out->finish_row();
  }
}

}  // namespace privid::engine
