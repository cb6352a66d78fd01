// Isolated execution of analyst PROCESS executables (§6.2, Appendix B).
//
// The real system runs each chunk in an OS sandbox; here isolation is
// enforced at the API boundary:
//   - an Executable is a pure function of its ChunkView — there is no other
//     channel in or out (no globals in the registry-provided executables,
//     no cross-chunk state);
//   - the ChunkView refuses to serve observations outside the chunk's time
//     interval (requirement 1 of Appendix B);
//   - output is clamped to the declared schema and max_rows, with the
//     default row substituted on crash or timeout (requirement 2: output
//     size and processing time are fixed a priori);
//   - the per-chunk random tape is derived from (camera seed, chunk index),
//     uncorrelated across chunks.
//
// Executables report a *simulated* runtime; the sandbox compares it to the
// declared TIMEOUT so the timing side-channel discipline is exercised even
// though wall-clock enforcement is not meaningful in a simulator.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/timeutil.hpp"
#include "cv/batch.hpp"
#include "cv/detector.hpp"
#include "sim/porto.hpp"
#include "sim/scene.hpp"
#include "table/table.hpp"
#include "video/mask.hpp"
#include "video/region.hpp"

namespace privid::engine {

// Content behind a camera: either a visual scene or a Porto camera feed.
struct CameraContent {
  std::shared_ptr<const sim::Scene> scene;        // visual cameras
  std::shared_ptr<const sim::PortoSynth> porto;   // multi-camera case study
  int porto_camera = -1;
  std::uint64_t seed = 0;  // camera-level seed (model determinism)
};

// The analyst executable's window onto one chunk.
class ChunkView {
 public:
  ChunkView(const CameraContent* content, const VideoMeta* meta,
            std::size_t chunk_index, TimeInterval time, FrameInterval frames,
            const Mask* mask, const Region* region);

  const VideoMeta& video() const { return *meta_; }
  std::size_t chunk_index() const { return chunk_index_; }
  TimeInterval time() const { return time_; }
  FrameInterval frames() const { return frames_; }
  double fps() const { return meta_->fps; }
  // The region this instance processes (spatial splitting), if any.
  const Region* region() const { return region_; }

  // Runs the analyst's detector model over the frame at time t. The mask
  // and region restriction are applied *before* the model sees anything.
  // Throws ArgumentError if t is outside the chunk (isolation). The
  // detections land in this view's reusable FrameArena as SoA columns —
  // zero heap allocation per frame once the arena warms up. The returned
  // batch is valid until the next detect_into() call on this view.
  const cv::DetectionBatch& detect_into(const cv::DetectorConfig& model,
                                        Seconds t) const;

  // Iterates every frame time in the chunk.
  template <typename Fn>
  void for_each_frame(Fn&& fn) const {
    for (FrameIndex f = frames_.begin; f < frames_.end; ++f) {
      fn(meta_->time_of(f));
    }
  }

  // Traffic light observation: state of light `idx` at t, or nullopt when
  // the light is masked out / out of region. Case-4 queries mask everything
  // *except* the light.
  std::optional<sim::LightState> light_state(std::size_t idx,
                                             Seconds t) const;
  std::size_t light_count() const;

  // Tree observations at time t: (box, observed bloom). Observation flips
  // the true state with `flip_prob`, deterministically per (tree, frame).
  std::vector<std::pair<Box, bool>> observe_trees(Seconds t,
                                                  double flip_prob) const;

  // Porto cameras: visits overlapping this chunk.
  std::vector<sim::TaxiVisit> taxi_visits() const;
  bool is_porto() const { return content_->porto != nullptr; }

  // The chunk's private random tape (Appendix B): independent across
  // chunks, stable across runs.
  Rng fork_rng() const;

 private:
  void check_inside(Seconds t) const;

  const CameraContent* content_;
  const VideoMeta* meta_;
  std::size_t chunk_index_;
  TimeInterval time_;
  FrameInterval frames_;
  const Mask* mask_;
  const Region* region_;
  // Per-view frame scratch for detect_into(). A ChunkView belongs to one
  // PROCESS task (one thread), so the mutable arena is not shared.
  mutable cv::FrameArena arena_;
};

// What an executable produces for one chunk. The executable boundary stays
// row-oriented — its output is untrusted and shaped however the analyst
// likes; the sandbox is what converts it into the typed columnar form the
// rest of the engine runs on.
struct ExecOutput {
  std::vector<Row> rows;
  Seconds simulated_runtime = 0;  // compared against TIMEOUT
};

using Executable = std::function<ExecOutput(const ChunkView&)>;

struct SandboxPolicy {
  Seconds timeout = 1.0;
  std::size_t max_rows = 1;
  Schema schema;  // analyst-declared columns only (no trusted columns)
};

// Runs `exe` over `view` under `policy`: truncates to max_rows, coerces
// each cell to the schema (extraneous columns dropped, missing / mistyped /
// non-finite cells replaced by the column default), and substitutes the
// single default row if the executable times out or throws. The coerced
// cells are appended straight into `out` — the engine's columnar form
// from the first cell on — filling its first policy.schema.size() columns
// and counting the rows; a wider slab (a range slab, whose trusted columns
// follow the analyst ones) has its remaining columns filled by the caller.
// The one exception that escapes (the sandbox.exec fault seam, a
// TransientError) is thrown before anything is appended, so a retry
// appends to an untouched slab.
void run_sandboxed(const Executable& exe, const ChunkView& view,
                   const SandboxPolicy& policy, ColumnSlab* out);

}  // namespace privid::engine
