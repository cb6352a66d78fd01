// DetectionBatch: the SoA frame container of the CV plane.
//
// One frame's detections as typed parallel arrays — contiguous box
// coordinates, confidences, class codes, truth ids, a flat feature matrix
// with a fixed stride, and interned plate/colour codes — replacing
// `std::vector<Detection>` with its per-detection heap-allocated feature
// vector and strings. This is the CV plane's analogue of PR 5's
// `ColumnSlab`: detector emits a batch, tracker kernels consume the
// arrays directly, and a per-task `FrameArena` reuses every buffer across
// frames so steady-state per-frame allocation is zero.
//
// Interned strings: `intern()` maps a plate/colour string to a small code
// (-1 for empty). The symbol table persists across `clear()` — codes are
// stable for the lifetime of the batch (in practice, the lifetime of the
// owning FrameArena, i.e. one PROCESS task), so consumers may hold codes
// across frames and resolve them later via `symbol()`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/entity.hpp"
#include "video/video.hpp"

namespace privid::cv {

class DetectionBatch {
 public:
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  // Drops all rows but keeps capacity and the interned symbol table.
  void clear();
  void reserve(std::size_t n);

  // Appends a row; returns its index. Feature storage for the row is
  // zero-initialized with length `feature_len` (<= feature stride, which
  // grows to fit); fill it via feature_row().
  std::size_t push(const Box& b, sim::EntityClass cls, double confidence,
                   sim::EntityId truth_id, std::size_t feature_len,
                   std::int32_t plate = -1, std::int32_t color = -1);

  // Column accessors (contiguous, length size()).
  const double* xs() const { return x_.data(); }
  const double* ys() const { return y_.data(); }
  const double* ws() const { return w_.data(); }
  const double* hs() const { return h_.data(); }
  const double* confidences() const { return conf_.data(); }
  const sim::EntityClass* classes() const { return cls_.data(); }
  const sim::EntityId* truth_ids() const { return truth_.data(); }
  const std::int32_t* plate_codes() const { return plate_.data(); }
  const std::int32_t* color_codes() const { return color_.data(); }

  Box box(std::size_t i) const { return Box{x_[i], y_[i], w_[i], h_[i]}; }
  double confidence(std::size_t i) const { return conf_[i]; }
  sim::EntityClass cls(std::size_t i) const { return cls_[i]; }
  sim::EntityId truth_id(std::size_t i) const { return truth_[i]; }

  // Feature matrix: row i occupies [features() + i*stride, +feature_len(i));
  // elements past the row's length up to the stride are zero. A length of 0
  // means "no feature" (cosine distance treats it as maximally distant,
  // like the AoS era's empty vector).
  std::size_t feature_stride() const { return stride_; }
  std::size_t feature_len(std::size_t i) const { return feat_len_[i]; }
  const std::uint32_t* feature_lens() const { return feat_len_.data(); }
  const double* features() const { return feat_.data(); }
  const double* feature_row(std::size_t i) const {
    return feat_.data() + i * stride_;
  }
  double* feature_row(std::size_t i) { return feat_.data() + i * stride_; }

  // String interning for plate/colour codes. Empty string -> -1. Codes
  // index a table that persists across clear().
  std::int32_t intern(std::string_view s);
  const std::string& symbol(std::int32_t code) const {
    return symbols_[static_cast<std::size_t>(code)];
  }
  std::string_view symbol_or_empty(std::int32_t code) const {
    if (code < 0) return {};
    return symbols_[static_cast<std::size_t>(code)];
  }

  // In-place mutation used by NMS / region filtering.
  void set_box(std::size_t i, const Box& b) {
    x_[i] = b.x; y_[i] = b.y; w_[i] = b.w; h_[i] = b.h;
  }
  void set_confidence(std::size_t i, double c) { conf_[i] = c; }

  // Copies row `src` of `from` as a new row of this batch. The two batches
  // must share a symbol table meaning (same arena) — codes are copied
  // verbatim. Used by the NMS gather.
  void push_row_from(const DetectionBatch& from, std::size_t src);

  // Swaps only the per-row arrays with `other`, leaving each batch's
  // symbol table in place (the NMS gather writes reordered rows into a
  // staging batch whose codes keep referencing this batch's symbols).
  void swap_rows(DetectionBatch& other);

  // Keeps only the rows for which keep[i] != 0, preserving order.
  void filter_rows(const std::vector<char>& keep);

 private:
  void grow_stride(std::size_t stride);

  std::size_t n_ = 0;
  std::size_t stride_ = 0;
  std::vector<double> x_, y_, w_, h_, conf_;
  std::vector<double> feat_;
  std::vector<std::uint32_t> feat_len_;
  std::vector<sim::EntityClass> cls_;
  std::vector<sim::EntityId> truth_;
  std::vector<std::int32_t> plate_, color_;
  std::vector<std::string> symbols_;
  // Codes into symbols_, ordered by symbol string, so intern() is a
  // binary search instead of a linear scan — the table accumulates over
  // a long-lived arena, and a continuous multi-hour run sees thousands
  // of distinct plates, where scanning per detection is quadratic.
  // Codes are first-appearance ordinals either way, so the index never
  // changes what intern() returns. (Deliberately not a hash index:
  // privcheck's parallel-hash rule reserves hashing for
  // common/fingerprint.*, and log2(#plates) string compares are cheap.)
  std::vector<std::int32_t> sym_sorted_;
};

// Per-task scratch for the per-frame CV pipeline. One arena lives for the
// duration of a PROCESS task (e.g. inside a ChunkView) and is reused for
// every frame: the detector fills `batch`, uses `staging`/`order`/`flags`
// for the NMS gather, and consumers read the final batch. After the first
// few frames every buffer has reached steady-state capacity and the
// per-frame allocation count is zero (gated by bench_cv_plane).
struct FrameArena {
  DetectionBatch batch;
  DetectionBatch staging;               // NMS gather target (rows only)
  std::vector<std::uint32_t> order;     // NMS confidence order
  std::vector<char> flags;              // NMS suppression marks
  std::vector<char> keep;               // region-filter marks
};

}  // namespace privid::cv
