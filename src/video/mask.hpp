// Pixel masks (§7.1, Appendix F).
//
// A mask is a fixed, publicly released set of pixels removed (blacked out)
// from every frame before the analyst's executable sees the video. Masks are
// represented on a grid of gx × gy cells (the paper's Appendix F.2 uses a
// grid of 10×10-pixel boxes); a cell is either masked or visible.
//
// Visibility semantics used throughout the library: an object is *visible
// under a mask* at time t iff at least `visibility_threshold` of its
// bounding box area overlaps unmasked pixels. Fully masked objects are
// invisible to detectors and contribute nothing to persistence.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "video/video.hpp"

namespace privid {

class Mask {
 public:
  // An empty (all-visible) mask over a width×height frame with the given
  // grid resolution.
  Mask(int frame_width, int frame_height, int grid_cols, int grid_rows);

  // A named mask; names key the owner's mask→policy map.
  static Mask empty(const VideoMeta& v, int grid_cols = 128,
                    int grid_rows = 72);

  int grid_cols() const { return cols_; }
  int grid_rows() const { return rows_; }
  int frame_width() const { return width_; }
  int frame_height() const { return height_; }

  bool cell_masked(int cx, int cy) const;
  // Every cell's state, row-major (1 = masked).
  const std::vector<char>& cells() const { return masked_; }
  void set_cell(int cx, int cy, bool masked);
  // Masks every cell intersecting `b`.
  void mask_box(const Box& b);

  // Pixel box covered by grid cell (cx, cy).
  Box cell_box(int cx, int cy) const;
  // Grid cell containing pixel (px, py); clamped into range.
  std::pair<int, int> cell_of(double px, double py) const;

  std::size_t masked_cell_count() const;
  double masked_fraction() const;

  // Fraction of `b`'s area that lies on *visible* (unmasked) pixels.
  double visible_fraction(const Box& b) const;
  // Convention used across the library for "the detector can see it".
  bool visible(const Box& b, double visibility_threshold = 0.3) const;

  // Union with another mask (same geometry required).
  Mask unite(const Mask& other) const;

  // Applies the mask to a raster: masked cells are set to 0 (black).
  void apply(FrameBuffer& frame) const;

  bool operator==(const Mask&) const = default;

 private:
  int width_, height_, cols_, rows_;
  std::vector<char> masked_;  // row-major grid
};

}  // namespace privid
