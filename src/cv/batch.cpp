#include "cv/batch.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace privid::cv {

void DetectionBatch::clear() {
  n_ = 0;
  x_.clear(); y_.clear(); w_.clear(); h_.clear(); conf_.clear();
  feat_.clear();
  feat_len_.clear();
  cls_.clear();
  truth_.clear();
  plate_.clear();
  color_.clear();
  // symbols_ deliberately kept: codes are stable across frames.
}

void DetectionBatch::reserve(std::size_t n) {
  x_.reserve(n); y_.reserve(n); w_.reserve(n); h_.reserve(n);
  conf_.reserve(n);
  feat_.reserve(n * std::max<std::size_t>(stride_, 8));
  feat_len_.reserve(n);
  cls_.reserve(n);
  truth_.reserve(n);
  plate_.reserve(n);
  color_.reserve(n);
}

void DetectionBatch::grow_stride(std::size_t stride) {
  if (stride <= stride_) return;
  // Re-stride the existing rows (rare: only when a scene mixes feature
  // dimensions; every in-repo producer uses one dimension throughout).
  std::vector<double> wide(n_ * stride, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    std::copy_n(feat_.data() + i * stride_, stride_, wide.data() + i * stride);
  }
  feat_ = std::move(wide);
  stride_ = stride;
}

std::size_t DetectionBatch::push(const Box& b, sim::EntityClass cls,
                                 double confidence, sim::EntityId truth_id,
                                 std::size_t feature_len, std::int32_t plate,
                                 std::int32_t color) {
  grow_stride(feature_len);
  std::size_t i = n_++;
  x_.push_back(b.x);
  y_.push_back(b.y);
  w_.push_back(b.w);
  h_.push_back(b.h);
  conf_.push_back(confidence);
  cls_.push_back(cls);
  truth_.push_back(truth_id);
  plate_.push_back(plate);
  color_.push_back(color);
  feat_len_.push_back(static_cast<std::uint32_t>(feature_len));
  feat_.resize(feat_.size() + stride_, 0.0);
  return i;
}

std::int32_t DetectionBatch::intern(std::string_view s) {
  if (s.empty()) return -1;
  // Codes are first-appearance ordinals into symbols_; the sorted index
  // only accelerates the lookup, so code assignment is identical to a
  // linear scan.
  auto it = std::lower_bound(
      sym_sorted_.begin(), sym_sorted_.end(), s,
      [this](std::int32_t code, std::string_view key) {
        return symbols_[static_cast<std::size_t>(code)] < key;
      });
  if (it != sym_sorted_.end() &&
      symbols_[static_cast<std::size_t>(*it)] == s) {
    return *it;
  }
  symbols_.emplace_back(s);
  const auto code = static_cast<std::int32_t>(symbols_.size() - 1);
  sym_sorted_.insert(it, code);
  return code;
}

void DetectionBatch::push_row_from(const DetectionBatch& from,
                                   std::size_t src) {
  std::size_t i = push(from.box(src), from.cls_[src], from.conf_[src],
                       from.truth_[src], from.feat_len_[src],
                       from.plate_[src], from.color_[src]);
  std::copy_n(from.feature_row(src), from.feat_len_[src], feature_row(i));
}

void DetectionBatch::swap_rows(DetectionBatch& other) {
  std::swap(n_, other.n_);
  std::swap(stride_, other.stride_);
  x_.swap(other.x_); y_.swap(other.y_); w_.swap(other.w_); h_.swap(other.h_);
  conf_.swap(other.conf_);
  feat_.swap(other.feat_);
  feat_len_.swap(other.feat_len_);
  cls_.swap(other.cls_);
  truth_.swap(other.truth_);
  plate_.swap(other.plate_);
  color_.swap(other.color_);
  // symbols_ stay put — see header.
}

void DetectionBatch::filter_rows(const std::vector<char>& keep) {
  std::size_t out = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    if (!keep[i]) continue;
    if (out != i) {
      x_[out] = x_[i]; y_[out] = y_[i]; w_[out] = w_[i]; h_[out] = h_[i];
      conf_[out] = conf_[i];
      cls_[out] = cls_[i];
      truth_[out] = truth_[i];
      plate_[out] = plate_[i];
      color_[out] = color_[i];
      feat_len_[out] = feat_len_[i];
      std::copy_n(feat_.data() + i * stride_, stride_,
                  feat_.data() + out * stride_);
    }
    ++out;
  }
  n_ = out;
  x_.resize(out); y_.resize(out); w_.resize(out); h_.resize(out);
  conf_.resize(out);
  cls_.resize(out);
  truth_.resize(out);
  plate_.resize(out);
  color_.resize(out);
  feat_len_.resize(out);
  feat_.resize(out * stride_);
}

}  // namespace privid::cv
