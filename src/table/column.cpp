#include "table/column.hpp"

#include <algorithm>

#include "common/error.hpp"

// privcheck:allow-file(parallel-hash): StringDict's open-addressing index
// hashes transient string contents to find interning slots — a per-dict,
// in-memory lookup structure, not an identity. Nothing derived from
// std::hash escapes the dict (codes are insertion-ordered), so it cannot
// drift from the canonical common/fingerprint.* content addressing.
namespace privid {

StringDict::StringDict(const StringDict& o)
    : head_(o.head_), tail_(o.tail_), size_(o.size_), slots_(o.slots_) {
  reserve_last_block();
}

StringDict& StringDict::operator=(const StringDict& o) {
  if (this != &o) {
    head_ = o.head_;
    tail_ = o.tail_;
    size_ = o.size_;
    slots_ = o.slots_;
    reserve_last_block();
  }
  return *this;
}

void StringDict::reserve_last_block() {
  if (!tail_.empty()) {
    tail_.back().reserve(kBlock);
  } else if (!head_.empty()) {
    head_.reserve(kHead);
  }
}

const std::string& StringDict::push(std::string_view s) {
  // Each block reserves its fixed capacity up front: strings never move.
  if (size_ < kHead) {
    if (head_.empty()) head_.reserve(kHead);
    ++size_;
    return head_.emplace_back(s);
  }
  if ((size_ - kHead) % kBlock == 0) tail_.emplace_back().reserve(kBlock);
  ++size_;
  return tail_.back().emplace_back(s);
}

// Doubles (or seeds) the slot table and re-inserts every code.
void StringDict::grow_index() {
  const std::size_t cap = slots_.empty() ? 64 : slots_.size() * 2;
  slots_.assign(cap, kEmptySlot);
  const std::size_t mask = cap - 1;
  for (std::size_t i = 0; i < size_; ++i) {
    std::size_t slot =
        std::hash<std::string_view>{}(entry(static_cast<std::uint32_t>(i))) &
        mask;
    while (slots_[slot] != kEmptySlot) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<std::uint32_t>(i);
  }
}

// Probes the slot table for `s`; nullopt when absent.
std::optional<std::uint32_t> StringDict::probe(std::string_view s) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = std::hash<std::string_view>{}(s) & mask;
  while (slots_[slot] != kEmptySlot) {
    const std::uint32_t code = slots_[slot];
    if (entry(code) == s) return code;
    slot = (slot + 1) & mask;
  }
  return std::nullopt;
}

std::uint32_t StringDict::intern(std::string_view s) {
  if (slots_.empty()) {
    for (std::size_t i = 0; i < size_; ++i) {
      if (entry(static_cast<std::uint32_t>(i)) == s) {
        return static_cast<std::uint32_t>(i);
      }
    }
    if (size_ < kLinearLimit) {
      push(s);
      return static_cast<std::uint32_t>(size_ - 1);
    }
    grow_index();
  } else if (auto code = probe(s)) {
    return *code;
  }
  // Keep the load factor below ~3/4 so probes stay short.
  if ((size_ + 1) * 4 >= slots_.size() * 3) grow_index();
  const std::uint32_t code = static_cast<std::uint32_t>(size_);
  push(s);
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = std::hash<std::string_view>{}(s) & mask;
  while (slots_[slot] != kEmptySlot) slot = (slot + 1) & mask;
  slots_[slot] = code;
  return code;
}

std::optional<std::uint32_t> StringDict::find(std::string_view s) const {
  if (slots_.empty()) {
    for (std::size_t i = 0; i < size_; ++i) {
      if (entry(static_cast<std::uint32_t>(i)) == s) {
        return static_cast<std::uint32_t>(i);
      }
    }
    return std::nullopt;
  }
  return probe(s);
}

std::size_t StringDict::bytes() const {
  std::size_t n = 0;
  for (std::uint32_t code = 0; code < size_; ++code) {
    // One stored string + its index / code-table slots.
    n += entry(code).size() + sizeof(std::string) + sizeof(std::uint32_t) +
         sizeof(const std::string*);
  }
  return n;
}

std::size_t ColumnVec::bytes() const {
  if (type == DType::kNumber) return nums.size() * sizeof(double);
  return codes.size() * sizeof(std::uint32_t) + dict.bytes();
}

namespace {
constexpr std::uint32_t kNoCode = 0xFFFFFFFFu;

// Per-source-code translation memo for moving a string column across
// dictionaries: one intern per distinct source string.
class CodeRemap {
 public:
  CodeRemap(const StringDict& src, StringDict* dst)
      : src_(src), dst_(dst), map_(src.size(), kNoCode) {}

  std::uint32_t operator()(std::uint32_t src_code) {
    std::uint32_t& m = map_[src_code];
    if (m == kNoCode) m = dst_->intern(src_.at(src_code));
    return m;
  }

 private:
  const StringDict& src_;
  StringDict* dst_;
  std::vector<std::uint32_t> map_;
};
}  // namespace

void ColumnVec::append_range_from(const ColumnVec& src, std::size_t begin,
                                  std::size_t end) {
  if (type == DType::kNumber) {
    nums.insert(nums.end(), src.nums.begin() + begin, src.nums.begin() + end);
  } else {
    CodeRemap remap(src.dict, &dict);
    for (std::size_t r = begin; r < end; ++r) {
      codes.push_back(remap(src.codes[r]));
    }
  }
}

void ColumnVec::append_gather_from(const ColumnVec& src,
                                   const std::vector<std::size_t>& rows) {
  if (type == DType::kNumber) {
    for (std::size_t r : rows) nums.push_back(src.nums[r]);
  } else {
    CodeRemap remap(src.dict, &dict);
    for (std::size_t r : rows) codes.push_back(remap(src.codes[r]));
  }
}

void ColumnVec::append_column(const ColumnVec& src) {
  if (type == DType::kNumber) {
    nums.insert(nums.end(), src.nums.begin(), src.nums.end());
    return;
  }
  // A task or range slab's dictionary rarely holds more than a handful
  // of strings: remap those through the stack, not a heap vector per
  // column of every appended slab.
  constexpr std::size_t kInlineMap = 32;
  std::uint32_t inline_map[kInlineMap];
  std::vector<std::uint32_t> heap_map;
  std::uint32_t* map = inline_map;
  if (src.dict.size() > kInlineMap) {
    heap_map.resize(src.dict.size());
    map = heap_map.data();
  }
  for (std::uint32_t code = 0; code < src.dict.size(); ++code) {
    map[code] = dict.intern(src.dict.at(code));
  }
  const std::size_t base = codes.size();
  codes.resize(base + src.codes.size());
  for (std::size_t r = 0; r < src.codes.size(); ++r) {
    codes[base + r] = map[src.codes[r]];
  }
}

ColumnSlab ColumnSlab::from_columns(std::vector<ColumnVec> cols,
                                    std::size_t n_rows) {
  for (const ColumnVec& col : cols) {
    if (col.cell_count() != n_rows) {
      throw ArgumentError("ColumnSlab::from_columns: column cell count does "
                          "not match n_rows");
    }
  }
  ColumnSlab slab;
  slab.cols_ = std::move(cols);
  slab.n_rows_ = n_rows;
  return slab;
}

ColumnSlab::ColumnSlab(const Schema& schema) {
  cols_.resize(schema.size());
  for (std::size_t c = 0; c < schema.size(); ++c) {
    cols_[c].type = schema.column(c).type;
  }
}

void ColumnSlab::reserve_rows(std::size_t n) {
  auto grow = [n](auto& cells) {
    const std::size_t need = cells.size() + n;
    if (need > cells.capacity()) {
      cells.reserve(std::max(need, 2 * cells.capacity()));
    }
  };
  for (ColumnVec& col : cols_) {
    if (col.type == DType::kNumber) {
      grow(col.nums);
    } else {
      grow(col.codes);
    }
  }
}

void ColumnSlab::append_value(std::size_t c, const Value& v) {
  ColumnVec& col = cols_.at(c);
  if (v.type() != col.type) {
    throw TypeError("slab column expects " + dtype_name(col.type) + ", got " +
                    dtype_name(v.type()));
  }
  if (col.type == DType::kNumber) {
    col.nums.push_back(v.as_number());
  } else {
    col.codes.push_back(col.dict.intern(v.as_string()));
  }
}

void ColumnSlab::append_rows(const ColumnSlab& src) {
  if (src.column_count() > cols_.size()) {
    throw TypeError("append_rows: source slab has more columns");
  }
  for (std::size_t c = 0; c < src.column_count(); ++c) {
    const ColumnVec& s = src.cols_[c];
    if (s.type != cols_[c].type) {
      throw TypeError("append_rows: column dtype mismatch");
    }
    cols_[c].append_range_from(s, 0, s.cell_count());
  }
  n_rows_ += src.row_count();
}

void ColumnSlab::repeat_number(std::size_t c, double v, std::size_t n) {
  ColumnVec& col = cols_.at(c);
  if (col.type != DType::kNumber) throw TypeError("slab column is STRING");
  col.nums.insert(col.nums.end(), n, v);
}

void ColumnSlab::repeat_string(std::size_t c, std::string_view s,
                               std::size_t n) {
  ColumnVec& col = cols_.at(c);
  if (col.type != DType::kString) throw TypeError("slab column is NUMBER");
  col.codes.insert(col.codes.end(), n, col.dict.intern(s));
}

Value ColumnSlab::value_at(std::size_t row, std::size_t col) const {
  const ColumnVec& c = cols_.at(col);
  if (c.type == DType::kNumber) return Value(c.nums.at(row));
  return Value(c.dict.at(c.codes.at(row)));
}

double ColumnSlab::number_at(std::size_t row, std::size_t col) const {
  const ColumnVec& c = cols_.at(col);
  if (c.type != DType::kNumber) {
    throw TypeError("value is STRING, expected NUMBER");
  }
  return c.nums.at(row);
}

const std::string& ColumnSlab::string_at(std::size_t row,
                                         std::size_t col) const {
  const ColumnVec& c = cols_.at(col);
  if (c.type != DType::kString) {
    throw TypeError("value is NUMBER, expected STRING");
  }
  return c.dict.at(c.codes.at(row));
}

std::size_t ColumnSlab::bytes() const {
  std::size_t n = sizeof(ColumnSlab) + cols_.size() * sizeof(ColumnVec);
  for (const ColumnVec& col : cols_) n += col.bytes();
  return n;
}

}  // namespace privid
