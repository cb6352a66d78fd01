// Columnar storage primitives for the intermediate-table data plane.
//
// The engine's per-chunk outputs and intermediate tables used to be
// row-oriented (`std::vector<Row>` with one heap-allocated variant per
// cell). Both are columnar now:
//
//   - StringDict interns a STRING column's distinct values; the column
//     itself stores 32-bit codes, so duplicate-heavy columns (plates,
//     colors, region names) cost four bytes per cell plus one copy of
//     each distinct string.
//   - ColumnSlab is a typed table fragment: per-column vectors (doubles
//     for NUMBER, codes+dict for STRING). One PROCESS task's sandboxed
//     rows are a slab over the analyst schema; they flow from the sandbox
//     through the chunk cache and single-flight registry. A run of a
//     phase's tasks appends its rows, trusted cells included, into one
//     slab over the table's full schema, and assembly concatenates those
//     range slabs — column by column, not cell by cell — into the Table.
//
// Cell values cross these containers as raw typed data; `Value` only
// materializes at the edges (expression evaluation, report rendering).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "table/schema.hpp"
#include "table/value.hpp"

namespace privid {

// Interning dictionary for one STRING column. Codes are dense and assigned
// in first-appearance order, so two containers filled with the same cell
// sequence have identical code streams — which keeps fingerprints, caches
// and cross-thread assembly deterministic.
//
// Storage is chunked (fixed-capacity blocks that never reallocate, so
// `at()` references survive later interns) and fully lazy — an unused
// dictionary, e.g. on a NUMBER column, allocates nothing. The first block
// holds 4 strings and later ones 16, so a task slab's dictionary — the
// service keeps one per string column of every task until its query
// settles — is usually one small allocation. Low-cardinality columns —
// per-chunk PROCESS slabs rarely see more than a handful of distinct
// strings — are served by a linear scan with zero index overhead; the hash
// index is built lazily once the dictionary outgrows the linear limit.
class StringDict {
 public:
  StringDict() = default;
  // Copies must restore the last block's reserved capacity: a plain
  // vector copy shrinks it to its size, and the next intern into the
  // copy would then reallocate the block and dangle at() references.
  StringDict(const StringDict& o);
  StringDict& operator=(const StringDict& o);
  StringDict(StringDict&&) noexcept = default;
  StringDict& operator=(StringDict&&) noexcept = default;

  // Returns the code for `s`, inserting it if new.
  std::uint32_t intern(std::string_view s);
  // Lookup without insertion.
  std::optional<std::uint32_t> find(std::string_view s) const;
  // The string behind a code (valid for the dict's lifetime).
  const std::string& at(std::uint32_t code) const {
    if (code >= size_) throw std::out_of_range("StringDict code");
    return entry(code);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Estimated heap footprint: one copy of each distinct string plus
  // per-entry container overhead. Used by the chunk cache's byte budget.
  std::size_t bytes() const;

 private:
  // Codes [0, kHead) live in head_; code c >= kHead in tail block
  // (c - kHead) / kBlock.
  static constexpr std::size_t kHead = 4;
  static constexpr std::size_t kBlock = 16;
  const std::string& entry(std::uint32_t code) const {
    if (code < kHead) return head_[code];
    const std::size_t t = code - kHead;
    return tail_[t / kBlock][t % kBlock];
  }
  // Restores the reserved capacity a plain vector copy drops.
  void reserve_last_block();
  void grow_index();
  const std::string& push(std::string_view s);
  std::optional<std::uint32_t> probe(std::string_view s) const;

  static constexpr std::size_t kLinearLimit = 16;
  static constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;
  // code -> string, in fixed-capacity blocks: each reserves its capacity
  // once and never grows, so the strings never move even as the outer
  // vector reallocates.
  std::vector<std::string> head_;
  std::vector<std::vector<std::string>> tail_;
  std::size_t size_ = 0;
  // Open-addressing index of codes (power-of-two capacity, linear
  // probing, no per-entry nodes). Empty while size_ <= kLinearLimit
  // (linear-scan mode).
  std::vector<std::uint32_t> slots_;
};

// One typed column: exactly one of nums/codes is populated per `type`.
struct ColumnVec {
  DType type = DType::kNumber;
  std::vector<double> nums;         // NUMBER cells
  std::vector<std::uint32_t> codes; // STRING cells (codes into dict)
  StringDict dict;

  std::size_t cell_count() const {
    return type == DType::kNumber ? nums.size() : codes.size();
  }
  // Estimated heap footprint of the cells (+ dictionary for strings).
  std::size_t bytes() const;

  // The one implementation of cross-container cell movement: every table
  // splice/gather funnels through these two, so string-code remapping
  // (one intern per distinct source string) cannot diverge between call
  // sites. Dtypes must match; the caller checks.
  // Appends src's cells [begin, end).
  void append_range_from(const ColumnVec& src, std::size_t begin,
                         std::size_t end);
  // Appends src's cells at `rows`, in order.
  void append_gather_from(const ColumnVec& src,
                          const std::vector<std::size_t>& rows);
  // Appends all of src's cells after interning every entry of src's
  // dictionary in dictionary order, including entries no cell uses. So
  // appending the parts of a concatenation leaves the same dictionary as
  // appending the cells one part at a time would have.
  void append_column(const ColumnVec& src);
};

// A columnar table fragment without schema names. A PROCESS task's slab
// holds its sandboxed rows over the declared analyst columns (that is what
// the cache stores); a range slab (engine/executor.hpp) spans a phase
// table's full schema, the trusted chunk/region/camera columns included.
class ColumnSlab {
 public:
  ColumnSlab() = default;
  // One (empty) column per schema column, in schema order.
  explicit ColumnSlab(const Schema& schema);

  // Rebuilds a slab from externally produced typed columns — the
  // deserialization path (table/slab_io.*). Throws ArgumentError when any
  // column's cell count differs from `n_rows`.
  static ColumnSlab from_columns(std::vector<ColumnVec> cols,
                                 std::size_t n_rows);

  std::size_t column_count() const { return cols_.size(); }
  std::size_t row_count() const { return n_rows_; }
  bool empty() const { return n_rows_ == 0; }

  const ColumnVec& column(std::size_t c) const { return cols_.at(c); }

  // Makes room for `n` more rows in every column. Growth stays geometric,
  // so a range that reserves once per task appends in amortized O(1).
  void reserve_rows(std::size_t n);

  // Typed appends. Callers fill every column for a row, then finish_row().
  void append_number(std::size_t c, double v) { cols_[c].nums.push_back(v); }
  void append_string(std::size_t c, std::string_view s) {
    ColumnVec& col = cols_[c];
    col.codes.push_back(col.dict.intern(s));
  }
  // Appends the cell of `v` to column `c`; throws TypeError on dtype
  // mismatch with the column.
  void append_value(std::size_t c, const Value& v);
  void finish_row() { ++n_rows_; }

  // Appends src's rows to this slab's first src.column_count() columns and
  // counts them (TypeError on a dtype mismatch). Like finish_row, the rows
  // count at once; a wider slab's remaining columns are the caller's to
  // fill for them.
  void append_rows(const ColumnSlab& src);
  // Appends `n` copies of one cell to column c, leaving the row count
  // alone. The string is interned even when n is 0, so a zero-row task
  // still leaves its trusted region/camera entry in the dictionary.
  void repeat_number(std::size_t c, double v, std::size_t n);
  void repeat_string(std::size_t c, std::string_view s, std::size_t n);

  // Cell accessors (materializing / typed).
  Value value_at(std::size_t row, std::size_t col) const;
  double number_at(std::size_t row, std::size_t col) const;
  const std::string& string_at(std::size_t row, std::size_t col) const;

  // Estimated heap footprint of all columns (cache byte accounting).
  std::size_t bytes() const;

 private:
  std::vector<ColumnVec> cols_;
  std::size_t n_rows_ = 0;
};

}  // namespace privid
