// Intermediate tables — columnar data plane.
//
// A Table is the (untrusted) output of running the analyst's PROCESS
// executable over every chunk of a SPLIT (§6.2). Besides cells and schema
// it carries the provenance metadata the sensitivity calculation needs:
// the chunk duration c_t and per-chunk row cap max_rows_t of Eq. 6.2.
//
// Storage is columnar: one typed vector per schema column — contiguous
// `double`s for NUMBER, 32-bit interned codes plus a StringDict for
// STRING (see table/column.hpp). Rows exist only as views: RowView is a
// cheap (table pointer, index) cursor, and `Row = std::vector<Value>` is
// the materialized form used at the untrusted executable boundary and in
// group keys. Operators that move rows between tables do so with the
// columnar kernels (gather / splice / append_slab), which copy whole
// column ranges and remap string codes once per distinct string instead
// of allocating a variant per cell.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/timeutil.hpp"
#include "table/column.hpp"
#include "table/schema.hpp"

namespace privid {

using Row = std::vector<Value>;

class Table;

// Cheap cursor over one row of a columnar Table. Valid while the table is
// alive and unmodified. operator[] materializes a Value; the typed
// accessors read the column storage directly.
class RowView {
 public:
  RowView(const Table* t, std::size_t row) : t_(t), row_(row) {}

  std::size_t size() const;
  // Materializes the cell (allocates for STRING cells); throws on a bad
  // column index.
  Value operator[](std::size_t col) const;
  Value at(std::size_t col) const { return (*this)[col]; }
  // Typed access; throws TypeError on dtype mismatch.
  double number(std::size_t col) const;
  const std::string& string(std::size_t col) const;

  const Table& table() const { return *t_; }
  std::size_t index() const { return row_; }

 private:
  const Table* t_;
  std::size_t row_;
};

// Provenance carried from PROCESS into the sensitivity rules (§6.3).
struct TableProvenance {
  Seconds chunk_duration = 0;   // c_t: duration of each chunk, seconds
  std::size_t max_rows = 0;     // max_rows_t: per-chunk output row cap
  // When spatial splitting is active, an event can occupy at most this many
  // regions at once (1 unless grid splitting relaxes it; §7.2).
  std::size_t regions_per_event = 1;
};

class Table {
 public:
  Table() = default;
  explicit Table(Schema schema, TableProvenance prov = {});

  const Schema& schema() const { return schema_; }
  const TableProvenance& provenance() const { return prov_; }

  std::size_t row_count() const { return n_rows_; }
  bool empty() const { return n_rows_ == 0; }
  RowView row(std::size_t i) const;

  // Appends a row; throws TypeError if arity or dtypes mismatch. (There
  // is deliberately no unvalidated row append any more: a short or
  // mistyped row would corrupt the column lengths. Operators that move
  // known-good rows use the columnar kernels below instead.)
  void append(Row row);

  // Cell accessors. `at` materializes a Value; the typed accessors read
  // the column storage directly (TypeError on dtype mismatch).
  Value at(std::size_t row, std::size_t col) const;
  Value at(std::size_t row, const std::string& col) const {
    return at(row, schema_.index_of(col));
  }
  double number_at(std::size_t row, std::size_t col) const;
  const std::string& string_at(std::size_t row, std::size_t col) const;

  // Direct column access (TypeError when the dtype does not match).
  const std::vector<double>& numbers(std::size_t col) const;
  const std::vector<std::uint32_t>& codes(std::size_t col) const;
  const StringDict& dict(std::size_t col) const;

  // The entire column as materialized Values (copies).
  std::vector<Value> column_values(const std::string& col) const;
  // The entire row as materialized Values (copies).
  Row materialize_row(std::size_t i) const;

  // ---- columnar kernels -------------------------------------------------
  // All kernels preserve row order; gathers copy column ranges and remap
  // string codes through a per-source-code memo (one intern per distinct
  // string, not per cell).

  // Pre-sizes every column for `n` additional rows.
  void reserve_rows(std::size_t n);

  // Appends src's rows at the given indices. Schemas must have identical
  // dtypes per column (names are not checked — callers construct matching
  // schemas).
  void append_gather(const Table& src, const std::vector<std::size_t>& rows);
  // Appends src rows [begin, end).
  void append_range(const Table& src, std::size_t begin, std::size_t end);
  // Appends all of src (splice).
  void append_table(const Table& src) { append_range(src, 0, src.row_count()); }

  // Gathers src rows into a *column sub-range* of this table:
  // dst columns [dst_col, dst_col + src.schema().size()) receive src's
  // columns. Used by join assembly (a-part then b-part); the caller must
  // gather into every column before the row count is bumped via
  // commit_rows().
  void gather_columns(const Table& src, const std::vector<std::size_t>& rows,
                      std::size_t dst_col);
  // Declares `n` rows appended after out-of-band column fills
  // (gather_columns / copy_column / append_cell). The caller must have
  // filled every column.
  void commit_rows(std::size_t n);

  // Copies src's entire column `src_col` into this table's column
  // `dst_col` (dtype must match). Caller commits rows afterwards.
  void copy_column(const Table& src, std::size_t src_col, std::size_t dst_col);
  // Appends one cell to column `col`; throws TypeError on dtype mismatch.
  // Caller commits rows afterwards.
  void append_cell(std::size_t col, const Value& v);

  // Appends a slab whose columns match the schema one to one (TypeError on
  // an arity or dtype mismatch, or on a column whose cell count is not the
  // slab's row count), interning every dictionary entry of the slab in
  // order (ColumnVec::append_column).
  void append_slab(const ColumnSlab& slab);

  // Renders the first `limit` rows as an aligned ASCII table (debugging).
  std::string to_string(std::size_t limit = 20) const;

 private:
  void check_col_compat(const Table& src, std::size_t dst_col_begin,
                        std::size_t n_cols) const;

  Schema schema_;
  TableProvenance prov_;
  std::size_t n_rows_ = 0;
  std::vector<ColumnVec> cols_;
};

}  // namespace privid
