#include "table/table.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace privid {

std::size_t RowView::size() const { return t_->schema().size(); }

Value RowView::operator[](std::size_t col) const { return t_->at(row_, col); }

double RowView::number(std::size_t col) const {
  return t_->number_at(row_, col);
}

const std::string& RowView::string(std::size_t col) const {
  return t_->string_at(row_, col);
}

Table::Table(Schema schema, TableProvenance prov)
    : schema_(std::move(schema)), prov_(prov) {
  cols_.resize(schema_.size());
  for (std::size_t c = 0; c < schema_.size(); ++c) {
    cols_[c].type = schema_.column(c).type;
  }
}

RowView Table::row(std::size_t i) const {
  if (i >= n_rows_) throw ArgumentError("row index out of range");
  return RowView(this, i);
}

void Table::append(Row row) {
  if (row.size() != schema_.size()) {
    throw TypeError("row arity " + std::to_string(row.size()) +
                    " does not match schema arity " +
                    std::to_string(schema_.size()));
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i].type() != schema_.column(i).type) {
      throw TypeError("column '" + schema_.column(i).name + "' expects " +
                      dtype_name(schema_.column(i).type) + ", got " +
                      dtype_name(row[i].type()));
    }
  }
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    ColumnVec& col = cols_[c];
    if (col.type == DType::kNumber) {
      col.nums.push_back(row[c].as_number());
    } else {
      col.codes.push_back(col.dict.intern(row[c].as_string()));
    }
  }
  ++n_rows_;
}

Value Table::at(std::size_t row, std::size_t col) const {
  const ColumnVec& c = cols_.at(col);
  if (c.type == DType::kNumber) return Value(c.nums.at(row));
  return Value(c.dict.at(c.codes.at(row)));
}

double Table::number_at(std::size_t row, std::size_t col) const {
  const ColumnVec& c = cols_.at(col);
  if (c.type != DType::kNumber) {
    throw TypeError("value is STRING, expected NUMBER");
  }
  return c.nums.at(row);
}

const std::string& Table::string_at(std::size_t row, std::size_t col) const {
  const ColumnVec& c = cols_.at(col);
  if (c.type != DType::kString) {
    throw TypeError("value is NUMBER, expected STRING");
  }
  return c.dict.at(c.codes.at(row));
}

const std::vector<double>& Table::numbers(std::size_t col) const {
  const ColumnVec& c = cols_.at(col);
  if (c.type != DType::kNumber) {
    throw TypeError("column is STRING, expected NUMBER");
  }
  return c.nums;
}

const std::vector<std::uint32_t>& Table::codes(std::size_t col) const {
  const ColumnVec& c = cols_.at(col);
  if (c.type != DType::kString) {
    throw TypeError("column is NUMBER, expected STRING");
  }
  return c.codes;
}

const StringDict& Table::dict(std::size_t col) const {
  const ColumnVec& c = cols_.at(col);
  if (c.type != DType::kString) {
    throw TypeError("column is NUMBER, expected STRING");
  }
  return c.dict;
}

std::vector<Value> Table::column_values(const std::string& col) const {
  std::size_t idx = schema_.index_of(col);
  std::vector<Value> out;
  out.reserve(n_rows_);
  for (std::size_t r = 0; r < n_rows_; ++r) out.push_back(at(r, idx));
  return out;
}

Row Table::materialize_row(std::size_t i) const {
  Row out;
  out.reserve(schema_.size());
  for (std::size_t c = 0; c < schema_.size(); ++c) out.push_back(at(i, c));
  return out;
}

void Table::reserve_rows(std::size_t n) {
  for (ColumnVec& col : cols_) {
    if (col.type == DType::kNumber) {
      col.nums.reserve(col.nums.size() + n);
    } else {
      col.codes.reserve(col.codes.size() + n);
    }
  }
}

void Table::check_col_compat(const Table& src, std::size_t dst_col_begin,
                             std::size_t n_cols) const {
  if (dst_col_begin + n_cols > cols_.size()) {
    throw TypeError("gather: destination column range out of bounds");
  }
  for (std::size_t c = 0; c < n_cols; ++c) {
    if (src.cols_[c].type != cols_[dst_col_begin + c].type) {
      throw TypeError("gather: column dtype mismatch");
    }
  }
}

void Table::append_gather(const Table& src,
                          const std::vector<std::size_t>& rows) {
  check_col_compat(src, 0, src.cols_.size());
  if (src.cols_.size() != cols_.size()) {
    throw TypeError("gather: column arity mismatch");
  }
  gather_columns(src, rows, 0);
  commit_rows(rows.size());
}

void Table::append_range(const Table& src, std::size_t begin,
                         std::size_t end) {
  check_col_compat(src, 0, src.cols_.size());
  if (src.cols_.size() != cols_.size()) {
    throw TypeError("gather: column arity mismatch");
  }
  const std::size_t n = end > begin ? end - begin : 0;
  reserve_rows(n);
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].append_range_from(src.cols_[c], begin, end);
  }
  n_rows_ += n;
}

void Table::gather_columns(const Table& src,
                           const std::vector<std::size_t>& rows,
                           std::size_t dst_col) {
  check_col_compat(src, dst_col, src.cols_.size());
  for (std::size_t c = 0; c < src.cols_.size(); ++c) {
    ColumnVec& d = cols_[dst_col + c];
    // Exact reserve only on a fresh column (the common gather-into-new-
    // table case); growing columns keep geometric growth so repeated
    // gathers stay amortized-linear.
    if (d.cell_count() == 0) {
      if (d.type == DType::kNumber) {
        d.nums.reserve(rows.size());
      } else {
        d.codes.reserve(rows.size());
      }
    }
    d.append_gather_from(src.cols_[c], rows);
  }
}

void Table::commit_rows(std::size_t n) { n_rows_ += n; }

void Table::copy_column(const Table& src, std::size_t src_col,
                        std::size_t dst_col) {
  const ColumnVec& s = src.cols_.at(src_col);
  ColumnVec& d = cols_.at(dst_col);
  if (s.type != d.type) throw TypeError("copy_column: dtype mismatch");
  d.append_range_from(s, 0, s.cell_count());
}

void Table::append_cell(std::size_t col, const Value& v) {
  ColumnVec& d = cols_.at(col);
  if (v.type() != d.type) {
    throw TypeError("column '" + schema_.column(col).name + "' expects " +
                    dtype_name(d.type) + ", got " + dtype_name(v.type()));
  }
  if (d.type == DType::kNumber) {
    d.nums.push_back(v.as_number());
  } else {
    d.codes.push_back(d.dict.intern(v.as_string()));
  }
}

void Table::append_slab(const ColumnSlab& slab) {
  if (slab.column_count() != schema_.size()) {
    throw TypeError("append_slab: slab arity does not match schema");
  }
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    if (slab.column(c).type != cols_[c].type) {
      throw TypeError("append_slab: column dtype mismatch");
    }
    if (slab.column(c).cell_count() != slab.row_count()) {
      throw TypeError("append_slab: column cell count does not match rows");
    }
  }
  // No per-splice reserve: an exact-capacity reserve on every slab would
  // defeat the vectors' geometric growth and turn repeated splices
  // quadratic. Callers that know the total (PreparedQuery::assemble)
  // pre-size once via reserve_rows.
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].append_column(slab.column(c));
  }
  n_rows_ += slab.row_count();
}

std::string Table::to_string(std::size_t limit) const {
  std::ostringstream os;
  std::vector<std::size_t> widths;
  for (const auto& c : schema_.columns()) widths.push_back(c.name.size());
  std::size_t n = std::min(limit, n_rows_);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < schema_.size(); ++c) {
      widths[c] = std::max(widths[c], at(r, c).to_string().size());
    }
  }
  for (std::size_t c = 0; c < schema_.size(); ++c) {
    os << (c ? " | " : "") << schema_.column(c).name
       << std::string(widths[c] - schema_.column(c).name.size(), ' ');
  }
  os << "\n";
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < schema_.size(); ++c) {
      std::string s = at(r, c).to_string();
      os << (c ? " | " : "") << s << std::string(widths[c] - s.size(), ' ');
    }
    os << "\n";
  }
  if (n_rows_ > n) {
    os << "... (" << n_rows_ - n << " more rows)\n";
  }
  return os.str();
}

}  // namespace privid
