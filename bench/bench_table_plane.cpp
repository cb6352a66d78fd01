// Table data-plane micro-benches: columnar Table vs the row-era layout.
//
// The columnar rewrite replaced `std::vector<Row>` (one heap-allocated
// variant per cell) with typed per-column vectors + interned string
// dictionaries. This bench keeps a faithful copy of the row-era container
// and measures both on the data plane's hot shapes:
//
//   1. append throughput (rows/s) through the validating cell API,
//   2. filter + group-by + SUM scan throughput (rows/s),
//   3. PROCESS-assembly vs row-at-a-time moves: one-chunk task slabs
//      and many-chunk range slabs (trusted cells repeated per chunk),
//      each concatenated into a pre-sized table,
//   4. allocation counts for the same workloads (global operator new).
//
// In-binary gates (exit non-zero on failure), so CI's bench-trend leg
// catches a data-plane regression without parsing output:
//   - numeric append throughput  >= 2x row-era (the acceptance bar; the
//     dominant engine shape — count-style queries emit NUMBER columns)
//   - scan throughput            >= 2x row-era (measured ~10x)
//   - numeric append allocations <= half the row-era count
//   - string append / assemble   >= 1x row-era (no regression; string
//     ingest pays the interning hash per cell, so its win is the 10x scan
//     and the deduplicated footprint, not raw append speed)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "table/aggregate.hpp"
#include "table/ops.hpp"
#include "table/table.hpp"

// ----------------------------------------------------------------------
// Global allocation counter: every operator new in this binary ticks it.
static std::atomic<std::uint64_t> g_allocs{0};

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace privid {
namespace {

// ------------------------------------------------------ row-era layout
// A faithful copy of the pre-columnar Table: schema-validating append
// into std::vector<Row>. Kept here (not in the library) purely as the
// measurement baseline.
class RowTable {
 public:
  explicit RowTable(Schema schema) : schema_(std::move(schema)) {}

  void append(Row row) {
    if (row.size() != schema_.size()) throw TypeError("arity");
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i].type() != schema_.column(i).type) throw TypeError("dtype");
    }
    rows_.push_back(std::move(row));
  }
  void append_unchecked(Row row) { rows_.push_back(std::move(row)); }
  std::size_t row_count() const { return rows_.size(); }
  const Row& row(std::size_t i) const { return rows_[i]; }
  const Schema& schema() const { return schema_; }

 private:
  Schema schema_;
  std::vector<Row> rows_;
};

Schema plane_schema() {
  return Schema({{"plate", DType::kString, Value(std::string())},
                 {"color", DType::kString, Value(std::string())},
                 {"speed", DType::kNumber, Value(0.0)}});
}

struct Workload {
  std::vector<std::string> plates;  // duplicate-heavy pool
  std::vector<const char*> colors;
  std::vector<std::size_t> plate_of;  // per row
  std::vector<std::size_t> color_of;
  std::vector<double> speed_of;
};

Workload make_workload(std::size_t n_rows) {
  Workload w;
  for (int i = 0; i < 1000; ++i) w.plates.push_back("P-" + std::to_string(i));
  w.colors = {"RED", "WHITE", "SILVER", "BLACK"};
  Rng rng(7);
  w.plate_of.reserve(n_rows);
  w.color_of.reserve(n_rows);
  w.speed_of.reserve(n_rows);
  for (std::size_t i = 0; i < n_rows; ++i) {
    w.plate_of.push_back(static_cast<std::size_t>(rng.uniform_int(0, 999)));
    w.color_of.push_back(static_cast<std::size_t>(rng.uniform_int(0, 3)));
    w.speed_of.push_back(rng.uniform(0, 120));
  }
  return w;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Measured {
  double secs = 0;
  std::uint64_t allocs = 0;
};

template <typename Fn>
Measured measure(Fn&& fn) {
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  Measured m;
  m.secs = seconds_since(t0);
  m.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
  return m;
}

// Row-era filter + group-by + SUM: the old select_rows/group loops.
double row_scan(const RowTable& t, double threshold) {
  std::size_t speed = 2, color = 1;
  RowTable filtered(t.schema());
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    if (t.row(r)[speed].as_number() < threshold) {
      filtered.append_unchecked(t.row(r));
    }
  }
  const char* keys[] = {"RED", "WHITE", "SILVER", "BLACK"};
  double total = 0;
  for (const char* k : keys) {
    std::vector<Value> vals;
    for (std::size_t r = 0; r < filtered.row_count(); ++r) {
      if (filtered.row(r)[color] == Value(k)) {
        vals.push_back(filtered.row(r)[speed]);
      }
    }
    total += aggregate_column(AggFunc::kSum, vals);
  }
  return total;
}

// Columnar filter + group-by + SUM through the library's operators.
double columnar_scan(const Table& t, double threshold) {
  std::size_t speed = 2;
  const std::vector<double>& col = t.numbers(speed);
  Table filtered = select_rows(
      t, [&](const RowView& r) { return col[r.index()] < threshold; });
  auto groups = group_by_keys(
      filtered, {"color"},
      {{Value("RED"), Value("WHITE"), Value("SILVER"), Value("BLACK")}});
  double total = 0;
  for (const auto& g : groups) {
    total += aggregate_rows(AggFunc::kSum, filtered, "speed", g.rows);
  }
  return total;
}

}  // namespace
}  // namespace privid

int main() {
  using namespace privid;
  const std::size_t kRows = 1'000'000;
  const std::size_t kSlabRows = 3;  // typical per-chunk output
  Workload w = make_workload(kRows);

  std::printf("table data-plane micro-bench: %zu rows\n", kRows);

  // ---- 0. numeric append (fig-bench shape: PROCESS emits numbers) ----
  Schema num_schema({{"seen", DType::kNumber, Value(0.0)},
                     {"speed", DType::kNumber, Value(0.0)}});
  RowTable row_num(num_schema);
  Measured row_num_append = measure([&] {
    for (std::size_t i = 0; i < kRows; ++i) {
      row_num.append({Value(1.0), Value(w.speed_of[i])});
    }
  });
  Table col_num(num_schema);
  Measured col_num_append = measure([&] {
    col_num.reserve_rows(kRows);
    for (std::size_t base = 0; base < kRows; base += 1024) {
      const std::size_t n = std::min<std::size_t>(1024, kRows - base);
      ColumnSlab batch(num_schema);
      batch.reserve_rows(n);
      for (std::size_t k = 0; k < n; ++k) {
        batch.append_number(0, 1.0);
        batch.append_number(1, w.speed_of[base + k]);
        batch.finish_row();
      }
      col_num.append_slab(batch);
    }
  });
  const double row_num_rps = kRows / row_num_append.secs;
  const double col_num_rps = kRows / col_num_append.secs;
  std::printf("append-num  row: %10.0f rows/s  (%llu allocs)\n", row_num_rps,
              static_cast<unsigned long long>(row_num_append.allocs));
  std::printf("append-num col.: %10.0f rows/s  (%llu allocs)  %.2fx\n",
              col_num_rps,
              static_cast<unsigned long long>(col_num_append.allocs),
              col_num_rps / row_num_rps);

  // ---- 1. append throughput (each plane's native ingest path) --------
  // Row era: materialize a Row of Values and push it (that IS the row
  // store's format). Columnar: typed appends into a batch slab spliced
  // into the table — the PROCESS pipeline's write path.
  RowTable row_table(plane_schema());
  Measured row_append = measure([&] {
    for (std::size_t i = 0; i < kRows; ++i) {
      row_table.append({Value(w.plates[w.plate_of[i]]),
                        Value(w.colors[w.color_of[i]]),
                        Value(w.speed_of[i])});
    }
  });
  Table col_table(plane_schema());
  const std::size_t kBatch = 1024;
  Measured col_append = measure([&] {
    col_table.reserve_rows(kRows);
    Schema slab_schema = plane_schema();
    for (std::size_t base = 0; base < kRows; base += kBatch) {
      const std::size_t n = std::min(kBatch, kRows - base);
      ColumnSlab slab(slab_schema);
      slab.reserve_rows(n);
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = base + k;
        slab.append_string(0, w.plates[w.plate_of[i]]);
        slab.append_string(1, w.colors[w.color_of[i]]);
        slab.append_number(2, w.speed_of[i]);
        slab.finish_row();
      }
      col_table.append_slab(slab);
    }
  });
  const double row_append_rps = kRows / row_append.secs;
  const double col_append_rps = kRows / col_append.secs;
  std::printf("append      row: %10.0f rows/s  (%llu allocs)\n",
              row_append_rps,
              static_cast<unsigned long long>(row_append.allocs));
  std::printf("append  columnar: %10.0f rows/s  (%llu allocs)  %.2fx\n",
              col_append_rps,
              static_cast<unsigned long long>(col_append.allocs),
              col_append_rps / row_append_rps);

  // ---- 2. filter + group-by + SUM scan -------------------------------
  double row_sum = 0, col_sum = 0;
  Measured row_scan_m = measure([&] { row_sum = row_scan(row_table, 60.0); });
  Measured col_scan_m =
      measure([&] { col_sum = columnar_scan(col_table, 60.0); });
  if (row_sum != col_sum) {
    std::printf("FAIL: scan results differ (%f vs %f)\n", row_sum, col_sum);
    return 1;
  }
  const double row_scan_rps = kRows / row_scan_m.secs;
  const double col_scan_rps = kRows / col_scan_m.secs;
  std::printf("scan        row: %10.0f rows/s  (%llu allocs)\n", row_scan_rps,
              static_cast<unsigned long long>(row_scan_m.allocs));
  std::printf("scan    columnar: %10.0f rows/s  (%llu allocs)  %.2fx\n",
              col_scan_rps,
              static_cast<unsigned long long>(col_scan_m.allocs),
              col_scan_rps / row_scan_rps);

  // ---- 3. PROCESS assembly: task and range slabs vs row moves ------
  const std::size_t kChunks = kRows / kSlabRows;
  Schema full = plane_schema()
                    .with_column({kChunkColumn, DType::kNumber, Value(0.0)})
                    .with_column({"camera", DType::kString,
                                  Value(std::string())});
  Measured row_assemble = measure([&] {
    RowTable out(full);
    for (std::size_t c = 0; c < kChunks; ++c) {
      for (std::size_t k = 0; k < kSlabRows; ++k) {
        const std::size_t i = c * kSlabRows + k;
        Row r{Value(w.plates[w.plate_of[i]]), Value(w.colors[w.color_of[i]]),
              Value(w.speed_of[i])};
        r.emplace_back(5.0 * static_cast<double>(c));
        r.emplace_back("cam");
        out.append(std::move(r));
      }
    }
  });
  // Columnar: the engine's range path (PreparedQuery::run_range). Each
  // range slab spans the full schema and holds the cells of
  // `chunks_per_range` chunks, each chunk's trusted cells repeated after
  // its rows; assembly pre-sizes the table once and concatenates the
  // ranges in order (PreparedQuery::assemble).
  auto assemble_ranges = [&](std::size_t chunks_per_range) {
    return measure([&] {
      Table out(full);
      out.reserve_rows(kRows);
      for (std::size_t base = 0; base < kChunks; base += chunks_per_range) {
        ColumnSlab range(full);
        const std::size_t end = std::min(kChunks, base + chunks_per_range);
        for (std::size_t c = base; c < end; ++c) {
          range.reserve_rows(kSlabRows);  // as run_sandboxed does
          for (std::size_t k = 0; k < kSlabRows; ++k) {
            const std::size_t i = c * kSlabRows + k;
            range.append_string(0, w.plates[w.plate_of[i]]);
            range.append_string(1, w.colors[w.color_of[i]]);
            range.append_number(2, w.speed_of[i]);
            range.finish_row();
          }
          range.repeat_number(3, 5.0 * static_cast<double>(c), kSlabRows);
          range.repeat_string(4, "cam", kSlabRows);
        }
        out.append_slab(range);
      }
    });
  };
  // One chunk per range: the service scheduler's run_range(p, t, t + 1).
  Measured task_assemble = assemble_ranges(1);
  // One pool morsel's worth of chunks per range: Executor::run.
  Measured range_assemble = assemble_ranges(kBatch / kSlabRows);
  std::printf("assemble    row: %10.0f rows/s  (%llu allocs)\n",
              kRows / row_assemble.secs,
              static_cast<unsigned long long>(row_assemble.allocs));
  std::printf("assemble   task: %10.0f rows/s  (%llu allocs)  %.2fx\n",
              kRows / task_assemble.secs,
              static_cast<unsigned long long>(task_assemble.allocs),
              row_assemble.secs / task_assemble.secs);
  std::printf("assemble  range: %10.0f rows/s  (%llu allocs)  %.2fx\n",
              kRows / range_assemble.secs,
              static_cast<unsigned long long>(range_assemble.allocs),
              row_assemble.secs / range_assemble.secs);

  // ---- gates ----------------------------------------------------------
  int failures = 0;
  if (col_num_rps < 2.0 * row_num_rps) {
    std::printf("FAIL: columnar numeric append %.2fx row-era (< 2x gate)\n",
                col_num_rps / row_num_rps);
    ++failures;
  }
  if (col_scan_rps < 2.0 * row_scan_rps) {
    std::printf("FAIL: columnar scan %.2fx row-era (< 2x gate)\n",
                col_scan_rps / row_scan_rps);
    ++failures;
  }
  if (col_num_append.allocs * 2 > row_num_append.allocs) {
    std::printf(
        "FAIL: columnar numeric append allocs %llu > half of row-era %llu\n",
        static_cast<unsigned long long>(col_num_append.allocs),
        static_cast<unsigned long long>(row_num_append.allocs));
    ++failures;
  }
  if (col_append_rps < row_append_rps) {
    std::printf("FAIL: columnar string append regressed (%.2fx row-era)\n",
                col_append_rps / row_append_rps);
    ++failures;
  }
  if (task_assemble.secs > row_assemble.secs) {
    std::printf("FAIL: per-task assemble regressed (%.2fx row-era)\n",
                row_assemble.secs / task_assemble.secs);
    ++failures;
  }
  if (range_assemble.secs > row_assemble.secs) {
    std::printf("FAIL: range assemble regressed (%.2fx row-era)\n",
                row_assemble.secs / range_assemble.secs);
    ++failures;
  }
  if (failures == 0) std::printf("all table-plane gates passed\n");
  return failures == 0 ? 0 : 1;
}
