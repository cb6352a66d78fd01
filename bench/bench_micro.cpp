// Micro-benchmarks (google-benchmark): the hot paths of the Privid
// pipeline — Laplace sampling, budget ledger operations, sensitivity
// computation, relational operators, chunking.
#include <benchmark/benchmark.h>

#include "common/interval_map.hpp"
#include "common/rng.hpp"
#include "privacy/budget.hpp"
#include "privacy/laplace.hpp"
#include "query/parser.hpp"
#include "sensitivity/rules.hpp"
#include "table/aggregate.hpp"
#include "table/column.hpp"
#include "table/ops.hpp"
#include "video/chunker.hpp"

using namespace privid;

static void BM_LaplaceSample(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LaplaceMechanism::release(100.0, 10.0, 1.0, rng));
  }
}
BENCHMARK(BM_LaplaceSample);

static void BM_BudgetCharge(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    BudgetLedger ledger(1e9);
    state.ResumeTiming();
    for (int i = 0; i < 100; ++i) {
      benchmark::DoNotOptimize(
          ledger.try_reserve({i * 1000, i * 1000 + 500}, 50, 1.0));
    }
  }
}
BENCHMARK(BM_BudgetCharge);

static void BM_IntervalMapAdd(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    IntervalMap m;
    for (int i = 0; i < 1000; ++i) {
      std::int64_t a = rng.uniform_int(0, 1000000);
      m.add(a, a + rng.uniform_int(1, 10000), 0.5);
    }
    benchmark::DoNotOptimize(m.breakpoint_count());
  }
}
BENCHMARK(BM_IntervalMapAdd);

static void BM_SensitivityComputation(benchmark::State& state) {
  auto q = query::parse_query(
      "SPLIT cam BEGIN 0 END 500 BY TIME 5 STRIDE 0 INTO c;"
      "PROCESS c USING e TIMEOUT 1 PRODUCING 10 ROWS "
      "WITH SCHEMA (plate:STRING, speed:NUMBER) INTO t;"
      "SELECT AVG(range(speed, 0, 60)) FROM t;");
  sensitivity::SensitivityEngine eng([](const std::string&) {
    sensitivity::TableInfo i;
    i.chunk_seconds = 5;
    i.max_rows = 10;
    i.num_chunks = 100;
    i.policy = {30, 2};
    return i;
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eng.release_sensitivity(q.selects[0].core.projections[0],
                                q.selects[0].core));
  }
}
BENCHMARK(BM_SensitivityComputation);

static void BM_QueryParse(benchmark::State& state) {
  const std::string text =
      "SPLIT camA BEGIN 0 END 2678400 BY TIME 5 STRIDE 0 INTO chunksA;"
      "PROCESS chunksA USING model TIMEOUT 1 PRODUCING 10 ROWS "
      "WITH SCHEMA (plate:STRING=\"\", color:STRING=\"\", speed:NUMBER=0) "
      "INTO tableA;"
      "SELECT AVG(range(speed, 30, 60)) FROM tableA;"
      "SELECT color, COUNT(plate) FROM (SELECT plate, color FROM tableA) "
      "GROUP BY color WITH KEYS [\"RED\", \"WHITE\", \"SILVER\"];";
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::parse_query(text));
  }
}
BENCHMARK(BM_QueryParse);

static void BM_MakeChunks(benchmark::State& state) {
  VideoMeta m;
  m.fps = 30;
  m.extent = {0, 12 * 3600.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_chunks(m, {0, 12 * 3600.0}, {5, 0}));
  }
}
BENCHMARK(BM_MakeChunks);

static void BM_GroupByKeys(benchmark::State& state) {
  Schema s({{"color", DType::kString, Value(std::string())},
            {"v", DType::kNumber, Value(0.0)}});
  Table t(s);
  Rng rng(3);
  const char* colors[] = {"RED", "WHITE", "SILVER", "BLACK"};
  for (int i = 0; i < 10000; ++i) {
    t.append({Value(colors[rng.uniform_int(0, 3)]), Value(rng.uniform())});
  }
  std::vector<std::vector<Value>> keys{
      {Value("RED"), Value("WHITE"), Value("SILVER"), Value("BLACK")}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(group_by_keys(t, {"color"}, keys));
  }
}
BENCHMARK(BM_GroupByKeys);

// ---- columnar table data plane (see also bench_table_plane.cpp, which
// ---- gates these paths against a row-era baseline in the trend job)

static void BM_TableAppendNumericSlab(benchmark::State& state) {
  // The PROCESS ingest path: typed appends into a pre-sized slab, spliced
  // into the table.
  Schema s({{"seen", DType::kNumber, Value(0.0)},
            {"speed", DType::kNumber, Value(0.0)}});
  Rng rng(5);
  std::vector<double> speeds(4096);
  for (auto& x : speeds) x = rng.uniform(0, 120);
  for (auto _ : state) {
    Table t(s);
    t.reserve_rows(speeds.size());
    ColumnSlab slab(s);
    slab.reserve(speeds.size());
    for (double x : speeds) {
      slab.append_number(0, 1.0);
      slab.append_number(1, x);
      slab.finish_row();
    }
    t.append_slab(slab, {});
    benchmark::DoNotOptimize(t.row_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(speeds.size()));
}
BENCHMARK(BM_TableAppendNumericSlab);

static void BM_TableFilterGroupScan(benchmark::State& state) {
  Schema s({{"color", DType::kString, Value(std::string())},
            {"v", DType::kNumber, Value(0.0)}});
  Table t(s);
  Rng rng(3);
  const char* colors[] = {"RED", "WHITE", "SILVER", "BLACK"};
  for (int i = 0; i < 100000; ++i) {
    t.append({Value(colors[rng.uniform_int(0, 3)]), Value(rng.uniform())});
  }
  std::vector<std::vector<Value>> keys{
      {Value("RED"), Value("WHITE"), Value("SILVER"), Value("BLACK")}};
  const std::vector<double>& v = t.numbers(1);
  for (auto _ : state) {
    Table kept = select_rows(
        t, [&](const RowView& r) { return v[r.index()] < 0.5; });
    auto groups = group_by_keys(kept, {"color"}, keys);
    double total = 0;
    for (const auto& g : groups) {
      total += aggregate_rows(AggFunc::kSum, kept, "v", g.rows);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_TableFilterGroupScan);

static void BM_StringDictIntern(benchmark::State& state) {
  std::vector<std::string> pool;
  for (int i = 0; i < 1000; ++i) pool.push_back("P-" + std::to_string(i));
  for (auto _ : state) {
    StringDict d;
    for (int rep = 0; rep < 4; ++rep) {
      for (const auto& s : pool) benchmark::DoNotOptimize(d.intern(s));
    }
  }
  state.SetItemsProcessed(state.iterations() * 4000);
}
BENCHMARK(BM_StringDictIntern);

BENCHMARK_MAIN();
