// Micro-benchmarks (google-benchmark): hot paths of the Privid pipeline
// that no other bench times in isolation — Laplace sampling, budget
// ledger operations, sensitivity computation, keyed group-by, chunking.
// Table append/scan/interning are timed by bench_table_plane and query
// parsing by perfbench (query.parse_ms).
#include <benchmark/benchmark.h>

#include "common/interval_map.hpp"
#include "common/rng.hpp"
#include "privacy/budget.hpp"
#include "privacy/laplace.hpp"
#include "query/parser.hpp"
#include "sensitivity/rules.hpp"
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

BENCHMARK_MAIN();
