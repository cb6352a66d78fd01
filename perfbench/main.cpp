// The benchmark program: runs one workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--threads <n>] [--setup-reps <n>] [--expect-digest <hex>]
//             [--out <file>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (see README.md). --out also writes every metric, the
// layer breakdown and the run's top layer to a file.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Layer;
using perfbench::Report;

// Linear interpolation between closest ranks; 0 for no samples.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// A tail percentile is reported only with at least ten samples beyond it.
double tail(const std::vector<double>& v, double p) {
  const double beyond = (1 - p) * static_cast<double>(v.size());
  return beyond + 1e-9 >= 10 ? percentile(v, p) : 0;
}

// Query latency percentile, robust to a host stall in part of the run: the
// latencies (in completion order) are cut into windows of at least 100, the
// percentile is taken per window and the median over windows reported.
double query_percentile(const std::vector<double>& v, double p) {
  constexpr std::size_t kWindow = 100;
  if (v.size() < kWindow) return p > 0.5 ? tail(v, p) : percentile(v, p);
  const std::size_t windows = v.size() / kWindow;
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    per_window.push_back(percentile(
        std::vector<double>(v.begin() + w * v.size() / windows,
                            v.begin() + (w + 1) * v.size() / windows),
        p));
  }
  return percentile(per_window, 0.5);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Registry reads as deltas over the timed window.
struct Delta {
  const privid::obs::Snapshot& b;
  const privid::obs::Snapshot& a;

  double counter(const std::string& n) const {
    return static_cast<double>(a.counter_value(n) - b.counter_value(n));
  }
  double hist_count(const std::string& n) const {
    return static_cast<double>(count(a, n) - count(b, n));
  }
  double hist_s(const std::string& n) const {
    return (total_ms(a, n) - total_ms(b, n)) / 1e3;
  }
  // Percentiles are cumulative since the component was built (set-up's
  // warm-up included): the registry keeps no per-window buckets.
  double hist_p(const std::string& n, double p) const {
    const auto* row = a.histogram_row(n);
    if (!row) return 0;
    return p >= 0.99 ? row->p99_ms : p >= 0.9 ? row->p90_ms : row->p50_ms;
  }

 private:
  static std::uint64_t count(const privid::obs::Snapshot& s,
                             const std::string& n) {
    const auto* row = s.histogram_row(n);
    return row ? row->count : 0;
  }
  static double total_ms(const privid::obs::Snapshot& s,
                         const std::string& n) {
    const auto* row = s.histogram_row(n);
    return row ? row->total_ms : 0;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> end_to_end(const Report& r) {
  return {
      {"setup_s", percentile(r.setup_s, 0.5), "s"},
      {"video_s_per_s", ratio(r.video_s, r.wall_s), "s/s"},
      {"query_ms_p50", query_percentile(r.latency_ms, 0.5), "ms"},
      {"query_ms_p90", query_percentile(r.latency_ms, 0.9), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

struct LayerShare {
  std::string name;
  double busy_s;
};

// Busy seconds per layer group, largest first.
std::vector<LayerShare> layer_groups(const std::vector<Metric>& m) {
  std::map<std::string, double> v;
  for (const Metric& x : m) v[x.name] = x.value;
  std::vector<LayerShare> out = {
      {"cv", v["cv.detect_busy_s"] + v["cv.track_busy_s"]},
      {"analyst", v["analyst.exec_self_s"]},
      {"sim", v["sim.visits_busy_s"]},
      {"engine", v["engine.task_overhead_s"] + v["engine.assemble_s"] +
                     v["engine.finish_s"]},
      {"query", v["query.parse_s"]},
      {"service", v["service.submit_s"]},
  };
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    return x.busy_s > y.busy_s;
  });
  return out;
}

std::vector<Metric> per_layer(const Report& r) {
  const Delta d{r.before, r.after};
  auto span = [&](Layer l) { return r.spans[static_cast<std::size_t>(l)]; };
  const double task_busy = d.hist_s("task.process");
  const double exec_busy = span(Layer::kExec).busy_s;
  const double hits = d.counter("cache.hits");
  const double misses = d.counter("cache.misses");
  const double leaders = d.counter("dedup.leaders");
  const double followers = d.counter("dedup.followers");
  const double pooled = d.counter("pool.items");
  const double inlined = d.counter("pool.inline_items");
  return {
      {"setup.sim_s", percentile(r.sim_s, 0.5), "s"},
      {"setup.register_s", percentile(r.register_s, 0.5), "s"},
      {"setup.warmup_s", percentile(r.warmup_s, 0.5), "s"},
      {"query.samples", static_cast<double>(r.latency_ms.size()), "count"},
      {"query.parse_ms", percentile(r.parse_ms, 0.5), "ms"},
      {"query.parse_s", span(Layer::kParse).busy_s, "s"},
      {"trace.query_ms_p50", query_percentile(r.latency_ms, 0.5), "ms"},
      {"loadgen.query_ms_p99", tail(r.latency_ms, 0.99), "ms"},
      {"service.submit_ms_p50", percentile(r.submit_ms, 0.5), "ms"},
      {"service.submit_ms_p99", tail(r.submit_ms, 0.99), "ms"},
      {"service.submit_s", span(Layer::kSubmit).busy_s, "s"},
      {"sched.queue_wait_ms_p50", d.hist_p("sched.queue_wait", 0.5), "ms"},
      {"sched.queue_wait_ms_p99", d.hist_p("sched.queue_wait", 0.99), "ms"},
      {"sched.tasks_per_round",
       ratio(d.counter("sched.tasks_run"), d.counter("sched.rounds")),
       "count"},
      {"admission.reserved", d.counter("admission.reserved"), "count"},
      {"admission.rejected", d.counter("admission.rejected"), "count"},
      {"engine.tasks", d.hist_count("task.process"), "count"},
      {"engine.task_busy_s", task_busy, "s"},
      {"engine.task_ms_p50", d.hist_p("task.process", 0.5), "ms"},
      {"engine.task_overhead_s", std::max(0.0, task_busy - exec_busy), "s"},
      {"analyst.exec_busy_s", exec_busy, "s"},
      {"analyst.exec_self_s", span(Layer::kExec).self_s, "s"},
      {"cv.detect_busy_s", span(Layer::kDetect).busy_s, "s"},
      {"cv.track_busy_s", span(Layer::kTrack).busy_s, "s"},
      {"cv.detections", static_cast<double>(span(Layer::kDetect).items),
       "count"},
      {"sim.visits_busy_s", span(Layer::kVisits).busy_s, "s"},
      {"engine.assemble_s", d.hist_s("query.assemble"), "s"},
      {"engine.finish_s", d.hist_s("query.finish"), "s"},
      {"engine.rows", static_cast<double>(r.table_rows), "count"},
      {"cache.hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"cache.evictions", d.counter("cache.evictions"), "count"},
      {"cache.bytes",
       static_cast<double>(r.after.gauge_value("cache.bytes")), "bytes"},
      {"dedup.follower_ratio", ratio(followers, leaders + followers), "ratio"},
      {"dedup.wait_ms_p99", d.hist_p("dedup.wait", 0.99), "ms"},
      {"pool.inline_ratio", ratio(inlined, pooled + inlined), "ratio"},
      {"pool.busy_frac",
       ratio(task_busy, r.wall_s * static_cast<double>(r.threads)), "ratio"},
      {"loadgen.lag_ms_p99", tail(r.lag_ms, 0.99), "ms"},
      {"loadgen.backlog_max", static_cast<double>(r.backlog_max), "count"},
  };
}

void print_json(FILE* f, const Report& r, const std::vector<Metric>& m) {
  std::fprintf(f,
               "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
               "\"metrics\": {",
               r.correct ? "true" : "false",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i ? ", " : "", m[i].name.c_str(), m[i].value, m[i].unit);
  }
  std::fprintf(f, "}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--threads <n>] [--setup-reps <n>] "
               "[--expect-digest <hex>] [--out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      cfg.trace = val == "1";
    } else if (key == "--threads") {
      cfg.threads = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--setup-reps") {
      cfg.setup_reps = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--expect-digest") {
      cfg.expect_digest = val;
    } else if (key == "--out") {
      out_path = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || cfg.workload.empty() || cfg.seconds <= 0 ||
      cfg.threads == 0) {
    return usage();
  }

  Report r;
  try {
    r = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const std::vector<Metric> e2e = end_to_end(r);
  const std::vector<Metric> layers = per_layer(r);
  const std::vector<LayerShare> groups = layer_groups(layers);
  double busy_total = 0;
  for (const LayerShare& g : groups) busy_total += g.busy_s;

  std::printf("workload %s seed %llu: %zu queries, %.3f s timed, "
              "%zu threads, digest %s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              r.latency_ms.size(), r.wall_s, r.threads, r.digest.c_str());
  if (!r.problem.empty()) std::printf("problem: %s\n", r.problem.c_str());
  if (cfg.trace) {
    for (const LayerShare& g : groups) {
      std::printf("layer %-8s %10.4f s busy  %5.1f%% of layer time  "
                  "%5.1f%% of wall x threads\n",
                  g.name.c_str(), g.busy_s, 100 * ratio(g.busy_s, busy_total),
                  100 * ratio(g.busy_s,
                              r.wall_s * static_cast<double>(r.threads)));
    }
    std::printf("top layer: %s\n", groups.front().name.c_str());
  }

  if (!out_path.empty()) {
    if (FILE* f = std::fopen(out_path.c_str(), "w")) {
      std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                      "\"digest\": \"%s\", \"top_layer\": \"%s\", "
                      "\"layers\": {",
                   cfg.workload.c_str(),
                   static_cast<unsigned long long>(cfg.seed), cfg.trace ? 1 : 0,
                   r.digest.c_str(),
                   cfg.trace ? groups.front().name.c_str() : "");
      for (std::size_t i = 0; i < groups.size(); ++i) {
        std::fprintf(f, "%s\"%s\": %.17g", i ? ", " : "",
                     groups[i].name.c_str(), groups[i].busy_s);
      }
      std::fprintf(f, "},\n\"spans\": {");
      for (std::size_t i = 0; i < perfbench::kLayerCount; ++i) {
        const perfbench::LayerTotals& t = r.spans[i];
        std::fprintf(f,
                     "%s\"%s\": {\"busy_s\": %.17g, \"self_s\": %.17g, "
                     "\"count\": %llu}",
                     i ? ", " : "",
                     perfbench::layer_name(static_cast<Layer>(i)), t.busy_s,
                     t.self_s, static_cast<unsigned long long>(t.count));
      }
      std::fprintf(f, "},\n\"result\": ");
      std::vector<Metric> all = e2e;
      all.insert(all.end(), layers.begin(), layers.end());
      print_json(f, r, all);
      std::fprintf(f, "}\n");
      std::fclose(f);
    }
  }

  print_json(stdout, r, cfg.trace ? layers : e2e);
  return r.correct ? 0 : 1;
}
