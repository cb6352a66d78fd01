// The benchmark's three workloads. Each drives the public API from one
// process and puts a different part of the library on the critical path:
//
//   cv_dense      closed loop, sync Privid::execute: detection and tracking
//   porto_fanout  closed loop, sync Privid::execute: per-task engine path,
//                 assembly and columnar GROUP BY / JOIN
//   service_zipf  open loop, QueryService submit/poll: admission, the
//                 scheduler, the shared chunk cache and single-flight
//
// A workload's inputs (scenes, the Porto synth, the query stream, the
// arrival schedule) are a pure function of its seed. See perfbench/README.md
// for the metric catalogue.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "spans.hpp"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;         // timed window
  bool trace = false;          // record layer spans
  std::size_t threads = 3;     // compute threads of the timed run
  // Set-ups per run (0 = the workload's default: 3 for porto_fanout, whose
  // set-up takes seconds, 15 for the others); setup_s is their median.
  std::size_t setup_reps = 0;
  // Expected release digest of the first queries (hex), empty = none.
  std::string expect_digest;
};

struct Report {
  // Correctness: every release folds into one digest; the first queries
  // are replayed on a fresh system at one thread and must match.
  bool correct = true;
  std::string problem;  // why !correct
  std::string digest;   // hex digest of the replayed prefix
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // errors, refusals and digest mismatches

  // Set-up, one entry per repetition.
  std::vector<double> setup_s, sim_s, register_s, warmup_s;

  // The timed window.
  std::vector<double> latency_ms;  // completed queries
  std::vector<double> parse_ms;
  double video_s = 0;  // camera-seconds covered by completed queries
  double wall_s = 0;
  std::size_t threads = 0;
  std::uint64_t table_rows = 0;
  privid::obs::Snapshot before, after;  // registry around the timed window
  std::array<LayerTotals, kLayerCount> spans{};  // over the timed window

  // Open loop only.
  std::vector<double> lag_ms;     // how late each send was
  std::vector<double> submit_ms;  // QueryService::submit call time
  std::size_t backlog_max = 0;
};

// Runs one workload; throws privid::ArgumentError for an unknown name.
Report run_workload(Config cfg);

}  // namespace perfbench
