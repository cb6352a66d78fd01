// Process-wide metrics plane: named counters, gauges and latency
// histograms, grouped per component and aggregated on snapshot.
//
// Design contract (enforced by privcheck's obs-timing / layering rules):
//   - This is the ONLY module allowed to read a clock. Timing reaches the
//     rest of the codebase exclusively through the opaque RAII helpers
//     below (ScopedTimer / Stopwatch), which never expose a numeric
//     duration — so no timing value can ever flow into a release, noise
//     or ledger computation.
//   - obs may include only common/ (and the standard library); obs
//     headers may be included from anywhere.
//   - Metrics never print to stdout on their own: snapshots are pulled
//     explicitly by benches/tests, keeping deterministic outputs (fig6
//     byte-diffs) untouched.
//
// Concurrency: Counter::add and LatencyHistogram::observe_ns are relaxed
// RMWs on one of a small set of cacheline-padded stripes picked per
// thread, so the hot paths (per-task, per-lookup) never contend on a
// single line. Snapshot reads are racy-by-design aggregations — exact at
// quiescence, approximate mid-flight — which is the usual monitoring
// contract.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace privid::obs {

namespace detail {
// Monotonic nanoseconds since an arbitrary process-local origin. Defined
// in metrics.cpp — the single clock read of the codebase.
std::uint64_t now_ns();
// Stable per-thread small integer for striping and trace thread ids.
unsigned thread_index();
// Hot-path metrics spread their writers over this many cacheline-aligned
// stripes, picked by thread_index().
inline constexpr std::size_t kStripes = 8;
inline std::size_t stripe_index() { return thread_index() % kStripes; }
}  // namespace detail

// Monotonically increasing event count. Striped to keep concurrent add()
// cheap; value() sums the stripes (monotone but momentarily stale under
// concurrent writers).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) {
    stripes_[detail::stripe_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : stripes_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Stripe, detail::kStripes> stripes_;
};

// Point-in-time signed level (queue depth, resident bytes, live entries).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n) { v_.fetch_sub(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Accumulating double (epsilon committed). CAS loop keeps it lock-free.
class DoubleCounter {
 public:
  DoubleCounter() = default;
  DoubleCounter(const DoubleCounter&) = delete;
  DoubleCounter& operator=(const DoubleCounter&) = delete;

  void add(double x);
  double value() const;

 private:
  std::atomic<std::uint64_t> bits_{0};
};

// Latency distribution over geometric buckets: bucket 0 covers [0, 256 ns),
// bucket i covers [256 << (i-1), 256 << i) ns, 40 buckets total (top bucket
// reaches ~39 hours — effectively unbounded for query work). Percentiles
// come from privid::bucket_percentile over the bucket edges.
//
// Striped like Counter: each thread observes into its own cacheline-
// aligned stripe of buckets, count, sum and max, so a per-task timer on
// every pool thread does not contend on one line. The readers merge the
// stripes (exact at quiescence).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void observe_ns(std::uint64_t ns);

  std::uint64_t count() const;
  std::uint64_t sum_ns() const;
  std::uint64_t max_ns() const;
  std::vector<std::uint64_t> bucket_counts() const;
  // Lower/upper bucket edges in nanoseconds, shared by every instance.
  static std::vector<double> bucket_lower_ns();
  static std::vector<double> bucket_upper_ns();

 private:
  struct alignas(64) Stripe {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };
  std::array<Stripe, detail::kStripes> stripes_;
};

struct Snapshot;
class MetricGroup;

// Aggregates `groups` into one Snapshot (see Snapshot below). The single
// builder behind Registry::snapshot() and MetricGroup::snapshot(); the
// caller keeps every group alive for the call.
Snapshot snapshot_of(const std::vector<const MetricGroup*>& groups);

// A component's named metrics. Components create their metrics once (in
// their constructor) and keep the returned stable pointers for the hot
// path; name lookup never happens per-event.
class MetricGroup {
 public:
  MetricGroup() = default;
  MetricGroup(const MetricGroup&) = delete;
  MetricGroup& operator=(const MetricGroup&) = delete;

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  DoubleCounter* double_counter(const std::string& name);
  LatencyHistogram* histogram(const std::string& name);

  // This group alone, read the way Registry::snapshot() reads it.
  Snapshot snapshot() const;

 private:
  friend Snapshot snapshot_of(const std::vector<const MetricGroup*>& groups);
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<DoubleCounter>> doubles_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

// Aggregated point-in-time view over every attached group: same-named
// counters/gauges/doubles sum, histograms merge bucket-wise. Rows are
// sorted by name so table()/json() are stable.
struct Snapshot {
  struct HistogramRow {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0;
    double p50_ms = 0;
    double p90_ms = 0;
    double p99_ms = 0;
    double max_ms = 0;
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, double>> doubles;
  std::vector<HistogramRow> rows;

  // 0 when absent — snapshots are for reporting, not control flow.
  std::uint64_t counter_value(const std::string& name) const;
  std::int64_t gauge_value(const std::string& name) const;
  double double_value(const std::string& name) const;
  const HistogramRow* histogram_row(const std::string& name) const;

  // Human-readable aligned table.
  std::string table() const;
  // Stable JSON: keys sorted, histograms as {count, total_ms, p50_ms,
  // p90_ms, p99_ms, max_ms}. compact=true emits one line (for the
  // OBS_SNAPSHOT_JSON bench handshake).
  std::string json(bool compact = false) const;
};

class Registry;

// RAII attachment of a MetricGroup to a Registry. Move-only; detaches on
// destruction, so a component's metrics leave the registry with it.
// Declare it AFTER the group in the owning class so it detaches first.
class Registration {
 public:
  Registration() = default;
  Registration(Registration&& other) noexcept;
  Registration& operator=(Registration&& other) noexcept;
  Registration(const Registration&) = delete;
  Registration& operator=(const Registration&) = delete;
  ~Registration();

 private:
  friend class Registry;
  Registration(Registry* reg, const MetricGroup* group)
      : reg_(reg), group_(group) {}
  Registry* reg_ = nullptr;
  const MetricGroup* group_ = nullptr;
};

// The process-wide registry. Components attach their groups at
// construction; snapshot() merges whatever is attached right now.
class Registry {
 public:
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Registration attach(const MetricGroup* group);
  Snapshot snapshot() const;
  std::size_t group_count() const;

 private:
  friend class Registration;
  void detach(const MetricGroup* group);

  mutable std::mutex mu_;
  std::vector<const MetricGroup*> groups_;
};

// Opaque RAII timer: observes the elapsed time into a histogram at
// destruction. The duration is never exposed as a number — the only way
// timing leaves the obs plane is through a histogram snapshot.
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram* hist);
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer();

 private:
  LatencyHistogram* hist_;
  std::uint64_t start_;
};

// Opaque stopwatch for durations that start and end in different scopes
// (e.g. queue wait: starts at submit, observed at first dispatch).
// observe() records into the histogram at most once; like ScopedTimer it
// never yields a numeric duration.
class Stopwatch {
 public:
  Stopwatch();
  void observe(LatencyHistogram* hist);

 private:
  std::uint64_t start_;
  bool observed_ = false;
};

}  // namespace privid::obs
