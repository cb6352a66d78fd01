#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "common/stats.hpp"

namespace privid::obs {

namespace detail {

std::uint64_t now_ns() {
  // The codebase's single wall-clock read (privcheck pins clock reads to
  // src/obs/). steady_clock so spans are monotone; the origin is the
  // first call, keeping exported timestamps small and process-local.
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

unsigned thread_index() {
  static std::atomic<unsigned> next{0};
  thread_local unsigned idx = next.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

}  // namespace detail

void DoubleCounter::add(double x) {
  std::uint64_t old = bits_.load(std::memory_order_relaxed);
  for (;;) {
    double updated = std::bit_cast<double>(old) + x;
    if (bits_.compare_exchange_weak(old, std::bit_cast<std::uint64_t>(updated),
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

double DoubleCounter::value() const {
  return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
}

namespace {

// Bucket index for a nanosecond value: 0 for [0, 256), then one bucket
// per power of two. bit_width(v >> 8) is 0 only when v < 256.
std::size_t bucket_index(std::uint64_t ns) {
  auto idx = static_cast<std::size_t>(std::bit_width(ns >> 8));
  return std::min(idx, LatencyHistogram::kBuckets - 1);
}

}  // namespace

void LatencyHistogram::observe_ns(std::uint64_t ns) {
  Stripe& s = stripes_[detail::stripe_index()];
  s.buckets[bucket_index(ns)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t prev = s.max.load(std::memory_order_relaxed);
  while (prev < ns &&
         !s.max.compare_exchange_weak(prev, ns, std::memory_order_relaxed)) {
  }
}

std::uint64_t LatencyHistogram::count() const {
  std::uint64_t total = 0;
  for (const auto& s : stripes_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t LatencyHistogram::sum_ns() const {
  std::uint64_t total = 0;
  for (const auto& s : stripes_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t LatencyHistogram::max_ns() const {
  std::uint64_t out = 0;
  for (const auto& s : stripes_) {
    out = std::max(out, s.max.load(std::memory_order_relaxed));
  }
  return out;
}

std::vector<std::uint64_t> LatencyHistogram::bucket_counts() const {
  std::vector<std::uint64_t> out(kBuckets, 0);
  for (const auto& s : stripes_) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      out[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::vector<double> LatencyHistogram::bucket_lower_ns() {
  std::vector<double> out(kBuckets);
  out[0] = 0;
  for (std::size_t i = 1; i < kBuckets; ++i) {
    out[i] = static_cast<double>(256ull << (i - 1));
  }
  return out;
}

std::vector<double> LatencyHistogram::bucket_upper_ns() {
  std::vector<double> out(kBuckets);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    out[i] = static_cast<double>(256ull << i);
  }
  return out;
}

Counter* MetricGroup::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricGroup::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

DoubleCounter* MetricGroup::double_counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = doubles_[name];
  if (!slot) slot = std::make_unique<DoubleCounter>();
  return slot.get();
}

LatencyHistogram* MetricGroup::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return slot.get();
}

std::uint64_t Snapshot::counter_value(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

std::int64_t Snapshot::gauge_value(const std::string& name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0;
}

double Snapshot::double_value(const std::string& name) const {
  for (const auto& [n, v] : doubles) {
    if (n == name) return v;
  }
  return 0;
}

const Snapshot::HistogramRow* Snapshot::histogram_row(
    const std::string& name) const {
  for (const auto& r : rows) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

namespace {

std::string format_ms(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

}  // namespace

std::string Snapshot::table() const {
  std::ostringstream out;
  std::size_t width = 8;
  for (const auto& [n, v] : counters) width = std::max(width, n.size());
  for (const auto& [n, v] : gauges) width = std::max(width, n.size());
  for (const auto& [n, v] : doubles) width = std::max(width, n.size());
  for (const auto& r : rows) width = std::max(width, r.name.size());
  auto pad = [&](const std::string& s) {
    return s + std::string(width + 2 - s.size(), ' ');
  };
  for (const auto& [n, v] : counters) {
    out << pad(n) << "counter    " << v << "\n";
  }
  for (const auto& [n, v] : gauges) {
    out << pad(n) << "gauge      " << v << "\n";
  }
  for (const auto& [n, v] : doubles) {
    out << pad(n) << "double     " << format_ms(v) << "\n";
  }
  for (const auto& r : rows) {
    out << pad(r.name) << "histogram  count " << r.count << "  p50 "
        << format_ms(r.p50_ms) << " ms  p90 " << format_ms(r.p90_ms)
        << " ms  p99 " << format_ms(r.p99_ms) << " ms  max "
        << format_ms(r.max_ms) << " ms\n";
  }
  return out.str();
}

std::string Snapshot::json(bool compact) const {
  const char* nl = compact ? "" : "\n";
  const char* ind = compact ? "" : "  ";
  const char* ind2 = compact ? "" : "    ";
  std::ostringstream out;
  out << "{" << nl;
  out << ind << "\"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out << (i ? ", " : "") << "\"" << counters[i].first
        << "\": " << counters[i].second;
  }
  out << "}," << nl;
  out << ind << "\"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out << (i ? ", " : "") << "\"" << gauges[i].first
        << "\": " << gauges[i].second;
  }
  out << "}," << nl;
  out << ind << "\"doubles\": {";
  for (std::size_t i = 0; i < doubles.size(); ++i) {
    out << (i ? ", " : "") << "\"" << doubles[i].first
        << "\": " << format_ms(doubles[i].second);
  }
  out << "}," << nl;
  out << ind << "\"histograms\": {";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << (i ? ", " : "") << nl << ind2 << "\"" << r.name << "\": {"
        << "\"count\": " << r.count << ", \"total_ms\": "
        << format_ms(r.total_ms) << ", \"p50_ms\": " << format_ms(r.p50_ms)
        << ", \"p90_ms\": " << format_ms(r.p90_ms)
        << ", \"p99_ms\": " << format_ms(r.p99_ms)
        << ", \"max_ms\": " << format_ms(r.max_ms) << "}";
  }
  if (!rows.empty()) out << nl << ind;
  out << "}" << nl;
  out << "}";
  return out.str();
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Registration Registry::attach(const MetricGroup* group) {
  std::lock_guard<std::mutex> lock(mu_);
  groups_.push_back(group);
  return Registration(this, group);
}

void Registry::detach(const MetricGroup* group) {
  std::lock_guard<std::mutex> lock(mu_);
  groups_.erase(std::remove(groups_.begin(), groups_.end(), group),
                groups_.end());
}

std::size_t Registry::group_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return groups_.size();
}

Snapshot snapshot_of(const std::vector<const MetricGroup*>& groups) {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, double> doubles;
  struct HistAccum {
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
  };
  std::map<std::string, HistAccum> hists;

  for (const MetricGroup* g : groups) {
    std::lock_guard<std::mutex> glock(g->mu_);
    for (const auto& [name, c] : g->counters_) counters[name] += c->value();
    for (const auto& [name, gg] : g->gauges_) gauges[name] += gg->value();
    for (const auto& [name, d] : g->doubles_) doubles[name] += d->value();
    for (const auto& [name, h] : g->histograms_) {
      auto& acc = hists[name];
      if (acc.buckets.empty()) {
        acc.buckets.assign(LatencyHistogram::kBuckets, 0);
      }
      auto bs = h->bucket_counts();
      for (std::size_t i = 0; i < bs.size(); ++i) acc.buckets[i] += bs[i];
      acc.count += h->count();
      acc.sum += h->sum_ns();
      acc.max = std::max(acc.max, h->max_ns());
    }
  }

  Snapshot snap;
  snap.counters.assign(counters.begin(), counters.end());
  snap.gauges.assign(gauges.begin(), gauges.end());
  snap.doubles.assign(doubles.begin(), doubles.end());
  const auto lower = LatencyHistogram::bucket_lower_ns();
  const auto upper = LatencyHistogram::bucket_upper_ns();
  constexpr double kNsPerMs = 1e6;
  for (const auto& [name, acc] : hists) {
    Snapshot::HistogramRow row;
    row.name = name;
    row.count = acc.count;
    row.total_ms = static_cast<double>(acc.sum) / kNsPerMs;
    row.max_ms = static_cast<double>(acc.max) / kNsPerMs;
    if (acc.count > 0) {
      // Interpolation within the top occupied bucket can overshoot the
      // true maximum (which is tracked exactly); clamp so p50<=p90<=p99
      // <=max always holds in reports.
      auto pct = [&](double p) {
        double v = bucket_percentile(acc.buckets, lower, upper, p) / kNsPerMs;
        return v < row.max_ms ? v : row.max_ms;
      };
      row.p50_ms = pct(50);
      row.p90_ms = pct(90);
      row.p99_ms = pct(99);
    }
    snap.rows.push_back(std::move(row));
  }
  return snap;
}

Snapshot MetricGroup::snapshot() const { return snapshot_of({this}); }

Snapshot Registry::snapshot() const {
  // Held for the whole read: a group detaches under this lock before its
  // owner destroys it.
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_of(groups_);
}

Registration::Registration(Registration&& other) noexcept
    : reg_(other.reg_), group_(other.group_) {
  other.reg_ = nullptr;
  other.group_ = nullptr;
}

Registration& Registration::operator=(Registration&& other) noexcept {
  if (this != &other) {
    if (reg_) reg_->detach(group_);
    reg_ = other.reg_;
    group_ = other.group_;
    other.reg_ = nullptr;
    other.group_ = nullptr;
  }
  return *this;
}

Registration::~Registration() {
  if (reg_) reg_->detach(group_);
}

ScopedTimer::ScopedTimer(LatencyHistogram* hist)
    : hist_(hist), start_(detail::now_ns()) {}

ScopedTimer::~ScopedTimer() {
  if (hist_) hist_->observe_ns(detail::now_ns() - start_);
}

Stopwatch::Stopwatch() : start_(detail::now_ns()) {}

void Stopwatch::observe(LatencyHistogram* hist) {
  if (observed_) return;
  observed_ = true;
  if (hist) hist->observe_ns(detail::now_ns() - start_);
}

}  // namespace privid::obs
