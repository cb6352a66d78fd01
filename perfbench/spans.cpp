#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

std::atomic<bool> g_tracing{false};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One thread's totals. Written only by the owning thread (relaxed atomics
// keep the cross-thread reads in layer_totals() race-free).
struct ThreadTotals {
  struct Acc {
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> self_ns{0};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> items{0};
  };
  std::array<Acc, kLayerCount> acc;

  // Open spans, innermost last.
  struct Frame {
    Layer layer;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };
  static constexpr std::size_t kMaxDepth = 16;
  std::array<Frame, kMaxDepth> stack{};
  std::size_t depth = 0;
};

void bump(std::atomic<std::uint64_t>& a, std::uint64_t n) {
  a.store(a.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

// Every thread's totals stay alive until exit, so pool threads that end
// before the report still count.
std::mutex g_threads_mu;
std::vector<std::shared_ptr<ThreadTotals>>& all_threads() {
  static std::vector<std::shared_ptr<ThreadTotals>> threads;
  return threads;
}

ThreadTotals& local() {
  thread_local std::shared_ptr<ThreadTotals> mine = [] {
    auto t = std::make_shared<ThreadTotals>();
    std::lock_guard<std::mutex> lock(g_threads_mu);
    all_threads().push_back(t);
    return t;
  }();
  return *mine;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kParse: return "query.parse";
    case Layer::kSubmit: return "service.submit";
    case Layer::kExec: return "analyst.exec";
    case Layer::kDetect: return "cv.detect";
    case Layer::kTrack: return "cv.track";
    case Layer::kVisits: return "sim.visits";
  }
  return "?";
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

void Span::open(Layer layer) {
  ThreadTotals& t = local();
  if (t.depth == ThreadTotals::kMaxDepth) return;  // too deep: not recorded
  t.stack[t.depth++] = {layer, now_ns(), 0};
  open_ = true;
}

void Span::close() {
  const std::uint64_t end = now_ns();
  ThreadTotals& t = local();
  const ThreadTotals::Frame f = t.stack[--t.depth];
  const std::uint64_t busy = end - f.start_ns;
  ThreadTotals::Acc& a = t.acc[static_cast<std::size_t>(f.layer)];
  bump(a.busy_ns, busy);
  bump(a.self_ns, busy > f.child_ns ? busy - f.child_ns : 0);
  bump(a.count, 1);
  if (t.depth > 0) t.stack[t.depth - 1].child_ns += busy;
}

void add_items(Layer layer, std::uint64_t n) {
  if (!tracing()) return;
  bump(local().acc[static_cast<std::size_t>(layer)].items, n);
}

std::array<LayerTotals, kLayerCount> layer_totals() {
  std::array<LayerTotals, kLayerCount> out{};
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& t : all_threads()) {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      const ThreadTotals::Acc& a = t->acc[i];
      out[i].busy_s +=
          static_cast<double>(a.busy_ns.load(std::memory_order_relaxed)) * 1e-9;
      out[i].self_s +=
          static_cast<double>(a.self_ns.load(std::memory_order_relaxed)) * 1e-9;
      out[i].count += a.count.load(std::memory_order_relaxed);
      out[i].items += a.items.load(std::memory_order_relaxed);
    }
  }
  return out;
}

void reset_spans() {
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& t : all_threads()) {
    for (auto& a : t->acc) {
      a.busy_ns.store(0, std::memory_order_relaxed);
      a.self_ns.store(0, std::memory_order_relaxed);
      a.count.store(0, std::memory_order_relaxed);
      a.items.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace perfbench
