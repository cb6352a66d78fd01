// In-memory layer spans recorded by the benchmark around its own calls into
// the library (parse, submit, the executable body, detect, track, Porto
// visits).
//
// A span is cheap and never written out one by one: each thread keeps a
// small stack of open spans and, per layer, running totals of busy time,
// self time (busy time minus the time covered by child spans on the same
// thread) and a count. layer_totals() sums those totals over every thread
// that ever recorded a span. With tracing off a Span is one predictable
// branch and reads no clock.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace perfbench {

enum class Layer : std::uint8_t {
  kParse,    // query::parse_query
  kSubmit,   // QueryService::submit
  kExec,     // the benchmark executable's body (one PROCESS task)
  kDetect,   // ChunkView::detect_into
  kTrack,    // cv::Tracker::step
  kVisits,   // ChunkView::taxi_visits
};
inline constexpr std::size_t kLayerCount = 6;

const char* layer_name(Layer layer);

// Switches span recording on or off. Call before any thread records.
void set_tracing(bool on);
bool tracing();

// Seconds on the steady clock since an arbitrary origin.
double now_s();

class Span {
 public:
  explicit Span(Layer layer) {
    if (tracing()) open(layer);
  }
  ~Span() {
    if (open_) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(Layer layer);
  void close();
  bool open_ = false;
};

// Adds work items (detections, visits) to a layer's item count; a no-op
// with tracing off.
void add_items(Layer layer, std::uint64_t n);

struct LayerTotals {
  double busy_s = 0;
  double self_s = 0;
  std::uint64_t count = 0;
  std::uint64_t items = 0;
};

// Totals over every thread. Exact once the recording threads are idle.
std::array<LayerTotals, kLayerCount> layer_totals();

// Zeroes every thread's totals (between set-up and the timed window).
void reset_spans();

}  // namespace perfbench
