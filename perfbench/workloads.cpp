#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/rng.hpp"
#include "cv/tracker.hpp"
#include "engine/privid.hpp"
#include "query/parser.hpp"
#include "sim/porto.hpp"
#include "sim/scenarios.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace privid;

namespace {

// ------------------------------------------------------------ common

// Queries replayed on a fresh one-thread system to check the digest.
constexpr std::size_t kDigestPrefix = 4;
// A closed loop keeps going past its deadline until it has sent this many
// queries, so query_ms_p90 always has ten samples beyond it.
constexpr std::size_t kMinSamples = 100;
// An open loop gives up on queries still unsettled this long after the
// last send.
constexpr double kDrainSeconds = 30;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + salt;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ull;
  return x ^ (x >> 29);
}

std::string hex(const Fingerprint& f) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(f.hi),
                static_cast<unsigned long long>(f.lo));
  return buf;
}

// One query's releases, every bit that reaches the analyst or the owner.
Fingerprint release_digest(const engine::QueryResult& r) {
  FingerprintBuilder fb;
  fb.add(static_cast<std::uint64_t>(r.releases.size()));
  for (const engine::Release& rel : r.releases) {
    fb.add(rel.label);
    fb.add(static_cast<std::uint64_t>(rel.group_key.size()));
    for (const Value& v : rel.group_key) {
      if (v.is_number()) {
        fb.add(v.as_number());
      } else {
        fb.add(v.as_string());
      }
    }
    fb.add(rel.is_argmax);
    fb.add(rel.argmax_key);
    fb.add(rel.raw);
    fb.add(rel.sensitivity);
    fb.add(rel.value);
    fb.add(rel.epsilon);
  }
  return fb.digest();
}

Fingerprint fold(const std::vector<Fingerprint>& parts) {
  FingerprintBuilder fb;
  for (const Fingerprint& p : parts) {
    fb.add(p.hi);
    fb.add(p.lo);
  }
  return fb.digest();
}

std::uint64_t table_rows(const engine::QueryResult& r) {
  std::uint64_t n = 0;
  for (const auto& [name, rows] : r.table_rows) n += rows;
  return n;
}

struct QuerySpec {
  std::string text;
  double video_s = 0;  // window x cameras
};

query::ParsedQuery parse(const std::string& text, Report* report) {
  const double t0 = now_s();
  Span span(Layer::kParse);
  query::ParsedQuery q = query::parse_query(text);
  report->parse_ms.push_back((now_s() - t0) * 1e3);
  return q;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f", v);
  return buf;
}

// Rank r in [0, n) with probability proportional to 1 / (r + 1)^s, for a
// uniform u in [0, 1) (inverse CDF).
std::size_t zipf(double u, std::size_t n, double s) {
  double total = 0;
  for (std::size_t r = 0; r < n; ++r) total += std::pow(r + 1.0, -s);
  u *= total;
  for (std::size_t r = 0; r < n; ++r) {
    u -= std::pow(r + 1.0, -s);
    if (u <= 0) return r;
  }
  return n - 1;
}

// Seeded low-discrepancy draws: dimension d of draw i is
// frac(offset_d + i * step_d) with a seeded offset and an irrational step,
// so every seed covers each range evenly and the query mix of a run barely
// depends on its seed.
class Stratified {
 public:
  explicit Stratified(Rng& rng) {
    for (double& o : offset_) o = rng.uniform();
  }
  // Uniform in [0, 1).
  double unit(std::size_t i, std::size_t dim) const {
    static constexpr double kStep[] = {0.6180339887498949, 0.4142135623730951,
                                       0.7320508075688772, 0.2360679774997897};
    return std::fmod(offset_[dim] + kStep[dim] * static_cast<double>(i), 1.0);
  }
  // Integer in [lo, hi].
  std::int64_t pick(std::size_t i, std::size_t dim, std::int64_t lo,
                    std::int64_t hi) const {
    return lo + static_cast<std::int64_t>(unit(i, dim) *
                                          static_cast<double>(hi - lo + 1));
  }

 private:
  std::array<double, 4> offset_{};
};

// ------------------------------------------------------------ executables
//
// The benchmark's own PROCESS executables. They do what the library's
// analyst executables do, with a span around the body and around each
// detect_into / Tracker::step / taxi_visits call.

const cv::DetectionBatch& detect(const engine::ChunkView& view,
                                 const cv::DetectorConfig& det, Seconds t) {
  Span span(Layer::kDetect);
  const cv::DetectionBatch& batch = view.detect_into(det, t);
  add_items(Layer::kDetect, batch.size());
  return batch;
}

void track(cv::Tracker& tracker, Seconds t, const cv::DetectionBatch& dets) {
  Span span(Layer::kTrack);
  tracker.step(t, dets);
}

// A track entered during the chunk if first seen after its opening second
// (the §6.2 convention of analyst::make_entering_counter).
bool entered_during(const cv::TrackRecord& rec,
                    const engine::ChunkView& view) {
  Seconds grace = std::min(1.0, view.time().duration() / 4);
  return rec.first_seen > view.time().begin + grace;
}

engine::Executable entering_counter(cv::DetectorConfig det,
                                    cv::TrackerConfig trk) {
  return [det, trk](const engine::ChunkView& view) {
    Span span(Layer::kExec);
    engine::ExecOutput out;
    cv::Tracker tracker(trk);
    view.for_each_frame(
        [&](Seconds t) { track(tracker, t, detect(view, det, t)); });
    for (const cv::TrackRecord& rec : tracker.take_tracks()) {
      if (entered_during(rec, view)) out.rows.push_back({Value(1.0)});
    }
    out.simulated_runtime = 0.5;
    return out;
  };
}

engine::Executable car_reporter(cv::DetectorConfig det,
                                cv::TrackerConfig trk) {
  return [det, trk](const engine::ChunkView& view) {
    Span span(Layer::kExec);
    engine::ExecOutput out;
    cv::Tracker tracker(trk);
    std::map<int, std::pair<std::string, std::string>> attrs;
    view.for_each_frame([&](Seconds t) {
      const cv::DetectionBatch& dets = detect(view, det, t);
      track(tracker, t, dets);
      tracker.for_each_active([&](const cv::ActiveTrack& rec) {
        for (std::size_t d = 0; d < dets.size(); ++d) {
          if (dets.plate_codes()[d] >= 0 &&
              iou(rec.last_box, dets.box(d)) > 0.5) {
            attrs[rec.track_id] = {
                std::string(dets.symbol(dets.plate_codes()[d])),
                std::string(dets.symbol_or_empty(dets.color_codes()[d]))};
          }
        }
      });
    });
    for (const cv::TrackRecord& rec : tracker.take_tracks()) {
      if (!entered_during(rec, view)) continue;
      auto it = attrs.find(rec.track_id);
      std::string plate = it != attrs.end() ? it->second.first : "";
      std::string color = it != attrs.end() ? it->second.second : "";
      double speed = 0;
      if (rec.duration() > 0.1) {
        speed = std::hypot(rec.last_box.cx(), rec.last_box.cy()) /
                rec.duration();
      }
      out.rows.push_back({Value(plate), Value(color), Value(speed)});
    }
    out.simulated_runtime = 0.5;
    return out;
  };
}

// One row per track that starts in the bottom third of the frame and ends
// in the top third (the stateful Q13 trajectory filter).
engine::Executable trajectory_filter(cv::DetectorConfig det,
                                     cv::TrackerConfig trk) {
  return [det, trk](const engine::ChunkView& view) {
    Span span(Layer::kExec);
    engine::ExecOutput out;
    cv::Tracker tracker(trk);
    std::map<int, std::pair<Box, Box>> extent;
    view.for_each_frame([&](Seconds t) {
      track(tracker, t, detect(view, det, t));
      tracker.for_each_active([&](const cv::ActiveTrack& rec) {
        auto [it, inserted] =
            extent.try_emplace(rec.track_id, rec.last_box, rec.last_box);
        if (!inserted) it->second.second = rec.last_box;
      });
    });
    const double h = view.video().height;
    for (const cv::TrackRecord& rec : tracker.take_tracks()) {
      auto it = extent.find(rec.track_id);
      if (it == extent.end()) continue;
      if (it->second.first.cy() > 2.0 * h / 3.0 &&
          it->second.second.cy() < h / 3.0) {
        out.rows.push_back({Value(1.0)});
      }
    }
    out.simulated_runtime = 0.8;
    return out;
  };
}

engine::Executable taxi_reporter() {
  return [](const engine::ChunkView& view) {
    Span span(Layer::kExec);
    engine::ExecOutput out;
    std::vector<sim::TaxiVisit> visits;
    {
      Span v(Layer::kVisits);
      visits = view.taxi_visits();
      add_items(Layer::kVisits, visits.size());
    }
    for (const sim::TaxiVisit& v : visits) {
      const double hod = std::fmod(v.start, 86400.0) / 3600.0;
      out.rows.push_back(
          {Value(sim::PortoSynth::plate_of(v.taxi_id)), Value(hod)});
    }
    out.simulated_runtime = 0.1;
    return out;
  };
}

// Detection every `step` seconds of the chunk, no tracker: one row with
// the number of objects seen.
engine::Executable sampling_counter(cv::DetectorConfig det, Seconds step) {
  return [det, step](const engine::ChunkView& view) {
    Span span(Layer::kExec);
    engine::ExecOutput out;
    double seen = 0;
    for (Seconds t = view.time().begin; t < view.time().end; t += step) {
      seen += static_cast<double>(detect(view, det, t).size());
    }
    out.rows.push_back({Value(seen)});
    out.simulated_runtime = 0.1;
    return out;
  };
}

// ------------------------------------------------------------ worlds

constexpr double kDayBegin = 21600;  // the scenes record 06:00-18:00
constexpr double kSceneHours = 12;
constexpr double kHuge = 1e9;        // per-frame budget: nothing is refused

// A set of cameras with their owner masks, registered identically into
// every fresh facade.
struct VisualCamera {
  std::shared_ptr<const sim::Scene> scene;
  Mask mask;
  double masked_rho = 0;
  std::uint64_t model_seed = 0;
};

VisualCamera visual(sim::Scenario scenario, double masked_rho,
                    std::uint64_t model_seed) {
  return {std::make_shared<const sim::Scene>(std::move(scenario.scene)),
          std::move(scenario.recommended_mask), masked_rho, model_seed};
}

void register_visual(engine::Privid& sys, const std::string& id,
                     const VisualCamera& c) {
  engine::CameraRegistration reg;
  reg.meta = c.scene->meta();
  reg.meta.camera_id = id;
  reg.content.scene = c.scene;
  reg.content.seed = c.model_seed;
  reg.policy = {300.0, 2};
  reg.epsilon_budget = kHuge;
  reg.masks.emplace("owner", engine::MaskEntry{c.mask, {c.masked_rho, 2}});
  sys.register_camera(std::move(reg));
}

// A closed-loop workload: immutable inputs (the same for every seed), a
// factory for a registered facade, a warm-up and a seeded query stream.
// Query shapes take turns, so every seed runs the same mix; the seed draws
// windows and cameras.
class ClosedWorld {
 public:
  virtual ~ClosedWorld() = default;
  virtual std::unique_ptr<engine::Privid> make_system() const = 0;
  virtual void warm_up(engine::Privid& sys,
                       const engine::RunOptions& opts) const = 0;
  virtual QuerySpec query(std::size_t i, const Stratified& s) const = 0;
};

// cv_dense: three 12 h scenes, detector + tracker executables.
class CvWorld : public ClosedWorld {
 public:
  CvWorld()
      : campus_(visual(sim::make_campus(501, kSceneHours, 1.0), 17.0, 77)),
        highway_(visual(sim::make_highway(502, kSceneHours, 0.3), 33.0, 78)),
        urban_(visual(sim::make_urban(503, kSceneHours, 0.3), 20.0, 79)) {}

  std::unique_ptr<engine::Privid> make_system() const override {
    auto sys = std::make_unique<engine::Privid>(0xC0DE);
    register_visual(*sys, "campus", campus_);
    register_visual(*sys, "highway", highway_);
    register_visual(*sys, "urban", urban_);
    cv::DetectorConfig people;
    people.base_detect_prob = 0.8;
    cv::DetectorConfig cars;
    cars.base_detect_prob = 0.92;
    cars.size_exponent = 0.2;
    const auto sort = cv::TrackerConfig::sort(20, 2, 0.1);
    sys->register_executable("people", entering_counter(people, sort));
    sys->register_executable("cars", car_reporter(cars, sort));
    sys->register_executable("s2n", trajectory_filter(people, sort));
    return sys;
  }

  void warm_up(engine::Privid& sys,
               const engine::RunOptions& opts) const override {
    sys.execute(people("urban", kDayBegin, kDayBegin + 600), opts);
  }

  QuerySpec query(std::size_t i, const Stratified& s) const override {
    const double len = 600.0 * static_cast<double>(s.pick(i, 0, 6, 12));
    const auto slots =
        static_cast<std::int64_t>((kSceneHours * 3600 - len) / 600.0);
    const double begin =
        kDayBegin + 600.0 * static_cast<double>(s.pick(i, 1, 0, slots));
    const double end = begin + len;
    switch (i % 4) {
      case 0:
        return {people("campus", begin, end), len};
      case 1:
        return {people("urban", begin, end), len};
      case 2:
        return {"SPLIT highway BEGIN " + num(begin) + " END " + num(end) +
                    " BY TIME 30 STRIDE 0 WITH MASK owner INTO c;"
                    "PROCESS c USING cars TIMEOUT 1 PRODUCING 4 ROWS WITH "
                    "SCHEMA (plate:STRING=\"\", color:STRING=\"\", "
                    "speed:NUMBER=0) INTO t;"
                    "SELECT color, COUNT(plate) FROM (SELECT plate, color "
                    "FROM t) GROUP BY color WITH KEYS [\"RED\", \"WHITE\", "
                    "\"SILVER\"];",
                len};
      default:
        return {"SPLIT campus BEGIN " + num(begin) + " END " + num(end) +
                    " BY TIME 600 STRIDE 0 WITH MASK owner INTO c;"
                    "PROCESS c USING s2n TIMEOUT 5 PRODUCING 8 ROWS WITH "
                    "SCHEMA (matched:NUMBER=1) INTO t;"
                    "SELECT SUM(range(matched, 0, 1)) FROM t;",
                len};
    }
  }

 private:
  static std::string people(const std::string& cam, double begin,
                            double end) {
    return "SPLIT " + cam + " BEGIN " + num(begin) + " END " + num(end) +
           " BY TIME 30 STRIDE 0 WITH MASK owner INTO c;"
           "PROCESS c USING people TIMEOUT 1 PRODUCING 4 ROWS WITH SCHEMA "
           "(entered:NUMBER=0) INTO t;"
           "SELECT COUNT(*) FROM t GROUP BY hour(chunk);";
  }

  VisualCamera campus_, highway_, urban_;
};

// porto_fanout: the Table 3 Case 2 taxi synth, 40 cameras, one year.
class PortoWorld : public ClosedWorld {
 public:
  static constexpr int kTaxis = 150;
  static constexpr int kCameras = 40;
  static constexpr int kDays = 365;

  PortoWorld() {
    sim::PortoConfig cfg;
    cfg.n_taxis = kTaxis;
    cfg.n_cameras = kCameras;
    cfg.n_days = kDays;
    porto_ = std::make_shared<const sim::PortoSynth>(cfg);
    // Fill the lazy per-(camera, day) visit memo, so no query pays for
    // generation.
    for (int cam = 0; cam < kCameras; ++cam) {
      porto_->visits(cam, {0, kDays * 86400.0});
    }
    for (int t = 0; t < kTaxis; ++t) {
      if (t) keys_ += ", ";
      keys_ += "\"" + sim::PortoSynth::plate_of(t) + "\"";
    }
  }

  std::unique_ptr<engine::Privid> make_system() const override {
    auto sys = std::make_unique<engine::Privid>(0xF0F0);
    for (int cam = 0; cam < kCameras; ++cam) {
      engine::CameraRegistration reg;
      reg.meta.camera_id = "porto" + std::to_string(cam);
      reg.meta.fps = 1;
      reg.meta.extent = {0, kDays * 86400.0};
      reg.content.porto = porto_;
      reg.content.porto_camera = cam;
      reg.content.seed = 7000 + static_cast<std::uint64_t>(cam);
      reg.policy = {porto_->camera_rho(cam), 4};
      reg.epsilon_budget = kHuge;
      sys->register_camera(std::move(reg));
    }
    sys->register_executable("taxis", taxi_reporter());
    return sys;
  }

  void warm_up(engine::Privid& sys,
               const engine::RunOptions& opts) const override {
    sys.execute(split_process(0, "A", 0, 86400) +
                    "SELECT COUNT(*) FROM tA;",
                opts);
  }

  QuerySpec query(std::size_t i, const Stratified& s) const override {
    const int shape = static_cast<int>(i % 3);
    const double days = static_cast<double>(
        shape == 2 ? s.pick(i, 0, 2, 7) : s.pick(i, 0, 7, 60));
    const double begin = 86400.0 * static_cast<double>(s.pick(
                                       i, 1, 0,
                                       static_cast<std::int64_t>(kDays - days)));
    const double end = begin + days * 86400;
    if (shape == 2) {
      const int n = static_cast<int>(s.pick(i, 2, 8, 40));
      const int first = static_cast<int>(s.pick(i, 3, 0, kCameras - n));
      std::string q;
      std::string from;
      for (int i = 0; i < n; ++i) {
        const std::string s = std::to_string(i);
        q += split_process(first + i, s, begin, end);
        from += (i ? " UNION t" : "t") + s;
      }
      q += "SELECT ARGMAX(COUNT(*)) FROM " + from + " GROUP BY camera;";
      return {q, days * 86400 * n};
    }
    const int a = static_cast<int>(s.pick(i, 2, 0, kCameras - 1));
    const int b =
        (a + 1 + static_cast<int>(s.pick(i, 3, 0, kCameras - 2))) % kCameras;
    std::string q = split_process(a, "A", begin, end) +
                    split_process(b, "B", begin, end);
    if (shape == 0) {
      q += "SELECT AVG(hours) RANGE 0 16 FROM "
           "(SELECT plate, day(chunk) AS day, SPAN(hod) RANGE 0 16 AS hours "
           " FROM tA UNION tB GROUP BY plate WITH KEYS [" +
           keys_ + "], day(chunk));";
    } else {
      q += "SELECT COUNT(*) FROM "
           "(SELECT plate, day(chunk) AS day, COUNT(*) AS n FROM tA "
           " GROUP BY plate WITH KEYS [" +
           keys_ +
           "], day(chunk)) JOIN "
           "(SELECT plate, day(chunk) AS day, COUNT(*) AS n FROM tB "
           " GROUP BY plate WITH KEYS [" +
           keys_ + "], day(chunk)) ON plate, day;";
    }
    return {q, days * 86400 * 2};
  }

 private:
  static std::string split_process(int cam, const std::string& suffix,
                                   double begin, double end) {
    return "SPLIT porto" + std::to_string(cam) + " BEGIN " + num(begin) +
           " END " + num(end) + " BY TIME 60 STRIDE 0 INTO c" + suffix +
           ";PROCESS c" + suffix +
           " USING taxis TIMEOUT 1 PRODUCING 3 ROWS WITH SCHEMA "
           "(plate:STRING=\"\", hod:NUMBER=0) INTO t" + suffix + ";";
  }

  std::shared_ptr<const sim::PortoSynth> porto_;
  std::string keys_;
};

std::unique_ptr<ClosedWorld> make_closed_world(const std::string& name) {
  if (name == "cv_dense") return std::make_unique<CvWorld>();
  return std::make_unique<PortoWorld>();
}

engine::RunOptions closed_options(std::size_t threads) {
  engine::RunOptions opts;
  opts.num_threads = threads;
  opts.cache = engine::CacheMode::kOff;
  opts.reveal_raw = true;
  return opts;
}

Report run_closed(const Config& cfg) {
  Report report;
  report.threads = cfg.threads;
  const engine::RunOptions opts = closed_options(cfg.threads);

  std::unique_ptr<ClosedWorld> world;
  std::unique_ptr<engine::Privid> sys;
  for (std::size_t rep = 0; rep < cfg.setup_reps; ++rep) {
    sys.reset();
    world.reset();
    const double t0 = now_s();
    world = make_closed_world(cfg.workload);
    const double t1 = now_s();
    sys = world->make_system();
    const double t2 = now_s();
    world->warm_up(*sys, opts);
    const double t3 = now_s();
    report.sim_s.push_back(t1 - t0);
    report.register_s.push_back(t2 - t1);
    report.warmup_s.push_back(t3 - t2);
    report.setup_s.push_back(t3 - t0);
  }

  reset_spans();
  Rng seeded(mix(cfg.seed, 100));
  const Stratified draws(seeded);
  std::vector<std::string> prefix_texts;
  std::vector<Fingerprint> prefix;
  report.before = obs::Registry::global().snapshot();
  const double start = now_s();
  const double deadline = start + cfg.seconds;
  while (now_s() < deadline || report.attempted < kMinSamples) {
    QuerySpec spec = world->query(report.attempted, draws);
    ++report.attempted;
    const double q0 = now_s();
    try {
      engine::QueryResult r = sys->execute(parse(spec.text, &report), opts);
      report.latency_ms.push_back((now_s() - q0) * 1e3);
      report.video_s += spec.video_s;
      report.table_rows += table_rows(r);
      if (prefix.size() < kDigestPrefix) {
        prefix.push_back(release_digest(r));
        prefix_texts.push_back(spec.text);
      }
    } catch (const privid::Error& e) {
      ++report.failed;
      if (report.problem.empty()) report.problem = e.what();
    }
  }
  report.wall_s = now_s() - start;
  report.after = obs::Registry::global().snapshot();
  report.spans = layer_totals();

  // Replay the prefix on a fresh system at one thread: the releases must be
  // bit-identical to the timed run's.
  auto ref = world->make_system();
  const engine::RunOptions one = closed_options(1);
  world->warm_up(*ref, one);
  std::vector<Fingerprint> replay;
  for (const std::string& text : prefix_texts) {
    replay.push_back(release_digest(ref->execute(text, one)));
  }
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    if (replay[i] == prefix[i]) continue;
    ++report.failed;
    report.correct = false;
    report.problem = "release digest differs from the one-thread replay";
  }
  report.digest = hex(fold(prefix));
  return report;
}

// ------------------------------------------------------------ service_zipf

constexpr std::size_t kAnalysts = 16;
constexpr std::size_t kServiceCameras = 4;
constexpr std::size_t kAnchors = 12;   // hour grid of the 12 h scenes
constexpr double kZipfS = 0.7;
constexpr double kArrivalsPerSecond = 40;

std::string analyst_id(std::size_t i) { return "a" + std::to_string(i); }

// A few heavy analysts with a larger fair share.
double analyst_weight(std::size_t i) { return i < 2 ? 4.0 : i < 4 ? 2.0 : 1.0; }

struct Arrival {
  double due_s = 0;  // offset from the start of the timed window
  std::size_t analyst = 0;
  QuerySpec spec;
  std::tuple<std::size_t, std::size_t, int> chunks;  // camera, anchor, #
};

class ServiceWorld {
 public:
  ServiceWorld() {
    cams_.push_back(visual(sim::make_campus(601, kSceneHours, 0.5), 17.0, 81));
    cams_.push_back(visual(sim::make_urban(602, kSceneHours, 0.3), 20.0, 82));
    cams_.push_back(visual(sim::make_highway(603, kSceneHours, 0.3), 33.0, 83));
    cams_.push_back(visual(sim::make_campus(604, kSceneHours, 0.5), 17.0, 84));
  }

  std::unique_ptr<engine::Privid> make_system(std::size_t threads) const {
    auto sys = std::make_unique<engine::Privid>(0x5E5E);
    for (std::size_t i = 0; i < cams_.size(); ++i) {
      register_visual(*sys, camera_id(i), cams_[i]);
    }
    cv::DetectorConfig det;
    det.base_detect_prob = 0.85;
    sys->register_executable("sampler", sampling_counter(det, 0.5));
    service::QueryService::Config cfg;
    cfg.num_threads = threads;
    cfg.cache = engine::CacheMode::kShared;
    sys->configure_service(cfg);
    for (std::size_t a = 0; a < kAnalysts; ++a) {
      sys->service().register_analyst(analyst_id(a), analyst_weight(a));
    }
    return sys;
  }

  // Off-grid window: warms the pool and the cache code paths without
  // touching a key the timed window will ask for.
  void warm_up(engine::Privid& sys) const {
    auto t = sys.service().submit(
        "owner", window_query(0, kDayBegin + 1815, kDayBegin + 2115, 0),
        options());
    sys.service().wait(t);
  }

  // Poisson arrivals conditioned on their count: rate x seconds sends at
  // sorted uniform times. One send in ten opens a burst: a second analyst
  // asks for the same window at the same moment (single-flight's case).
  // Shapes and window lengths take turns; the seed draws analysts, bursts,
  // send times and the Zipf-ranked camera and hour.
  std::vector<Arrival> schedule(std::uint64_t seed, double seconds) const {
    // Separate streams, so send i's query does not depend on the run length.
    Rng rng(mix(seed, 200));
    Rng offsets(mix(seed, 201));
    Rng times(mix(seed, 202));
    const Stratified draws(offsets);
    const auto n = static_cast<std::size_t>(kArrivalsPerSecond * seconds);
    std::vector<double> due(n);
    for (double& d : due) d = times.uniform(0, seconds);
    std::sort(due.begin(), due.end());
    std::vector<Arrival> out(n);
    std::size_t cam = 0, hour = 0;
    int quarters = 1;
    bool burst = false;
    for (std::size_t i = 0; i < n; ++i) {
      Arrival& a = out[i];
      a.analyst = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kAnalysts) - 1));
      if (burst) {
        burst = false;
        a.due_s = out[i - 1].due_s;
      } else {
        a.due_s = due[i];
        cam = zipf(draws.unit(i, 0), kServiceCameras, kZipfS);
        // Each camera has its own hot hours: rank r is hour 5r + 3cam.
        hour = (5 * zipf(draws.unit(i, 1), kAnchors, kZipfS) + 3 * cam) %
               kAnchors;
        quarters = 1 + static_cast<int>((i / 3) % 4);
        burst = rng.bernoulli(0.1);
      }
      const double begin = kDayBegin + 3600.0 * static_cast<double>(hour);
      const double len = 900.0 * quarters;
      a.spec = {window_query(cam, begin, begin + len, static_cast<int>(i % 3)),
                len};
      a.chunks = {cam, hour, quarters * 30};
    }
    return out;
  }

  static engine::RunOptions options() {
    engine::RunOptions opts;
    opts.reveal_raw = true;
    return opts;
  }

 private:
  static std::string camera_id(std::size_t i) {
    return "cam" + std::to_string(i);
  }

  static std::string window_query(std::size_t cam, double begin, double end,
                                  int shape) {
    static const char* kSelect[] = {
        "SELECT SUM(range(n, 0, 40)) FROM t;",
        "SELECT COUNT(*) FROM t GROUP BY hour(chunk);",
        "SELECT AVG(range(n, 0, 40)) FROM t;"};
    return "SPLIT " + camera_id(cam) + " BEGIN " + num(begin) + " END " +
           num(end) +
           " BY TIME 30 STRIDE 0 WITH MASK owner INTO c;"
           "PROCESS c USING sampler TIMEOUT 1 PRODUCING 1 ROWS WITH SCHEMA "
           "(n:NUMBER=0) INTO t;" +
           kSelect[shape];
  }

  std::vector<VisualCamera> cams_;
};

std::size_t working_set_chunks(const std::vector<Arrival>& arrivals) {
  std::map<std::pair<std::size_t, std::size_t>, int> longest;
  for (const Arrival& a : arrivals) {
    const auto [cam, hour, n] = a.chunks;
    int& m = longest[{cam, hour}];
    m = std::max(m, n);
  }
  std::size_t total = 0;
  for (const auto& [key, n] : longest) total += static_cast<std::size_t>(n);
  return total;
}

Report run_service(const Config& cfg) {
  Report report;
  report.threads = cfg.threads;

  std::unique_ptr<ServiceWorld> world;
  std::unique_ptr<engine::Privid> sys;
  std::vector<Arrival> arrivals;
  for (std::size_t rep = 0; rep < cfg.setup_reps; ++rep) {
    sys.reset();
    world.reset();
    const double t0 = now_s();
    world = std::make_unique<ServiceWorld>();
    arrivals = world->schedule(cfg.seed, cfg.seconds);
    const double t1 = now_s();
    sys = world->make_system(cfg.threads);
    const double t2 = now_s();
    world->warm_up(*sys);
    // Size the memory cache to two fifths of the schedule's working set,
    // so hits, misses, inserts and evictions all occur.
    const engine::CacheStats warm = sys->cache_stats();
    const std::size_t entry_bytes =
        warm.entries ? warm.bytes / warm.entries : 256;
    sys->chunk_cache().set_byte_budget(working_set_chunks(arrivals) *
                                       entry_bytes * 2 / 5);
    const double t3 = now_s();
    report.sim_s.push_back(t1 - t0);
    report.register_s.push_back(t2 - t1);
    report.warmup_s.push_back(t3 - t2);
    report.setup_s.push_back(t3 - t0);
  }

  service::QueryService& svc = sys->service();
  const engine::RunOptions opts = ServiceWorld::options();
  struct Outstanding {
    std::size_t index;
    service::QueryTicket ticket;
  };
  std::deque<Outstanding> outstanding;
  std::vector<Fingerprint> digests(arrivals.size());
  std::vector<double> backlog;  // outstanding count at each send

  reset_spans();
  report.before = obs::Registry::global().snapshot();
  const double start = now_s();
  std::size_t next = 0;
  while (next < arrivals.size() || !outstanding.empty()) {
    double now = now_s();
    if (next < arrivals.size() && now >= start + arrivals[next].due_s) {
      const Arrival& a = arrivals[next];
      report.lag_ms.push_back((now - start - a.due_s) * 1e3);
      ++report.attempted;
      try {
        query::ParsedQuery q = parse(a.spec.text, &report);
        const double s0 = now_s();
        Span span(Layer::kSubmit);
        service::QueryTicket t =
            svc.submit(analyst_id(a.analyst), std::move(q), opts);
        report.submit_ms.push_back((now_s() - s0) * 1e3);
        outstanding.push_back({next, std::move(t)});
      } catch (const privid::Error& e) {
        ++report.failed;
        if (report.problem.empty()) report.problem = e.what();
      }
      backlog.push_back(static_cast<double>(outstanding.size()));
      report.backlog_max = std::max(report.backlog_max, outstanding.size());
      ++next;
      continue;
    }
    bool settled = false;
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      const service::QueryState st = svc.poll(it->ticket);
      if (st == service::QueryState::kQueued ||
          st == service::QueryState::kRunning) {
        ++it;
        continue;
      }
      settled = true;
      const Arrival& a = arrivals[it->index];
      now = now_s();
      try {
        engine::QueryResult r = svc.wait(it->ticket);
        report.latency_ms.push_back((now - start - a.due_s) * 1e3);
        report.video_s += a.spec.video_s;
        report.table_rows += table_rows(r);
        digests[it->index] = release_digest(r);
      } catch (const privid::Error& e) {
        ++report.failed;
        if (report.problem.empty()) report.problem = e.what();
      }
      it = outstanding.erase(it);
    }
    if (settled) continue;
    if (now > start + cfg.seconds + kDrainSeconds) {
      report.failed += outstanding.size();
      report.problem = "queries did not settle";
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  report.wall_s = now_s() - start;
  report.after = obs::Registry::global().snapshot();
  report.spans = layer_totals();

  // A backlog that grows across the run means the rate is above capacity:
  // the latencies would then measure the queue, not the service.
  if (backlog.size() >= 8) {
    const std::size_t q = backlog.size() / 4;
    double first = 0, last = 0;
    for (std::size_t i = 0; i < q; ++i) {
      first += backlog[i];
      last += backlog[backlog.size() - 1 - i];
    }
    first /= static_cast<double>(q);
    last /= static_cast<double>(q);
    if (last > 2 * first + 4) {
      report.correct = false;
      report.problem = "backlog grew across the run: over capacity";
    }
  }

  // Replay the first submissions on a fresh one-thread service. Releases
  // depend only on (analyst, the analyst's ordinal, the query), so they
  // must match bit for bit.
  const std::size_t k = std::min<std::size_t>(2 * kDigestPrefix,
                                              arrivals.size());
  auto ref = world->make_system(1);
  std::vector<service::QueryTicket> tickets;
  for (std::size_t i = 0; i < k; ++i) {
    tickets.push_back(ref->service().submit(
        analyst_id(arrivals[i].analyst), arrivals[i].spec.text, opts));
  }
  std::vector<Fingerprint> prefix(digests.begin(), digests.begin() + k);
  for (std::size_t i = 0; i < k; ++i) {
    if (release_digest(ref->service().wait(tickets[i])) == prefix[i]) continue;
    ++report.failed;
    report.correct = false;
    report.problem = "release digest differs from the one-thread replay";
  }
  report.digest = hex(fold(prefix));
  return report;
}

}  // namespace

Report run_workload(Config cfg) {
  set_tracing(cfg.trace);
  if (cfg.setup_reps == 0) {
    cfg.setup_reps = cfg.workload == "porto_fanout" ? 3 : 15;
  }
  Report report;
  if (cfg.workload == "cv_dense" || cfg.workload == "porto_fanout") {
    report = run_closed(cfg);
  } else if (cfg.workload == "service_zipf") {
    report = run_service(cfg);
  } else {
    throw ArgumentError("unknown workload '" + cfg.workload + "'");
  }
  // Every query is expected to succeed: budgets are sized so none is
  // refused.
  if (report.failed > 0) report.correct = false;
  if (!cfg.expect_digest.empty() && report.digest != cfg.expect_digest) {
    ++report.failed;
    report.correct = false;
    report.problem = "release digest " + report.digest +
                     " differs from the recorded " + cfg.expect_digest;
  }
  return report;
}

}  // namespace perfbench
