// Unit tests for the scene simulator: trajectories, entities, scenes,
// scenario presets, traffic lights, foliage, Porto synthesizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "sim/entity.hpp"
#include "sim/foliage.hpp"
#include "sim/porto.hpp"
#include "sim/scenarios.hpp"
#include "sim/scene.hpp"
#include "sim/track_io.hpp"
#include "sim/traffic_light.hpp"
#include "sim/trajectory.hpp"

namespace privid::sim {
namespace {

// ---------------------------------------------------------- Trajectory

TEST(Trajectory, LinearInterpolation) {
  auto t = Trajectory::linear(0, 10, Box{0, 0, 10, 10}, Box{100, 0, 10, 10});
  auto mid = t.sample(5);
  ASSERT_TRUE(mid.has_value());
  EXPECT_DOUBLE_EQ(mid->x, 50.0);
  EXPECT_FALSE(t.sample(-1).has_value());
  EXPECT_FALSE(t.sample(11).has_value());
  EXPECT_DOUBLE_EQ(t.duration(), 10.0);
}

TEST(Trajectory, MultiLegWithPause) {
  Trajectory t({{0, Box{0, 0, 10, 10}},
                {5, Box{50, 0, 10, 10}},
                {15, Box{50, 0, 10, 10}},   // paused
                {20, Box{100, 0, 10, 10}}});
  EXPECT_DOUBLE_EQ(t.sample(10)->x, 50.0);
  EXPECT_DOUBLE_EQ(t.speed_at(10), 0.0);
  EXPECT_GT(t.speed_at(2), 0.0);
}

TEST(Trajectory, SpeedIsDisplacementRate) {
  auto t = Trajectory::linear(0, 10, Box{0, 0, 10, 10}, Box{100, 0, 10, 10});
  EXPECT_NEAR(t.speed_at(5), 10.0, 1e-9);
}

TEST(Trajectory, Validation) {
  EXPECT_THROW(Trajectory({{0, Box{}}}), ArgumentError);
  EXPECT_THROW(Trajectory({{5, Box{}}, {5, Box{}}}), ArgumentError);
  EXPECT_THROW(Trajectory({{5, Box{}}, {4, Box{}}}), ArgumentError);
}

// -------------------------------------------------------------- Entity

TEST(Entity, MultiAppearanceBounds) {
  // The paper's running example: 30s visit, then a 10s visit.
  Entity x;
  x.id = 1;
  x.appearances.push_back(
      Trajectory::linear(0, 30, Box{0, 0, 10, 10}, Box{50, 0, 10, 10}));
  x.appearances.push_back(
      Trajectory::linear(100, 110, Box{0, 0, 10, 10}, Box{50, 0, 10, 10}));
  EXPECT_DOUBLE_EQ(x.max_appearance_duration(), 30.0);  // the rho bound
  EXPECT_EQ(x.appearance_count(), 2u);                  // the K bound
  EXPECT_DOUBLE_EQ(x.total_duration(), 40.0);
  EXPECT_DOUBLE_EQ(x.first_seen(), 0.0);
  EXPECT_DOUBLE_EQ(x.last_seen(), 110.0);
  EXPECT_TRUE(x.visible_at(15));
  EXPECT_FALSE(x.visible_at(50));
  EXPECT_TRUE(x.visible_at(105));
}

TEST(Entity, EmptyEntityThrows) {
  Entity e;
  EXPECT_THROW(e.first_seen(), ArgumentError);
  EXPECT_DOUBLE_EQ(e.max_appearance_duration(), 0.0);
}

// --------------------------------------------------------------- Scene

Scene tiny_scene() {
  VideoMeta m;
  m.camera_id = "t";
  m.fps = 10;
  m.extent = {0, 100};
  Scene s(m);
  Entity a;
  a.id = 1;
  a.cls = EntityClass::kPerson;
  a.appearances.push_back(
      Trajectory::linear(10, 20, Box{0, 300, 20, 40}, Box{400, 300, 20, 40}));
  s.add_entity(a);
  Entity b;
  b.id = 2;
  b.cls = EntityClass::kPerson;
  b.appearances.push_back(
      Trajectory::stationary(5, 95, Box{600, 300, 20, 40}));
  s.add_entity(b);
  return s;
}

TEST(Scene, VisibleAt) {
  Scene s = tiny_scene();
  EXPECT_EQ(s.visible_at(15).size(), 2u);
  EXPECT_EQ(s.visible_at(50).size(), 1u);
  EXPECT_EQ(s.visible_at(99).size(), 0u);
}

TEST(Scene, VisibleAtThroughMask) {
  Scene s = tiny_scene();
  Mask m(1280, 720, 64, 36);
  m.mask_box(Box{580, 280, 80, 80});  // covers entity b
  auto vis = s.visible_at(50, &m);
  EXPECT_TRUE(vis.empty());
  EXPECT_EQ(s.visible_at(15, &m).size(), 1u);  // a unaffected
}

TEST(Scene, MaskedPersistenceDropsLingerer) {
  Scene s = tiny_scene();
  auto unmasked = s.masked_persistence();
  EXPECT_EQ(unmasked.entities_total, 2u);
  EXPECT_EQ(unmasked.entities_retained, 2u);
  EXPECT_NEAR(unmasked.max_duration, 90.0, 2.0);

  Mask m(1280, 720, 64, 36);
  m.mask_box(Box{580, 280, 80, 80});
  auto masked = s.masked_persistence(&m);
  EXPECT_EQ(masked.entities_retained, 1u);
  EXPECT_NEAR(masked.max_duration, 10.0, 1.5);
}

TEST(Scene, TrueEntries) {
  Scene s = tiny_scene();
  EXPECT_EQ(s.true_entries(EntityClass::kPerson, {0, 100}), 2u);
  EXPECT_EQ(s.true_entries(EntityClass::kPerson, {8, 12}), 1u);
  EXPECT_EQ(s.true_entries(EntityClass::kCar, {0, 100}), 0u);
}

TEST(Scene, CandidatesIndexCoversVisible) {
  Scene s = tiny_scene();
  for (double t = 0; t < 100; t += 3.7) {
    auto vis = s.visible_at(t);
    const auto& cands = s.candidates_at(t);
    for (std::size_t v : vis) {
      EXPECT_NE(std::find(cands.begin(), cands.end(), v), cands.end())
          << "entity " << v << " visible at " << t << " missing from index";
    }
  }
}

// -------------------------------------------------------- TrafficLight

TEST(TrafficLight, CycleStates) {
  TrafficLight l(Box{0, 0, 10, 10}, 30, 60, 10);
  EXPECT_EQ(l.state_at(0), LightState::kRed);
  EXPECT_EQ(l.state_at(29.9), LightState::kRed);
  EXPECT_EQ(l.state_at(30), LightState::kGreen);
  EXPECT_EQ(l.state_at(89.9), LightState::kGreen);
  EXPECT_EQ(l.state_at(95), LightState::kYellow);
  EXPECT_EQ(l.state_at(100), LightState::kRed);  // wraps
  EXPECT_DOUBLE_EQ(l.cycle(), 100.0);
}

TEST(TrafficLight, PhaseOffsetAndValidation) {
  TrafficLight l(Box{}, 10, 10, 0, 5);
  EXPECT_EQ(l.state_at(0), LightState::kRed);   // phase 5 < 10
  EXPECT_EQ(l.state_at(6), LightState::kGreen); // phase 11
  EXPECT_THROW(TrafficLight(Box{}, -1, 10, 0), ArgumentError);
  EXPECT_THROW(TrafficLight(Box{}, 0, 0, 0), ArgumentError);
}

TEST(Foliage, BloomedPercent) {
  EXPECT_DOUBLE_EQ(bloomed_percent({}), 0.0);
  std::vector<Tree> trees{{Box{}, true}, {Box{}, false}, {Box{}, true},
                          {Box{}, true}};
  EXPECT_DOUBLE_EQ(bloomed_percent(trees), 75.0);
}

// ----------------------------------------------------------- scenarios

TEST(Scenarios, DeterministicForSeed) {
  auto a = make_campus(7, 1.0, 0.5);
  auto b = make_campus(7, 1.0, 0.5);
  ASSERT_EQ(a.scene.entities().size(), b.scene.entities().size());
  for (std::size_t i = 0; i < a.scene.entities().size(); ++i) {
    EXPECT_EQ(a.scene.entities()[i].id, b.scene.entities()[i].id);
    EXPECT_DOUBLE_EQ(a.scene.entities()[i].first_seen(),
                     b.scene.entities()[i].first_seen());
  }
}

TEST(Scenarios, CampusShape) {
  auto s = make_campus(1, 2.0, 1.0);
  EXPECT_GT(s.scene.entities().size(), 50u);   // ~120/h for 2h (diurnal)
  EXPECT_EQ(s.regions.region_count(), 2u);     // two crosswalks
  EXPECT_GT(s.recommended_mask.masked_cell_count(), 0u);
  EXPECT_EQ(s.scene.trees().size(), 15u);      // Q7: 15/15 bloomed
  EXPECT_EQ(s.scene.lights().size(), 1u);
  for (const auto& e : s.scene.entities()) {
    EXPECT_EQ(e.cls, EntityClass::kPerson);
    EXPECT_GE(e.appearance_count(), 1u);
  }
}

TEST(Scenarios, HighwayHasParkedTail) {
  auto s = make_highway(2, 4.0, 0.5);
  auto p = s.scene.masked_persistence(nullptr, 2.0);
  // Heavy tail: maximum far above the median crossing duration.
  ASSERT_FALSE(p.per_entity_max.empty());
  double max_d = p.max_duration;
  EXPECT_GT(max_d, 600.0);  // a parked car
  // Masking the parking strip removes the tail.
  auto masked = s.scene.masked_persistence(&s.recommended_mask, 2.0);
  EXPECT_LT(masked.max_duration, max_d / 3.0);
  // ... while retaining most identities (Fig. 4).
  EXPECT_GT(static_cast<double>(masked.entities_retained),
            0.8 * static_cast<double>(p.entities_total));
}

TEST(Scenarios, UrbanHasFourCrosswalks) {
  auto s = make_urban(3, 1.0, 0.3);
  EXPECT_EQ(s.regions.region_count(), 4u);
  EXPECT_EQ(s.regions.boundaries(), BoundaryKind::kSoft);
}

TEST(Scenarios, DiurnalRateVaries) {
  ArrivalProfile p{100, {}};
  EXPECT_DOUBLE_EQ(p.rate_at(3 * 3600), 100.0);  // flat when empty
  auto s = make_campus(4, 12.0, 1.0);
  // Arrivals at midday should exceed arrivals in the first hour (6-7am).
  std::size_t early = s.scene.true_entries(EntityClass::kPerson,
                                           {6 * 3600.0, 7 * 3600.0});
  std::size_t midday = s.scene.true_entries(EntityClass::kPerson,
                                            {12 * 3600.0, 13 * 3600.0});
  EXPECT_GT(midday, early);
}

TEST(Scenarios, RetailSeparatesEmployeesFromCustomers) {
  auto s = make_retail(9, 4.0, 1.0, 3);
  std::size_t employees = 0;
  double max_customer = 0, min_employee = 1e18;
  for (const auto& e : s.scene.entities()) {
    if (e.color == "EMPLOYEE") {
      ++employees;
      min_employee = std::min(min_employee, e.max_appearance_duration());
    } else {
      max_customer = std::max(max_customer, e.max_appearance_duration());
    }
  }
  EXPECT_EQ(employees, 3u);
  // The §5.2 premise: a policy bound of 30 min separates the populations.
  EXPECT_LT(max_customer, 1800.0);
  EXPECT_GT(min_employee, 3600.0);
  // The counter mask exists and the floor has two hard regions.
  EXPECT_GT(s.recommended_mask.masked_cell_count(), 0u);
  EXPECT_EQ(s.regions.region_count(), 2u);
}

TEST(Scenarios, ExtendedScenesExist) {
  for (const auto& name : extended_scene_names()) {
    auto s = make_extended(name, 5, 0.5, 0.5);
    EXPECT_EQ(s.name, name);
    EXPECT_FALSE(s.scene.entities().empty()) << name;
  }
  EXPECT_THROW(make_extended("nope", 1), LookupError);
}

TEST(Scenarios, DwellModelClamped) {
  DwellModel d{std::log(10.0), 0.5, 5.0, 20.0};
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    double x = d.sample(rng);
    EXPECT_GE(x, 5.0);
    EXPECT_LE(x, 20.0);
  }
}

// --------------------------------------------------------------- Porto

TEST(Porto, DeterministicVisits) {
  PortoConfig cfg;
  cfg.n_days = 3;
  PortoSynth a(cfg), b(cfg);
  auto va = a.visits(10, {0, 3 * 86400.0});
  auto vb = b.visits(10, {0, 3 * 86400.0});
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].taxi_id, vb[i].taxi_id);
    EXPECT_DOUBLE_EQ(va[i].start, vb[i].start);
  }
}

TEST(Porto, VisitsSortedAndWithinWindow) {
  PortoConfig cfg;
  cfg.n_days = 2;
  PortoSynth p(cfg);
  TimeInterval win{86400.0 / 2, 86400.0};
  auto vs = p.visits(10, win);
  for (std::size_t i = 0; i < vs.size(); ++i) {
    EXPECT_GE(vs[i].start, win.begin);
    EXPECT_LT(vs[i].start, win.end);
    if (i) {
      EXPECT_LE(vs[i - 1].start, vs[i].start);
    }
  }
}

TEST(Porto, CameraRhoInRange) {
  PortoConfig cfg;
  cfg.n_days = 1;
  PortoSynth p(cfg);
  for (int c = 0; c < cfg.n_cameras; ++c) {
    double rho = p.camera_rho(c);
    EXPECT_GE(rho, 15.0);
    EXPECT_LE(rho, 525.0);
  }
  EXPECT_THROW(p.camera_rho(-1), ArgumentError);
  EXPECT_THROW(p.camera_rho(cfg.n_cameras), ArgumentError);
}

TEST(Porto, VisitDurationsRespectCameraCap) {
  PortoConfig cfg;
  cfg.n_days = 5;
  PortoSynth p(cfg);
  for (int cam : {0, 10, 27}) {
    double rho = p.camera_rho(cam);
    for (const auto& v : p.visits(cam, {0, 5 * 86400.0})) {
      EXPECT_LE(v.duration, rho + 1e-9);
    }
  }
}

TEST(Porto, GroundTruthsPlausible) {
  PortoConfig cfg;
  cfg.n_days = 30;
  cfg.n_taxis = 100;
  PortoSynth p(cfg);
  double hours = p.true_avg_working_hours(10, 27);
  EXPECT_GT(hours, 1.0);
  EXPECT_LT(hours, 12.0);
  double both = p.true_avg_taxis_both(10, 27);
  EXPECT_GE(both, 0.0);
  EXPECT_LT(both, 100.0);
}

TEST(Porto, BusiestCameraIsBoosted) {
  PortoConfig cfg;
  cfg.n_days = 10;
  cfg.n_taxis = 150;
  PortoSynth p(cfg);
  EXPECT_EQ(p.true_busiest_camera(), 20);
}

TEST(Porto, ConcurrentColdLookupsMatchSerial) {
  // Four threads race to generate and publish the same (camera, day) memo
  // cells on a cold synth; every result must equal a serial synth's.
  PortoConfig cfg;
  cfg.n_days = 12;
  cfg.n_taxis = 120;
  cfg.n_cameras = 30;
  struct Query {
    int camera;
    TimeInterval window;
  };
  std::vector<Query> queries;
  for (int cam : {20, 3, 20, 11}) {
    for (int d = 0; d < 9; d += 2) {
      // Overlapping windows that start and end mid-day.
      queries.push_back({cam, {(d + 0.5) * 86400.0, (d + 3.25) * 86400.0}});
    }
  }
  PortoSynth serial(cfg);
  std::vector<std::vector<TaxiVisit>> expected;
  for (const auto& q : queries) {
    expected.push_back(serial.visits(q.camera, q.window));
  }

  PortoSynth shared(cfg);
  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<TaxiVisit>>> got(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      // Each thread walks the queries from a different offset, so threads
      // collide on cold cells rather than following one another.
      got[t].resize(queries.size());
      const std::size_t offset = 5 * static_cast<std::size_t>(t);
      for (std::size_t k = 0; k < queries.size(); ++k) {
        const std::size_t i = (k + offset) % queries.size();
        got[t][i] = shared.visits(queries[i].camera, queries[i].window);
      }
    });
  }
  for (auto& th : ts) th.join();

  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto& a = got[t][i];
      const auto& b = expected[i];
      ASSERT_EQ(a.size(), b.size()) << "thread " << t << " query " << i;
      EXPECT_FALSE(a.empty());
      for (std::size_t j = 0; j < a.size(); ++j) {
        EXPECT_EQ(a[j].taxi_id, b[j].taxi_id);
        EXPECT_EQ(a[j].camera_id, b[j].camera_id);
        EXPECT_EQ(a[j].start, b[j].start);
        EXPECT_EQ(a[j].duration, b[j].duration);
      }
    }
  }
}

TEST(Porto, PlateFormat) {
  EXPECT_EQ(PortoSynth::plate_of(42), "TX-0042");
  EXPECT_EQ(PortoSynth::plate_of(0), "TX-0000");
}

// ------------------------------------------------------------- track I/O

TEST(TrackIo, RoundTripPreservesDurations) {
  Scene original = tiny_scene();
  std::ostringstream os;
  export_tracks_csv(original, os);

  std::istringstream is(os.str());
  Scene imported = import_tracks_csv(is, original.meta());
  ASSERT_EQ(imported.entities().size(), original.entities().size());
  auto orig_p = original.masked_persistence(nullptr, 0.5);
  auto imp_p = imported.masked_persistence(nullptr, 0.5);
  EXPECT_NEAR(imp_p.max_duration, orig_p.max_duration, 1.0);
  EXPECT_EQ(imp_p.entities_retained, orig_p.entities_retained);
}

TEST(TrackIo, SplitsAppearancesOnGaps) {
  VideoMeta m;
  m.camera_id = "t";
  m.fps = 10;
  m.extent = {0, 100};
  // id 7 visible frames 1-20, gap, then 200-210 (in 1-based file frames).
  std::ostringstream os;
  os << "frame,id,x,y,w,h,class\n";
  for (int f = 1; f <= 20; ++f) {
    os << f << ",7," << (f * 10) << ",100,20,40,person\n";
  }
  for (int f = 200; f <= 210; ++f) {
    os << f << ",7," << (f * 2) << ",100,20,40,person\n";
  }
  std::istringstream is(os.str());
  Scene scene = import_tracks_csv(is, m, /*gap_frames=*/30);
  ASSERT_EQ(scene.entities().size(), 1u);
  const auto& e = scene.entities()[0];
  EXPECT_EQ(e.appearance_count(), 2u);  // Definition 5.1: K = 2
  EXPECT_EQ(e.cls, EntityClass::kPerson);
  EXPECT_NEAR(e.max_appearance_duration(), 1.9, 0.2);
}

TEST(TrackIo, MalformedRowsRejected) {
  VideoMeta m;
  m.fps = 10;
  m.extent = {0, 10};
  std::istringstream missing("frame,id,x,y,w,h,class\n1,2,3\n");
  EXPECT_THROW(import_tracks_csv(missing, m), ParseError);
  std::istringstream garbage("frame,id,x,y,w,h,class\nx,y,z,a,b,c\n");
  EXPECT_THROW(import_tracks_csv(garbage, m), ParseError);
  std::istringstream empty("");
  EXPECT_EQ(import_tracks_csv(empty, m).entities().size(), 0u);
}

TEST(TrackIo, SingleFrameAppearancePadded) {
  VideoMeta m;
  m.fps = 10;
  m.extent = {0, 10};
  std::istringstream is("frame,id,x,y,w,h,class\n5,1,10,10,20,40,car\n");
  Scene scene = import_tracks_csv(is, m);
  ASSERT_EQ(scene.entities().size(), 1u);
  EXPECT_EQ(scene.entities()[0].cls, EntityClass::kCar);
  EXPECT_GT(scene.entities()[0].max_appearance_duration(), 0.0);
}

}  // namespace
}  // namespace privid::sim
