// Determinism contract of the sharded step (DESIGN.md §9): threads=N must
// be bit-identical to threads=1 — same metrics, same event sequence, same
// poses, same RNG outcomes — plus the per-entity stream and per-clearance
// planner invariants that make the parallel phases sound.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "sim/worksite.h"

namespace agrarsec::sim {
namespace {

WorksiteConfig fig1_site() {
  WorksiteConfig config;
  config.forest.bounds = {{0, 0}, {400, 400}};
  config.forest.trees_per_hectare = 200;
  config.landing_area = {40, 40};
  config.harvester_output_m3_per_min = 30.0;  // keep the fleet busy
  config.load_time = 10 * core::kSecond;
  config.unload_time = 8 * core::kSecond;
  // Windthrow on so the parity run also covers hazard spawning, planner
  // invalidation, and the hazard RNG stream.
  config.windthrow_rate_per_hour = 20.0;
  config.windthrow_duration = 30 * core::kSecond;
  return config;
}

struct RecordedEvent {
  std::string topic;
  std::string payload;
  std::uint64_t origin;
  core::SimTime time;
  bool operator==(const RecordedEvent&) const = default;
};

struct Snapshot {
  std::vector<RecordedEvent> events;
  std::vector<std::tuple<double, double, double, double, double>> machine_poses;
  std::vector<std::pair<double, double>> human_poses;
  Worksite::Metrics metrics;
  double sep_mean = 0.0;
  double sep_stddev = 0.0;
  std::uint64_t close_10m = 0;
  /// Deterministic telemetry export (registry counters + flight events):
  /// covered by the same bit-identical contract as everything above.
  std::string telemetry_json;
};

/// Builds the Figure-1-style mixed fleet, steps `steps` times at the given
/// shard count, and snapshots everything the parity contract covers.
Snapshot run_site(std::size_t threads, int steps, bool drone_follow = false) {
  WorksiteConfig config = fig1_site();
  config.threads = threads;
  config.drone_follow_post_integrate = drone_follow;
  Worksite site{config, 1234};

  Snapshot snap;
  site.bus().subscribe_all([&snap](const core::Event& e) {
    snap.events.push_back({e.topic, e.payload, e.origin, e.time});
  });

  site.add_harvester("h1", {250, 250});
  std::vector<MachineId> forwarders;
  for (int i = 0; i < 4; ++i) {
    forwarders.push_back(site.add_forwarder(
        "f" + std::to_string(i), {60.0 + 20.0 * i, 60.0}));
  }
  const MachineId drone = site.add_drone("d1", {50, 50});
  site.set_drone_orbit(drone, forwarders[0], 25.0);
  for (int i = 0; i < 8; ++i) {
    const core::Vec2 anchor{100.0 + 30.0 * (i % 4), 120.0 + 60.0 * (i / 4)};
    site.add_worker("w" + std::to_string(i), anchor, anchor);
  }

  for (int i = 0; i < steps; ++i) site.step();

  for (const Machine* m : site.machines()) {
    snap.machine_poses.emplace_back(m->position().x, m->position().y, m->heading(),
                                    m->speed(), m->load_m3());
  }
  for (const Human* h : site.humans()) {
    snap.human_poses.emplace_back(h->position().x, h->position().y);
  }
  snap.metrics = site.metrics();
  snap.sep_mean = site.separation_stats().mean();
  snap.sep_stddev = site.separation_stats().stddev();
  snap.close_10m = site.close_encounters(10.0);
  snap.telemetry_json = site.telemetry().deterministic_json();
  return snap;
}

void expect_identical(const Snapshot& a, const Snapshot& b, std::size_t threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  // Event sequence: exact, in order (publishes happen only in the serial
  // phases, in ascending machine-slot order).
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i], b.events[i]) << "event " << i;
  }
  // Poses: bit-identical doubles (same operations in the same order on
  // every entity, whatever thread stepped it).
  EXPECT_EQ(a.machine_poses, b.machine_poses);
  EXPECT_EQ(a.human_poses, b.human_poses);
  // Metrics, including the float accumulators whose summation order the
  // drain pins down.
  EXPECT_EQ(a.metrics.delivered_m3, b.metrics.delivered_m3);
  EXPECT_EQ(a.metrics.completed_cycles, b.metrics.completed_cycles);
  EXPECT_EQ(a.metrics.min_human_separation, b.metrics.min_human_separation);
  EXPECT_EQ(a.metrics.separation_samples, b.metrics.separation_samples);
  EXPECT_EQ(a.metrics.route_reuses, b.metrics.route_reuses);
  EXPECT_EQ(a.metrics.windthrow_events, b.metrics.windthrow_events);
  EXPECT_EQ(a.metrics.planner.plans, b.metrics.planner.plans);
  EXPECT_EQ(a.metrics.planner.cache_hits, b.metrics.planner.cache_hits);
  EXPECT_EQ(a.metrics.planner.cache_misses, b.metrics.planner.cache_misses);
  EXPECT_EQ(a.metrics.planner.invalidations, b.metrics.planner.invalidations);
  EXPECT_EQ(a.sep_mean, b.sep_mean);
  EXPECT_EQ(a.sep_stddev, b.sep_stddev);
  EXPECT_EQ(a.close_10m, b.close_10m);
  // Telemetry with per-shard counter lanes merges to the same bytes.
  EXPECT_EQ(a.telemetry_json, b.telemetry_json);
}

TEST(WorksiteParallel, ThreadCountIsUnobservable) {
  constexpr int kSteps = 600;  // one sim-minute, enough for full cycles
  const Snapshot serial = run_site(1, kSteps);
  ASSERT_FALSE(serial.events.empty());
  ASSERT_GT(serial.metrics.separation_samples, 0u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    expect_identical(serial, run_site(threads, kSteps), threads);
  }
}

TEST(WorksiteParallel, ZeroThreadsMeansHardwareConcurrency) {
  // threads=0 must resolve and still honour the parity contract.
  const Snapshot serial = run_site(1, 200);
  expect_identical(serial, run_site(0, 200), 0);
}

// The post-integrate follower phase is serial, but the drones it defers
// are skipped by two parallel phases (decide, integrate) — the parity
// contract must hold with the flag on too.
TEST(WorksiteParallel, DroneFollowPostIntegrateThreadCountIsUnobservable) {
  constexpr int kSteps = 300;
  const Snapshot serial = run_site(1, kSteps, /*drone_follow=*/true);
  ASSERT_FALSE(serial.events.empty());
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    expect_identical(serial, run_site(threads, kSteps, /*drone_follow=*/true),
                     threads);
  }
}

// The flag only re-times the drone's orbit update: everything else on the
// site — events, outcome metrics, every non-drone pose — is untouched,
// while the drone trajectory itself changes (it now tracks the post-step
// anchor pose).
TEST(WorksiteParallel, DroneFollowFlagOnlyAffectsDroneTrajectory) {
  constexpr int kSteps = 300;
  const Snapshot off = run_site(1, kSteps, /*drone_follow=*/false);
  const Snapshot on = run_site(1, kSteps, /*drone_follow=*/true);
  ASSERT_EQ(off.events.size(), on.events.size());
  EXPECT_EQ(off.human_poses, on.human_poses);
  EXPECT_EQ(off.metrics.delivered_m3, on.metrics.delivered_m3);
  EXPECT_EQ(off.metrics.completed_cycles, on.metrics.completed_cycles);
  // Slot 5 is the drone (harvester + 4 forwarders precede it).
  ASSERT_EQ(off.machine_poses.size(), 6u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(off.machine_poses[i], on.machine_poses[i]) << "machine " << i;
  }
  EXPECT_NE(off.machine_poses[5], on.machine_poses[5]);
}

// The follower phase shards across the pool when several drones are
// anchored on non-drones: a multi-drone site must stay bit-identical
// across thread counts with the flag on (regression for the serial ->
// sharded follow_drones change).
TEST(WorksiteParallel, MultiDroneFollowPostIntegrateParity) {
  constexpr int kSteps = 300;
  auto run_multi_drone = [](std::size_t threads) {
    WorksiteConfig config = fig1_site();
    config.threads = threads;
    config.drone_follow_post_integrate = true;
    Worksite site{config, 99};
    Snapshot snap;
    site.bus().subscribe_all([&snap](const core::Event& e) {
      snap.events.push_back({e.topic, e.payload, e.origin, e.time});
    });
    site.add_harvester("h1", {250, 250});
    std::vector<MachineId> forwarders;
    for (int i = 0; i < 6; ++i) {
      forwarders.push_back(
          site.add_forwarder("f" + std::to_string(i), {60.0 + 18.0 * i, 60.0}));
    }
    for (int i = 0; i < 6; ++i) {
      const MachineId drone =
          site.add_drone("d" + std::to_string(i), {50.0 + 25.0 * i, 40.0});
      site.set_drone_orbit(drone, forwarders[i], 20.0 + 2.0 * i);
    }
    for (int i = 0; i < 4; ++i) {
      const core::Vec2 anchor{120.0 + 40.0 * i, 150.0};
      site.add_worker("w" + std::to_string(i), anchor, anchor);
    }
    for (int i = 0; i < kSteps; ++i) site.step();
    for (const Machine* m : site.machines()) {
      snap.machine_poses.emplace_back(m->position().x, m->position().y,
                                      m->heading(), m->speed(), m->load_m3());
    }
    snap.metrics = site.metrics();
    snap.telemetry_json = site.telemetry().deterministic_json();
    return snap;
  };
  const Snapshot serial = run_multi_drone(1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Snapshot sharded = run_multi_drone(threads);
    ASSERT_EQ(serial.events.size(), sharded.events.size());
    for (std::size_t i = 0; i < serial.events.size(); ++i) {
      EXPECT_EQ(serial.events[i], sharded.events[i]) << "event " << i;
    }
    EXPECT_EQ(serial.machine_poses, sharded.machine_poses);
    EXPECT_EQ(serial.telemetry_json, sharded.telemetry_json);
  }
}

// A drone anchored on another drone forces the serial follower fallback
// (the chained read depends on slot order); the site must still step and
// stay deterministic across thread counts.
TEST(WorksiteParallel, DroneOnDroneAnchorFallsBackSerially) {
  auto run_chained = [](std::size_t threads) {
    WorksiteConfig config = fig1_site();
    config.threads = threads;
    config.drone_follow_post_integrate = true;
    config.windthrow_rate_per_hour = 0.0;
    Worksite site{config, 17};
    const MachineId f = site.add_forwarder("f1", {60, 60});
    const MachineId d1 = site.add_drone("d1", {50, 40});
    const MachineId d2 = site.add_drone("d2", {70, 40});
    site.set_drone_orbit(d1, f, 25.0);
    site.set_drone_orbit(d2, d1, 15.0);  // drone-on-drone chain
    site.route_machine(f, {300, 300});
    for (int i = 0; i < 200; ++i) site.step();
    std::vector<std::pair<double, double>> poses;
    for (const Machine* m : site.machines()) {
      poses.emplace_back(m->position().x, m->position().y);
    }
    return poses;
  };
  const auto serial = run_chained(1);
  EXPECT_EQ(serial, run_chained(2));
  EXPECT_EQ(serial, run_chained(8));
}

// humans_within_slots is the allocation-free twin of humans_within: same
// set, same ascending-id order, slots resolving to the same people via
// the SoA mirror.
TEST(WorksiteParallel, HumansWithinSlotsMatchesHumansWithin) {
  WorksiteConfig config = fig1_site();
  Worksite site{config, 31};
  site.add_forwarder("f1", {60, 60});
  for (int i = 0; i < 12; ++i) {
    const core::Vec2 anchor{80.0 + 22.0 * (i % 6), 90.0 + 35.0 * (i / 6)};
    site.add_worker("w" + std::to_string(i), anchor, anchor);
  }
  for (int i = 0; i < 150; ++i) site.step();

  const HumanHotState& people = site.human_hot();
  std::vector<std::uint32_t> slots;
  for (const double radius : {0.0, 15.0, 60.0, 400.0}) {
    for (const core::Vec2 center :
         {core::Vec2{100, 100}, core::Vec2{60, 60}, core::Vec2{350, 350}}) {
      const auto ptrs = site.humans_within(center, radius);
      site.humans_within_slots(center, radius, slots);
      ASSERT_EQ(ptrs.size(), slots.size())
          << "radius " << radius << " center (" << center.x << "," << center.y << ")";
      for (std::size_t i = 0; i < ptrs.size(); ++i) {
        EXPECT_EQ(ptrs[i]->id().value(), people.id[slots[i]]);
        EXPECT_EQ(ptrs[i]->position().x, people.x[slots[i]]);
        EXPECT_EQ(ptrs[i]->position().y, people.y[slots[i]]);
        EXPECT_EQ(ptrs[i]->height(), people.height[slots[i]]);
      }
    }
  }
}

// The SoA mirrors must match the entities bit-for-bit between steps —
// from spawn (before any step) and after every refresh.
TEST(WorksiteParallel, HotStateMirrorsEntitiesBetweenSteps) {
  WorksiteConfig config = fig1_site();
  Worksite site{config, 63};
  site.add_harvester("h1", {250, 250});
  const MachineId f = site.add_forwarder("f1", {60, 60});
  const MachineId d = site.add_drone("d1", {50, 50});
  site.set_drone_orbit(d, f, 25.0);
  site.add_worker("w1", {150, 150}, {150, 150});
  site.add_worker("w2", {180, 160}, {180, 160});

  auto expect_mirrors_match = [&site] {
    const MachineHotState& hot = site.machine_hot();
    const auto machines = site.machines();
    ASSERT_EQ(hot.size(), machines.size());
    for (std::size_t slot = 0; slot < machines.size(); ++slot) {
      const Machine& m = *machines[slot];
      EXPECT_EQ(hot.x[slot], m.position().x);
      EXPECT_EQ(hot.y[slot], m.position().y);
      EXPECT_EQ(hot.heading[slot], m.heading());
      EXPECT_EQ(hot.speed[slot], m.speed());
      EXPECT_EQ(hot.id[slot], m.id().value());
      EXPECT_EQ(hot.kind[slot], m.kind());
    }
    const HumanHotState& people = site.human_hot();
    const auto humans = site.humans();
    ASSERT_EQ(people.size(), humans.size());
    for (std::size_t slot = 0; slot < humans.size(); ++slot) {
      const Human& h = *humans[slot];
      EXPECT_EQ(people.x[slot], h.position().x);
      EXPECT_EQ(people.y[slot], h.position().y);
      EXPECT_EQ(people.height[slot], h.height());
      EXPECT_EQ(people.id[slot], h.id().value());
    }
  };

  expect_mirrors_match();  // valid from spawn
  for (int i = 0; i < 120; ++i) site.step();
  expect_mirrors_match();
  // Spawning mid-run extends the mirrors immediately.
  site.add_worker("w3", {200, 200}, {200, 200});
  site.add_forwarder("f2", {90, 60});
  expect_mirrors_match();
  for (int i = 0; i < 60; ++i) site.step();
  expect_mirrors_match();
}

/// Drives a forwarder with an orbiting drone far enough away that the
/// drone never reaches its waypoint (so current_waypoint() stays exactly
/// the orbit target decide_drone set this step), and returns, per step,
/// the anchor's pre-step pose, post-step pose and the drone's waypoint.
struct FollowTrace {
  std::vector<core::Vec2> anchor_pre;
  std::vector<core::Vec2> anchor_post;
  std::vector<core::Vec2> drone_waypoint;
  core::SimDuration step_ms = 0;
};

FollowTrace run_follow_trace(bool post_integrate, int steps) {
  WorksiteConfig config = fig1_site();
  config.windthrow_rate_per_hour = 0.0;
  config.drone_follow_post_integrate = post_integrate;
  Worksite site{config, 42};
  const MachineId f = site.add_forwarder("f1", {60, 60});
  const MachineId d = site.add_drone("d1", {350, 350});  // far: never arrives
  site.set_drone_orbit(d, f, 25.0);
  site.route_machine(f, {300, 300});  // keep the anchor moving

  FollowTrace trace;
  trace.step_ms = config.step;
  for (int i = 0; i < steps; ++i) {
    trace.anchor_pre.push_back(site.machine(f)->position());
    site.step();
    trace.anchor_post.push_back(site.machine(f)->position());
    const auto wp = site.machine(d)->current_waypoint();
    trace.drone_waypoint.push_back(wp.value_or(core::Vec2{-1, -1}));
  }
  return trace;
}

// Default path: the orbit target is computed in the decide phase from the
// anchor's START-of-step pose — the documented one-step lag. This pins the
// default behavior bit-exactly (the flag must not change it).
TEST(WorksiteDroneFollow, DefaultDecidePhaseReadsPreStepPose) {
  const FollowTrace trace = run_follow_trace(false, 25);
  // The anchor must actually move, or pre == post and the test says nothing.
  ASSERT_NE(trace.anchor_pre.back().x, trace.anchor_post.back().x);
  double phase = 0.0;
  for (std::size_t i = 0; i < trace.drone_waypoint.size(); ++i) {
    phase += 0.35 * static_cast<double>(trace.step_ms) / core::kSecond;
    const core::Vec2 expected =
        trace.anchor_pre[i] +
        core::Vec2{std::cos(phase), std::sin(phase)} * 25.0;
    EXPECT_EQ(trace.drone_waypoint[i].x, expected.x) << "step " << i;
    EXPECT_EQ(trace.drone_waypoint[i].y, expected.y) << "step " << i;
  }
}

// Flag on: the follower phase runs after the integrate barrier, so the
// same computation now sees the anchor's CURRENT pose — the lag is gone.
TEST(WorksiteDroneFollow, PostIntegrateFollowerReadsPostStepPose) {
  const FollowTrace trace = run_follow_trace(true, 25);
  ASSERT_NE(trace.anchor_pre.back().x, trace.anchor_post.back().x);
  double phase = 0.0;
  for (std::size_t i = 0; i < trace.drone_waypoint.size(); ++i) {
    phase += 0.35 * static_cast<double>(trace.step_ms) / core::kSecond;
    const core::Vec2 expected =
        trace.anchor_post[i] +
        core::Vec2{std::cos(phase), std::sin(phase)} * 25.0;
    EXPECT_EQ(trace.drone_waypoint[i].x, expected.x) << "step " << i;
    EXPECT_EQ(trace.drone_waypoint[i].y, expected.y) << "step " << i;
  }
}

// Per-entity streams: an entity's RNG-driven behaviour depends only on the
// worksite seed and its own id, never on who else draws. Adding a second
// worker must leave the first worker's walk untouched (with the old shared
// stream it interleaved draws and diverged immediately).
TEST(WorksiteParallel, WorkerStreamIndependentOfPopulation) {
  WorksiteConfig config = fig1_site();
  config.windthrow_rate_per_hour = 0.0;

  Worksite alone{config, 77};
  const HumanId w_alone = alone.add_worker("w1", {150, 150}, {150, 150});

  Worksite crowded{config, 77};
  const HumanId w_crowded = crowded.add_worker("w1", {150, 150}, {150, 150});
  crowded.add_worker("w2", {180, 180}, {180, 180});
  crowded.add_worker("w3", {120, 190}, {120, 190});

  for (int i = 0; i < 500; ++i) {
    alone.step();
    crowded.step();
    const core::Vec2 pa = alone.human(w_alone)->position();
    const core::Vec2 pc = crowded.human(w_crowded)->position();
    ASSERT_EQ(pa.x, pc.x) << "step " << i;
    ASSERT_EQ(pa.y, pc.y) << "step " << i;
  }
}

// Same invariant for machines: the harvester's pile placement draws come
// from its own stream, so an unrelated extra machine does not perturb it.
TEST(WorksiteParallel, HarvesterStreamIndependentOfPopulation) {
  WorksiteConfig config = fig1_site();
  config.windthrow_rate_per_hour = 0.0;

  Worksite alone{config, 9};
  alone.add_harvester("h1", {250, 250});
  Worksite crowded{config, 9};
  crowded.add_harvester("h1", {250, 250});
  crowded.add_drone("d1", {50, 50});  // different kind, later id

  for (int i = 0; i < 400; ++i) {
    alone.step();
    crowded.step();
  }
  ASSERT_EQ(alone.piles().size(), crowded.piles().size());
  for (std::size_t i = 0; i < alone.piles().size(); ++i) {
    EXPECT_EQ(alone.piles()[i].position.x, crowded.piles()[i].position.x);
    EXPECT_EQ(alone.piles()[i].position.y, crowded.piles()[i].position.y);
  }
}

// S2: weather-driven windthrow must actually reach the planners — events
// on the bus, hazards counted, cached routes invalidated, debris cleared
// after the configured duration.
TEST(WorksiteParallel, WindthrowBlocksPlannersAndClears) {
  WorksiteConfig config = fig1_site();
  config.weather = Weather::kSnow;           // highest hazard factor
  config.windthrow_rate_per_hour = 2000.0;   // deterministic-ish: fires fast
  config.windthrow_duration = 5 * core::kSecond;
  Worksite site{config, 5};

  int spawned = 0;
  int cleared = 0;
  site.bus().subscribe("worksite/windthrow",
                       [&spawned](const core::Event&) { ++spawned; });
  site.bus().subscribe("worksite/windthrow-cleared",
                       [&cleared](const core::Event&) { ++cleared; });

  site.add_harvester("h1", {200, 200});
  site.add_forwarder("f1", {60, 60});
  (void)site.plan_route({60, 60}, {350, 350});  // warm a cache entry
  for (int i = 0; i < 1200; ++i) site.step();  // 2 sim-minutes

  EXPECT_GT(spawned, 0);
  EXPECT_GT(cleared, 0);
  EXPECT_EQ(site.metrics().windthrow_events, static_cast<std::uint64_t>(spawned));
  // Generation-invalidation: the warmed entry was planned before the first
  // windthrow bumped the blocked-grid generation, so re-querying the same
  // pair must evict it instead of serving a stale route.
  (void)site.plan_route({60, 60}, {350, 350});
  EXPECT_GT(site.metrics().planner.invalidations, 0u);
}

TEST(WorksiteParallel, WindthrowFactorOrdering) {
  EXPECT_LT(windthrow_weather_factor(Weather::kClear),
            windthrow_weather_factor(Weather::kFog));
  EXPECT_LT(windthrow_weather_factor(Weather::kFog),
            windthrow_weather_factor(Weather::kRain));
  EXPECT_LT(windthrow_weather_factor(Weather::kRain),
            windthrow_weather_factor(Weather::kSnow));
}

// S3: the exact sample set and the streaming histogram must agree on
// close_encounters at histogram bin edges (where no rounding happens).
TEST(WorksiteParallel, ExactSamplesAgreeWithHistogramAtBinEdges) {
  WorksiteConfig base = fig1_site();
  base.windthrow_rate_per_hour = 0.0;

  auto populate_and_run = [](Worksite& site) {
    site.add_harvester("h1", {250, 250});
    site.add_forwarder("f1", {60, 60});
    site.add_forwarder("f2", {90, 60});
    for (int i = 0; i < 6; ++i) {
      const core::Vec2 anchor{100.0 + 25.0 * i, 130.0};
      site.add_worker("w" + std::to_string(i), anchor, anchor);
    }
    for (int i = 0; i < 3000; ++i) site.step();
  };

  WorksiteConfig exact_cfg = base;
  exact_cfg.exact_separation_samples = true;
  Worksite exact{exact_cfg, 21};
  Worksite histo{base, 21};
  populate_and_run(exact);
  populate_and_run(histo);

  ASSERT_NE(exact.separation_samples(), nullptr);
  EXPECT_EQ(histo.separation_samples(), nullptr);
  ASSERT_GT(exact.separation_samples()->size(), 0u);
  EXPECT_EQ(exact.separation_samples()->size(),
            exact.separation_stats().count());

  // Identical simulations (the flag only adds retention), so the two
  // sites saw the same samples; compare both paths at every bin edge.
  ASSERT_EQ(exact.separation_stats().count(), histo.separation_stats().count());
  for (double edge = 0.0; edge <= base.separation_tracking_m + 0.5;
       edge += 25 * base.separation_bin_m) {
    EXPECT_EQ(exact.close_encounters(edge), histo.close_encounters(edge))
        << "threshold " << edge;
  }
  // Off-edge thresholds: the histogram rounds up to the next edge, so it
  // may only over-count, never under-count.
  EXPECT_GE(histo.close_encounters(10.05), exact.close_encounters(10.05));
}

// S1 regression: machines with different clearances must not share a route
// cache. A drone-width route served to a forwarder would thread gaps the
// forwarder cannot take.
TEST(WorksiteParallel, PerClearancePlannerInstances) {
  Worksite site{fig1_site(), 3};
  const MachineId f = site.add_forwarder("f1", {60, 60});
  const MachineId d = site.add_drone("d1", {60, 60});

  const double fc = Worksite::machine_clearance(*site.machine(f));
  const double dc = Worksite::machine_clearance(*site.machine(d));
  EXPECT_NEAR(fc, 2.0, 1e-9);  // 1.8 m body + margin = default planner
  EXPECT_NEAR(dc, 0.6, 1e-9);  // 0.4 m body + margin
  ASSERT_NE(&site.planner_for(fc), &site.planner_for(dc));
  EXPECT_EQ(&site.planner_for(fc), &site.planner());  // default instance reused
  EXPECT_NEAR(site.planner_for(dc).config().clearance_m, 0.6, 1e-9);

  // Routing the drone must not touch the forwarder planner's cache.
  const std::size_t before = site.planner().cache_size();
  site.route_machine(d, {300, 300});
  EXPECT_EQ(site.planner().cache_size(), before);

  // Both planners honour block_region (fleet-wide no-go).
  const std::uint64_t gen_f = site.planner_for(fc).generation();
  const std::uint64_t gen_d = site.planner_for(dc).generation();
  site.block_region({200, 200}, 15.0, true);
  EXPECT_GT(site.planner_for(fc).generation(), gen_f);
  EXPECT_GT(site.planner_for(dc).generation(), gen_d);
}

}  // namespace
}  // namespace agrarsec::sim
