// Step-level invariants of sim::Worksite: pinned trajectories for five
// reference sites (WorksiteDeterminism), the drone follower phase, the
// SoA hot-state mirrors, per-entity RNG streams, windthrow hazards,
// separation tracking and per-clearance planners.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <ostream>
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
  // Windthrow on, so the hazard RNG stream is drawn every step. At this
  // rate under clear weather a hazard fires about once per 12 sim-minutes;
  // tests that need hazards to fire raise the rate or worsen the weather.
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
  std::uint64_t close_10m = 0;
  /// Deterministic telemetry export (registry counters + flight events).
  std::string telemetry_json;
};

/// Builds a site with `populate`, steps it `steps` times, and snapshots
/// everything the determinism contract covers.
template <typename Populate>
Snapshot run_snapshot(const WorksiteConfig& config, std::uint64_t seed, int steps,
                      Populate&& populate) {
  Worksite site{config, seed};
  Snapshot snap;
  site.bus().subscribe_all([&snap](const core::Event& e) {
    snap.events.push_back({e.topic, e.payload, e.origin, e.time});
  });
  populate(site);
  for (int i = 0; i < steps; ++i) site.step();

  for (const Machine* m : site.machines()) {
    snap.machine_poses.emplace_back(m->position().x, m->position().y, m->heading(),
                                    m->speed(), m->load_m3());
  }
  for (const Human* h : site.humans()) {
    snap.human_poses.emplace_back(h->position().x, h->position().y);
  }
  snap.metrics = site.metrics();
  snap.close_10m = site.close_encounters(10.0);
  snap.telemetry_json = site.telemetry().deterministic_json();
  return snap;
}

/// The Figure-1-style mixed fleet: a harvester, four forwarders, a drone
/// orbiting the first forwarder, and eight workers.
void populate_fig1(Worksite& site) {
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
}

Snapshot run_site(int steps, bool drone_follow = false) {
  WorksiteConfig config = fig1_site();
  config.drone_follow_post_integrate = drone_follow;
  return run_snapshot(config, 1234, steps, populate_fig1);
}

/// FNV-1a over simulation outcomes. Doubles are hashed by bit pattern, so
/// equal digests mean bit-identical results.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

struct SiteDigests {
  std::uint64_t events = 0;
  std::uint64_t poses = 0;
  std::uint64_t metrics = 0;
  std::uint64_t telemetry = 0;
  bool operator==(const SiteDigests&) const = default;
};

/// Prints digests as initializer text, ready to paste into kPinned.
void PrintTo(const SiteDigests& d, std::ostream* os) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "{0x%016llxULL, 0x%016llxULL, 0x%016llxULL, 0x%016llxULL}",
                static_cast<unsigned long long>(d.events),
                static_cast<unsigned long long>(d.poses),
                static_cast<unsigned long long>(d.metrics),
                static_cast<unsigned long long>(d.telemetry));
  *os << buf;
}

SiteDigests digest(const Snapshot& snap) {
  SiteDigests d;
  Fnv1a events;
  for (const RecordedEvent& e : snap.events) {
    events.str(e.topic);
    events.str(e.payload);
    events.u64(e.origin);
    events.u64(static_cast<std::uint64_t>(e.time));
  }
  d.events = events.h;

  Fnv1a poses;
  for (const auto& [x, y, heading, speed, load] : snap.machine_poses) {
    for (const double v : {x, y, heading, speed, load}) poses.f64(v);
  }
  for (const auto& [x, y] : snap.human_poses) {
    poses.f64(x);
    poses.f64(y);
  }
  d.poses = poses.h;

  Fnv1a metrics;
  const Worksite::Metrics& m = snap.metrics;
  metrics.f64(m.delivered_m3);
  metrics.u64(m.completed_cycles);
  metrics.f64(m.min_human_separation);
  metrics.u64(m.separation_samples);
  metrics.u64(m.route_reuses);
  metrics.u64(m.windthrow_events);
  metrics.u64(m.planner.plans);
  metrics.u64(m.planner.cache_hits);
  metrics.u64(m.planner.cache_misses);
  metrics.u64(m.planner.invalidations);
  metrics.u64(m.planner.jps_expansions);
  metrics.u64(snap.close_10m);
  d.metrics = metrics.h;

  Fnv1a telemetry;
  telemetry.str(snap.telemetry_json);
  d.telemetry = telemetry.h;
  return d;
}

// Pinned trajectories, digested by this file built against older
// libraries: the events, poses and telemetry digests of the first four
// sites against the sharded step (threads=1, 2 and 8 all agreed), the
// metrics digests and the fifth site against the library that still kept
// separation moments beside the registry histogram. They pin that every
// event, pose, metric and export byte survived both removals. A
// deliberate behaviour change re-pins them, with the diff explained.
TEST(WorksiteDeterminism, Fig1Site600Steps) {
  const Snapshot snap = run_site(600);  // one sim-minute
  ASSERT_FALSE(snap.events.empty());
  ASSERT_GT(snap.metrics.separation_samples, 0u);
  constexpr SiteDigests kPinned{0xec5c69473ea88904ULL, 0x9a27cad1fbe8459dULL,
                                  0x9ec0efc09030f83bULL, 0x51d342df628446d9ULL};
  EXPECT_EQ(digest(snap), kPinned);
}

TEST(WorksiteDeterminism, Fig1SiteDroneFollow300Steps) {
  const Snapshot snap = run_site(300, /*drone_follow=*/true);
  ASSERT_FALSE(snap.events.empty());
  constexpr SiteDigests kPinned{0x1f453892893e0131ULL, 0x808440db415e6a63ULL,
                                  0x247fc536db00ae03ULL, 0xdd0023d10346a8edULL};
  EXPECT_EQ(digest(snap), kPinned);
}

// Six drones, each orbiting its own forwarder, in the post-integrate
// follower phase.
TEST(WorksiteDeterminism, SixDroneFollowSite) {
  WorksiteConfig config = fig1_site();
  config.drone_follow_post_integrate = true;
  const Snapshot snap = run_snapshot(config, 99, 300, [](Worksite& site) {
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
  });
  ASSERT_FALSE(snap.events.empty());
  constexpr SiteDigests kPinned{0x93ad53a455373730ULL, 0x79ad4a3749c3f2bcULL,
                                  0x7a5bca4132bc4056ULL, 0xd9b6f50048da02bfULL};
  EXPECT_EQ(digest(snap), kPinned);
}

// A drone anchored on another drone: the follower phase walks drones in
// ascending slot order, so d2 reads d1's already-stepped pose.
TEST(WorksiteDeterminism, DroneOnDroneChain) {
  WorksiteConfig config = fig1_site();
  config.drone_follow_post_integrate = true;
  config.windthrow_rate_per_hour = 0.0;
  const Snapshot snap = run_snapshot(config, 17, 200, [](Worksite& site) {
    const MachineId f = site.add_forwarder("f1", {60, 60});
    const MachineId d1 = site.add_drone("d1", {50, 40});
    const MachineId d2 = site.add_drone("d2", {70, 40});
    site.set_drone_orbit(d1, f, 25.0);
    site.set_drone_orbit(d2, d1, 15.0);  // drone-on-drone chain
    site.route_machine(f, {300, 300});
  });
  constexpr SiteDigests kPinned{0x14650fb0739d0383ULL, 0x9b7969c30c66c944ULL,
                                  0xc5fe1d98d8d7e9b3ULL, 0x91cf3827edbecc6aULL};
  EXPECT_EQ(digest(snap), kPinned);
}

// The fig-1 site in rain for ten sim-minutes: forwarders finish
// load/unload cycles (the drain's kLoadCommit/kCycleCommit paths),
// windthrow fires and invalidates cached routes, and the separation
// histogram collects many samples.
TEST(WorksiteDeterminism, Fig1SiteRain6000Steps) {
  WorksiteConfig config = fig1_site();
  config.weather = Weather::kRain;
  config.windthrow_rate_per_hour = 60.0;
  const Snapshot snap = run_snapshot(config, 1234, 6000, populate_fig1);
  ASSERT_GT(snap.metrics.completed_cycles, 0u);
  ASSERT_GT(snap.metrics.windthrow_events, 0u);
  ASSERT_GT(snap.metrics.planner.invalidations, 0u);
  constexpr SiteDigests kPinned{0x4909c826ef99259fULL, 0x6f7cf14a9daaec05ULL,
                                  0x731d0e4b2b510314ULL, 0x238c8d67a592fb00ULL};
  EXPECT_EQ(digest(snap), kPinned);
}

// The flag only re-times the drone's orbit update: everything else on the
// site — events, outcome metrics, every non-drone pose — is untouched,
// while the drone trajectory itself changes (it now tracks the post-step
// anchor pose).
TEST(WorksiteStep, DroneFollowFlagOnlyAffectsDroneTrajectory) {
  constexpr int kSteps = 300;
  const Snapshot off = run_site(kSteps, /*drone_follow=*/false);
  const Snapshot on = run_site(kSteps, /*drone_follow=*/true);
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

// humans_within_slots is the allocation-free twin of humans_within: same
// set, same ascending-id order, slots resolving to the same people via
// the SoA mirror.
TEST(WorksiteStep, HumansWithinSlotsMatchesHumansWithin) {
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
TEST(WorksiteStep, HotStateMirrorsEntitiesBetweenSteps) {
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
TEST(WorksiteStep, WorkerStreamIndependentOfPopulation) {
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
TEST(WorksiteStep, HarvesterStreamIndependentOfPopulation) {
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
TEST(WorksiteStep, WindthrowBlocksPlannersAndClears) {
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

TEST(WorksiteStep, WindthrowFactorOrdering) {
  EXPECT_LT(windthrow_weather_factor(Weather::kClear),
            windthrow_weather_factor(Weather::kFog));
  EXPECT_LT(windthrow_weather_factor(Weather::kFog),
            windthrow_weather_factor(Weather::kRain));
  EXPECT_LT(windthrow_weather_factor(Weather::kRain),
            windthrow_weather_factor(Weather::kSnow));
}

// S1 regression: machines with different clearances must not share a route
// cache. A drone-width route served to a forwarder would thread gaps the
// forwarder cannot take.
TEST(WorksiteStep, PerClearancePlannerInstances) {
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
