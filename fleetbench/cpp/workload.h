// Seeded workload definitions for the fleet benchmark. A workload is a
// pure function of (name, seed): the session keys, worker anchors, attack
// schedule and console request schedule all come from one core::Rng
// seeded by --seed, so the same seed always yields the same
// inputs and the program under test only ever sees generated inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/geometry.h"
#include "core/rng.h"
#include "integration/secured_worksite.h"

namespace fleetbench {

/// A worker the bench adds through worksite().add_worker.
struct WorkerSpec {
  agrarsec::core::Vec2 start;
  agrarsec::core::Vec2 anchor;
};

/// A scripted radio attacker, driven between ticks. Every `period` ticks
/// (offset by `phase`) it injects one spoofed detection report, one replay
/// of the latest captured frame, or one flood burst, in rotation.
struct AttackScript {
  std::uint64_t period = 10;
  std::uint64_t phase = 0;
  std::uint64_t rotation = 0;  ///< which action comes first
  std::size_t flood_frames = 40;
};

struct SiteSpec {
  std::uint64_t key = 0;  ///< create_session_keyed key
  agrarsec::integration::SecuredWorksiteConfig config;
  std::vector<WorkerSpec> workers;
  bool attacked = false;
  AttackScript attack;
};

/// One HTTP GET the open-loop console client sends. `site` indexes
/// WorkloadSpec::sites for the /flight route.
struct ConsoleRequest {
  enum class Route : std::uint8_t { kSessions, kFlight, kMetrics, kIds } route;
  std::size_t site = 0;
};

struct WorkloadSpec {
  std::string name;
  std::size_t threads = 1;       ///< FleetServiceConfig::threads
  std::uint64_t fleet_seed = 1;
  std::vector<SiteSpec> sites;
  /// Ticks per repetition (at the nominal run length): the measured work,
  /// fixed so that it does not depend on host speed. Sim outcomes and the
  /// export check are read right after the last of them.
  std::uint64_t sim_ticks = 1000;
  /// Request mix the open-loop client draws from (seeded, cyclic).
  std::vector<ConsoleRequest> requests;
  /// Which site the export-check replay re-runs solo.
  std::size_t sampled_site = 0;
};

/// Builds a workload from its name and seed; throws std::invalid_argument
/// for an unknown name.
WorkloadSpec make_workload(const std::string& name, std::uint64_t seed);

/// Adds the spec's workers and attacker to a freshly created session.
/// Returns the attacker (nullptr when not attacked).
agrarsec::net::AttackerNode* populate(agrarsec::integration::SecuredWorksite& site,
                                      const SiteSpec& spec);

/// Runs the attack script for the gap after tick `tick` (1-based). Must be
/// called between ticks, never while the fleet steps or a console reads.
void drive_attack(agrarsec::integration::SecuredWorksite& site,
                  agrarsec::net::AttackerNode& attacker, const AttackScript& script,
                  std::uint64_t tick);

}  // namespace fleetbench
