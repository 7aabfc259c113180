#include "workload.h"

#include <algorithm>
#include <stdexcept>

namespace fleetbench {

using agrarsec::core::Rng;
using agrarsec::core::Vec2;
namespace core = agrarsec::core;
namespace integration = agrarsec::integration;
namespace net = agrarsec::net;

namespace {

/// The drone's application sender id: spoofed detection reports claim it.
constexpr std::uint64_t kDroneSender = 2;
/// Where every attacker stands: on the forwarders' lanes between landing
/// and harvester. Fixed, not seeded: a seeded position moved the attacked
/// sessions' step time by up to 70% between seeds.
constexpr Vec2 kAttackerPosition{100.0, 75.0};

/// A small secured site: the thin stand of the fleet tests, busy enough
/// that every forwarder keeps cycling and meets workers on its lanes.
integration::SecuredWorksiteConfig small_site_config() {
  integration::SecuredWorksiteConfig config;
  config.forwarder_count = 4;
  config.worksite.forest.trees_per_hectare = 120;
  config.worksite.forest.boulders_per_hectare = 20;
  config.worksite.harvester_output_m3_per_min = 20.0;
  config.worksite.load_time = 10 * core::kSecond;
  return config;
}

/// Workers spread over the forwarders' lanes between landing and harvester.
std::vector<WorkerSpec> small_site_workers(Rng& rng, std::size_t count) {
  std::vector<WorkerSpec> workers;
  for (std::size_t i = 0; i < count; ++i) {
    const Vec2 anchor{rng.uniform(50.0, 260.0), rng.uniform(50.0, 260.0)};
    workers.push_back({{anchor.x + rng.uniform(-10.0, 10.0), anchor.y}, anchor});
  }
  return workers;
}

/// The seed picks when the attacker acts and which action comes first; its
/// position, attack rate and flood size are fixed, so the fleet's radio and
/// IDS load does not swing from seed to seed.
AttackScript attack_script(Rng& rng) {
  AttackScript script;
  script.phase = rng.next_below(script.period);
  script.rotation = rng.next_below(3);
  return script;
}

/// Request mix of an operator dashboard: mostly session tables and flight
/// tails, some full metrics pulls, a few IDS checks.
std::vector<ConsoleRequest> request_mix(Rng& rng, std::size_t sites) {
  std::vector<ConsoleRequest> requests(4096);
  for (ConsoleRequest& r : requests) {
    const double u = rng.next_double();
    r.route = u < 0.35   ? ConsoleRequest::Route::kSessions
              : u < 0.75 ? ConsoleRequest::Route::kFlight
              : u < 0.85 ? ConsoleRequest::Route::kMetrics
                         : ConsoleRequest::Route::kIds;
    r.site = rng.next_below(sites);
  }
  return requests;
}

/// Distinct session keys drawn from the seed (keys, not creation order,
/// pick each session's stream).
std::vector<std::uint64_t> session_keys(Rng& rng, std::size_t count) {
  std::vector<std::uint64_t> keys;
  while (keys.size() < count) {
    const std::uint64_t key = rng.next_u64();
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) keys.push_back(key);
  }
  return keys;
}

// campaign: many independent small secured sites, as in a logical-scenario
// campaign over an operational design domain. Loads sensing, crypto and the
// secure record layer, radio, IDS, fusion and session batching; each site
// plans only a few routes. One site in four carries a scripted
// spoof/replay/flood attacker, so sealed records are rejected beside
// accepted ones and the IDS raises on both attacked and clean sites.
//
// campaign_plain: the same sites, attackers and console load with
// plaintext links -- the attackable baseline the paper compares against. It
// bypasses PKI enrolment, handshakes and the record layer, so a change to
// those should move campaign and leave campaign_plain alone.
WorkloadSpec campaign(Rng& rng, bool secure_links) {
  WorkloadSpec w;
  w.name = secure_links ? "campaign" : "campaign_plain";
  // Two shards on a host of four vCPUs: the caller and one worker. At four
  // shards every vCPU runs one and each tick's barrier waits for the most
  // contended core; run to run, throughput spread 0.18-0.29 (IQR/median)
  // against 0.06-0.08 at two shards, measured alternately on one host.
  w.threads = 2;
  w.sim_ticks = 1500;
  w.fleet_seed = rng.next_u64();
  const std::vector<std::uint64_t> keys = session_keys(rng, 96);
  std::vector<std::size_t> order(keys.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    SiteSpec site;
    site.key = keys[i];
    site.config = small_site_config();
    site.config.secure_links = secure_links;
    site.workers = small_site_workers(rng, 6);
    site.attack = attack_script(rng);
    w.sites.push_back(std::move(site));
  }
  for (std::size_t i = 0; i < keys.size() / 4; ++i) w.sites[order[i]].attacked = true;
  w.sampled_site = order[rng.next_below(2)];  // attacked or clean, by seed
  w.requests = request_mix(rng, w.sites.size());
  return w;
}

}  // namespace

WorkloadSpec make_workload(const std::string& name, std::uint64_t seed) {
  // Both workloads draw the same stream: for one seed they are the same
  // sites, and differ only in link protection.
  Rng rng = Rng::fork_stream(seed, 0xF1EE7BE7C4ULL, 0);
  if (name == "campaign") return campaign(rng, true);
  if (name == "campaign_plain") return campaign(rng, false);
  throw std::invalid_argument("unknown workload: " + name);
}

net::AttackerNode* populate(integration::SecuredWorksite& site, const SiteSpec& spec) {
  std::size_t n = 0;
  for (const WorkerSpec& w : spec.workers) {
    site.worksite().add_worker("worker-" + std::to_string(n++), w.start, w.anchor);
  }
  if (!spec.attacked) return nullptr;
  return &site.add_attacker(kAttackerPosition, 2);
}

void drive_attack(integration::SecuredWorksite& site, net::AttackerNode& attacker,
                  const AttackScript& script, std::uint64_t tick) {
  if ((tick + script.phase) % script.period != 0) return;
  const core::SimTime now = site.worksite().clock().now();
  switch ((tick / script.period + script.rotation) % 3) {
    case 0: {
      core::Bytes body(32);
      for (std::size_t i = 0; i < body.size(); ++i) {
        body[i] = static_cast<std::uint8_t>(tick * 31 + i);
      }
      attacker.spoof(site.radio(), now, kDroneSender, net::MessageType::kDetectionReport,
                     std::move(body));
      break;
    }
    case 1:
      attacker.replay_latest(site.radio(), now);
      break;
    default:
      attacker.flood(site.radio(), now, site.channel_at(now), script.flood_frames);
      break;
  }
}

}  // namespace fleetbench
