#include "probes.h"

#include <optional>
#include <stdexcept>

#include "crypto/random.h"
#include "pki/authority.h"
#include "secure/handshake.h"
#include "sensors/perception.h"
#include "sim/terrain.h"

namespace fleetbench {

namespace core = agrarsec::core;
namespace pki = agrarsec::pki;
namespace secure = agrarsec::secure;
namespace sensors = agrarsec::sensors;
namespace sim = agrarsec::sim;
using agrarsec::analysis::Json;

namespace {

/// Stream family for probe RNGs, disjoint from every workload stream.
constexpr std::uint64_t kProbeDomain = 0x9B0BE5ULL;

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("probe failed: ") + what);
}

}  // namespace

Json run_probes(const ProbeContext& ctx) {
  Json out = Json::object();
  std::uint64_t sink = 0;  // keeps probed results observable

  // Times `n` calls of fn(i) inside one "probe.<name>" span and stores the
  // per-call samples, divided by `unit_ns`, under `name`.
  auto probe = [&](const std::string& name, int n, double unit_ns, auto&& fn) {
    const std::int64_t span = ctx.spans.open("probe." + name);
    Json samples = Json::array();
    for (int i = 0; i < n; ++i) {
      const std::int64_t t0 = now_ns();
      fn(i);
      samples.push(Json::number(static_cast<double>(now_ns() - t0) / unit_ns));
    }
    ctx.spans.close(span);
    out.set(name, std::move(samples));
  };

  const SiteSpec& site = ctx.spec.sites[ctx.spec.sampled_site];
  const auto forest = site.config.worksite.forest;

  core::Rng terrain_rng = core::Rng::fork_stream(ctx.seed, kProbeDomain, 1);
  probe("sim.terrain_generate_ms", 3, 1e6, [&](int) {
    sink += sim::Terrain::generate(forest, terrain_rng).obstacles().size();
  });

  // PKI and the secure record layer, on the benchmark's own site CA.
  agrarsec::crypto::Drbg drbg{ctx.seed, "fleetbench-probe"};
  auto root = pki::CertificateAuthority::create_root("probe-root", drbg.generate32(), 0,
                                                     1000 * core::kHour);
  pki::TrustStore trust;
  require(trust.add_root(root.certificate()).ok(), "trust root");
  constexpr int kIdentities = 16;
  std::vector<pki::Identity> identities;
  probe("pki.enroll_ms", kIdentities, 1e6, [&](int i) {
    auto id = pki::enroll(root, drbg, "probe-" + std::to_string(i), pki::CertRole::kMachine,
                          0, 1000 * core::kHour);
    require(id.ok(), "enroll");
    identities.push_back(std::move(id.value()));
  });
  std::optional<secure::SessionPair> pair;
  probe("pki.handshake_ms", kIdentities, 1e6, [&](int i) {
    auto p = secure::establish(identities[static_cast<std::size_t>(i)],
                               identities[static_cast<std::size_t>((i + 1) % kIdentities)],
                               trust, 0, drbg);
    require(p.ok(), "handshake");
    pair.emplace(std::move(p.value()));
  });
  // A detection report for the site's workforce: header plus one fixed-size
  // entry per worker.
  const core::Bytes report(24 + 16 * site.workers.size(), 0x5A);
  constexpr int kRecords = 2000;
  std::vector<secure::Record> records;
  records.reserve(kRecords);
  probe("secure.seal_us", kRecords, 1e3,
        [&](int) { records.push_back(pair->initiator.seal(report)); });
  probe("secure.open_us", kRecords, 1e3, [&](int i) {
    require(pair->responder.open(records[static_cast<std::size_t>(i)]).ok(), "open");
  });

  // Sensing on a private copy of the sampled site, stepped a little so the
  // workers have spread out: one forwarder or drone frame per call, in the
  // per-step mix of the integration dataflow (every forwarder and the drone
  // sense once per step).
  {
    agrarsec::integration::SecuredWorksiteConfig config = site.config;
    config.seed =
        agrarsec::service::FleetService::derive_session_seed(ctx.spec.fleet_seed, site.key);
    agrarsec::integration::SecuredWorksite copy{config};
    populate(copy, site);
    for (int i = 0; i < 10; ++i) copy.step();
    std::vector<agrarsec::MachineId> carriers;
    for (std::size_t i = 0; i < copy.forwarder_count(); ++i) {
      carriers.push_back(copy.forwarder_id(i));
    }
    if (config.drone_enabled) carriers.push_back(copy.drone_id());
    const sensors::PerceptionSensor forwarder_sensor{agrarsec::SensorId{900},
                                                     config.forwarder_sensor};
    const sensors::PerceptionSensor drone_sensor{agrarsec::SensorId{901},
                                                 config.drone_sensor};
    core::Rng rng = core::Rng::fork_stream(ctx.seed, kProbeDomain, 2);
    const sim::Worksite& ws = copy.worksite();
    probe("sensors.sense_us", 50 * static_cast<int>(carriers.size()), 1e3, [&](int i) {
      const std::size_t c = static_cast<std::size_t>(i) % carriers.size();
      const bool drone = config.drone_enabled && c + 1 == carriers.size();
      sink += (drone ? drone_sensor : forwarder_sensor)
                  .sense(ws, *ws.machine(carriers[c]), ws.clock().now(), rng)
                  .size();
    });
    out.set("sensors.sense_calls_per_step",
            Json::number(static_cast<double>(carriers.size())));
  }

  // Console snapshot rendering, called directly (no HTTP) on the idle fleet.
  const agrarsec::service::SessionId sid = ctx.ids[ctx.spec.sampled_site];
  std::size_t metrics_bytes = 0;
  probe("service.render_us.sessions", 100, 1e3,
        [&](int) { sink += ctx.fleet.sessions_json().size(); });
  probe("service.render_us.metrics", 100, 1e3,
        [&](int) { metrics_bytes = ctx.fleet.metrics_json().size(); });
  probe("service.render_us.flight", 100, 1e3,
        [&](int) { sink += ctx.fleet.flight_since_json(sid, 0).size(); });
  probe("service.render_us.export", 20, 1e3,
        [&](int) { sink += ctx.fleet.export_session_json(sid).size(); });
  out.set("obs.metrics_json_bytes", Json::number(static_cast<double>(metrics_bytes)));

  // Serial HTTP round trips per route on one keep-alive connection.
  KeepAlive conn{ctx.http_port};
  std::string body;
  const std::vector<std::pair<std::string, std::string>> routes{
      {"sessions", "/sessions"},
      {"metrics", "/metrics"},
      {"flight", "/flight/" + std::to_string(sid) + "?cursor=0"},
      {"ids", "/ids"}};
  for (const auto& [name, target] : routes) {
    probe("net.http.rtt_us." + name, 100, 1e3, [&](int) {
      require(conn.send_get(target) && conn.receive(body, 2000), "http round trip");
    });
  }

  return out;
}

}  // namespace fleetbench
