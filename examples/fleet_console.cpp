// Embedded operations console walkthrough: a FleetService running several
// secured worksite sessions, with the on-machine console serving live
// JSON snapshots over HTTP and the authenticated control plane driving
// pause / single-step / attack injection / evidence export over our own
// secure-channel records. The second half streams flight-recorder events
// over SSE and then runs a scripted control-plane attack (handshake
// bruteforce, replay burst, command flood) against the console's own IDS
// sensor — the coverage analyzer's `console-control-plane-attack`
// scenario points here.
//
//   build/examples/fleet_console            # narrated walkthrough
//   build/examples/fleet_console --smoke    # quiet, exits non-zero on any
//                                           # failed round trip (CI smoke)
#include <cstdio>
#include <chrono>
#include <cstring>
#include <thread>
#include <string>

#include "core/bytes.h"
#include "crypto/random.h"
#include "net/stream.h"
#include "secure/session.h"
#include "pki/identity.h"
#include "pki/trust_store.h"
#include "service/console.h"
#include "service/fleet_service.h"

using namespace agrarsec;

namespace {

integration::SecuredWorksiteConfig session_config(std::uint64_t seed) {
  integration::SecuredWorksiteConfig config;
  config.seed = seed;
  config.worksite.forest.trees_per_hectare = 120;
  config.worksite.forest.boulders_per_hectare = 20;
  config.worksite.harvester_output_m3_per_min = 20.0;
  config.worksite.load_time = 10 * core::kSecond;
  return config;
}

bool fail(const char* what) {
  std::fprintf(stderr, "fleet_console: FAILED: %s\n", what);
  return false;
}

bool run(bool smoke) {
  const bool chatty = !smoke;

  // Site PKI: one root, a console identity on the machine, an operator
  // station identity for the client side.
  crypto::Drbg drbg{2026, "console-demo"};
  auto root = pki::CertificateAuthority::create_root(
      "site-root", drbg.generate32(), 0, 3650 * 24 * core::kHour);
  pki::TrustStore trust;
  if (!trust.add_root(root.certificate()).ok()) return fail("trust bootstrap");
  auto console_id = pki::enroll(root, drbg, "console-01",
                                pki::CertRole::kOperatorStation, 0,
                                365 * 24 * core::kHour);
  auto operator_id = pki::enroll(root, drbg, "operator-01",
                                 pki::CertRole::kOperatorStation, 0,
                                 365 * 24 * core::kHour);
  if (!console_id.ok() || !operator_id.ok()) return fail("enrollment");

  // Fleet: three keyed sessions, stepped a little so the snapshots carry
  // real content.
  service::FleetServiceConfig fleet_config;
  fleet_config.threads = 2;
  fleet_config.fleet_seed = 42;
  service::FleetService fleet{fleet_config};
  std::vector<service::SessionId> ids;
  for (std::uint64_t key = 0; key < 3; ++key) {
    ids.push_back(fleet.create_session_keyed(
        session_config(service::FleetService::derive_session_seed(42, key)), key));
  }
  fleet.step_all(20);

  service::ConsoleService console{fleet, console_id.value(), trust, 7};
  if (!console.start().ok()) return fail("console start");
  if (chatty) {
    std::printf("console up: http://127.0.0.1:%u  control port %u\n\n",
                console.http_port(), console.control_port());
  }

  // Read-only HTTP plane.
  auto sessions = service::http_get_local(console.http_port(), "/sessions");
  if (!sessions.ok()) return fail("GET /sessions");
  if (chatty) std::printf("GET /sessions\n  %s\n\n", sessions.value().c_str());
  auto metrics = service::http_get_local(console.http_port(), "/metrics");
  if (!metrics.ok()) return fail("GET /metrics");
  if (metrics.value().find("fleet.session_steps") == std::string::npos) {
    return fail("/metrics missing fleet counters");
  }
  if (chatty) {
    std::printf("GET /metrics -> %zu bytes of registry + traces\n",
                metrics.value().size());
    auto flight = service::http_get_local(
        console.http_port(), "/flight/" + std::to_string(ids[0]) + "?cursor=0&n=3");
    if (flight.ok()) {
      std::printf("GET /flight/%llu?cursor=0&n=3 (up to 3 events from seq 0; poll again "
                  "with next_cursor to resume)\n  %s\n\n",
                  static_cast<unsigned long long>(ids[0]), flight.value().c_str());
    }
  }

  // Authenticated control plane: handshake, then sealed JSON-RPC records.
  crypto::Drbg op_drbg{2027, "operator"};
  auto client = service::ConsoleClient::connect(
      console.control_port(), operator_id.value(), trust, op_drbg, "console-01");
  if (!client.ok()) return fail("control handshake");
  if (chatty) {
    std::printf("control channel up, authenticated peer '%s'\n",
                client.value().peer_subject().c_str());
  }

  auto paused = client.value().call("pause");
  if (!paused.ok() || !fleet.paused()) return fail("pause");
  const std::uint64_t steps_at_pause = fleet.total_session_steps();
  fleet.step_all(50);  // driver keeps calling; the pause gates it
  if (fleet.total_session_steps() != steps_at_pause) return fail("pause gating");

  auto stepped = client.value().call("step", "{\"steps\":5}");
  if (!stepped.ok()) return fail("step");
  if (fleet.total_session_steps() != steps_at_pause + 5 * ids.size()) {
    return fail("operator single-step count");
  }
  if (chatty) std::printf("paused fleet, operator-stepped 5: %s\n",
                          stepped.value().c_str());

  auto injected = client.value().call(
      "inject-attack",
      "{\"session\":" + std::to_string(ids[1]) + ",\"x\":60,\"y\":60,\"level\":2}");
  if (!injected.ok()) return fail("inject-attack");

  auto exported = client.value().call(
      "export", "{\"session\":" + std::to_string(ids[0]) + "}");
  if (!exported.ok()) return fail("export");
  if (chatty) std::printf("exported session %llu evidence: %zu bytes\n",
                          static_cast<unsigned long long>(ids[0]),
                          exported.value().size());

  if (!client.value().call("resume").ok() || fleet.paused()) return fail("resume");
  fleet.step_all(5);

  // Streaming plane: subscribe to the session's flight recorder over SSE
  // and check the live push carries real event frames with sequence ids.
  {
    net::TcpStream sub = net::TcpStream::connect_local(console.http_port());
    if (!sub.valid()) return fail("SSE connect");
    const std::string get = "GET /stream/flight/" + std::to_string(ids[0]) +
                            "?cursor=0 HTTP/1.1\r\nHost: x\r\n\r\n";
    if (!sub.write_all(std::string_view{get}, 2000)) return fail("SSE request");
    std::string got;
    std::uint8_t chunk[2048];
    while (got.find("\ndata: {\"seq\":") == std::string::npos) {
      const long n = sub.read_some(chunk, sizeof(chunk), 2000);
      if (n <= 0) return fail("SSE stream stalled before first event");
      got.append(reinterpret_cast<const char*>(chunk),
                 static_cast<std::size_t>(n));
    }
    if (got.find("Content-Type: text/event-stream") == std::string::npos) {
      return fail("SSE content type");
    }
    if (chatty) {
      std::printf("SSE /stream/flight/%llu delivered live events (%zu bytes)\n",
                  static_cast<unsigned long long>(ids[0]), got.size());
    }
  }

  // Scripted control-plane attack against the console's own IDS sensor:
  // the control plane is an attack surface, so its abuse must itself be a
  // detected event (TARA threats console-handshake-bruteforce,
  // console-replay-burst, console-command-flood).
  {
    // Handshake bruteforce: garbage first flights until the streak trips.
    // The probes queue behind the operator's idle control connection, so
    // the sensor count is awaited, not asserted immediately.
    for (int i = 0; i < 5; ++i) {
      net::TcpStream probe = net::TcpStream::connect_local(console.control_port());
      if (!probe.valid()) return fail("bruteforce connect");
      const core::Bytes garbage = core::from_string("definitely not msg1");
      if (!net::write_frame(probe, garbage, 500)) return fail("bruteforce frame");
      std::uint8_t sink[64];
      while (probe.read_some(sink, sizeof(sink), 500) > 0) {
      }
    }
    for (int waited = 0;
         console.sensor_alert_count("control-bruteforce") == 0; waited += 50) {
      if (waited > 8000) return fail("bruteforce undetected");
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    // The bruteforce storm starved the operator's old connection; a fresh
    // handshake is the operator's recovery path (same as after rotation).
    client = service::ConsoleClient::connect(
        console.control_port(), operator_id.value(), trust, op_drbg, "console-01");
    if (!client.ok()) return fail("control re-handshake");

    // Replay burst: forged sealed records on the authenticated session.
    crypto::Drbg fuzz{2028, "fuzz"};
    for (int i = 0; i < 8; ++i) {
      secure::Record forged;
      forged.sequence = 5000 + static_cast<std::uint64_t>(i);
      forged.ciphertext = fuzz.generate(48);
      if (!client.value().send_raw_frame(forged.encode())) {
        return fail("replay frame");
      }
    }
    if (!client.value().call("ping").ok()) return fail("post-replay ping");
    if (console.sensor_alert_count("control-replay-burst") == 0) {
      return fail("replay burst undetected");
    }

    // Command flood: hammer genuine dispatches past the rate threshold.
    for (int i = 0; i < 31; ++i) {
      if (!client.value().call("ping").ok()) return fail("flood ping");
    }
    if (console.sensor_alert_count("control-flood") == 0) {
      return fail("command flood undetected");
    }
    if (chatty) {
      auto ids_view = service::http_get_local(console.http_port(), "/ids");
      std::printf("control-plane attack detected by the console sensor:\n  %s\n",
                  ids_view.ok() ? ids_view.value().c_str() : "(/ids unavailable)");
    }
  }

  console.stop();
  if (chatty) std::printf("\nconsole stopped cleanly\n");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (!run(smoke)) return 1;
  if (smoke) std::printf("fleet_console smoke: OK\n");
  return 0;
}
