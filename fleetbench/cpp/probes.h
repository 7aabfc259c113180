// Layer probes of the traced run: each one calls a module's public
// function on workload-shaped inputs and records per-call samples. Probes
// use objects and RNG streams the benchmark owns (their own PKI, sessions,
// sensors and a private copy of a site), so they cannot perturb the fleet's
// sessions: the traced run's exports equal the untraced run's.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/json.h"
#include "pki/identity.h"
#include "pki/trust_store.h"
#include "service/fleet_service.h"
#include "spans.h"
#include "workload.h"

namespace fleetbench {

struct ProbeContext {
  const WorkloadSpec& spec;
  std::uint64_t seed;
  agrarsec::service::FleetService& fleet;
  const std::vector<agrarsec::service::SessionId>& ids;
  std::uint16_t http_port;
  SpanLog& spans;
};

/// Runs every probe once the fleet has stopped stepping. Returns an object
/// mapping probe name to an array of per-call samples (ms or us, as named),
/// plus a few plain values (sense calls per step, metrics bytes).
agrarsec::analysis::Json run_probes(const ProbeContext& ctx);

}  // namespace fleetbench
