// fleetbench: one run of one seeded workload through the public
// service::FleetService / service::ConsoleService API. It writes a raw
// record (timings, outcomes, check results; spans and layer snapshots when
// traced) to --out; fleetbench/run.py builds this binary, runs it and turns
// the record into metrics.
//
//   fleetbench --workload campaign --seed 7 --seconds 30 --trace 0 --out run.json
//
// A run repeats the same work three times: set the fleet up (until every
// session finished its first tick), step it closed loop for a fixed number
// of ticks, then serve the console's open-loop reference and saturation
// load to the idle fleet. The last repetition adds the console's verify
// stages and, traced, the layer probes. After tick N each repetition records
// the sim outcomes and every session's deterministic export; finally one
// sampled session is replayed alone on one thread and its export compared.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/json.h"
#include "crypto/random.h"
#include "http_client.h"
#include "pki/authority.h"
#include "probes.h"
#include "service/console.h"
#include "service/fleet_service.h"
#include "spans.h"
#include "workload.h"

namespace {

namespace core = agrarsec::core;
namespace obs = agrarsec::obs;
namespace pki = agrarsec::pki;
namespace service = agrarsec::service;
using agrarsec::analysis::Json;
using fleetbench::now_ns;

/// Each run repeats the same work this many times (set-up, N ticks, the
/// console's reference, serial and saturation stages, the export calls);
/// run.py reports the median repetition.
constexpr int kRepetitions = 3;
/// Run length the workloads' tick counts are sized for (--seconds scales
/// them).
constexpr double kNominalSeconds = 30.0;
/// Ticks per block when the traced run alternates traced and untraced
/// blocks (the untraced ones measure the tracing overhead).
constexpr std::uint64_t kTraceBlock = 50;
/// Console load: an open-loop reference stage at a fixed rate, a serial
/// stage, a saturating stage that measures the throughput the console
/// sustains, and (last repetition) fixed-rate stages at fractions of its
/// median over the repetitions to find the highest rate that keeps up. A
/// fixed-rate stage more than kGiveUpNs behind schedule stops sending.
constexpr double kReferenceRate = 500.0;
constexpr std::uint32_t kReferenceRequests = 600;  ///< also the serial stage's
constexpr double kSaturateSeconds = 0.5;
constexpr std::array<double, 3> kVerifyFractions{0.9, 0.8, 0.7};
constexpr double kVerifySeconds = 1.5;
constexpr std::int64_t kGiveUpNs = 500'000'000;
/// Flat-out stepping segment of the traced run's starvation probe.
constexpr std::int64_t kFlatOutNs = 1'500'000'000;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out;
};

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  bool have[5] = {};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") { o.workload = value; have[0] = true; }
    else if (flag == "--seed") { o.seed = std::stoull(value); have[1] = true; }
    else if (flag == "--seconds") { o.seconds = std::stod(value); have[2] = true; }
    else if (flag == "--trace") { o.trace = value == "1"; have[3] = true; }
    else if (flag == "--out") { o.out = value; have[4] = true; }
    else return std::nullopt;
  }
  if (!std::all_of(std::begin(have), std::end(have), [](bool b) { return b; })) {
    return std::nullopt;
  }
  if (o.seconds <= 0) return std::nullopt;
  return o;
}

/// Why this build must not produce numbers (nullptr: fine). Timings from
/// Debug or sanitizer builds are not comparable with optimised ones.
const char* refused_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif !defined(NDEBUG)
  return "assertions enabled (Debug build)";
#else
  return nullptr;
#endif
}

Json nums(const std::vector<double>& values) {
  Json a = Json::array();
  for (const double v : values) a.push(Json::number(v));
  return a;
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Host calibration: a fixed single-thread integer kernel that uses no
/// agrarsec code, timed before and after the run. Not a metric; the report
/// prints it so that a change of host speed between runs shows.
double calibration_ms() {
  const std::int64_t t = now_ns();
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x & 0xFF;
  }
  const double elapsed = ms(now_ns() - t);
  return acc == 0 ? -elapsed : elapsed;  // keeps the loop's result observable
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// --- fleet set-up -----------------------------------------------------------

struct Fleet {
  std::unique_ptr<service::FleetService> service;
  std::vector<service::SessionId> ids;  ///< in WorkloadSpec::sites order
  std::vector<agrarsec::net::AttackerNode*> attackers;
};

struct SetupTimes {
  std::vector<double> setup_s, create_session_ms, first_tick_ms;
};

/// Fleet construction until every session has finished its first tick.
Fleet build_fleet(const fleetbench::WorkloadSpec& spec, fleetbench::SpanLog& spans,
                  SetupTimes& times) {
  const std::int64_t t0 = now_ns();
  const std::int64_t root = spans.open("setup");
  Fleet fleet;
  service::FleetServiceConfig config;
  config.threads = spec.threads;
  config.fleet_seed = spec.fleet_seed;
  fleet.service = std::make_unique<service::FleetService>(config);
  for (const fleetbench::SiteSpec& site : spec.sites) {
    const std::int64_t t = now_ns();
    const std::int64_t span = spans.open("service.create_session", root);
    fleet.ids.push_back(fleet.service->create_session_keyed(site.config, site.key));
    spans.close(span);
    times.create_session_ms.push_back(ms(now_ns() - t));
    const std::int64_t pop = spans.open("setup.populate", root);
    fleet.attackers.push_back(fleetbench::populate(*fleet.service->session(fleet.ids.back()), site));
    spans.close(pop);
  }
  const std::int64_t t = now_ns();
  const std::int64_t first = spans.open("sim.first_tick", root);
  fleet.service->step_all(1);
  spans.close(first);
  times.first_tick_ms.push_back(ms(now_ns() - t));
  spans.close(root);
  times.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  return fleet;
}

// --- layer snapshots (traced run) -----------------------------------------

constexpr std::array<const char*, 7> kPhases{"weather", "decide",     "drain", "integrate",
                                             "index",   "separation", "follow"};

/// Running totals of the per-layer instruments the program already exports:
/// the fleet Tracer's batch phase and shard lanes, each session's
/// wall.secured_step_us / wall.worksite_step_us histograms and worksite
/// phases. Differences between two reads attribute one tick.
struct LayerTotals {
  double batch_ns = 0, busy_ns = 0, secured_us = 0, worksite_us = 0;
  std::array<double, kPhases.size()> phase_ns{};
};

std::optional<obs::PhaseId> find_phase(const obs::Tracer& tracer, const std::string& name) {
  for (obs::PhaseId id = 0; id < tracer.phase_count(); ++id) {
    if (tracer.phase_name(id) == name) return id;
  }
  return std::nullopt;
}

const obs::Histogram* find_histogram(const obs::Registry& registry, const std::string& name) {
  const obs::Histogram* found = nullptr;
  registry.for_each_histogram([&](const std::string& n, const obs::Histogram& h) {
    if (n == name) found = &h;
  });
  return found;
}

class LayerReader {
 public:
  LayerReader(const service::FleetService& fleet, const std::vector<service::SessionId>& ids)
      : fleet_tracer_(fleet.telemetry().tracer()),
        batch_(find_phase(fleet_tracer_, "fleet.step_batch")) {
    for (const service::SessionId id : ids) {
      const obs::Telemetry& t = fleet.session(id)->telemetry();
      Session s{&t.tracer(), find_histogram(t.registry(), "wall.secured_step_us"),
                find_histogram(t.registry(), "wall.worksite_step_us"), {}};
      for (std::size_t p = 0; p < kPhases.size(); ++p) {
        s.phases[p] = find_phase(t.tracer(), std::string("worksite.") + kPhases[p]);
      }
      sessions_.push_back(s);
    }
  }

  [[nodiscard]] LayerTotals read() const {
    LayerTotals t;
    if (batch_) t.batch_ns = static_cast<double>(fleet_tracer_.stats(*batch_).total_ns);
    for (std::size_t i = 0; i < fleet_tracer_.shard_count(); ++i) {
      t.busy_ns += static_cast<double>(fleet_tracer_.shard_busy_ns(i));
    }
    for (const Session& s : sessions_) {
      if (s.secured) t.secured_us += s.secured->sum();
      if (s.worksite) t.worksite_us += s.worksite->sum();
      for (std::size_t p = 0; p < kPhases.size(); ++p) {
        if (s.phases[p]) t.phase_ns[p] += static_cast<double>(s.tracer->stats(*s.phases[p]).total_ns);
      }
    }
    return t;
  }

  [[nodiscard]] std::size_t shards() const { return fleet_tracer_.shard_count(); }

 private:
  struct Session {
    const obs::Tracer* tracer;
    const obs::Histogram* secured;
    const obs::Histogram* worksite;
    std::array<std::optional<obs::PhaseId>, kPhases.size()> phases;
  };
  const obs::Tracer& fleet_tracer_;
  std::optional<obs::PhaseId> batch_;
  std::vector<Session> sessions_;
};

// --- outcomes at tick N ---------------------------------------------------

/// Sim-time outcomes (the paper's Fig. 2 chain) summed over every session.
Json sim_outcome(const Fleet& fleet) {
  std::vector<double> detect;
  std::uint64_t zone = 0, covered = 0, blind = 0, encounters = 0, missed = 0;
  for (const service::SessionId id : fleet.ids) {
    const auto& o = fleet.service->session(id)->safety_outcome();
    const auto& s = o.time_to_detect_ms.samples();
    detect.insert(detect.end(), s.begin(), s.end());
    zone += o.person_zone_steps;
    covered += o.person_covered_steps;
    blind += o.blind_fast_steps;
    encounters += o.encounters;
    missed += o.missed_encounters;
  }
  Json j = Json::object();
  j.set("detect_ms", nums(detect));
  j.set("person_zone_steps", Json::number(static_cast<double>(zone)));
  j.set("person_covered_steps", Json::number(static_cast<double>(covered)));
  j.set("blind_fast_steps", Json::number(static_cast<double>(blind)));
  j.set("encounters", Json::number(static_cast<double>(encounters)));
  j.set("missed_encounters", Json::number(static_cast<double>(missed)));
  return j;
}

/// Every session counter summed over clean and attacked sessions, plus the
/// flight events recorded (deterministic at a fixed tick).
Json counter_sums(const Fleet& fleet, const fleetbench::WorkloadSpec& spec) {
  Json groups = Json::object();
  for (const bool attacked : {false, true}) {
    std::map<std::string, double> sums;
    double sessions = 0;
    for (std::size_t i = 0; i < fleet.ids.size(); ++i) {
      if (spec.sites[i].attacked != attacked) continue;
      const obs::Telemetry& t = fleet.service->session(fleet.ids[i])->telemetry();
      t.registry().for_each_counter([&](const std::string& name, const obs::Counter& c) {
        sums[name] += static_cast<double>(c.value());
      });
      sums["flight.events"] += static_cast<double>(t.recorder().total_recorded());
      sessions += 1;
    }
    Json g = Json::object();
    g.set("sessions", Json::number(sessions));
    for (const auto& [name, v] : sums) g.set(name, Json::number(v));
    groups.set(attacked ? "attacked" : "benign", std::move(g));
  }
  return groups;
}

/// The sampled session re-run alone in a threads=1 service: same config,
/// key, population and attack script, no console, no tracing.
std::string solo_replay(const fleetbench::WorkloadSpec& spec) {
  service::FleetServiceConfig config;
  config.fleet_seed = spec.fleet_seed;
  service::FleetService solo{config};
  const fleetbench::SiteSpec& site = spec.sites[spec.sampled_site];
  const service::SessionId id = solo.create_session_keyed(site.config, site.key);
  agrarsec::net::AttackerNode* attacker = fleetbench::populate(*solo.session(id), site);
  for (std::uint64_t tick = 1; tick <= spec.sim_ticks; ++tick) {
    solo.step_all(1);
    if (attacker != nullptr && tick < spec.sim_ticks) {
      fleetbench::drive_attack(*solo.session(id), *attacker, site.attack, tick);
    }
  }
  return solo.session_deterministic_json(id);
}

// --- control plane -------------------------------------------------------

struct ControlRecord {
  std::int64_t sent_ns = 0, done_ns = 0;
  bool ok = false;
  int rep = 0;
};

/// One sealed `export` call per session in `sids`, back to back over one
/// authenticated ConsoleClient: the connect (PKI handshake) is timed on its
/// own, each call from send to answer.
void export_calls(std::uint16_t port, const pki::Identity& identity,
                  const pki::TrustStore& trust, std::uint64_t seed,
                  const std::vector<service::SessionId>& sids, int rep,
                  std::vector<ControlRecord>& records, std::vector<double>& connect_ms) {
  agrarsec::crypto::Drbg drbg{seed, "fleetbench-operator"};
  const std::int64_t t = now_ns();
  auto client = service::ConsoleClient::connect(port, identity, trust, drbg,
                                                "fleetbench-console");
  connect_ms.push_back(ms(now_ns() - t));
  for (const service::SessionId sid : sids) {
    ControlRecord r;
    r.rep = rep;
    r.sent_ns = now_ns();
    if (client.ok()) {
      auto reply =
          client.value().call("export", "{\"session\":" + std::to_string(sid) + "}");
      r.done_ns = now_ns();
      const std::optional<Json> json =
          reply.ok() ? Json::parse(reply.value()) : std::optional<Json>{};
      const Json* result = json ? json->find("result") : nullptr;
      r.ok = result != nullptr && result->is(Json::Kind::kObject);
    } else {
      r.done_ns = now_ns();
    }
    records.push_back(r);
  }
}

// --- the run ----------------------------------------------------------------

struct TickRecord {
  std::int64_t iter_ns = 0;  ///< start of the loop iteration (incl. gap work)
  std::int64_t start_ns = 0, end_ns = 0;
  int rep = 0;
  int phase = 0;  ///< 0 measured window, 1 flat-out read probe
  bool traced = false;
  LayerTotals delta;
};

using StageRun = std::pair<fleetbench::Stage, fleetbench::OpenLoopClient::StageRun>;

/// Everything a run records, over all repetitions.
struct Record {
  SetupTimes setup;
  std::vector<TickRecord> ticks;
  std::vector<StageRun> stages;
  std::vector<fleetbench::RequestRecord> requests;
  std::vector<ControlRecord> controls;
  std::vector<double> connect_ms;
  std::uint64_t http_connects = 0, protocol_errors = 0, connections_rejected = 0;
  std::vector<std::string> digests;  ///< all sessions' exports after tick N, per repetition
  std::string sampled_export;
  Json at_n;
  std::vector<double> flat_out_read_ms;
  std::vector<double> peak_rss_mb;  ///< process high-water mark after each repetition
  std::vector<double> calibration_ms;  ///< before and after the repetitions
  Json probes;
};

/// Steps one fleet tick by tick, recording each tick and, in the traced run
/// (alternating blocks of kTraceBlock ticks), its layer snapshot. After tick
/// N it captures the sim outcomes, counters and every session's export. The
/// traced run leaves repetition 0 untraced, so the exports of the traced
/// repetitions are checked against an untraced one.
class Stepper {
 public:
  Stepper(const fleetbench::WorkloadSpec& spec, std::uint64_t ticks_n, Fleet& fleet,
          fleetbench::SpanLog& spans, Record& rec, int rep)
      : spec_(spec), n_(ticks_n), fleet_(fleet), spans_(spans), rec_(rec), rep_(rep) {
    if (spans.enabled() && rep > 0) layers_.emplace(*fleet.service, fleet.ids);
  }

  [[nodiscard]] std::uint64_t tick() const { return tick_; }

  void step(int phase) {
    TickRecord r;
    r.iter_ns = now_ns();
    r.rep = rep_;
    r.phase = phase;
    r.traced = layers_ && (tick_ / kTraceBlock) % 2 == 0;
    if (r.traced && !have_read_) last_ = layers_->read();
    const std::int64_t span = r.traced ? spans_.open("tick") : -1;
    r.start_ns = now_ns();
    fleet_.service->step_all(1);
    r.end_ns = now_ns();
    spans_.close(span);
    ++tick_;
    have_read_ = r.traced;
    if (r.traced) {
      const LayerTotals now = layers_->read();
      r.delta.batch_ns = now.batch_ns - last_.batch_ns;
      r.delta.busy_ns = now.busy_ns - last_.busy_ns;
      r.delta.secured_us = now.secured_us - last_.secured_us;
      r.delta.worksite_us = now.worksite_us - last_.worksite_us;
      for (std::size_t p = 0; p < kPhases.size(); ++p) {
        r.delta.phase_ns[p] = now.phase_ns[p] - last_.phase_ns[p];
      }
      last_ = now;
    }
    rec_.ticks.push_back(r);
    if (tick_ == n_) capture();
  }

 private:
  void capture() {
    rec_.at_n = Json::object();
    rec_.at_n.set("sim", sim_outcome(fleet_));
    rec_.at_n.set("counters", counter_sums(fleet_, spec_));
    std::uint64_t digest = 14695981039346656037ULL;
    for (const service::SessionId id : fleet_.ids) {
      const std::string e = fleet_.service->session_deterministic_json(id);
      digest = fnv1a(digest, e);
      if (id == fleet_.ids[spec_.sampled_site]) rec_.sampled_export = e;
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(digest));
    rec_.digests.emplace_back(hex);
  }

  const fleetbench::WorkloadSpec& spec_;
  std::uint64_t n_;
  Fleet& fleet_;
  fleetbench::SpanLog& spans_;
  Record& rec_;
  int rep_;
  std::optional<LayerReader> layers_;
  LayerTotals last_;
  bool have_read_ = false;
  std::uint64_t tick_ = 1;  // build_fleet ran the first tick
};

double saturated_rps(const fleetbench::OpenLoopClient::StageRun& r) {
  return r.completed / (static_cast<double>(r.end_ns - r.start_ns) / 1e9);
}

/// The console's operator load against the idle fleet: the HTTP stages
/// (reference, serial, saturation and, when `verify`, the verify stages at
/// fractions of the median saturated throughput so far), then one sealed
/// export call per session without an attacker.
void console_load(service::ConsoleService& console, const fleetbench::WorkloadSpec& spec,
                  const Fleet& fleet, const pki::Identity& operator_id,
                  const pki::TrustStore& trust, std::uint64_t seed, int rep, bool verify,
                  Record& rec) {
  fleetbench::OpenLoopClient client{console.http_port(), spec.requests,
                                    {fleet.ids.begin(), fleet.ids.end()}};
  using Kind = fleetbench::Stage::Kind;
  auto run_stage = [&](const fleetbench::Stage& stage) {
    const auto index = static_cast<std::uint32_t>(rec.stages.size());
    rec.stages.emplace_back(stage, client.run(stage, index, kGiveUpNs));
  };
  run_stage({Kind::kReference, kReferenceRate, kReferenceRequests, 0});
  run_stage({Kind::kSerial, 0, kReferenceRequests, 0});
  run_stage({Kind::kSaturate, 0, 0, kSaturateSeconds});
  if (verify) {
    std::vector<double> capacities;
    for (const auto& [stage, r] : rec.stages) {
      if (stage.kind == Kind::kSaturate) capacities.push_back(saturated_rps(r));
    }
    std::sort(capacities.begin(), capacities.end());
    const double capacity = capacities[capacities.size() / 2];
    for (const double fraction : kVerifyFractions) {
      const double rate = fraction * capacity;
      if (rate <= 0) break;
      run_stage({Kind::kVerify, rate,
                 static_cast<std::uint32_t>(std::max(1000.0, rate * kVerifySeconds)), 0});
    }
  }
  rec.requests.insert(rec.requests.end(), client.records().begin(), client.records().end());
  rec.http_connects += client.connects();
  // Sessions without an attacker, so the payloads do not depend on where the
  // seed put the attackers.
  std::vector<service::SessionId> clean;
  for (std::size_t i = 0; i < fleet.ids.size(); ++i) {
    if (!spec.sites[i].attacked) clean.push_back(fleet.ids[i]);
  }
  export_calls(console.control_port(), operator_id, trust, seed, clean, rep, rec.controls,
               rec.connect_ms);
}

/// Traced run only: how long a console read waits while the fleet steps back
/// to back. step_all holds the FleetService mutex for whole batches and the
/// driver re-locks at once, so readers starve (0.1-0.8 s per read measured
/// on a 4-vCPU host); the benchmark therefore serves its console load to
/// the idle fleet and reports this wait as a layer metric.
void flat_out_reads(Stepper& stepper, const Fleet& fleet, fleetbench::SpanLog& spans,
                    Record& rec) {
  const std::int64_t span = spans.open("probe.service.flat_out_read");
  std::atomic<bool> done{false};
  std::vector<double> waits;
  {
    std::jthread reader([&] {
      while (!done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        const std::int64_t t = now_ns();
        (void)fleet.service->sessions_json();
        waits.push_back(ms(now_ns() - t));
      }
    });
    const std::int64_t until = now_ns() + kFlatOutNs;
    while (now_ns() < until) stepper.step(1);
    done.store(true);
  }
  spans.close(span);
  rec.flat_out_read_ms = std::move(waits);
}

Json run_record(const fleetbench::WorkloadSpec& spec, const Options& opt, std::uint64_t n,
                Record& rec, const fleetbench::SpanLog& spans);

int run(const Options& opt) {
  const fleetbench::WorkloadSpec spec = fleetbench::make_workload(opt.workload, opt.seed);
  // The work of a run is fixed, so every host measures the same ticks:
  // spec.sim_ticks per repetition at the nominal run length, scaled with
  // --seconds.
  const auto n = std::max<std::uint64_t>(
      1000, static_cast<std::uint64_t>(static_cast<double>(spec.sim_ticks) * opt.seconds /
                                       kNominalSeconds));
  fleetbench::SpanLog spans{opt.trace};
  Record rec;

  // Site PKI of the console: a console identity on the machine and an
  // operator identity for the control client.
  agrarsec::crypto::Drbg pki_drbg{opt.seed, "fleetbench-pki"};
  auto ca = pki::CertificateAuthority::create_root("fleetbench-root", pki_drbg.generate32(), 0,
                                                   365 * 24 * core::kHour);
  pki::TrustStore trust;
  if (!trust.add_root(ca.certificate()).ok()) throw std::runtime_error("trust root");
  auto console_id = pki::enroll(ca, pki_drbg, "fleetbench-console",
                                pki::CertRole::kOperatorStation, 0, 365 * 24 * core::kHour);
  auto operator_id = pki::enroll(ca, pki_drbg, "fleetbench-operator",
                                 pki::CertRole::kOperatorStation, 0, 365 * 24 * core::kHour);
  if (!console_id.ok() || !operator_id.ok()) throw std::runtime_error("enrollment");
  auto start_console = [&](Fleet& fleet) {
    auto console = std::make_unique<service::ConsoleService>(*fleet.service, console_id.value(),
                                                             trust, opt.seed);
    if (!console->start().ok()) throw std::runtime_error("console start");
    return console;
  };
  auto stop_console = [&](service::ConsoleService& console) {
    rec.protocol_errors += console.http().protocol_errors();
    rec.connections_rejected += console.http().connections_rejected();
    console.stop();
  };

  rec.calibration_ms.push_back(calibration_ms());
  // Repetitions of identical work: set the fleet up, measure ticks 2..N (the
  // set-up ran tick 1) and the console's reference and saturation stages.
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const bool last = rep + 1 == kRepetitions;
    Fleet fleet = build_fleet(spec, spans, rec.setup);
    Stepper stepper{spec, n, fleet, spans, rec, rep};
    // Closed loop, flat out; scripted attackers act between ticks.
    while (stepper.tick() < n) {
      for (std::size_t i = 0; i < fleet.ids.size(); ++i) {
        if (fleet.attackers[i] == nullptr) continue;
        fleetbench::drive_attack(*fleet.service->session(fleet.ids[i]), *fleet.attackers[i],
                                 spec.sites[i].attack, stepper.tick());
      }
      stepper.step(0);
    }
    // The operator reviews the finished fleet, which no longer steps.
    const auto console = start_console(fleet);
    console_load(*console, spec, fleet, operator_id.value(), trust, opt.seed, rep, last, rec);
    if (last && opt.trace) {
      flat_out_reads(stepper, fleet, spans, rec);
      rec.probes = fleetbench::run_probes(
          {spec, opt.seed, *fleet.service, fleet.ids, console->http_port(), spans});
    }
    stop_console(*console);
    rec.peak_rss_mb.push_back(peak_rss_mb());
  }

  rec.calibration_ms.push_back(calibration_ms());
  const Json out = run_record(spec, opt, n, rec, spans);
  std::ofstream file(opt.out, std::ios::binary);
  file << out.serialize(0) << '\n';
  if (!file) {
    std::fprintf(stderr, "fleetbench: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  return 0;
}

/// The raw record run.py reads. Times are ms since the first tick recorded.
Json run_record(const fleetbench::WorkloadSpec& spec, const Options& opt, std::uint64_t n,
                Record& rec, const fleetbench::SpanLog& spans) {
  // Checks: the sampled session replayed alone must export the same bytes.
  fleetbench::WorkloadSpec replay_spec = spec;
  replay_spec.sim_ticks = n;
  const bool export_match =
      !rec.sampled_export.empty() && solo_replay(replay_spec) == rec.sampled_export;

  const std::int64_t origin = rec.ticks.empty() ? 0 : rec.ticks.front().iter_ns;
  auto rel = [origin](std::int64_t t) { return static_cast<double>(t - origin) / 1e6; };
  Json out = Json::object();
  out.set("workload", Json::string(spec.name));
  out.set("seed", Json::number(static_cast<double>(opt.seed)));
  out.set("trace", Json::boolean(opt.trace));
  Json build = Json::object();
  build.set("type", Json::string(FLEETBENCH_BUILD_TYPE));
  build.set("compiler", Json::string(FLEETBENCH_COMPILER));
  out.set("build", std::move(build));
  out.set("calibration_ms", nums(rec.calibration_ms));
  Json shape = Json::object();
  shape.set("sessions", Json::number(static_cast<double>(spec.sites.size())));
  shape.set("threads", Json::number(static_cast<double>(spec.threads)));
  shape.set("sim_ticks", Json::number(static_cast<double>(n)));
  shape.set("repetitions", Json::number(kRepetitions));
  out.set("shape", std::move(shape));

  Json s = Json::object();
  s.set("setup_s", nums(rec.setup.setup_s));
  s.set("create_session_ms", nums(rec.setup.create_session_ms));
  s.set("first_tick_ms", nums(rec.setup.first_tick_ms));
  out.set("setup", std::move(s));

  std::vector<double> iter, start, end, rep, phase, traced;
  for (const TickRecord& t : rec.ticks) {
    iter.push_back(rel(t.iter_ns));
    start.push_back(rel(t.start_ns));
    end.push_back(rel(t.end_ns));
    rep.push_back(t.rep);
    phase.push_back(t.phase);
    traced.push_back(t.traced ? 1 : 0);
  }
  Json tj = Json::object();
  tj.set("iter_ms", nums(iter));
  tj.set("start_ms", nums(start));
  tj.set("end_ms", nums(end));
  tj.set("rep", nums(rep));
  tj.set("phase", nums(phase));
  tj.set("traced", nums(traced));
  out.set("ticks", std::move(tj));
  out.set("at_n", rec.at_n);

  Json st = Json::array();
  for (const auto& [stage, r] : rec.stages) {
    st.push(nums({static_cast<double>(stage.kind), stage.rate, static_cast<double>(stage.count),
                  rel(r.start_ns), rel(r.end_ns), static_cast<double>(r.sent),
                  static_cast<double>(r.completed), r.gave_up ? 1.0 : 0.0}));
  }
  out.set("stages", std::move(st));
  Json rq = Json::array();
  for (const auto& r : rec.requests) {
    rq.push(nums({static_cast<double>(r.stage), static_cast<double>(r.index),
                  static_cast<double>(r.route), r.ok ? 1.0 : 0.0, rel(r.sent_ns),
                  rel(r.done_ns), static_cast<double>(r.bytes)}));
  }
  out.set("requests", std::move(rq));
  Json ct = Json::array();
  for (const auto& c : rec.controls) {
    ct.push(nums({rel(c.sent_ns), rel(c.done_ns), c.ok ? 1.0 : 0.0,
                  static_cast<double>(c.rep)}));
  }
  out.set("controls", std::move(ct));
  out.set("control_connect_ms", nums(rec.connect_ms));
  Json http = Json::object();
  http.set("protocol_errors", Json::number(static_cast<double>(rec.protocol_errors)));
  http.set("connections_rejected", Json::number(static_cast<double>(rec.connections_rejected)));
  http.set("client_connects", Json::number(static_cast<double>(rec.http_connects)));
  out.set("http", std::move(http));

  Json checks = Json::object();
  checks.set("export_match", Json::boolean(export_match));
  Json digests = Json::array();
  for (const std::string& d : rec.digests) digests.push(Json::string(d));
  checks.set("export_digests", std::move(digests));
  checks.set("sampled_site", Json::number(static_cast<double>(spec.sampled_site)));
  checks.set("sampled_attacked", Json::boolean(spec.sites[spec.sampled_site].attacked));
  out.set("checks", std::move(checks));
  out.set("peak_rss_mb", nums(rec.peak_rss_mb));

  if (opt.trace) {
    Json layer = Json::array();
    for (const TickRecord& t : rec.ticks) {
      if (!t.traced) continue;
      std::vector<double> row{rel(t.start_ns),          rel(t.end_ns),
                              t.delta.batch_ns / 1e6,   t.delta.busy_ns / 1e6,
                              t.delta.secured_us / 1e3, t.delta.worksite_us / 1e3};
      for (const double p : t.delta.phase_ns) row.push_back(p / 1e6);
      layer.push(nums(row));
    }
    Json lj = Json::object();
    Json cols = Json::array();
    for (const char* c :
         {"start_ms", "end_ms", "batch_ms", "busy_ms", "secured_ms", "worksite_ms"}) {
      cols.push(Json::string(c));
    }
    for (const char* p : kPhases) cols.push(Json::string(std::string("phase.") + p + "_ms"));
    lj.set("columns", std::move(cols));
    lj.set("rows", std::move(layer));
    lj.set("shards", Json::number(static_cast<double>(spec.threads)));
    out.set("layer_ticks", std::move(lj));
    Json sp = Json::array();
    for (const fleetbench::Span& span : spans.spans()) {
      Json o = Json::array();
      o.push(Json::string(span.name));
      o.push(Json::number(rel(span.start_ns)));
      o.push(Json::number(rel(span.end_ns)));
      o.push(Json::number(static_cast<double>(span.parent)));
      sp.push(std::move(o));
    }
    out.set("spans", std::move(sp));
    Json probes = rec.probes;
    probes.set("service.flat_out_read_ms", nums(rec.flat_out_read_ms));
    out.set("probes", std::move(probes));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (const char* why = refused_build()) {
    std::fprintf(stderr, "fleetbench: refusing to measure: %s\n", why);
    return 3;
  }
  try {
    const std::optional<Options> opt = parse_args(argc, argv);
    if (!opt) {
      std::fprintf(stderr,
                   "usage: fleetbench --workload <name> --seed <n> --seconds <s> "
                   "--trace <0|1> --out <file>\n");
      return 2;
    }
    return run(*opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    return 1;
  }
}
