#!/usr/bin/env python3
"""Fleet benchmark: seeded workloads through service::FleetService and the
operations console, end-to-end metrics, and a traced per-layer run.

    python3 fleetbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0
    python3 fleetbench/run.py --workload campaign_plain --seed 1 --seconds 30 --trace 1
    python3 fleetbench/run.py --self-test

Builds fleetbench/ (and the agrarsec libraries it links) into
.bench_build/fleetbench, runs one workload (see cpp/workload.cpp for what
each loads and why), checks its outputs and prints a report. The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"} with the end-to-end metrics (--trace 0) or the
per-layer metrics of the traced run (--trace 1). Exits non-zero when an
output check fails, and without a result when the build fails or refuses.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import analysis  # noqa: E402

WORKLOADS = ("campaign", "campaign_plain")
BUILD_TYPE = "RelWithDebInfo"
BUILD_DIR = os.path.join(ROOT, ".bench_build", "fleetbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "runs")
# The measuring run's own time limit; a fresh checkout adds its build before.
RUN_LIMIT_S = 150
# One sim step: the latency and backlog limit of the console.
STEP_MS = 100.0
ROUTES = ("sessions", "flight", "metrics", "ids")  # ConsoleRequest::Route order
PHASES = ("weather", "decide", "drain", "integrate", "index", "separation", "follow")
REFERENCE, SATURATE, VERIFY, SERIAL = 0, 1, 2, 3  # Stage::Kind


def fail(message):
    print("fleetbench: " + message, file=sys.stderr)
    sys.exit(1)


def self_test():
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    return result.wasSuccessful()


def build():
    """Configures (once) and builds the benchmark; refuses Debug and
    sanitizer builds so their numbers are never mixed with optimised ones."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        if subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                           "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], **quiet).returncode != 0:
            fail("configure failed")
    with open(cache) as f:
        settings = dict(line.strip().split("=", 1) for line in f
                        if "=" in line and not line.startswith(("#", "//")))
    build_type = settings.get("CMAKE_BUILD_TYPE:STRING", "")
    flags = settings.get("CMAKE_CXX_FLAGS:STRING", "")
    if build_type == "Debug" or "-fsanitize" in flags:
        fail("refusing a %s build (flags %r)" % (build_type, flags))
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], **quiet).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "fleetbench")


def fingerprint(raw):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "compiler": raw["build"]["compiler"],
            "build_type": raw["build"]["type"],
            # A fixed integer kernel timed before and after the run: a host
            # that got faster or slower between runs shows here.
            "calibration_ms": raw["calibration_ms"]}


def ratio(num, den):
    return num / den if den else 0.0


# --- end-to-end ---------------------------------------------------------------

def measured_ticks(raw):
    """The measured window of each repetition: {rep: [(iter, start, end,
    traced)]}, ticks 2..N (the set-up ran tick 1)."""
    t = raw["ticks"]
    reps = {}
    for it, start, end, rep, phase, traced in zip(t["iter_ms"], t["start_ms"], t["end_ms"],
                                                  t["rep"], t["phase"], t["traced"]):
        if phase == 0:
            reps.setdefault(int(rep), []).append((it, start, end, traced))
    return reps


def stage_accounts(raw):
    """(kind, rate, data) per console stage: the round trips of a saturating
    stage (with its throughput as rate) or a serial stage, or the open-loop
    StageAccount of a fixed-rate stage."""
    by_stage = {}
    for stage, index, _, ok, sent, done, _ in raw["requests"]:
        by_stage.setdefault(int(stage), []).append((int(index), bool(ok), sent, done))
    accounts = []
    for i, (kind, rate, count, start, end, _, completed, _) in enumerate(raw["stages"]):
        reqs = by_stage.get(i, [])
        round_trips = [done - sent if ok else math.inf for _, ok, sent, done in reqs]
        if kind == SATURATE:
            accounts.append((kind, ratio(completed, (end - start) / 1000.0), round_trips))
        elif kind == SERIAL:
            accounts.append((kind, 0.0, round_trips))
        else:
            accounts.append((kind, rate, analysis.StageAccount(start, rate, int(count), reqs)))
    return accounts


def repetition_ticks(raw, report):
    """Per repetition: session-steps/s, tick p50 and tick p99 of its window."""
    sessions = raw["shape"]["sessions"]
    rates, p50s, p99s = [], [], []
    for rep, ticks in sorted(measured_ticks(raw).items()):
        tick_ms = [end - start for _, start, end, _ in ticks]
        q, tail_ms, n = analysis.tail(tick_ms, highest=0.99)
        rates.append(sessions * len(ticks) / ((ticks[-1][2] - ticks[0][0]) / 1000.0))
        p50s.append(analysis.median(tick_ms))
        p99s.append(tail_ms)
        report.append("repetition %d: %d ticks, %.1f session-steps/s, tick p50 %.4f ms, "
                      "p%g %.4f ms (n=%d)" % (rep, n, rates[-1], p50s[-1], q * 100, tail_ms, n))
    return rates, p50s, p99s


def console_stages(raw, report):
    """Per repetition the serial round-trip median and the saturated
    throughput; over all repetitions the pooled reference-stage latency and
    the highest fixed rate that kept up (reference or verify stage)."""
    references, serial_p50s, saturated, saturated_p50s = [], [], [], []
    max_rps = 0.0
    for kind, rate, data in stage_accounts(raw):
        if kind == SATURATE:
            saturated.append(rate)
            saturated_p50s.append(analysis.median(data))
        elif kind == SERIAL:
            serial_p50s.append(analysis.median(data))
        else:
            kept = data.kept_up(STEP_MS)
            if kept:
                max_rps = max(max_rps, rate)
            if kind == REFERENCE:
                references.append(data)
                continue
            q, tail_ms, n = analysis.tail(data.latency_ms, highest=0.99)
            report.append("console verify %.1f/s: %s, p50 %.3f ms, p%g %.3f ms (n=%d), "
                          "last lateness %.3f ms" %
                          (rate, "kept up" if kept else "fell behind",
                           analysis.median(data.latency_ms), q * 100, tail_ms, n,
                           data.lateness_ms[-1] if data.lateness_ms else float("nan")))
    pooled = [x for a in references for x in a.latency_ms]
    q, tail_ms, n = analysis.tail(pooled, highest=0.99)
    report.append("console open loop %.0f/s: p50 %.4f ms, p%g %.4f ms (n=%d, %d repetitions)" %
                  (references[0].rate, analysis.median(pooled), q * 100, tail_ms, n,
                   len(references)))
    report.append("console serial round trip p50 per repetition: %s ms" %
                  ", ".join("%.4f" % x for x in serial_p50s))
    report.append("console saturated per repetition: %s requests/s, round trip p50 %s ms" %
                  (", ".join("%.0f" % x for x in saturated),
                   ", ".join("%.4f" % x for x in saturated_p50s)))
    return {"serial_p50s": serial_p50s, "saturated": saturated, "max_rps": max_rps,
            "saturated_p50s": saturated_p50s,
            "open_p50": analysis.median(pooled), "open_tail": tail_ms,
            "late": [x for a in references for x in a.lateness_ms]}


def export_p50s(raw):
    """Median sealed-export round trip per repetition."""
    per_rep = {}
    for sent, done, _, rep in raw["controls"]:
        per_rep.setdefault(int(rep), []).append(done - sent)
    return [analysis.median(v) for _, v in sorted(per_rep.items())]


def end_to_end(raw, report):
    """Every repetition does the same work; each timing is its median over
    the repetitions."""
    rates, tick_p50s, _ = repetition_ticks(raw, report)
    console_stages(raw, report)
    report.append("export round trip p50 per repetition: %s ms" %
                  ", ".join("%.3f" % x for x in export_p50s(raw)))
    report.append("peak RSS after each repetition: %s MB" %
                  ", ".join("%.1f" % x for x in raw["peak_rss_mb"]))
    sim = raw["at_n"]["sim"]
    coverage = ratio(sim["person_covered_steps"], sim["person_zone_steps"]) \
        if sim["person_zone_steps"] else 1.0
    return {
        "setup_s": (analysis.median(raw["setup"]["setup_s"]), "s"),
        "session_steps_per_s": (analysis.median(rates), "1/s"),
        "tick_ms_p50": (analysis.median(tick_p50s), "ms"),
        # Set-up, N ticks and the console load once; later repetitions only
        # add what the allocator keeps from earlier ones.
        "peak_rss_mb": (raw["peak_rss_mb"][0], "MB"),
        "sim_zone_coverage": (coverage, "ratio"),
    }


def operations(raw):
    """(attempted, failed, problems): HTTP requests, control calls and the
    export replay; a failed request, a failed call, an export mismatch, a
    protocol error or a refused connection each count as failed."""
    problems = []
    http_failed = sum(1 for r in raw["requests"] if not r[3])
    control_failed = sum(1 for c in raw["controls"] if not c[2])
    export_failed = 0 if raw["checks"]["export_match"] else 1
    server = raw["http"]
    failed = (http_failed + control_failed + export_failed +
              int(server["protocol_errors"]) + int(server["connections_rejected"]))
    attempted = len(raw["requests"]) + len(raw["controls"]) + 1
    if http_failed:
        problems.append("%d HTTP responses not a well-framed 200 with JSON" % http_failed)
    if control_failed:
        problems.append("%d export calls did not return ok" % control_failed)
    if export_failed:
        problems.append("sampled session export differs from its solo threads=1 replay")
    if server["protocol_errors"] or server["connections_rejected"]:
        problems.append("console counted %d protocol errors, %d refused connections" %
                        (server["protocol_errors"], server["connections_rejected"]))
    if not raw["controls"]:
        problems.append("no export call was made")
    if len(set(raw["checks"]["export_digests"])) != 1:
        problems.append("repetitions of the same work exported different sessions "
                        "(repetition 0 of a traced run is untraced): %s" %
                        raw["checks"]["export_digests"])
    return attempted, failed, problems


# --- traced run -------------------------------------------------------------

def trace_spans(raw):
    """The run's spans plus the per-tick layer spans and, for each request of
    the console's reference stages (from the client's request records), its
    generator lateness, render and transport."""
    spans = [(name, start, end, int(parent)) for name, start, end, parent in raw["spans"]]
    # Ticks recorded as spans get their layer breakdown as children.
    layer = raw["layer_ticks"]
    shards = layer["shards"]
    tick_ids = [i for i, s in enumerate(spans) if s[0] == "tick"]
    for tick_id, row in zip(tick_ids, layer["rows"]):
        sub = analysis.tick_spans(row, shards, PHASES)
        base = len(spans)
        for j, (name, start, end, parent) in enumerate(sub[1:], start=1):
            spans.append((name, start, end, tick_id if parent == 0 else base + parent - 1))
    probes = raw["probes"]
    render = {r: analysis.median(probes["service.render_us." + r]) / 1000.0
              for r in ("sessions", "metrics", "flight")}
    transport = transport_us(probes) / 1000.0
    # Requests of the reference stages, the ones console_ms_* is taken from.
    for stage, index, route, ok, sent, done, _ in raw["requests"]:
        kind, rate, _, start = raw["stages"][int(stage)][:4]
        if kind != REFERENCE:
            continue
        due = analysis.due_ms(start, rate, int(index))
        root = len(spans)
        spans.append(("console.request", due, done, -1))
        spans.append(("console.generator_late", due, sent, root))
        name = ROUTES[int(route)]
        r = render.get(name, 0.0)
        spans.append(("service.render." + name, sent, min(done, sent + r), root))
        spans.append(("net.http.transport", min(done, sent + r), min(done, sent + r + transport),
                      root))
    return spans


def transport_us(probes):
    """HTTP round trip on an idle console minus the direct render time."""
    gaps = [analysis.median(probes["net.http.rtt_us." + r]) -
            analysis.median(probes["service.render_us." + r])
            for r in ("sessions", "metrics", "flight")]
    return analysis.median(gaps)


def per_layer(raw, report):
    probes = raw["probes"]
    med = {k: analysis.median(v) for k, v in probes.items() if isinstance(v, list) and v}
    layer = raw["layer_ticks"]
    shards = layer["shards"]
    sessions = raw["shape"]["sessions"]
    windows = measured_ticks(raw)
    measured = {start for ticks in windows.values() for _, start, _, traced in ticks if traced}
    rows = [r for r in layer["rows"] if r[0] in measured]
    n = len(rows) or 1
    col = {name: i for i, name in enumerate(layer["columns"])}

    def total(name):
        return sum(r[col[name]] for r in rows)

    session_steps = n * sessions
    c = raw["at_n"]["counters"]
    both = {}
    for group in ("benign", "attacked"):
        for k, v in c[group].items():
            both[k] = both.get(k, 0.0) + v
    steps = both.get("worksite.steps", 0.0)
    outcomes = sum(v for k, v in both.items() if k.startswith("radio.outcome."))
    hits, misses = both.get("planner.cache_hits", 0.0), both.get("planner.cache_misses", 0.0)
    plans = both.get("planner.plans", 0.0)
    secure_in = (both.get("secure.detection_reports_accepted", 0.0) +
                 both.get("secure.detection_reports_rejected", 0.0))

    def alerts_per_step(group):
        g = c[group]
        return ratio(g.get("ids.alerts", 0.0), g.get("worksite.steps", 0.0))

    # Loop time per tick (tick plus the driver's work between ticks) in the
    # traced blocks against the untraced blocks of the same windows
    # (repetition 0 is untraced throughout).
    loop_ms = {True: [], False: []}
    for rep, ticks in windows.items():
        if rep == 0:
            continue
        for (it, _, _, traced), (nxt, _, _, _) in zip(ticks, ticks[1:]):
            loop_ms[bool(traced)].append(nxt - it)
    overhead = 0.0
    if loop_ms[True] and loop_ms[False]:
        overhead = analysis.median(loop_ms[True]) / analysis.median(loop_ms[False]) - 1.0

    spans = trace_spans(raw)
    table = analysis.layer_table(spans)
    residual = {}
    for root in ("tick", "setup", "console.request"):
        if root in table:
            residual[root] = ratio(table[root][1], table[root][2])

    _, _, tick_p99s = repetition_ticks(raw, [])
    console = console_stages(raw, [])
    accounts = stage_accounts(raw)
    sim = raw["at_n"]["sim"]
    detect = sim["detect_ms"] or [0.0]
    kept = [acct for kind, _, acct in accounts if kind == VERIFY and acct.kept_up(STEP_MS)]
    verify_tail = analysis.tail(kept[0].latency_ms, highest=0.99)[1] if kept else 0.0
    metrics = {
        "service.tick_ms_mean": (ratio(total("batch_ms"), n), "ms"),
        "service.tick_ms_p99": (analysis.median(tick_p99s), "ms"),
        "service.shard_busy_frac": (ratio(total("busy_ms"), shards * total("batch_ms")), "ratio"),
        "service.create_session_ms": (sum(raw["setup"]["create_session_ms"]) /
                                      len(raw["setup"]["create_session_ms"]), "ms"),
        "service.render_us.sessions": (med["service.render_us.sessions"], "us"),
        "service.render_us.metrics": (med["service.render_us.metrics"], "us"),
        "service.render_us.flight": (med["service.render_us.flight"], "us"),
        "service.render_us.export": (med["service.render_us.export"], "us"),
        "service.flat_out_read_ms": (med.get("service.flat_out_read_ms", 0.0), "ms"),
        "integration.secured_step_us": (ratio(total("secured_ms"), session_steps) * 1000, "us"),
        "integration.stack_self_us": (ratio(total("secured_ms") - total("worksite_ms"),
                                            session_steps) * 1000, "us"),
        "sim.worksite_step_us": (ratio(total("worksite_ms"), session_steps) * 1000, "us"),
    }
    for p in PHASES[:-1]:
        metrics["sim.phase.%s_us" % p] = (ratio(total("phase.%s_ms" % p), session_steps) * 1000,
                                          "us")
    metrics.update({
        "sim.first_tick_ms": (analysis.median(raw["setup"]["first_tick_ms"]), "ms"),
        "sim.planner.plans": (plans, "count"),
        "sim.planner.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "sim.planner.jps_expansions_per_plan": (ratio(both.get("planner.jps_expansions", 0.0),
                                                      plans), "count"),
        "sim.planner.invalidations": (both.get("planner.invalidations", 0.0), "count"),
        "sim.terrain_generate_ms": (med["sim.terrain_generate_ms"], "ms"),
        "sim.detect_ms_p50": (analysis.median(detect), "ms"),
        "sim.detect_ms_p90": (analysis.percentile(detect, 0.9), "ms"),
        "sim.blind_fast_steps": (sim["blind_fast_steps"], "count"),
        "sensors.sense_us": (med["sensors.sense_us"], "us"),
        "sensors.sense_calls_per_step": (probes["sensors.sense_calls_per_step"], "count"),
        "secure.seal_us": (med["secure.seal_us"], "us"),
        "secure.open_us": (med["secure.open_us"], "us"),
        "secure.records_per_step": (ratio(both.get("secure.detection_reports_sent", 0.0), steps),
                                    "count"),
        "secure.reject_ratio": (ratio(both.get("secure.detection_reports_rejected", 0.0),
                                      secure_in), "ratio"),
        "net.radio.sent_per_step": (ratio(both.get("radio.sent", 0.0), steps), "count"),
        "net.radio.delivered_ratio": (ratio(both.get("radio.outcome.delivered", 0.0), outcomes),
                                      "ratio"),
        "ids.alerts_per_step_benign": (alerts_per_step("benign"), "count"),
        "ids.alerts_per_step_attacked": (alerts_per_step("attacked"), "count"),
        "pki.enroll_ms": (med["pki.enroll_ms"], "ms"),
        "pki.handshake_ms": (med["pki.handshake_ms"], "ms"),
        "console.control_connect_ms": (analysis.median(raw["control_connect_ms"])
                                       if raw["control_connect_ms"] else 0.0, "ms"),
        "console.generator_late_ms_p99": (analysis.tail(console["late"], highest=0.99)[1],
                                          "ms"),
        "console.saturated_ms_p50": (min(console["saturated_p50s"]), "ms"),
        "console.saturated_rps": (max(console["saturated"]), "1/s"),
        "console.export_ms_p50": (min(export_p50s(raw)) if raw["controls"] else 0.0, "ms"),
        "console.serial_ms_p50": (min(console["serial_p50s"]), "ms"),
        "console.open_loop_ms_p50": (console["open_p50"], "ms"),
        "console.open_loop_ms_p99": (console["open_tail"], "ms"),
        "console.max_rps": (console["max_rps"], "1/s"),
        "console.verify_tail_ms": (verify_tail, "ms"),
        "net.http.transport_us": (transport_us(probes), "us"),
        "net.http.protocol_errors": (raw["http"]["protocol_errors"], "count"),
        "net.http.connections_rejected": (raw["http"]["connections_rejected"], "count"),
        "obs.metrics_json_bytes": (probes["obs.metrics_json_bytes"], "bytes"),
        "obs.flight_events_per_step": (ratio(both.get("flight.events", 0.0), steps), "count"),
        "trace.residual_frac": (residual.get("tick", 0.0), "ratio"),
        "trace.overhead_frac": (overhead, "ratio"),
    })

    report.append("layer table (self time; ticks and their layers are wall time of "
                  "the tick, shard work divided by %d shards):" % shards)
    report.append("  %-34s %9s %12s %11s" % ("span", "calls", "self ms", "self us/call"))
    for name, (calls, own, _) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        report.append("  %-34s %9d %12.3f %11.3f" % (name, calls, own, own * 1000.0 / calls))
    for root, frac in residual.items():
        report.append("residual of %s: %.4f (self time of the root span over its duration)" %
                      (root, frac))
    report.append("tracing overhead: %+.4f (median tick-loop time, traced vs untraced, "
                  "%d vs %d ticks)" % (overhead, len(loop_ms[True]), len(loop_ms[False])))
    report.append("ratios and their bases: %d session-steps at tick N; planner %d plans "
                  "(%d hits, %d misses); %d secure records in; %d radio outcomes" %
                  (steps, plans, hits, misses, secure_in, outcomes))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own tests and exit")
    args = parser.parse_args()
    if not self_test():
        fail("self-tests failed")
    if args.self_test:
        return
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    binary = build()
    os.makedirs(RUN_DIR, exist_ok=True)
    out = os.path.join(RUN_DIR, "%s-%d-trace%d.json" % (args.workload, args.seed, args.trace))
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", out],
            stdout=sys.stderr, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded its time limit")
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    with open(out) as f:
        raw = json.load(f)

    report = ["fingerprint: " + json.dumps(fingerprint(raw), sort_keys=True),
              "workload %s seed %d: %d sessions on %d service threads, %d repetitions of "
              "%d ticks" % (raw["workload"], raw["seed"], raw["shape"]["sessions"],
                            raw["shape"]["threads"], raw["shape"]["repetitions"],
                            raw["shape"]["sim_ticks"])]
    attempted, failed, problems = operations(raw)
    digests = raw["checks"]["export_digests"]
    report.append("exports after tick N: digest %s, %s over %d repetitions%s; sampled "
                  "session %s its solo threads=1 replay" %
                  (digests[0], "equal" if len(set(digests)) == 1 else "DIFFERENT", len(digests),
                   " (repetition 0 untraced)" if raw["trace"] else "",
                   "equals" if raw["checks"]["export_match"] else "DIFFERS FROM"))
    e2e = end_to_end(raw, report)
    e2e["ok_ratio"] = (1.0 - ratio(failed, attempted), "ratio")
    metrics = per_layer(raw, report) if args.trace else e2e
    for name, (value, unit) in sorted(e2e.items()):
        report.append("%-22s %14.6f %s" % (name, value, unit))
    for line in report:
        print(line)
    for problem in problems:
        print("CHECK FAILED: " + problem)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed + (1 if problems and not failed else 0),
        # A failed request has infinite latency; JSON has no infinity.
        "metrics": {k: {"value": v if math.isfinite(v) else -1.0, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
