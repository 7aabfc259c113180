"""Statistics and accounting for the fleet benchmark.

Pure functions over the raw record the fleetbench binary writes: the
percentile helper, open-loop due-time and lateness accounting, and span
self-time arithmetic. run.py turns their results into the benchmark's
metrics; test_analysis.py checks them.
"""

import math

# Highest percentile reported for a timing: the largest of these with at
# least MIN_BEYOND samples above it.
TAIL_QUANTILES = (0.999, 0.99, 0.95, 0.9, 0.5)
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 1]) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values):
    return percentile(values, 0.5)


def tail(values, highest=TAIL_QUANTILES[0], min_beyond=MIN_BEYOND):
    """The highest percentile, up to `highest`, with at least `min_beyond`
    samples beyond it.

    Returns (quantile, value, sample count); the median when there are too
    few samples for any higher percentile.
    """
    n = len(values)
    for q in TAIL_QUANTILES:
        beyond = n - max(1, math.ceil(q * n))
        if q <= highest and beyond >= min_beyond:
            return q, percentile(values, q), n
    return 0.5, median(values), n


# --- open-loop accounting ---------------------------------------------------

def due_ms(stage_start_ms, rate, index):
    """When request `index` of a fixed-rate stage was due to be sent."""
    return stage_start_ms + index * 1000.0 / rate


class StageAccount:
    """Latency and lateness of one open-loop stage.

    Latency runs from the due time to the answer, so a stall also charges
    the requests it delayed; lateness is how late the generator sent. A
    failed request counts as missing every latency limit (infinite).
    """

    def __init__(self, start_ms, rate, scheduled, requests):
        """requests: (index, ok, sent_ms, done_ms) of the requests sent."""
        self.rate = rate
        self.scheduled = scheduled
        self.sent = len(requests)
        self.failed = sum(1 for r in requests if not r[1])
        self.latency_ms = []
        self.lateness_ms = []
        for index, ok, sent, done in requests:
            due = due_ms(start_ms, rate, index)
            self.lateness_ms.append(sent - due)
            self.latency_ms.append(done - due if ok else math.inf)

    def kept_up(self, backlog_limit_ms):
        """Every scheduled request sent and answered, and no backlog left at
        the end: the last request went out at most `backlog_limit_ms` late.
        A transient stall the generator recovers from passes; a rate above
        what the console sustains leaves a backlog that grows to the end."""
        return (self.scheduled > 0 and self.sent == self.scheduled and
                self.failed == 0 and self.lateness_ms[-1] <= backlog_limit_ms)


# --- span self time -----------------------------------------------------------

def covered_ms(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    clipped = sorted((max(start, s), min(end, e)) for s, e in intervals
                     if min(end, e) > max(start, s))
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    children cover. spans: list of (name, start_ms, end_ms, parent_index)."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    result = []
    for i, (_, start, end, _) in enumerate(spans):
        kids = [(spans[k][1], spans[k][2]) for k in children[i]]
        result.append((end - start) - covered_ms(start, end, kids))
    return result


def layer_table(spans):
    """Per span name: calls, total self ms, total duration ms."""
    table = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += own
        row[2] += end - start
    return table


def tick_spans(rows, shards, phase_names):
    """Nested spans for one traced tick from its layer snapshot.

    rows: (start_ms, end_ms, batch_ms, busy_ms, secured_ms, worksite_ms,
    *phase_ms). Work done in parallel on the shards is scaled by 1/shards,
    so each layer's self time is its share of the tick's wall time:
    tick (bench) > service.step_batch > service.shard_lanes >
    integration.secured_step > sim.worksite_step > sim.phase.*.
    """
    start, end, batch, busy, secured, worksite, *phases = rows
    spans = [("tick", start, end, -1)]

    def child(name, length, parent, offset=0.0):
        spans.append((name, start + offset, start + offset + length, parent))
        return len(spans) - 1

    b = child("service.step_batch", batch, 0)
    lanes = child("service.shard_lanes", busy / shards, b)
    s = child("integration.secured_step", secured / shards, lanes)
    w = child("sim.worksite_step", worksite / shards, s)
    offset = 0.0
    for name, ms in zip(phase_names, phases):
        child("sim.phase." + name, ms / shards, w, offset)
        offset += ms / shards
    return spans
