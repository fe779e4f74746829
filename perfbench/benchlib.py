"""The benchmark's own arithmetic, kept apart from process handling so
that test_benchlib.py can check it on synthetic inputs."""

import bisect
import math
import statistics

# A reported percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a
    share q of all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(n, q):
    """How many of n samples lie above the nearest-rank q-percentile."""
    return n - max(1, math.ceil(q * n))


def supported(n, q):
    return beyond(n, q) >= TAIL_MIN_BEYOND


def quartile_spread(values):
    """(Q3 - Q1) / median with statistics.quantiles(n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def summarize(values):
    """Median and quartiles of one metric over several runs."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


# The closed loops run one heavy job in every HEAVY_EVERY. A heavy job
# takes well over twice as long as a light one, so the heavy jobs are
# the slowest fifth and the nearest-rank p90 over all jobs is their
# median. The shared host runs in a fast and a slow state; a tail of
# like jobs jumps whenever the share of slow jobs crosses a tenth,
# while a median moves only when that share crosses one half.
HEAVY_EVERY = 5


def mix(light, heavy):
    """A closed loop's job cycle: HEAVY_EVERY - 1 light inputs, then one
    heavy input, until every heavy input has had its turn; the light
    inputs recur in order as often as that takes."""
    n = HEAVY_EVERY - 1
    cycle = []
    for j, h in enumerate(heavy):
        cycle += [light[(n * j + m) % len(light)] for m in range(n)] + [h]
    return cycle


def self_times(names, spans):
    """Per-name self seconds: a span's duration minus the part of it its
    direct children cover. `spans` rows are [name, parent, start, end]
    with times in ns and parent an index into `spans` (-1 for a root);
    children never outlive their parent."""
    child_ns = [0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for i, (name, parent, start, end) in enumerate(spans):
        key = names[name]
        out[key] = out.get(key, 0.0) + 1e-9 * (end - start - child_ns[i])
    return out


def span_seconds(names, spans, wanted):
    """Durations in seconds of every span named `wanted`, in order."""
    return [1e-9 * (end - start) for name, _, start, end in spans
            if names[name] == wanted]


def coverage(names, spans, root):
    """Share of the root spans' wall time that named child layers (any
    span but the root) cover as self time, and that total."""
    selfs = self_times(names, spans)
    wall = sum(span_seconds(names, spans, root))
    busy = sum(v for k, v in selfs.items() if k != root)
    return busy / wall if wall > 0 else 0.0


def due_time(wall_t0, cap_t0, rate, event_time):
    """Wall time at which a paced writer is due to write an event."""
    return wall_t0 + (event_time - cap_t0) / rate


def closing_event(times, t1):
    """Index of the first event at or after t1 -- the event whose arrival
    completes a window ending at t1 -- or None if there is none."""
    i = bisect.bisect_left(times, t1)
    return i if i < len(times) else None


def round_latencies(rounds, times, wall_t0, cap_t0, rate):
    """rounds: [(t1, read_stamp)] in emission order. Returns
    [(t1, latency_s)] for the rounds closed by an event in `times`."""
    out = []
    for t1, stamp in rounds:
        i = closing_event(times, t1)
        if i is None:
            continue
        out.append((t1, stamp - due_time(wall_t0, cap_t0, rate, times[i])))
    return out


def steady_from(latencies):
    """Index of the first round not queued behind set-up. The backlog
    the first report leaves drains over the next rounds; it has drained
    at the first round whose latency is within twice the median of the
    run's second half, which set-up cannot reach."""
    if not latencies:
        return 0
    late_half = latencies[len(latencies) // 2:]
    limit = 2.0 * statistics.median(late_half)
    for i, value in enumerate(latencies):
        if value <= limit:
            return i
    return len(latencies)


def parse_status_kb(text, key):
    """A "Key:   123 kB" field of /proc/<pid>/status, in kB."""
    for line in text.splitlines():
        if line.startswith(key + ":"):
            fields = line[len(key) + 1:].split()
            if len(fields) == 2 and fields[1] == "kB":
                return int(fields[0])
            raise ValueError("malformed %s line: %r" % (key, line))
    raise ValueError("%s not found" % key)
