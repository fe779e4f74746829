#!/usr/bin/env python3
"""wantraffic benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the repository's tools and
this benchmark's helper (perfbench_tool) under .bench_build/, makes
seeded inputs there before any timing, runs the real tools as child
processes and checks their outputs. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
the end-to-end metrics; --trace 1 a separate run that recomposes each
tool's path from public library calls inside perfbench_tool, with spans
around each layer, and gives the per-layer metrics.

Workloads (why each exists: WORKLOADS.md):
  pcap_whole      closed loop of `wantraffic_analyze pkt CAP
                  --ingest-format pcap --stream --bin 0.1 --threads 1`,
                  alternating the aggregate and --protocol TELNET, on
                  four light captures and one heavy one.
  monitor_follow  open loop: a paced writer appends a capture to a
                  growing pcap at RATE x real time while
                  `wantraffic_monitor --follow` reports on it.
  synth_file      closed loop of `WAN_THREADS=2 wantraffic_synth pkt
                  --binary --stream --hours H --seed S`, light (1 h) and
                  heavy (4 h) jobs over many seeds.
"""

import argparse
import bisect
import hashlib
import json
import mmap
import os
import shutil
import signal
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

ROOT = Path.cwd()
BUILD_ROOT = ROOT / ".bench_build"
CMAKE_DIR = BUILD_ROOT / "cmake"
TOOLS = CMAKE_DIR / "wantraffic" / "tools"
HELPER = CMAKE_DIR / "perfbench_tool"
CONFIGURED = CMAKE_DIR / "perfbench.configured"  # written after cmake -S

# Both closed loops run one heavy job in every benchlib.HEAVY_EVERY (see
# benchlib.mix), so a run's p90 latency is the heavy jobs' median.
#
# pcap_whole: light captures, short enough that a run holds well over
# MIN_JOBS jobs, and one heavy capture. Each is thinned evenly to its
# packet cap, which lies below what a window of its length synthesizes
# for the seeds tried, so that every seed gives the same decode work.
PCAP_HOURS = 2.0
PCAP_PACKETS = 400000
PCAP_INPUTS = 4
PCAP_HEAVY_HOURS = 16.0
PCAP_HEAVY_PACKETS = 2000000
# synth_file: hours synthesized per light and per heavy job, and the
# distinct seeds of each. Synthesis cannot be thinned, so job cost
# varies with the seed; many heavy seeds keep the p90 off any one draw.
SYNTH_HOURS = 1.0
SYNTH_INPUTS = 32
SYNTH_HEAVY_HOURS = 4.0
SYNTH_HEAVY_INPUTS = 16
# The minimal job each closed loop interleaves to measure set-up.
PROBE_HOURS = 0.05
PROBE_EVERY = 4
# A closed loop runs for --seconds and at least this many main jobs, so
# its p90 always has >= 10 jobs beyond it.
MIN_JOBS = 110
# monitor_follow: offered rate in capture seconds per wall second, about
# 30% of the parent's 2-thread --replay --speed 0 capacity.
FOLLOW_RATE = 3000.0
FOLLOW_THREADS = 2
FOLLOW_POLL = 0.002
REPLAYS = 3
ROUND_LIMIT_S = 1.0     # a steady round later than this counts as failed
# The writer may fall behind its schedule by less than one slide period
# (300 capture seconds); later than that, the offered load is no longer
# the stated rate.
WRITER_LATE_LIMIT_S = 300.0 / FOLLOW_RATE
WRITER_TICK_S = 0.001
PCAP_HEADER = 24
PCAP_RECORD = 16 + 54  # PcapRecordEncoder frames: headers only

# Metric names and units come from the benchmark's definition.
with open(ROOT / "BENCHMARK.json") as _f:
    _DEFINITION = json.load(_f)
END_TO_END = [(m["name"], m["unit"]) for m in _DEFINITION["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _DEFINITION["per_layer"]]

ATTRIBUTION_TOLERANCE = 0.10
# Report fields the traced follow path prints (perfbench_tool.cpp).
TRACED_FIELDS = ("engine", "t0", "t1", "packets", "mean_count", "var_count",
                 "vt_hurst", "whittle_hurst")


class BenchError(Exception):
    pass


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    BUILD_ROOT.mkdir(exist_ok=True)
    logfile = BUILD_ROOT / "build.log"
    with open(logfile, "a") as out:
        def step(*cmd):
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                raise BenchError("build failed: %s (see %s)"
                                 % (" ".join(cmd), logfile))

        if not CONFIGURED.exists():
            step("cmake", "-S", "perfbench", "-B", str(CMAKE_DIR))
            CONFIGURED.touch()
        step("cmake", "--build", str(CMAKE_DIR), "-j",
             str(os.cpu_count() or 1), "--target", "perfbench_tool",
             "wantraffic_analyze", "wantraffic_monitor", "wantraffic_synth")


# ------------------------------------------------------------ processes

class Child:
    """A child process whose CPU and peak RSS come from its own wait4."""

    def __init__(self, args, stdout, env=None):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen([str(a) for a in args], env=env, cwd=ROOT,
                                     stdout=stdout,
                                     stderr=subprocess.DEVNULL)
        self.pid = self.proc.pid

    def wait(self):
        _, status, ru = os.wait4(self.pid, 0)
        self.wall = time.perf_counter() - self.start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rc = self.proc.returncode
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        return self

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.wait()


def run_job(args, out_path, env=None):
    with open(out_path, "wb") as out:
        return Child(args, out, env=env).wait()


def helper(*args):
    done = subprocess.run([str(HELPER)] + [str(a) for a in args], cwd=ROOT,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError("perfbench_tool %s failed: %s"
                         % (args[0], done.stderr.strip()))
    return done.stdout


def write_back(path):
    """Flushes a freshly written input to disk, so that its writeback
    does not run under the timed jobs."""
    with open(path, "rb") as f:
        os.fsync(f.fileno())


def gen(work, name, seed, hours, ref=False, max_packets=None):
    cap = work / (name + ".pcap")
    args = ["gen", "--seed", seed, "--hours", hours, "--out", cap]
    if max_packets is not None:
        args += ["--max-packets", max_packets]
    if ref:
        args += ["--ref", work / (name + ".ref.json")]
    info = json.loads(helper(*args))
    write_back(cap)
    info["path"] = cap
    if ref:
        info["ref"] = json.loads((work / (name + ".ref.json")).read_text())
    return info


def med(values):
    return benchlib.percentile(values, 0.5)


def latency_pair(values_s):
    """p50 and p90 in ms; raises unless the run supports the p90."""
    if not benchlib.supported(len(values_s), 0.9):
        raise BenchError("only %d samples: a p90 needs %d beyond it"
                         % (len(values_s), benchlib.TAIL_MIN_BEYOND))
    return (1e3 * benchlib.percentile(values_s, 0.5),
            1e3 * benchlib.percentile(values_s, 0.9))


# ----------------------------------------------------------- pcap_whole

def analyze_args(cap, telnet):
    args = [TOOLS / "wantraffic_analyze", "pkt", cap, "--ingest-format",
            "pcap", "--stream", "--bin", "0.1", "--threads", "1"]
    return args + (["--protocol", "TELNET"] if telnet else [])


def parse_analyze(text):
    """Packet total, bin count and Hurst report from wantraffic_analyze
    stdout, keyed like the reference."""
    got = {"packets": None, "bins": None, "report": ""}
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("ingested ") and " packets from " in line:
            got["packets"] = int(line.split()[1])
        if line.startswith("count process: "):
            got["bins"] = int(line.split()[2])
            got["report"] = "\n".join(x for x in lines[i + 1:] if x)
    return got


def matches(got, ref):
    return all(got[k] == ref[k] for k in ("packets", "bins", "report"))


def closed_loop(seconds, inputs, main_job, probe_job):
    """Runs main jobs back to back, cycling through `inputs`, for
    `seconds` and at least MIN_JOBS jobs, with a probe (minimal job)
    before every PROBE_EVERY-th one. A job returns (Child, ok). Returns
    ({input: [Child]}, [probe Child], failed count)."""
    runs = {x: [] for x in inputs}
    probes, failed = [], 0
    t0 = time.perf_counter()
    i = 0
    while time.perf_counter() - t0 < seconds or i < MIN_JOBS:
        if i % PROBE_EVERY == 0:
            child, ok = probe_job()
            probes.append(child)
            failed += not ok
        key = inputs[i % len(inputs)]
        child, ok = main_job(key)
        runs[key].append(child)
        failed += not ok
        i += 1
    return runs, probes, failed


def closed_loop_metrics(runs, probes, span_s):
    """End-to-end metrics of a closed loop in which input x covers
    span_s[x] capture seconds. Throughput, CPU and peak RSS take each
    input's median job (peak RSS: its largest), so every input counts
    once, however often it ran."""
    walls = [c.wall for jobs in runs.values() for c in jobs]
    p50, p90 = latency_pair(walls)
    return {
        "setup_s": med([c.wall for c in probes]),
        "traffic_s_per_s": sum(span_s[x] for x in runs) / sum(
            med([c.wall for c in jobs]) for jobs in runs.values()),
        "report_latency_p50_ms": p50,
        "report_latency_p90_ms": p90,
        "cpu_s": sum(med([c.cpu for c in jobs])
                     for jobs in runs.values()) / len(runs),
        "peak_rss_mb": med([max(c.rss_mb for c in jobs)
                            for jobs in runs.values()]),
    }


def pcap_whole(work, seed, seconds, trace):
    # Light captures are keys 0..PCAP_INPUTS-1, the heavy one "heavy".
    caps = {k: gen(work, "cap%d" % k, seed * 1000 + k, PCAP_HOURS, ref=True,
                   max_packets=PCAP_PACKETS)
            for k in range(1 if trace else PCAP_INPUTS)}
    if not trace:
        caps["heavy"] = gen(work, "heavy", seed * 1000 + PCAP_INPUTS,
                            PCAP_HEAVY_HOURS, ref=True,
                            max_packets=PCAP_HEAVY_PACKETS)
    for k, info in caps.items():
        cap = PCAP_HEAVY_PACKETS if k == "heavy" else PCAP_PACKETS
        if info["packets"] > cap + 2:  # + the two window markers
            raise BenchError("capture %s not thinned" % k)
    probe = gen(work, "probe", seed * 1000, PROBE_HOURS, ref=True)
    out = work / "analyze.out"

    def job(info, telnet):
        child = run_job(analyze_args(info["path"], telnet), out)
        got = parse_analyze(out.read_text())
        ok = child.rc == 0 and matches(
            got, info["ref"]["telnet" if telnet else "all"])
        return child, ok

    if trace:
        return pcap_whole_traced(work, caps[0], seconds, job)
    light = [(k, telnet) for k in range(PCAP_INPUTS)
             for telnet in (False, True)]
    heavy = [("heavy", False), ("heavy", True)]
    runs, probes, failed = closed_loop(
        seconds, benchlib.mix(light, heavy),
        lambda key: job(caps[key[0]], key[1]), lambda: job(probe, False))
    attempted = sum(map(len, runs.values())) + len(probes)
    span_s = {key: caps[key[0]]["t_last"] - caps[key[0]]["t_begin"]
              for key in runs}
    return closed_loop_metrics(runs, probes, span_s), attempted, failed


def pcap_whole_traced(work, cap, seconds, job):
    untraced = {False: [], True: []}
    failed = 0
    for i in range(8):
        child, ok = job(cap, i % 2 == 1)
        untraced[i % 2 == 1].append(child.wall)
        failed += not ok
    trace_file = work / "trace.json"
    helper("trace-pcap", "--cap", cap["path"], "--seconds", seconds,
           "--out", trace_file)
    t = json.loads(trace_file.read_text())
    for kind in ("all", "telnet"):
        failed += not matches(t["results"][kind], cap["ref"][kind])
    names, spans = t["names"], t["spans"]
    jobs = split_roots(names, spans, "job")
    per_job = [benchlib.self_times(names, s) for s in jobs]
    walls = [benchlib.span_seconds(names, s, "job")[0] for s in jobs]
    kinds = [j["kind"] == "telnet" for j in t["jobs"]]
    decode = [p.get("ingest.decode", 0.0) for p in per_job]
    records = t["jobs"][0]["records"]
    ratio = [walls[i] / med(untraced[kinds[i]]) for i in range(len(jobs))]
    kept = sum(j["packets"] for j in t["jobs"])
    m = {
        "ingest.open_s": med([p.get("ingest.open", 0.0) for p in per_job]),
        "ingest.decode_s": med(decode),
        "ingest.decode_ns_per_pkt": 1e9 * med(decode) / records,
        "stream.analyze_self_s": med([p.get("stream.analyze", 0.0)
                                      for p in per_job]),
        "selfsim.hurst_report_s": med([p.get("selfsim.hurst_report", 0.0)
                                       for p in per_job]),
        "ingest.records": records,
        "ingest.bytes": t["jobs"][0]["bytes"],
        "ingest.skipped": t["jobs"][0]["skipped"],
        "stream.kept_ratio": kept / sum(j["records"] for j in t["jobs"]),
        "fft.plan_hits": t["jobs"][0]["plan_hits"],
        "fft.plan_misses": t["jobs"][0]["plan_misses"],
        "trace.overhead_ratio": med(ratio),
        "trace.coverage_ratio": benchlib.coverage(names, spans, "job"),
        "par.threads": t["threads"],
    }
    return m, 8 + len(jobs), failed


def split_roots(names, spans, root):
    """Spans grouped per root span, re-indexed so parents stay valid."""
    groups, index = [], {}
    for i, (name, parent, start, end) in enumerate(spans):
        if parent < 0:
            if names[name] != root:
                raise BenchError("unexpected root span " + names[name])
            groups.append([])
        group = groups[-1]
        index[i] = len(group)
        group.append([name, index[parent] if parent >= 0 else -1, start,
                      end])
    return groups


# ----------------------------------------------------------- synth_file

def synth_args(hours, seed, out):
    return [TOOLS / "wantraffic_synth", "pkt", "--binary", "--stream",
            "--hours", hours, "--seed", seed, "--out", out]


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def synth_file(work, seed, seconds, trace):
    env = dict(os.environ, WAN_THREADS="2")
    # Job content (and so cost) varies with the synthesis seed; cycling
    # through many seeds derived from the workload seed keeps a run's
    # figures from resting on one draw. A key is (seed, hours).
    seeds = [seed * 1000 + k for k in range(1 if trace else SYNTH_INPUTS)]
    light = [(s, SYNTH_HOURS) for s in seeds]
    heavy = [] if trace else [(seed * 1000 + SYNTH_INPUTS + k,
                               SYNTH_HEAVY_HOURS)
                              for k in range(SYNTH_HEAVY_INPUTS)]
    refs = {}
    for key in light + heavy + [(seeds[0], PROBE_HOURS)]:
        ref = work / "ref.bin"
        helper("trace-synth", "--hours", key[1], "--seed", key[0], "--file",
               ref, "--seconds", 0, "--out", work / "ref-trace.json")
        refs[key] = sha256(ref)
        write_back(ref)
    out = work / "synth.bin"
    log_out = work / "synth.out"

    def job(key):
        child = run_job(synth_args(key[1], key[0], out), log_out, env=env)
        return child, child.rc == 0 and sha256(out) == refs[key]

    if trace:
        return synth_file_traced(work, seeds[0], seconds, job, refs)
    runs, probes, failed = closed_loop(
        seconds, benchlib.mix(light, heavy), job,
        lambda: job((seeds[0], PROBE_HOURS)))
    attempted = sum(map(len, runs.values())) + len(probes)
    span_s = {key: key[1] * 3600.0 for key in runs}
    return closed_loop_metrics(runs, probes, span_s), attempted, failed


def synth_file_traced(work, seed, seconds, job, refs):
    untraced, failed = [], 0
    for _ in range(8):
        child, ok = job((seed, SYNTH_HOURS))
        untraced.append(child.wall)
        failed += not ok
    traced_bin = work / "traced.bin"
    trace_file = work / "trace.json"
    helper("trace-synth", "--hours", SYNTH_HOURS, "--seed", seed, "--file",
           traced_bin, "--seconds", seconds, "--out", trace_file)
    failed += sha256(traced_bin) != refs[(seed, SYNTH_HOURS)]
    t = json.loads(trace_file.read_text())
    names, spans = t["names"], t["spans"]
    jobs = split_roots(names, spans, "job")
    per_job = [benchlib.self_times(names, s) for s in jobs]
    walls = [benchlib.span_seconds(names, s, "job")[0] for s in jobs]
    records = t["jobs"][0]["records"]
    nxt = med([p.get("synth.next", 0.0) for p in per_job])
    m = {
        "synth.ctor_s": med([p.get("synth.ctor", 0.0) for p in per_job]),
        "synth.next_s": nxt,
        "synth.ns_per_record": 1e9 * nxt / records,
        "synth.records": records,
        "stream.write_s": med([p.get("stream.write", 0.0) for p in per_job]),
        "stream.bytes_written": traced_bin.stat().st_size,
        "trace.overhead_ratio": med(walls) / med(untraced),
        "trace.coverage_ratio": benchlib.coverage(names, spans, "job"),
        "par.threads": t["threads"],
    }
    return m, 8 + len(jobs), failed


# ------------------------------------------------------- monitor_follow

class Capture:
    """Read-only view of a PcapRecordEncoder capture: fixed-size records
    in time order, so record i sits at a known offset. As a sequence it
    is the record times, for bisect."""

    def __init__(self, path):
        self.file = open(path, "rb")
        self.map = mmap.mmap(self.file.fileno(), 0, access=mmap.ACCESS_READ)
        size = len(self.map)
        if (size - PCAP_HEADER) % PCAP_RECORD:
            raise BenchError("capture is not fixed-size records")
        self.n = (size - PCAP_HEADER) // PCAP_RECORD
        incl = struct.unpack_from("<I", self.map, PCAP_HEADER + 8)[0]
        if incl != PCAP_RECORD - 16:
            raise BenchError("unexpected record size %d" % incl)

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        sec, usec = struct.unpack_from("<II", self.map, self.offset(i))
        return sec + usec * 1e-6

    def offset(self, i):
        return PCAP_HEADER + PCAP_RECORD * i

    def close(self):
        self.map.close()
        self.file.close()


class Stamper(threading.Thread):
    """Reads a child's stdout, stamping each complete line on arrival."""

    def __init__(self, stream):
        super().__init__(daemon=True)
        self.stream = stream
        self.lines = []

    def run(self):
        fd = self.stream.fileno()
        pending = b""
        while True:
            chunk = os.read(fd, 1 << 16)
            now = time.perf_counter()
            if not chunk:
                break
            pending += chunk
            *complete, pending = pending.split(b"\n")
            for line in complete:
                self.lines.append((now, line.decode()))
        if pending:
            self.lines.append((time.perf_counter(), pending.decode()))


def pace(cap, grow_path, seconds, rate, still_running):
    """Appends `cap` to grow_path on its capture-time schedule. Returns
    (wall_t0, max lateness in s)."""
    cap_t0 = cap[0]
    late_max = 0.0
    with open(grow_path, "ab", buffering=0) as out:
        written = 0
        wall_t0 = time.perf_counter() + 0.05
        while written < cap.n:
            now = time.perf_counter()
            cap_now = cap_t0 + (now - wall_t0) * rate
            upto = bisect.bisect_right(cap, cap_now, lo=written)
            if upto > written:
                due = benchlib.due_time(wall_t0, cap_t0, rate,
                                        cap[written])
                out.write(cap.map[cap.offset(written):cap.offset(upto)])
                late_max = max(late_max, time.perf_counter() - due)
                written = upto
            if not still_running():
                raise BenchError("follower exited early")
            time.sleep(WRITER_TICK_S)
    return wall_t0, late_max


def proc_status(pid):
    with open("/proc/%d/status" % pid) as f:
        return f.read()


def proc_rchar(pid):
    with open("/proc/%d/io" % pid) as f:
        for line in f:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    return 0


def follow(cap, work, follower_args, seconds):
    """One paced follow: starts the follower on an empty growing pcap,
    paces the capture into it, waits until the follower has read every
    byte and gone quiet, stops it with SIGTERM. Returns the child, its
    stamped stdout lines, the schedule origin and the writer lateness."""
    grow = work / "grow.pcap"
    grow.write_bytes(cap.map[:PCAP_HEADER])
    child = Child(follower_args + [grow], subprocess.PIPE)
    stamper = Stamper(child.proc.stdout)
    stamper.start()
    try:
        wall_t0, late = pace(cap, grow, seconds, FOLLOW_RATE,
                             lambda: child.proc.poll() is None)
        size = grow.stat().st_size
        deadline = time.perf_counter() + 60.0
        while proc_rchar(child.pid) < size:
            if time.perf_counter() > deadline:
                raise BenchError("follower never caught up")
            time.sleep(0.01)
        time.sleep(0.3)  # decode of the last read block
        hwm_kb = benchlib.parse_status_kb(proc_status(child.pid), "VmHWM")
        child.proc.send_signal(signal.SIGTERM)
        child.wait()
        stamper.join()
    finally:
        child.kill()
    return child, stamper.lines, wall_t0, late, hwm_kb


def monitor_args(extra):
    return ["--threads", FOLLOW_THREADS, "--stats-interval", 0,
            "--poll-interval", FOLLOW_POLL] + extra


def report_rounds(lines):
    """[(t1, read_stamp)] per report round, stamped when its last line
    was read, from stamped report-stream lines."""
    rounds = {}
    for stamp, line in lines:
        if not line.startswith("#"):
            rounds[json.loads(line)["t1"]] = stamp  # dicts keep order
    return list(rounds.items())


def comparable(lines):
    """The report stream minus the shutdown reason, which says how the
    run ended (stop request vs end of capture), not what it found."""
    return [x for x in lines if not x.startswith("# shutdown:")]


def monitor_follow(work, seed, seconds, trace):
    follow_s = seconds
    info = gen(work, "cap", seed, FOLLOW_RATE * follow_s / 3600.0)
    span_s = info["t_last"] - info["t_begin"]
    cap = Capture(info["path"])
    try:
        # Reference: the same capture replayed unpaced, REPLAYS times;
        # the median replay also gives the daemon's capacity.
        ref_out = work / "replay.out"
        replays, outputs = [], []
        for _ in range(REPLAYS):
            replays.append(run_job([TOOLS / "wantraffic_monitor", "--replay",
                                    info["path"], "--speed", 0]
                                   + monitor_args([]), ref_out))
            outputs.append(ref_out.read_text().splitlines())
        ref_lines = outputs[0]
        failed = sum(r.rc != 0 or out != ref_lines
                     for r, out in zip(replays, outputs))
        tool = [TOOLS / "wantraffic_monitor"] + monitor_args(["--follow"])
        child, lines, wall_t0, late, hwm_kb = follow(cap, work, tool,
                                                     follow_s)
        failed += child.rc != 0
        got = [line for _, line in lines]
        expected_rounds = report_rounds([(0.0, x) for x in ref_lines])
        rounds = report_rounds(lines)
        if comparable(got) != comparable(ref_lines):
            failed += max(1, len(expected_rounds) - len(rounds))
        lat = benchlib.round_latencies(rounds, cap, wall_t0,
                                       cap[0], FOLLOW_RATE)
        if trace:
            m, n, f = monitor_traced(work, cap, ref_lines, follow_s, child,
                                     late)
            return m, n + len(expected_rounds) + REPLAYS, failed + f
        values = [x for _, x in lat]
        steady = values[benchlib.steady_from(values):]
        over = sum(x > ROUND_LIMIT_S for x in steady)
        failed += over + (late > WRITER_LATE_LIMIT_S)
        log("monitor_follow: %d rounds, %d steady, writer late max %.2f ms,"
            " VmHWM %d kB" % (len(values), len(steady), 1e3 * late, hwm_kb))
        if child.rss_mb * 1024 < hwm_kb:
            raise BenchError("wait4 peak RSS below the VmHWM read before it")
        p50, p90 = latency_pair(steady)
        metrics = {
            "setup_s": values[0],
            "traffic_s_per_s": span_s / med([r.wall for r in replays]),
            "report_latency_p50_ms": p50,
            "report_latency_p90_ms": p90,
            "cpu_s": child.cpu,
            "peak_rss_mb": child.rss_mb,
        }
        return metrics, len(expected_rounds) + REPLAYS, failed
    finally:
        cap.close()


def monitor_traced(work, cap, ref_lines, follow_s, untraced, late0):
    trace_file = work / "trace.json"
    reports = work / "traced.jsonl"
    args = [HELPER, "trace-follow", "--out", trace_file, "--reports",
            reports, "--"] + monitor_args(["--follow"])
    child, _, _, late, _ = follow(cap, work, args, follow_s)
    failed = int(child.rc != 0)
    # The traced path prints a subset of each report line's fields and
    # the drift lines, not the shutdown block.
    ref = ref_lines[:next((i for i, x in enumerate(ref_lines)
                           if x.startswith("# shutdown:")), len(ref_lines))]
    want = [x if x.startswith("#") else
            {k: json.loads(x)[k] for k in TRACED_FIELDS} for x in ref]
    got = [x if x.startswith("#") else json.loads(x)
           for x in reports.read_text().splitlines()]
    failed += got != want
    t = json.loads(trace_file.read_text())
    names, spans = t["names"], t["spans"]
    selfs = benchlib.self_times(names, spans)
    boundary = benchlib.span_seconds(names, spans, "monitor.push_boundary")
    first = benchlib.span_seconds(names, spans, "monitor.push_first")
    flow_add = selfs.get("ingest.flow_add", 0.0)
    if not boundary or not benchlib.supported(len(boundary), 0.9):
        raise BenchError("too few boundary pushes for a p90")
    m = {
        "monitor.poll_s": selfs.get("monitor.poll", 0.0),
        "monitor.polls": t["polls"],
        "monitor.caught_up_ratio": t["caught_up"] / t["polls"],
        "ingest.flow_add_s": flow_add,
        "ingest.flow_ns_per_pkt": 1e9 * flow_add / t["packets"],
        "ingest.open_flows_peak": t["open_flows_peak"],
        "monitor.mux_ctor_s": selfs.get("monitor.mux_ctor", 0.0),
        "monitor.first_round_push_s": first[0] if first else 0.0,
        "monitor.boundary_push_ms_p50": 1e3 * benchlib.percentile(boundary,
                                                                  0.5),
        "monitor.boundary_push_ms_p90": 1e3 * benchlib.percentile(boundary,
                                                                  0.9),
        "monitor.quiet_push_s": selfs.get("monitor.push_quiet", 0.0),
        "monitor.take_reports_s": selfs.get("monitor.take_reports", 0.0),
        "monitor.drift_s": selfs.get("monitor.drift", 0.0),
        "monitor.rounds": t["rounds"],
        "monitor.reports": t["reports"],
        "load.gen_late_ms_max": 1e3 * max(late, late0),
        "ingest.records": t["records"],
        "trace.overhead_ratio": child.cpu / untraced.cpu,
        "trace.coverage_ratio": benchlib.coverage(names, spans, "follow"),
        "par.threads": t["threads"],
    }
    failed += max(late, late0) > WRITER_LATE_LIMIT_S
    return m, 1, failed


# ----------------------------------------------------------------- main

WORKLOADS = {
    "pcap_whole": pcap_whole,
    "monitor_follow": monitor_follow,
    "synth_file": synth_file,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 1 or a.seconds <= 0:
        ap.error("--seed must be >= 1 and --seconds > 0")

    work = None
    try:
        if not (ROOT / "perfbench" / "run.py").exists():
            raise BenchError("run from the root of a checkout")
        build()
        work = BUILD_ROOT / "work" / ("%s-%d-%d" % (a.workload, a.seed,
                                                     os.getpid()))
        work.mkdir(parents=True)
        values, attempted, failed = WORKLOADS[a.workload](
            work, a.seed, a.seconds, bool(a.trace))
    except BenchError as e:
        log("error: %s" % e)
        return 1
    finally:
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)

    catalog = PER_LAYER if a.trace else END_TO_END
    units = dict(catalog)
    metrics = {name: {"value": float(values.get(name, 0.0)),
                      "unit": units[name]} for name, _ in catalog}
    for name in values:
        if name not in units:
            raise AssertionError("unlisted metric " + name)
    if a.trace:
        cov = values["trace.coverage_ratio"]
        if abs(1.0 - cov) > ATTRIBUTION_TOLERANCE:
            log("attribution check failed: spans cover %.3f of wall" % cov)
            failed += 1
    for name, m in metrics.items():
        print("%-30s %14.6g %s" % (name, m["value"], m["unit"]))
    print("nproc %d; cpu %s" % (os.cpu_count() or 0, cpu_model()))
    print(json.dumps({"correct": failed == 0, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
