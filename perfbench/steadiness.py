#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of the same build.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 5]
        [--seconds S] [--first-seed N]

Runs `perfbench/run.py --trace 0` alternately for set A and set B, each
run with its own seed, and prints for every workload and end-to-end
metric each set's median and quartiles next to the metric's bound, the
spread (Q3 - Q1) / median of all runs together, and how far set B's
median moved from set A's in the metric's worse direction. Raw results
go to .bench_build/steadiness.jsonl. Run from the checkout root.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402


def run_once(workload, seed, seconds):
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("run.py %s seed %d failed:\n%s"
                 % (workload, seed, out.stderr[-2000:]))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def main():
    definition = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in definition["workloads"]))
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    ap.add_argument("--seconds", type=float,
                    default=definition["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()
    workloads = a.workloads.split(",")

    results = {(w, s): [] for w in workloads for s in "AB"}
    log = Path(".bench_build") / "steadiness.jsonl"
    log.parent.mkdir(exist_ok=True)
    seed = a.first_seed
    with open(log, "a") as f:
        for _ in range(a.runs):
            for w in workloads:
                for side in "AB":
                    r = run_once(w, seed, a.seconds)
                    r.update(workload=w, set=side, seed=seed)
                    f.write(json.dumps(r) + "\n")
                    f.flush()
                    results[(w, side)].append(r)
                    seed += 1

    ok = True
    for w in workloads:
        runs = results[(w, "A")] + results[(w, "B")]
        print("%s: %d runs, failed %s, longest run %.0f s"
              % (w, len(runs), [r["failed"] for r in runs],
                 max(r["elapsed_s"] for r in runs)))
        ok &= all(r["correct"] for r in runs)
        for m in definition["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = {s: benchlib.summarize(
                [r["metrics"][name]["value"] for r in results[(w, s)]])
                for s in "AB"}
            spread = benchlib.quartile_spread(
                [r["metrics"][name]["value"] for r in runs])
            shift = sets["B"]["median"] / sets["A"]["median"] - 1.0
            worse = shift if m["better"] == "lower" else -shift
            verdict = "ok"
            if worse > bound or (name != "setup_s" and spread > bound):
                verdict, ok = "FAIL", False
            elif name != "setup_s" and spread > bound / 3:
                verdict = "wide"
            print("  %-22s bound %.2f | A %.4g [%.4g, %.4g] | "
                  "B %.4g [%.4g, %.4g] | spread %.3f | B worse by %+.3f | %s"
                  % (name, bound, sets["A"]["median"], sets["A"]["q1"],
                     sets["A"]["q3"], sets["B"]["median"], sets["B"]["q1"],
                     sets["B"]["q3"], spread, worse, verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
