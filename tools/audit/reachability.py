#!/usr/bin/env python3
"""Library reachability audit: which wan:: functions no shipped program reaches.

Builds the repository (through perfbench/, so perfbench_tool is included)
at -O0 -ffunction-sections and links every executable with
-Wl,--gc-sections, so a linked binary keeps only the functions it can
reach. Every global function the libwan_*.a archives define is then
looked up in the binaries:

  shipped     the four tools, the paper benches (bench_* other than
              bench_perf_*), the examples and perfbench_tool
  perf        the bench_perf_* harnesses
  tests       the tests/test_* executables

A function no shipped binary keeps is a finding unless the allow-list
names it. Findings are grouped by who still reaches them ("perf-only",
"tests-only", "unreached"). Exit status: 0 clean, 1 findings or stale
allow-list entries, 2 usage or allow-list format error.

Allow-list format, one entry a line ('#' starts a comment):

  <pattern> <category>: <reason>

<pattern> is a qualified name without its parameter list (for example
wan::stats::hill_estimator or wan::dist::Pareto::Pareto) or an fnmatch
glob over such names (wan::stats::WhittleRefitter::*). <category> is one
of oracle (a test oracle), experiments (backs an EXPERIMENTS.md verdict),
perfbench (the benchmark helper or a bench_perf_* row needs it) or
roadmap (a named future ROADMAP item will call it); the reason must be
non-empty. An entry that matches no finding is stale and fails the run.

Usage:
  python3 tools/audit/reachability.py [--build DIR] [--allow FILE]
                                      [--jobs N] [--no-build]
"""

import argparse
import fnmatch
import os
import subprocess
import sys
from pathlib import Path

CATEGORIES = ("oracle", "experiments", "perfbench", "roadmap")
REPO = Path(__file__).resolve().parents[2]


def qualified_name(demangled):
    """The function's qualified name: the text before its parameter list,
    without the return type a template instantiation demangles with."""
    depth = 0
    start = 0
    for i, c in enumerate(demangled):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == " " and depth == 0 and demangled[i - 1] != ",":
            start = i + 1
        elif c == "(" and depth == 0:
            if demangled.endswith("operator", start, i):
                i = demangled.index(")", i) + 1
            return demangled[start:i]
    return demangled[start:]


def defined_functions(path):
    """Demangled global wan:: functions (text symbols) defined in path."""
    out = subprocess.run(["nm", "-C", "--defined-only", str(path)],
                         check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3 or parts[1] not in ("T", "W"):
            continue
        name = parts[2]
        if (qualified_name(name).startswith("wan::") and
                "(anonymous namespace)" not in name):
            names.add(name)
    return names


def die(msg):
    print(msg, file=sys.stderr)
    sys.exit(2)


def read_allow_list(path):
    entries = []
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 2)
        if (len(parts) < 3 or not parts[1].endswith(":") or
                parts[1][:-1] not in CATEGORIES or not parts[2].strip()):
            die(f"{path}:{lineno}: want '<pattern> <category>: "
                     f"<reason>' with category in {', '.join(CATEGORIES)}")
        entries.append((parts[0], parts[1][:-1], parts[2].strip()))
    return entries


def build(build_dir, jobs):
    flags = "-O0 -ffunction-sections"
    subprocess.run(
        ["cmake", "-S", str(REPO / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Debug", f"-DCMAKE_CXX_FLAGS={flags}",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"],
        check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", str(jobs)],
                   check=True, stdout=subprocess.DEVNULL)


def classify_binaries(build_dir):
    lib = build_dir / "wantraffic"
    groups = {"shipped": [], "perf": [], "tests": []}
    groups["shipped"] += sorted((lib / "tools").glob("wantraffic_*"))
    groups["shipped"] += sorted((lib / "examples").glob("example_*"))
    groups["shipped"].append(build_dir / "perfbench_tool")
    for b in sorted((lib / "bench").glob("bench_*")):
        if b.suffix or not os.access(b, os.X_OK):
            continue
        groups["perf" if b.name.startswith("bench_perf_")
               else "shipped"].append(b)
    groups["tests"] += sorted(p for p in (lib / "tests").glob("test_*")
                              if not p.suffix and os.access(p, os.X_OK))
    for name, paths in groups.items():
        missing = [str(p) for p in paths if not p.is_file()]
        if missing or not paths:
            die(f"no {name} binaries found (missing: {missing})")
    return groups, sorted(lib.glob("src/*/libwan_*.a"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build", default=str(REPO / "build-audit"),
                    help="build directory (default: build-audit)")
    ap.add_argument("--allow", default=str(Path(__file__).with_name(
        "allowlist.txt")), help="allow-list file")
    ap.add_argument("--jobs", type=int, default=4)
    ap.add_argument("--no-build", action="store_true",
                    help="reuse an existing audit build as it is")
    args = ap.parse_args()

    build_dir = Path(args.build).resolve()
    allow = read_allow_list(Path(args.allow))
    if not args.no_build:
        build(build_dir, args.jobs)
    groups, archives = classify_binaries(build_dir)
    if not archives:
        die(f"no libwan_*.a under {build_dir}")

    library = set()
    for a in archives:
        library |= defined_functions(a)
    reached = {g: set().union(*(defined_functions(p) for p in paths))
               for g, paths in groups.items()}

    findings = {}
    for sym in library - reached["shipped"]:
        who = ("perf-only" if sym in reached["perf"] else
               "tests-only" if sym in reached["tests"] else "unreached")
        findings.setdefault(qualified_name(sym), set()).add(who)

    used = set()
    unlisted = {}
    for name, whos in sorted(findings.items()):
        hit = [p for p, _, _ in allow if fnmatch.fnmatchcase(name, p)]
        used.update(hit)
        if not hit:
            for who in whos:
                unlisted.setdefault(who, []).append(name)

    status = 0
    for who in ("tests-only", "perf-only", "unreached"):
        names = unlisted.get(who, [])
        if names:
            status = 1
            print(f"{who}: {len(names)} function(s) no shipped program "
                  f"reaches and the allow-list does not name")
            for n in names:
                print(f"  {n}")
    stale = [p for p, _, _ in allow if p not in used]
    if stale:
        status = 1
        print(f"stale allow-list entries (match no finding): {len(stale)}")
        for p in stale:
            print(f"  {p}")
    listed = sum(1 for n in findings
                 if any(fnmatch.fnmatchcase(n, p) for p, _, _ in allow))
    print(f"audit: {len(library)} library functions, "
          f"{len(findings)} names unreached by shipped programs, "
          f"{listed} allow-listed, {sum(map(len, unlisted.values()))} "
          f"unlisted, {len(stale)} stale")
    return status


if __name__ == "__main__":
    sys.exit(main())
