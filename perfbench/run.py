#!/usr/bin/env python3
"""Build and run the gecos benchmark (stdlib only).

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

Builds perfbench/ (the benchmark binary, the gecos library and gecosd, from this
checkout's sources) into .bench_build/, runs the binary's self-tests,
checks that the binary's metric list matches BENCHMARK.json, then runs the
binary and prints its output, whose last line is the JSON result. Build and
self-test output go to stderr. Exits non-zero without a result when the
gecos sources are missing or anything before the measurement fails.

A run on CPUs the hypervisor steals from is slower for reasons outside the
program. On the 4-vCPU VM the benchmark was defined on, runs that lost up
to about 1% of the host's CPU time to steal ran at full speed, and every
run that lost 2.7% or more was slower than every quiet run of its set (one
that lost 14% ran at half speed). So a run that lost more than MAX_STEAL
is made again, in a fresh process, while time allows, and the least
contended run is printed. Its inputs line gains "attempts", and
"contended": 1 when every attempt lost more than MAX_STEAL.
"""

import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
BINARY = os.path.join(BUILD, "gecos_perfbench")
MAX_STEAL = 0.015
MAX_ATTEMPTS = 3
# A further attempt starts only if one more of the same length would end
# within this many seconds of the first, so the run exits in time.
ATTEMPT_BUDGET_S = 150.0
INPUTS = '{"inputs"'
TRACE = "trace written to "


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def run_quiet(cmd) -> bool:
    """Runs cmd with its stdout sent to our stderr; True on exit status 0."""
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def metric_lists_match() -> bool:
    """The binary's metric names and units equal BENCHMARK.json's."""
    out = subprocess.run([BINARY, "--list-metrics"], capture_output=True,
                         text=True, check=True).stdout
    listed = json.loads(out)
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    for key in ("end_to_end", "per_layer"):
        want = [[m["name"], m["unit"]] for m in spec[key]]
        if listed[key] != want:
            print(f"perfbench: {key} metrics differ:\n  binary    {listed[key]}"
                  f"\n  BENCHMARK {want}", file=sys.stderr)
            return False
    return True


def line_starting(out: str, prefix: str) -> str:
    """The first stdout line starting with prefix, or ""."""
    return next((l for l in out.splitlines() if l.startswith(prefix)), "")


def measure(args: list) -> int:
    """Runs the binary until an attempt is uncontended or time runs out,
    and prints the least contended attempt's output."""
    best = None  # (steal, stdout)
    start = time.monotonic()
    attempt = 0
    while attempt < MAX_ATTEMPTS:
        attempt += 1
        t0 = time.monotonic()
        p = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True)
        if p.returncode != 0:
            sys.stdout.write(p.stdout)
            return p.returncode
        inputs = line_starting(p.stdout, INPUTS)
        steal = json.loads(inputs)["inputs"]["host_steal_frac"] if inputs else 0.0
        trace = line_starting(p.stdout, TRACE)[len(TRACE):]
        if best is None or steal < best[0]:
            best = (steal, p.stdout)
            if trace:  # keep this attempt's trace; a later one overwrites it
                os.replace(trace, trace + ".best")
        if steal <= MAX_STEAL:
            break
        print(f"perfbench: attempt {attempt} lost {steal:.1%} of the host's CPU"
              f" time to the hypervisor (limit {MAX_STEAL:.1%})", file=sys.stderr)
        now = time.monotonic()
        if now - start + (now - t0) > ATTEMPT_BUDGET_S:
            break
    steal, out = best
    if steal > MAX_STEAL:
        print("perfbench: every attempt was contended; printing the least"
              " contended one", file=sys.stderr)
    trace = line_starting(out, TRACE)[len(TRACE):]
    if trace:
        os.replace(trace + ".best", trace)
    inputs = line_starting(out, INPUTS)
    if inputs:
        record = json.loads(inputs)
        record["inputs"].update(attempts=attempt, contended=int(steal > MAX_STEAL))
        out = out.replace(inputs, json.dumps(record), 1)
    sys.stdout.write(out)
    return 0


def main(argv: list) -> int:
    os.chdir(ROOT)
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        return fail(f"no gecos source tree at {ROOT}")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", "perfbench", "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return fail("cmake configure failed")
    if not run_quiet(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                      "--target", "gecos_perfbench"]):
        return fail("build failed")
    if not run_quiet([BINARY, "--selftest"]):
        return fail("self-tests failed")
    if argv[1:] == ["--selftest"]:
        return 0
    if os.path.isfile("BENCHMARK.json") and not metric_lists_match():
        return fail("binary metrics do not match BENCHMARK.json")
    return measure(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
