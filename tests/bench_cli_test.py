#!/usr/bin/env python3
"""CLI-contract test for bench_main.

Pins the argument-handling policy the CI pipeline and the serve-layer job
workspaces depend on:

  * unknown flags and missing flag arguments exit 2 with a usage message,
    including the removed --simd, --trace and --progress (GECOS_SIMD and
    GECOS_TRACE do the first two jobs; a solver's progress callback the
    third),
  * --threads takes an integer in [1, 1024] and --repeat a positive
    integer, digits only; anything else exits 2,
  * an unwritable --out path fails FAST (the writability probe runs before
    any timed entry, so a typo'd path cannot waste a full bench run),
  * a valid --only + --out run exits 0 and writes a parseable JSON report
    with the gecos-bench-v4 schema,
  * an --only filter matching nothing is an error, not a silent no-op,
  * --list prints exactly the suite's entries, in run order.

Usage: bench_cli_test.py /path/to/bench_main
"""

import json
import os
import subprocess
import sys
import tempfile
import time

# The suite, in run order.
ENTRIES = [
    "term_expansion", "pauli_sum_product", "stream_triad", "scb_apply",
    "pauli_sum_apply", "dense_matmul", "dense_expm", "fermion_hubbard_1d",
    "fermion_hubbard_2d_spinful", "fermion_molecular",
    "fermion_density_string", "fermion_apply_xcheck", "parallel_apply",
    "hubbard_quench", "sector_xcheck", "sector_ground_state",
    "sector_quench", "telemetry_overhead", "serve_batch",
]


def run(args, timeout=600):
    return subprocess.run(
        args, capture_output=True, text=True, timeout=timeout
    )


def main():
    if len(sys.argv) != 2:
        print("usage: bench_cli_test.py /path/to/bench_main", file=sys.stderr)
        return 2
    bench = sys.argv[1]
    failures = 0

    def check(name, cond, detail=""):
        nonlocal failures
        if cond:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")

    # Unknown flag: exit 2, usage on stderr, nothing run.
    r = run([bench, "--frobnicate"])
    check("unknown flag exits 2", r.returncode == 2, f"rc={r.returncode}")
    check(
        "unknown flag names itself",
        "--frobnicate" in r.stderr and "usage" in r.stderr,
        r.stderr[:200],
    )

    # Flags that duplicated an environment variable are unknown arguments.
    for flag in (["--simd", "avx2"], ["--trace", "t.json"], ["--progress"]):
        r = run([bench, *flag, "--list"], timeout=60)
        check(f"{flag[0]} exits 2", r.returncode == 2, f"rc={r.returncode}")
        check(f"{flag[0]} error names the flag",
              f"unknown argument '{flag[0]}'" in r.stderr, r.stderr[:200])

    # --out without its PATH argument: exit 2.
    r = run([bench, "--out"])
    check("--out without arg exits 2", r.returncode == 2, f"rc={r.returncode}")
    check("--out error names the flag", "--out" in r.stderr, r.stderr[:200])

    # --threads is parsed strictly: trailing junk and 0 are flag errors,
    # not a silent 4 or a clamp to 1.
    for bad in ("4x", "0"):
        r = run([bench, "--threads", bad, "--list"], timeout=60)
        check(f"--threads {bad} exits 2", r.returncode == 2,
              f"rc={r.returncode}")
        check(f"--threads {bad} error names the flag",
              "--threads" in r.stderr and bad in r.stderr, r.stderr[:200])

    # --repeat goes through the same strict parser: "5x" is not 5.
    for bad in ("5x", "0"):
        r = run([bench, "--repeat", bad, "--list"], timeout=60)
        check(f"--repeat {bad} exits 2", r.returncode == 2,
              f"rc={r.returncode}")
        check(f"--repeat {bad} error names the flag",
              "--repeat" in r.stderr and bad in r.stderr, r.stderr[:200])

    # Unwritable --out: the probe rejects it before any timed work, so this
    # must come back in seconds, not bench-run minutes.
    bad_out = "/no/such/dir/bench.json"
    t0 = time.monotonic()
    r = run([bench, "--quick", "--out", bad_out])
    elapsed = time.monotonic() - t0
    check("unwritable --out exits 2", r.returncode == 2, f"rc={r.returncode}")
    check(
        "unwritable --out names the path",
        bad_out in r.stderr,
        r.stderr[:200],
    )
    check(
        "unwritable --out fails fast",
        elapsed < 30.0,
        f"took {elapsed:.1f}s — probe ran after the bench?",
    )

    # --only with a filter matching no entry: an error, not an empty report.
    r = run([bench, "--quick", "--only", "no_such_entry_xyz"])
    check("empty --only filter exits 2", r.returncode == 2,
          f"rc={r.returncode}")

    # --list prints entry names without running anything.
    r = run([bench, "--list"], timeout=60)
    check("--list exits 0", r.returncode == 0, f"rc={r.returncode}")
    check("--list prints the suite in order", r.stdout.split() == ENTRIES,
          r.stdout[:400])

    # Valid --only + --out: exit 0 and a parseable v4 report at the path.
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        r = run([bench, "--quick", "--repeat", "1", "--only", "fermion",
                 "--out", out])
        check("valid --only run exits 0", r.returncode == 0,
              f"rc={r.returncode} stderr={r.stderr[:300]}")
        check("--out file exists", os.path.exists(out), out)
        if os.path.exists(out):
            with open(out) as f:
                report = json.load(f)
            check(
                "report schema is gecos-bench-v4",
                report.get("schema") == "gecos-bench-v4",
                str(report.get("schema")),
            )
            names = [b.get("name", "") for b in report.get("benchmarks", [])]
            check("filtered entries all match", names != [] and all(
                "fermion" in n for n in names), str(names))

    print(f"bench_cli_test: {'FAIL' if failures else 'PASS'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
