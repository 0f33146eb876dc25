#!/usr/bin/env python3
"""Validate a gecos trace-event JSON file and digest its top spans (stdlib only).

Reads the chrome://tracing / Perfetto trace-event JSON that GECOS_TRACE=<path>
writes, validates its structure — every
"X" complete event needs a name, pid/tid, and numeric non-negative ts/dur;
"M" metadata events are allowed through — and prints a digest of the top
spans by SELF time (wall time minus the time covered by nested child
spans on the same thread, reconstructed from the ts/dur intervals).

CI runs this over the traced sector_quench bench artifact: a malformed
trace fails the job here rather than silently failing to load in the
Perfetto UI later.

Usage: trace_report.py <trace.json> [--top N]

Exit status: 0 when the trace validates (the digest is informational),
1 when the file is structurally invalid, 2 on usage errors.
"""

import json
import sys
from collections import defaultdict


def fail(msg: str) -> int:
    print(f"trace_report: {msg}", file=sys.stderr)
    return 1


def validate(trace) -> list:
    """Returns the list of "X" events, raising ValueError on bad structure."""
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError("top level must be an object with 'traceEvents'")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be an array")
    spans = []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        ph = ev.get("ph")
        if ph == "M":  # process_name / thread_name metadata
            continue
        if ph != "X":
            raise ValueError(f"traceEvents[{i}]: unexpected phase {ph!r} "
                             "(only 'X' complete events and 'M' metadata)")
        for key in ("name", "pid", "tid", "ts", "dur"):
            if key not in ev:
                raise ValueError(f"traceEvents[{i}]: missing '{key}'")
        if not isinstance(ev["name"], str) or not ev["name"]:
            raise ValueError(f"traceEvents[{i}]: 'name' must be a non-empty "
                             "string")
        for key in ("ts", "dur"):
            v = ev[key]
            if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
                raise ValueError(f"traceEvents[{i}]: '{key}' must be a "
                                 f"non-negative number, got {v!r}")
        spans.append(ev)
    return spans


def self_times(spans):
    """Per-name (count, total_us, self_us) via a per-thread interval stack.

    Events are sorted by (ts, -dur) per thread — a parent span strictly
    contains its children, so in that order a child always follows its
    parent while the parent is still on the stack, and each child's
    duration is subtracted from its innermost enclosing span's self time.
    """
    stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [count, total, self]
    by_thread = defaultdict(list)
    for ev in spans:
        by_thread[(ev["pid"], ev["tid"])].append(ev)
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # (end_ts, name) of open enclosing spans
        for ev in thread_spans:
            ts, dur = ev["ts"], ev["dur"]
            while stack and stack[-1][0] <= ts:
                stack.pop()
            stats[ev["name"]][0] += 1
            stats[ev["name"]][1] += dur
            stats[ev["name"]][2] += dur
            if stack:  # the innermost open span loses this child's time
                stats[stack[-1][1]][2] -= dur
            stack.append((ts + dur, ev["name"]))
    return stats


def main(argv: list) -> int:
    args = []
    top = 15
    i = 1
    while i < len(argv):
        if argv[i] == "--top":
            if i + 1 >= len(argv):
                print("trace_report: --top requires a count", file=sys.stderr)
                return 2
            try:
                top = int(argv[i + 1])
            except ValueError:
                print(f"trace_report: --top needs an integer, got "
                      f"{argv[i + 1]!r}", file=sys.stderr)
                return 2
            i += 2
        elif argv[i].startswith("--"):
            print(f"trace_report: unknown flag {argv[i]}", file=sys.stderr)
            return 2
        else:
            args.append(argv[i])
            i += 1
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    path = args[0]
    try:
        with open(path, encoding="utf-8") as f:
            trace = json.load(f)
    except OSError as e:
        return fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        return fail(f"{path} is not valid JSON: {e}")

    try:
        spans = validate(trace)
    except ValueError as e:
        return fail(f"{path}: {e}")

    threads = len({(e["pid"], e["tid"]) for e in spans})
    total_us = sum(e["dur"] for e in spans)
    print(f"{path}: {len(spans)} spans across {threads} thread(s), "
          f"{total_us / 1e6:.3f} s total span time")
    stats = self_times(spans)
    ranked = sorted(stats.items(), key=lambda kv: kv[1][2], reverse=True)
    if ranked:
        print(f"top {min(top, len(ranked))} spans by self time:")
        print(f"  {'name':<32} {'count':>8} {'total ms':>12} {'self ms':>12}")
        for name, (count, total, self_us) in ranked[:top]:
            print(f"  {name:<32} {count:>8} {total / 1e3:>12.3f} "
                  f"{self_us / 1e3:>12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
