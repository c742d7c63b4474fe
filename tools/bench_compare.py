#!/usr/bin/env python3
"""Compare two BenchRecord JSON files and flag performance regressions.

Usage:
  tools/bench_compare.py BASELINE.json CURRENT.json [options]

Entries are matched by (method, dataset, source, read_ahead): one bench
can record the same method and dataset once per data backend and
read-ahead depth. Entries that share all four fields are matched in
record order. Each matched pair is compared twice:

- Work counters (chunks_scanned, cells, cells_convolved, index_probes,
  binomial_tests) are deterministic, so they must match exactly. Any
  difference is a counter change and fails the comparison even with
  --warn-only: the program did a different amount of work. A change that
  means to do so regenerates the baseline and says why.
- The per-run wall time, and the record-level totals (wall_seconds,
  peak_rss_bytes). A regression is a relative increase above --threshold
  (default 25%). Small absolute times are noisy, so pairs where both
  sides are under --min-seconds (default 50 ms) are only reported
  informationally, never failed on.

Exit codes:
  0  no counter changes and no timing regressions (or only timing
     regressions under --warn-only), or no usable baseline (a missing or
     unparseable baseline is a warning, not a failure: the first run of a
     new bench has nothing to compare against)
  1  a counter changed, or a timing regression above threshold without
     --warn-only
  2  usage error, or the CURRENT record is missing/unparseable (that one
     is always a hard error — it means the bench itself broke)

The committed baseline lives at bench/baselines/BENCH_baseline.json and is
refreshed deliberately (see README); CI runs this script with --warn-only,
so timings only warn while counter changes fail.
"""

import argparse
import collections
import json
import sys

SUPPORTED_SCHEMA = 1

# BenchEntry work counters (src/eval/measurement.h WorkCounters).
COUNTERS = (
    "chunks_scanned",
    "cells",
    "cells_convolved",
    "index_probes",
    "binomial_tests",
)


def load_record(path, *, required):
    """Loads a BenchRecord JSON file.

    When required, any problem is fatal (exit 2). Otherwise problems
    print a warning and return None so the caller can skip the
    comparison — a fresh checkout or a renamed bench has no baseline
    yet, and that must not fail CI with a stack trace.
    """
    problem = None
    record = None
    try:
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
        problem = f"cannot read {path}: {e}"
    if record is not None:
        if not isinstance(record, dict):
            problem = f"{path}: top-level JSON value is not an object"
        else:
            version = record.get("schema_version")
            if version != SUPPORTED_SCHEMA:
                problem = (
                    f"{path}: schema_version {version} != supported "
                    f"{SUPPORTED_SCHEMA}"
                )
    if problem is None:
        return record
    if required:
        print(f"error: {problem}", file=sys.stderr)
        sys.exit(2)
    print(f"warning: {problem}", file=sys.stderr)
    return None


def entry_key(entry):
    # Records that predate the backend axis default to the values a
    # BenchEntry carries when the axis is not swept.
    return (
        entry.get("method", ""),
        entry.get("dataset", ""),
        entry.get("source", "memory"),
        entry.get("read_ahead", 0),
    )


def index_entries(entries):
    """Keys every entry; repeats of one key get their occurrence number."""
    seen = collections.Counter()
    indexed = {}
    for entry in entries:
        key = entry_key(entry)
        indexed[key + (seen[key],)] = entry
        seen[key] += 1
    return indexed


def entry_name(key):
    method, dataset, source, read_ahead, occurrence = key
    repeat = f" #{occurrence + 1}" if occurrence > 0 else ""
    return f"{method}/{dataset} [{source}, read_ahead {read_ahead}]{repeat}"


def relative_change(base, cur):
    if base <= 0:
        return 0.0
    return (cur - base) / base


def fmt_pct(x):
    return f"{x * +100:+.1f}%"


def main():
    parser = argparse.ArgumentParser(
        description="Diff two BenchRecord JSON files."
    )
    parser.add_argument("baseline", help="baseline BenchRecord JSON")
    parser.add_argument("current", help="current BenchRecord JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative increase that counts as a regression (default 0.25)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.05,
        help="ignore per-entry timings where both sides are below this "
        "(default 0.05)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report timing regressions without failing (counter "
        "changes still fail)",
    )
    args = parser.parse_args()

    # The current record is validated first and unconditionally: if the
    # bench run itself produced garbage, that is a failure regardless of
    # the baseline's state.
    cur = load_record(args.current, required=True)
    base = load_record(args.baseline, required=False)
    if base is None:
        print(
            "no usable baseline — skipping comparison (record a baseline "
            f"with: cp {args.current} {args.baseline})"
        )
        return 0

    if base.get("bench") != cur.get("bench"):
        print(
            f"note: comparing different benches "
            f"({base.get('bench')} vs {cur.get('bench')})"
        )
    if base.get("scale") != cur.get("scale"):
        print(
            f"note: scales differ (baseline {base.get('scale')} vs "
            f"current {cur.get('scale')}); timings are not comparable"
        )

    base_entries = index_entries(base.get("entries", []))
    cur_entries = index_entries(cur.get("entries", []))

    regressions = []
    counter_changes = []
    infos = []

    for key in sorted(base_entries.keys() - cur_entries.keys()):
        infos.append(f"entry {entry_name(key)}: missing from current run")
    for key in sorted(cur_entries.keys() - base_entries.keys()):
        infos.append(f"entry {entry_name(key)}: new in current run")

    for key in sorted(base_entries.keys() & cur_entries.keys()):
        b, c = base_entries[key], cur_entries[key]
        name = entry_name(key)
        if b.get("completed") and not c.get("completed"):
            regressions.append(
                f"entry {name}: completed in baseline, now fails "
                f"({c.get('error', '')!r})"
            )
            continue
        for counter in COUNTERS:
            if counter not in b or counter not in c:
                infos.append(f"entry {name}: no {counter} on one side")
            elif b[counter] != c[counter]:
                counter_changes.append(
                    f"entry {name}: {counter} {b[counter]} -> {c[counter]}"
                )
        bs, cs = b.get("seconds", 0.0), c.get("seconds", 0.0)
        change = relative_change(bs, cs)
        line = f"entry {name}: {bs:.3f}s -> {cs:.3f}s ({fmt_pct(change)})"
        if change > args.threshold:
            if bs < args.min_seconds and cs < args.min_seconds:
                infos.append(line + " [below --min-seconds, ignored]")
            else:
                regressions.append(line)
        else:
            infos.append(line)

    for field, unit, minimum in (
        ("wall_seconds", "s", args.min_seconds),
        ("peak_rss_bytes", "B", 0),
    ):
        bv, cv = base.get(field, 0), cur.get(field, 0)
        change = relative_change(bv, cv)
        line = f"total {field}: {bv:g}{unit} -> {cv:g}{unit} ({fmt_pct(change)})"
        if change > args.threshold and not (bv < minimum and cv < minimum):
            regressions.append(line)
        else:
            infos.append(line)

    for line in infos:
        print(f"  ok   {line}")
    for line in regressions:
        print(f"  REG  {line}")
    for line in counter_changes:
        print(f"  WORK {line}")

    if counter_changes:
        print(
            f"\n{len(counter_changes)} work counter change(s): the run did "
            "different work than the baseline"
        )
        return 1
    if regressions:
        print(
            f"\n{len(regressions)} regression(s) above "
            f"{fmt_pct(args.threshold)}"
            + (" (warn-only: not failing)" if args.warn_only else "")
        )
        return 0 if args.warn_only else 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
