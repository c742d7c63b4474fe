#!/usr/bin/env python3
"""Regression tests for tools/bench_compare.py.

rows (default): every baseline row counts. A bench record can hold
several rows for one method and dataset, one per data backend and
read-ahead depth. The test copies the committed baseline, makes its
chunked / read-ahead-0 row three times slower, and expects the
comparison to fail (exit 1); the unmodified copy must pass.

counters: a work counter is compared exactly. The test raises one
counter of one row by 1 and expects exit 1, with and without
--warn-only.

Usage: bench_compare_test.py REPO_ROOT [rows|counters]
"""

import json
import os
import subprocess
import sys
import tempfile


def compare(script, baseline, current, *extra):
    return subprocess.run(
        [sys.executable, script, baseline, current, "--min-seconds", "0",
         *extra],
        capture_output=True,
        text=True,
        check=False,
    )


def check_counter_change(script, baseline, record, current):
    bumped = record["entries"][-1]
    if bumped.get("index_probes", 0) <= 0:
        print("FAIL: the baseline's last row carries no index_probes count")
        return 1
    bumped["index_probes"] += 1
    with open(current, "w", encoding="utf-8") as f:
        json.dump(record, f)
    for extra in ((), ("--warn-only",)):
        changed = compare(script, baseline, current, *extra)
        print(changed.stdout, changed.stderr)
        if changed.returncode != 1:
            print(f"FAIL: index_probes + 1 gave exit {changed.returncode}"
                  f" with {list(extra)}")
            return 1
    print("PASS")
    return 0


def main():
    root = sys.argv[1]
    mode = sys.argv[2] if len(sys.argv) > 2 else "rows"
    script = os.path.join(root, "tools", "bench_compare.py")
    baseline = os.path.join(root, "bench", "baselines", "BENCH_baseline.json")
    with open(baseline, encoding="utf-8") as f:
        record = json.load(f)

    with tempfile.TemporaryDirectory() as tmp:
        current = os.path.join(tmp, "current.json")
        with open(current, "w", encoding="utf-8") as f:
            json.dump(record, f)
        same = compare(script, baseline, current)
        if same.returncode != 0:
            print(same.stdout, same.stderr)
            print("FAIL: an identical record reported a regression")
            return 1

        if mode == "counters":
            return check_counter_change(script, baseline, record, current)

        slowed = 0
        for entry in record["entries"]:
            if entry.get("source") == "chunked" and entry.get("read_ahead") == 0:
                entry["seconds"] *= 3
                slowed += 1
        if slowed != 1:
            print(f"FAIL: expected one chunked/read_ahead 0 row, found {slowed}")
            return 1
        with open(current, "w", encoding="utf-8") as f:
            json.dump(record, f)
        slow = compare(script, baseline, current)
        print(slow.stdout, slow.stderr)
        if slow.returncode != 1:
            print(f"FAIL: 3x slower chunked row gave exit {slow.returncode}")
            return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
