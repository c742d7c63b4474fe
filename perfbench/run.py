#!/usr/bin/env python3
"""The MrCC benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of the repository. It builds the benchmark binary from
source (Release, into $CARGO_TARGET_DIR or .bench_build), runs one workload
and passes the binary's output through; the last line of standard output is
the JSON result. The exit code is non-zero when the build fails, an
operation fails or a correctness gate fires. perfbench/README.md describes
the workloads and the metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TARGET = "mrcc_perfbench"

# A run measures for --seconds plus set-up and checks; far below this.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    return Path(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")))


def build():
    """Configures (once) and builds the benchmark; build output goes to
    stderr so that standard output carries only the benchmark's report."""
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", TARGET, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("build timed out: " + " ".join(cmd), file=sys.stderr)
            return None
        if done.returncode != 0:
            print("build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return out / TARGET


def run(binary, args, data_dir):
    """Runs the benchmark binary; returns (exit code, standard output)."""
    cmd = [str(binary)] + args + ["--data-dir", str(data_dir), "--out-dir", str(HERE / "out")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        return 124, out + "\nTIMEOUT after %d s\n" % RUN_TIMEOUT_S
    return done.returncode, done.stdout


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def self_test(binary):
    """Every workload at a tiny size prints every named metric with its unit,
    and every label gate fires when fed a mismatched label vector."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    data_dir = HERE / "data" / "selftest"
    tiny = ["--seed", "7", "--seconds", "1", "--points", "40000"]
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, out = run(binary, ["--workload", w["name"], "--trace", str(trace)] + tiny, data_dir)
            result = last_json(out)
            name = "%s trace=%d" % (w["name"], trace)
            if code != 0 or result is None or not result["correct"]:
                problems.append("%s: exit %d, result %s" % (name, code, result))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append("%s: metrics %s, want %s" % (name, got, wanted[trace]))
            print("ok   %s prints its %d metrics" % (name, len(got)))
    # Each gate, on a workload and mode where it runs.
    gates = [
        ("repeat", "base14d_1m", 0),
        ("backend", "file14d_1m_mt", 0),
        ("window", "stream14d_window", 0),
        ("composed", "dims30d_90k", 1),
    ]
    for gate, workload, trace in gates:
        args = ["--workload", workload, "--trace", str(trace), "--corrupt-gate", gate] + tiny
        code, out = run(binary, args, data_dir)
        result = last_json(out)
        fired = ("FAILED gate %s failed" % gate) in out
        if code == 0 or result is None or result["correct"] or result["failed"] < 1 or not fired:
            problems.append("gate %s on %s did not fire (exit %d)" % (gate, workload, code))
        else:
            print("ok   gate %s fires on a mismatched label vector (%s)" % (gate, workload))
    for p in problems:
        print("FAIL " + p)
    print("self-test: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)
    code, out = run(
        binary,
        ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        HERE / "data",
    )
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0 or last_json(out) is None:
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
