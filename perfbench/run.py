#!/usr/bin/env python3
"""Builds the perfbench binaries from source and runs one workload.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. Every run configures (once) and
builds two trees under .bench_build/, the untraced and the traced
configuration (see CMakeLists.txt); after the first run that is an
incremental no-op. The last stdout
line is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports every end-to-end metric of BENCHMARK.json, --trace 1
every per-layer one, including the tracing overhead (for serving it runs
the untraced binary for up to 15 s as well). Each run
appends its full record (metrics, metadata such as nproc and sample
counts) to .bench_out/results.jsonl and, when traced, writes a Chrome
trace to .bench_out/trace-<workload>-<seed>.json. The exit code is 0 only
when every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ["train", "serve-hot", "serve-cold", "serve-reload"]
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 175
# Length of the untraced run a traced serving run compares against.
BASELINE_S = 15


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(kind):
    """Configures (once) and builds one tree; returns the binary's path."""
    tree = os.path.join(BUILD, "perfbench-" + kind)
    log_path = os.path.join(BUILD, "perfbench-" + kind + ".log")
    os.makedirs(tree, exist_ok=True)
    traced = "ON" if kind == "traced" else "OFF"
    steps = []
    if not os.path.exists(os.path.join(tree, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DPERFBENCH_TRACED=" + traced])
    steps.append(["cmake", "--build", tree, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build step failed: " + " ".join(step))
    return os.path.join(tree, "perfbench")


def run_binary(binary, args, deadline):
    """Runs one perfbench process and returns its JSON record."""
    timeout = deadline - time.monotonic()
    if timeout <= 1:
        fail("no time left to run " + " ".join(args))
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(args))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("no output from " + " ".join(args))
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("unparseable output: " + lines[-1][:200])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--inject", default="",
                        help="self-test fault: embed-bit or neighbor-swap")
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be > 0 and --seed >= 0")
    expected = expected_metrics(args.trace)

    # Both trees every time: the first run of a checkout pays for both
    # builds, later ones find them up to date.
    plain = build("plain")
    traced = build("traced")
    deadline = time.monotonic() + RUN_DEADLINE_S

    tag = "%s-%d" % (args.workload, args.seed)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.inject:
        common += ["--inject", args.inject]

    def run_plain(seconds):
        return run_binary(plain, common + [
            "--seconds", repr(seconds),
            "--work-dir", os.path.join(OUT, "work", tag)], deadline)

    if not args.trace:
        record = run_plain(args.seconds)
    else:
        record = run_binary(traced, common + [
            "--seconds", repr(args.seconds),
            "--work-dir", os.path.join(OUT, "work", tag + "-traced"),
            "--trace-out", os.path.join(OUT, "trace-%s.json" % tag)],
            deadline)
        # Tracing overhead: against an untraced op timed in the traced
        # process itself when it has one (interleaved, so host speed drift
        # cancels; train does), else against a short untraced run.
        untraced_p50 = record["meta"].get("untraced_op_p50_ms")
        if untraced_p50 is None:
            base = run_plain(min(args.seconds, BASELINE_S))
            untraced_p50 = base["metrics"].get("op_p50_ms", {}).get("value")
            record["correct"] = record["correct"] and base["correct"]
            record["failures"] = base["failures"] + record["failures"]
            record["meta"]["untraced"] = {"metrics": base["metrics"],
                                          "meta": base["meta"]}
        traced_p50 = record["meta"].get("traced_op_p50_ms")
        if traced_p50 is not None and untraced_p50 is not None:
            record["metrics"]["bench.trace_overhead_ms"] = {
                "value": traced_p50 - untraced_p50, "unit": "ms"}
            record["spans"]["bench.trace_overhead_ms"] = (
                "phase." + args.workload)

    metrics = {}
    for m in expected:
        got = record["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"] or got["value"] is None:
            fail("metric %s missing, unit-less or not finite" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.jsonl"), "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace,
                            "nproc": record["meta"].get("nproc"),
                            "correct": record["correct"],
                            "metrics": record["metrics"],
                            "spans": record.get("spans", {}),
                            "meta": record["meta"],
                            "failures": record["failures"]}) + "\n")
    print("perfbench meta " + json.dumps(record["meta"], sort_keys=True))
    print(json.dumps({"correct": bool(record["correct"]),
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
