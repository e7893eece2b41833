#!/usr/bin/env python3
"""Self-tests for the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py

Takes a few minutes (it builds on first use). It checks that:
  1. a short untraced run of every workload passes its correctness checks
     and reports every end-to-end metric of BENCHMARK.json with its unit
     (an open-loop run refused only because its generator lagged the
     schedule, which a busy host causes, still counts as passing);
  2. every metric the benchmark was specified with is declared in
     BENCHMARK.json with its unit;
  3. a short traced run reports every per-layer metric, and the Chrome
     trace it writes holds a span for each of them;
  4. one flipped embedding bit, or two swapped neighbor indices, in a
     sampled response fails the correctness check (non-zero exit,
     "correct": false).
Exits non-zero on the first failed test.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".bench_out", "results.jsonl")
SHORT_S = "2"
# A reload is scheduled every 2 s and must finish 1.5 s before the end.
RELOAD_S = "4"

# The validity check of open-loop runs (not a wrong answer).
LAGGED = "generator fell behind its schedule"

# Every end-to-end and per-layer metric the benchmark was specified with.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MiB", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "throughput_per_s": "1/s",
              "ok_ratio": "ratio"}
PER_LAYER = {
    "data.load_ms": "ms", "data.kfold_ms": "ms", "data.standardize_ms": "ms",
    "crowd.aggregate_ms": "ms", "crowd.confidence_ms": "ms",
    "core.train_ms": "ms", "core.sample_ms": "ms", "nn.forward_ms": "ms",
    "core.loss_ms": "ms", "autograd.backward_ms": "ms", "nn.adam_ms": "ms",
    "common.arena_reset_us": "us", "tensor.gemm_flops": "flop",
    "tensor.gemm_gflops": "GFLOP/s", "common.allocs_per_step": "count",
    "nn.embed_ms": "ms", "classify.fit_ms": "ms", "classify.predict_ms": "ms",
    "core.step_residual_pct": "%", "core.fold_residual_pct": "%",
    "serve.parse_us": "us", "data.standardize_us": "us",
    "serve.cache_probe_us": "us", "serve.cache_hit_ratio": "ratio",
    "serve.batcher.wait_us": "us", "serve.batcher.rows_mean": "rows",
    "serve.batcher.rejected": "count", "nn.embed_batch_us": "us",
    "classify.head_us": "us", "core.index_query_us": "us",
    "core.index_shard_us": "us", "serve.serialize_us": "us",
    "obs.record_us": "us", "serve.handle_us": "us",
    "serve.stage_residual_pct": "%", "serve.event.transport_us": "us",
    "bench.late_p99_ms": "ms", "core.bundle_load_ms": "ms",
    "core.corpus_embed_ms": "ms", "core.index_build_ms": "ms",
    "classify.head_fit_ms": "ms", "serve.event.start_ms": "ms",
    "core.bundle_save_ms": "ms", "serve.reload_ms": "ms",
    "serve.reloads": "count", "serve.reload_failures": "count",
    "bench.trace_overhead_ms": "ms",
}


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)
    print("ok: " + message)


def run(workload, trace, inject=""):
    """Runs run.py; returns (exit code, result line, full record)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds",
           RELOAD_S if workload == "serve-reload" else SHORT_S, "--trace",
           str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    with open(RESULTS) as f:
        record = json.loads(f.read().strip().splitlines()[-1])
    return proc.returncode, result, record


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, unit in END_TO_END.items():
        check(declared_e2e.get(name) == unit,
              "BENCHMARK.json declares %s in %s" % (name, unit))
    for name, unit in PER_LAYER.items():
        check(declared_layer.get(name) == unit,
              "BENCHMARK.json declares %s in %s" % (name, unit))

    for workload in ["train", "serve-hot", "serve-cold", "serve-reload"]:
        code, result, record = run(workload, 0)
        wrong = [f for f in record["failures"] if LAGGED not in f]
        check(result is not None and not wrong,
              "%s passes its correctness checks" % workload)
        check(result["attempted"] >= 1 and result["failed"] == 0,
              "%s has no failed ops" % workload)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == declared_e2e,
              "%s reports every end-to-end metric with its unit" % workload)

    code, result, record = run("serve-hot", 1)
    check(code == 0 and result["correct"], "traced run passes its checks")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == declared_layer,
          "traced run reports every per-layer metric with its unit")
    trace_path = os.path.join(ROOT, ".bench_out", "trace-serve-hot-7.json")
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    span_names = {e["name"].split(":")[0] for e in events}
    for name in declared_layer:
        span = record["spans"].get(name)
        check(span is not None and span in span_names,
              "%s has a span (%s) in the trace" % (name, span))

    for workload, inject, why in [
            ("serve-hot", "embed-bit", "embedding differs"),
            ("serve-cold", "neighbor-swap", "neighbors differ")]:
        code, result, record = run(workload, 0, inject)
        check(code != 0 and result is not None and not result["correct"] and
              any(why in f for f in record["failures"]),
              "%s with %s fails the correctness check" % (workload, inject))
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
