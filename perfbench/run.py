#!/usr/bin/env python3
"""pflab benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 42 --trace 0

Runs the workload's CLI operations through ``pflab.cli.main`` in this
process, as a closed loop from one client, with BLAS pinned to one thread.
Every operation's outputs are checked.  Prints the environment, any failed
operation with its cause, one line per metric with its unit and sample
count, and, as the last line of standard output, a JSON object with the keys
correct, attempted, failed and metrics.

Before any pass, each of the workload's probes (ops known to fail) runs once,
untimed; it counts in attempted and failed.  --trace 0 reports the
end-to-end metrics: it alternates a batch of fresh-interpreter set-ups with a
pass over the workload until the next batch and pass would end after
--seconds (but makes at least the workload's MIN_PASSES), times one more
batch, and reports medians.
--trace 1 runs an untraced, a traced and another untraced pass and reports
the per-layer metrics, with the tracing overhead as the traced pass's wall
time minus the mean of the untraced ones.

Exit status 2: the checkout does not hold the program; 1: the tracer failed.
"""

from __future__ import annotations

import machine  # pins BLAS threads; must load before numpy

import argparse
import json
import resource
import statistics
import sys
import time

import harness
import layers
from tracer import TraceError, Tracer
from workloads import MIN_PASSES, PROBES, WORKLOADS, workload_configs

# reported in the JSON result; the per-command times are printed as well, but
# they are not defined on every workload or too short to be steady there
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
COMMAND_METRICS = {"model-check": "model_check_s", "spectrum": "spectrum_s",
                   "sweep": "sweep_s", "bounds": "bounds_s", "sectors": "sectors_s"}


def print_metric(name: str, value, unit: str, n: int) -> None:
    print(f"metric {name:<42} {value:>14.6g} {unit:<5} n={n}")


def command_times(results) -> dict[str, float]:
    """Charged wall time per command metric, summed over the pass's configs."""
    out = {"wall_s": sum(r.charged for r in results)}
    for r in results:
        name = COMMAND_METRICS[r.op.command]
        out[name] = out.get(name, 0.0) + r.charged
    return out


def nondeterministic_ops(passes) -> list[str]:
    """Ops whose outputs (manifest.json aside) differ between same-seed passes."""
    bad = []
    for op_results in zip(*passes):
        digests = {r.digest for r in op_results if r.ok}
        if len(digests) > 1:
            bad.append(op_results[0].op.name)
    return bad


def end_to_end(runner: harness.Runner, workload: str, seconds: float):
    # set-ups are timed in batches between the passes, so that their median
    # spans the same stretch of machine load as the passes
    configs = workload_configs(workload)
    ops = WORKLOADS[workload]
    harness.time_setup(configs, 1)  # fills the bytecode cache; not counted
    setup, passes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup += harness.time_setup(configs)
        passes.append(runner.run_pass(ops))
        took = time.perf_counter() - t0
        if (len(passes) >= MIN_PASSES[workload]
                and time.perf_counter() - start + took > seconds):
            break
    setup += harness.time_setup(configs)
    per_pass = [command_times(results) for results in passes]
    metrics = {"setup_s": (statistics.median(setup), len(setup))}
    for name in per_pass[0]:
        metrics[name] = (statistics.median(p[name] for p in per_pass), len(per_pass))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (peak, 1)
    return passes, metrics


def traced(runner: harness.Runner, workload: str):
    # the traced pass runs between two untraced ones, so that a slower first
    # (or last) pass does not show up as tracing overhead
    ops = WORKLOADS[workload]
    before = runner.run_pass(ops)
    tracer = Tracer("pflab", methods=layers.METHODS, describers=layers.DESCRIBERS)
    traced_pass = runner.run_pass(ops, tracer)
    after = runner.run_pass(ops)
    wall_untraced = sum(r.elapsed for r in before + after) / 2.0
    wall_traced = sum(r.elapsed for r in traced_pass)
    print(f"trace: untraced wall {wall_untraced:.4f} s (mean of 2), traced wall "
          f"{wall_traced:.4f} s, {len(tracer.spans)} spans")
    values = layers.per_layer_metrics(tracer.spans, sum(r.cpu_s for r in traced_pass),
                                      wall_traced - wall_untraced)
    return [before, traced_pass, after], {name: (value, 1) for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        runner = harness.Runner(args.workload, args.seed)
    except harness.SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    runner.warm_up()
    probes = [runner.run_op(op) for op in PROBES[args.workload]]
    env = machine.describe(args.seed)
    for key, value in env.items():
        print(f"env {key}: {value}")
    print(f"env op_time_limit_s: {harness.OP_TIME_LIMIT_S} (charged to a failed op)")
    print(f"env client: closed loop, 1 client, workload {args.workload}")
    try:
        if args.trace:
            passes, metrics = traced(runner, args.workload)
            units = dict(layers.PER_LAYER)
            reported = [name for name, _ in layers.PER_LAYER]
        else:
            passes, metrics = end_to_end(runner, args.workload, args.seconds)
            units = {**dict(END_TO_END), **{m: "s" for m in COMMAND_METRICS.values()}}
            reported = [name for name, _ in END_TO_END]
    except TraceError as err:
        print(f"perfbench: tracer failed: {err}", file=sys.stderr)
        return 1

    results = probes + [r for p in passes for r in p]
    attempted = len(results)
    failed = sum(not r.ok for r in results)
    check_failed = any(r.check_failed for r in results)
    unstable = nondeterministic_ops(passes)
    for r in probes:
        print(f"probe {r.op.name}: {r.elapsed:.4f} s, untimed, "
              + ("ok" if r.ok else "failed"))
        if not r.ok:
            print(f"FAILED op {r.op.name} (untimed probe): {r.error}")
    for i, pass_results in enumerate(passes, 1):
        print(f"pass {i}: {len(pass_results)} ops, "
              f"{sum(r.elapsed for r in pass_results):.4f} s measured, "
              f"{sum(r.charged for r in pass_results):.4f} s charged")
        for r in pass_results:
            if not r.ok:
                print(f"FAILED op {r.op.name} (pass {i}, charged "
                      f"{r.charged:.1f} s): {r.error}")
    for name in unstable:
        print(f"FAILED op {name}: outputs differ between same-seed passes")
    frac_name = "proc.ops_failed_frac" if args.trace else "ops_failed_frac"
    metrics[frac_name] = (failed / attempted, attempted)
    units[frac_name] = "ratio"
    for name, (value, n) in metrics.items():
        print_metric(name, value, units[name], n)

    result = {
        "correct": not check_failed and not unstable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]}
                    for name in reported},
    }
    detail = {**result, "env": env, "workload": args.workload, "trace": args.trace,
              "all_metrics": {k: {"value": v, "n": n, "unit": units[k]}
                              for k, (v, n) in metrics.items()},
              "probes": [{"op": r.op.name, "elapsed_s": r.elapsed, "error": r.error}
                         for r in probes],
              "passes": [[{"op": r.op.name, "elapsed_s": r.elapsed, "charged_s": r.charged,
                           "error": r.error} for r in pass_results] for pass_results in passes]}
    runner.out.mkdir(parents=True, exist_ok=True)
    (runner.out / f"result-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
