#!/usr/bin/env python3
"""Self-test of the outside tracer on one traced ``bounds`` of desk_e010.

    python3 perfbench/selftest.py

Checks that installing the tracer leaves no original public function bound
in any pflab module namespace, that uninstalling restores every binding, and
that one traced ``bounds`` on desk_e010 counts exactly the calls the program
made when this benchmark was defined: 142 Hamiltonian assemblies, 142 dense
solves, 16 vector-potential builds and 7 basis enumerations.  A program
change that alters these counts is expected to fail this test; the counts
then need re-deriving, not the tracer.  Exit status 0 on success, 1 on any
failure.

The binding check is what guards against a missed import site: a call to an
unwrapped function is timed into its caller's span, so no sum of span times
can reveal it.  The span self times are checked only as an accounting
sanity check of the tracer's child-time bookkeeping: ``cli.main`` is the
root span of the op, so they must sum to the traced op's wall time, short of
it by no more than the tracing overhead plus SLACK_S for the harness's own
work around the call.
"""

from __future__ import annotations

import machine  # noqa: F401  pins BLAS threads; must load before numpy

import inspect
import sys

import harness
import layers
from tracer import Tracer
from workloads import WORKLOADS

SLACK_S = 1e-3


def public_bindings() -> dict[tuple[str, str], object]:
    """Every public function bound in a pflab module namespace."""
    return {(name, attr): obj for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "pflab" or name.startswith("pflab."))
            for attr, obj in vars(mod).items()
            if inspect.isfunction(obj) and not attr.startswith("_")
            and obj.__module__.startswith("pflab")}


def main() -> int:
    runner = harness.Runner("selftest", 7)
    runner.warm_up()
    op = next(op for op in WORKLOADS["desk"] if op.name == layers.SELFTEST_OP)
    failures = []

    before = public_bindings()
    tracer = Tracer("pflab", methods=layers.METHODS, describers=layers.DESCRIBERS)
    with tracer:
        stale = [f"{mod}.{attr}" for (mod, attr), obj in public_bindings().items()
                 if not hasattr(obj, "__wrapped_original__")]
    if stale:
        failures.append("originals still bound while traced: " + ", ".join(stale))
    if public_bindings() != before:
        failures.append("uninstall did not restore every binding")

    untraced = runner.run_op(op)
    traced = runner.run_op(op, tracer)
    for result in (untraced, traced):
        if not result.ok:
            failures.append(f"{op.name} failed: {result.error}")
    counts = layers.span_stats(tracer.spans)
    for name, want in layers.SELFTEST_CALLS.items():
        got = int(counts[name]["calls"]) if name in counts else 0
        print(f"{name:<32} calls {got:5d} (expected {want})")
        if got != want:
            failures.append(f"{name}: {got} calls, expected {want}")
    overhead = traced.elapsed - untraced.elapsed
    self_sum = sum(s.self_s for s in tracer.spans)
    print(f"traced wall {traced.elapsed:.4f} s, untraced {untraced.elapsed:.4f} s, "
          f"span self times sum {self_sum:.4f} s")
    if not 0.0 <= traced.elapsed - self_sum <= max(overhead, 0.0) + SLACK_S:
        failures.append(f"span self times sum to {self_sum:.6f} s but the traced op "
                        f"took {traced.elapsed:.6f} s (overhead {overhead:.6f} s)")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
