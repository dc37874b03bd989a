"""Per-layer metrics computed from the outside tracer's spans.

Span names are ``<module>.<function>``; ``spectra.solve_lowest`` spans are
split by the method of the returned SpectralResult into
``spectra.solve.dense`` and ``spectra.solve.lanczos``.  ``self_s`` is a
span's duration minus the time of its wrapped child spans; ``total_s`` sums
only the outermost span of a name, so recursion is not counted twice.
"""

from __future__ import annotations

import os
from collections import defaultdict

from tracer import Span

# calls one traced desk_e010 bounds made when the benchmark was defined
SELFTEST_OP = "desk_e010/bounds"
SELFTEST_CALLS = {
    "model.assemble_hamiltonian": 142,
    "spectra.solve.dense": 142,
    "model.build_vector_potential": 16,
    "fock.enumerate_basis": 7,
}
IO_WRITERS = ("io.write_json", "io.write_sweep_csv", "io.write_eigenvectors")
COMMANDS = ("model_check", "spectrum", "sweep", "bounds", "sectors")

# (metric name, unit), in the order printed; BENCHMARK.json lists the same names
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("model.assemble_hamiltonian.calls", "count"),
    ("model.assemble_hamiltonian.self_s", "s"),
    ("model.assemble_hamiltonian.total_s", "s"),
    ("model.build_vector_potential.calls", "count"),
    ("model.build_vector_potential.total_s", "s"),
    ("fock.hermitize.calls", "count"),
    ("fock.hermitize.self_s", "s"),
    ("fock.spin_tensor.calls", "count"),
    ("fock.spin_tensor.self_s", "s"),
    ("fock.enumerate_basis.calls", "count"),
    ("fock.enumerate_basis.self_s", "s"),
    ("spectra.solve.dense.calls", "count"),
    ("spectra.solve.dense.self_s", "s"),
    ("spectra.solve.dense.n3_sum", "count"),
    ("spectra.solve.lanczos.calls", "count"),
    ("spectra.solve.lanczos.self_s", "s"),
    ("spectra.solve.lanczos.pairs", "count"),
    ("spectra.solve.dim_max", "count"),
    ("spectra.energy_sweep.calls", "count"),
    ("spectra.energy_sweep.points", "count"),
    ("spectra.energy_sweep.solves", "count"),
    ("spectra.energy_sweep.hit_ratio", "ratio"),
    ("spectra.sweep_energy_curve.total_s", "s"),
    ("bounds.default_energy_curve.calls", "count"),
    ("bounds.default_energy_curve.total_s", "s"),
    ("bounds.coupling_threshold.total_s", "s"),
    ("bounds.coupling_threshold.probes", "count"),
    ("bounds.pull_through_residual.calls", "count"),
    ("bounds.pull_through_residual.self_s", "s"),
    ("bounds.pull_through_residual.total_s", "s"),
    ("bounds.photon_number_integral.calls", "count"),
    ("bounds.photon_number_integral.self_s", "s"),
    ("bounds.spinless_uniqueness_check.total_s", "s"),
    ("quadrature.grid_builds", "count"),
    ("symmetry.total_jz.self_s", "s"),
    ("symmetry.helicity_rotation.calls", "count"),
    ("symmetry.helicity_rotation.self_s", "s"),
    ("symmetry.sector_decompose.self_s", "s"),
    ("symmetry.ground_sector_labels.total_s", "s"),
    ("io.load_config.self_s", "s"),
    ("io.write.calls", "count"),
    ("io.write.self_s", "s"),
    ("io.bytes_written", "B"),
    *((f"cli.cmd_{c}.self_s", "s") for c in COMMANDS),
    *((f"cli.cmd_{c}.total_s", "s") for c in COMMANDS),
    ("proc.cpu_s", "s"),
    ("proc.trace_overhead_s", "s"),
    ("proc.ops_failed_frac", "ratio"),
)


def _solve_info(args, kwargs, result, error) -> dict:
    H = args[0] if args else kwargs["H"]
    info = {"dim": int(H.shape[0])}
    if result is not None:
        info["method"] = result.method
        info["pairs"] = len(result.eigenvalues)
    return info


def _sweep_info(args, kwargs, result, error) -> dict:
    p_values = args[1] if len(args) > 1 else kwargs["p_values"]
    return {"points": len(p_values)}


def _write_info(args, kwargs, result, error) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path) if error is None else 0}


DESCRIBERS = {
    "spectra.solve_lowest": _solve_info,
    "spectra.energy_sweep": _sweep_info,
    **{name: _write_info for name in IO_WRITERS},
}
METHODS = (("quadrature", "PolarGrid", "build"),)


def span_name(span: Span) -> str:
    if span.name == "spectra.solve_lowest":
        return f"spectra.solve.{span.info.get('method', 'failed')}"
    return span.name


def span_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """calls, self_s and total_s per span name."""
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for span in spans:
        s = stats[span_name(span)]
        s["calls"] += 1
        s["self_s"] += span.self_s
        if span.outermost:
            s["total_s"] += span.duration
    return stats


def count_within(spans: list[Span], name: str, ancestor: str) -> int:
    """Spans called ``name`` that have an ancestor span called ``ancestor``."""
    count = 0
    for span in spans:
        if span_name(span) != name:
            continue
        parent = span.parent
        while parent >= 0:
            if span_name(spans[parent]) == ancestor:
                count += 1
                break
            parent = spans[parent].parent
    return count


def per_layer_metrics(spans: list[Span], cpu_s: float,
                      overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric but proc.ops_failed_frac, which the caller adds."""
    stats = span_stats(spans)

    def stat(name: str, key: str) -> float:
        return stats[name][key] if name in stats else 0

    out: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        base, key = name.rsplit(".", 1)
        if key in ("calls", "self_s", "total_s"):
            out[name] = stat(base, key)
    solves = [s for s in spans if s.name == "spectra.solve_lowest"]
    out["spectra.solve.dense.n3_sum"] = sum(
        s.info["dim"] ** 3 for s in solves if s.info.get("method") == "dense")
    out["spectra.solve.lanczos.pairs"] = sum(
        s.info["pairs"] for s in solves if s.info.get("method") == "lanczos")
    out["spectra.solve.dim_max"] = max((s.info["dim"] for s in solves), default=0)
    points = sum(s.info["points"] for s in spans if s.name == "spectra.energy_sweep")
    sweep_solves = sum(1 for s in solves
                       if s.parent >= 0 and spans[s.parent].name == "spectra.energy_sweep")
    out["spectra.energy_sweep.points"] = points
    out["spectra.energy_sweep.solves"] = sweep_solves
    out["spectra.energy_sweep.hit_ratio"] = 1.0 - sweep_solves / points if points else 0.0
    out["bounds.coupling_threshold.probes"] = count_within(
        spans, "model.coupling_bound", "bounds.coupling_threshold")
    out["quadrature.grid_builds"] = sum(
        1 for s in spans if s.name == "quadrature.PolarGrid.build"
        or (s.name == "quadrature.gauss_legendre"
            and not (s.parent >= 0 and spans[s.parent].name == "quadrature.PolarGrid.build")))
    writes = [s for s in spans if s.name in IO_WRITERS]
    out["io.write.calls"] = len(writes)
    out["io.write.self_s"] = sum(s.self_s for s in writes)
    out["io.bytes_written"] = sum(s.info.get("bytes", 0) for s in writes)
    out["proc.cpu_s"] = cpu_s
    out["proc.trace_overhead_s"] = overhead_s
    return {name: out[name] for name, _unit in PER_LAYER if name != "proc.ops_failed_frac"}
