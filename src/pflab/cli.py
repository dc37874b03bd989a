"""Command-line entry point: model checks, spectra, sweeps, bound reports,
and angular-momentum sector analysis, all driven by a JSON config.

Exit status: 0 success, 1 scientific failure (a checked hypothesis held but
the predicted conclusion failed), 2 usage or config error (including a
basis over the dimension cap, a count or a dense solve too large for
physical memory, an input at which H(p, e) overflows, and an ``--out`` that
cannot be created, refused before any solve), 3 numerical failure
(non-convergence, gap too small, indeterminate degeneracy).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .errors import (
    ConfigError,
    DimensionCapError,
    DomainError,
    GapTooSmallError,
    IndeterminateDegeneracy,
    NotAxialError,
    PflabError,
    ResourceError,
    SolverError,
    require_memory,
)
from .io import (
    TOOL_VERSION,
    config_from_dict,
    config_hash,
    jsonable,
    load_config,
    read_config_document,
    write_eigenvectors,
    write_json,
    write_manifest,
    write_sweep_csv,
)
from .model import (
    PHI_HAT_ZERO,
    ModelConfig,
    ModelOperators,
    check_dispersion_axioms,
    coupling_bound,
    form_factor_decay_integrals,
)
from .spectra import (
    DEFAULT_SEED,
    detect_ground_cluster,
    energy_sweep,
    gap_estimate,
    ground_sector_labels,
    model_operators,
    solve_model,
    sweep_energy_curve,
)

EXIT_OK = 0
EXIT_SCIENTIFIC = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _parse_p_grid(spec: str) -> list[tuple[float, float, float]]:
    """Grid spec 'axis=z;from=0;to=0.6;steps=13' -> momenta along that axis."""
    fields = {}
    for part in spec.split(";"):
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"p-grid: malformed field {part!r}")
        key, val = part.split("=", 1)
        fields[key.strip()] = val.strip()
    unknown = set(fields) - {"axis", "from", "to", "steps"}
    if unknown:
        raise ConfigError(f"p-grid: unknown fields {sorted(unknown)}")
    axes = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
    axis = axes.get(fields.get("axis", "z"))
    if axis is None:
        raise ConfigError(f"p-grid: unknown axis {fields['axis']!r}")
    try:
        lo = float(fields["from"])
        hi = float(fields["to"])
        steps = int(fields["steps"])
    except KeyError as err:
        raise ConfigError(f"p-grid: missing field {err}") from err
    except ValueError as err:
        raise ConfigError(f"p-grid: {err}") from err
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"p-grid: from and to must be finite, got {lo} and {hi}")
    if steps < 1:
        raise ConfigError("p-grid: steps must be >= 1")
    # per step: its linspace entry, a list slot, and a tuple of three numpy
    # floats (8 + 8 + 64 + 3 x 32 bytes)
    require_memory(176 * steps, f"p-grid: steps = {steps}", "lower it")
    ts = np.linspace(lo, hi, steps) if steps > 1 else np.array([lo])
    return [tuple(t * np.asarray(axis)) for t in ts]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    # numpy's generators refuse a negative seed, deep inside a solve
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def _pair_count(text: str) -> int:
    # the ground cluster is certified against the next eigenvalue above it
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(
            f"must be >= 2 to certify a ground cluster, got {value}")
    return value


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"--out {args.out}: cannot create the output directory "
                          f"({err.strerror or err})") from err
    return out


def _prologue(args) -> tuple[ModelConfig, ModelOperators, Path]:
    """The config, its operator set and the output directory, before any solve."""
    config = load_config(args.config, force_allow_massless=args.override_massless)
    return config, model_operators(config), _out_dir(args)


def cmd_model_check(args) -> int:
    document = read_config_document(args.config)
    config = config_from_dict(document, force_allow_massless=True)
    out = _out_dir(args) if args.out else None
    axioms = check_dispersion_axioms(config.dispersion, rng_seed=args.seed)
    print(f"config hash: {config_hash(config)}")
    print(f"dispersion gap      : inf omega = {axioms.omega_min:.6g} "
          f"{'ok' if axioms.gap_holds else 'VIOLATED (no photon mass gap)'}")
    if not axioms.gap_holds and not (document.get("allow_massless") or args.override_massless):
        print("  warning: gapless dispersion; pass --override-massless (or set "
              "allow_massless) to build models with it")
    print(f"subadditivity       : worst margin = {axioms.subadditivity_margin:.6g} "
          f"{'ok' if axioms.subadditive else 'VIOLATED'}")
    print(f"rotation invariance : worst deviation = {axioms.isotropy_deviation:.3g} "
          f"{'ok' if axioms.isotropic else 'VIOLATED'}")
    phi0 = config.form_factor.phi_hat(0.0)
    normalized = config.form_factor.normalized
    print(f"form factor         : phi_hat(0) = {phi0!r} "
          + ("ok" if normalized else f"!= (2 pi)^-3/2 = {PHI_HAT_ZERO!r}  NORMALIZATION FAILURE"))
    decay = form_factor_decay_integrals(config)
    finite = all(np.isfinite(v) for v in decay.values())
    print("decay integrals     : " + ", ".join(f"int {k} phi^2 = {v:.6g}"
                                               for k, v in decay.items())
          + ("  ok" if finite else "  DIVERGENT"))
    c0 = coupling_bound(config)
    tag = "ok" if c0 < 1.0 else "warning: relative bound >= 1"
    print(f"coupling diagnostic : c0({config.e}) = {c0:.6g}  {tag}")
    if out is not None:
        report = {
            "omega_min": axioms.omega_min,
            "subadditivity_margin": axioms.subadditivity_margin,
            "isotropy_deviation": axioms.isotropy_deviation,
            "phi_hat_zero": phi0,
            "normalized": normalized,
            "decay_integrals": decay,
            "c0": c0,
        }
        write_json(out / "model_check.json", jsonable(report))
        write_manifest(out / "manifest.json", config, "model-check", ["model_check.json"],
                       args.seed)
    return EXIT_OK if normalized and finite else EXIT_SCIENTIFIC


def cmd_spectrum(args) -> int:
    config, ops, out = _prologue(args)
    basis = ops.basis
    if args.n_eig >= basis.dimension:
        raise ConfigError(
            f"n_eig = {args.n_eig} must be smaller than the basis dimension "
            f"{basis.dimension}; lower n-eig or enlarge the cutoffs"
        )
    result = solve_model(ops, config.p, config.e, args.n_eig, seed=args.seed)
    cluster = detect_ground_cluster(result)
    print(f"dimension   : {basis.dimension}")
    print(f"E(p)        : {result.ground_energy!r}")
    print(f"degeneracy  : {cluster.count}")
    print(f"cluster_width: {cluster.cluster_width!r}")
    print(f"gap_above   : {cluster.gap_above!r}")
    row = {
        "px": config.p[0], "py": config.p[1], "pz": config.p[2],
        "E": result.ground_energy, "degeneracy": cluster.count,
        "cluster_width": cluster.cluster_width, "gap_above": cluster.gap_above,
    }
    write_sweep_csv(out / "spectrum.csv", [row])
    write_json(out / "spectrum.json", jsonable({
        "dimension": basis.dimension,
        "eigenvalues": result.eigenvalues,
        "residual_norms": result.residual_norms,
        "method": result.method,
        "sectors": [dataclasses.asdict(s) for s in result.sectors] or None,
        "degeneracy": cluster.count,
        "cluster_width": cluster.cluster_width,
        "gap_above": cluster.gap_above,
    }))
    outputs = ["spectrum.csv", "spectrum.json"]
    if args.dump_vectors:
        write_eigenvectors(out / "eigenvectors.bin", result.eigenvectors)
        outputs.append("eigenvectors.bin")
    write_manifest(out / "manifest.json", config, "spectrum", outputs, args.seed)
    return EXIT_OK


def cmd_sweep(args) -> int:
    p_values = _parse_p_grid(args.p_grid)
    # per step, gap_estimate's t, k = t u, p - k and |p - k| (8 x 8 bytes)
    require_memory(64 * args.k_steps, f"--k-steps {args.k_steps}", "lower it")
    p_max = max(float(np.linalg.norm(p)) for p in p_values)
    q_max = p_max + args.k_max
    if not math.isfinite(0.5 * q_max * q_max):
        raise ConfigError(f"--k-max {args.k_max} with the p-grid's largest |p| = {p_max:g}: "
                          "the energy curve's reach q has q^2/2 past float64's range; lower it")
    config, ops, out = _prologue(args)
    rows = energy_sweep(ops, p_values, config.e, n_eig=args.n_eig, seed=args.seed)
    curve = sweep_energy_curve(ops, config, q_max=q_max, seed=args.seed)
    table = []
    for row in rows:
        entry = {
            "px": row.p[0], "py": row.p[1], "pz": row.p[2], "E": row.energy,
            "degeneracy": row.count, "cluster_width": row.cluster_width,
            "gap_above": row.gap_above, "note": row.note or None,
        }
        try:
            gap = gap_estimate(config.at(p=row.p), curve, args.k_max, args.k_steps)
            entry["delta"] = gap.delta_p
            entry["argmin_kx"], entry["argmin_ky"], entry["argmin_kz"] = gap.argmin_k
        except (DomainError, GapTooSmallError) as err:
            entry["delta"] = None
            entry["note"] = (entry["note"] or "") + f" gap: {err}"
        table.append(entry)
        print(f"p={row.p}  E={row.energy!r}  degeneracy={row.count}  "
              f"delta={entry.get('delta')!r}")
    write_sweep_csv(out / "sweep.csv", table)
    write_json(out / "sweep.json", jsonable({"rows": table,
                                             "curve_spacing": curve.spacing}))
    write_manifest(out / "manifest.json", config, "sweep", ["sweep.csv", "sweep.json"],
                   args.seed)
    return EXIT_OK


def cmd_bounds(args) -> int:
    config, ops, out = _prologue(args)
    basis = ops.basis
    result = solve_model(ops, config.p, config.e, min(6, basis.dimension - 1), seed=args.seed)
    curve = sweep_energy_curve(ops, config, seed=args.seed)
    if not config.with_spin:
        rep = bounds_mod.spinless_uniqueness_check(config, curve, result)
        print(f"spinless uniqueness : integral = {rep.integral:.6g}, "
              f"e^2 limit = {rep.e_squared_limit:.6g}, hypothesis "
              f"{'holds' if rep.hypothesis_holds else 'fails'}")
        print(f"observed degeneracy : {rep.count}  gap_above = {rep.gap_above!r}")
        write_json(out / "bound_report.json", jsonable({
            "spinless": True, "integral": rep.integral,
            "e_squared_limit": rep.e_squared_limit,
            "hypothesis_holds": rep.hypothesis_holds,
            "degeneracy": rep.count, "gap_above": rep.gap_above,
            "passed": rep.passed,
        }))
        write_manifest(out / "manifest.json", config, "bounds", ["bound_report.json"], args.seed)
        if rep.hypothesis_holds and not rep.passed:
            print("FAIL: uniqueness hypothesis holds but ground state is not unique")
            return EXIT_SCIENTIFIC
        return EXIT_OK

    cluster = detect_ground_cluster(result)
    integral = bounds_mod.photon_number_integral(config, curve)
    nf_check = bounds_mod.photon_number_check(cluster, basis, config, integral)
    overlap = bounds_mod.vacuum_overlap(cluster, basis, config.e, integral)
    upper = bounds_mod.degeneracy_upper_bound(cluster, config, integral)
    residual = float(bounds_mod.pull_through_residual(cluster.basis[:, 0], config,
                                                      cluster.energy, ops, args.seed).max())
    gram = bounds_mod.vacuum_gram(cluster, basis) if cluster.count == 2 else None
    threshold = bounds_mod.coupling_threshold(ops, config, curve,
                                              np.linspace(0.0, args.e_grid_max, 6),
                                              seed=args.seed)

    hypothesis = upper.hypothesis_holds and coupling_bound(config) < 1.0
    print(f"E(p) = {cluster.energy!r}   degeneracy = {cluster.count}   "
          f"gap_above = {cluster.gap_above!r}")
    print(f"photon integral     : Theta(p) = {integral.value:.8g} "
          f"(min denominator {integral.min_denominator:.4g})")
    print(f"number bound        : <N_f> = {nf_check.nf_max:.6g} vs "
          f"e^2 Theta = {nf_check.bound:.6g}  ratio = {nf_check.ratio:.4g}")
    print(f"pull-through        : max residual over modes = {residual:.4g}")
    print(f"vacuum overlap      : min = {overlap.minimum:.10g} >= "
          f"1 - e^2 Theta = {overlap.lower_bound:.10g} : "
          f"{'ok' if overlap.passed else 'VIOLATED'}")
    if gram is not None:
        print(f"vacuum Gram         : a = {gram.a_value:.10g}, "
              f"max |G - a I| = {gram.deviation:.3g}")
    print(f"degeneracy bound    : 2/(1 - e^2 Theta) = {upper.bound_value:.6g} "
          f"(hypothesis |e| < {upper.hypothesis_limit:.4g} "
          f"{'holds' if upper.hypothesis_holds else 'fails'})")
    print(f"coupling threshold  : e0 ~= {threshold.value:.4g} "
          f"(binding: {threshold.binding})")
    print(f"summary             : hypotheses (|e| < e0, gap > 0) "
          f"{'hold' if hypothesis else 'do not both hold'}; "
          f"observed degeneracy {cluster.count}")

    report = {
        "energy": cluster.energy,
        "degeneracy": cluster.count,
        "cluster_width": cluster.cluster_width,
        "gap_above": cluster.gap_above,
        "photon_integral": integral.value,
        "min_denominator": integral.min_denominator,
        "nf_expectation": nf_check.nf_max,
        "nf_bound": nf_check.bound,
        "nf_ratio": nf_check.ratio,
        "pull_through_max_residual": residual,
        "vacuum_overlap_min": overlap.minimum,
        "vacuum_overlap_trace": overlap.trace,
        "vacuum_overlap_lower_bound": overlap.lower_bound,
        "gram": None if gram is None else gram.matrix,
        "a_value": None if gram is None else gram.a_value,
        "gram_deviation": None if gram is None else gram.deviation,
        "upper_bound_value": upper.bound_value,
        "upper_hypothesis_limit": upper.hypothesis_limit,
        "coupling_threshold": threshold.value,
        "threshold_binding": threshold.binding,
        "curve_spacing": curve.spacing,
    }
    write_json(out / "bound_report.json", jsonable(report))
    # a non-finite number reads as on stdout (inf, -inf, nan); the JSON holds null
    summary_lines = [f"{k}: {v if isinstance(v, float) and not math.isfinite(v) else jsonable(v)}"
                     for k, v in report.items()]
    (out / "bound_summary.txt").write_text("\n".join(summary_lines) + "\n")
    write_manifest(out / "manifest.json", config, "bounds",
                   ["bound_report.json", "bound_summary.txt"], args.seed)

    if hypothesis:
        failures = []
        if cluster.count != 2:
            failures.append(f"degeneracy {cluster.count} != 2")
        if gram is not None and (gram.a_value <= 0.0 or gram.deviation > 1e-8):
            failures.append("vacuum Gram is not a positive multiple of the identity")
        if not overlap.passed:
            failures.append("vacuum overlap below 1 - e^2 Theta")
        if failures:
            print("FAIL under hypotheses: " + "; ".join(failures))
            return EXIT_SCIENTIFIC
    return EXIT_OK


def cmd_sectors(args) -> int:
    config, ops, out = _prologue(args)
    # an off-axis momentum is refused before the split is built; the split
    # refuses a scattered mode set and n_max < N_max
    if (config.mode_set.axial and config.n_max >= config.N_max
            and ops.axis_coordinate(config.p) is None):
        raise PflabError(
            f"momentum {config.p} is not collinear with the mode axis "
            f"{config.mode_set.axis}; the axial reduction does not apply"
        )
    split = ops.sectors
    result = solve_model(ops, config.p, config.e, min(6, ops.basis.dimension - 1), seed=args.seed)
    cluster = detect_ground_cluster(result)

    gate = False
    if config.with_spin and config.e != 0.0:
        curve = sweep_energy_curve(ops, config, seed=args.seed)
        integral = bounds_mod.photon_number_integral(config, curve)
        upper = bounds_mod.degeneracy_upper_bound(cluster, config, integral)
        gate = upper.hypothesis_holds and coupling_bound(config) < 1.0
    elif config.with_spin:
        gate = True
    analysis = ground_sector_labels(result, require_half_pair=gate)

    print(f"sector leak         : {split.leak_max:.3g}")
    print("sector       dim   ground energy")
    for z in split.labels:
        print(f"  {z:+.1f}   {analysis.sector_dimensions[z]:7d}   "
              f"{analysis.sector_energies[z]!r}")
    print(f"winning sectors     : {analysis.winners}")
    if not analysis.ok:
        print(f"sector check        : FAILED ({analysis.message})")

    write_json(out / "sector_report.json", jsonable({
        "sector_leak_max": split.leak_max,
        "labels": list(split.labels),
        "dimensions": {str(z): analysis.sector_dimensions[z] for z in split.labels},
        "ground_energies": {str(z): analysis.sector_energies[z] for z in split.labels},
        "winners": list(analysis.winners),
        "hypothesis_gated": gate,
        "ok": analysis.ok,
        "degeneracy": cluster.count,
    }))
    write_manifest(out / "manifest.json", config, "sectors", ["sector_report.json"], args.seed)
    return EXIT_OK if analysis.ok else EXIT_SCIENTIFIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pflab",
        description="Desk-scale laboratory for a fibered Pauli-Fierz Hamiltonian "
                    "on a truncated photon Fock space.",
    )
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, out_required=True):
        sp.add_argument("--config", required=True, help="path to the JSON model config")
        if out_required:
            sp.add_argument("--out", required=True, help="output directory")
        else:
            sp.add_argument("--out", default=None, help="optional output directory")
        sp.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                        help="solver start-vector seed")
        sp.add_argument("--override-massless", action="store_true",
                        help="allow a dispersion without a photon mass gap")

    sp = sub.add_parser("model-check", help="validate dispersion, form factor, coupling")
    common(sp, out_required=False)
    sp.set_defaults(func=cmd_model_check)

    sp = sub.add_parser("spectrum", help="lowest eigenpairs and ground degeneracy")
    common(sp)
    sp.add_argument("--n-eig", type=_pair_count, default=6)
    sp.add_argument("--dump-vectors", action="store_true",
                    help="write eigenvectors.bin (little-endian interleaved doubles)")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("sweep", help="E(p) table with degeneracy and gap columns")
    common(sp)
    sp.add_argument("--p-grid", required=True,
                    help="e.g. 'axis=z;from=0;to=0.6;steps=13'")
    sp.add_argument("--n-eig", type=_pair_count, default=6)
    sp.add_argument("--k-max", type=_positive_float, default=3.0,
                    help="half-width of the gap search grid")
    sp.add_argument("--k-steps", type=_positive_int, default=61)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("bounds", help="pull-through diagnostics and thresholds")
    common(sp)
    sp.add_argument("--e-grid-max", type=_positive_float, default=0.5,
                    help="top of the coupling-threshold search grid")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("sectors", help="angular-momentum sector decomposition")
    common(sp)
    sp.set_defaults(func=cmd_sectors)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DimensionCapError, NotAxialError, ResourceError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverError, GapTooSmallError, IndeterminateDegeneracy, DomainError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PflabError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
