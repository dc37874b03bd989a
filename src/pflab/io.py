"""Config file schema, canonical serialization and hashing, result writers.

The config document is strict JSON: unknown fields are rejected with their
path.  Serialization is canonicalized (sorted keys, shortest round-trip
float repr, modes in enumeration order) before hashing, so equal models
hash equally however their mode set was described.  Timestamps appear only
in the run manifest; every other output file is a pure function of
(config, command arguments, seed).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, require_memory
from .fock import DIMENSION_CAP, Mode, ModeSet, axial_mode_set, explicit_mode_set
from .model import Dispersion, FormFactor, ModelConfig, PHI_HAT_ZERO
from .quadrature import QuadratureSpec

TOOL_VERSION = "0.1.0"
FLOAT_MAX = sys.float_info.max


def _check_fields(obj: dict, path: str, required: dict, optional: dict) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{path}: unknown fields {unknown}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"{path}: missing required fields {missing}")


def _number(obj, path: str) -> float:
    # json reads Infinity, NaN and 1e999, and an integer may lie past float's range
    if isinstance(obj, bool) or not isinstance(obj, (int, float)) or not abs(obj) <= FLOAT_MAX:
        raise ConfigError(f"{path}: expected a finite number, got {obj!r}")
    return float(obj)


def _integer(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{path}: expected an integer")
    return obj


def _count(obj, path: str, least: int) -> int:
    value = _integer(obj, path)
    if value < least:
        raise ConfigError(f"{path}: must be >= {least}, got {value}")
    return value


def _boolean(obj, path: str) -> bool:
    if not isinstance(obj, bool):
        raise ConfigError(f"{path}: expected a boolean")
    return obj


def _vector3(obj, path: str) -> tuple[float, float, float]:
    if not isinstance(obj, (list, tuple)) or len(obj) != 3:
        raise ConfigError(f"{path}: expected a 3-vector")
    return tuple(_number(x, f"{path}[{i}]") for i, x in enumerate(obj))


def _dispersion_from_dict(obj: dict, path: str) -> Dispersion:
    _check_fields(obj, path, {"kind": None}, {"m_ph": None, "samples": None})
    kind = obj["kind"]
    if kind == "massive":
        _check_fields(obj, path, {"kind": None, "m_ph": None}, {})
        return Dispersion(kind="massive", m_ph=_number(obj["m_ph"], f"{path}.m_ph"))
    if kind == "massless":
        _check_fields(obj, path, {"kind": None}, {})
        return Dispersion(kind="massless")
    if kind == "custom":
        _check_fields(obj, path, {"kind": None, "samples": None}, {})
        samples = obj["samples"]
        if not isinstance(samples, list):
            raise ConfigError(f"{path}.samples: expected a list of [|k|, omega] pairs")
        pairs = []
        for i, s in enumerate(samples):
            if not isinstance(s, (list, tuple)) or len(s) != 2:
                raise ConfigError(f"{path}.samples[{i}]: expected a [|k|, omega] pair")
            pairs.append((_number(s[0], f"{path}.samples[{i}][0]"),
                          _number(s[1], f"{path}.samples[{i}][1]")))
        return Dispersion(kind="custom", samples=tuple(pairs))
    raise ConfigError(f"{path}.kind: unknown dispersion kind {kind!r}")


def _form_factor_from_dict(obj: dict, path: str) -> FormFactor:
    _check_fields(obj, path, {"kind": None, "lambda": None}, {"amplitude": None})
    amplitude = _number(obj["amplitude"], f"{path}.amplitude") if "amplitude" in obj \
        else PHI_HAT_ZERO
    return FormFactor(kind=obj["kind"], lam=_number(obj["lambda"], f"{path}.lambda"),
                      amplitude=amplitude)


def _mode_set_from_dict(obj: dict, path: str) -> ModeSet:
    _check_fields(obj, path, {"kind": None},
                  {"axis": None, "shell_edges": None, "points": None, "modes": None,
                   "axial": None})
    kind = obj["kind"]
    if kind == "axial":
        _check_fields(obj, path, {"kind": None, "shell_edges": None}, {"axis": None})
        axis = _vector3(obj.get("axis", [0.0, 0.0, 1.0]), f"{path}.axis")
        edges = obj["shell_edges"]
        if not isinstance(edges, list) or len(edges) < 2:
            raise ConfigError(f"{path}.shell_edges: expected a list of at least two radii")
        return axial_mode_set([_number(x, f"{path}.shell_edges[{i}]")
                               for i, x in enumerate(edges)], axis=axis)
    if kind == "explicit":
        _check_fields(obj, path, {"kind": None, "points": None}, {})
        points = obj["points"]
        if not isinstance(points, list) or not points:
            raise ConfigError(f"{path}.points: expected a nonempty list")
        pairs = []
        for i, pt in enumerate(points):
            _check_fields(pt, f"{path}.points[{i}]", {"k": None, "weight": None}, {})
            pairs.append((_vector3(pt["k"], f"{path}.points[{i}].k"),
                          _number(pt["weight"], f"{path}.points[{i}].weight")))
        return explicit_mode_set(pairs)
    if kind == "modes":
        # canonical re-serialized form: explicit mode list with axial metadata
        _check_fields(obj, path, {"kind": None, "modes": None, "axial": None},
                      {"axis": None})
        if not isinstance(obj["modes"], list) or not obj["modes"]:
            raise ConfigError(f"{path}.modes: expected a nonempty list")
        modes = []
        for i, m in enumerate(obj["modes"]):
            _check_fields(m, f"{path}.modes[{i}]",
                          {"k": None, "weight": None, "polarization": None}, {})
            modes.append(Mode(k=_vector3(m["k"], f"{path}.modes[{i}].k"),
                              weight=_number(m["weight"], f"{path}.modes[{i}].weight"),
                              polarization_index=_integer(m["polarization"],
                                                          f"{path}.modes[{i}].polarization")))
        axial = _boolean(obj["axial"], f"{path}.axial")
        axis = _vector3(obj["axis"], f"{path}.axis") if "axis" in obj else None
        return ModeSet(modes=tuple(modes), axial=axial, axis=axis)
    raise ConfigError(f"{path}.kind: unknown mode set kind {kind!r}")


def config_from_dict(obj: dict, force_allow_massless: bool = False) -> ModelConfig:
    """Strictly validated ModelConfig from a parsed JSON document."""
    _check_fields(
        obj, "config",
        {"dispersion": None, "form_factor": None, "e": None, "p": None,
         "with_spin": None, "mode_set": None, "N_max": None, "n_max": None},
        {"allow_massless": None, "dimension_cap": None, "quadrature": None},
    )
    quad = QuadratureSpec()
    if "quadrature" in obj:
        q = obj["quadrature"]
        _check_fields(q, "config.quadrature", {}, vars(quad))
        try:            # r_max is a number, the other fields integers
            quad = QuadratureSpec(**{name: (_number if name == "r_max" else _integer)(
                value, f"config.quadrature.{name}") for name, value in q.items()})
        except ValueError as err:
            raise ConfigError(f"config.quadrature: {err}") from err
        # the bytes each count allocates at the least: leggauss's n x n companion
        # matrix and LAPACK's copy of it, and per energy-curve point its q, its
        # E and the list entry of E (8 + 8 + 32 bytes)
        for name, need in (("n_radial", 16 * quad.n_radial**2),
                           ("n_angular", 16 * quad.n_angular**2),
                           ("sweep_points", 48 * quad.sweep_points)):
            require_memory(need, f"config.quadrature.{name} = {getattr(quad, name)}",
                           "lower it")
        if not math.isfinite(0.5 * quad.r_max * quad.r_max):
            raise ConfigError(f"config.quadrature.r_max = {quad.r_max}: the energy curve's "
                              "reach q has q^2/2 past float64's range; lower it")
    allow_massless = _boolean(obj.get("allow_massless", False), "config.allow_massless")
    try:
        mode_set = _mode_set_from_dict(obj["mode_set"], "config.mode_set")
    except ValueError as err:
        raise ConfigError(f"config.mode_set: {err}") from err
    return ModelConfig(
        dispersion=_dispersion_from_dict(obj["dispersion"], "config.dispersion"),
        form_factor=_form_factor_from_dict(obj["form_factor"], "config.form_factor"),
        e=_number(obj["e"], "config.e"),
        p=_vector3(obj["p"], "config.p"),
        with_spin=_boolean(obj["with_spin"], "config.with_spin"),
        mode_set=mode_set,
        N_max=_count(obj["N_max"], "config.N_max", 0),
        n_max=_count(obj["n_max"], "config.n_max", 1),
        allow_massless=allow_massless or force_allow_massless,
        dimension_cap=_count(obj.get("dimension_cap", DIMENSION_CAP), "config.dimension_cap", 1),
        quadrature=quad,
    )


def read_config_document(path):
    """The parsed JSON document of a config file, for ``config_from_dict``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: not valid JSON ({err})") from err
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: cannot read the config ({err})") from err


def load_config(path, force_allow_massless: bool = False) -> ModelConfig:
    return config_from_dict(read_config_document(path), force_allow_massless)


def config_to_dict(config: ModelConfig) -> dict:
    """Canonical JSON-ready form; mode sets flatten to their mode list."""
    disp: dict = {"kind": config.dispersion.kind}
    if config.dispersion.kind == "massive":
        disp["m_ph"] = config.dispersion.m_ph
    elif config.dispersion.kind == "custom":
        disp["samples"] = [list(s) for s in config.dispersion.samples]
    ms: dict = {
        "kind": "modes",
        "axial": config.mode_set.axial,
        "modes": [
            {"k": list(m.k), "weight": m.weight, "polarization": m.polarization_index}
            for m in config.mode_set.modes
        ],
    }
    if config.mode_set.axis is not None:
        ms["axis"] = list(config.mode_set.axis)
    out = {
        "dispersion": disp,
        "form_factor": {"kind": config.form_factor.kind,
                        "lambda": config.form_factor.lam,
                        "amplitude": config.form_factor.amplitude},
        "e": config.e,
        "p": list(config.p),
        "with_spin": config.with_spin,
        "mode_set": ms,
        "N_max": config.N_max,
        "n_max": config.n_max,
        "allow_massless": config.allow_massless,
        "dimension_cap": config.dimension_cap,
        "quadrature": {
            "r_max": config.quadrature.r_max,
            "n_radial": config.quadrature.n_radial,
            "n_angular": config.quadrature.n_angular,
            "sweep_points": config.quadrature.sweep_points,
        },
    }
    return out


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(config: ModelConfig) -> str:
    return hashlib.sha256(canonical_json(config_to_dict(config)).encode()).hexdigest()


# -- result files -------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(float(x))           # numpy 2 reprs np.float64 as np.float64(x)
    return str(x)


def write_sweep_csv(path, rows: list[dict]) -> None:
    """Sweep table: px,py,pz,E,degeneracy,cluster_width,gap_above[,delta,...]."""
    columns = ["px", "py", "pz", "E", "degeneracy", "cluster_width", "gap_above"]
    extra = [c for c in ("delta", "argmin_kx", "argmin_ky", "argmin_kz", "note")
             if any(c in r for r in rows)]
    columns += extra
    lines = [",".join(columns)]
    for r in rows:
        lines.append(",".join(_fmt(r.get(c)) for c in columns))
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and complex values for JSON;
    a non-finite float (a divergent integral, a bound) becomes None (null)."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": jsonable(obj.real), "im": jsonable(obj.imag)}
    return obj


EIGENVECTOR_HEADER = struct.Struct("<QQ")


def write_eigenvectors(path, vectors: np.ndarray) -> None:
    """Binary dump: little-endian uint64 (dimension, count) header, then each
    vector as dimension interleaved (real, imag) float64 pairs, that is, the
    columns as little-endian complex128 ('<c16'), bit for bit."""
    vectors = np.asarray(vectors, dtype=complex)
    dim, count = vectors.shape
    with open(path, "wb") as fh:
        fh.write(EIGENVECTOR_HEADER.pack(dim, count))
        fh.write(np.ascontiguousarray(vectors.T, dtype="<c16").tobytes())


def read_eigenvectors(path) -> np.ndarray:
    """The (dimension, count) complex array of ``write_eigenvectors``, bit for bit."""
    raw = Path(path).read_bytes()
    head = EIGENVECTOR_HEADER.size
    if len(raw) < head:
        raise ValueError(f"eigenvector file has {len(raw)} bytes, expected at least the "
                         f"{head} of its header")
    dim, count = EIGENVECTOR_HEADER.unpack_from(raw)
    if len(raw) != head + 16 * dim * count:
        raise ValueError(f"eigenvector file has {len(raw)} bytes, expected "
                         f"{head + 16 * dim * count} for {count} vectors of dimension {dim}")
    return (np.frombuffer(raw, dtype="<c16", offset=head).reshape(count, dim).T
            .astype(complex, order="C"))


def write_manifest(path, config: ModelConfig, command: str, outputs: list[str],
                   seed: Optional[int]) -> None:
    """Write the run's provenance record to ``path``; it is the only output
    that carries a timestamp."""
    write_json(path, {
        "config_hash": config_hash(config),
        "command": command,
        "tool_version": TOOL_VERSION,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": sorted(outputs),
        "seed": seed,
    })
