import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from pflab import bounds, cli, model, spectra
from pflab.cli import main
from pflab.io import load_config, read_eigenvectors, write_eigenvectors
from pflab.model import ModelOperators

from oracles import dense_sector_energies

CONFIG_DIR = Path(__file__).parent.parent / "configs"
SRC_DIR = Path(__file__).parent.parent / "src"
GOLDEN_DIR = Path(__file__).parent / "data" / "golden_spectrum"


def run(*argv):
    return main([str(a) for a in argv])


def write_config(tmp_path, name="cfg.json", **overrides):
    base = json.loads((CONFIG_DIR / "desk_e010.json").read_text())
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


def fast_quadrature():
    return {"r_max": 6.0, "n_radial": 32, "n_angular": 16, "sweep_points": 9}


# -- model-check -----------------------------------------------------------------


def test_model_check_passes(capsys):
    assert run("model-check", "--config", CONFIG_DIR / "desk_e010.json") == 0
    out = capsys.readouterr().out
    assert "ok" in out and "c0(" in out


def test_model_check_rejects_scaled_form_factor(tmp_path, capsys):
    cfg = write_config(tmp_path, form_factor={
        "kind": "gaussian", "lambda": 1.0, "amplitude": 0.126987271868})
    assert run("model-check", "--config", cfg) == 1
    assert "NORMALIZATION FAILURE" in capsys.readouterr().out


def test_model_check_massless_warns_without_override(tmp_path, capsys):
    cfg = write_config(tmp_path, dispersion={"kind": "massless"})
    assert run("model-check", "--config", cfg) == 0
    out = capsys.readouterr().out
    assert "VIOLATED" in out and "override" in out


def test_model_check_malformed_config(tmp_path, capsys):
    cfg = write_config(tmp_path, not_a_field=3)
    assert run("model-check", "--config", cfg) == 2
    assert "unknown fields" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["model-check", "spectrum"])
@pytest.mark.parametrize("text, message", [("{\"e\": 0.1,", "not valid JSON"),
                                           ("[1, 2]", "config: expected an object")],
                         ids=["invalid_json", "not_an_object"])
def test_unreadable_config_document_exits_usage(tmp_path, capsys, command, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run(command, "--config", cfg, "--out", tmp_path / "o") == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["model-check", "spectrum"])
@pytest.mark.parametrize("case", ["directory", "utf16_bytes"])
def test_config_that_cannot_be_read_exits_usage(tmp_path, capsys, command, case):
    cfg = tmp_path / "cfg.json"
    if case == "directory":
        cfg.mkdir()
    else:
        cfg.write_bytes(b"\xff\xfe{\x00}\x00")
    assert run(command, "--config", cfg, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{cfg}: cannot read the config" in err


# -- spectrum ---------------------------------------------------------------------


def test_spectrum_free_theory(tmp_path, capsys):
    assert run("spectrum", "--config", CONFIG_DIR / "desk_e000.json",
               "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "degeneracy  : 2" in out
    data = json.loads((tmp_path / "spectrum.json").read_text())
    assert data["eigenvalues"][0] == pytest.approx(0.08, abs=1e-12)
    assert data["degeneracy"] == 2


def test_spectrum_matches_golden_file(tmp_path):
    assert run("spectrum", "--config", CONFIG_DIR / "desk_e010.json",
               "--out", tmp_path) == 0
    got = json.loads((tmp_path / "spectrum.json").read_text())
    want = json.loads((GOLDEN_DIR / "spectrum.json").read_text())
    assert got["degeneracy"] == want["degeneracy"]
    assert np.allclose(got["eigenvalues"], want["eigenvalues"], atol=1e-10)
    got_csv = (tmp_path / "spectrum.csv").read_text().splitlines()
    want_csv = (GOLDEN_DIR / "spectrum.csv").read_text().splitlines()
    assert got_csv[0] == want_csv[0]
    got_row = [float(x) for x in got_csv[1].split(",")]
    want_row = [float(x) for x in want_csv[1].split(",")]
    assert np.allclose(got_row, want_row, atol=1e-10)


def test_spectrum_rejects_oversized_n_eig(tmp_path, capsys):
    assert run("spectrum", "--config", CONFIG_DIR / "desk_e010.json",
               "--out", tmp_path, "--n-eig", 100000) == 2
    assert "dimension" in capsys.readouterr().err


def test_basis_over_the_dimension_cap_exits_usage(tmp_path, capsys):
    cfg = write_config(tmp_path, dimension_cap=100)
    assert run("spectrum", "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err.startswith("error: basis dimension 306 exceeds the cap 100 ")


def test_huge_cutoffs_are_refused_within_seconds(tmp_path):
    # the cap counts the basis in time linear in N_max and n_max; a sum of
    # n_max + 1 counts per (mode, total) grows quadratically and would take
    # hours at these cutoffs
    cfg = write_config(tmp_path, N_max=10**5, n_max=10**5)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC_DIR),
                                                                   os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "pflab.cli", "spectrum", "--config", str(cfg),
                           "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert "exceeds the cap 500000 (16 modes, N_max=100000, n_max=100000)" in proc.stderr


def test_spectrum_massless_requires_override(tmp_path, capsys):
    cfg = write_config(tmp_path, dispersion={"kind": "massless"})
    assert run("spectrum", "--config", cfg, "--out", tmp_path / "o") == 2
    assert run("spectrum", "--config", cfg, "--out", tmp_path / "o",
               "--override-massless") == 0


def test_eigenvector_dump_roundtrip(tmp_path):
    assert run("spectrum", "--config", CONFIG_DIR / "desk_e010.json",
               "--out", tmp_path, "--dump-vectors") == 0
    vecs = read_eigenvectors(tmp_path / "eigenvectors.bin")
    data = json.loads((tmp_path / "spectrum.json").read_text())
    assert vecs.shape == (data["dimension"], len(data["eigenvalues"]))
    gram = vecs.conj().T @ vecs
    assert np.max(np.abs(gram - np.eye(vecs.shape[1]))) < 1e-10


def test_eigenvector_format_is_little_endian_interleaved(tmp_path):
    v = np.array([[1.0 + 2.0j], [3.0 - 4.0j]])
    write_eigenvectors(tmp_path / "v.bin", v)
    raw = (tmp_path / "v.bin").read_bytes()
    assert raw[:16] == (2).to_bytes(8, "little") + (1).to_bytes(8, "little")
    assert np.frombuffer(raw[16:], dtype="<f8").tolist() == [1.0, 2.0, 3.0, -4.0]


def test_eigenvector_files_round_trip_bit_for_bit(tmp_path):
    v = np.array([[complex(-0.0, 1.0), complex(2.0, math.inf)],
                  [complex(math.nan, -0.0), complex(-math.inf, math.nan)],
                  [complex(0.5, -math.inf), complex(-0.0, -0.0)]])
    write_eigenvectors(tmp_path / "v.bin", v)
    raw = (tmp_path / "v.bin").read_bytes()
    columns = [np.column_stack([v[:, i].real, v[:, i].imag]).ravel() for i in range(2)]
    assert raw[16:] == np.concatenate(columns).astype("<f8").tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_eigenvectors(tmp_path / "v.bin")
    assert back.shape == v.shape and back.dtype == np.complex128
    assert back.tobytes() == v.tobytes()


@pytest.mark.parametrize("size", [7, 16 + 16 * 5, 16 + 16 * 7],
                         ids=["short-header", "short-body", "long-body"])
def test_eigenvector_file_of_the_wrong_size_is_refused(tmp_path, size):
    # a header for two vectors of dimension 3 (16 + 96 bytes), cut or padded
    write_eigenvectors(tmp_path / "v.bin", np.ones((3, 2)))
    raw = (tmp_path / "v.bin").read_bytes()
    (tmp_path / "v.bin").write_bytes((raw + bytes(16))[:size])
    expected = 16 if size < 16 else 16 + 96
    with pytest.raises(ValueError, match=rf"{size} bytes, expected .*{expected}"):
        read_eigenvectors(tmp_path / "v.bin")


# -- sweep ------------------------------------------------------------------------


def test_sweep_free_theory_gap_is_photon_mass(tmp_path, capsys):
    assert run("sweep", "--config", CONFIG_DIR / "desk_e000.json",
               "--out", tmp_path, "--p-grid", "axis=z;from=-0.4;to=0.4;steps=5") == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("px,py,pz,E,degeneracy,cluster_width,gap_above,delta")
    rows = [line.split(",") for line in lines[1:]]

    def row_at(z):
        return min(rows, key=lambda r: abs(float(r[2]) - z))

    assert float(row_at(0.0)[7]) == pytest.approx(1.0, abs=1e-12)
    for z in (0.2, 0.4):
        assert float(row_at(z)[3]) == pytest.approx(float(row_at(-z)[3]), abs=1e-12)
        assert float(row_at(z)[3]) == pytest.approx(0.5 * z * z, abs=5e-12)
        assert float(row_at(z)[7]) > 0.0


def test_sweep_bad_grid_spec(tmp_path, capsys):
    assert run("sweep", "--config", CONFIG_DIR / "desk_e000.json",
               "--out", tmp_path, "--p-grid", "axis=w;from=0;to=1;steps=3") == 2


def test_sweep_csv_cells_are_numbers(tmp_path):
    # the argmin_k columns once held numpy reprs such as np.float64(0.0)
    assert run("sweep", "--config", CONFIG_DIR / "desk_e010.json", "--out", tmp_path,
               "--p-grid", "axis=z;from=-0.2;to=0.2;steps=3") == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert "argmin_kz" in header
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        for column, cell in cells.items():
            if column != "note" and cell:
                float(cell)


def test_sweep_at_one_blas_thread(tmp_path):
    # a full dense eigh failed to converge at q = 0.29167 of this sweep's
    # energy curve when OpenBLAS ran on one thread
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC_DIR),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pflab.cli", "sweep",
         "--config", str(CONFIG_DIR / "desk_e010.json"), "--out", str(tmp_path),
         "--p-grid", "axis=z;from=-0.5;to=0.5;steps=11"],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 12


def test_davidson_at_its_iteration_cap_exits_numerical(tmp_path, monkeypatch, capsys):
    # the N_max = 3 rung, its sector blocks all sent to Davidson and cut off
    # after one iteration
    cfg = write_config(tmp_path, N_max=3, n_max=3)
    monkeypatch.setattr(spectra, "choose_method", lambda dim: "davidson")
    monkeypatch.setattr(spectra, "MAX_ITERATIONS", 1)
    assert run("spectrum", "--config", cfg, "--out", tmp_path / "o") == 3
    assert "Davidson did not converge 2 pairs within 1 iterations" in capsys.readouterr().err
    assert not (tmp_path / "o" / "spectrum.json").exists()


def test_lapack_failure_exits_numerical(tmp_path, monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(spectra.sla, "eigh", no_convergence)
    assert run("spectrum", "--config", CONFIG_DIR / "desk_e010.json",
               "--out", tmp_path) == 3
    assert "did not converge" in capsys.readouterr().err


def test_spectrum_records_sector_solves(tmp_path):
    assert run("spectrum", "--config", CONFIG_DIR / "desk_e010.json",
               "--out", tmp_path) == 0
    data = json.loads((tmp_path / "spectrum.json").read_text())
    assert data["method"] == "sectors"
    assert [s["label"] for s in data["sectors"]] == [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]
    assert sum(s["dimension"] for s in data["sectors"]) == data["dimension"]
    assert all(s["pairs"] >= 2 and s["method"] == "dense" for s in data["sectors"])


def test_oversize_dense_solve_exits_usage(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(os, "sysconf", lambda name: 1)   # one byte
    assert run("spectrum", "--config", CONFIG_DIR / "desk_e010.json",
               "--out", tmp_path) == 2
    assert "GiB" in capsys.readouterr().err


# -- bounds -----------------------------------------------------------------------


def test_bounds_zero_coupling(tmp_path, capsys):
    cfg = write_config(tmp_path, e=0.0, quadrature=fast_quadrature())
    assert run("bounds", "--config", cfg, "--out", tmp_path / "o") == 0
    report = json.loads((tmp_path / "o" / "bound_report.json").read_text())
    assert report["degeneracy"] == 2
    assert report["a_value"] == pytest.approx(1.0, abs=1e-12)
    assert report["nf_expectation"] == pytest.approx(0.0, abs=1e-18)
    assert (tmp_path / "o" / "bound_summary.txt").exists()


def test_bounds_desk_report(tmp_path, capsys):
    cfg = write_config(tmp_path, quadrature=fast_quadrature())
    assert run("bounds", "--config", cfg, "--out", tmp_path / "o") == 0
    report = json.loads((tmp_path / "o" / "bound_report.json").read_text())
    assert report["degeneracy"] == 2
    assert 0.0 < report["nf_ratio"] < 1.0
    assert report["a_value"] >= report["vacuum_overlap_lower_bound"]
    assert report["gram_deviation"] < 1e-8
    assert report["coupling_threshold"] > 0.1
    out = capsys.readouterr().out
    assert "hypotheses" in out and "degeneracy 2" in out


def test_bounds_spinless_path(tmp_path, capsys):
    cfg = write_config(tmp_path, with_spin=False, e=0.2,
                       quadrature=fast_quadrature())
    assert run("bounds", "--config", cfg, "--out", tmp_path / "o") == 0
    report = json.loads((tmp_path / "o" / "bound_report.json").read_text())
    assert report["spinless"] is True
    assert report["degeneracy"] == 1
    assert report["gap_above"] > 0.0


def test_bounds_spinless_solves_the_spectrum_and_the_curve_once(tmp_path, monkeypatch):
    # the uniqueness check reads the command's one ground spectrum and one curve
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("solve_model", "sweep_energy_curve"):
        wrapper = counted(name, getattr(spectra, name))
        for module in (cli, bounds, spectra):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    assert run("bounds", "--config", CONFIG_DIR / "desk_spinless_e020.json",
               "--out", tmp_path) == 0
    assert sorted(calls) == ["solve_model", "sweep_energy_curve"]


def test_bounds_unconverged_pull_through_exits_numerical(tmp_path, monkeypatch, capsys):
    def no_convergence(A, b, **kwargs):
        return np.zeros_like(b), 7

    monkeypatch.setattr(bounds.spla, "cg", no_convergence)
    cfg = write_config(tmp_path, quadrature=fast_quadrature())
    assert run("bounds", "--config", cfg, "--out", tmp_path / "o") == 3
    assert "CG did not converge for mode 0 at k-point 0" in capsys.readouterr().err
    assert not (tmp_path / "o" / "bound_report.json").exists()


@pytest.mark.parametrize("name", ["desk_e010.json", "desk_spinless_e020.json"])
def test_bounds_solves_take_the_policy_method(tmp_path, monkeypatch, name):
    # the cluster, the energy curve, every coupling-threshold probe, the
    # pull-through gap solves and the spinless check: a diagonal block is
    # read off its diagonal, an exhausted one solved dense, any other goes
    # where choose_method sends it
    taken = []
    solve_lowest = spectra.solve_lowest

    def recorded(H, n_eig, **kwargs):
        result = solve_lowest(H, n_eig, **kwargs)
        dim = H.shape[0]
        if n_eig == dim:
            policy = "dense"
        elif sp.triu(H, 1).count_nonzero() + sp.tril(H, -1).count_nonzero() == 0:
            policy = "diagonal"
        else:
            policy = spectra.choose_method(dim)
        taken.append((result.method, policy))
        return result

    monkeypatch.setattr(spectra, "solve_lowest", recorded)
    assert run("bounds", "--config", CONFIG_DIR / name, "--out", tmp_path / "o") == 0
    assert len(taken) > 25
    assert all(method == policy for method, policy in taken)


@pytest.mark.parametrize("command", [("model-check",), ("spectrum",),
                                     ("sweep", "--p-grid", "axis=z;from=0;to=0.2;steps=2"),
                                     ("bounds",), ("sectors",)], ids=lambda c: c[0])
def test_dense_flag_is_refused(tmp_path, capsys, command):
    # the solver policy is the only chooser of a model solve
    assert exit_status(command[0], "--config", CONFIG_DIR / "desk_e010.json",
                       "--out", tmp_path, *command[1:], "--dense") == 2
    assert "unrecognized arguments: --dense" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bounds", "sectors"])
def test_command_builds_one_operator_set(tmp_path, monkeypatch, command):
    # the cluster, the energy curve, the pull-through residuals, every
    # coupling-threshold probe and the sector analysis share one operator
    # set and one sector split
    built, rotated = [], []
    init = ModelOperators.__init__
    rotation = model.helicity_rotation

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counted_rotation(*args, **kwargs):
        rotated.append(1)
        return rotation(*args, **kwargs)

    monkeypatch.setattr(ModelOperators, "__init__", counted_init)
    monkeypatch.setattr(model, "helicity_rotation", counted_rotation)
    cfg = write_config(tmp_path, quadrature=fast_quadrature(),
                       mode_set={"kind": "axial", "shell_edges": [0.0, 1.7, 3.4]})
    assert run(command, "--config", cfg, "--out", tmp_path / "o") == 0
    assert (len(built), len(rotated)) == (1, 1)


# -- invalid input ----------------------------------------------------------------


def exit_status(*argv):
    try:
        return run(*argv)
    except SystemExit as err:       # argparse rejects bad arguments with exit 2
        return err.code


SPECTRUM = ("spectrum",)
INVALID_INPUTS = {
    "n_radial": ({"quadrature": {"n_radial": 1}}, SPECTRUM, "config.quadrature: n_radial"),
    "N_max": ({"N_max": -1}, SPECTRUM, "config.N_max"),
    "n_max": ({"n_max": 0}, SPECTRUM, "config.n_max"),
    "dimension_cap": ({"dimension_cap": -5}, SPECTRUM, "config.dimension_cap: must be >= 1"),
    "shell_edges": ({"mode_set": {"kind": "axial", "shell_edges": [0.0, 1.2, 1.2]}}, SPECTRUM,
                    "config.mode_set: shell_edges"),
    "duplicate_point": ({"mode_set": {"kind": "explicit", "points": [
        {"k": [0.0, 0.0, 1.0], "weight": 0.5}, {"k": [0.0, 0.0, 1.0], "weight": 0.5}]}},
        SPECTRUM, "config.mode_set: duplicate mode"),
    "modes_not_a_list": ({"mode_set": {"kind": "modes", "modes": 5, "axial": False}}, SPECTRUM,
                         "config.mode_set.modes: expected a nonempty list"),
    "negative_weight": ({"mode_set": {"kind": "explicit", "points": [
        {"k": [0.0, 0.0, 1.0], "weight": -0.5}]}}, SPECTRUM, "config.mode_set: mode weight"),
    "n_eig": ({}, ("spectrum", "--n-eig", "0"), "argument --n-eig: must be >= 2"),
    "k_steps": ({}, ("sweep", "--p-grid", "axis=z;from=0;to=0.2;steps=2", "--k-steps", "0"),
                "argument --k-steps: must be >= 1"),
    "p_grid_from": ({}, ("sweep", "--p-grid", "axis=z;from=nan;to=0.2;steps=2"),
                    "p-grid: from and to must be finite"),
    "p_grid_to": ({}, ("sweep", "--p-grid", "axis=z;from=0;to=inf;steps=2"),
                  "p-grid: from and to must be finite"),
    "p_grid_axis": ({}, ("sweep", "--p-grid", "axis=w;from=0;to=0.2;steps=2"),
                    "p-grid: unknown axis 'w'"),
    "k_max_nan": ({}, ("sweep", "--p-grid", "axis=z;from=0;to=0.2;steps=2", "--k-max", "nan"),
                  "argument --k-max: must be finite and > 0"),
    "k_max_negative": ({}, ("sweep", "--p-grid", "axis=z;from=0;to=0.2;steps=2",
                            "--k-max", "-1"), "argument --k-max: must be finite and > 0"),
    "e_grid_max_nan": ({}, ("bounds", "--e-grid-max", "nan"),
                       "argument --e-grid-max: must be finite and > 0"),
    "e_grid_max_zero": ({}, ("bounds", "--e-grid-max", "0"),
                        "argument --e-grid-max: must be finite and > 0"),
    "seed_spectrum": ({}, ("spectrum", "--seed", "-1"), "argument --seed: must be >= 0"),
    "seed_model_check": ({}, ("model-check", "--seed", "-1"), "argument --seed: must be >= 0"),
}


@pytest.mark.parametrize("overrides, command, message", INVALID_INPUTS.values(),
                         ids=INVALID_INPUTS.keys())
def test_invalid_input_exits_usage(tmp_path, capsys, overrides, command, message):
    # each is refused at load or argument parsing, naming the field
    cfg = write_config(tmp_path, **overrides)
    assert exit_status(command[0], "--config", cfg, "--out", tmp_path / "o",
                       *command[1:]) == 2
    assert message in capsys.readouterr().err


SWEEP = ("sweep", "--p-grid", "axis=z;from=0;to=0.2;steps=2")
# finite inputs at which H(p, e) has an entry past float64's range: on the
# axis and off it, at the momentum or coupling named in the refusal; the
# energy curve's reach (k_max, r_max) is refused where it is set, before any
# operator is built
OVERFLOWS = {
    "p": ({"p": [0.0, 0.0, 1e200]}, SPECTRUM,
          "H(p, e) overflows float64 at p = [1e+200], e = 0.1"),
    "e": ({"e": 1e200}, ("bounds",), "H(p, e) overflows float64 at p = [0.4], e = 1e+200"),
    "k_max": ({}, (*SWEEP, "--k-max", "1e300"), "--k-max 1e+300 with the p-grid's largest"),
    "r_max": ({"quadrature": {**fast_quadrature(), "r_max": 1e300}}, ("bounds",),
              "config.quadrature.r_max = 1e+300: the energy curve's reach"),
    "p_off_axis": ({"p": [1e200, 0.0, 0.0]}, SPECTRUM,
                   "H(p, e) overflows float64 at p = [1e+200, 0.0, 0.0], e = 0.1"),
}
REACH = ("k_max", "r_max")


@pytest.mark.parametrize("name", OVERFLOWS)
def test_overflowing_input_exits_usage(tmp_path, monkeypatch, capsys, name):
    overrides, command, message = OVERFLOWS[name]
    if name in REACH:
        def no_build(*args, **kwargs):
            raise AssertionError("operators built before the refusal")

        monkeypatch.setattr(spectra, "build_operators", no_build)
    cfg = write_config(tmp_path, **overrides)
    assert exit_status(command[0], "--config", cfg, "--out", tmp_path / "o",
                       *command[1:]) == 2
    assert message in capsys.readouterr().err


# counts whose arrays would not fit in physical memory; numpy refuses 10**12
# outright, so a regression shows as a MemoryError, not as a full machine
HUGE = 10**12
OVERSIZE_COUNTS = {
    "p_grid_steps": ({}, ("sweep", "--p-grid", f"axis=z;from=0;to=1;steps={HUGE}"),
                     f"p-grid: steps = {HUGE}"),
    "k_steps": ({}, (*SWEEP, "--k-steps", str(HUGE)), f"--k-steps {HUGE}"),
    "n_radial": ({"quadrature": {"n_radial": HUGE}}, SPECTRUM,
                 f"config.quadrature.n_radial = {HUGE}"),
    "n_angular": ({"quadrature": {"n_angular": HUGE}}, SPECTRUM,
                  f"config.quadrature.n_angular = {HUGE}"),
    "sweep_points": ({"quadrature": {"sweep_points": HUGE}}, SPECTRUM,
                     f"config.quadrature.sweep_points = {HUGE}"),
}


@pytest.mark.parametrize("overrides, command, message", OVERSIZE_COUNTS.values(),
                         ids=OVERSIZE_COUNTS.keys())
def test_oversize_count_exits_usage_before_any_solve(tmp_path, monkeypatch, capsys, overrides,
                                                     command, message):
    def no_build(*args, **kwargs):
        raise AssertionError("operators built before the refusal")

    monkeypatch.setattr(spectra, "build_operators", no_build)
    cfg = write_config(tmp_path, **overrides)
    assert exit_status(command[0], "--config", cfg, "--out", tmp_path / "o",
                       *command[1:]) == 2
    err = capsys.readouterr().err
    assert message in err and "physical memory" in err
    assert not (tmp_path / "o").exists()


# json reads Infinity and NaN (and json.dumps writes them); no number of a
# model may be either
INF, NAN = float("inf"), float("nan")
NON_FINITE = {
    "m_ph": ({"dispersion": {"kind": "massive", "m_ph": INF}}, "config.dispersion.m_ph"),
    "lambda": ({"form_factor": {"kind": "gaussian", "lambda": INF}},
               "config.form_factor.lambda"),
    "amplitude": ({"form_factor": {"kind": "gaussian", "lambda": 1.0, "amplitude": NAN}},
                  "config.form_factor.amplitude"),
    "weight": ({"mode_set": {"kind": "explicit", "points": [
        {"k": [0.0, 0.0, 1.0], "weight": INF}]}}, "config.mode_set.points[0].weight"),
    "sample": ({"dispersion": {"kind": "custom", "samples": [[0.0, 1.0], [INF, 2.0]]}},
               "config.dispersion.samples[1][0]"),
    "r_max": ({"quadrature": {"r_max": INF}}, "config.quadrature.r_max"),
}


@pytest.mark.parametrize("command", ["model-check", "spectrum"])
@pytest.mark.parametrize("overrides, path", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_number_exits_usage(tmp_path, capsys, command, overrides, path):
    cfg = write_config(tmp_path, **overrides)
    assert exit_status(command, "--config", cfg, "--out", tmp_path / "o") == 2
    assert f"{path}: expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_model_check_writes_a_divergent_integral_as_null(tmp_path, capsys):
    # omega = 0 on [0, 1]: int omega^-2 phi^2 and c0 are infinite, which is a
    # scientific failure, written out; phi_hat(0) is still normalized
    cfg = write_config(tmp_path, dispersion={
        "kind": "custom", "samples": [[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [8.0, 7.0]]})
    assert run("model-check", "--config", cfg, "--out", tmp_path / "o") == 1
    assert "DIVERGENT" in capsys.readouterr().out
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["manifest.json",
                                                                  "model_check.json"]
    report = json.loads((tmp_path / "o" / "model_check.json").read_text())
    assert report["c0"] is None and report["decay_integrals"]["omega^-2"] is None
    assert report["decay_integrals"]["omega"] > 0.0 and report["normalized"] is True


def test_bounds_writes_an_unbounded_degeneracy_bound_as_null(tmp_path, capsys):
    # at e = 12, e^2 Theta > 1: the bound 2/(1 - e^2 Theta) is +inf
    cfg = write_config(tmp_path, e=12.0, quadrature=fast_quadrature())
    assert run("bounds", "--config", cfg, "--out", tmp_path / "o") == 0
    assert "2/(1 - e^2 Theta) = inf" in capsys.readouterr().out
    report = json.loads((tmp_path / "o" / "bound_report.json").read_text())
    assert report["upper_bound_value"] is None and report["degeneracy"] == 2
    assert (tmp_path / "o" / "manifest.json").exists()


def test_bound_summary_writes_an_unbounded_bound_as_stdout_does(tmp_path, capsys):
    cfg = write_config(tmp_path, e=12.0, quadrature=fast_quadrature())
    assert run("bounds", "--config", cfg, "--out", tmp_path / "o") == 0
    assert "2/(1 - e^2 Theta) = inf" in capsys.readouterr().out
    summary = (tmp_path / "o" / "bound_summary.txt").read_text().splitlines()
    assert "upper_bound_value: inf" in summary
    assert not any(line.endswith(": None") for line in summary)


@pytest.mark.parametrize("command", [("spectrum",),
                                     ("sweep", "--p-grid", "axis=z;from=0;to=0.2;steps=2")])
def test_single_eigenpair_is_a_usage_error(tmp_path, capsys, command):
    # a ground cluster is certified against the eigenvalue above it
    assert exit_status(command[0], "--config", CONFIG_DIR / "desk_e010.json",
                       "--out", tmp_path, *command[1:], "--n-eig", "1") == 2
    assert "argument --n-eig: must be >= 2" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.json").exists()
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command", [("sweep", "--p-grid", "axis=z;from=0;to=0.2;steps=2"),
                                     ("bounds",), ("sectors",)])
def test_one_state_basis_is_a_usage_error(tmp_path, capsys, command):
    # spinless with N_max = 0 holds the vacuum alone: no eigenvalue lies above
    # the ground state, and the model's operator set refuses it before any solve
    cfg = write_config(tmp_path, with_spin=False, N_max=0, quadrature=fast_quadrature())
    assert run(command[0], "--config", cfg, "--out", tmp_path / "o", *command[1:]) == 2
    assert "basis dimension 1" in capsys.readouterr().err
    assert not any((tmp_path / "o").glob("*.json"))


@pytest.mark.parametrize("command", [("spectrum",),
                                     ("sweep", "--p-grid", "axis=z;from=0;to=0.2;steps=2"),
                                     ("bounds",), ("sectors",)], ids=lambda c: c[0])
def test_two_state_basis_is_a_usage_error(tmp_path, capsys, command):
    # with spin, N_max = 0 holds the two spin states of the vacuum: one
    # eigenvalue lies above the ground state, and a ground cluster needs two
    cfg = write_config(tmp_path, N_max=0, quadrature=fast_quadrature())
    assert run(command[0], "--config", cfg, "--out", tmp_path / "o", *command[1:]) == 2
    assert "basis dimension 2" in capsys.readouterr().err
    assert not any((tmp_path / "o").glob("*.json"))


# -- sectors ----------------------------------------------------------------------


def test_sectors_free_theory(tmp_path):
    assert run("sectors", "--config", CONFIG_DIR / "desk_e000.json",
               "--out", tmp_path) == 0
    report = json.loads((tmp_path / "sector_report.json").read_text())
    assert report["winners"] == [-0.5, 0.5]
    assert report["sector_leak_max"] < 1e-10
    assert report["degeneracy"] == 2


def test_sectors_interacting(tmp_path):
    cfg = write_config(tmp_path, e=0.2, quadrature=fast_quadrature())
    assert run("sectors", "--config", cfg, "--out", tmp_path / "o") == 0
    report = json.loads((tmp_path / "o" / "sector_report.json").read_text())
    assert report["winners"] == [-0.5, 0.5]
    assert report["hypothesis_gated"] is True
    assert report["ok"] is True


SECTOR_CONFIGS = [(name, None) for name in sorted(p.name for p in CONFIG_DIR.glob("*.json"))]
SECTOR_CONFIGS.append(("desk_e010.json", [0.0, 0.0, -0.4]))


@pytest.mark.parametrize("name, p", SECTOR_CONFIGS,
                         ids=[n if p is None else f"{n}@p={p[2]}" for n, p in SECTOR_CONFIGS])
def test_sectors_report_matches_dense_oracle(tmp_path, name, p):
    cfg = CONFIG_DIR / name
    if p is not None:
        cfg = write_config(tmp_path, p=p)
    assert run("sectors", "--config", cfg, "--out", tmp_path / "o") == 0
    report = json.loads((tmp_path / "o" / "sector_report.json").read_text())
    config = load_config(cfg)
    oracle = dense_sector_energies(config)
    assert report["labels"] == sorted(oracle)
    for z, energy in oracle.items():
        assert abs(report["ground_energies"][str(z)] - energy) < 1e-10
    assert report["ok"] is True
    if config.with_spin:
        assert report["winners"] == [-0.5, 0.5]


def test_sectors_refuse_non_axial(tmp_path, capsys):
    cfg = write_config(tmp_path, mode_set={
        "kind": "explicit",
        "points": [{"k": [0.3, 0.1, 0.9], "weight": 0.4},
                   {"k": [-0.5, 0.2, 0.1], "weight": 0.3}],
    }, N_max=1, n_max=1)
    assert run("sectors", "--config", cfg, "--out", tmp_path / "o") == 2
    assert "axial" in capsys.readouterr().err


SECTOR_REFUSALS = {
    # the config overrides, the message, and whether the split itself refuses
    "off_axis_p": ({"p": [0.1, 0.0, 0.4]}, "collinear", False),
    "n_max_below_N_max": ({"N_max": 2, "n_max": 1}, "n_max >= N_max", True),
}


@pytest.mark.parametrize("overrides, message, by_split", SECTOR_REFUSALS.values(),
                         ids=SECTOR_REFUSALS.keys())
def test_sectors_refuse_without_a_sector_split(tmp_path, monkeypatch, capsys, overrides,
                                               message, by_split):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve before the refusal")

    def no_split(*args, **kwargs):
        raise AssertionError("sector split built before the refusal")

    monkeypatch.setattr(spectra, "solve_lowest", no_solve)
    if not by_split:
        monkeypatch.setattr(model, "sector_split", no_split)
    cfg = write_config(tmp_path, quadrature=fast_quadrature(), **overrides)
    assert run("sectors", "--config", cfg, "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert message in err and "np.float64" not in err
    assert not (tmp_path / "o" / "sector_report.json").exists()


# -- determinism ------------------------------------------------------------------


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(Path(root).iterdir())
            if p.name != "manifest.json"}


def test_repeated_runs_are_byte_identical(tmp_path):
    for sub in ("a", "b"):
        assert run("spectrum", "--config", CONFIG_DIR / "desk_e020.json",
                   "--out", tmp_path / sub, "--seed", 42, "--dump-vectors") == 0
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")


def test_repeated_sweeps_are_byte_identical(tmp_path):
    for sub in ("a", "b"):
        assert run("sweep", "--config", CONFIG_DIR / "desk_e010.json",
                   "--out", tmp_path / sub, "--seed", 3,
                   "--p-grid", "axis=z;from=0;to=0.4;steps=3") == 0
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")


# -- config round trips -------------------------------------------------------------


def test_config_hash_stable_across_descriptions(tmp_path):
    from pflab.io import config_hash

    cfg_a = load_config(CONFIG_DIR / "desk_e010.json")
    from pflab.io import config_to_dict

    path = tmp_path / "roundtrip.json"
    path.write_text(json.dumps(config_to_dict(cfg_a)))
    cfg_b = load_config(path)
    assert cfg_a == cfg_b
    assert config_hash(cfg_a) == config_hash(cfg_b)


def test_unknown_nested_field_has_path(tmp_path, capsys):
    cfg = write_config(tmp_path, dispersion={"kind": "massive", "m_ph": 1.0,
                                             "mass": 2.0})
    assert run("model-check", "--config", cfg) == 2
    assert "config.dispersion" in capsys.readouterr().err
