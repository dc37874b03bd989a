"""solve_model's sector path against the full-space dense oracle and the
dense sector oracle, and the solver policy around it: choose_method, the
diagonal path and the dense memory guard.  The blocks are slices of the
in-place sum on the split's pattern, bitwise equal to the sparse sum; the
terms are checked to be exactly Hermitian once, when they are built, and no
solve checks a matrix of its own."""

import functools
import os

import numpy as np
import pytest
import scipy.sparse as sp

import pflab.model as model_mod
import pflab.spectra as spectra_mod
from pflab import bounds
from pflab.cli import main
from pflab.errors import NonHermitianError, ResourceError, SolverError
from pflab.fock import Mode, ModeSet, axial_mode_set
from pflab.model import HamiltonianTerms, assemble_hamiltonian, build_operators
from pflab.spectra import (
    choose_method,
    detect_ground_cluster,
    ground_energy,
    ground_sector_labels,
    model_operators,
    solve_lowest,
    solve_model,
    sweep_energy_curve,
)

from conftest import CONFIG_DIR, DESK_EDGES, make_config
from oracles import dense_pull_through_residuals, dense_sector_energies, sparse_sum_hamiltonian

N_EIG = 6
TILTED_AXIS = np.array([1.0, 1.0, 0.5]) / 1.5


def _sector_cases(shipped_configs):
    desk = shipped_configs["desk_e010.json"]
    return {
        "desk +0.4": desk,
        "desk -0.4": desk.at(p=(0.0, 0.0, -0.4)),
        "desk 0": desk.at(p=(0.0, 0.0, 0.0)),
        "spinless": shipped_configs["desk_spinless_e020.json"],
        "desk e=0.3": desk.at(e=0.3),
        # the N_max = n_max = 3 rung, whose blocks of 361 and 332 lie above
        # the dense cutoff
        "rung3": desk.at(N_max=3, n_max=3),
    }


@pytest.fixture(scope="module")
def sector_cases(shipped_configs):
    out = {}
    for name, cfg in _sector_cases(shipped_configs).items():
        ops = build_operators(cfg)
        H = assemble_hamiltonian(cfg)
        out[name] = (cfg, ops, H, solve_model(ops, cfg.p, cfg.e, N_EIG),
                     solve_lowest(H, N_EIG, method="dense"))
    return out


@pytest.mark.parametrize("name", ["desk +0.4", "desk -0.4", "desk 0", "spinless", "desk e=0.3",
                                  "rung3"])
def test_sector_solve_matches_full_dense(sector_cases, name):
    cfg, ops, H, got, want = sector_cases[name]
    assert got.method == "sectors"
    by_davidson = sorted(s.dimension for s in got.sectors
                         if s.mirror_of is None and s.method == "davidson")
    assert by_davidson == ([332, 361] if name == "rung3" else [])
    assert sum(s.dimension for s in got.sectors) == H.shape[0]
    assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) < 1e-12
    resid = np.linalg.norm(H @ got.eigenvectors - got.eigenvectors * got.eigenvalues, axis=0)
    assert resid.max() < 1e-10
    gram = got.eigenvectors.conj().T @ got.eigenvectors
    assert np.max(np.abs(gram - np.eye(N_EIG))) < 1e-12
    c_got, c_want = detect_ground_cluster(got), detect_ground_cluster(want)
    assert c_got.count == c_want.count == (2 if cfg.with_spin else 1)
    P_got = c_got.basis @ c_got.basis.conj().T
    P_want = c_want.basis @ c_want.basis.conj().T
    assert np.max(np.abs(P_got - P_want)) < 1e-10


@pytest.mark.parametrize("with_spin", [True, False])
def test_sector_solve_on_a_tilted_axis(with_spin):
    # the spin frame and u.A are not those of the z axis here
    axis = np.array([1.0, 1.0, 0.5]) / 1.5
    ms = axial_mode_set([0.0, 0.6, 1.2, 2.2], axis=axis)
    for t in (0.3, -0.3):
        cfg = make_config(ms, e=0.2, p=tuple(t * axis), with_spin=with_spin)
        got = solve_model(build_operators(cfg), cfg.p, cfg.e, N_EIG)
        H = assemble_hamiltonian(cfg)
        want = solve_lowest(H, N_EIG, method="dense")
        assert got.method == "sectors"
        assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) < 1e-12
        resid = np.linalg.norm(H @ got.eigenvectors - got.eigenvectors * got.eigenvalues,
                               axis=0)
        assert resid.max() < 1e-10


def test_sector_solve_splits_the_ground_pair(sector_cases):
    # the two-fold ground doublet is one simple minimum in each of +-1/2
    _, ops, _, got, _ = sector_cases["desk +0.4"]
    cluster = detect_ground_cluster(got)
    split = ops.sectors
    labels = []
    for v in cluster.basis.T:
        weights = [np.linalg.norm(W.conj().T @ v) for W in split.to_linear]
        labels.append(split.labels[int(np.argmax(weights))])
        assert max(weights) == pytest.approx(1.0, abs=1e-12)
    assert sorted(labels) == [-0.5, 0.5]


@pytest.mark.parametrize("name", ["desk +0.4", "desk -0.4", "spinless"])
def test_sector_energies_agree_with_sector_decompose(sector_cases, name):
    # each sector's ground energy, mirrored ones included, against the dense
    # decomposition of H over the eigenspaces of a dense J_axis
    cfg, _, _, got, _ = sector_cases[name]
    ours = ground_sector_labels(got, require_half_pair=False).sector_energies
    assert ours == {s.label: s.ground_energy for s in got.sectors}
    oracle = dense_sector_energies(cfg)
    assert sorted(oracle) == sorted(ours)
    for z, energy in ours.items():
        assert abs(oracle[z] - energy) < 1e-12


def force_davidson(monkeypatch):
    # the policy then sends every block that is neither diagonal nor
    # exhausted to Davidson
    monkeypatch.setattr(spectra_mod, "choose_method", lambda dim: "davidson")


def test_sector_solve_is_bitwise_reproducible(shipped_configs, monkeypatch):
    cfg = shipped_configs["desk_e010.json"]
    for davidson in (False, True):
        if davidson:
            force_davidson(monkeypatch)
        a = solve_model(build_operators(cfg), cfg.p, cfg.e, N_EIG, seed=11)
        b = solve_model(build_operators(cfg), cfg.p, cfg.e, N_EIG, seed=11)
        assert a.sectors == b.sectors
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_sector_solve_exhausts_small_sectors(tiny_ms, monkeypatch):
    # n_eig = dim - 1 forces every sector to give up all of its pairs
    cfg = make_config(tiny_ms, e=0.3, p=(0.0, 0.0, 0.2))
    ops = build_operators(cfg)
    n = ops.basis.dimension - 1
    calls = []

    def recorded(H, n_eig, **kwargs):
        calls.append((H.shape[0], n_eig, kwargs["method"]))
        return solve_lowest(H, n_eig, **kwargs)

    # every block, exhausted or not, goes through the public solve_lowest
    monkeypatch.setattr(spectra_mod, "solve_lowest", recorded)
    force_davidson(monkeypatch)
    got = solve_model(ops, cfg.p, cfg.e, n)
    want = solve_lowest(assemble_hamiltonian(cfg), n, method="dense")
    assert got.method == "sectors"
    assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) < 1e-12
    exhausted = [s for s in got.sectors if s.pairs == s.dimension]
    assert exhausted and all(s.method == "dense" for s in exhausted)
    # only the sectors with label >= 0 are solved; each mirrored record
    # copies its source's
    assert sorted((s.dimension, s.pairs, "dense") for s in exhausted
                  if s.mirror_of is None) == sorted(c for c in calls if c[0] == c[1])
    by_label = {s.label: s for s in got.sectors}
    for s in got.sectors:
        if s.mirror_of is not None:
            source = by_label[s.mirror_of]
            assert (s.dimension, s.pairs, s.method) == \
                (source.dimension, source.pairs, source.method)


def test_grown_sector_starts_from_its_last_solve(desk_ms, monkeypatch):
    # at n_eig = 8 the +1/2 block of the N_max = 3 rung grows from 2 to 4 pairs
    cfg = make_config(desk_ms, e=0.1, p=(0.0, 0.0, 0.4), N_max=3, n_max=3)
    ops = build_operators(cfg)
    calls = []

    def recorded(H, n_eig, **kwargs):
        result = solve_lowest(H, n_eig, **kwargs)
        calls.append((H, n_eig, kwargs["start"], result))
        return result

    monkeypatch.setattr(spectra_mod, "solve_lowest", recorded)
    force_davidson(monkeypatch)
    got = solve_model(ops, cfg.p, cfg.e, 8)
    grown = [(H, k, start, r) for H, k, start, r in calls if start is not None]
    assert [(H.shape[0], k, start.shape[1]) for H, k, start, _ in grown] == [(361, 4, 2)]
    H, k, start, warm = grown[0]
    first = next(r for block, _, _, r in calls if block is H and r is not warm)
    assert np.array_equal(start, first.eigenvectors)
    cold = solve_lowest(H, k, method="davidson")
    assert warm.method == cold.method == "davidson"
    assert 0 < warm.matvecs < cold.matvecs
    assert np.max(np.abs(warm.eigenvalues - solve_lowest(H, k, method="dense").eigenvalues)) < 1e-10
    # the sector's record counts both of its solves; a mirror image counts none
    half = {s.label: s for s in got.sectors}
    assert (half[0.5].pairs, half[0.5].matvecs) == (4, first.matvecs + warm.matvecs)
    assert half[-0.5].matvecs == 0
    assert got.matvecs == sum(r.matvecs for *_, r in calls)
    want = solve_lowest(assemble_hamiltonian(cfg), 8, method="dense")
    assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) < 1e-10


@pytest.fixture(scope="module")
def rung3_split(desk_ms):
    return build_operators(make_config(desk_ms, N_max=3, n_max=3)).sectors


@pytest.mark.parametrize("e", [0.1, 0.5, 1.0, 2.0])
def test_rung3_sector_blocks_by_davidson_match_dense(rung3_split, e):
    # well past the small-e regime where diag(H) dominates, at 1 and 2 pairs
    for t in (0.0, 0.4, 1.5):
        blocks = rung3_split.upper_blocks(t, e)
        assert [block.shape[0] for block in blocks] == [361, 332, 156, 120]
        for block in blocks:
            for pairs in (1, 2):
                got = solve_lowest(block, pairs, method="davidson")
                want = solve_lowest(block, pairs, method="dense")
                assert got.eigenvectors.dtype == np.float64
                assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) < 1e-10


def test_lapack_failure_in_an_exhausted_sector_is_a_solver_error(tiny_ms, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    cfg = make_config(tiny_ms, e=0.3, p=(0.0, 0.0, 0.2))
    ops = build_operators(cfg)
    monkeypatch.setattr(spectra_mod.sla, "eigh", no_convergence)
    force_davidson(monkeypatch)
    with pytest.raises(SolverError, match="LAPACK"):
        solve_model(ops, cfg.p, cfg.e, ops.basis.dimension - 1)


def test_full_space_path_when_sectors_do_not_apply(desk_ms):
    on_axis = (0.0, 0.0, 0.4)
    scattered = ModeSet(modes=tuple(
        Mode(k=k, weight=0.4, polarization_index=j)
        for k in ((0.3, 0.1, 0.9), (-0.5, 0.2, 0.1)) for j in (1, 2)))
    cases = [
        make_config(desk_ms, e=0.1, p=(0.1, -0.2, 0.3)),        # off-axis p
        make_config(scattered, e=0.1, p=on_axis),               # scattered modes
        make_config(desk_ms, e=0.1, p=on_axis, N_max=2, n_max=1),  # n_max < N_max
    ]
    for cfg in cases:
        ops = build_operators(cfg)
        assert ops.axis_coordinate(cfg.p) is None
        got = solve_model(ops, cfg.p, cfg.e, 4)
        assert got.method == choose_method(ops.basis.dimension)
        assert got.sectors == ()
        want = solve_lowest(assemble_hamiltonian(cfg), 4, method="dense")
        assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) < 1e-12


def test_free_model_takes_the_diagonal_path(desk_ms):
    # on the axis the free model goes by sectors, each block read off its diagonal
    cfg = make_config(desk_ms, e=0.0, p=(0.0, 0.0, 0.4))
    got = solve_model(build_operators(cfg), cfg.p, cfg.e, 4)
    assert got.method == "sectors"
    assert all(s.method == "diagonal" for s in got.sectors)
    assert got.eigenvalues[0] == 0.5 * 0.4**2
    assert np.all(got.residual_norms == 0.0)


PULL_THROUGH_CASES = {
    "desk_e005": lambda shipped: shipped["desk_e005.json"],
    "desk_e010": lambda shipped: shipped["desk_e010.json"],
    "desk_e020": lambda shipped: shipped["desk_e020.json"],
    "desk_p0_e010": lambda shipped: shipped["desk_p0_e010.json"],
    "massless_e010": lambda shipped: shipped["massless_e010.json"],
    # complex A_k on the full space
    "desk_e010_off_axis": lambda shipped: shipped["desk_e010.json"].at(p=(0.1, 0.0, 0.3)),
    # the spin frame along a tilted axis carries phases: complex blocks
    "tilted": lambda shipped: make_config(axial_mode_set(DESK_EDGES, axis=TILTED_AXIS), e=0.2,
                                          p=tuple(0.3 * TILTED_AXIS)),
}


@pytest.mark.parametrize("case", sorted(PULL_THROUGH_CASES))
def test_pull_through_residual_solves_once_per_k_point(case, shipped_configs, monkeypatch):
    # the shifted resolvent depends on a mode only through its k-point: one
    # energy-only gap solve (``ground_energy``) and one decomposition into
    # (block, map) pairs per k-point serve both polarizations; on the axis no
    # H is formed on the full space, and CG runs once per mode and pair whose
    # right side is nonzero; the residuals match the dense oracle's
    cfg = PULL_THROUGH_CASES[case](shipped_configs)
    ops = build_operators(cfg)
    on_axis = ops.axis_coordinate(cfg.p) is not None
    cluster = detect_ground_cluster(solve_model(ops, cfg.p, cfg.e, N_EIG))
    psi = cluster.basis[:, 0]
    calls = {"ground_energy": 0, "hamiltonian": 0}
    right_sides = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recorded(A, b, **kwargs):
        right_sides.append(b)
        return cg(A, b, **kwargs)

    monkeypatch.setattr(bounds, "ground_energy", counted("ground_energy", bounds.ground_energy))
    monkeypatch.setattr(model_mod.HamiltonianTerms, "hamiltonian",
                        counted("hamiltonian", model_mod.HamiltonianTerms.hamiltonian))
    cg = bounds.spla.cg
    monkeypatch.setattr(bounds.spla, "cg", recorded)
    got = bounds.pull_through_residual(psi, cfg, cluster.energy, ops)
    assert (len(cfg.mode_set), len(cfg.mode_set.k_points)) == (16, 8)
    # off the axis each gap solve forms H(p - k) on the full space as well
    assert calls == {"ground_energy": 8, "hamiltonian": 0 if on_axis else 16}
    assert all(b.any() for b in right_sides)
    K = np.asarray(cfg.mode_set.k_points)
    pairs = [ops.blocks(np.asarray(cfg.p) - k, cfg.e) for k in K]
    solved = len(right_sides)
    # the full-space right side of each mode, as CG receives it with no split
    right_sides.clear()
    monkeypatch.setattr(model_mod.ModelOperators, "blocks", lambda self, p, e: [
        (self.linear.hamiltonian(p, e), sp.identity(self.basis.dimension, format="csr"))])
    bounds.pull_through_residual(psi, cfg, cluster.energy, ops)
    assert len(right_sides) == 16
    assert solved == sum(bool((T.T @ right_sides[m].conj()).any())
                         for i in range(len(K)) for _, T in pairs[i]
                         for m in np.flatnonzero(cfg.mode_set.k_point_index == i))
    oracle = dense_pull_through_residuals(cfg, psi, cluster.energy)
    assert np.max(np.abs(got - oracle)) < 1e-12


# -- solver policy ------------------------------------------------------------------


def test_choose_method_one_cutoff_for_every_pair_count(monkeypatch):
    # the dimensions of the crossover table in BENCH_12.json: a solve with
    # method "auto" goes where the dimension alone sends it, at any pairs
    routed = []
    monkeypatch.setattr(spectra_mod, "_dense_lowest", lambda H, k: routed.append("dense"))
    monkeypatch.setattr(spectra_mod, "_davidson_lowest",
                        lambda H, k, seed, start: routed.append("davidson"))
    for dims, method in (((36, 44, 73, 120, 156), "dense"),
                         ((306, 330, 332, 361, 450, 1116, 1292, 1657, 1938), "davidson")):
        for dim in dims:
            assert choose_method(dim) == method
            H = sp.diags([np.ones(dim - 1), np.arange(dim, dtype=float), np.ones(dim - 1)],
                         [-1, 0, 1], format="csr")
            for pairs in (1, 2, 6):
                routed.clear()
                solve_lowest(H, pairs)
                assert routed == [method]


def test_diagonal_matrix_read_off_its_diagonal(monkeypatch):
    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK called on a diagonal matrix")

    monkeypatch.setattr(spectra_mod.sla, "eigh", no_lapack)
    H = sp.diags(np.array([3.0, 1.0, 1.0, 0.0, 2.0]).astype(complex), format="csr")
    res = solve_lowest(H, 3)
    assert res.method == "diagonal"
    assert res.eigenvalues.tolist() == [0.0, 1.0, 1.0]
    assert np.array_equal(np.abs(res.eigenvectors), np.eye(5)[:, [3, 1, 2]])
    assert np.all(res.residual_norms == 0.0)


def test_dense_memory_guard_refuses_before_allocating(monkeypatch):
    def no_toarray(self, *args, **kwargs):
        raise AssertionError("dense array allocated")

    monkeypatch.setattr(sp.csr_matrix, "toarray", no_toarray)
    H = sp.identity(10**6, dtype=complex, format="csr")
    with pytest.raises(ResourceError, match="GiB.*; lower --n-eig or the cutoffs N_max/n_max"):
        solve_lowest(H, 1, method="dense")


def test_dense_memory_guard_is_sized_by_dtype(monkeypatch):
    # 2 x 8 n^2 bytes for a real matrix, 2 x 16 n^2 for a complex one, on a
    # patched physical memory of 3 x 8 n^2
    n, page = 200, 4096
    memory = {"SC_PAGE_SIZE": page, "SC_PHYS_PAGES": 3 * 8 * n * n // page}
    monkeypatch.setattr(os, "sysconf", memory.__getitem__)
    real = sp.diags([np.ones(n - 1), np.arange(n, dtype=float), np.ones(n - 1)], [-1, 0, 1],
                    format="csr")
    assert solve_lowest(real, 1, method="dense").method == "dense"
    with pytest.raises(ResourceError, match="GiB"):
        solve_lowest(real.astype(complex), 1, method="dense")


def test_only_a_dense_solve_returns_the_whole_spectrum():
    H = sp.csr_matrix(np.array([[2.0, 1.0j], [-1.0j, 2.0]]))
    res = solve_lowest(H, 2, method="dense")
    assert res.method == "dense"
    assert np.allclose(res.eigenvalues, [1.0, 3.0], atol=1e-14)
    for method in ("auto", "davidson"):
        with pytest.raises(ValueError, match="n_eig"):
            solve_lowest(H, 2, method=method)


# -- the stored pattern and the one Hermitian check --------------------------------


def _pattern_models(shipped_configs):
    tilted = axial_mode_set([0.0, 0.6, 1.2, 2.2], axis=TILTED_AXIS)
    return {
        "desk_e010": shipped_configs["desk_e010.json"],
        "desk_spinless_e020": shipped_configs["desk_spinless_e020.json"],
        "tilted": make_config(tilted, e=0.2, p=tuple(0.3 * TILTED_AXIS)),
    }


@pytest.mark.parametrize("name", ["desk_e010", "desk_spinless_e020", "tilted"])
def test_upper_blocks_are_bitwise_slices_of_the_sparse_sum(shipped_configs, name):
    cfg = _pattern_models(shipped_configs)[name]
    ops = build_operators(cfg)
    split = ops.sectors
    u = np.asarray(cfg.mode_set.axis)
    starts = np.subtract(split.starts[split.first_upper:], split.starts[split.first_upper])
    assert (split.upper.C.dtype == np.complex128) == (name == "tilted")
    for t in (0.0, 0.4, -1.3, 3.9):
        for e in (0.0, 0.1, -0.2):
            H = sparse_sum_hamiltonian(split.upper, t, e)
            blocks = split.upper_blocks(t, e)
            assert len(blocks) == len(starts) - 1
            for a, b, block in zip(starts[:-1], starts[1:], blocks):
                got, want = block.toarray(), H[a:b, a:b].toarray()
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
                for part in (np.real, np.imag):
                    assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))
            if e == 0.0:
                got = solve_model(ops, tuple(t * u), e, 2)
                assert all(s.method == "diagonal" for s in got.sectors)


def test_formed_matrices_share_no_array_with_the_pattern(shipped_configs):
    ops = build_operators(shipped_configs["desk_e010.json"])
    split = ops.sectors
    formed = [ops.linear.hamiltonian((0.1, -0.2, 0.3), 0.1), *split.upper_blocks(0.4, 0.1)]
    want = [M.copy() for M in formed]
    for M in formed:
        M.data *= 3.0
        M.data[::2] = 0.0
        M.eliminate_zeros()
    again = [ops.linear.hamiltonian((0.1, -0.2, 0.3), 0.1), *split.upper_blocks(0.4, 0.1)]
    for got, M in zip(again, want):
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(M, part))


def _ground_energy_cases(shipped_configs):
    return {**{name.removesuffix(".json"): cfg for name, cfg in shipped_configs.items()},
            "tilted": PULL_THROUGH_CASES["tilted"](shipped_configs)}


@pytest.mark.parametrize("name", ["desk_e000", "desk_e005", "desk_e010", "desk_e020",
                                  "desk_p0_e010", "desk_spinless_e020", "massless_e010",
                                  "tilted"])
def test_ground_energy_is_the_lowest_value_of_solve_model(shipped_configs, name):
    # bitwise, at nodes on both sides of the one-photon crossing near q = 2,
    # where the sector holding the ground energy changes
    cfg = _ground_energy_cases(shipped_configs)[name]
    ops = build_operators(cfg)
    u = np.asarray(cfg.mode_set.axis)
    for e in (0.0, 0.1, 0.5):
        winners = set()
        for q in np.linspace(0.0, 3.0, 13):
            p = tuple(q * u)
            want = solve_model(ops, p, e, 1)
            assert ground_energy(ops, p, e) == want.eigenvalues[0]
            winners.add(abs(min(want.sectors, key=lambda s: s.ground_energy).label))
        assert len(winners) > 1


@pytest.mark.parametrize("name", ["desk_e010", "desk_spinless_e020", "massless_e010", "tilted"])
def test_gershgorin_bounds_lie_below_each_block(shipped_configs, name):
    cfg = _ground_energy_cases(shipped_configs)[name]
    split = build_operators(cfg).sectors
    for t in (0.0, 0.4, 2.0):
        for e in (0.0, 0.1, 0.5):
            data = split.upper.pattern_data(t, e)
            bounds_, slack = split.lower_bounds(data)
            H = abs(sparse_sum_hamiltonian(split.upper, t, e))
            assert slack == H.shape[0] * np.finfo(float).eps * H.sum(axis=1).max()
            blocks = split.upper_blocks(t, e)
            assert len(bounds_) == len(blocks)
            for bound, block in zip(bounds_, blocks):
                B = block.toarray()
                d = np.diag(B)
                radii = np.abs(B).sum(axis=1) - np.abs(d)
                assert bound == pytest.approx(np.min(d.real - radii), rel=0.0, abs=slack)
                assert bound <= np.linalg.eigvalsh(B)[0]
                if e == 0.0:                 # a diagonal block's bound is its least entry
                    assert bound == block.diagonal().real.min()


def _count_linear_builds(monkeypatch):
    """The operator sets whose linear-frame terms get built, one entry a build."""
    built = []
    build = model_mod.ModelOperators.linear.func

    def counted(ops):
        built.append(ops)
        return build(ops)

    linear = functools.cached_property(counted)
    linear.__set_name__(model_mod.ModelOperators, "linear")
    monkeypatch.setattr(model_mod.ModelOperators, "linear", linear)
    return built


def test_on_axis_solve_builds_no_full_space_pattern(shipped_configs, monkeypatch, tmp_path):
    # on the axis only the sector terms are built, by a solve and by the
    # spectrum, sectors and bounds commands; the linear-frame terms, and
    # their pattern, are built once, at the first solve off the axis
    built = _count_linear_builds(monkeypatch)
    cfg = shipped_configs["desk_e010.json"]
    ops = build_operators(cfg)
    solve_model(ops, cfg.p, cfg.e, N_EIG)
    assert "pattern" in vars(ops.sectors.upper) and "linear" not in vars(ops)
    for command in ("spectrum", "sectors", "bounds"):
        assert main([command, "--config", str(CONFIG_DIR / "desk_e010.json"),
                     "--out", str(tmp_path / command)]) == 0
    assert built == []
    solve_model(ops, (0.3, 0.0, 0.4), cfg.e, N_EIG)
    solve_model(ops, (0.3, 0.0, -0.4), cfg.e, N_EIG)
    assert built == [ops] and "pattern" in vars(ops.linear)


def test_corrupted_sector_term_is_refused_before_any_eigensolve(shipped_configs, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve of a non-Hermitian block")

    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK called on a non-Hermitian block")

    def corrupted(**terms):
        # one off-diagonal entry of the cut A2 scaled by 1 + 1e-12, as
        # sector_split hands the terms over
        A2_z = terms["A2"]
        rows = np.repeat(np.arange(A2_z.shape[0]), np.diff(A2_z.indptr))
        off_diagonal = np.flatnonzero((A2_z.indices != rows) & (A2_z.data != 0.0))
        A2_z.data[off_diagonal[len(off_diagonal) // 2]] *= 1.0 + 1e-12
        return hamiltonian_terms(**terms)

    hamiltonian_terms = model_mod.HamiltonianTerms
    cfg = shipped_configs["desk_e010.json"]
    ops = build_operators(cfg)
    monkeypatch.setattr(model_mod, "HamiltonianTerms", corrupted)
    monkeypatch.setattr(spectra_mod, "solve_lowest", no_solve)
    monkeypatch.setattr(spectra_mod.sla, "eigh", no_lapack)
    with pytest.raises(NonHermitianError, match="term A2 of H is not exactly Hermitian"):
        ops.sectors
    with pytest.raises(NonHermitianError, match="term A2 of H is not exactly Hermitian"):
        solve_model(ops, cfg.p, cfg.e, N_EIG)


def _count_calls(monkeypatch, counts, owner, name):
    f = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return f(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _count_hermitian_checks(monkeypatch, counts):
    # the check is reached through either module that imports it
    for module in (spectra_mod, model_mod):
        _count_calls(monkeypatch, counts, module, "hermiticity_defect")


def test_energy_curve_costs_no_hermitian_check_and_its_eigensolves_per_point(shipped_configs,
                                                                             monkeypatch):
    cfg = shipped_configs["desk_e010.json"]
    ops = model_operators(cfg)
    ops.sectors                                   # the split is built outside the count
    counts = {"hamiltonian": 0, "hermiticity_defect": 0, "eigh": 0}
    _count_calls(monkeypatch, counts, HamiltonianTerms, "hamiltonian")
    _count_hermitian_checks(monkeypatch, counts)
    _count_calls(monkeypatch, counts, spectra_mod.sla, "eigh")
    curve = sweep_energy_curve(ops, cfg, cfg.p_norm + cfg.quadrature.r_max)
    assert len(curve.q) == 25
    # three sector blocks of at most 73 states per point, one dense solve for
    # each block whose Gershgorin bound does not rule it out: 48 of the 75
    assert counts == {"hamiltonian": 0, "hermiticity_defect": 0, "eigh": 48}


def test_off_axis_solve_makes_no_hermitian_check(shipped_configs, monkeypatch):
    cfg = shipped_configs["desk_e010.json"].at(p=(0.3, 0.0, 0.4))
    ops = build_operators(cfg)
    assert ops.axis_coordinate(cfg.p) is None
    H = assemble_hamiltonian(cfg)
    ops.linear                      # the terms are checked where they are built
    counts = {"hermiticity_defect": 0}
    _count_hermitian_checks(monkeypatch, counts)
    got = solve_model(ops, cfg.p, cfg.e, N_EIG)
    assert counts == {"hermiticity_defect": 0}
    want = solve_lowest(H, N_EIG)
    assert counts == {"hermiticity_defect": 1}    # a matrix from outside is checked
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
