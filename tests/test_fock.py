import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from pflab.errors import BasisMismatchError, DimensionCapError
from pflab.fock import (
    PAULI,
    Mode,
    ModeSet,
    axial_mode_set,
    enumerate_basis,
    hermiticity_defect,
    spin_tensor,
)

from oracles import (OccupationState, adjoint, annihilation_matrix, brute_force_occupations,
                     creation_matrix, field_energy, field_momentum, is_reflection_symmetric,
                     number_operator, photon_occupations, rank, sparse_ladders, subtraction_hermiticity_defect,
                     total_weight)


def test_mode_validation():
    with pytest.raises(ValueError):
        Mode(k=(0.0, 0.0, 1.0), weight=-1.0, polarization_index=1)
    with pytest.raises(ValueError):
        Mode(k=(0.0, 0.0, 1.0), weight=1.0, polarization_index=3)
    with pytest.raises(ValueError):
        Mode(k=(np.inf, 0.0, 0.0), weight=1.0, polarization_index=1)


def test_polarization_pairs_name_the_modes_of_each_k_point():
    modes = axial_mode_set([0.0, 0.6, 1.2]).modes
    ms = ModeSet(modes=tuple(modes[i] for i in (3, 0, 6, 5, 2, 7, 1, 4)), axial=True,
                 axis=(0.0, 0.0, 1.0))
    pairs = ms.polarization_pairs
    assert pairs.shape == (len(ms.k_points), 2) and not pairs.flags.writeable
    assert ms.polarization_pairs is pairs
    for k, (one, two) in zip(ms.k_points, pairs):
        assert (ms.modes[one].k, ms.modes[one].polarization_index) == (k, 1)
        assert (ms.modes[two].k, ms.modes[two].polarization_index) == (k, 2)
    assert ms.k_point_index.tolist() == [ms.k_points.index(m.k) for m in ms.modes]


def test_mode_set_needs_both_polarizations():
    with pytest.raises(ValueError, match="both polarizations"):
        ModeSet(modes=(Mode(k=(0, 0, 1.0), weight=1.0, polarization_index=1),))


def test_mode_set_rejects_duplicates():
    m = Mode(k=(0, 0, 1.0), weight=1.0, polarization_index=1)
    m2 = Mode(k=(0, 0, 1.0), weight=1.0, polarization_index=2)
    with pytest.raises(ValueError, match="duplicate"):
        ModeSet(modes=(m, m2, m))


def test_axial_shell_weights_fill_the_ball():
    ms = axial_mode_set([0.0, 1.0, 2.0])
    assert ms.axial and is_reflection_symmetric(ms)
    ball = 4.0 / 3.0 * np.pi * 2.0**3
    assert total_weight(ms) == pytest.approx(ball, rel=1e-12)


# -- enumeration ---------------------------------------------------------------


def test_dimension_vacuum_only(tiny_ms):
    basis = enumerate_basis(tiny_ms, N_max=0, n_max=1, with_spin=True)
    assert basis.dimension == 2


def test_dimension_one_photon(tiny_ms):
    basis = enumerate_basis(tiny_ms, N_max=1, n_max=1, with_spin=True)
    assert basis.dimension == 2 * (1 + 2) == 6


def test_dimension_fifteen_against_enumeration_oracle(pair_ms):
    basis = enumerate_basis(pair_ms, N_max=2, n_max=2, with_spin=False)
    oracle = brute_force_occupations(4, 2, 2)
    assert basis.dimension == len(oracle) == 15
    assert basis.occupation_array().tolist() == [list(o) for o in oracle]


def test_photon_multisets_match_the_product_enumeration():
    for n_modes, N_max, n_max in ((1, 3, 2), (4, 2, 2), (5, 3, 1), (6, 3, 3), (3, 0, 1)):
        assert photon_occupations(n_modes, N_max, n_max) == \
            brute_force_occupations(n_modes, N_max, n_max)


def test_vacuum_spin_up_ranks_zero(tiny_ms):
    basis = enumerate_basis(tiny_ms, N_max=1, n_max=1, with_spin=True)
    assert basis.occupation_array()[0].tolist() == [0, 0]
    assert rank(basis, OccupationState((0, 0), spin=0)) == 0


def test_rank_of_single_photon_matches_oracle(tiny_ms):
    basis = enumerate_basis(tiny_ms, N_max=1, n_max=1, with_spin=True)
    oracle = brute_force_occupations(2, 1, 1)
    want = oracle.index((1, 0))
    assert rank(basis, OccupationState((1, 0), spin=0)) == want
    assert rank(basis, OccupationState((1, 0), spin=1)) == want + len(oracle)


def test_occupation_array_is_built_once_and_read_only(pair_ms):
    basis = enumerate_basis(pair_ms, N_max=2, n_max=2, with_spin=True)
    occ = basis.occupation_array()
    assert occ is basis.occupation_array()
    assert occ.dtype == np.int64
    assert occ.tolist() == [list(s) for s in brute_force_occupations(4, 2, 2)]
    with pytest.raises(ValueError):
        occ[0, 0] = 1


def _assert_rank_of_row_i_is_i(basis):
    spins = (0, 1) if basis.with_spin else (None,)
    for s, spin in enumerate(spins):
        for i, row in enumerate(basis.occupation_array()):
            state = OccupationState(tuple(int(n) for n in row), spin)
            assert rank(basis, state) == s * basis.boson_dimension + i


def test_rank_of_row_i_is_i(pair_ms):
    basis = enumerate_basis(pair_ms, N_max=2, n_max=2, with_spin=False)
    _assert_rank_of_row_i_is_i(basis)


@settings(max_examples=40, deadline=None)
@given(n_points=st.integers(1, 3), N_max=st.integers(0, 3), n_max=st.integers(1, 3),
       with_spin=st.booleans())
def test_rank_of_row_i_is_i_property(n_points, N_max, n_max, with_spin):
    modes = []
    for i in range(n_points):
        for j in (1, 2):
            modes.append(Mode(k=(0.1 * (i + 1), 0.0, 1.0 + i), weight=0.5,
                              polarization_index=j))
    basis = enumerate_basis(ModeSet(modes=tuple(modes)), N_max, n_max, with_spin)
    assert basis.dimension == (2 if with_spin else 1) * len(
        brute_force_occupations(2 * n_points, N_max, n_max))
    _assert_rank_of_row_i_is_i(basis)


def test_rank_rejects_inadmissible(pair_ms):
    basis = enumerate_basis(pair_ms, N_max=2, n_max=1, with_spin=False)
    for occupations, spin in (
        ((2, 0, 0, 0), None),        # an entry above n_max
        ((0, 0, 3, 0), None),        # an entry above n_max and N_max
        ((1, 1, 1, 0), None),        # a total above N_max
        ((-1, 1, 0, 0), None),       # a negative entry (it would wrap round a table)
        ((0, 0, 0, -1), None),
        ((1, 0, 0), None),           # one mode short
        ((1, 0, 0, 0, 0), None),     # one mode too many
        ((1.0, 0, 0, 0), None),      # not an integer entry
        ((1, 0, 0, 0), 0),           # a spin index on a spinless basis
    ):
        with pytest.raises(ValueError):
            rank(basis, OccupationState(occupations, spin))


def test_rank_rejects_a_bad_spin(pair_ms):
    basis = enumerate_basis(pair_ms, N_max=2, n_max=1, with_spin=True)
    with pytest.raises(ValueError, match="presence"):
        rank(basis, OccupationState((1, 0, 0, 0), None))
    with pytest.raises(ValueError, match="0 \\(up\\) or 1"):
        rank(basis, OccupationState((1, 0, 0, 0), 2))


def test_dimension_cap(pair_ms):
    with pytest.raises(DimensionCapError, match="exceeds the cap"):
        enumerate_basis(pair_ms, N_max=2, n_max=2, with_spin=False, dimension_cap=10)
    basis = enumerate_basis(pair_ms, N_max=2, n_max=2, with_spin=False,
                            dimension_cap=15)
    assert basis.dimension == 15


def test_dimension_cap_counts_beyond_int64():
    # 200 k-points: C(400 + 12, 12) ~ 4.2e22 > 2**63 vectors, counted exactly;
    # a count that wrapped, or any row built first, would not end in this error
    ms = ModeSet(modes=tuple(Mode(k=(0.0, 0.0, 1.0 + i), weight=1.0, polarization_index=j)
                             for i in range(200) for j in (1, 2)))
    with pytest.raises(DimensionCapError, match=r"dimension (\d+) exceeds") as err:
        enumerate_basis(ms, N_max=12, n_max=12, with_spin=False)
    count = int(err.value.args[0].split()[2])
    assert count == math.comb(400 + 12, 12) > 2**63


# -- ladder operators ----------------------------------------------------------


# (mode-set fixture or axial shell edges, N_max, n_max); on shell8 (32 modes)
# and kpoints36 (72 modes) a row's integer key in base N_max + 1 would
# overflow int64
LADDER_CASES = {
    "tiny": ("tiny_ms", 2, 2),
    "pair": ("pair_ms", 2, 2),
    "desk": ("desk_ms", 2, 2),
    "shell8": ([0.0, 0.3, 0.6, 0.9, 1.2, 1.7, 2.2, 2.8, 3.4], 3, 3),
    "kpoints36": (np.linspace(0.0, 3.6, 19), 1, 1),
}


@pytest.mark.parametrize("case", sorted(LADDER_CASES))
def test_ladders_match_the_dictionary_oracle(case, request):
    modes, N_max, n_max = LADDER_CASES[case]
    ms = request.getfixturevalue(modes) if isinstance(modes, str) else axial_mode_set(modes)
    basis = enumerate_basis(ms, N_max=N_max, n_max=n_max, with_spin=True)
    occs = photon_occupations(len(ms), N_max, n_max)
    occ = basis.occupation_array()
    assert occ.dtype == np.int64 and occ.tolist() == [list(o) for o in occs]
    mode, row, col, root_n = basis.lowering()
    # mode by mode, ascending in col and in row; a_m lowers, so row < col
    assert np.all(np.diff(mode) >= 0) and np.all(row < col)
    for m, want in enumerate(sparse_ladders(occs)):
        at = mode == m
        assert np.all(np.diff(col[at]) > 0) and np.all(np.diff(row[at]) > 0)
        got = sp.csr_matrix((root_n[at].astype(complex), (row[at], col[at])), shape=want.shape)
        for name in ("data", "indices", "indptr"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (m, name)


def test_annihilator_kills_vacuum(tiny_ms):
    basis = enumerate_basis(tiny_ms, N_max=1, n_max=1, with_spin=False)
    a = annihilation_matrix(0, basis)
    vac = np.zeros(basis.dimension)
    vac[0] = 1.0
    assert np.linalg.norm(a @ vac) == 0.0


def test_single_mode_matrix_element_sqrt2():
    ms = ModeSet(modes=tuple(Mode(k=(0, 0, 1.0), weight=1.0, polarization_index=j)
                             for j in (1, 2)))
    basis = enumerate_basis(ms, N_max=2, n_max=2, with_spin=False)
    adag = creation_matrix(0, basis)
    one = rank(basis, OccupationState((1, 0), None))
    two = rank(basis, OccupationState((2, 0), None))
    assert adag[two, one] == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_creation_is_exact_adjoint(pair_ms):
    basis = enumerate_basis(pair_ms, N_max=2, n_max=2, with_spin=True)
    for m in range(4):
        diff = creation_matrix(m, basis) - adjoint(annihilation_matrix(m, basis))
        assert diff.nnz == 0


def test_number_from_ladder_product(pair_ms):
    basis = enumerate_basis(pair_ms, N_max=2, n_max=2, with_spin=False)
    total = sum((creation_matrix(m, basis) @ annihilation_matrix(m, basis)
                 for m in range(4)))
    want = np.diag(basis.occupation_array().sum(axis=1)).astype(complex)
    assert np.allclose(total.toarray(), want, atol=1e-14)


def test_commutator_on_safe_subspace(pair_ms):
    basis = enumerate_basis(pair_ms, N_max=2, n_max=2, with_spin=False)
    for m in range(4):
        a = annihilation_matrix(m, basis)
        comm = (a @ adjoint(a) - adjoint(a) @ a).toarray()
        for i, occ in enumerate(basis.occupation_array()):
            if occ[m] < basis.n_max and sum(occ) < basis.N_max:
                col = np.zeros(basis.dimension)
                col[i] = 1.0
                assert np.allclose(comm @ col, col, atol=1e-14)


# -- diagonal observables -------------------------------------------------------


def test_counting_operators_on_vacuum(pair_ms):
    basis = enumerate_basis(pair_ms, N_max=2, n_max=2, with_spin=False)
    nf = number_operator(basis)
    hf = field_energy(basis, [1.0, 1.0])
    pf = field_momentum(basis)
    assert nf[0, 0] == 0 and hf[0, 0] == 0
    assert all(op[0, 0] == 0 for op in pf)


def test_single_quantum_eigenvalues(tiny_ms):
    basis = enumerate_basis(tiny_ms, N_max=1, n_max=1, with_spin=False)
    hf = field_energy(basis, [1.0])   # massless omega at |k| = 1
    pf = field_momentum(basis)
    i = rank(basis, OccupationState((1, 0), None))
    assert hf[i, i] == pytest.approx(1.0)
    assert (pf[0][i, i], pf[1][i, i], pf[2][i, i]) == (0.0, 0.0, 1.0)


def test_field_momentum_cancels_for_opposite_photons(pair_ms):
    basis = enumerate_basis(pair_ms, N_max=2, n_max=2, with_spin=False)
    occ = [0] * 4
    occ[0] = 1   # photon at +z
    occ[2] = 1   # photon at -z
    i = rank(basis, OccupationState(tuple(occ), None))
    pf = field_momentum(basis)
    assert all(op[i, i] == 0.0 for op in pf)


def test_counting_operators_commute_exactly(pair_ms):
    basis = enumerate_basis(pair_ms, N_max=2, n_max=2, with_spin=True)
    nf = number_operator(basis)
    hf = field_energy(basis, [np.sqrt(2.0), np.sqrt(2.0)])
    ops = [nf, hf, *field_momentum(basis)]
    for x in ops:
        assert hermiticity_defect(x) == 0.0
        assert np.allclose(x.toarray().imag, 0.0)
        for y in ops:
            assert (x @ y - y @ x).nnz == 0


def _stored(entries, hermitian, complex_values):
    """COO triplets with at most two stored copies per entry (a sum of two is
    the same in any order); for a Hermitian matrix each copy at (i, j) has
    its conjugate at (j, i), so the sums are conjugate too."""
    rows, cols, vals = [], [], []
    for (i, j), copies in entries.items():
        if hermitian and i > j:
            continue
        for v in copies:
            v = complex(*v) if complex_values else v[0]
            if hermitian and i == j:
                v = complex(v).real
            rows.append(i)
            cols.append(j)
            vals.append(v)
            if hermitian and i != j:
                rows.append(j)
                cols.append(i)
                vals.append(np.conj(v))
    dtype = complex if complex_values else float
    return np.array(rows, dtype=int), np.array(cols, dtype=int), np.array(vals, dtype=dtype)


def _compressed(rows, cols, vals, n, order, fmt):
    """The triplets in ``order`` as COO, or as CSR or CSC built from the raw
    arrays, so that duplicates and unsorted indices stay stored."""
    rows, cols, vals = rows[order], cols[order], vals[order]
    if fmt == "coo":
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    major, minor = (rows, cols) if fmt == "csr" else (cols, rows)
    by_major = np.argsort(major, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(major, minlength=n))])
    cls = sp.csr_matrix if fmt == "csr" else sp.csc_matrix
    return cls((vals[by_major], minor[by_major], indptr), shape=(n, n))


VALUE = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 6), hermitian=st.booleans(),
       complex_values=st.booleans(), fmt=st.sampled_from(["coo", "csr", "csc"]))
def test_hermiticity_defect_equals_the_sparse_subtraction(data, n, hermitian, complex_values,
                                                          fmt):
    entries = {}
    if n:
        entries = data.draw(st.dictionaries(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            st.lists(st.tuples(VALUE, VALUE), min_size=1, max_size=2), max_size=12))
    rows, cols, vals = _stored(entries, hermitian, complex_values)
    order = np.array(data.draw(st.permutations(range(len(vals)))), dtype=int)
    A = _compressed(rows, cols, vals, n, order, fmt)
    got = hermiticity_defect(A)
    assert got == subtraction_hermiticity_defect(A)
    if hermitian:
        assert got == 0.0


def test_field_energy_needs_one_omega_per_kpoint(pair_ms):
    basis = enumerate_basis(pair_ms, N_max=1, n_max=1, with_spin=False)
    with pytest.raises(ValueError, match="one omega per k-point"):
        field_energy(basis, [1.0])


# -- spin tensoring --------------------------------------------------------------


def test_sigma3_on_vacuum_pair(tiny_ms):
    # spin-major ordering: the spin-up vacuum comes first
    basis = enumerate_basis(tiny_ms, N_max=0, n_max=1, with_spin=True)
    up, down = basis.vacuum_indices()
    s3 = sp.kron(PAULI[3], sp.identity(basis.boson_dimension), format="csr")
    assert s3[up, up] == 1.0 and s3[down, down] == -1.0


def test_sigma1_squares_to_identity(tiny_ms):
    basis = enumerate_basis(tiny_ms, N_max=1, n_max=1, with_spin=True)
    s1 = sp.kron(PAULI[1], np.eye(basis.boson_dimension), format="csr")
    assert np.allclose((s1 @ s1).toarray(), np.eye(basis.dimension), atol=1e-15)


def test_sigma_dot_v_squared_is_v_squared(tiny_ms):
    basis = enumerate_basis(tiny_ms, N_max=1, n_max=1, with_spin=True)
    v = np.array([0.3, -0.2, 0.5])
    eye_b = np.eye(basis.boson_dimension)
    sv = sum((v[mu] * sp.kron(PAULI[mu + 1], eye_b, format="csr") for mu in range(3)))
    dense = (sv @ sv).toarray()
    assert np.allclose(dense, (v @ v) * np.eye(basis.dimension), atol=1e-15)


def test_spin_tensor_dimension_mismatch(tiny_ms):
    basis = enumerate_basis(tiny_ms, N_max=1, n_max=1, with_spin=True)
    with pytest.raises(BasisMismatchError):
        spin_tensor(sp.identity(basis.dimension, format="csr"), basis)


def test_spin_tensor_on_spinless_is_the_boson_operator(tiny_ms):
    basis = enumerate_basis(tiny_ms, N_max=1, n_max=1, with_spin=False)
    T = sp.random(basis.boson_dimension, basis.boson_dimension, density=0.5, format="csr",
                  random_state=0)
    out = spin_tensor(T, basis)
    assert out.format == "csr" and out.dtype == T.dtype and (out != T).nnz == 0