import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qracsim.qcore import (
    DensityMatrix,
    Ket,
    F_from_f,
    apply,
    bell_state,
    entanglement_fidelity,
    expectation,
    f_from_F,
)
from reference import states_equal

X2 = np.array([[0, 1], [1, 0]], dtype=complex)


def pure(ket):
    return DensityMatrix(np.outer(ket.amplitudes, ket.amplitudes.conj()))


def random_density(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


class TestTypes:
    def test_ket_rejects_unnormalised(self):
        with pytest.raises(ValueError):
            Ket(np.array([1.0, 1.0]))

    def test_ket_rejects_nan(self):
        with pytest.raises(ValueError):
            Ket(np.array([np.nan, 0.0]))

    def test_density_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


class TestBellState:
    def test_d2_amplitudes(self):
        v = bell_state(2).amplitudes
        assert np.allclose(v, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_d3_positions(self):
        v = bell_state(3).amplitudes
        expected = np.zeros(9)
        expected[[0, 4, 8]] = 1 / np.sqrt(3)
        assert np.allclose(v, expected)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_reduced_state_is_maximally_mixed(self, d):
        # amplitudes as a d x d matrix M: the reduced states are M M^dag and M^T M^*
        m = bell_state(d).amplitudes.reshape(d, d)
        for reduced in (m @ m.conj().T, m.T @ m.conj()):
            assert np.allclose(reduced, np.eye(d) / d, atol=1e-12)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            bell_state(1)


def _random_operator(dim, rng):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _random_state(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _full_operator(op, sites, dims):
    """Independent oracle: kron(op, 1) on the sites-first ordering, conjugated
    by the explicit permutation matrix that restores the tensor order."""
    rest = [i for i in range(len(dims)) if i not in sites]
    order = list(sites) + rest
    full = np.kron(op, np.eye(int(np.prod([dims[i] for i in rest]))))
    total = int(np.prod(dims))
    perm = np.zeros((total, total))
    for index in np.ndindex(*dims):
        permuted = np.ravel_multi_index([index[i] for i in order], [dims[i] for i in order])
        perm[permuted, np.ravel_multi_index(index, dims)] = 1
    return perm.T @ full @ perm


def _tensordot_reference(op, sites, state, dims):
    """The contraction as np.tensordot and np.moveaxis write it."""
    k = len(sites)
    local = [dims[s] for s in sites]
    out = np.tensordot(op.reshape(local + local), state.reshape(dims), axes=(list(range(k, 2 * k)), list(sites)))
    return np.moveaxis(out, list(range(k)), list(sites)).reshape(state.shape)


@st.composite
def _contractions(draw):
    """(op, sites, state, dims): up to 8 sites of dimension at most 4, a
    random operator on a random ordered subset of them, and a state given as
    a vector or as a tensor."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=8).filter(lambda ds: np.prod(ds) <= 4096))
    sites = draw(st.permutations(range(len(dims))))[: draw(st.integers(1, min(len(dims), 3)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    local = int(np.prod([dims[s] for s in sites]))
    op = rng.standard_normal((local, local))
    if not draw(st.booleans()):  # complex; otherwise real, converted by apply
        op = op + 1j * rng.standard_normal((local, local))
    if draw(st.booleans()):
        op = op.T  # an F-ordered view
    state = rng.standard_normal(int(np.prod(dims))) + 1j * rng.standard_normal(int(np.prod(dims)))
    if draw(st.booleans()):
        state = state.reshape(dims)
    return op, sites, state, dims


class TestApply:
    @settings(max_examples=300, deadline=None)
    @given(case=_contractions())
    def test_bitwise_equal_to_tensordot(self, case):
        op, sites, state, dims = case
        expected = _tensordot_reference(np.asarray(op, dtype=complex), sites, state, dims)
        got = apply(op, sites, state, dims)
        assert got.shape == state.shape
        assert got.tobytes() == expected.tobytes()

    def test_single_site_matches_kron(self):
        rng = np.random.default_rng(4)
        psi = _random_state(4, rng)
        assert np.allclose(apply(X2, (0,), psi, [2, 2]), np.kron(X2, np.eye(2)) @ psi)
        assert np.allclose(apply(X2, (1,), psi, [2, 2]), np.kron(np.eye(2), X2) @ psi)

    def test_two_site_permutation(self):
        rng = np.random.default_rng(5)
        op = _random_operator(4, rng)
        psi = _random_state(8, rng)
        assert np.allclose(apply(op, (0, 1), psi, [2, 2, 2]), np.kron(op, np.eye(2)) @ psi)
        # acting on sites (1, 0) swaps the tensor factors of the operator
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[j * 2 + i, i * 2 + j] = 1
        expected = np.kron(swap @ op @ swap.T, np.eye(2)) @ psi
        assert np.allclose(apply(op, (1, 0), psi, [2, 2, 2]), expected)

    @pytest.mark.parametrize(
        "dims,sites",
        [([2, 3, 2], (2,)), ([2, 3, 2], (2, 0)), ([3, 2, 2, 3], (3, 1)), ([2, 3, 2, 2], (1, 3, 0)), ([3, 2, 2], (1, 2, 0))],
    )
    def test_random_operator_on_permuted_sites(self, dims, sites):
        rng = np.random.default_rng(sum(dims) * 10 + len(sites))
        op = _random_operator(int(np.prod([dims[s] for s in sites])), rng)
        psi = _random_state(int(np.prod(dims)), rng)
        full = _full_operator(op, sites, dims)
        assert np.allclose(apply(op, sites, psi, dims), full @ psi, atol=1e-12)
        # the same contraction on a state given as a tensor keeps its shape
        tensor = psi.reshape(dims)
        assert np.allclose(apply(op, sites, tensor, dims), (full @ psi).reshape(dims), atol=1e-12)
        assert expectation(op, sites, psi, dims) == pytest.approx(np.vdot(psi, full @ psi), abs=1e-12)
        ket = _random_state(psi.size, rng)
        assert expectation(op, sites, psi, dims, ket=ket) == pytest.approx(np.vdot(psi, full @ ket), abs=1e-12)

    def test_expectation_of_hermitian_is_real(self):
        rng = np.random.default_rng(9)
        g = _random_operator(4, rng)
        psi = _random_state(16, rng)
        value = expectation(g + g.conj().T, (3, 1), psi, [2, 2, 2, 2])
        assert abs(value.imag) < 1e-12

    def test_rejects_bad_sites(self):
        psi = np.array([1, 0, 0, 0], dtype=complex)
        with pytest.raises(ValueError):
            apply(X2, (3,), psi, [2, 2])
        with pytest.raises(ValueError):
            apply(X2, (0, 0), psi, [2, 2])
        with pytest.raises(ValueError):
            apply(np.kron(X2, X2), (0,), psi, [2, 2])
        with pytest.raises(ValueError):
            apply(X2, (0,), psi[:3], [2, 2])


class TestEntanglementFidelity:
    def test_bell_is_one(self):
        assert entanglement_fidelity(pure(bell_state(2))) == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_maximally_mixed(self, d):
        rho = DensityMatrix(np.eye(d * d) / d**2)
        assert entanglement_fidelity(rho) == pytest.approx(1 / d**2)

    def test_shifted_bell_is_orthogonal(self):
        ket = Ket(np.kron(X2, np.eye(2)) @ bell_state(2).amplitudes)
        assert entanglement_fidelity(pure(ket)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_range_on_random_states(self, d):
        rng = np.random.default_rng(9)
        for _ in range(100):
            f = entanglement_fidelity(random_density(d * d, rng))
            assert 0.0 <= f <= 1.0

    def test_rejects_non_square_dimension(self):
        with pytest.raises(ValueError):
            entanglement_fidelity(DensityMatrix(np.eye(6) / 6))


class TestFidelityConversion:
    def test_perfect(self):
        for d in range(2, 7):
            assert f_from_F(1, d) == 1

    def test_quarter_qubit(self):
        assert f_from_F(Fraction(1, 4), 2) == Fraction(1, 2)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_maximally_mixed_value(self, d):
        # rational oracle: (d/d^2 + 1)/(d + 1) simplifies to 1/d
        assert f_from_F(Fraction(1, d * d), d) == Fraction(1, d)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_inverse_dimension_value(self, d):
        # rational oracle: (d/d + 1)/(d + 1) simplifies to 2/(d + 1)
        assert f_from_F(Fraction(1, d), d) == Fraction(2, d + 1)

    @settings(max_examples=60, deadline=None)
    @given(
        num=st.integers(0, 1000),
        den=st.integers(1, 1000),
        d=st.integers(2, 9),
    )
    def test_round_trip_exact(self, num, den, d):
        f_val = Fraction(num, den * 1000 + num)  # arbitrary rational in [0, 1)
        assert f_from_F(F_from_f(f_val, d), d) == f_val
        assert F_from_f(f_from_F(f_val, d), d) == f_val


class TestStatesEqual:
    def test_global_phase_ignored(self):
        a = bell_state(3)
        b = Ket(np.exp(1j * 0.7) * a.amplitudes)
        assert states_equal(a, b)

    def test_distinct_states(self):
        a = Ket(np.array([1, 0], dtype=complex))
        b = Ket(np.array([0, 1], dtype=complex))
        assert not states_equal(a, b)

