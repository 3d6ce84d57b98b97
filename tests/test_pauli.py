import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qracsim.qcore import bell_state
from reference import (
    bell_basis,
    clock_z,
    dft,
    frac_power_x,
    frac_power_z,
    overlap,
    shift_x,
    weyl,
)


class TestShiftAndClock:
    def test_d2_are_standard_paulis(self):
        assert np.array_equal(shift_x(2).real, [[0, 1], [1, 0]])
        assert np.allclose(clock_z(2), np.diag([1, -1]))

    def test_shift_wraps(self):
        ket2 = np.array([0, 0, 1], dtype=complex)
        assert np.allclose(shift_x(3) @ ket2, [1, 0, 0])

    @pytest.mark.parametrize("d", range(2, 7))
    def test_commutation_phase(self, d):
        omega = np.exp(2j * np.pi / d)
        assert np.allclose(clock_z(d) @ shift_x(d), omega * shift_x(d) @ clock_z(d), atol=1e-12)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_order_d(self, d):
        assert np.allclose(np.linalg.matrix_power(shift_x(d), d), np.eye(d), atol=1e-12)
        assert np.allclose(np.linalg.matrix_power(clock_z(d), d), np.eye(d), atol=1e-12)


class TestDft:
    def test_d2_is_hadamard(self):
        assert np.allclose(dft(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_unitary(self, d):
        f = dft(d)
        assert np.allclose(f @ f.conj().T, np.eye(d), atol=1e-12)
        # built once per d and shared, so no caller may write to it
        assert dft(d) is f
        assert not f.flags.writeable

    @pytest.mark.parametrize("d", range(2, 7))
    def test_conjugation_direction(self, d):
        # fixes the convention: F^dag diag(omega^k) F equals the shift
        f = dft(d)
        diag = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
        assert np.allclose(f.conj().T @ diag @ f, shift_x(d), atol=1e-12)


class TestFractionalPowers:
    def test_sqrt_x_qubit(self):
        # independent spectral oracle: eigenvectors |+>, |-> with branch values 1, i
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        oracle = np.outer(plus, plus) + 1j * np.outer(minus, minus)
        assert np.allclose(frac_power_x(2, 0.5), oracle, atol=1e-12)
        expected = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2
        assert np.allclose(frac_power_x(2, 0.5), expected, atol=1e-12)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_zero_power_is_identity(self, d):
        assert np.allclose(frac_power_x(d, 0), np.eye(d), atol=1e-12)
        assert np.allclose(frac_power_z(d, 0), np.eye(d), atol=1e-12)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_square_of_square_root(self, d):
        half = frac_power_x(d, 0.5)
        assert np.allclose(half @ half, shift_x(d), atol=1e-12)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_integer_powers_exact(self, d):
        for t in range(d + 1):
            assert np.allclose(frac_power_x(d, t), np.linalg.matrix_power(shift_x(d), t), atol=1e-12)
            assert np.allclose(frac_power_z(d, t), np.linalg.matrix_power(clock_z(d), t), atol=1e-12)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_unitarity_on_grid(self, d):
        for j in range(2 * d):
            t = Fraction(j, d)
            for m in (frac_power_x(d, t), frac_power_z(d, t)):
                assert np.allclose(m @ m.conj().T, np.eye(d), atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 6), js=st.tuples(st.integers(0, 12), st.integers(0, 12)))
    def test_branch_additivity(self, d, js):
        s, t = Fraction(js[0], d), Fraction(js[1], d)
        lhs = frac_power_x(d, s) @ frac_power_x(d, t)
        assert np.allclose(lhs, frac_power_x(d, s + t), atol=1e-12)

    @pytest.mark.parametrize("d", range(2, 6))
    def test_periodicity(self, d):
        assert np.allclose(frac_power_x(d, 0.3), frac_power_x(d, 0.3 + d), atol=1e-12)


class TestBellBasis:
    def test_zero_label_is_plus_state(self):
        elem = bell_basis(2)[0]
        assert np.allclose(elem, bell_state(2))

    def test_d2_pairwise_orthogonal(self):
        basis = bell_basis(2)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert abs(overlap(a, b)) == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_gram_matrix_is_identity(self, d):
        basis = bell_basis(d)
        gram = np.array([[overlap(a, b) for b in basis] for a in basis])
        assert np.allclose(gram, np.eye(d * d), atol=1e-12)


class TestWeyl:
    def test_xz_qubit(self):
        assert np.allclose(weyl(2, 1, 1), [[0, -1], [1, 0]], atol=1e-12)

    def test_quarter_powers_overlap_value(self):
        psi = bell_state(2)
        w = np.kron(weyl(2, 0.25, 0.25), np.eye(2))
        overlap = abs(np.vdot(psi, w @ psi)) ** 2
        assert overlap == pytest.approx((3 + 2 * np.sqrt(2)) / 8, abs=1e-12)

    @pytest.mark.parametrize("d", range(2, 6))
    def test_normalised_trace_detects_identity_label(self, d):
        for a in range(d):
            for b in range(d):
                value = abs(np.trace(weyl(d, a, b)) / d) ** 2
                expected = 1.0 if (a, b) == (0, 0) else 0.0
                assert value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("d", range(2, 6))
    def test_integer_weyl_is_permutation_with_phases(self, d):
        for a in range(d):
            for b in range(d):
                w = weyl(d, a, b)
                mags = np.abs(w)
                assert np.allclose(np.sort(mags, axis=0)[-1], 1.0, atol=1e-12)
                assert np.allclose((mags > 1e-9).sum(axis=0), 1)
