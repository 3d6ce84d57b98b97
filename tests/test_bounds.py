import cmath
import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qracsim.bounds import (
    AsymSpec,
    asym_closed_form_n2,
    asym_optimize,
    kay_constraint_residual,
    kay_feasibility_scan,
    symmetric_bound,
    symmetric_bound_via_cloning,
    werner_fidelity,
)
from qracsim import bounds
from qracsim.qcore import bell_state
from reference import expectation, fully_entangled_fraction, kay_density_matrix_residuals, weyl


class TestWernerFidelity:
    def test_one_to_two_qubits(self):
        assert werner_fidelity(1, 2, 2) == Fraction(5, 6)

    def test_no_extra_clones_is_perfect(self):
        for n in (1, 2, 3):
            for d in (2, 3):
                assert werner_fidelity(n, n, d) == 1

    def test_one_to_three_qubits(self):
        # rational oracle: 1/3 + (2*2)/(3*3)
        assert werner_fidelity(1, 3, 2) == Fraction(1, 3) + Fraction(4, 9)

    def test_nonincreasing_in_output_count(self):
        for d in (2, 3, 4):
            values = [werner_fidelity(1, n2, d) for n2 in range(1, 7)]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert all(v < 1 for v in values[1:])

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            werner_fidelity(3, 2, 2)


class TestSymmetricBound:
    def test_two_qubit_inputs(self):
        assert symmetric_bound(2, 2) == Fraction(3, 4)

    def test_single_receiver(self):
        for d in (2, 3, 5):
            assert symmetric_bound(d, 1) == 1

    def test_two_qutrit_inputs(self):
        assert symmetric_bound(3, 2) == Fraction(2, 3)

    @pytest.mark.parametrize("d", range(2, 6))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_cloning_chain(self, d, n):
        # exact rational agreement of the direct formula with the
        # cloning-fidelity route through the f -> F conversion
        assert symmetric_bound(d, n) == symmetric_bound_via_cloning(d, n)
        assert symmetric_bound(d, n) == Fraction(n + d - 1, d * n)


class TestKayResidual:
    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2)])
    def test_symmetric_point_is_boundary(self, d, n):
        f_sym = float(symmetric_bound(d, n))
        residual = kay_constraint_residual([f_sym] * n, d)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_zero_fidelities(self):
        for d in (2, 3):
            assert kay_constraint_residual([0.0, 0.0], d) == pytest.approx((d - 1) / d)

    def test_perfect_fidelities_infeasible(self):
        assert kay_constraint_residual([1.0, 1.0], 2) == pytest.approx(0.5 + 4 / 3 - 2)
        assert kay_constraint_residual([1.0, 1.0], 2) < 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            kay_constraint_residual([1.5, 0.0], 2)

    def test_stack_reduces_over_last_axis(self):
        rows = [[0.3, 0.9], [0.5, 0.5], [1.0, 0.0]]
        stacked = kay_constraint_residual(rows, 2)
        assert stacked.shape == (3,)
        assert np.allclose(stacked, [kay_constraint_residual(r, 2) for r in rows], rtol=0, atol=1e-15)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            kay_constraint_residual([[0.5, 0.5], [np.nan, 0.5]], 2)


class TestClosedFormN2:
    def test_balanced_qubits(self):
        assert asym_closed_form_n2(0.5, 2) == pytest.approx(0.75, abs=1e-12)

    def test_degenerate_endpoints(self):
        for d in (2, 3):
            assert asym_closed_form_n2(0.0, d) == pytest.approx(1.0)
            assert asym_closed_form_n2(1.0, d) == pytest.approx(1.0)

    def test_quarter(self):
        assert asym_closed_form_n2(0.25, 2) == pytest.approx(0.5 * (1 + np.sqrt(1 - 9 / 16)), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(0, 1), d=st.integers(2, 6))
    def test_symmetric_and_minimised_at_half(self, p, d):
        assert asym_closed_form_n2(p, d) == pytest.approx(asym_closed_form_n2(1 - p, d), abs=1e-12)
        assert asym_closed_form_n2(p, d) >= asym_closed_form_n2(0.5, d) - 1e-12


def _surface(n, d):
    return np.eye(n) - np.ones((n, n)) / (n + d - 1), (d - 1) / d


class TestAsymOptimize:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 0.7, 1.0])
    def test_matches_closed_form(self, d, p):
        optimum = asym_optimize(AsymSpec(d=d, probabilities=(p, 1 - p)))
        assert optimum.value == pytest.approx(asym_closed_form_n2(p, d), abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_uniform_matches_symmetric_bound(self, d, n):
        optimum = asym_optimize(AsymSpec(d=d, probabilities=(1 / n,) * n))
        assert optimum.value == pytest.approx(float(symmetric_bound(d, n)), abs=1e-12)

    def test_all_weight_on_one_receiver(self):
        optimum = asym_optimize(AsymSpec(d=2, probabilities=(1.0, 0.0)))
        assert optimum.value == pytest.approx(1.0, abs=1e-12)
        assert max(optimum.point) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2.5, 2.0])
    def test_rejects_a_dimension_that_is_not_an_integer(self, d):
        with pytest.raises(ValueError, match="^dimension must be an integer, got 2.[05]$"):
            AsymSpec(d=d, probabilities=(0.5, 0.5))

    def test_numpy_integer_dimension_passes(self):
        spec = AsymSpec(d=np.int64(3), probabilities=(0.2, 0.8))
        assert type(spec.d) is int
        assert asym_optimize(spec) == asym_optimize(AsymSpec(d=3, probabilities=(0.2, 0.8)))

    def test_deterministic(self):
        spec = AsymSpec(d=2, probabilities=(0.3, 0.7))
        assert asym_optimize(spec) == asym_optimize(spec)

    def test_point_is_feasible(self):
        optimum = asym_optimize(AsymSpec(d=3, probabilities=(0.2, 0.3, 0.5)))
        x = np.array(optimum.point)
        assert np.all(x >= -1e-12) and np.all(x <= 1 + 1e-12)
        q, c = _surface(len(x), 3)
        assert x @ q @ x == pytest.approx(c, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_on_surface_in_box_and_not_beaten(self, n):
        rng = np.random.default_rng(100 + n)
        for d in (2, 3, 5, 9):
            p = rng.dirichlet(np.ones(n))
            optimum = asym_optimize(AsymSpec(d=d, probabilities=tuple(p / p.sum())))
            x = np.array(optimum.point)
            q, c = _surface(n, d)
            assert abs(x @ q @ x - c) <= 1e-12
            assert np.all(x >= -1e-12) and np.all(x <= 1 + 1e-12)
            assert optimum.value == pytest.approx(float(p @ x**2), abs=1e-12)
            # seeded random feasible points, uniform and near the maximiser:
            # directions scaled onto the surface, kept when inside the box
            y = np.vstack([rng.uniform(0, 1, (2000, n)), np.abs(x + rng.normal(0, 0.02, (2000, n)))])
            y *= np.sqrt(c / np.einsum("ij,jk,ik->i", y, q, y))[:, None]
            feasible = y[np.all(y <= 1, axis=1)]
            assert len(feasible) > 0
            assert np.max(feasible**2 @ p) <= optimum.value + 1e-12

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AsymSpec(d=2, probabilities=(0.5, 0.6))
        with pytest.raises(ValueError):
            AsymSpec(d=2, probabilities=(1.0,))
        with pytest.raises(ValueError):
            asym_optimize(AsymSpec(d=2, probabilities=(1 / 9,) * 9))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_spec_rejects_non_finite_probabilities(self, bad):
        # nan slips past both x < 0 and the sum check unless tested for itself
        with pytest.raises(ValueError, match="finite"):
            AsymSpec(d=2, probabilities=(bad, 0.5, 0.5))
        with pytest.raises(ValueError, match="finite"):
            AsymSpec(d=3, probabilities=(0.5, bad))


def pure(ket):
    return np.outer(ket, ket.conj())


def bell_diagonal(weights):
    psi = bell_state(2)
    labels = [(0, 0), (0, 1), (1, 0), (1, 1)]
    rho = np.zeros((4, 4), dtype=complex)
    for w, (a, b) in zip(weights, labels):
        v = np.kron(weyl(2, a, b), np.eye(2)) @ psi
        rho += w * np.outer(v, v.conj())
    return rho


class TestFullyEntangledFraction:
    def test_bell_state(self):
        rho = pure(bell_state(2))
        assert fully_entangled_fraction(rho) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed(self):
        assert fully_entangled_fraction(np.eye(4) / 4) == pytest.approx(0.25, abs=1e-10)

    def test_bell_diagonal_weights(self):
        rho = bell_diagonal([0.7, 0.1, 0.1, 0.1])
        assert fully_entangled_fraction(rho) == pytest.approx(0.7, abs=1e-10)

    def test_qutrit_bell_state(self):
        # only the exact two-qubit formula is implemented; larger inputs raise
        rho = pure(bell_state(3))
        with pytest.raises(ValueError):
            fully_entangled_fraction(rho)

    def test_magic_formula_agrees_with_unitary_ascent(self):
        # independent oracle: Procrustes ascent over (U (x) 1)|psi+> directly
        def ascent(matrix, d=2, tries=8, seed=23):
            rng = np.random.default_rng(seed)
            best = 0.0
            for _ in range(tries):
                z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                u = np.linalg.qr(z)[0]
                for _ in range(300):
                    w, _, vh = np.linalg.svd((matrix @ u.reshape(-1)).reshape(d, d))
                    u = w @ vh
                vec = u.reshape(-1)
                best = max(best, float(np.real(np.vdot(vec, matrix @ vec)) / d))
            return best

        rng = np.random.default_rng(17)
        for _ in range(5):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = g @ g.conj().T
            rho = m / np.trace(m).real
            assert fully_entangled_fraction(rho) == pytest.approx(ascent(rho), abs=1e-9)

    def test_stack_matches_single_calls(self):
        rng = np.random.default_rng(29)
        mats = []
        for _ in range(5):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = g @ g.conj().T
            mats.append(m / np.trace(m).real)
        mats.append(bell_diagonal([0.7, 0.1, 0.1, 0.1]))
        values = fully_entangled_fraction(np.array(mats).reshape(2, 3, 4, 4))
        assert values.shape == (2, 3)
        singles = [fully_entangled_fraction(m) for m in mats]
        assert np.allclose(values.reshape(-1), singles, rtol=0, atol=1e-12)

    def test_stack_of_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="two qubits"):
            fully_entangled_fraction(np.zeros((3, 9, 9)))


class TestMonogamyScan:
    def test_residuals_nonnegative(self):
        scan = kay_feasibility_scan(n_states=100, seed=20220314)
        assert scan.min_residual >= -1e-9
        assert scan.n_states == 100

    def test_deterministic(self):
        a = kay_feasibility_scan(n_states=20, seed=5)
        b = kay_feasibility_scan(n_states=20, seed=5)
        assert a == b

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_bad_seed(self, seed):
        # random.Random would take abs(-1) or hash 1.5 and run on
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            kay_feasibility_scan(n_states=2, seed=seed)

    @pytest.mark.parametrize("n_states", [2.5, 2.0, "2"])
    def test_rejects_a_state_count_that_is_not_an_integer(self, n_states):
        with pytest.raises(ValueError, match="^n_states must be an integer, got "):
            kay_feasibility_scan(n_states=n_states, seed=2)

    def test_numpy_integer_state_count_passes(self):
        scan = kay_feasibility_scan(n_states=np.int64(3), seed=2)
        assert type(scan.n_states) is int
        assert scan == kay_feasibility_scan(n_states=3, seed=2)

    @pytest.mark.parametrize("seed", [20220314, 1, 7])
    def test_every_residual_matches_density_matrix_route(self, seed, monkeypatch):
        # the Gram route against marginals by einsum, the magic basis and a complex eigvalsh. Every
        # fraction is at least 1/4, where the residual's slope in each fraction lies in [-1, 0], so
        # a fraction error of 1.4e-15 moves a residual by at most 2.8e-15
        n_states = 500
        monkeypatch.setattr(bounds, "KAY_SCAN_HEAD", n_states)
        scan = kay_feasibility_scan(n_states=n_states, seed=seed)
        expected = kay_density_matrix_residuals(n_states, seed)
        assert len(scan.residuals_head) == n_states
        assert np.max(np.abs(np.array(scan.residuals_head) - expected)) <= 1e-14
        assert abs(scan.min_residual - expected.min()) <= 1e-14

    @pytest.mark.parametrize("seed", [20220314, 7])
    def test_every_residual_matches_per_state_oracle(self, seed, monkeypatch):
        # independent route: each state's 16 uniforms in the documented order,
        # Box-Muller by log1p and cmath.rect, and each marginal entry
        # rho[i, j] = <psi|(|j><i|)_{A_k C}|psi> by reference.expectation
        n_states = 60
        uniform = random.Random(seed).random
        units = np.eye(4)
        expected = []
        for _ in range(n_states):
            u = [uniform() for _ in range(16)]
            pairs = zip(u[::2], u[1::2])
            v = np.array([cmath.rect(math.sqrt(-2 * math.log1p(-u1)), 2 * math.pi * u2) for u1, u2 in pairs])
            psi = v / np.linalg.norm(v)
            fidelities = []
            for sites in ((0, 2), (1, 2)):
                rho = [[expectation(np.outer(units[j], units[i]), sites, psi, [2, 2, 2]) for j in range(4)] for i in range(4)]
                fidelities.append(fully_entangled_fraction(np.array(rho)))
            expected.append(kay_constraint_residual(fidelities, 2))
        monkeypatch.setattr(bounds, "KAY_SCAN_HEAD", n_states)
        scan = kay_feasibility_scan(n_states=n_states, seed=seed)
        assert len(scan.residuals_head) == n_states
        assert np.allclose(scan.residuals_head, expected, rtol=0, atol=1e-12)
        assert scan.min_residual == pytest.approx(min(expected), rel=0, abs=1e-12)

    def test_bytes_do_not_depend_on_numpy_simd_dispatch(self, child_env):
        # the draw is scalar math and the norm fuses no complex product, so switching numpy's
        # dispatched kernels off must not move a bit
        try:
            from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        except ImportError:  # numpy < 2
            from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        dispatched = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
        if not dispatched:
            pytest.skip("numpy dispatches no optional CPU feature on this machine")
        # every residual, not only the reported head and minimum, which a last-bit move can miss
        code = "from qracsim import bounds; bounds.KAY_SCAN_HEAD = 500; print(repr(bounds.kay_feasibility_scan(500, 20220314)))"
        outputs = []
        for disabled in ("", " ".join(dispatched)):
            env = {**child_env, "NPY_DISABLE_CPU_FEATURES": disabled}
            run = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]
