import json
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qracsim import teleport
from qracsim.qcore import f_from_F
from qracsim.teleport import (
    _bell_frame,
    _composite_full_state_fidelity,
    _pair_frame,
    _weyl,
    composite_nsqrac_via_qracse,
    constrained_teleport_fidelity,
    nsqrac_favored_strategy,
    nsqrac_split_strategy,
)
from reference import (
    complement_route_fidelity,
    composite_full_state_fidelity,
    constrained_povm,
    frac_power_x,
    frac_power_z,
    weyl,
)

GRAY_D2_VALUE = (3 + 2 * np.sqrt(2)) / 8


class TestConstrainedPovm:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_completeness_and_positivity(self, d):
        for k in {1, 2, d * d - 1, d * d}:
            povm = constrained_povm(d, k)
            total = sum(povm)
            assert np.max(np.abs(total - np.eye(d * d))) < 1e-10
            for element in povm:
                assert np.linalg.eigvalsh(0.5 * (element + element.conj().T))[0] > -1e-10

    def test_full_measurement_is_rank_one(self):
        d = 3
        povm = constrained_povm(d, d * d)
        for element in povm:
            eigs = np.linalg.eigvalsh(element)
            assert np.sum(eigs > 1e-9) == 1
            assert eigs[-1] == pytest.approx(1.0, abs=1e-10)

    def test_single_element_is_identity(self):
        povm = constrained_povm(2, 1)
        assert len(povm) == 1
        assert np.allclose(povm[0], np.eye(4), atol=1e-12)

    def test_d2_k3_sums_to_identity(self):
        povm = constrained_povm(2, 3)
        assert np.max(np.abs(sum(povm) - np.eye(4))) < 1e-12

    def test_k_out_of_range(self):
        for k in (5, 0):
            with pytest.raises(ValueError, match=rf"^k must lie in 1\.\.d\^2, got k={k} for d=2$"):
                constrained_teleport_fidelity(2, k)

    @pytest.mark.parametrize("d", [0, 1, 9])
    def test_dimension_outside_the_cap(self, d):
        with pytest.raises(ValueError, match="supported dimensions are 2 <= d <= 8"):
            constrained_teleport_fidelity(d, 1)

    @pytest.mark.parametrize("d", [2, 3])
    def test_cached_frame_and_elements_are_read_only(self, d):
        before = [constrained_teleport_fidelity(d, k).entanglement_fidelity_F for k in range(1, d * d + 1)]
        frame = _bell_frame(d)
        assert type(frame.overlaps) is tuple and len(frame.overlaps) == d * d
        for row in (*frame.overlaps, frame.probabilities):
            assert type(row) is tuple and len(row) == d * d
            assert all(type(x) is float for x in row)
        after = [constrained_teleport_fidelity(d, k).entanglement_fidelity_F for k in range(1, d * d + 1)]
        assert after == before

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_sweep_after_the_frame_builds_and_checks_nothing(self, monkeypatch, fresh_frames, d):
        # every F reads the frame: no (d, k) builds a Bell vector, checks the Gram matrix or takes a product
        _bell_frame(d)
        calls = []

        def counting(name):
            function = getattr(teleport, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)

            return wrapper

        for name in ("_weyl", "_pair_frame", "_product_sum"):
            monkeypatch.setattr(teleport, name, counting(name))
        for k in range(1, d * d + 1):
            constrained_teleport_fidelity(d, k)
        assert calls == []

    def test_frame_rejects_incomplete_projectors(self, monkeypatch, fresh_frames):
        # the last Bell vector repeats beta_0: each |beta><beta| is still a projector, but the
        # Gram matrix is no longer the identity, so the projectors no longer sum to 1
        weyl_ = teleport._weyl
        monkeypatch.setattr(teleport, "_weyl", lambda d, a, b: weyl_(d, 0, 0) if a == b == d - 1 else weyl_(d, a, b))
        with pytest.raises(ValueError, match="^Bell projectors do not sum to the identity$"):
            _bell_frame(2)


class TestConstrainedTeleportation:
    def test_repeated_calls_do_not_share_results(self):
        first = constrained_teleport_fidelity(3, 5)
        second = constrained_teleport_fidelity(3, 5)
        assert first is not second
        assert first.details is not second.details
        first.details["k"] = 99
        first.details["extra"] = True
        assert second.details == {"d": 3, "k": 5, "exact_float": 5 / 9}
        assert constrained_teleport_fidelity(3, 5).details == {"d": 3, "k": 5, "exact_float": 5 / 9}
        assert second.entanglement_fidelity_F == first.entanglement_fidelity_F

    @pytest.mark.parametrize("d", [2, 3])
    def test_fidelity_sweep(self, d):
        for k in range(1, d * d + 1):
            result = constrained_teleport_fidelity(d, k)
            assert result.exact == Fraction(k, d * d)
            assert abs(result.entanglement_fidelity_F - k / d**2) < 1e-10

    @pytest.mark.parametrize("d", [5, 6])
    def test_fidelity_sweep_large_dimension(self, d):
        for k in range(1, d * d + 1):
            assert abs(constrained_teleport_fidelity(d, k).entanglement_fidelity_F - k / d**2) < 1e-10

    def test_perfect_protocol(self):
        assert constrained_teleport_fidelity(2, 4).entanglement_fidelity_F == pytest.approx(1.0, abs=1e-10)

    def test_single_outcome(self):
        assert constrained_teleport_fidelity(2, 1).entanglement_fidelity_F == pytest.approx(0.25, abs=1e-10)

    def test_d3_k5(self):
        assert constrained_teleport_fidelity(3, 5).entanglement_fidelity_F == pytest.approx(5 / 9, abs=1e-10)

    def test_monotone_in_k(self):
        values = [constrained_teleport_fidelity(2, k).entanglement_fidelity_F for k in range(1, 5)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_transmission_fidelity_consistent(self):
        result = constrained_teleport_fidelity(2, 3)
        assert result.transmission_fidelity_f == pytest.approx((2 * 0.75 + 1) / 3, abs=1e-12)


@pytest.fixture
def fresh_frames():
    """Cold Bell frames for the test, and again after it."""
    _bell_frame.cache_clear()
    yield
    _bell_frame.cache_clear()


class TestOverlapMatrix:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_fidelity_matches_complement_route(self, d):
        for k in range(1, d * d + 1):
            fidelity = constrained_teleport_fidelity(d, k).entanglement_fidelity_F
            assert abs(fidelity - complement_route_fidelity(d, k)) <= 4.4e-16

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_column_sum_matches_complement_route_on_a_generic_state(self, monkeypatch, d):
        # on psi+ (x) psi+ every wrong-correction overlap Q[i][g], i != g, vanishes, so
        # only a generic frame state tells the complement's column sum from its diagonal
        rng = np.random.default_rng(d)
        generic = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        psi = generic / np.linalg.norm(generic)
        monkeypatch.setattr(teleport, "_bell_frame", lambda _: _pair_frame(d, psi))
        for k in range(1, d * d + 1):
            fidelity = constrained_teleport_fidelity(d, k).entanglement_fidelity_F
            assert abs(fidelity - complement_route_fidelity(d, k, psi)) <= 4.4e-16

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_frame_and_sweep_build_d2_weyl_operators(self, monkeypatch, fresh_frames, d):
        # one Bell vector per outcome, built once per d; no (d, k) builds one on its own
        calls = []
        weyl_ = teleport._weyl

        def counting(*args):
            calls.append(args[1:])
            return weyl_(*args)

        monkeypatch.setattr(teleport, "_weyl", counting)
        _bell_frame(d)
        for k in range(1, d * d + 1):
            constrained_teleport_fidelity(d, k)
        assert calls == [(a, b) for a in range(d) for b in range(d)]


# repr of entanglement_fidelity_F for every (d, k) with d = 2..5, the favored
# strategy and the split strategy with k' in {0, d, d^2} for d = 2..4
GOLDEN_TELEPORT = json.loads((Path(__file__).parent / "golden_teleport.json").read_text())
golden_cases = pytest.mark.parametrize(
    "case",
    GOLDEN_TELEPORT,
    ids=lambda c: c["strategy"] + "".join(f"-{key}{value}" for key, value in c.items() if key not in ("strategy", "F")),
)


def _golden_fidelity(case) -> float:
    if case["strategy"] == "constrained":
        result = constrained_teleport_fidelity(case["d"], case["k"])
    elif case["strategy"] == "favored":
        result = nsqrac_favored_strategy(case["d"])
    else:
        result = nsqrac_split_strategy(case["d"], case["k_prime"])
    return result.entanglement_fidelity_F


@golden_cases
def test_fidelity_matches_golden(case):
    assert repr(_golden_fidelity(case)) == case["F"]


@golden_cases
def test_fidelity_is_within_rounding_of_exact(case):
    d = case["d"]
    exact = {
        "constrained": Fraction(case.get("k", 0), d * d),
        "favored": (1 + Fraction(1, d * d)) / 2,
        "split": Fraction(1, 2),
    }[case["strategy"]]
    assert abs(Fraction(_golden_fidelity(case)) - exact) <= 1.2e-15


# the teleport layer's bytes, one line each: the repr of every golden F, every favored and
# split result for d = 2..4 and k' = 0..d^2, the composite result and a digest of each Bell frame
_TELEPORT_BYTES = """
import hashlib, json, sys
from qracsim import teleport as t
for case in json.loads(open(sys.argv[1]).read()):
    if case["strategy"] == "constrained":
        result = t.constrained_teleport_fidelity(case["d"], case["k"])
    elif case["strategy"] == "favored":
        result = t.nsqrac_favored_strategy(case["d"])
    else:
        result = t.nsqrac_split_strategy(case["d"], case["k_prime"])
    print(repr(result.entanglement_fidelity_F))
for d in range(2, 5):
    results = [t.nsqrac_favored_strategy(d)] + [t.nsqrac_split_strategy(d, k) for k in range(d * d + 1)]
    for result in results:
        print(json.dumps(result.to_json_dict(), sort_keys=True))
print(json.dumps(t.composite_nsqrac_via_qracse(2).to_json_dict(), sort_keys=True))
for d in range(2, 9):
    print(d, hashlib.sha256(repr(t._bell_frame(d)).encode()).hexdigest())
"""


def test_bytes_do_not_depend_on_blas_kernel_or_simd_dispatch(child_env):
    # the frame takes real products and fixed-axis sums only, so neither OpenBLAS's kernel nor
    # numpy's dispatched SIMD loops (which fuse a complex product into an FMA) may move a bit
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25 only prints its build configuration
        blas = {}
    settings = [{}, {"NPY_DISABLE_CPU_FEATURES": " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f))}]
    if "DYNAMIC_ARCH" in blas.get("openblas configuration", ""):
        settings += [{"OPENBLAS_CORETYPE": core} for core in ("Haswell", "Sandybridge", "Prescott")]
    else:
        warnings.warn(f"{blas.get('name')} is not a DYNAMIC_ARCH OpenBLAS: only one BLAS kernel was compared")
    argv = [sys.executable, "-c", _TELEPORT_BYTES, str(Path(__file__).parent / "golden_teleport.json")]
    outputs = {}
    for extra in settings:
        run = subprocess.run(argv, env={**child_env, **extra}, check=True, capture_output=True, text=True)
        outputs[" ".join(f"{k}={v}" for k, v in extra.items()) or "default"] = run.stdout.splitlines()
    default = outputs.pop("default")
    assert len(default) == len(GOLDEN_TELEPORT) + sum(d * d + 2 for d in range(2, 5)) + 1 + 7
    assert default[: len(GOLDEN_TELEPORT)] == [case["F"] for case in GOLDEN_TELEPORT]
    differ = {label: sum(a != b for a, b in zip(default, lines)) for label, lines in outputs.items() if lines != default}
    assert differ == {}, f"lines that differ from the default child's, of {len(default)}: {differ}"


class TestExactWeyl:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_equals_fractional_power_route(self, d):
        for a in range(d):
            for b in range(d):
                reference = frac_power_x(d, a) @ frac_power_z(d, b)
                assert np.max(np.abs(_weyl(d, a, b) - reference)) <= 1e-14

    @pytest.mark.parametrize("d", range(2, 9))
    def test_is_a_permutation_times_unit_phases(self, d):
        for a in range(d):
            for b in range(d):
                w = _weyl(d, a, b)
                nonzero = w != 0
                assert (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all()
                assert np.max(np.abs(np.abs(w[nonzero]) - 1.0)) <= 1e-15


class TestSplitStrategy:
    @pytest.mark.parametrize("d,k_prime", [(2, 0), (2, 2), (2, 4), (3, 0), (3, 4), (3, 9)])
    def test_always_half(self, d, k_prime):
        result = nsqrac_split_strategy(d, k_prime)
        assert result.exact == Fraction(1, 2)
        assert abs(result.entanglement_fidelity_F - 0.5) < 1e-10

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            nsqrac_split_strategy(2, 5)


class TestFavoredStrategy:
    @pytest.mark.parametrize("d,expected", [(2, Fraction(5, 8)), (3, Fraction(5, 9)), (4, Fraction(17, 32))])
    def test_exact_values(self, d, expected):
        result = nsqrac_favored_strategy(d)
        assert result.exact == expected
        assert abs(result.entanglement_fidelity_F - float(expected)) < 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_beats_split(self, d):
        assert nsqrac_favored_strategy(d).entanglement_fidelity_F > nsqrac_split_strategy(d, d).entanglement_fidelity_F


@pytest.fixture(scope="module")
def result():
    return composite_nsqrac_via_qracse(2)


class TestCompositeStrategy:
    def test_matches_coding_value(self, result):
        assert result.entanglement_fidelity_F == pytest.approx(GRAY_D2_VALUE, abs=1e-9)

    def test_beats_favored_strategy(self, result):
        assert result.entanglement_fidelity_F > 0.625

    def test_wrong_corrections_are_orthogonal(self, result):
        assert result.details["max_wrong_correction_fidelity"] == pytest.approx(0.0, abs=1e-12)

    def test_wrong_correction_enumeration(self):
        # independent enumeration over all 16 ordered label pairs
        labels = [(a, b) for a in range(2) for b in range(2)]
        for ga, gb in labels:
            for ia, ib in labels:
                value = abs(np.trace(weyl(2, ga, gb) @ weyl(2, ia, ib).conj().T) / 2) ** 2
                expected = 1.0 if (ga, gb) == (ia, ib) else 0.0
                assert value == pytest.approx(expected, abs=1e-12)

    def test_full_state_cross_check_recorded(self, result):
        assert abs(result.details["full_state_simulation"] - result.entanglement_fidelity_F) < 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_block_cross_check_equals_full_state_oracle(self, d):
        # the frame's 4-site block form against dense projectors applied to the 8-site state vector
        assert abs(_composite_full_state_fidelity(d) - composite_full_state_fidelity(d)) <= 4.4e-16

    def test_block_cross_check_value(self):
        assert _composite_full_state_fidelity(2) == 0.728553390593273

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            composite_nsqrac_via_qracse(3)


class TestStrategyResult:
    def test_f_follows_from_F_without_an_exact_value(self):
        # the composite strategy has no exact F, so f derives from the simulated one
        result = composite_nsqrac_via_qracse(2)
        assert result.exact is None
        assert result.transmission_fidelity_f == float(f_from_F(result.entanglement_fidelity_F, 2))

    def test_json_dict_contains_exact(self):
        result = constrained_teleport_fidelity(2, 3)
        payload = result.to_json_dict()
        assert payload["exact"] == {"numerator": 3, "denominator": 4}
        assert payload["strategy"] == "constrained_teleportation"
