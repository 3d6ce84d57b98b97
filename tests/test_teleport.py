import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qracsim import teleport
from qracsim.teleport import (
    StrategyResult,
    _bell_frame,
    _weyl,
    composite_nsqrac_via_qracse,
    constrained_povm,
    constrained_teleport_fidelity,
    nsqrac_favored_strategy,
    nsqrac_split_strategy,
)
from reference import frac_power_x, frac_power_z, weyl

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
        with pytest.raises(ValueError):
            constrained_povm(2, 5)
        with pytest.raises(ValueError):
            constrained_povm(2, 0)

    @pytest.mark.parametrize("d", [0, 1, 9])
    def test_dimension_outside_the_cap(self, d):
        with pytest.raises(ValueError, match="supported dimensions are 2 <= d <= 8"):
            constrained_povm(d, 1)
        with pytest.raises(ValueError, match="supported dimensions are 2 <= d <= 8"):
            constrained_teleport_fidelity(d, 1)

    @pytest.mark.parametrize("d", [2, 3])
    def test_cached_frame_and_elements_are_read_only(self, d):
        before = [constrained_teleport_fidelity(d, k).entanglement_fidelity_F for k in range(1, d * d + 1)]
        arrays = [a for a in _bell_frame(d) if isinstance(a, np.ndarray)]
        for k in range(1, d * d + 1):
            arrays.extend(constrained_povm(d, k))
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 7.0
        after = [constrained_teleport_fidelity(d, k).entanglement_fidelity_F for k in range(1, d * d + 1)]
        assert after == before

    def test_warm_povm_checks_only_the_complement(self, monkeypatch):
        constrained_povm(8, 64)  # builds and checks the d = 8 frame
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            seen.append(int(np.prod(np.shape(a)[:-2])))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        povm = constrained_povm(8, 64)
        assert len(povm) == 64
        assert sum(seen) <= 1

    def test_frame_rejects_a_negative_projector(self, monkeypatch):
        # the frame's own check is the one the warm calls rely on
        monkeypatch.setattr(teleport, "_bell_projector", lambda d, w, psi: -np.eye(d * d))
        _bell_frame.cache_clear()
        try:
            with pytest.raises(ValueError, match="POVM element is not positive semidefinite"):
                _bell_frame(2)
        finally:
            _bell_frame.cache_clear()

    def test_complement_is_checked_per_call(self, monkeypatch):
        constrained_povm(2, 3)
        monkeypatch.setattr(teleport, "POVM_PSD_TOL", 1.0)  # no element passes
        with pytest.raises(ValueError, match="POVM element is not positive semidefinite"):
            constrained_povm(2, 3)


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

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            composite_nsqrac_via_qracse(3)


class TestStrategyResult:
    def test_fidelity_relation_enforced(self):
        with pytest.raises(ValueError):
            StrategyResult(
                strategy_name="broken",
                entanglement_fidelity_F=0.5,
                transmission_fidelity_f=0.9,
                success_probability=0.5,
                details={"d": 2},
            )

    def test_json_dict_contains_exact(self):
        result = constrained_teleport_fidelity(2, 3)
        payload = result.to_json_dict()
        assert payload["exact"] == {"numerator": 3, "denominator": 4}
        assert payload["strategy"] == "constrained_teleportation"
