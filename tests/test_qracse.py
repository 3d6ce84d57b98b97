import json
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qracsim.codes import EncodingTable, _random_cycle, builtin_table, generate_single_distance, validate
from qracsim.qcore import bell_state, kron, states_equal
from qracsim.pauli import frac_power_x, frac_power_z
from qracsim.qracse import (
    QracTask,
    _inverse_array,
    _two_string_values,
    encode,
    f_qracse,
    measurement_basis,
    measurement_exponent,
    report_to_csv,
    report_to_json,
    run_four_bit_variants,
    run_protocol,
    trivial_strategy,
    trivial_two_strings_simulation,
)

GRAY_D2_VALUE = (3 + 2 * np.sqrt(2)) / 8


# ---------------------------------------------------------------- oracle
#
# Independent of the matrix engine: the overlap of two states of the form
# (X^s Z^t (x) 1)|psi+> factorises over the registers into phasor means
# g(u) = mean_k exp(2 pi i k u / d), so each success probability equals
# |g(delta_x)|^2 |g(delta_z)|^2 with delta the exponent differences.


def phasor_mean_sq(d, u):
    return abs(np.mean(np.exp(2j * np.pi * np.arange(d) * float(u) / d))) ** 2


def oracle_success(d, table, strings, c):
    (al0, al1), (be0, be1) = strings
    inv = table.inverse()
    e0 = inv[(al0, be0)]
    e1 = inv[(al1, be1)]
    guess = (al0, al1) if c == 0 else (be0, be1)
    probs = {}
    for b0, b1 in product(range(d), repeat=2):
        s = measurement_exponent(d, c, b0)
        t = measurement_exponent(d, c, b1)
        probs[(b0, b1)] = phasor_mean_sq(d, Fraction(e0, d) - s) * phasor_mean_sq(d, Fraction(e1, d) - t)
    return probs[guess], probs


def oracle_per_choice(d, table, c):
    values = [
        oracle_success(d, table, ((a0, a1), (b0, b1)), c)[0]
        for a0, a1, b0, b1 in product(range(d), repeat=4)
    ]
    return float(np.mean(values))


class TestEncode:
    def test_zero_strings_give_plus_state(self):
        ket = encode(2, builtin_table(2), (0, 0), (0, 0))
        assert states_equal(ket, bell_state(2))

    def test_three_half_powers(self):
        # first digits (1, 0) and second digits (1, 0) both map to index 3
        ket = encode(2, builtin_table(2), (1, 1), (0, 0))
        w = frac_power_x(2, 1.5) @ frac_power_z(2, 1.5)
        expected = kron(w, np.eye(2)) @ bell_state(2).amplitudes
        assert np.allclose(ket.amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_all_inputs_normalised(self, d):
        table = builtin_table(d)
        for a0, a1, b0, b1 in product(range(d), repeat=4):
            ket = encode(d, table, (a0, a1), (b0, b1))
            assert abs(np.linalg.norm(ket.amplitudes) - 1) < 1e-12

    def test_digit_out_of_range(self):
        with pytest.raises(ValueError):
            encode(2, builtin_table(2), (0, 2), (0, 0))

    def test_non_bijective_table_rejected(self):
        broken = EncodingTable(d=2, pairs=((0, 0), (0, 0), (1, 1), (1, 0)))
        with pytest.raises(ValueError):
            encode(2, broken, (0, 0), (0, 0))


class TestMeasurementBasis:
    def test_d3_choice0_exponents(self):
        for b in range(3):
            assert measurement_exponent(3, 0, b) == Fraction(b) + Fraction(1, 3)

    def test_d3_choice1_exponents(self):
        for b in range(3):
            assert measurement_exponent(3, 1, b) == -Fraction(b) - Fraction(1, 6)

    def test_d3_vectors_match_direct_construction(self):
        psi = bell_state(3).amplitudes
        vecs = measurement_basis(3, 0)
        for b0 in range(3):
            for b1 in range(3):
                w = frac_power_x(3, b0 + Fraction(1, 3)) @ frac_power_z(3, b1 + Fraction(1, 3))
                direct = kron(w, np.eye(3)) @ psi
                assert np.allclose(vecs[b0 * 3 + b1].amplitudes, direct, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("c", [0, 1])
    def test_orthonormal(self, d, c):
        vecs = measurement_basis(d, c)
        gram = np.array([[a.overlap(b) for b in vecs] for a in vecs])
        assert np.max(np.abs(gram - np.eye(d * d))) < 1e-10

    def test_qubit_convention_coincides_with_general(self):
        for c in (0, 1):
            for b in (0, 1):
                assert measurement_exponent(2, c, b, "general") == measurement_exponent(2, c, b, "qubit")
            general = measurement_basis(2, c, "general")
            qubit = measurement_basis(2, c, "qubit")
            for u, v in zip(general, qubit):
                assert np.allclose(u.amplitudes, v.amplitudes, atol=1e-12)

    def test_qubit_convention_rejected_above_d2(self):
        with pytest.raises(ValueError):
            measurement_exponent(3, 0, 0, "qubit")


@pytest.fixture(scope="module")
def reports():
    return {
        d: run_protocol(QracTask(d=d, table=builtin_table(d), variant="two_strings"))
        for d in (2, 3, 4)
    }


class TestTwoStrings:
    def test_d2_closed_form(self, reports):
        assert reports[2].p_avg == pytest.approx(GRAY_D2_VALUE, abs=1e-9)
        assert reports[2].p_min == pytest.approx(GRAY_D2_VALUE, abs=1e-9)

    def test_d2_per_input_symmetry(self, reports):
        values = set(round(v, 10) for v in reports[2].per_string.values())
        assert len(values) == 1

    @pytest.mark.parametrize("d", [2, 3])
    def test_engine_matches_scalar_oracle(self, d):
        table = builtin_table(d)
        report = run_protocol(QracTask(d=d, table=table, variant="two_strings"))
        for c in (0, 1):
            assert report.per_choice[str(c)] == pytest.approx(oracle_per_choice(d, table, c), abs=1e-11)
        # spot-check individual inputs including the outcome distribution
        strings = ((1, 0), (d - 1, 1))
        p, dist = oracle_success(d, table, strings, 1)
        assert abs(sum(dist.values()) - 1) < 1e-10

    def test_d3_per_choice_frozen_values(self, reports):
        # frozen from the scalar oracle
        assert reports[3].per_choice["0"] == pytest.approx(0.6532799321912878, abs=1e-9)
        assert reports[3].per_choice["1"] == pytest.approx(0.4240285786131363, abs=1e-9)
        assert reports[3].p_avg == pytest.approx(0.5386542554022120, abs=1e-9)
        assert reports[3].p_min == pytest.approx(0.4240285786131363, abs=1e-9)

    def test_d4_per_choice_printed_values(self, reports):
        assert reports[4].per_choice["0"] == pytest.approx(0.629, abs=2e-3)
        assert reports[4].per_choice["1"] == pytest.approx(0.261, abs=2e-3)
        assert reports[4].p_avg == pytest.approx(0.445, abs=2e-3)
        assert reports[4].p_min == pytest.approx(0.261, abs=2e-3)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_outcome_normalisation(self, d):
        table = generate_single_distance(d)
        report = run_protocol(QracTask(d=d, table=table, variant="two_strings"))
        assert report.details["outcome_normalisation_error"] < 1e-10

    def test_probability_ordering(self, reports):
        for report in reports.values():
            assert report.p_min <= min(report.per_choice.values()) + 1e-12
            assert all(0 <= v <= 1 for v in report.per_choice.values())

    def test_beats_trivial_minimum(self, reports):
        for d, report in reports.items():
            assert report.p_min > float(trivial_strategy(d).p_min)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            run_protocol(QracTask(d=9, table=generate_single_distance(9), variant="two_strings"))


def random_valid_table(d, seed):
    cells = _random_cycle(d, np.random.default_rng(seed))
    table = EncodingTable(d=d, pairs=tuple(divmod(c, d) for c in cells))
    assert validate(table).valid
    return table


def brute_force_per_string(d, table):
    """Ket by ket: every encoded state against the guessed basis vector."""
    kets = {
        (a0, a1): encode(d, table, a0, a1)
        for a0 in product(range(d), repeat=2)
        for a1 in product(range(d), repeat=2)
    }
    values = {}
    for c in (0, 1):
        basis = measurement_basis(d, c)
        for v in product(range(d), repeat=2):
            strings = [(v, other) if c == 0 else (other, v) for other in product(range(d), repeat=2)]
            probs = [abs(basis[v[0] * d + v[1]].overlap(kets[s])) ** 2 for s in strings]
            values[(str(c), f"{v[0]}{v[1]}")] = float(np.mean(probs))
    return values


@settings(max_examples=25, deadline=None)
@given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_two_strings_match_brute_force(d, seed):
    table = random_valid_table(d, seed)
    report = run_protocol(QracTask(d=d, table=table, variant="two_strings"))
    expected = brute_force_per_string(d, table)
    assert report.per_string.keys() == expected.keys()
    for key, value in expected.items():
        assert abs(report.per_string[key] - value) <= 1e-12, key


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 5), seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6))
@example(d=2, seeds=[0, 0])  # a transposed gather once summed the batch in another order
def test_batched_rows_equal_single_calls_bitwise(d, seeds):
    invs = np.stack([_inverse_array(random_valid_table(d, seed)) for seed in seeds])
    per_string, per_choice = _two_string_values(invs)
    for row, inv in enumerate(invs):
        one_string, one_choice = _two_string_values(inv[None])
        assert per_string[row].tobytes() == one_string[0].tobytes()
        assert per_choice[row].tobytes() == one_choice[0].tobytes()


def test_scorer_rejects_non_bijective_stack():
    invs = np.stack([_inverse_array(builtin_table(2))] * 2)
    invs[1, 0, 0] = invs[1, 0, 1]
    with pytest.raises(ValueError, match="bijection"):
        _two_string_values(invs)


class TestTrivialStrategy:
    def test_d2_values(self):
        report = trivial_strategy(2)
        assert (report.p_min, report.p_avg) == (0.25, 0.625)

    def test_d3_minimum(self):
        assert trivial_strategy(3).p_min == pytest.approx(1 / 9)

    def test_pairs_values(self):
        report = trivial_strategy(2, "four_dits_pairs")
        assert report.p_avg == pytest.approx(13 / 24)
        assert report.p_min == 0.25

    def test_single_values(self):
        report = trivial_strategy(2, "four_dits_single")
        assert (report.p_avg, report.p_min) == (0.75, 0.5)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_dense_coding_simulation_witness(self, d):
        sim = trivial_two_strings_simulation(d)
        exact = trivial_strategy(d)
        assert sim["0"] == pytest.approx(exact.per_choice["0"], abs=1e-12)
        assert sim["1"] == pytest.approx(exact.per_choice["1"], abs=1e-12)


@pytest.fixture(scope="module")
def variants():
    return run_four_bit_variants(2)


class TestFourBitVariants:
    def test_pair_values(self, variants):
        per_choice = variants["pairs"].per_choice
        for key in ("01", "23", "03", "12"):
            assert per_choice[key] == pytest.approx(GRAY_D2_VALUE, abs=1e-9)
        for key in ("02", "13"):
            assert per_choice[key] == pytest.approx(GRAY_D2_VALUE / 2, abs=1e-9)

    def test_pairs_summary(self, variants):
        report = variants["pairs"]
        assert report.p_min == pytest.approx(0.364, abs=2e-3)
        assert report.p_avg == pytest.approx(0.607, abs=5e-3)
        assert report.p_avg == pytest.approx(0.604, abs=5e-3)

    def test_single_bit_summary(self, variants):
        report = variants["single"]
        assert report.p_avg == pytest.approx(0.728, abs=2e-3)
        assert report.p_min == pytest.approx(0.728, abs=2e-3)

    def test_single_bit_marginal_exceeds_pair_rule(self, variants):
        marginals = variants["single"].details["bit_marginal_rule"]
        assert all(m > variants["single"].p_avg for m in marginals.values())

    def test_variants_beat_their_trivial_minimum(self, variants):
        assert variants["pairs"].p_min > trivial_strategy(2, "four_dits_pairs").p_min
        assert variants["single"].p_min > trivial_strategy(2, "four_dits_single").p_min

    def test_rejects_other_dimensions(self):
        with pytest.raises(ValueError):
            run_four_bit_variants(3)


class TestBooleanFunction:
    def test_majority(self):
        report = f_qracse((0, 0, 0, 1, 0, 1, 1, 1))
        assert report.p_min == pytest.approx(GRAY_D2_VALUE, abs=1e-9)
        assert report.p_avg == pytest.approx(GRAY_D2_VALUE, abs=1e-9)

    def test_parity(self):
        report = f_qracse((0, 1, 1, 0, 1, 0, 0, 1))
        assert report.p_min == pytest.approx(GRAY_D2_VALUE, abs=1e-9)

    def test_constant_zero(self):
        report = f_qracse((0,) * 8)
        assert all(v == "0" for (_, v) in report.per_string)
        assert report.p_min >= GRAY_D2_VALUE - 1e-9

    def test_malformed_truth_table(self):
        with pytest.raises(ValueError):
            f_qracse((0, 1))
        with pytest.raises(ValueError):
            f_qracse((0, 1, 2, 0, 1, 0, 1, 0))


class TestReportSerialisation:
    def test_json_round_trip(self):
        report = run_protocol(QracTask(d=2, table=builtin_table(2), variant="two_strings"))
        payload = json.loads(report_to_json(report))
        assert payload["d"] == 2
        assert payload["p_avg"] == report.p_avg
        assert payload["per_string"]["0"]["00"] == report.per_string[("0", "00")]

    def test_csv_rows(self):
        report = run_protocol(QracTask(d=2, table=builtin_table(2), variant="two_strings"))
        lines = report_to_csv(report).splitlines()
        assert lines[0] == "choice,value,probability"
        assert len(lines) == 1 + len(report.per_string)
        assert "." in lines[1].split(",")[2]
