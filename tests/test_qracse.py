import json
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qracsim.cli import main
from qracsim.codes import (
    EncodingTable,
    _all_cycles,
    _climb_moves,
    _random_cycle,
    builtin_table,
    generate_single_distance,
    search_tables,
    validate,
)
from qracsim.qcore import bell_state
from qracsim.qracse import (
    QracTask,
    _inverse_array,
    _kappa,
    _kernel,
    _two_string_values,
    measurement_exponent,
    run_protocol,
    trivial_strategy,
)
from reference import (
    apply_to_bell_half,
    encode,
    frac_power_x,
    frac_power_z,
    measurement_basis,
    overlap,
    states_equal,
    trivial_two_strings_simulation,
    two_string_values_accumulate,
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
    inv = {pair: e for e, pair in enumerate(table.pairs)}
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
        expected = np.kron(w, np.eye(2)) @ bell_state(2).amplitudes
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
                direct = np.kron(w, np.eye(3)) @ psi
                assert np.allclose(vecs[b0 * 3 + b1].amplitudes, direct, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("c", [0, 1])
    def test_orthonormal(self, d, c):
        vecs = measurement_basis(d, c)
        gram = np.array([[overlap(a, b) for b in vecs] for a in vecs])
        assert np.max(np.abs(gram - np.eye(d * d))) < 1e-10

    def test_qubit_convention_coincides_with_general(self):
        # the d = 2 form (-1)^c b + (1 - 2c)/4 is the general exponent at d = 2
        for c in (0, 1):
            for b in (0, 1):
                assert measurement_exponent(2, c, b) == Fraction((-1) ** c * b) + Fraction(1 - 2 * c, 4)


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
            probs = [abs(overlap(basis[v[0] * d + v[1]], kets[s])) ** 2 for s in strings]
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


def inverse_stack(d, cycles):
    """Inverse arrays (M, d, d) of tables given as rows of cells a*d + b."""
    cycles = np.asarray(cycles, dtype=np.intp)
    invs = np.full(cycles.shape, -1, dtype=np.intp)
    invs[np.arange(len(cycles))[:, None], cycles] = np.arange(d * d)
    return invs.reshape(-1, d, d)


def legal_moves(d, cells):
    """The tables one climb step scores from the table ``cells``: its
    rotations and the segment reversals that keep it a valid table."""
    moves, joins, one_step = _climb_moves(d)
    joined = cells[joins]
    return cells[moves[one_step[joined[..., 0], joined[..., 1]].all(axis=1)]]


def generated_cells(d):
    return np.array([a * d + b for a, b in generate_single_distance(d).pairs])


def walked_tables(d, count):
    """``count`` valid tables met by a seeded random walk from the generated
    table, each step a random legal climb move.  Far cheaper than drawing
    ``_random_cycle`` at d = 5, which takes tens of milliseconds a table."""
    rng = np.random.default_rng(d)
    cells, tables = generated_cells(d), []
    for _ in range(count):
        options = legal_moves(d, cells)
        cells = options[rng.integers(len(options))]
        tables.append(cells)
    return tables


@pytest.mark.parametrize(
    "d, cycles",
    [
        pytest.param(2, lambda: _all_cycles(2), id="d2-all"),
        pytest.param(3, lambda: _all_cycles(3), id="d3-all"),
        pytest.param(4, lambda: walked_tables(4, 500), id="d4-walk"),
        pytest.param(5, lambda: walked_tables(5, 500), id="d5-walk"),
        pytest.param(4, lambda: legal_moves(4, generated_cells(4)), id="d4-climb-step"),
    ],
)
def test_scorer_matches_accumulate_oracle_bitwise(d, cycles):
    invs = inverse_stack(d, cycles())
    for value, expected in zip(_two_string_values(invs), two_string_values_accumulate(invs)):
        assert value.tobytes() == expected.tobytes()


def test_scorer_rejects_non_bijective_stack():
    invs = np.stack([_inverse_array(builtin_table(2))] * 2)
    invs[1, 0, 0] = invs[1, 0, 1]
    with pytest.raises(ValueError, match="bijection"):
        _two_string_values(invs)


# ---------------------------------------------------------------- kernels
#
# The engine reads every success probability from one (d^2, d) kernel per
# register choice, K_s[e, b] = kappa(e/d - s(b)).  kappa is checked against
# its closed form, and the product outer(K_sx, K_sz) against overlaps of
# kets built one by one from encode and the fractional Weyl powers.


def kappa_closed_form(d, u):
    """sin^2(pi u) / (d^2 sin^2(pi u / d)) for an exact rational u; its limit
    is 1 at u = 0 (mod d) and 0 at the other integers."""
    if u.denominator == 1:
        return 1.0 if u % d == 0 else 0.0
    return np.sin(np.pi * float(u)) ** 2 / (d * d * np.sin(np.pi * float(u) / d) ** 2)


@pytest.mark.parametrize("d", range(2, 9))
def test_kappa_matches_closed_form(d):
    # two periods either side of zero in steps of 1/(2 d^2), integers included
    us = [Fraction(k, 2 * d * d) for k in range(-4 * d**3, 4 * d**3 + 1)]
    got = _kappa(d, [float(u) for u in us])
    expected = np.array([kappa_closed_form(d, u) for u in us])
    assert np.max(np.abs(got - expected)) <= 1e-12
    assert _kappa(d, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(_kappa(d, np.arange(1.0, d)))) <= 1e-15


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("s", [0, 1])
def test_kernel_rows_sum_to_one(d, s):
    kernel = _kernel(d, s)
    assert kernel.shape == (d * d, d)
    assert not kernel.flags.writeable
    assert np.max(np.abs(kernel.sum(axis=1) - 1.0)) <= 1e-12


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("s", [0, 1])
def test_kernel_equals_per_cell_exponents_bitwise(d, s):
    # the kernel as first written: one measurement_exponent per cell
    u = [[Fraction(e, d) - measurement_exponent(d, s, b) for b in range(d)] for e in range(d * d)]
    assert _kernel(d, s).tobytes() == _kappa(d, np.array(u, dtype=float)).tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("sx, sz", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_kernel_product_matches_ket_overlaps(d, sx, sz):
    table = generate_single_distance(d)
    # encode takes e0 from the first digits of both strings and e1 from the
    # second digits, so these strings give the state X^(e0/d) Z^(e1/d), row e0 * d^2 + e1
    kets = np.array(
        [encode(d, table, (p0[0], p1[0]), (p0[1], p1[1])).amplitudes for p0 in table.pairs for p1 in table.pairs]
    )
    basis = np.array(
        [
            apply_to_bell_half(
                frac_power_x(d, measurement_exponent(d, sx, b0)) @ frac_power_z(d, measurement_exponent(d, sz, b1)), d
            ).amplitudes
            for b0 in range(d)
            for b1 in range(d)
        ]
    )
    overlaps = (np.abs(kets.conj() @ basis.T) ** 2).reshape(d * d, d * d, d, d)  # [e0, e1, b0, b1]
    product = np.einsum("ab,cd->acbd", _kernel(d, sx), _kernel(d, sz))
    assert np.max(np.abs(product - overlaps)) <= 1e-12


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("objective", ["p_min", "p_avg"])
def test_search_score_equals_fresh_run(d, objective):
    result = search_tables(d, objective, 200, seed=0)
    report = run_protocol(QracTask(d=d, table=result.table))
    assert result.score == getattr(report, objective)


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


FOUR_BIT_VARIANTS = {"pairs": "four_dits_pairs", "single": "four_dits_single"}


@pytest.fixture(scope="module")
def variants():
    return {key: run_protocol(QracTask(d=2, table=builtin_table(2), variant=v)) for key, v in FOUR_BIT_VARIANTS.items()}


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


# ---------------------------------------------------------------- d = 2 oracle
#
# Ket by ket, without the engine's kernels: each input word (w0, w1, w2, w3)
# is encoded as encode(2, table, (w0, w1), (w2, w3)), so the X register
# carries (w0, w2) and the Z register (w1, w3).  Bob's basis (sx, sz) is
# built from measurement_exponent per register, and the outcome he reads is
# (w[2 sx], w[1 + 2 sz]).

VALID_D2_TABLES = [EncodingTable(d=2, pairs=tuple(divmod(int(c), 2) for c in row)) for row in _all_cycles(2)]
WORDS = list(product((0, 1), repeat=4))


def basis_ket(sx, sz, b0, b1):
    w = frac_power_x(2, measurement_exponent(2, sx, b0)) @ frac_power_z(2, measurement_exponent(2, sz, b1))
    return apply_to_bell_half(w, 2)


def decode_success(table, word, sx, sz):
    ket = encode(2, table, word[:2], word[2:])
    return abs(overlap(basis_ket(sx, sz, word[2 * sx], word[1 + 2 * sz]), ket)) ** 2


def pairs_samples(table):
    bases = {"01": (0, 0), "23": (1, 1), "03": (0, 1), "12": (1, 0)}
    samples = []
    for w in WORDS:
        for key in ("01", "23", "03", "12", "02", "13"):
            i, j = int(key[0]), int(key[1])
            # within-register pairs: decode (w0, w1) and guess the other bit
            p = decode_success(table, w, *bases[key]) if key in bases else decode_success(table, w, 0, 0) / 2
            samples.append((key, f"{w[i]}{w[j]}", p))
    return samples


def single_samples(table):
    return [(str(i), str(w[i]), decode_success(table, w, i // 2, i // 2)) for w in WORDS for i in range(4)]


def boolean_samples(table, f):
    """Each raw input induces the word of f's values on the four 3-subsets."""
    subsets = ("012", "013", "023", "123")
    samples = []
    for raw in WORDS:
        word = tuple(f[4 * raw[int(s[0])] + 2 * raw[int(s[1])] + raw[int(s[2])]] for s in subsets)
        for pos, key in enumerate(subsets):
            samples.append((key, str(word[pos]), decode_success(table, word, pos // 2, pos // 2)))
    return samples


def assert_matches_oracle(report, samples):
    """Per-string entries are means over the inputs requesting that value,
    per-choice entries means over all inputs of the choice."""
    by_string, by_choice = {}, {}
    for choice, value, p in samples:
        by_string.setdefault((choice, value), []).append(p)
        by_choice.setdefault(choice, []).append(p)
    assert report.per_string.keys() == by_string.keys()
    assert report.per_choice.keys() == by_choice.keys()
    for key, ps in by_string.items():
        assert abs(report.per_string[key] - np.mean(ps)) <= 1e-12, key
    for key, ps in by_choice.items():
        assert abs(report.per_choice[key] - np.mean(ps)) <= 1e-12, key
    assert abs(report.p_avg - np.mean([np.mean(ps) for ps in by_choice.values()])) <= 1e-12
    assert report.p_min == min(report.per_string.values())


def test_eight_valid_d2_tables():
    assert len(VALID_D2_TABLES) == 8
    assert all(validate(t).valid for t in VALID_D2_TABLES)


@pytest.mark.parametrize("index", range(8))
@pytest.mark.parametrize("variant", ["pairs", "single"])
def test_four_bit_variants_match_ket_oracle(index, variant):
    table = VALID_D2_TABLES[index]
    report = run_protocol(QracTask(d=2, table=table, variant=FOUR_BIT_VARIANTS[variant]))
    assert_matches_oracle(report, pairs_samples(table) if variant == "pairs" else single_samples(table))


def boolean(f, table=None):
    """The Boolean variant for truth table f, on the built-in table by default."""
    table = builtin_table(2) if table is None else table
    return run_protocol(QracTask(d=2, table=table, variant="boolean_f", boolean_function=tuple(f)))


@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, 7), f=st.lists(st.integers(0, 1), min_size=8, max_size=8))
@example(index=0, f=[0, 0, 0, 1, 0, 1, 1, 1])
@example(index=3, f=[0] * 8)
def test_boolean_variant_matches_ket_oracle(index, f):
    table = VALID_D2_TABLES[index]
    assert_matches_oracle(boolean(f, table=table), boolean_samples(table, f))


class TestBooleanFunction:
    def test_majority(self):
        report = boolean((0, 0, 0, 1, 0, 1, 1, 1))
        assert report.p_min == pytest.approx(GRAY_D2_VALUE, abs=1e-9)
        assert report.p_avg == pytest.approx(GRAY_D2_VALUE, abs=1e-9)

    def test_parity(self):
        report = boolean((0, 1, 1, 0, 1, 0, 0, 1))
        assert report.p_min == pytest.approx(GRAY_D2_VALUE, abs=1e-9)

    def test_constant_zero(self):
        report = boolean((0,) * 8)
        assert all(v == "0" for (_, v) in report.per_string)
        assert report.p_min >= GRAY_D2_VALUE - 1e-9

    def test_malformed_truth_table(self):
        with pytest.raises(ValueError):
            boolean((0, 1))
        with pytest.raises(ValueError):
            boolean((0, 1, 2, 0, 1, 0, 1, 0))

    @pytest.mark.parametrize("variant", ["two_strings", "four_dits_pairs", "four_dits_single"])
    def test_other_variants_reject_a_truth_table(self, variant):
        with pytest.raises(ValueError, match="applies to variant 'boolean_f' only"):
            QracTask(d=2, table=builtin_table(2), variant=variant, boolean_function=(0, 0, 0, 1, 0, 1, 1, 1))


class TestReportSerialisation:
    def test_json_round_trip(self):
        report = run_protocol(QracTask(d=2, table=builtin_table(2), variant="two_strings"))
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["d"] == 2
        assert payload["p_avg"] == report.p_avg
        assert payload["per_string"]["0"]["00"] == report.per_string[("0", "00")]

    def test_csv_rows(self, capsys):
        report = run_protocol(QracTask(d=2, table=builtin_table(2), variant="two_strings"))
        assert main(["qracse", "--d", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "choice,value,probability"
        assert len(lines) == 1 + len(report.per_string)
        assert "." in lines[1].split(",")[2]
