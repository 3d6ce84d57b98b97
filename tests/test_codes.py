import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qracsim.codes
import qracsim.qracse
from qracsim.codes import (
    EncodingTable,
    TableUnavailableError,
    _all_cycles,
    _climb_moves,
    _random_cycle,
    _ROUND_CLIMBS,
    builtin_table,
    generate_single_distance,
    search_tables,
    validate,
)
from qracsim.qracse import QracTask, run_protocol
from reference import PUBLISHED_TABLES, sequential_search


def digit_changes(p, q):
    return (p[0] != q[0]) + (p[1] != q[1])


def scan_single_distance(table):
    """Independent oracle: explicit digit-difference scan around the cycle."""
    n = len(table.pairs)
    return all(digit_changes(table.pairs[e], table.pairs[(e + 1) % n]) == 1 for e in range(n))


class TestBuiltinTables:
    def test_d2_entries(self):
        assert builtin_table(2).pairs == ((0, 0), (0, 1), (1, 1), (1, 0))

    def test_d3_entry_three(self):
        assert builtin_table(3).pairs[3] == (1, 2)

    def test_d4_entry_twelve(self):
        assert builtin_table(4).pairs[12] == (3, 1)

    def test_unsupported_dimension(self):
        with pytest.raises(TableUnavailableError):
            builtin_table(5)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_builtin_tables_valid(self, d):
        table = builtin_table(d)
        report = validate(table)
        assert report.valid
        assert scan_single_distance(table)


class TestValidate:
    def test_lexicographic_fails_single_distance(self):
        lex = EncodingTable(d=2, pairs=((0, 0), (0, 1), (1, 0), (1, 1)))
        report = validate(lex)
        assert report.bijective
        assert not report.single_distance

    def test_duplicates_detected(self):
        table = EncodingTable(d=2, pairs=((0, 0), (0, 0), (1, 1), (1, 0)))
        report = validate(table)
        assert not report.bijective

    def test_no_digit_change_flagged(self):
        table = EncodingTable(d=2, pairs=((0, 0), (0, 0), (1, 0), (1, 1)))
        assert not validate(table).single_distance


class TestGenerate:
    @pytest.mark.parametrize("d", range(2, 7))
    def test_generated_tables_valid(self, d):
        assert validate(generate_single_distance(d)).valid

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_builtin(self, d):
        # the transcribed published tables are the oracle for the generated ones
        assert generate_single_distance(d).pairs == builtin_table(d).pairs == PUBLISHED_TABLES[d]

    @pytest.mark.parametrize("d", range(2, 7))
    def test_run_structure(self, d):
        # within each run the first digit is constant and the second digit
        # walks a cyclic rotation of 0..d-1
        table = generate_single_distance(d)
        for r in range(d):
            run = table.pairs[r * d : (r + 1) * d]
            assert all(p[0] == r for p in run)
            seconds = [p[1] for p in run]
            assert seconds == [(seconds[0] + i) % d for i in range(d)]

    def test_d3_run_boundaries_change_first_digit_only(self):
        pairs = generate_single_distance(3).pairs
        for e in (2, 5):
            assert pairs[e][1] == pairs[e + 1][1]
            assert pairs[e][0] != pairs[e + 1][0]


class TestTableType:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            EncodingTable(d=2, pairs=((0, 0), (0, 1)))

    def test_rejects_out_of_range_digit(self):
        with pytest.raises(ValueError):
            EncodingTable(d=2, pairs=((0, 0), (0, 2), (1, 1), (1, 0)))

    @pytest.mark.parametrize("d", [2.0, 2.5])
    def test_rejects_a_dimension_that_is_not_an_integer(self, d):
        with pytest.raises(ValueError, match="^dimension must be an integer, got 2.[05]$"):
            EncodingTable(d=d, pairs=((0, 0), (0, 1), (1, 1), (1, 0)))

    def test_numpy_integer_dimension_passes(self):
        table = EncodingTable(d=np.int64(2), pairs=builtin_table(2).pairs)
        assert type(table.d) is int and table == builtin_table(2)

    @pytest.mark.parametrize("digit", [0.9, 1.0, "1"])
    def test_rejects_a_digit_that_is_not_an_integer(self, digit):
        # int() would truncate 0.9 to 0 and accept the built-in table
        with pytest.raises(ValueError, match=f"^digit must be an integer, got {digit!r}$"):
            EncodingTable(d=2, pairs=((digit, 0), (0, 1), (1, 1), (1, 0)))

    def test_numpy_integer_digits_pass_as_int(self):
        table = EncodingTable(d=2, pairs=tuple((np.int64(a), np.uint8(b)) for a, b in builtin_table(2).pairs))
        assert all(type(digit) is int for pair in table.pairs for digit in pair)
        assert table == builtin_table(2)

    # a table reaches JSON as the "table" detail of its protocol report
    @pytest.mark.parametrize("d", range(2, 7))
    def test_json_round_trip(self, d):
        table = generate_single_distance(d)
        payload = json.loads(json.dumps(run_protocol(QracTask(d=d, table=table)).to_json_dict()))
        again = EncodingTable(d, tuple(map(tuple, payload["details"]["table"])))
        assert again == table

    def test_json_is_pair_array(self):
        report = run_protocol(QracTask(d=2, table=builtin_table(2)))
        data = json.loads(json.dumps(report.to_json_dict()))["details"]["table"]
        assert data == [[0, 0], [0, 1], [1, 1], [1, 0]]


class TestSearch:
    def test_d2_reaches_gray_value(self):
        result = search_tables(2, "p_min", budget=40, seed=0)
        assert result.score >= 0.7285
        assert validate(result.table).valid

    def test_d3_reaches_published_value(self):
        result = search_tables(3, "p_min", budget=40, seed=0)
        assert result.score >= 0.424
        assert validate(result.table).valid

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("objective", ["p_min", "p_avg"])
    def test_never_below_builtin(self, d, objective):
        report = run_protocol(QracTask(d=d, table=builtin_table(d), variant="two_strings"))
        baseline = report.p_min if objective == "p_min" else report.p_avg
        result = search_tables(d, objective, budget=15, seed=3)
        assert result.score >= baseline - 1e-12

    def test_deterministic(self):
        a = search_tables(3, "p_avg", budget=25, seed=9)
        b = search_tables(3, "p_avg", budget=25, seed=9)
        assert a.table == b.table and a.score == b.score

    def test_d2_tie_break_is_lexicographic(self):
        # every valid d=2 table scores the same, so the smallest sequence wins
        result = search_tables(2, "p_min", budget=40, seed=0)
        assert result.table == builtin_table(2)

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            search_tables(2, "p_min", budget=0, seed=0)

    def test_fractional_budget_rejected(self):
        # the budget counts evaluations; 1.5 would never be reached exactly
        with pytest.raises(ValueError, match="^budget must be a positive number of evaluations$"):
            search_tables(4, "p_min", budget=1.5, seed=0)

    def test_large_dimension_rejected(self):
        with pytest.raises(ValueError):
            search_tables(6, "p_min", budget=5, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_bad_seed(self, seed, monkeypatch):
        # random.Random would silently take abs(-1) or hash 1.5; no cycle may be drawn first
        monkeypatch.setattr(qracsim.codes, "_random_cycle", None)
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed}$"):
            search_tables(4, "p_min", budget=100, seed=seed)

    @pytest.mark.parametrize("objective", ["p_min", "p_avg"])
    def test_d3_budget_past_the_space_stops_after_every_table(self, objective):
        # there are only 864 valid d = 3 tables, so a larger budget must stop there
        from test_acceptance import _single_distance_tables

        result = search_tables(3, objective, budget=870, seed=0)
        assert result.evaluations == 864
        reports = [
            run_protocol(QracTask(d=3, table=EncodingTable(d=3, pairs=pairs))) for pairs in _single_distance_tables(3)
        ]
        assert result.score == max(getattr(r, objective) for r in reports)
        assert search_tables(3, objective, budget=10**9, seed=5) == result


# SearchResult (table, score, evaluations) recorded before the climb scored its
# moves in batches, for d = 3..5, both objectives, budgets 50/500, seeds 0/1
GOLDEN_SEARCH = json.loads((Path(__file__).parent / "golden_search.json").read_text())


@pytest.mark.parametrize(
    "case", GOLDEN_SEARCH, ids=lambda c: f"d{c['d']}-{c['objective']}-b{c['budget']}-s{c['seed']}"
)
def test_search_matches_golden(case):
    result = search_tables(case["d"], case["objective"], case["budget"], case["seed"])
    assert result.table.pairs == tuple(tuple(p) for p in case["table"])
    assert result.score == case["score"]
    assert result.evaluations == case["evaluations"]


def test_search_scores_bounded_batches(monkeypatch):
    # a round scores one step of each of its climbs per batch, so a batch never
    # holds more than a full move list for every climb of the round
    batches = []
    scorer = qracsim.qracse._line_means

    def recording(invs):
        batches.append(len(invs))
        return scorer(invs)

    monkeypatch.setattr(qracsim.qracse, "_line_means", recording)
    assert search_tables(4, "p_min", 10000, 0).evaluations == 10000
    assert sum(batches) >= 10000  # every counted table went through the scorer
    assert max(batches) <= _ROUND_CLIMBS * len(_climb_moves(4)[0])
    assert max(batches) > len(_climb_moves(4)[0])  # climbs do share batches


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_search_scores_each_table_about_once(seed, monkeypatch):
    # a climb scores the rotation orbit of each table it reaches and takes
    # its rotation steps from those scores, so the rows scored stay within 1.25
    # times the budget
    rows = []
    scorer = qracsim.qracse._line_means

    def recording(invs):
        rows.append(len(invs))
        return scorer(invs)

    monkeypatch.setattr(qracsim.qracse, "_line_means", recording)
    assert search_tables(4, "p_min", 10000, seed).evaluations == 10000
    assert 10_000 <= sum(rows) <= 12_500


def hash_scorer(modulus):
    """Stand-in for ``qracse._line_means``: every table takes a weighted sum of
    its inverse array mod ``modulus``, scaled into [0, 1), as each of its line
    means.  Like the real scorer, each row's value depends on that row alone,
    but the hash scores differ from table to table, so climbs move.  With the
    real scorer the d = 4 and 5 searches return the generated table they start
    from, which pins little about the climb."""

    def line_means(invs):
        m, d, _ = invs.shape
        weights = np.array([pow(31, k, modulus) for k in range(d * d)], dtype=np.int64)
        score = (invs.reshape(m, -1).astype(np.int64) @ weights) % modulus / modulus
        return np.broadcast_to(score[:, None, None], (m, 2, d))

    return line_means


# fine: almost every table scores differently, which pins the set of counted tables;
# coarse: many ties, which pins the tie-break
HASH_MODULI = {"fine": 1_000_003, "coarse": 997}

# _random_cycle draws from random.Random(seed) with the stream's next 32 bits, and
# search_tables results under the hash scorers
GOLDEN_TRAJECTORY = json.loads((Path(__file__).parent / "golden_search_trajectory.json").read_text())


def _trajectory_id(case):
    if case["kind"] == "cycle":
        return f"cycle-d{case['d']}-s{case['seed']}"
    return f"{case['scorer']}-d{case['d']}-{case['objective']}-b{case['budget']}-s{case['seed']}"


@pytest.mark.parametrize("case", GOLDEN_TRAJECTORY, ids=_trajectory_id)
def test_search_trajectory_matches_golden(case, monkeypatch):
    if case["kind"] == "cycle":
        rng = random.Random(case["seed"])
        assert {"cycle": _random_cycle(case["d"], rng), "next": rng.getrandbits(32)} == {
            "cycle": case["cycle"],
            "next": case["next"],
        }
        return
    monkeypatch.setattr(qracsim.qracse, "_line_means", hash_scorer(HASH_MODULI[case["scorer"]]))
    result = search_tables(case["d"], case["objective"], case["budget"], case["seed"])
    assert ([list(p) for p in result.table.pairs], result.score, result.evaluations) == (
        case["table"],
        case["score"],
        case["evaluations"],
    )


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("d, objective, budget", [(4, "p_min", 2000), (5, "p_avg", 500)])
def test_search_result_does_not_depend_on_round_size(d, objective, budget, seed, monkeypatch):
    monkeypatch.setattr(qracsim.qracse, "_line_means", hash_scorer(HASH_MODULI["fine"]))
    results = {}
    for size in (1, 16, 32):
        monkeypatch.setattr(qracsim.codes, "_ROUND_CLIMBS", size)
        result = search_tables(d, objective, budget, seed)
        results[size] = (result.table, result.score, result.evaluations)
    assert results[16] == results[1] and results[32] == results[1]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("budget", [37, 333])
@pytest.mark.parametrize("objective", ["p_min", "p_avg"])
@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("scorer", sorted(HASH_MODULI))
def test_search_matches_sequential_oracle(scorer, d, objective, budget, seed, monkeypatch):
    # lockstep rounds, orbit scores and round-end counting give what one
    # restart at a time gives, every table scored alone
    monkeypatch.setattr(qracsim.qracse, "_line_means", hash_scorer(HASH_MODULI[scorer]))
    assert search_tables(d, objective, budget, seed) == sequential_search(d, objective, budget, seed)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 5), rotation=st.integers(0, 24), flip=st.booleans())
def test_rotations_and_reflections_stay_valid(d, rotation, flip):
    pairs = list(generate_single_distance(d).pairs)
    rotation %= len(pairs)
    pairs = pairs[rotation:] + pairs[:rotation]
    if flip:
        pairs = [pairs[0]] + list(reversed(pairs[1:]))
    assert validate(EncodingTable(d=d, pairs=tuple(pairs))).valid


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_random_cycles_are_valid_tables(d):
    for seed in range(20):
        cells = _random_cycle(d, random.Random(seed))
        assert validate(EncodingTable(d=d, pairs=tuple(divmod(c, d) for c in cells))).valid


def test_random_cycle_draws_stay_bounded_at_d5():
    # without a limit one of these draws tries 2.8 M neighbours; a draw gives up
    # after _DRAW_TRIES * d^4 tried neighbours and starts again from a fresh cell
    class Counting(random.Random):
        calls = 0

        def randrange(self, *args):
            self.calls += 1
            return super().randrange(*args)

    rng = Counting(0)
    for _ in range(60):
        cells = _random_cycle(5, rng)
        assert validate(EncodingTable(d=5, pairs=tuple(divmod(c, 5) for c in cells))).valid
    assert rng.calls < 100_000


def test_random_cycles_reach_every_d3_table():
    rng, rows = random.Random(0), {tuple(row) for row in _all_cycles(3).tolist()}
    seen = set()
    for _ in range(20_000):
        seen.add(tuple(_random_cycle(3, rng)))
        if len(seen) == len(rows):
            break
    assert seen == rows


@pytest.mark.parametrize("d", [2, 3])
def test_all_cycles_are_every_valid_table_in_order(d):
    # the arrays the depth-first search gave before it pruned, as the brute-force enumeration lists them
    from test_acceptance import _single_distance_tables

    expected = sorted([a * d + b for a, b in pairs] for pairs in _single_distance_tables(d))
    assert _all_cycles(d).tolist() == expected
