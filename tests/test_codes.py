import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qracsim.codes
import qracsim.qracse
from qracsim.codes import (
    EncodingTable,
    SearchResult,
    TableUnavailableError,
    _climb_moves,
    _random_cycle,
    _ROUND_CLIMBS,
    builtin_table,
    generate_single_distance,
    search_tables,
    validate,
)
from reference import PUBLISHED_TABLES


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
        assert 1 in report.distance_violations

    def test_duplicates_detected(self):
        table = EncodingTable(d=2, pairs=((0, 0), (0, 0), (1, 1), (1, 0)))
        report = validate(table)
        assert not report.bijective
        assert (0, 0) in report.duplicate_pairs
        assert (0, 1) in report.missing_pairs

    def test_no_digit_change_flagged(self):
        table = EncodingTable(d=2, pairs=((0, 0), (0, 0), (1, 0), (1, 1)))
        assert 0 in validate(table).distance_violations


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

    @pytest.mark.parametrize("d", range(2, 7))
    def test_json_round_trip(self, d):
        table = generate_single_distance(d)
        again = EncodingTable(d, tuple(map(tuple, json.loads(table.to_json()))))
        assert again == table

    def test_json_is_pair_array(self):
        data = json.loads(builtin_table(2).to_json())
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
        from qracsim.qracse import QracTask, run_protocol

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

    def test_large_dimension_rejected(self):
        with pytest.raises(ValueError):
            search_tables(6, "p_min", budget=5, seed=0)

    @pytest.mark.parametrize("objective", ["p_min", "p_avg"])
    def test_d3_budget_past_the_space_stops_after_every_table(self, objective):
        # there are only 864 valid d = 3 tables, so a larger budget must stop there
        from qracsim.qracse import QracTask, run_protocol
        from test_acceptance import _single_distance_tables

        result = search_tables(3, objective, budget=870, seed=0)
        assert result.evaluations == 864
        reports = [
            run_protocol(QracTask(d=3, table=EncodingTable(d=3, pairs=pairs))) for pairs in _single_distance_tables(3)
        ]
        assert result.score == max(getattr(r, objective) for r in reports)
        assert search_tables(3, objective, budget=10**9, seed=5) == result


SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "search_codes.py"


class TestSearchScript:
    def test_json_smoke(self):
        src = str(SCRIPT.parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, str(SCRIPT), "--d", "3", "--budget", "50", "--json"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        out = json.loads(done.stdout)
        table = EncodingTable(d=3, pairs=tuple(map(tuple, out["table"])))
        assert validate(table).valid
        assert out["d"] == 3 and out["objective"] == "p_min"
        assert out["score"] == out["p_min"] >= 0.424

    def test_invalid_result_is_one_error_line(self, capsys, monkeypatch):
        import runpy

        main = runpy.run_path(str(SCRIPT))["main"]
        broken = EncodingTable(d=3, pairs=builtin_table(3).pairs[::2] + builtin_table(3).pairs[1::2])
        monkeypatch.setitem(main.__globals__, "search_tables", lambda d, **kw: SearchResult(broken, 0.5, "p_min", 1))
        monkeypatch.setattr(sys, "argv", ["search_codes.py", "--d", "3", "--budget", "5"])
        assert main() == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "flags", [["--d", "7"], ["--d", "3", "--budget", "0"], ["--d", "3", "--seeds", "-1"]], ids=lambda f: f[-2]
    )
    def test_bad_input_is_one_error_line(self, flags, capsys, monkeypatch):
        import runpy

        main = runpy.run_path(str(SCRIPT))["main"]
        monkeypatch.setattr(sys, "argv", ["search_codes.py", *flags])
        assert main() == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


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
    scorer = qracsim.qracse._two_string_values

    def recording(invs):
        batches.append(len(invs))
        return scorer(invs)

    monkeypatch.setattr(qracsim.qracse, "_two_string_values", recording)
    assert search_tables(4, "p_min", 10000, 0).evaluations == 10000
    assert max(batches) <= _ROUND_CLIMBS * len(_climb_moves(4)[0])
    assert max(batches) > len(_climb_moves(4)[0])  # climbs do share batches


def hash_scorer(modulus):
    """Stand-in for ``qracse._two_string_values``: every table scores a weighted
    sum of its inverse array mod ``modulus``, scaled into [0, 1), on each
    string and choice.  Like the real scorer, each row's value depends on that
    row alone, but the hash scores differ from table to table, so climbs move.
    With the real scorer the d = 4 and 5 searches return the generated table
    they start from, which pins little about the climb."""

    def values(invs):
        m, d, _ = invs.shape
        weights = np.array([pow(31, k, modulus) for k in range(d * d)], dtype=np.int64)
        score = (invs.reshape(m, -1).astype(np.int64) @ weights) % modulus / modulus
        return np.broadcast_to(score[:, None, None, None], (m, 2, d, d)), np.broadcast_to(score[:, None], (m, 2))

    return values


# fine: almost every table scores differently, which pins the set of counted tables;
# coarse: many ties, which pins the tie-break
HASH_MODULI = {"fine": 1_000_003, "coarse": 997}

# _random_cycle draws, and search_tables results under the hash scorers, recorded
# before the restarts climbed in rounds
GOLDEN_TRAJECTORY = json.loads((Path(__file__).parent / "golden_search_trajectory.json").read_text())


def _trajectory_id(case):
    if case["kind"] == "cycle":
        return f"cycle-d{case['d']}-s{case['seed']}"
    return f"{case['scorer']}-d{case['d']}-{case['objective']}-b{case['budget']}-s{case['seed']}"


@pytest.mark.parametrize("case", GOLDEN_TRAJECTORY, ids=_trajectory_id)
def test_search_trajectory_matches_golden(case, monkeypatch):
    if case["kind"] == "cycle":
        rng = np.random.default_rng(case["seed"])
        assert {"cycle": _random_cycle(case["d"], rng), "next": int(rng.integers(2**32))} == {
            "cycle": case["cycle"],
            "next": case["next"],
        }
        return
    monkeypatch.setattr(qracsim.qracse, "_two_string_values", hash_scorer(HASH_MODULI[case["scorer"]]))
    result = search_tables(case["d"], case["objective"], case["budget"], case["seed"])
    assert (json.loads(result.table.to_json()), result.score, result.evaluations) == (
        case["table"],
        case["score"],
        case["evaluations"],
    )


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("d, objective, budget", [(4, "p_min", 2000), (5, "p_avg", 500)])
def test_search_result_does_not_depend_on_round_size(d, objective, budget, seed, monkeypatch):
    monkeypatch.setattr(qracsim.qracse, "_two_string_values", hash_scorer(HASH_MODULI["fine"]))
    results = {}
    for size in (1, 16, 32):
        monkeypatch.setattr(qracsim.codes, "_ROUND_CLIMBS", size)
        result = search_tables(d, objective, budget, seed)
        results[size] = (result.table, result.score, result.evaluations)
    assert results[16] == results[1] and results[32] == results[1]


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 5), rotation=st.integers(0, 24), flip=st.booleans())
def test_rotations_and_reflections_stay_valid(d, rotation, flip):
    pairs = list(generate_single_distance(d).pairs)
    rotation %= len(pairs)
    pairs = pairs[rotation:] + pairs[:rotation]
    if flip:
        pairs = [pairs[0]] + list(reversed(pairs[1:]))
    assert validate(EncodingTable(d=d, pairs=tuple(pairs))).valid
