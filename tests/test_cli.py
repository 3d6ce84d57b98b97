import contextlib
import csv
import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from qracsim import codes, qracse, teleport
from qracsim.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestTeleportCommand:
    def test_table_output(self, capsys):
        code, out = run_cli(capsys, "teleport", "--d", "2", "--k", "3")
        assert code == 0
        assert "3/4" in out
        assert "0.750000" in out

    def test_perfect_cases(self, capsys):
        for d, k in ((2, 4), (3, 9)):
            _, out = run_cli(capsys, "teleport", "--d", str(d), "--k", str(k))
            assert "= 1/1 = 1.000000" in out

    def test_json_matches_table_precision(self, capsys):
        code, out = run_cli(capsys, "teleport", "--d", "2", "--k", "3", "--format", "json")
        payload = json.loads(out)
        assert payload["exact"] == {"numerator": 3, "denominator": 4}
        assert round(payload["entanglement_fidelity_F"], 6) == 0.75


class TestQracseCommand:
    def test_d2_row(self, capsys):
        code, out = run_cli(capsys, "qracse", "--d", "2")
        assert code == 0
        assert "0.728553" in out and "0.250000" in out and "0.625000" in out

    def test_d4_minimum(self, capsys):
        _, out = run_cli(capsys, "qracse", "--d", "4")
        assert "0.260757" in out

    def test_pairs_variant(self, capsys):
        _, out = run_cli(capsys, "qracse", "--d", "2", "--variant", "pairs")
        assert "0.364277" in out and "0.607128" in out

    def test_boolean_variant(self, capsys):
        _, out = run_cli(capsys, "qracse", "--d", "2", "--variant", "f", "--truth-table", "00010111")
        assert "0.728553" in out

    def test_generated_table_source(self, capsys):
        code, out = run_cli(capsys, "qracse", "--d", "5", "--table", "generated")
        assert code == 0

    def test_csv_format(self, capsys):
        _, out = run_cli(capsys, "qracse", "--d", "2", "--format", "csv")
        assert out.splitlines()[0] == "choice,value,probability"

    def test_json_format(self, capsys):
        _, out = run_cli(capsys, "qracse", "--d", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["protocol"]["p_min"] == pytest.approx(0.7285533905932737, abs=1e-9)
        assert payload["trivial"]["p_min"] == 0.25


class TestBoundsCommand:
    def test_symmetric(self, capsys):
        _, out = run_cli(capsys, "bounds", "symmetric", "--d", "2", "--N", "2")
        assert "3/4" in out

    def test_werner(self, capsys):
        _, out = run_cli(capsys, "bounds", "werner", "--n1", "1", "--n2", "2", "--d", "2")
        assert "5/6" in out

    def test_asym(self, capsys):
        code, out = run_cli(capsys, "bounds", "asym", "--d", "2", "--p", "0.3", "0.7")
        assert code == 0
        lines = out.splitlines()
        value = float(lines[0].split("=")[-1])
        closed = float(lines[1].split("=")[-1])
        assert value == pytest.approx(closed, abs=1e-6)

    def test_asym_without_solver_options(self, capsys):
        with pytest.raises(SystemExit):
            main(["bounds", "asym", "--d", "2", "--p", "0.5", "0.5", "--restarts", "4"])
        capsys.readouterr()

    def test_symmetric_json(self, capsys):
        _, out = run_cli(capsys, "bounds", "symmetric", "--d", "2", "--N", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["exact"] == {"numerator": 3, "denominator": 4}
        assert payload["value"] == 0.75

    def test_asym_json(self, capsys):
        _, out = run_cli(capsys, "bounds", "asym", "--d", "2", "--p", "0.5", "0.5", "--format", "json")
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.75, abs=1e-6)


class TestOutputFile:
    def test_writes_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code, out = run_cli(capsys, "teleport", "--d", "2", "--k", "2", "--format", "json", "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["exact"] == {"numerator": 1, "denominator": 2}


GOLDEN_CLI = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_CLI, ids=lambda case: " ".join(case["argv"]))
def test_cli_output_matches_golden(capsys, case):
    """Every subcommand in every format prints the bytes recorded in golden_cli.json."""
    code, out = run_cli(capsys, *case["argv"])
    assert code == 0
    assert out == case["stdout"]


# runs cli.main on each argv of argv[1] in one fresh interpreter; prints, as JSON, each
# (exit code, stdout, stderr) and whether numpy was imported by the end
_CHILD_CLI = """
import contextlib, io, json, sys
from qracsim.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"results": results, "numpy": "numpy" in sys.modules}))
"""


def _run_cli_in_child(child_env, argvs: list[list[str]]) -> dict:
    run = subprocess.run(
        [sys.executable, "-c", _CHILD_CLI, json.dumps(argvs)], env=child_env, check=True, capture_output=True, text=True
    )
    return json.loads(run.stdout)


class TestImportBoundary:
    """The bounds are scalar arithmetic: the CLI imports numpy only when a command computes with arrays."""

    def test_bounds_help_and_input_errors_run_without_numpy(self, child_env):
        cases = [case for case in GOLDEN_CLI if case["argv"][0] == "bounds"]
        assert {case["argv"][1] for case in cases} == {"asym", "symmetric", "werner"}
        error_argv = ["bounds", "symmetric", "--d", "1", "--N", "2"]
        child = _run_cli_in_child(child_env, [case["argv"] for case in cases] + [error_argv, ["bounds", "--help"]])
        *golden, error, help_ = child["results"]
        assert golden == [[0, case["stdout"], ""] for case in cases]
        assert error == [2, "", "error: dimension must be at least 2, got 1\n"]
        assert help_[0] == 0 and "asymmetric bound by a secular-equation root" in help_[1]
        assert child["numpy"] is False

    def test_teleport_imports_its_module_when_it_runs(self, child_env):
        """The function-local import runs in a fresh interpreter, where no test module has loaded teleport yet."""
        cases = [case for case in GOLDEN_CLI if case["argv"][:5] == ["teleport", "--d", "2", "--k", "3"]]
        assert len(cases) == 3
        child = _run_cli_in_child(child_env, [case["argv"] for case in cases])
        assert child["results"] == [[0, case["stdout"], ""] for case in cases]


class TestReproduceAll:
    def test_no_hard_failures(self, reproduction):
        _, checks, summary = reproduction
        assert summary["hard_failures"] == 0

    def test_known_annotations_present(self, reproduction):
        _, _, summary = reproduction
        assert "per_choice_c0(d=3)" in summary["annotations"]
        assert "per_choice_c1(d=3)" in summary["annotations"]

    def test_artifacts_written(self, reproduction):
        out_dir, _, summary = reproduction
        for name in ("summary.json", "table4.json", "table4.csv", "teleport_sweep.csv", "monogamy_scan.json"):
            assert (out_dir / name).exists()
        payload = json.loads((out_dir / "summary.json").read_text())
        assert payload["hard_failures"] == 0

    def test_artifacts_match_golden_digests(self, reproduction):
        """Every artifact of the reference run has the sha256 in golden_reproduce.json."""
        out_dir, _, _ = reproduction
        golden = json.loads((Path(__file__).parent / "golden_reproduce.json").read_text())
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
        assert golden["seed"] == 20220314  # the seed of the shared reproduction fixture
        assert digests == golden["sha256"]

    def test_table4_csv_shape(self, reproduction):
        out_dir, _, _ = reproduction
        lines = (out_dir / "table4.csv").read_text().splitlines()
        assert lines[0] == "d,P_min,trivial_P_min,P_avg,trivial_P_avg"
        assert len(lines) == 4

    def test_csv_cells_are_numbers(self, reproduction):
        out_dir, _, summary = reproduction
        csv_names = [name for name in summary["artifacts"] if name.endswith(".csv")]
        assert csv_names
        for name in csv_names:
            rows = list(csv.reader((out_dir / name).read_text().splitlines()))
            for row in rows[1:]:
                for cell in row:
                    try:
                        int(cell)
                    except ValueError:
                        float(cell)  # raises on anything that is not a plain number

    def test_cli_exit_code(self, tmp_path, capsys):
        code = main(["reproduce-all", "--seed", "20220314", "--out", str(tmp_path / "r")])
        capsys.readouterr()
        assert code == 0

    def test_artifacts_do_not_depend_on_blas_thread_count(self, tmp_path, child_env):
        # the Kay scan runs a stacked eigvalsh, which BLAS may split across threads
        artifacts = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"threads{threads}"
            env = {**child_env, "OPENBLAS_NUM_THREADS": threads}
            argv = [sys.executable, "-m", "qracsim.cli", "reproduce-all", "--out", str(out_dir)]
            subprocess.run(argv, env=env, check=True, capture_output=True)
            artifacts.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
        assert len(artifacts[0]) == 11
        assert artifacts[0] == artifacts[1]

    def test_reproduction_never_imports_numpy_random(self, tmp_path, child_env):
        # importing numpy.random costs about 5 MiB and 15-20 ms, and nothing in the reproduction needs it
        code = (
            "import sys; from pathlib import Path; from qracsim import cli; "
            f"cli.run_reproduction(20220314, Path({str(tmp_path / 'r')!r})); "
            "print('numpy.random' in sys.modules)"
        )
        run = subprocess.run([sys.executable, "-c", code], env=child_env, check=True, capture_output=True, text=True)
        assert run.stdout.strip() == "False"

    def test_search_never_imports_numpy_random(self, child_env):
        # the search draws its restarts from random.Random, which import qracsim.cli already loads
        code = (
            "import sys; from qracsim import cli, codes; "
            "codes.search_tables(4, 'p_min', 200, 0); "
            "print('numpy.random' in sys.modules)"
        )
        run = subprocess.run([sys.executable, "-c", code], env=child_env, check=True, capture_output=True, text=True)
        assert run.stdout.strip() == "False"

    def test_env_var_default_directory(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("QRACSIM_OUTPUT_DIR", str(target))
        code = main(["reproduce-all", "--seed", "20220314"])
        capsys.readouterr()
        assert code == 0
        assert (target / "summary.json").exists()


class TestNumericalFailures:
    def test_cross_check_disagreement_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(teleport, "_composite_full_state_fidelity", lambda d: 0.5)
        code = main(["reproduce-all", "--seed", "20220314", "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: full-state simulation disagrees")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_incomplete_basis_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(qracse, "OUTCOME_NORMALISATION_TOL", -1.0)
        qracse._kernel.cache_clear()
        try:
            code = main(["qracse", "--d", "2"])
        finally:
            qracse._kernel.cache_clear()
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: measurement basis incomplete")
        assert len(err.splitlines()) == 1

    def test_unwritable_report_directory_is_one_error_line(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["reproduce-all", "--out", str(blocker / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write reports: ")
        assert len(err.splitlines()) == 1

    def test_unwritable_output_file_is_one_error_line(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.json"
        assert main(["teleport", "--d", "2", "--k", "2", "--format", "json", "--output", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err
        assert len(err.splitlines()) == 1

    def test_negative_seed_writes_no_artifact(self, tmp_path, capsys):
        out_dir = tmp_path / "r"
        assert main(["reproduce-all", "--seed", "-1", "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_negative_search_seed_names_the_option(self, capsys):
        assert main(["qracse", "--d", "2", "--table", "search", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["teleport", "--d", "2", "--k", "9"], "k must lie in 1..d^2"),
            (["qracse", "--d", "7", "--table", "search"], "supported dimensions are 2 <= d <= 5"),
            (["qracse", "--d", "3", "--table", "search", "--budget", "0"], "budget must be a positive number"),
            (["qracse", "--d", "2", "--table", "builtin", "--budget", "-5"], "--budget applies to --table search only"),
            (["qracse", "--d", "2", "--table", "generated", "--objective", "p_avg"], "--objective applies to --table search only"),
            (["qracse", "--d", "2", "--seed", "3"], "--seed applies to --table search only"),
        ],
        ids=["teleport-k", "search-d", "search-budget", "stray-budget", "stray-objective", "stray-seed"],
    )
    def test_bad_input_keeps_exit_code_two(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("d", ["1", "6"])
    def test_missing_builtin_table_names_the_built_in_dimensions(self, capsys, d):
        assert main(["qracse", "--d", d]) == 2
        assert capsys.readouterr().err == f"error: no built-in table for d={d}; built-in tables exist for d = 2, 3, 4\n"

    def test_teleport_dimension_cap_is_one_error_line(self, capsys):
        # d = 9 is the smallest rejected dimension; it would still fit in memory
        assert main(["teleport", "--d", "9", "--k", "81"]) == 2
        err = capsys.readouterr().err
        assert err == "error: supported dimensions are 2 <= d <= 8\n"

    def test_non_finite_probability_is_one_error_line(self, capsys):
        assert main(["bounds", "asym", "--d", "2", "--p", "nan", "0.5", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: probabilities must be finite")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "p, message",
        [
            (["inf", "-inf"], "probabilities must be finite"),
            (["-inf", "0.5"], "probabilities must be finite"),
            (["-nan", "1"], "probabilities must be finite"),
            (["-Infinity", "inf"], "probabilities must be finite"),
            (["-1e-3", "1.001"], "probabilities must be nonnegative"),
        ],
    )
    def test_negative_number_is_read_as_a_value(self, capsys, p, message):
        # argparse alone takes -inf or -1e-3 for an unknown option
        assert main(["bounds", "asym", "--d", "2", "--p", *p]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("truth", ["0a010101", "0101", "000101110", "0001011 "])
    def test_malformed_truth_table_names_the_option(self, capsys, truth):
        assert main(["qracse", "--d", "2", "--variant", "f", "--truth-table", truth]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --truth-table must be 8 binary digits")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "variant, name", [("pairs", "four_dits_pairs"), ("single", "four_dits_single"), ("f", "boolean_f")]
    )
    def test_d2_only_variants_share_one_message(self, capsys, variant, name):
        assert main(["qracse", "--d", "3", "--variant", variant]) == 2
        assert capsys.readouterr().err == f"error: variant {name!r} is defined for d=2 only\n"

    def test_d2_only_variant_is_rejected_before_the_search(self, capsys, monkeypatch):
        def search_tables(*args, **kwargs):
            pytest.fail("the table search ran before the variant check")

        monkeypatch.setattr(codes, "search_tables", search_tables)
        argv = ["qracse", "--d", "5", "--variant", "pairs", "--table", "search", "--budget", "100000"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: variant 'four_dits_pairs' is defined for d=2 only\n"

    @pytest.mark.parametrize("variant", ["two-strings", "pairs", "single"])
    def test_truth_table_without_the_boolean_variant_is_one_error_line(self, capsys, variant):
        assert main(["qracse", "--d", "2", "--variant", variant, "--truth-table", "00010111"]) == 2
        assert capsys.readouterr().err == "error: --truth-table applies to --variant f only\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["teleport", "--d", "9", "--k", "81"],
            ["qracse", "--d", "9", "--table", "generated"],
            ["qracse", "--d", "6", "--table", "search"],
            ["bounds", "asym", "--d", "2", "--p", "0.2", *["0.1"] * 8],
        ],
    )
    def test_every_cap_has_one_message_form(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: supported [a-z ]+ are 2 <= [a-zA-Z] <= \d+( \([^()]+\))?\n", err), err


# ---------------------------------------------------------------- fuzz
#
# Bounded argument ranges, in and out of each command's domain.  Every call
# must end with exit code 0, 1 or 2; a nonzero return from main prints
# exactly one line, the error line.  argparse itself may reject only
# `bounds asym` with an empty --p, which it must.

FORMATS = st.sampled_from(["table", "json", "csv"])
PROBABILITIES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-nan", "-1e-3", "-0.5", "1.5", "0", "1", "0.5", "0.25", "0.75"]),
    st.floats(0, 1).map(repr),
)


def call_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2 and argv[:2] == ["bounds", "asym"] and argv[-1] == "--p", argv
            assert "expected at least one argument" in err.getvalue(), (argv, err.getvalue())
            return
    assert code in (0, 1, 2), argv
    event(f"exit {code}")
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
    return code


@settings(max_examples=60, deadline=None)
@given(d=st.integers(-1, 10), k=st.one_of(st.integers(-2, 5), st.integers(-2, 70)), fmt=FORMATS)
def test_fuzz_teleport(d, k, fmt):
    call_main(["teleport", "--d", str(d), "--k", str(k), "--format", fmt])


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(0, 9),
    variant=st.sampled_from(["two-strings", "pairs", "single", "f"]),
    table=st.sampled_from(["builtin", "generated", "search"]),
    objective=st.sampled_from(["p_min", "p_avg"]),
    budget=st.integers(-2, 50),
    seed=st.integers(-3, 3),
    truth=st.text(alphabet="012x", max_size=10),
    fmt=FORMATS,
    stray=st.just(False),
)
@example(d=2, variant="f", table="builtin", objective="p_min", budget=1, seed=0, truth="0a010101", fmt="table", stray=False)
@example(d=2, variant="two-strings", table="search", objective="p_min", budget=5, seed=-1, truth="", fmt="table", stray=False)
@example(d=2, variant="two-strings", table="builtin", objective="p_min", budget=-5, seed=0, truth="", fmt="table", stray=True)
def test_fuzz_qracse(d, variant, table, objective, budget, seed, truth, fmt, stray):
    # the search options go with --table search only; a stray one with another table is bad input
    argv = ["qracse", "--d", str(d), "--variant", variant, "--table", table, "--format", fmt]
    if table == "search" or stray:
        argv += ["--objective", objective, "--budget", str(budget), "--seed", str(seed)]
    code = call_main(argv + (["--truth-table", truth] if truth else []))
    if stray:
        assert code == 2, argv


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["werner", "symmetric", "asym"]),
    d=st.integers(-1, 10),
    n1=st.integers(-1, 10),
    n2=st.integers(-1, 10),
    p=st.lists(PROBABILITIES, min_size=0, max_size=10),
    fmt=FORMATS,
)
@example(kind="asym", d=2, n1=0, n2=0, p=["inf", "-inf"], fmt="table")
def test_fuzz_bounds(kind, d, n1, n2, p, fmt):
    argv = ["bounds", kind, "--d", str(d), "--format", fmt]
    if kind == "werner":
        argv += ["--n1", str(n1), "--n2", str(n2)]
    elif kind == "symmetric":
        argv += ["--N", str(n1)]
    else:
        argv += ["--p", *p]
    call_main(argv)
