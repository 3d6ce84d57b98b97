"""Command-line frontend: reproduce the protocol tables and bounds as
human-readable tables or machine-readable JSON/CSV reports.

Printed tables round to six decimals; JSON always carries full double
precision.  ``reproduce-all`` writes one JSON (and CSV where tabular)
artifact per reproduction group plus a summary with a pass/fail status per
check, and exits nonzero if any hard check fails.  Reference values that
are published inconsistently are annotated ``paper-discrepancy`` and never
fail the run; the computed values are the ground truth in those rows.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bounds, codes, qcore, qracse, teleport

OUTPUT_DIR_ENV = "QRACSIM_OUTPUT_DIR"
DEFAULT_TRUTH_TABLE = "00010111"  # majority of three, for --variant f
_SEARCH_OPTIONS = ("objective", "budget", "seed")  # of --table search; codes.search_tables holds their defaults

HARD = "hard"
ANNOTATED = "paper-discrepancy"

# published reference values reproduced by `reproduce-all`
TABLE4 = {
    2: {"p_min": 0.728, "p_avg": 0.728, "trivial_min": 0.250, "trivial_avg": 0.625},
    3: {"p_min": 0.424, "p_avg": 0.539, "trivial_min": 0.111, "trivial_avg": 0.556},
    4: {"p_min": 0.261, "p_avg": 0.445, "trivial_min": 0.063, "trivial_avg": 0.531},
}
PER_CHOICE_REFERENCE = {
    3: {"stated": (0.582, 0.386), "tabulated_avg": 0.539},
    4: {"stated": (0.629, 0.261), "tabulated_avg": 0.445},
}
PAIRS_AVG_REFERENCES = (0.607, 0.604)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _render_table(headers: list[str], rows: list[list]) -> str:
    cells = [[h for h in headers]] + [
        [_fmt(v) if isinstance(v, float) else str(v) for v in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_from_rows(headers: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _fraction_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


class Output(NamedTuple):
    """One command's result in every format: ``json`` dumps ``payload``,
    ``csv`` writes ``headers`` and ``rows``, ``table`` prints ``text``."""

    payload: object
    headers: list[str]
    rows: list[list]
    text: str


def _emit(args, out: Output) -> int:
    """Write ``out`` in the format of --format, to --output or stdout."""
    if args.format == "json":
        text = _dump_json(out.payload)
    elif args.format == "csv":
        text = _csv_from_rows(out.headers, out.rows)
    else:
        text = out.text
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------- teleport


def cmd_teleport(args) -> Output:
    result = teleport.constrained_teleport_fidelity(args.d, args.k)
    assert result.exact is not None
    row = [args.d, args.k, result.entanglement_fidelity_F, float(result.exact), result.transmission_fidelity_f]
    text = (
        f"constrained teleportation d={args.d} k={args.k}\n"
        f"  F (exact)      = {_fraction_str(result.exact)} = {_fmt(float(result.exact))}\n"
        f"  F (simulated)  = {_fmt(result.entanglement_fidelity_F)}\n"
        f"  f (channel)    = {_fmt(result.transmission_fidelity_f)}\n"
    )
    return Output(result.to_json_dict(), ["d", "k", "F_simulated", "F_exact", "f"], [row], text)


# ---------------------------------------------------------------- qracse


def _resolve_table(args, search: dict) -> codes.EncodingTable:
    if args.table == "builtin":
        return codes.builtin_table(args.d)
    if args.table == "generated":
        return codes.generate_single_distance(args.d)
    return codes.search_tables(args.d, **search).table


def cmd_qracse(args) -> Output:
    variant = {
        "two-strings": "two_strings",
        "pairs": "four_dits_pairs",
        "single": "four_dits_single",
        "f": "boolean_f",
    }[args.variant]
    qracse.check_variant(args.d, variant)  # before a --table search spends its budget
    boolean_function = None
    if variant == "boolean_f":
        truth = DEFAULT_TRUTH_TABLE if args.truth_table is None else args.truth_table
        if len(truth) != 8 or set(truth) - {"0", "1"}:
            raise ValueError(f"--truth-table must be 8 binary digits such as 00010111, got {truth!r}")
        boolean_function = tuple(map(int, truth))
    elif args.truth_table is not None:
        raise ValueError("--truth-table applies to --variant f only")
    search = {name: getattr(args, name) for name in _SEARCH_OPTIONS if getattr(args, name) is not None}
    if search and args.table != "search":
        raise ValueError(f"--{next(iter(search))} applies to --table search only")
    table = _resolve_table(args, search)
    report = qracse.run_protocol(
        qracse.QracTask(d=args.d, table=table, variant=variant, boolean_function=boolean_function)
    )
    trivial = qracse.trivial_strategy(args.d, variant)

    payload = {"protocol": report.to_json_dict(), "trivial": trivial.to_json_dict()}
    # one CSV row per (choice, requested value)
    rows = [[c, value, p] for (c, value), p in sorted(report.per_string.items())]
    headers = ["variant", "P_min", "trivial P_min", "P_avg", "trivial P_avg"]
    text = _render_table(headers, [[args.variant, report.p_min, trivial.p_min, report.p_avg, trivial.p_avg]])
    text += "per choice: " + "  ".join(f"P[{k}]={_fmt(v)}" for k, v in sorted(report.per_choice.items())) + "\n"
    return Output(payload, ["choice", "value", "probability"], rows, text)


# ---------------------------------------------------------------- bounds


def cmd_bounds(args) -> Output:
    if args.kind == "asym":
        spec = bounds.AsymSpec(d=args.d, probabilities=tuple(args.p))
        optimum = bounds.asym_optimize(spec)
        label = f"asym_bound(d={args.d}, p={list(spec.probabilities)})"
        details = {"point": list(optimum.point)}
        text = f"{label} = {_fmt(optimum.value)}\n"
        if spec.n == 2:
            closed = bounds.asym_closed_form_n2(spec.probabilities[0], args.d)
            details["closed_form"] = closed
            details["closed_form_gap"] = abs(closed - optimum.value)
            text += f"  closed form    = {_fmt(closed)}\n"
        text += f"  maximiser      = ({', '.join(_fmt(v) for v in optimum.point)})\n"
        payload = {"label": label, "value": optimum.value, "details": details}
        return Output(payload, ["label", "value"], [[label, optimum.value]], text)

    if args.kind == "werner":
        label = f"werner_cloning_fidelity(n1={args.n1}, n2={args.n2}, d={args.d})"
        exact = bounds.werner_fidelity(args.n1, args.n2, args.d)
    else:
        label = f"symmetric_bound(d={args.d}, N={args.N})"
        exact = bounds.symmetric_bound(args.d, args.N)
    payload = {"label": label, "value": float(exact), "details": {}, "exact": qcore.fraction_json(exact)}
    text = f"{label} = {_fraction_str(exact)} = {_fmt(float(exact))}\n"
    return Output(payload, ["label", "value"], [[label, float(exact)]], text)


# ---------------------------------------------------------------- reproduce-all


def _check(name: str, computed: float, reference: float, tol: float, kind: str = HARD) -> dict:
    ok = abs(computed - reference) <= tol
    status = "pass" if ok else ("annotated" if kind == ANNOTATED else "fail")
    return {
        "name": name,
        "computed": computed,
        "reference": reference,
        "tolerance": tol,
        "kind": kind,
        "status": status,
    }


def _check_true(name: str, ok: bool, kind: str = HARD, **extra) -> dict:
    status = "pass" if ok else ("annotated" if kind == ANNOTATED else "fail")
    return {"name": name, "kind": kind, "status": status, **extra}


def run_reproduction(seed: int, out_dir: Path) -> tuple[list[dict], dict]:
    """Compute every reproduction group, write artifacts, return all checks."""
    out_dir.mkdir(parents=True, exist_ok=True)
    checks: list[dict] = []
    artifacts: dict[str, str] = {}

    def write(name: str, text: str):
        (out_dir / name).write_text(text)
        artifacts[name] = name

    # teleportation sweep
    sweep_rows = []
    for d in (2, 3):
        for k in range(1, d * d + 1):
            res = teleport.constrained_teleport_fidelity(d, k)
            assert res.exact is not None
            sweep_rows.append([d, k, res.entanglement_fidelity_F, float(res.exact)])
            checks.append(
                _check(f"teleport_F(d={d},k={k})", res.entanglement_fidelity_F, float(res.exact), 1e-10)
            )
    write("teleport_sweep.json", _dump_json(sweep_rows))
    write("teleport_sweep.csv", _csv_from_rows(["d", "k", "F_simulated", "F_exact"], sweep_rows))

    # two-string protocol rows
    table4_rows = []
    qreports = {}
    for d in (2, 3, 4):
        report = qracse.run_protocol(
            qracse.QracTask(d=d, table=codes.builtin_table(d), variant="two_strings")
        )
        trivial = qracse.trivial_strategy(d, "two_strings")
        qreports[d] = report
        table4_rows.append([d, report.p_min, trivial.p_min, report.p_avg, trivial.p_avg])
        ref = TABLE4[d]
        kind = HARD if d in (2, 4) else ANNOTATED
        checks.append(_check(f"two_strings_p_min(d={d})", report.p_min, ref["p_min"], 1e-3, kind))
        checks.append(_check(f"two_strings_p_avg(d={d})", report.p_avg, ref["p_avg"], 1e-3, kind))
        checks.append(_check(f"trivial_p_min(d={d})", trivial.p_min, ref["trivial_min"], 1e-3))
        checks.append(_check(f"trivial_p_avg(d={d})", trivial.p_avg, ref["trivial_avg"], 1e-3))
    exact_d2 = (3 + 2 * np.sqrt(2)) / 8
    checks.append(_check("two_strings_d2_closed_form", qreports[2].p_avg, exact_d2, 1e-9))
    for d, ref in PER_CHOICE_REFERENCE.items():
        pc = [qreports[d].per_choice["0"], qreports[d].per_choice["1"]]
        kind = HARD if d == 4 else ANNOTATED
        checks.append(_check(f"per_choice_c0(d={d})", pc[0], ref["stated"][0], 2e-3, kind))
        checks.append(_check(f"per_choice_c1(d={d})", pc[1], ref["stated"][1], 2e-3, kind))
    write("table4.json", _dump_json({str(d): r.to_json_dict() for d, r in qreports.items()}))
    write("table4.csv", _csv_from_rows(["d", "P_min", "trivial_P_min", "P_avg", "trivial_P_avg"], table4_rows))

    # four-bit variants and the Boolean-function task
    table = codes.builtin_table(2)
    pairs = qracse.run_protocol(qracse.QracTask(d=2, table=table, variant="four_dits_pairs"))
    single = qracse.run_protocol(qracse.QracTask(d=2, table=table, variant="four_dits_single"))
    trivial_pairs = qracse.trivial_strategy(2, "four_dits_pairs")
    trivial_single = qracse.trivial_strategy(2, "four_dits_single")
    checks.append(_check("pairs_p_min", pairs.p_min, 0.364, 2e-3))
    for ref in PAIRS_AVG_REFERENCES:
        checks.append(_check(f"pairs_p_avg_vs_{ref}", pairs.p_avg, ref, 5e-3))
    checks.append(
        _check_true(
            "pairs_p_avg_published_values_consistent",
            abs(PAIRS_AVG_REFERENCES[0] - PAIRS_AVG_REFERENCES[1]) < 1e-12,
            ANNOTATED,
            computed=pairs.p_avg,
            references=list(PAIRS_AVG_REFERENCES),
        )
    )
    checks.append(_check("single_p_min", single.p_min, 0.728, 2e-3))
    checks.append(_check("single_p_avg", single.p_avg, 0.728, 2e-3))
    checks.append(_check_true("pairs_trivial_exact", (trivial_pairs.p_avg, trivial_pairs.p_min) == (13 / 24, 0.25)))
    checks.append(_check_true("single_trivial_exact", (trivial_single.p_avg, trivial_single.p_min) == (0.75, 0.5)))
    majority, parity = (
        qracse.run_protocol(qracse.QracTask(d=2, table=table, variant="boolean_f", boolean_function=f))
        for f in ((0, 0, 0, 1, 0, 1, 1, 1), (0, 1, 1, 0, 1, 0, 0, 1))
    )
    checks.append(_check("f_majority_p_min", majority.p_min, 0.728, 2e-3))
    checks.append(_check("f_parity_p_min", parity.p_min, 0.728, 2e-3))
    write(
        "table6.json",
        _dump_json(
            {
                "pairs": pairs.to_json_dict(),
                "single": single.to_json_dict(),
                "boolean_majority": majority.to_json_dict(),
                "trivial_pairs": trivial_pairs.to_json_dict(),
                "trivial_single": trivial_single.to_json_dict(),
            }
        ),
    )

    # strategies with quantum inputs
    strategy_payload = {}
    for d in (2, 3, 4):
        favored = teleport.nsqrac_favored_strategy(d)
        assert favored.exact is not None
        checks.append(
            _check(f"nsqrac_favored(d={d})", favored.entanglement_fidelity_F, float(favored.exact), 1e-10)
        )
        splits = {}
        for k_prime in (0, d, d * d):
            split = teleport.nsqrac_split_strategy(d, k_prime)
            checks.append(
                _check(f"nsqrac_split(d={d},k'={k_prime})", split.entanglement_fidelity_F, 0.5, 1e-10)
            )
            splits[str(k_prime)] = split.to_json_dict()
        strategy_payload[str(d)] = {"favored": favored.to_json_dict(), "split": splits}
    composite = teleport.composite_nsqrac_via_qracse(2)
    checks.append(_check("composite_equals_qracse_d2", composite.entanglement_fidelity_F, qreports[2].p_avg, 1e-6))
    checks.append(_check_true("composite_beats_favored", composite.entanglement_fidelity_F > 0.625, computed=composite.entanglement_fidelity_F))
    strategy_payload["composite_d2"] = composite.to_json_dict()
    write("nsqrac_strategies.json", _dump_json(strategy_payload))

    # closed-form bounds
    grid = {}
    for d in range(2, 6):
        for n in range(1, 6):
            fr = bounds.symmetric_bound(d, n)
            via = bounds.symmetric_bound_via_cloning(d, n)
            grid[f"d{d}_N{n}"] = _fraction_str(fr)
            checks.append(_check_true(f"symmetric_bound(d={d},N={n})_consistent", fr == via and fr == Fraction(n + d - 1, d * n)))
    werner = bounds.werner_fidelity(1, 2, 2)
    checks.append(_check_true("werner_1_2_2_is_5_6", werner == Fraction(5, 6)))
    checks.append(_check("asym_closed_form_half_d2", bounds.asym_closed_form_n2(0.5, 2), 0.75, 1e-12))
    write(
        "bounds_closed_form.json",
        _dump_json({"symmetric_grid": grid, "werner_1_2_2": _fraction_str(werner)}),
    )

    # exact asymmetric bound versus the two-receiver closed form
    asym_rows = []
    for d in (2, 3):
        for i in range(11):
            p = i / 10
            spec = bounds.AsymSpec(d=d, probabilities=(p, 1 - p))
            optimum = bounds.asym_optimize(spec)
            closed = bounds.asym_closed_form_n2(p, d)
            asym_rows.append([d, p, optimum.value, closed])
            checks.append(_check(f"asym_opt(d={d},p={p:.1f})", optimum.value, closed, 1e-6))
    write("asym_optimizer_grid.json", _dump_json(asym_rows))
    write("asym_optimizer_grid.csv", _csv_from_rows(["d", "p", "optimizer", "closed_form"], asym_rows))

    # monogamy feasibility scan
    scan = bounds.kay_feasibility_scan(n_states=500, seed=seed)
    checks.append(
        _check_true(
            "kay_residual_nonnegative_500_states",
            scan.min_residual >= -1e-9,
            computed=scan.min_residual,
        )
    )
    write(
        "monogamy_scan.json",
        _dump_json(
            {
                "min_residual": scan.min_residual,
                "n_states": scan.n_states,
                "seed": seed,
                "residuals_head": list(scan.residuals_head),
            }
        ),
    )

    hard_failures = [c for c in checks if c["kind"] == HARD and c["status"] == "fail"]
    summary = {
        "seed": seed,
        "checks": checks,
        "artifacts": sorted(artifacts),
        "hard_failures": len(hard_failures),
        "annotations": [c["name"] for c in checks if c["status"] == "annotated"],
    }
    write("summary.json", _dump_json(summary))
    return checks, summary


def cmd_reproduce_all(args) -> int:
    out_dir = Path(args.out or os.environ.get(OUTPUT_DIR_ENV, "reports"))
    try:
        checks, summary = run_reproduction(args.seed, out_dir)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write reports: {exc}\n")
        return 2
    for c in checks:
        line = f"[{c['status'].upper():9s}] {c['name']}"
        if "computed" in c and "reference" in c:
            line += f"  computed={c['computed']:.9f} reference={c['reference']}"
        sys.stdout.write(line + "\n")
    sys.stdout.write(
        f"\n{len(checks)} checks, {summary['hard_failures']} hard failures, "
        f"{len(summary['annotations'])} annotated; reports in {out_dir}\n"
    )
    return 1 if summary["hard_failures"] else 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qracsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, command):
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        p.add_argument("--output", default=None, help="write to this file instead of stdout")
        p.set_defaults(func=lambda args: _emit(args, command(args)))

    p_tel = sub.add_parser("teleport", help="constrained teleportation fidelity")
    p_tel.add_argument("--d", type=int, required=True)
    p_tel.add_argument("--k", type=int, required=True)
    add_common(p_tel, cmd_teleport)

    p_qr = sub.add_parser("qracse", help="entanglement-assisted coding protocols")
    p_qr.add_argument("--d", type=int, required=True)
    p_qr.add_argument("--variant", choices=("two-strings", "pairs", "single", "f"), default="two-strings")
    p_qr.add_argument("--table", choices=("builtin", "generated", "search"), default="builtin")
    p_qr.add_argument("--objective", choices=("p_min", "p_avg"), help="objective of --table search (default p_min)")
    p_qr.add_argument("--budget", type=int, help="evaluations of --table search (default 200)")
    p_qr.add_argument("--seed", type=int, help="seed of --table search (default 0)")
    p_qr.add_argument("--truth-table", help=f"8 bits of f(x) for --variant f (default {DEFAULT_TRUTH_TABLE}, majority)")
    add_common(p_qr, cmd_qracse)

    p_b = sub.add_parser("bounds", help="monogamy upper bounds")
    sub_b = p_b.add_subparsers(dest="kind", required=True)
    p_w = sub_b.add_parser("werner", help="universal cloning fidelity")
    p_w.add_argument("--n1", type=int, required=True)
    p_w.add_argument("--n2", type=int, required=True)
    p_w.add_argument("--d", type=int, required=True)
    add_common(p_w, cmd_bounds)
    p_s = sub_b.add_parser("symmetric", help="symmetric N-input bound")
    p_s.add_argument("--d", type=int, required=True)
    p_s.add_argument("--N", type=int, required=True)
    add_common(p_s, cmd_bounds)
    p_a = sub_b.add_parser("asym", help="asymmetric bound by an exact eigenproblem")
    p_a.add_argument("--d", type=int, required=True)
    p_a.add_argument("--p", type=float, nargs="+", required=True)
    add_common(p_a, cmd_bounds)

    p_all = sub.add_parser("reproduce-all", help="write every reproduction artifact")
    p_all.add_argument("--seed", type=int, default=20220314)
    p_all.add_argument("--out", default=None, help=f"output directory (default ${OUTPUT_DIR_ENV} or ./reports)")
    p_all.set_defaults(func=cmd_reproduce_all)
    return parser


def _negative_numbers_as_values(argv: list[str]) -> list[str]:
    """argparse reads only -<digits>[.<digits>] as a negative number and takes
    other negative numbers (-inf, -nan, -1e-3) for unknown options; a leading
    space keeps them values, and int() and float() ignore it."""

    def misread(arg: str) -> bool:
        try:
            float(arg)
        except ValueError:
            return False
        return arg.startswith("-") and not re.fullmatch(r"-\d+|-\d*\.\d+", arg)

    return [" " + arg if misread(arg) else arg for arg in argv]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_negative_numbers_as_values(argv))
    try:
        # one message naming --seed on both seeded paths: reproduce-all reaches the Kay scan's own
        # seed check only after writing the other artifacts, and search_tables' own check does not
        # name the option
        if (getattr(args, "seed", None) or 0) < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (ValueError, LookupError, OSError) as exc:  # bad input, or an --output that cannot be written
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RuntimeError as exc:  # a numerical cross-check or consistency check failed
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
