"""Acceptance suite: one test per criterion at its stated tolerance.

Each test's docstring first line is the criterion label; the conftest hook
prints a PASS/FAIL line per criterion in the terminal summary.
"""

from fractions import Fraction

import numpy as np
import pytest

from qracsim import bounds, codes, qracse, teleport
from qracsim.cli import run_reproduction
from reference import bell_basis, frac_power_x, frac_power_z, measurement_basis, overlap

GRAY_D2_VALUE = (3 + 2 * np.sqrt(2)) / 8

# d=3 two-string task: the published tabulated row (P_avg, P_min), the
# per-choice pair stated in the text, and the per-choice pair the row implies
D3_TABULATED_ROW = (0.539, 0.424)
D3_STATED_PER_CHOICE = (0.582, 0.386)
D3_IMPLIED_PER_CHOICE = (2 * D3_TABULATED_ROW[0] - D3_TABULATED_ROW[1], D3_TABULATED_ROW[1])


class _Recorder:
    """Aggregates sub-check failures so one criterion raises one assertion."""

    def __init__(self, criterion):
        self.criterion = criterion
        self.failures = []

    def check(self, condition, message):
        if not condition:
            self.failures.append(message)
        return condition

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None and self.failures:
            raise AssertionError(f"{self.criterion}: " + "; ".join(self.failures))
        return False


@pytest.fixture(scope="module")
def two_string_reports():
    return {
        d: qracse.run_protocol(qracse.QracTask(d=d, table=codes.builtin_table(d), variant="two_strings"))
        for d in (2, 3, 4)
    }


def test_01_constrained_teleportation_sweep():
    """criterion 1: teleportation fidelity equals k/d^2 for d in {2,3}, k = 1..d^2"""
    with _Recorder("criterion 1") as rec:
        for d in (2, 3):
            for k in range(1, d * d + 1):
                result = teleport.constrained_teleport_fidelity(d, k)
                rec.check(result.exact == Fraction(k, d * d), f"exact value wrong at d={d}, k={k}")
                rec.check(
                    abs(result.entanglement_fidelity_F - k / d**2) <= 1e-10,
                    f"simulation off at d={d}, k={k}: {result.entanglement_fidelity_F!r}",
                )


def test_02_two_string_protocol_d2(two_string_reports):
    """criterion 2: d=2 success equals (3+2*sqrt(2))/8 and prints as 0.728"""
    with _Recorder("criterion 2") as rec:
        report = two_string_reports[2]
        rec.check(abs(report.p_avg - GRAY_D2_VALUE) <= 1e-9, f"p_avg {report.p_avg!r}")
        rec.check(abs(report.p_min - GRAY_D2_VALUE) <= 1e-9, f"p_min {report.p_min!r}")
        rec.check(abs(report.p_avg - 0.728) < 1e-3, "printed 3-decimal value 0.728")
        rec.check(abs(report.p_min - 0.728) < 1e-3, "printed 3-decimal value 0.728")


def test_03_two_string_protocol_d4(two_string_reports):
    """criterion 3: d=4 per-choice 0.629/0.261, P_avg 0.445, P_min 0.261 (2e-3)"""
    with _Recorder("criterion 3") as rec:
        report = two_string_reports[4]
        rec.check(abs(report.per_choice["0"] - 0.629) <= 2e-3, f"choice 0: {report.per_choice['0']!r}")
        rec.check(abs(report.per_choice["1"] - 0.261) <= 2e-3, f"choice 1: {report.per_choice['1']!r}")
        rec.check(abs(report.p_avg - 0.445) <= 2e-3, f"p_avg: {report.p_avg!r}")
        rec.check(abs(report.p_min - 0.261) <= 2e-3, f"p_min: {report.p_min!r}")


def _single_distance_tables(d):
    """Every valid table for base d: cyclic walks over all d^2 digit pairs
    that change exactly one digit per step (Hamiltonian cycles of the rook
    graph, counted once per starting pair and direction)."""
    cells = [(a, b) for a in range(d) for b in range(d)]

    def one_step(p, q):
        return (p[0] != q[0]) + (p[1] != q[1]) == 1

    found = []

    def extend(path, used):
        if len(path) == len(cells):
            if one_step(path[-1], path[0]):
                found.append(tuple(path))
            return
        for q in cells:
            if q not in used and one_step(path[-1], q):
                used.add(q)
                path.append(q)
                extend(path, used)
                path.pop()
                used.discard(q)

    for start in cells:
        extend([start], {start})
    return found


def test_04_two_string_protocol_d3_stated_per_choice(two_string_reports):
    """criterion 4 (hard part): d=3 per-choice 0.654/0.424 implied by the tabulated row; stated 0.582/0.386 unreachable (2e-3)

    The paper states the d=3 per-choice values as 0.582/0.386, but its
    tabulated row for the same protocol is P_avg 0.539, P_min 0.424.  The
    two cannot both hold: a per-choice value is a mean of per-string values,
    so none lies below P_min, and the mean of the stated pair is 0.484, not
    0.539.  The row fixes c0 + c1 = 2 * 0.539 and, for the built-in table
    (the only valid table that reproduces the row), puts the weaker choice
    at P_min, giving 0.654/0.424; the engine is checked against those.  The
    stated pair is kept and asserted to be a discrepancy: an exhaustive scan
    of all valid single-distance tables finds none that reaches it.
    """
    with _Recorder("criterion 4 (hard part)") as rec:
        report = two_string_reports[3]
        for choice, implied in enumerate(D3_IMPLIED_PER_CHOICE):
            computed = report.per_choice[str(choice)]
            rec.check(
                abs(computed - implied) <= 2e-3,
                f"choice {choice} computed {computed!r}, implied by the tabulated row {implied:.3f}",
            )

        tables = [codes.EncodingTable(d=3, pairs=pairs) for pairs in _single_distance_tables(3)]
        rec.check(len(tables) == 864, f"{len(tables)} valid d=3 tables, expected 864")
        rec.check(all(codes.validate(t).valid for t in tables), "every enumerated table validates")
        s0, s1 = D3_STATED_PER_CHOICE
        reaching_stated, matching_row = [], []
        for table in tables:
            scan = qracse.run_protocol(qracse.QracTask(d=3, table=table, variant="two_strings"))
            c0, c1 = scan.per_choice["0"], scan.per_choice["1"]
            if max(abs(c0 - s0), abs(c1 - s1)) <= 2e-3 or max(abs(c0 - s1), abs(c1 - s0)) <= 2e-3:
                reaching_stated.append(table.pairs)
            if abs(scan.p_avg - D3_TABULATED_ROW[0]) <= 2e-3 and abs(scan.p_min - D3_TABULATED_ROW[1]) <= 2e-3:
                matching_row.append(table.pairs)
        rec.check(not reaching_stated, f"tables reaching the stated pair: {reaching_stated}")
        rec.check(
            matching_row == [codes.builtin_table(3).pairs],
            f"tables matching the tabulated row: {matching_row}, expected only the built-in one",
        )


def test_04_two_string_protocol_d3_tabulated_row_soft(two_string_reports, reproduction):
    """criterion 4 (soft part): d=3 tabulated row 0.539/0.424 and annotations"""
    with _Recorder("criterion 4 (soft part)") as rec:
        report = two_string_reports[3]
        # the tabulated row agrees with the computed ground truth
        rec.check(abs(report.p_avg - 0.539) < 1e-3, f"p_avg {report.p_avg!r} vs tabulated 0.539")
        rec.check(abs(report.p_min - 0.424) < 1e-3, f"p_min {report.p_min!r} vs tabulated 0.424")
        # internal consistency: the average derives from the per-choice values
        rec.check(
            abs(report.p_avg - 0.5 * (report.per_choice["0"] + report.per_choice["1"])) < 1e-12,
            "p_avg is the mean of the per-choice values",
        )
        # the reproduction summary annotates the discrepant stated values
        _, _, summary = reproduction
        rec.check("per_choice_c0(d=3)" in summary["annotations"], "annotation for choice 0 present")
        rec.check("per_choice_c1(d=3)" in summary["annotations"], "annotation for choice 1 present")
        rec.check(summary["hard_failures"] == 0, "no hard reproduction failures")


def test_05_four_bit_variants():
    """criterion 5: pair variant 0.364/~0.605, single-bit 0.728, exact baselines"""
    with _Recorder("criterion 5") as rec:
        table = codes.builtin_table(2)
        pairs = qracse.run_protocol(qracse.QracTask(d=2, table=table, variant="four_dits_pairs"))
        single = qracse.run_protocol(qracse.QracTask(d=2, table=table, variant="four_dits_single"))
        rec.check(abs(pairs.p_min - 0.364) <= 2e-3, f"pairs p_min {pairs.p_min!r}")
        rec.check(abs(pairs.p_avg - 0.607) <= 5e-3, f"pairs p_avg {pairs.p_avg!r} vs stated 0.607")
        rec.check(abs(pairs.p_avg - 0.604) <= 5e-3, f"pairs p_avg {pairs.p_avg!r} vs tabulated 0.604")
        rec.check(abs(single.p_avg - 0.728) <= 2e-3, f"single p_avg {single.p_avg!r}")
        rec.check(abs(single.p_min - 0.728) <= 2e-3, f"single p_min {single.p_min!r}")
        trivial_pairs = qracse.trivial_strategy(2, "four_dits_pairs")
        trivial_single = qracse.trivial_strategy(2, "four_dits_single")
        rec.check(trivial_pairs.p_avg == 13 / 24, "pairs trivial average 13/24")
        rec.check(trivial_pairs.p_min == 0.25, "pairs trivial minimum 1/4")
        rec.check((trivial_single.p_avg, trivial_single.p_min) == (0.75, 0.5), "single trivial baseline")


def test_06_quantum_input_strategies():
    """criterion 6: split strategy = 1/2 and favored = (1+1/d^2)/2 with witnesses"""
    with _Recorder("criterion 6") as rec:
        for d in (2, 3, 4):
            favored = teleport.nsqrac_favored_strategy(d)
            expected = Fraction(1, 2) * (1 + Fraction(1, d * d))
            rec.check(favored.exact == expected, f"favored exact at d={d}")
            rec.check(
                abs(favored.entanglement_fidelity_F - float(expected)) <= 1e-10,
                f"favored witness at d={d}: {favored.entanglement_fidelity_F!r}",
            )
            for k_prime in (0, d, d * d):
                split = teleport.nsqrac_split_strategy(d, k_prime)
                rec.check(split.exact == Fraction(1, 2), f"split exact at d={d}, k'={k_prime}")
                rec.check(
                    abs(split.entanglement_fidelity_F - 0.5) <= 1e-10,
                    f"split witness at d={d}, k'={k_prime}",
                )


def test_07_composite_strategy(two_string_reports):
    """criterion 7: composite strategy reaches the d=2 coding value and beats 0.625"""
    with _Recorder("criterion 7") as rec:
        composite = teleport.composite_nsqrac_via_qracse(2)
        rec.check(
            abs(composite.entanglement_fidelity_F - two_string_reports[2].p_avg) <= 1e-6,
            f"composite {composite.entanglement_fidelity_F!r}",
        )
        rec.check(composite.entanglement_fidelity_F > 0.625, "exceeds the classical-message strategy")


def test_08_bounds():
    """criterion 8: exact bound grid and optimizer agreement with the closed form"""
    with _Recorder("criterion 8") as rec:
        rec.check(bounds.symmetric_bound(2, 2) == Fraction(3, 4), "symmetric_bound(2, 2)")
        for d in range(2, 6):
            for n in range(1, 6):
                rec.check(
                    bounds.symmetric_bound(d, n) == Fraction(n + d - 1, d * n),
                    f"symmetric_bound({d}, {n})",
                )
        rec.check(bounds.werner_fidelity(bounds.CloningParams(1, 2, 2)) == Fraction(5, 6), "cloning 1->2")
        rec.check(abs(bounds.asym_closed_form_n2(0.5, 2) - 0.75) < 1e-12, "closed form at p=1/2")
        for d in (2, 3):
            for i in range(11):
                p = i / 10
                optimum = bounds.asym_optimize(bounds.AsymSpec(d=d, probabilities=(p, 1 - p)))
                closed = bounds.asym_closed_form_n2(p, d)
                rec.check(
                    abs(optimum.value - closed) <= 1e-6,
                    f"optimizer at d={d}, p={p}: {optimum.value!r} vs {closed!r}",
                )


def test_09_monogamy_feasibility():
    """criterion 9: fidelity-constraint residual >= -1e-9 over 500 seeded states"""
    with _Recorder("criterion 9") as rec:
        scan = bounds.kay_feasibility_scan(n_states=500, seed=20220314)
        rec.check(scan.min_residual >= -1e-9, f"min residual {scan.min_residual!r}")


def test_10_property_suites():
    """criterion 10: POVM, basis, normalisation and unitarity tolerances, d = 2..5"""
    with _Recorder("criterion 10") as rec:
        for d in (2, 3, 4, 5):
            for k in {1, 2, d * d}:
                povm = teleport.constrained_povm(d, k)
                total = sum(povm)
                rec.check(np.max(np.abs(total - np.eye(d * d))) <= 1e-10, f"POVM completeness d={d} k={k}")
                rec.check(
                    min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0] for m in povm) >= -1e-10,
                    f"POVM positivity d={d} k={k}",
                )
            for c in (0, 1):
                basis = measurement_basis(d, c)
                gram = np.array([[overlap(a, b) for b in basis] for a in basis])
                rec.check(
                    np.max(np.abs(gram - np.eye(d * d))) <= 1e-10,
                    f"measurement orthonormality d={d} c={c}",
                )
            report = qracse.run_protocol(
                qracse.QracTask(d=d, table=codes.generate_single_distance(d), variant="two_strings")
            )
            rec.check(
                report.details["outcome_normalisation_error"] <= 1e-10,
                f"outcome normalisation d={d}",
            )
            for j in range(2 * d):
                t = Fraction(j, d)
                for mat in (frac_power_x(d, t), frac_power_z(d, t)):
                    rec.check(
                        np.max(np.abs(mat @ mat.conj().T - np.eye(d))) <= 1e-12,
                        f"Weyl power unitarity d={d} t={t}",
                    )
            bb = bell_basis(d)
            gram = np.array([[overlap(a, b) for b in bb] for a in bb])
            rec.check(np.max(np.abs(gram - np.eye(d * d))) <= 1e-12, f"Bell basis d={d}")


def test_11_reproduction_determinism(tmp_path):
    """criterion 11: reproduce-all artifacts byte-identical for a fixed seed"""
    with _Recorder("criterion 11") as rec:
        dir_a = tmp_path / "run_a"
        dir_b = tmp_path / "run_b"
        run_reproduction(seed=20220314, out_dir=dir_a)
        run_reproduction(seed=20220314, out_dir=dir_b)
        names_a = sorted(p.name for p in dir_a.iterdir())
        names_b = sorted(p.name for p in dir_b.iterdir())
        rec.check(names_a == names_b, "same artifact inventory")
        for name in names_a:
            rec.check(
                (dir_a / name).read_bytes() == (dir_b / name).read_bytes(),
                f"artifact {name} differs between runs",
            )
