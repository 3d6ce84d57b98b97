"""Protocol engine for random access coding over a qudit channel plus one
shared maximally entangled pair.

Alice holds two strings, each a pair of base-d digits.  The first digits of
both strings select an encoding index e0 through a single-distance table,
the second digits select e1, and she applies X^(e0/d) Z^(e1/d) to her half
of |psi+> before sending it.  Bob projects onto a Weyl-shifted Bell basis
chosen by his string choice c and reads the outcome (b0, b1) directly as
his guess.  Strings and the choice are uniformly distributed.

Besides the two-string task this module evaluates the d=2 variants that
split the four encoded bits differently (guess any pair of bits, guess any
single bit) and the Boolean-function variant built on top of the single-bit
machinery.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

from .codes import EncodingTable, validate
from .pauli import frac_power_x, frac_power_z
from .qcore import Ket, apply_to_bell_half

VARIANTS = ("two_strings", "four_dits_pairs", "four_dits_single", "boolean_f")

OUTCOME_NORMALISATION_TOL = 1e-10

# bit positions within (a0, a1, a2, a3): X register carries (a0, a2), Z register (a1, a3)
_PAIR_CHOICES = ("01", "23", "03", "12", "02", "13")
_SUBSETS_3_OF_4 = tuple("".join(str(i) for i in s) for s in combinations(range(4), 3))


@dataclass(frozen=True)
class QracTask:
    """One protocol configuration: dimension, encoding table and task variant."""

    d: int
    table: EncodingTable
    variant: str = "two_strings"
    boolean_function: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.table.d != self.d:
            raise ValueError(f"table dimension {self.table.d} does not match d={self.d}")
        if self.variant != "two_strings" and self.d != 2:
            raise ValueError(f"variant {self.variant!r} is defined for d=2 only")
        if self.variant == "boolean_f":
            f = self.boolean_function
            if f is None or len(f) != 8 or any(v not in (0, 1) for v in f):
                raise ValueError("boolean_f needs a truth table of 8 binary values")


@dataclass(frozen=True)
class ProtocolReport:
    """Success probabilities of one protocol run.

    ``per_string`` maps (choice key, requested value) to the success
    probability averaged over the unrequested inputs; ``per_choice``
    averages further over the requested value.  ``p_min`` is the worst
    per-string entry and ``p_avg`` the global average.
    """

    d: int
    variant: str
    per_string: dict[tuple[str, str], float]
    per_choice: dict[str, float]
    p_avg: float
    p_min: float
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        for p in self.per_string.values():
            if not -1e-12 <= p <= 1 + 1e-12:
                raise ValueError(f"probability {p!r} outside [0, 1]")
        if self.p_min > self.p_avg + 1e-12:
            raise ValueError("p_min cannot exceed p_avg")


def measurement_exponent(d: int, c: int, b: int, convention: str = "general") -> Fraction:
    """Exponent of the Weyl power labelling Bob's projector component.

    ``general`` uses (-1)^c b + (1-c)/2 - 1/(2d); ``qubit`` uses the d=2 form
    (-1)^c b + (1-2c)/4.  At d=2 the two coincide identically for c in {0, 1}.
    """
    if c not in (0, 1):
        raise ValueError(f"choice must be 0 or 1, got {c}")
    if convention == "general":
        return Fraction((-1) ** c * b) + Fraction(1 - c, 2) - Fraction(1, 2 * d)
    if convention == "qubit":
        if d != 2:
            raise ValueError("the qubit convention is defined for d=2 only")
        return Fraction((-1) ** c * b) + Fraction(1 - 2 * c, 4)
    raise ValueError(f"unknown convention {convention!r}")


def measurement_basis(d: int, c: int, convention: str = "general") -> list[Ket]:
    """Bob's d^2 projector states for choice c, in (b0, b1) row-major order."""
    kets = []
    for b0 in range(d):
        s = measurement_exponent(d, c, b0, convention)
        for b1 in range(d):
            t = measurement_exponent(d, c, b1, convention)
            w = frac_power_x(d, s) @ frac_power_z(d, t)
            kets.append(apply_to_bell_half(w, d))
    return kets


def encode(d: int, table: EncodingTable, a0: tuple[int, int], a1: tuple[int, int]) -> Ket:
    """Alice's encoded state for strings a0 and a1 (each a pair of digits)."""
    for digit in (*a0, *a1):
        if not 0 <= digit < d:
            raise ValueError(f"digit {digit} out of range for d={d}")
    report = validate(table)
    if not report.bijective:
        raise ValueError("encoding table must be a bijection onto the digit pairs")
    e0 = table.index_of((a0[0], a1[0]))
    e1 = table.index_of((a0[1], a1[1]))
    w = frac_power_x(d, Fraction(e0, d)) @ frac_power_z(d, Fraction(e1, d))
    return apply_to_bell_half(w, d)


def _encoding_kets(d: int) -> np.ndarray:
    """Stack of encoded states indexed by (e0, e1), shape (d^2, d^2, d^2)."""
    xs = [frac_power_x(d, Fraction(e0, d)) for e0 in range(d * d)]
    zdiag = [np.exp(2j * np.pi * np.arange(d) * e1 / d**2) for e1 in range(d * d)]
    kets = np.empty((d * d, d * d, d * d), dtype=complex)
    for e0 in range(d * d):
        for e1 in range(d * d):
            kets[e0, e1] = (xs[e0] * zdiag[e1][None, :]).reshape(-1) / np.sqrt(d)
    return kets


def _basis_kets(d: int, sx: int, sz: int) -> np.ndarray:
    """Projector states for register-wise choices (sx for X, sz for Z), shape (d, d, d^2)."""
    kets = np.empty((d, d, d * d), dtype=complex)
    for b0 in range(d):
        s = measurement_exponent(d, sx, b0)
        wx = frac_power_x(d, s)
        for b1 in range(d):
            t = measurement_exponent(d, sz, b1)
            zd = np.exp(2j * np.pi * np.arange(d) * float(t) / d)
            kets[b0, b1] = (wx * zd[None, :]).reshape(-1) / np.sqrt(d)
    return kets


class Outcomes(NamedTuple):
    """Outcome probabilities P[e0, e1, b0, b1] of one basis, with their
    largest deviation from summing to one over (b0, b1)."""

    probs: np.ndarray
    normalisation_error: float


@lru_cache(maxsize=None)
def _success_tensor(d: int, sx: int, sz: int) -> Outcomes:
    """Outcome probabilities for the basis with register choices (sx, sz).

    Outcome probabilities of every encoded state must sum to one; the engine
    refuses to continue if the basis fails that completeness check.
    """
    enc = _encoding_kets(d).reshape(d**4, d**2)
    meas = _basis_kets(d, sx, sz).reshape(d**2, d**2)
    amps = meas.conj() @ enc.T
    tensor = (np.abs(amps) ** 2).T.reshape(d * d, d * d, d, d)
    norm_err = float(np.max(np.abs(tensor.sum(axis=(2, 3)) - 1.0)))
    if norm_err > OUTCOME_NORMALISATION_TOL:
        raise RuntimeError(f"measurement basis incomplete, normalisation error {norm_err:.3e}")
    tensor.setflags(write=False)
    return Outcomes(tensor, norm_err)


def _inverse_array(table: EncodingTable) -> np.ndarray:
    """inv[a, b] = encoding index of the pair (a, b); -1 where the table misses a pair."""
    inv = np.full((table.d, table.d), -1, dtype=np.intp)
    for e, (a, b) in enumerate(table.pairs):
        inv[a, b] = e
    return inv


def _require_bijective(table: EncodingTable):
    if not validate(table).bijective:
        raise ValueError("encoding table must be a bijection onto the digit pairs")


@lru_cache(maxsize=None)
def _digit_grids(d: int) -> tuple[np.ndarray, ...]:
    grids = np.meshgrid(*([np.arange(d)] * 4), indexing="ij")  # a0_0, a0_1, a1_0, a1_1
    for g in grids:
        g.setflags(write=False)
    return tuple(grids)


def _two_string_values(invs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-string success of a stack of tables given as inverse arrays (M, d, d).

    Returns the per-string values, shape (M, 2, d, d) indexed by (table,
    choice, requested v0, v1), and the per-choice values, shape (M, 2).
    Each per-string value adds its d^2 inputs one after another in row-major
    order, so every row is bitwise independent of the rest of the batch.
    """
    m, d, _ = invs.shape
    n = d * d
    flat = invs.reshape(m, n)
    if not (flat[:, None, :] == np.arange(n)[:, None]).any(axis=2).all():  # every index e appears
        raise ValueError("encoding table must be a bijection onto the digit pairs")
    al0, al1, be0, be1 = _digit_grids(d)
    # flat index of (e0, e1) into P reshaped to (d^4, d^2), per table and input;
    # np.take keeps every array C-ordered, so each row reduces as a lone table would
    e0 = np.take(flat, (al0 * d + be0).ravel(), axis=1)
    e1 = np.take(flat, (al1 * d + be1).ravel(), axis=1)
    encoded = (e0 * n + e1) * n
    per_string = np.empty((m, 2, d, d))
    per_choice = np.empty((m, 2))
    for c, (g0, g1) in enumerate(((al0, al1), (be0, be1))):
        probs = np.take(_success_tensor(d, c, c).probs, encoded + (g0 * d + g1).ravel())
        per_choice[:, c] = probs.mean(axis=1)
        by_string = probs.reshape(m, d, d, d, d)
        if c == 1:  # requested string's digits first
            by_string = by_string.transpose(0, 3, 4, 1, 2)
        sums = np.add.accumulate(by_string.reshape(m, d, d, n), axis=-1)[..., -1]
        per_string[:, c] = sums / n
    return per_string, per_choice


def _run_two_strings(task: QracTask) -> ProtocolReport:
    d = task.d
    values, choices = _two_string_values(_inverse_array(task.table)[None])
    per_choice = {str(c): float(choices[0, c]) for c in (0, 1)}
    per_string = {
        (str(c), f"{v0}{v1}"): float(values[0, c, v0, v1]) for c in (0, 1) for v0 in range(d) for v1 in range(d)
    }
    p_avg = float(np.mean(list(per_choice.values())))
    p_min = min(per_string.values())
    return ProtocolReport(
        d=d,
        variant="two_strings",
        per_string=per_string,
        per_choice=per_choice,
        p_avg=p_avg,
        p_min=p_min,
        details={
            "table": [list(p) for p in task.table.pairs],
            "outcome_normalisation_error": max(_success_tensor(d, c, c).normalisation_error for c in (0, 1)),
        },
    )


def _pair_success_grids(task: QracTask) -> dict[str, np.ndarray]:
    """Joint decode success per input grid for each of the six bit pairs (d=2).

    Bits are (a0, a1, a2, a3) = (first digits of both strings interleaved):
    the X register encodes (a0, a2) and the Z register (a1, a3).  The four
    pairs split across registers each have a dedicated mixed basis; the two
    within-register pairs are served by measuring the (a0, a1) basis, keeping
    the measured digit and guessing the remaining bit uniformly.  For those
    the reported success is the joint probability that the measured pair
    decodes correctly times the uniform 1/d guess, the accounting behind the
    published row; the larger single-digit marginal rule is kept in details.
    """
    d = task.d
    inv = _inverse_array(task.table)
    a0, a1, a2, a3 = _digit_grids(d)
    e0 = inv[a0, a2]
    e1 = inv[a1, a3]

    grids: dict[str, np.ndarray] = {}
    # dedicated bases: (sx, sz) -> decoded bit values (X side, Z side)
    layout = {"01": (0, 0), "23": (1, 1), "03": (0, 1), "12": (1, 0)}
    sides = {0: {0: a0, 1: a2}, 1: {0: a1, 1: a3}}
    for key, (sx, sz) in layout.items():
        tensor = _success_tensor(d, sx, sz).probs
        grids[key] = tensor[e0, e1, sides[0][sx], sides[1][sz]]
    base = _success_tensor(d, 0, 0).probs[e0, e1, a0, a1]
    grids["02"] = base / d
    grids["13"] = base / d
    return grids


def _run_four_dits_pairs(task: QracTask) -> ProtocolReport:
    d = task.d
    _require_bijective(task.table)
    grids = _pair_success_grids(task)
    bits = _digit_grids(d)

    per_string: dict[tuple[str, str], float] = {}
    per_choice: dict[str, float] = {}
    for key in _PAIR_CHOICES:
        i, j = int(key[0]), int(key[1])
        g = grids[key]
        per_choice[key] = float(g.mean())
        sums = np.zeros((d, d))
        np.add.at(sums, (bits[i], bits[j]), g)
        for vi in range(d):
            for vj in range(d):
                per_string[(key, f"{vi}{vj}")] = float(sums[vi, vj] / d**2)

    # single-digit marginal alternative for the within-register pairs
    kept0 = _success_tensor(d, 0, 0).probs.sum(axis=3)  # P[e0, e1, b0] summed over b1

    p_avg = float(np.mean(list(per_choice.values())))
    p_min = min(per_string.values())
    inv = _inverse_array(task.table)
    return ProtocolReport(
        d=d,
        variant="four_dits_pairs",
        per_string=per_string,
        per_choice=per_choice,
        p_avg=p_avg,
        p_min=p_min,
        details={
            "table": [list(p) for p in task.table.pairs],
            "within_register_rule": "joint pair decode times uniform guess",
            "within_register_marginal_rule": float(
                kept0[inv[bits[0], bits[2]], inv[bits[1], bits[3]], bits[0]].mean() / d
            ),
        },
    )


def _single_bit_success(task: QracTask) -> dict[str, np.ndarray]:
    """Per-input success of recovering each bit through its covering pair.

    Bob measures the basis of the pair containing the requested bit and
    succeeds when the whole pair decodes; this conservative accounting is
    what the published single-bit row quotes.  The raw single-digit
    marginals are exposed separately.
    """
    d = task.d
    inv = _inverse_array(task.table)
    a0, a1, a2, a3 = _digit_grids(d)
    e0 = inv[a0, a2]
    e1 = inv[a1, a3]
    front = _success_tensor(d, 0, 0).probs[e0, e1, a0, a1]
    back = _success_tensor(d, 1, 1).probs[e0, e1, a2, a3]
    return {"0": front, "1": front, "2": back, "3": back}


def _run_four_dits_single(task: QracTask) -> ProtocolReport:
    d = task.d
    _require_bijective(task.table)
    grids = _single_bit_success(task)
    bits = _digit_grids(d)
    inv = _inverse_array(task.table)
    e0 = inv[bits[0], bits[2]]
    e1 = inv[bits[1], bits[3]]

    per_string: dict[tuple[str, str], float] = {}
    per_choice: dict[str, float] = {}
    for key, g in grids.items():
        i = int(key)
        per_choice[key] = float(g.mean())
        sums = np.zeros(d)
        np.add.at(sums, bits[i], g)
        for v in range(d):
            per_string[(key, str(v))] = float(sums[v] / d**3)

    marg_front = _success_tensor(d, 0, 0).probs.sum(axis=3)[e0, e1, bits[0]]
    marg_back = _success_tensor(d, 1, 1).probs.sum(axis=3)[e0, e1, bits[2]]
    p_avg = float(np.mean(list(per_choice.values())))
    p_min = min(per_string.values())
    return ProtocolReport(
        d=d,
        variant="four_dits_single",
        per_string=per_string,
        per_choice=per_choice,
        p_avg=p_avg,
        p_min=p_min,
        details={
            "table": [list(p) for p in task.table.pairs],
            "bit_marginal_rule": {
                "0": float(marg_front.mean()),
                "2": float(marg_back.mean()),
            },
        },
    )


def _run_boolean_f(task: QracTask) -> ProtocolReport:
    """Encode the four Boolean-function values induced by the 3-bit subsets.

    Alice holds four raw bits; each of the four 3-element subsets induces one
    function value, and the induced 4-bit word is run through the single-bit
    machinery.  Bob asks for the function value at a subset of his choice.
    """
    d = task.d
    _require_bijective(task.table)
    f = task.boolean_function
    assert f is not None
    inv = _inverse_array(task.table)

    per_sum: dict[tuple[str, str], float] = {}
    per_count: dict[tuple[str, str], int] = {}
    per_choice_sum = {key: 0.0 for key in _SUBSETS_3_OF_4}
    for raw in product((0, 1), repeat=4):
        induced = []
        for key in _SUBSETS_3_OF_4:
            idx = tuple(int(ch) for ch in key)
            lookup = raw[idx[0]] * 4 + raw[idx[1]] * 2 + raw[idx[2]]
            induced.append(f[lookup])
        y0, y1, y2, y3 = induced
        e0 = inv[y0, y2]
        e1 = inv[y1, y3]
        front = float(_success_tensor(d, 0, 0).probs[e0, e1, y0, y1])
        back = float(_success_tensor(d, 1, 1).probs[e0, e1, y2, y3])
        succ = {"0": front, "1": front, "2": back, "3": back}
        for pos, key in enumerate(_SUBSETS_3_OF_4):
            p = succ[str(pos)]
            per_choice_sum[key] += p
            sk = (key, str(induced[pos]))
            per_sum[sk] = per_sum.get(sk, 0.0) + p
            per_count[sk] = per_count.get(sk, 0) + 1

    n_raw = 16
    per_choice = {key: per_choice_sum[key] / n_raw for key in _SUBSETS_3_OF_4}
    per_string = {k: per_sum[k] / per_count[k] for k in per_sum}
    p_avg = float(np.mean(list(per_choice.values())))
    p_min = min(per_string.values())
    return ProtocolReport(
        d=d,
        variant="boolean_f",
        per_string=per_string,
        per_choice=per_choice,
        p_avg=p_avg,
        p_min=p_min,
        details={
            "table": [list(p) for p in task.table.pairs],
            "truth_table": list(f),
        },
    )


def run_protocol(task: QracTask) -> ProtocolReport:
    """Evaluate a task exactly by enumerating all inputs and outcomes."""
    if not 2 <= task.d <= 8:
        raise ValueError("supported dimensions are 2 <= d <= 8")
    runner = {
        "two_strings": _run_two_strings,
        "four_dits_pairs": _run_four_dits_pairs,
        "four_dits_single": _run_four_dits_single,
        "boolean_f": _run_boolean_f,
    }[task.variant]
    return runner(task)


def run_four_bit_variants(d: int, table: EncodingTable | None = None) -> dict[str, ProtocolReport]:
    """Both four-bit variants (guess a pair, guess a single bit) at d=2."""
    if d != 2:
        raise ValueError("the four-bit variants are defined for d=2")
    if table is None:
        from .codes import builtin_table

        table = builtin_table(2)
    return {
        "pairs": run_protocol(QracTask(d=2, table=table, variant="four_dits_pairs")),
        "single": run_protocol(QracTask(d=2, table=table, variant="four_dits_single")),
    }


def f_qracse(truth_table, d: int = 2, table: EncodingTable | None = None) -> ProtocolReport:
    """Boolean-function variant for f: {0,1}^3 -> {0,1} given as a truth table.

    ``truth_table[i]`` is f evaluated on the bits of i (most significant
    first), so majority-of-3 is (0, 0, 0, 1, 0, 1, 1, 1).
    """
    if d != 2:
        raise ValueError("the Boolean-function variant is defined for d=2")
    f = tuple(int(v) for v in truth_table)
    if table is None:
        from .codes import builtin_table

        table = builtin_table(2)
    return run_protocol(QracTask(d=2, table=table, variant="boolean_f", boolean_function=f))


def trivial_strategy(d: int, variant: str = "two_strings") -> ProtocolReport:
    """Baseline that spends the perfect dense-coding capacity on one string.

    Exact rational values; the fractions are kept in ``details['exact']``.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant != "two_strings" and d != 2:
        raise ValueError(f"variant {variant!r} is defined for d=2 only")

    def report(per_choice_fr: dict[str, Fraction], values_fr: dict[tuple[str, str], Fraction]):
        p_avg = sum(per_choice_fr.values()) / len(per_choice_fr)
        p_min = min(values_fr.values())
        return ProtocolReport(
            d=d,
            variant=variant,
            per_string={k: float(v) for k, v in values_fr.items()},
            per_choice={k: float(v) for k, v in per_choice_fr.items()},
            p_avg=float(p_avg),
            p_min=float(p_min),
            details={
                "strategy": "trivial",
                "exact": {
                    "p_avg": str(p_avg),
                    "p_min": str(p_min),
                    "per_choice": {k: str(v) for k, v in per_choice_fr.items()},
                },
            },
        )

    one = Fraction(1)
    if variant == "two_strings":
        guess = Fraction(1, d * d)
        per_choice = {"0": one, "1": guess}
        values = {}
        for v0 in range(d):
            for v1 in range(d):
                values[("0", f"{v0}{v1}")] = one
                values[("1", f"{v0}{v1}")] = guess
        return report(per_choice, values)

    if variant == "four_dits_pairs":
        pair_vals = {
            "01": one,
            "03": Fraction(1, 2),
            "12": Fraction(1, 2),
            "02": Fraction(1, 2),
            "13": Fraction(1, 2),
            "23": Fraction(1, 4),
        }
        values = {(k, f"{i}{j}"): v for k, v in pair_vals.items() for i in (0, 1) for j in (0, 1)}
        return report(pair_vals, values)

    # single bit and the Boolean variant share the same baseline
    bit_vals = {"0": one, "1": one, "2": Fraction(1, 2), "3": Fraction(1, 2)}
    keys = ("0", "1", "2", "3") if variant == "four_dits_single" else _SUBSETS_3_OF_4
    per_choice = {k: v for k, v in zip(keys, bit_vals.values())}
    values = {(k, str(b)): v for k, v in per_choice.items() for b in (0, 1)}
    return report(per_choice, values)


def trivial_two_strings_simulation(d: int, table: EncodingTable | None = None) -> dict[str, float]:
    """Simulation witness for the trivial baseline.

    The first string is dense coded with integer Weyl powers and read out in
    the integer Bell basis (this part is simulated exactly); the second
    string is a uniform guess contributing 1/d^2 by construction.
    """
    from .pauli import bell_basis, weyl

    basis = bell_basis(d)
    worst = 1.0
    for a0 in range(d):
        for a1 in range(d):
            ket = apply_to_bell_half(weyl(d, a0, a1), d)
            probs = [abs(b.overlap(ket)) ** 2 for b in basis]
            worst = min(worst, probs[a0 * d + a1])
    return {"0": worst, "1": 1.0 / d**2}


def report_to_json(report: ProtocolReport) -> str:
    payload = {
        "d": report.d,
        "variant": report.variant,
        "p_avg": report.p_avg,
        "p_min": report.p_min,
        "per_choice": report.per_choice,
        "per_string": {
            choice: {value: p for (c, value), p in sorted(report.per_string.items()) if c == choice}
            for choice in report.per_choice
        },
        "details": report.details,
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def report_to_csv(report: ProtocolReport) -> str:
    """One row per (choice, requested value); dot decimals, comma delimiter."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["choice", "value", "probability"])
    for (c, value), p in sorted(report.per_string.items()):
        writer.writerow([c, value, f"{p!r}"])
    return buf.getvalue()
