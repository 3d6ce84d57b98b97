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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .codes import EncodingTable, validate

VARIANTS = ("two_strings", "four_dits_pairs", "four_dits_single", "boolean_f")

OUTCOME_NORMALISATION_TOL = 1e-10

# bit pair -> Bob's register choices (sx, sz); X register carries bits 0 and 2,
# Z register bits 1 and 3, and the within-register pairs 02 and 13 measure (0, 0)
_PAIR_BASES = {"01": (0, 0), "23": (1, 1), "03": (0, 1), "12": (1, 0), "02": (0, 0), "13": (0, 0)}
_SUBSETS_3_OF_4 = tuple("".join(str(i) for i in s) for s in combinations(range(4), 3))


@dataclass(frozen=True)
class QracTask:
    """One protocol configuration: dimension, encoding table and task variant.

    The Boolean variant needs ``boolean_function``, the truth table of
    f: {0,1}^3 -> {0,1}: entry i is f on the bits of i (most significant
    first), so majority-of-3 is (0, 0, 0, 1, 0, 1, 1, 1).  Every other
    variant rejects one.
    """

    d: int
    table: EncodingTable
    variant: str = "two_strings"
    boolean_function: tuple[int, ...] | None = None

    def __post_init__(self):
        check_variant(self.d, self.variant)
        if self.table.d != self.d:
            raise ValueError(f"table dimension {self.table.d} does not match d={self.d}")
        f = self.boolean_function
        if self.variant == "boolean_f":
            if f is None or len(f) != 8 or any(v not in (0, 1) for v in f):
                raise ValueError("boolean_f needs a truth table of 8 binary values")
        elif f is not None:
            raise ValueError(f"a truth table applies to variant 'boolean_f' only, not {self.variant!r}")


def check_variant(d: int, variant: str) -> None:
    """Reject an unknown variant, and a variant defined for d=2 only at another d."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant != "two_strings" and d != 2:
        raise ValueError(f"variant {variant!r} is defined for d=2 only")


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

    def to_json_dict(self) -> dict:
        """The report as written to JSON: ``per_string`` nests the requested
        values under their choice key."""
        return {
            "d": self.d,
            "variant": self.variant,
            "p_avg": self.p_avg,
            "p_min": self.p_min,
            "per_choice": self.per_choice,
            "per_string": {
                choice: {value: p for (c, value), p in sorted(self.per_string.items()) if c == choice}
                for choice in self.per_choice
            },
            "details": self.details,
        }


def measurement_exponent(d: int, c: int, b: int) -> Fraction:
    """Exponent (-1)^c b + (1-c)/2 - 1/(2d) of the Weyl power labelling Bob's
    projector component."""
    if c not in (0, 1):
        raise ValueError(f"choice must be 0 or 1, got {c}")
    return Fraction((-1) ** c * b) + Fraction(1 - c, 2) - Fraction(1, 2 * d)


def _kappa(d: int, u) -> np.ndarray:
    """kappa(u) = |mean_k exp(2 pi i k u / d)|^2, the squared overlap of two
    register phases u apart (X^s against X^t, or Z^s against Z^t, on |psi+>)."""
    u = np.asarray(u, dtype=float)
    return np.abs(np.exp(2j * np.pi * u[..., None] * np.arange(d) / d).mean(axis=-1)) ** 2


def _normalisation_error(kernel: np.ndarray) -> float:
    """Largest deviation of the outcome probabilities of one register from summing to one."""
    return float(np.max(np.abs(kernel.sum(axis=1) - 1.0)))


@lru_cache(maxsize=None)
def _kernel(d: int, s: int) -> np.ndarray:
    """Success kernel of one register measured with choice s, shape (d^2, d).

    K[e, b] = kappa(e/d - s(b)) is the probability that the register encoded
    with index e reads outcome b, s(b) = measurement_exponent(d, s, b).  The
    overlap of Alice's state with Bob's projector factorises over the X and Z
    registers, so the basis with register choices (sx, sz) gives outcome
    (b0, b1) with probability K_sx[e0, b0] K_sz[e1, b1].  Every row must sum
    to one; the engine refuses to continue if it does not.
    """
    exponents = [measurement_exponent(d, s, b) for b in range(d)]
    u = [[Fraction(e, d) - x for x in exponents] for e in range(d * d)]
    kernel = _kappa(d, np.array(u, dtype=float))
    norm_err = _normalisation_error(kernel)
    if norm_err > OUTCOME_NORMALISATION_TOL:
        raise RuntimeError(f"measurement basis incomplete, normalisation error {norm_err:.3e}")
    kernel.setflags(write=False)
    return kernel


def _inverse_array(table: EncodingTable) -> np.ndarray:
    """inv[a, b] = encoding index of the pair (a, b); -1 where the table misses a pair."""
    inv = np.full((table.d, table.d), -1, dtype=np.intp)
    for e, (a, b) in enumerate(table.pairs):
        inv[a, b] = e
    return inv


def _two_string_values(invs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-string success of a stack of tables given as inverse arrays (M, d, d).

    Returns the per-string values, shape (M, 2, d, d) indexed by (table,
    choice, requested v0, v1), and the per-choice values, shape (M, 2).
    Both registers are read with choice c, and the requested string's digits
    v0, v1 sit in different registers, so the success of string v is
    r_c[v0] r_c[v1] with r_0[v] = mean_y K_0[inv[v, y], v] (the first string
    requested, the second unknown) and r_1[v] = mean_x K_1[inv[x, v], v].
    Each mean adds its d terms one after another, so every row is bitwise
    independent of the rest of the batch.
    """
    m, d, _ = invs.shape
    if not (np.sort(invs.reshape(m, d * d), axis=1) == np.arange(d * d)).all():  # every index e once
        raise ValueError("encoding table must be a bijection onto the digit pairs")
    v = np.arange(d)[:, None]
    # one flat gather per choice; terms[:, v, j] is the j-th of the d kernel values averaged into r_c[v]
    terms = [_kernel(d, c).ravel().take(inv * d + v) for c, inv in enumerate((invs, invs.transpose(0, 2, 1)))]
    r = np.stack([_sum_in_order(t) for t in terms], axis=1) / d
    per_string = r[..., :, None] * r[..., None, :]
    per_choice = (_sum_in_order(r) / d) ** 2
    return per_string, per_choice


def _sum_in_order(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis, adding its entries one after another from the first."""
    total = a[..., 0]
    for j in range(1, a.shape[-1]):
        total = total + a[..., j]
    return total


def _report(task: QracTask, per_choice: dict, per_string: dict, **details) -> ProtocolReport:
    return ProtocolReport(
        d=task.d,
        variant=task.variant,
        per_string=per_string,
        per_choice=per_choice,
        p_avg=float(np.mean(list(per_choice.values()))),
        p_min=min(per_string.values()),
        details={"table": [list(p) for p in task.table.pairs], **details},
    )


def _run_two_strings(task: QracTask) -> ProtocolReport:
    d = task.d
    values, choices = _two_string_values(_inverse_array(task.table)[None])
    per_choice = {str(c): float(choices[0, c]) for c in (0, 1)}
    per_string = {
        (str(c), f"{v0}{v1}"): float(values[0, c, v0, v1]) for c in (0, 1) for v0 in range(d) for v1 in range(d)
    }
    norm_err = max(_normalisation_error(_kernel(d, c)) for c in (0, 1))
    return _report(task, per_choice, per_string, outcome_normalisation_error=norm_err)


def _requested_positions(variant: str) -> dict[str, tuple[int, ...]]:
    """Choice key -> positions of the digits Bob is asked for in the word
    (w0, w1, w2, w3) made of the strings (w0, w1) and (w2, w3); the Boolean
    variant's word holds f on each 3-subset."""
    if variant == "two_strings":
        return {"0": (0, 1), "1": (2, 3)}
    if variant == "four_dits_pairs":
        return {key: (int(key[0]), int(key[1])) for key in _PAIR_BASES}
    keys = ("0", "1", "2", "3") if variant == "four_dits_single" else _SUBSETS_3_OF_4
    return {key: (pos,) for pos, key in enumerate(keys)}


def _aggregate(success: np.ndarray, labels: np.ndarray) -> tuple[float, dict[int, float]]:
    """Mean success of one choice, and its mean per requested value (label)
    over the inputs requesting it, for the labels that occur."""
    counts = np.bincount(labels)
    sums = np.bincount(labels, weights=success)
    return float(success.mean()), {int(v): float(sums[v] / counts[v]) for v in np.flatnonzero(counts)}


def _run_four_bit(task: QracTask) -> ProtocolReport:
    """The d=2 variants that split four encoded bits (w0, w1, w2, w3) differently.

    The word is encoded as the strings (w0, w1) and (w2, w3): the X register
    carries (w0, w2), the Z register (w1, w3), and Bob's basis with register
    choices (sx, sz) decodes the outcome as (w[2 sx], w[1 + 2 sz]).

    Pairs: the four pairs split across registers each have a dedicated
    basis; the two within-register pairs measure the (w0, w1) basis, keep the
    measured digit and guess the other bit uniformly.  For those the reported
    success is the joint probability that the measured pair decodes times the
    uniform 1/d guess, the accounting behind the published row; the larger
    single-digit marginal rule is kept in details.

    Single bit: Bob measures the basis of the pair containing the requested
    bit and succeeds when the whole pair decodes, the conservative accounting
    the published row quotes; the raw single-digit marginals are kept in
    details.  The Boolean variant runs the single-bit rule on the word induced
    by the four raw bits: f's value on each 3-element subset, of which Bob
    asks for one.
    """
    d = task.d
    if not validate(task.table).bijective:
        raise ValueError("encoding table must be a bijection onto the digit pairs")
    inv = _inverse_array(task.table)
    words = np.indices((d,) * 4).reshape(4, -1)  # the 16 words (w0, w1, w2, w3), row-major
    if task.variant == "boolean_f":
        s0, s1, s2 = np.array(list(combinations(range(4), 3))).T  # the subsets, in _SUBSETS_3_OF_4 order
        words = np.asarray(task.boolean_function)[4 * words[s0] + 2 * words[s1] + words[s2]]
    ex, ez = inv[words[0], words[2]], inv[words[1], words[3]]  # encoding index per register and word

    def decoded(sx: int, sz: int) -> np.ndarray:
        """Probability that basis (sx, sz) reads (w[2 sx], w[1 + 2 sz]): one lookup per register."""
        return _kernel(d, sx)[ex, words[2 * sx]] * _kernel(d, sz)[ez, words[1 + 2 * sz]]

    def marginal(s: int) -> float:
        """Probability that basis (s, s) reads w[2 s] in the X register, whatever the Z register reads."""
        return float(_kernel(d, s)[ex, words[2 * s]].mean())

    requests = _requested_positions(task.variant)
    if task.variant == "four_dits_pairs":
        success = {key: decoded(*_PAIR_BASES[key]) / (d if key in ("02", "13") else 1) for key in requests}
        details = {
            "within_register_rule": "joint pair decode times uniform guess",
            "within_register_marginal_rule": marginal(0) / d,
        }
    else:
        success = {key: decoded(pos // 2, pos // 2) for key, (pos,) in requests.items()}
        if task.variant == "four_dits_single":
            details = {"bit_marginal_rule": {"0": marginal(0), "2": marginal(1)}}
        else:
            details = {"truth_table": list(task.boolean_function)}

    per_choice: dict[str, float] = {}
    per_string: dict[tuple[str, str], float] = {}
    for key, bits in requests.items():
        labels = np.ravel_multi_index(words[list(bits)], (2,) * len(bits))  # requested bits, binary
        per_choice[key], means = _aggregate(success[key], labels)
        per_string.update({(key, format(v, f"0{len(bits)}b")): p for v, p in means.items()})
    return _report(task, per_choice, per_string, **details)


def run_protocol(task: QracTask) -> ProtocolReport:
    """Evaluate a task exactly from the per-register success kernels, over all inputs."""
    if not 2 <= task.d <= 8:
        raise ValueError("supported dimensions are 2 <= d <= 8")
    return (_run_two_strings if task.variant == "two_strings" else _run_four_bit)(task)


def trivial_strategy(d: int, variant: str = "two_strings") -> ProtocolReport:
    """Baseline that spends the perfect dense-coding capacity on one string.

    Dense coding carries the word's positions 0 and 1 perfectly, and every
    other requested digit is a uniform guess worth 1/d.  Exact rational
    values; the fractions are kept in ``details['exact']``.
    """
    check_variant(d, variant)
    requests = _requested_positions(variant)
    per_choice = {key: Fraction(1, d ** sum(pos > 1 for pos in bits)) for key, bits in requests.items()}
    per_string = {
        (key, "".join(map(str, value))): per_choice[key]
        for key, bits in requests.items()
        for value in product(range(d), repeat=len(bits))
    }
    p_avg = sum(per_choice.values()) / len(per_choice)
    p_min = min(per_string.values())
    return ProtocolReport(
        d=d,
        variant=variant,
        per_string={k: float(v) for k, v in per_string.items()},
        per_choice={k: float(v) for k, v in per_choice.items()},
        p_avg=float(p_avg),
        p_min=float(p_min),
        details={
            "strategy": "trivial",
            "exact": {
                "p_avg": str(p_avg),
                "p_min": str(p_min),
                "per_choice": {k: str(v) for k, v in per_choice.items()},
            },
        },
    )
