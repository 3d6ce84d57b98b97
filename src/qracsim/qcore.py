"""Quantum primitives shared by the package.

The maximally entangled state, the integer, seed and dimension checks, the
tolerances of the state checks, the conversion between entanglement
fidelity F and transmission fidelity f, and the JSON form of an exact
rational.  All are pure functions on immutable values, so concurrent use
is safe.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

NORM_TOL = 1e-12
PSD_TOL = -1e-10

RationalLike = int | float | Fraction


def check_integer(value, name: str) -> int:
    """``value`` as an int, if it is an integer; a numpy integer or a bool passes."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_seed(seed) -> int:
    """``seed`` as an int, if it is a non-negative integer (random.Random takes abs() or a float's hash)."""
    if not hasattr(seed, "__index__") or operator.index(seed) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return operator.index(seed)


def check_dimension(d) -> int:
    """``d`` as an int, if it is an integer of at least 2."""
    d = check_integer(d, "dimension")
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    return d


def bell_state(d: int) -> np.ndarray:
    """Amplitudes of the maximally entangled state (1/sqrt(d)) sum_i |ii> on a
    d x d system, as a read-only complex vector."""
    import numpy as np
    check_dimension(d)
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    v.setflags(write=False)
    return v


def f_from_F(F: RationalLike, d: int) -> Fraction:
    """Transmission fidelity from entanglement fidelity: f = (F d + 1)/(d + 1)."""
    check_dimension(d)
    return (Fraction(F) * d + 1) / (d + 1)


def F_from_f(f: RationalLike, d: int) -> Fraction:
    """Inverse of :func:`f_from_F`: F = (f (d + 1) - 1)/d."""
    check_dimension(d)
    return (Fraction(f) * (d + 1) - 1) / d


def fraction_json(fr: Fraction) -> dict[str, int]:
    """An exact rational as the reports write it: {"numerator": n, "denominator": m}."""
    return {"numerator": fr.numerator, "denominator": fr.denominator}
