"""Generalised Pauli (Weyl) operators, fractional powers and the Bell basis.

The shift and clock matrices act on the computational basis as
X|k> = |k+1 mod d> and Z|k> = exp(2 pi i k / d)|k>.  Fractional powers are
taken on the canonical spectral branch: the eigenvalue exp(2 pi i k / d)
indexed by k = 0..d-1 is raised to exp(2 pi i k t / d).  This branch is
periodic in t with period d, and powers built on it compose additively:
X^s X^t = X^(s+t) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .qcore import Ket, apply_to_bell_half

ExponentLike = int | float | Fraction


@dataclass(frozen=True)
class BellLabel:
    """Label (a, b) of the generalised Bell state (X^a Z^b (x) 1)|psi+>."""

    d: int
    a: int
    b: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"dimension must be at least 2, got {self.d}")
        if not (0 <= self.a < self.d and 0 <= self.b < self.d):
            raise ValueError(f"label ({self.a}, {self.b}) out of range for d={self.d}")

    @property
    def index(self) -> int:
        return self.a * self.d + self.b


def shift_x(d: int) -> np.ndarray:
    """Cyclic shift: X|k> = |k+1 mod d>."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    m = np.zeros((d, d), dtype=complex)
    m[np.arange(1, d), np.arange(d - 1)] = 1.0
    m[0, d - 1] = 1.0
    return m


def clock_z(d: int) -> np.ndarray:
    """Phase gradient: Z|k> = exp(2 pi i k / d)|k>."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d))


@lru_cache(maxsize=None)
def dft(d: int) -> np.ndarray:
    """Discrete Fourier matrix F[j, k] = omega^(j k)/sqrt(d), omega = exp(2 pi i/d).

    With this sign choice F^dag diag(1, omega, ..., omega^(d-1)) F = shift_x(d),
    which is the direction the fractional powers below rely on.  Built once
    per d; the returned array is shared and read-only.
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    f = np.exp(2j * np.pi * j * k / d) / np.sqrt(d)
    f.setflags(write=False)
    return f


def frac_power_z(d: int, t: ExponentLike) -> np.ndarray:
    """Z^t = diag(exp(2 pi i k t / d)) on the canonical branch."""
    tf = float(t)
    if not np.isfinite(tf):
        raise ValueError("exponent must be finite")
    return np.diag(np.exp(2j * np.pi * np.arange(d) * tf / d))


def frac_power_x(d: int, t: ExponentLike) -> np.ndarray:
    """X^t built by conjugating the diagonal branch with the Fourier matrix."""
    f = dft(d)
    return f.conj().T @ frac_power_z(d, t) @ f


def weyl(d: int, a: ExponentLike, b: ExponentLike) -> np.ndarray:
    """Weyl operator X^a Z^b; integer exponents give permutation-phase matrices."""
    return frac_power_x(d, a) @ frac_power_z(d, b)


def bell_basis_element(label: BellLabel) -> Ket:
    """(X^a Z^b (x) 1)|psi+>; over all labels these form an orthonormal basis."""
    w = weyl(label.d, label.a, label.b)
    return apply_to_bell_half(w, label.d)


def bell_basis(d: int) -> list[Ket]:
    """All d^2 generalised Bell states in label order (a, b) row major."""
    return [bell_basis_element(BellLabel(d, a, b)) for a in range(d) for b in range(d)]
