"""Reference builders the tests use as independent oracles.

Generalised Pauli (Weyl) operators with fractional exponents, the Bell
basis, the ket-level encoding and measurement of the coding protocol, the
published encoding tables as transcribed, and the two-string scorer in its
``np.add.accumulate`` form, which the package's scorer must match bit for
bit.  The package never builds any of these: it reads the protocol off two
closed-form kernels, builds integer Weyl operators exactly and generates
its tables.  These builders take the other route, through the Fourier
matrix and one ket at a time, so a test that compares the two checks the
package against code it does not share.

The shift and clock matrices act on the computational basis as
X|k> = |k+1 mod d> and Z|k> = exp(2 pi i k / d)|k>.  Fractional powers are
taken on the canonical spectral branch: the eigenvalue exp(2 pi i k / d)
indexed by k = 0..d-1 is raised to exp(2 pi i k t / d).  This branch is
periodic in t with period d, and powers built on it compose additively:
X^s X^t = X^(s+t) exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from qracsim.codes import EncodingTable, Pair, validate
from qracsim.qcore import Ket, ensure_square
from qracsim.qracse import _kernel, measurement_exponent

ExponentLike = int | float | Fraction

PHASE_EQUALITY_TOL = 1e-10

# published tables for d = 2, 3, 4; entry e -> (a0, a1)
PUBLISHED_TABLES: dict[int, tuple[Pair, ...]] = {
    2: ((0, 0), (0, 1), (1, 1), (1, 0)),
    3: ((0, 0), (0, 1), (0, 2), (1, 2), (1, 0), (1, 1), (2, 1), (2, 2), (2, 0)),
    4: (
        (0, 0), (0, 1), (0, 2), (0, 3),
        (1, 3), (1, 0), (1, 1), (1, 2),
        (2, 2), (2, 3), (2, 0), (2, 1),
        (3, 1), (3, 2), (3, 3), (3, 0),
    ),
}


def overlap(a: Ket, b: Ket) -> complex:
    """Inner product <a|b>."""
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def states_equal(a: Ket, b: Ket, tol: float = PHASE_EQUALITY_TOL) -> bool:
    """Equality up to global phase: |<a|b>| = 1 within tol."""
    if a.amplitudes.size != b.amplitudes.size:
        return False
    return abs(abs(overlap(a, b)) - 1.0) <= tol


def apply_to_bell_half(op: np.ndarray, d: int) -> Ket:
    """(op (x) 1)|psi+> for a d x d operator; op must preserve the norm."""
    op = ensure_square(op)
    if op.shape[0] != d:
        raise ValueError(f"operator dimension {op.shape[0]} does not match d={d}")
    # components of (W (x) 1)|psi+> are W[j, i]/sqrt(d) at index j*d + i
    return Ket(op.reshape(-1) / np.sqrt(d))


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


def bell_basis(d: int) -> list[Ket]:
    """All d^2 generalised Bell states (X^a Z^b (x) 1)|psi+> in label order
    (a, b) row major; they form an orthonormal basis."""
    return [apply_to_bell_half(weyl(d, a, b), d) for a in range(d) for b in range(d)]


def measurement_basis(d: int, c: int) -> list[Ket]:
    """Bob's d^2 projector states for choice c, in (b0, b1) row-major order."""
    kets = []
    for b0 in range(d):
        s = measurement_exponent(d, c, b0)
        for b1 in range(d):
            t = measurement_exponent(d, c, b1)
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
    e0 = table.pairs.index((a0[0], a1[0]))
    e1 = table.pairs.index((a0[1], a1[1]))
    w = frac_power_x(d, Fraction(e0, d)) @ frac_power_z(d, Fraction(e1, d))
    return apply_to_bell_half(w, d)


def trivial_two_strings_simulation(d: int) -> dict[str, float]:
    """Simulation witness for the trivial baseline.

    The first string is dense coded with integer Weyl powers and read out in
    the integer Bell basis (this part is simulated exactly); the second
    string is a uniform guess contributing 1/d^2 by construction.
    """
    basis = bell_basis(d)
    worst = 1.0
    for a0 in range(d):
        for a1 in range(d):
            ket = apply_to_bell_half(weyl(d, a0, a1), d)
            probs = [abs(overlap(b, ket)) ** 2 for b in basis]
            worst = min(worst, probs[a0 * d + a1])
    return {"0": worst, "1": 1.0 / d**2}


def two_string_values_accumulate(invs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two-string scorer as it read before its flat gathers: fancy-indexed
    terms summed by ``np.add.accumulate``, whose last entry adds the terms one
    after another.  Same contract as ``qracse._two_string_values`` on a stack
    of bijective inverse arrays (M, d, d), and the same bits."""
    d = invs.shape[1]
    v = np.arange(d)[:, None]
    terms = np.stack([_kernel(d, 0)[invs, v], _kernel(d, 1)[invs.transpose(0, 2, 1), v]], axis=1)
    r = np.add.accumulate(terms, axis=-1)[..., -1] / d
    per_string = r[..., :, None] * r[..., None, :]
    per_choice = (np.add.accumulate(r, axis=-1)[..., -1] / d) ** 2
    return per_string, per_choice
