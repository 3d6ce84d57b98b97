"""Dense complex linear algebra and quantum primitives.

States, local operators applied to state vectors, fidelities and the
conversion between entanglement fidelity F and transmission fidelity f.
Everything here is a pure function on immutable values, so concurrent use
is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10

RationalLike = int | float | Fraction


def ensure_square(m: np.ndarray | Sequence) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class Ket:
    """Unit-norm complex state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("a ket is a nonempty 1-d complex vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("ket amplitudes must be finite")
        if abs(np.linalg.norm(v) - 1.0) > NORM_TOL:
            raise ValueError(f"ket must be normalised, |norm - 1| = {abs(np.linalg.norm(v) - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", v)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = ensure_square(self.matrix)
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix must have unit trace, got {np.trace(m).real!r}")
        if np.linalg.eigvalsh(m)[0] < PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {np.linalg.eigvalsh(m)[0]:.3e}")
        object.__setattr__(self, "matrix", m)


def bell_state(d: int) -> Ket:
    """Maximally entangled state (1/sqrt(d)) sum_i |ii> on a d x d system."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return Ket(v)


@lru_cache(maxsize=256)
def _plan(dims: tuple[int, ...], sites: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
    """Contraction plan of :func:`apply`: the axis order that brings ``sites``
    to the front (in their order), its inverse, the local dimension and the
    total size."""
    n = len(dims)
    if len(set(sites)) != len(sites) or any(not 0 <= s < n for s in sites):
        raise ValueError(f"invalid site list {list(sites)} for {n} subsystems")
    order = sites + tuple(i for i in range(n) if i not in sites)
    inverse = tuple(sorted(range(n), key=order.__getitem__))
    return order, inverse, math.prod(dims[s] for s in sites), math.prod(dims)


def apply(op: np.ndarray, sites: Sequence[int], state: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """Apply an operator to the given sites of a state vector.

    ``op`` is a matrix on the tensor product of ``dims[s]`` for ``s`` in
    ``sites`` (in that order) and acts as the identity elsewhere; ``state``
    has ``prod(dims)`` amplitudes.  Returns the new state with the shape of
    ``state``.  Only the operator's sites are contracted, so the full
    operator is never formed: the state's tensor is permuted so that the
    sites lead, multiplied by ``op`` as an (L, prod(rest)) matrix and
    permuted back.  These are the operands ``np.tensordot`` would pass to
    ``np.dot``, so the result is the same to the bit.
    """
    op = ensure_square(op)
    dims = tuple(dims)
    sites = tuple(sites)
    order, inverse, local, total = _plan(dims, sites)
    if op.shape[0] != local:
        raise ValueError(f"operator dim {op.shape[0]} does not match sites {list(sites)}")
    state = np.asarray(state, dtype=complex)
    if state.size != total:
        raise ValueError(f"state of size {state.size} does not match subsystem dims {list(dims)}")
    tensor = state.reshape(dims).transpose(order)
    out = np.dot(op, tensor.reshape(local, -1))
    return out.reshape(tensor.shape).transpose(inverse).reshape(state.shape)


def expectation(
    op: np.ndarray,
    sites: Sequence[int],
    state: np.ndarray,
    dims: Sequence[int],
    ket: np.ndarray | None = None,
) -> complex:
    """Matrix element <state| op |ket> with ``op`` on the given sites; ``ket``
    defaults to ``state``, which gives the expectation value."""
    target = state if ket is None else ket
    return complex(np.vdot(state, apply(op, sites, target, dims)))


def entanglement_fidelity(rho: DensityMatrix | np.ndarray) -> float:
    """Overlap <psi+|rho|psi+> of a bipartite d x d state with |psi+>, in
    [0, 1]; float noise within 1e-12 of the range is clamped."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else ensure_square(rho)
    d = int(round(np.sqrt(m.shape[0])))
    if d * d != m.shape[0] or d < 2:
        raise ValueError(f"dimension {m.shape[0]} is not a square d*d with d >= 2")
    psi = bell_state(d).amplitudes
    value = float(np.real(np.vdot(psi, m @ psi)))
    if not -NORM_TOL <= value <= 1.0 + NORM_TOL:
        raise ValueError(f"fidelity must lie in [0, 1], got {value!r}")
    return min(max(value, 0.0), 1.0)


def f_from_F(F: RationalLike, d: int) -> Fraction:
    """Transmission fidelity from entanglement fidelity: f = (F d + 1)/(d + 1)."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    return (Fraction(F) * d + 1) / (d + 1)


def F_from_f(f: RationalLike, d: int) -> Fraction:
    """Inverse of :func:`f_from_F`: F = (f (d + 1) - 1)/d."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    return (Fraction(f) * (d + 1) - 1) / d



def fraction_json(fr: Fraction) -> dict[str, int]:
    """An exact rational as the reports write it: {"numerator": n, "denominator": m}."""
    return {"numerator": fr.numerator, "denominator": fr.denominator}
