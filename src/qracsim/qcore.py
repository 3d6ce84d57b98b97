"""Quantum primitives on state vectors.

The maximally entangled state, local operators applied to a state vector
and their expectation values (:func:`apply`, :func:`expectation`, the one
simulation primitive of the package), and the conversion between
entanglement fidelity F and transmission fidelity f.  Everything here is a
pure function on immutable values, so concurrent use is safe.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

NORM_TOL = 1e-12
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


def bell_state(d: int) -> np.ndarray:
    """Amplitudes of the maximally entangled state (1/sqrt(d)) sum_i |ii> on a
    d x d system, as a read-only complex vector."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    v.setflags(write=False)
    return v


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


def expectation(op: np.ndarray, sites: Sequence[int], state: np.ndarray, dims: Sequence[int]) -> complex:
    """Expectation value <state| op |state> with ``op`` on the given sites."""
    return complex(np.vdot(state, apply(op, sites, state, dims)))


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
