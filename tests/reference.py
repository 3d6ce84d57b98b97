"""Reference builders the tests use as independent oracles.

Generalised Pauli (Weyl) operators with fractional exponents, the Bell
basis, the ket-level encoding and measurement of the coding protocol, the
published encoding tables as transcribed, the two-string scorer in its
``np.add.accumulate`` form, which the package's scorer must match bit for
bit, the table search climbed one restart at a time, the state-vector
primitive :func:`apply` with :func:`expectation`, the composite strategy's
teleportation layer on the whole 8-site state vector, the constrained
teleportation POVM with its fidelity, the complement outcome simulated
directly, and the feasibility scan's density-matrix route
(:func:`kay_density_matrix_residuals`): both receiver marginals by
``einsum``, hermitised, and :func:`fully_entangled_fraction` through the
magic basis and a complex ``eigvalsh``.  Both teleportation routes build
the d^2 dense d^2 x d^2 Bell projectors, from the package's own integer
Weyl operators and maximally entangled state, and apply them to the state
vector with BLAS, where the package reads the same numbers off d x d Bell
vectors with real products and fixed-axis sums.  The package never builds
any of these: it reads the protocol off two closed-form kernels, builds
integer Weyl operators exactly, generates its tables, builds no POVM,
projector or density matrix and simulates no state vector.  These
builders take the other route, through the Fourier matrix, dense
operators and one ket at a time, so a test that compares the two checks
the package against code it does not share.

The shift and clock matrices act on the computational basis as
X|k> = |k+1 mod d> and Z|k> = exp(2 pi i k / d)|k>.  Fractional powers are
taken on the canonical spectral branch: the eigenvalue exp(2 pi i k / d)
indexed by k = 0..d-1 is raised to exp(2 pi i k t / d).  This branch is
periodic in t with period d, and powers built on it compose additively:
X^s X^t = X^(s+t) exactly.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

import qracsim.qracse
from qracsim.bounds import kay_constraint_residual
from qracsim.codes import (
    EncodingTable,
    Pair,
    SearchResult,
    _climb_moves,
    _random_cycle,
    builtin_table,
    generate_single_distance,
    validate,
)
from qracsim.qcore import NORM_TOL, bell_state
from qracsim.qracse import _inverse_array, _kernel, measurement_exponent
from qracsim.teleport import _weyl, _weyl_labels

ExponentLike = int | float | Fraction

PHASE_EQUALITY_TOL = 1e-10

_SQ2 = 1 / np.sqrt(2)
# columns: (|00>+|11>)/s2, i(|00>-|11>)/s2, i(|01>+|10>)/s2, (|01>-|10>)/s2
_MAGIC_BASIS = np.array(
    [
        [_SQ2, 1j * _SQ2, 0, 0],
        [0, 0, 1j * _SQ2, _SQ2],
        [0, 0, 1j * _SQ2, -_SQ2],
        [_SQ2, -1j * _SQ2, 0, 0],
    ]
)

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


def ensure_square(m: np.ndarray | Sequence) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


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


def overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product <a|b> of two state vectors."""
    return complex(np.vdot(a, b))


def states_equal(a: np.ndarray, b: np.ndarray, tol: float = PHASE_EQUALITY_TOL) -> bool:
    """Equality up to global phase: |<a|b>| = 1 within tol."""
    if a.size != b.size:
        return False
    return abs(abs(overlap(a, b)) - 1.0) <= tol


def apply_to_bell_half(op: np.ndarray, d: int) -> np.ndarray:
    """(op (x) 1)|psi+> for a d x d operator; op must preserve the norm."""
    op = ensure_square(op)
    if op.shape[0] != d:
        raise ValueError(f"operator dimension {op.shape[0]} does not match d={d}")
    # components of (W (x) 1)|psi+> are W[j, i]/sqrt(d) at index j*d + i
    ket = op.reshape(-1) / np.sqrt(d)
    if abs(np.linalg.norm(ket) - 1.0) > NORM_TOL:
        raise ValueError("operator does not preserve the norm of |psi+>")
    return ket


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


def bell_basis(d: int) -> list[np.ndarray]:
    """All d^2 generalised Bell states (X^a Z^b (x) 1)|psi+> in label order
    (a, b) row major; they form an orthonormal basis."""
    return [apply_to_bell_half(weyl(d, a, b), d) for a in range(d) for b in range(d)]


def measurement_basis(d: int, c: int) -> list[np.ndarray]:
    """Bob's d^2 projector states for choice c, in (b0, b1) row-major order."""
    kets = []
    for b0 in range(d):
        s = measurement_exponent(d, c, b0)
        for b1 in range(d):
            t = measurement_exponent(d, c, b1)
            w = frac_power_x(d, s) @ frac_power_z(d, t)
            kets.append(apply_to_bell_half(w, d))
    return kets


def encode(d: int, table: EncodingTable, a0: tuple[int, int], a1: tuple[int, int]) -> np.ndarray:
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


def sequential_search(d: int, objective: str, budget: int, seed: int) -> SearchResult:
    """``codes.search_tables`` past its exhaustive cases, climbed one restart
    at a time.  Every table is scored alone through ``qracse._line_means``.
    Each step tries the current table's rotations by 1..n-1, then its
    reversals in ``_climb_moves`` order that keep every cyclic step one digit
    long, and takes the first that beats it by 1e-12.  Tables count against
    the budget in the order the walk meets them; tables met before are free."""
    n = d * d
    orders = [row.tolist() for row in _climb_moves(d)[0]]
    evaluated: dict[tuple[int, ...], float] = {}

    def visit(cycle: tuple[int, ...]) -> float | None:
        """The table's score, or None if it would count past the budget."""
        if cycle not in evaluated:
            if len(evaluated) == budget:
                return None
            inv = np.empty(n, dtype=np.intp)
            inv[list(cycle)] = np.arange(n)
            r0, r1 = qracsim.qracse._line_means(inv.reshape(1, d, d))[0].tolist()
            low, c0, c1 = min(r0 + r1), sum(r0) / d, sum(r1) / d
            evaluated[cycle] = low * low if objective == "p_min" else (c0 * c0 + c1 * c1) / 2
        return evaluated[cycle]

    def legal(cycle: tuple[int, ...]) -> bool:
        return all((p // d != q // d) + (p % d != q % d) == 1 for p, q in zip(cycle, cycle[1:] + cycle[:1]))

    def climb(current: tuple[int, ...]) -> None:
        """Climb from ``current`` until no move improves or the budget runs out."""
        value = visit(current)
        while value is not None:
            rotations = (current[r:] + current[:r] for r in range(1, n))
            reversals = (move for move in (tuple(current[k] for k in order) for order in orders) if legal(move))
            for move in itertools.chain(rotations, reversals):
                moved = visit(move)
                if moved is None or moved > value + 1e-12:
                    current, value = move, moved
                    break
            else:
                return

    visit(tuple(a * d + b for a, b in generate_single_distance(d).pairs))  # counted, never climbed
    rng = random.Random(seed)
    while len(evaluated) < budget:
        climb(tuple(_random_cycle(d, rng)))
    top = max(evaluated.values())
    best = min(cycle for cycle, value in evaluated.items() if value == top)
    return SearchResult(EncodingTable(d=d, pairs=tuple(divmod(c, d) for c in best)), top, len(evaluated))


@lru_cache(maxsize=None)
def bell_projectors(d: int) -> np.ndarray:
    """The d^2 Bell projectors B_i = (1 (x) W_i)|psi+><psi+|(1 (x) W_i)^dagger,
    dense d^2 x d^2 matrices stacked in label order i = a d + b.  Built once
    per d; the returned array is shared and read-only."""
    psi = bell_state(d)
    kets = [apply(_weyl(d, a, b), (1,), psi, (d, d)) for a, b in _weyl_labels(d)]
    projectors = np.array([np.outer(ket, ket.conj()) for ket in kets])
    projectors.setflags(write=False)
    return projectors


def constrained_povm(d: int, k: int) -> tuple[np.ndarray, ...]:
    """k-outcome POVM of constrained teleportation: k-1 transposed Bell
    projectors B_i^T plus the transposed complement (1 - sum_{i<k-1} B_i)^T,
    as d^2 x d^2 arrays."""
    projectors = bell_projectors(d)[: k - 1]
    last = np.asarray((np.eye(d * d) - sum(projectors)).T, dtype=complex)
    return (*(m.T for m in projectors), last)


def composite_full_state_fidelity(d: int) -> float:
    """The composite strategy's teleportation layer on the whole 8-site state
    vector: two reference pairs, two shared pairs, Bell projectors on
    Alice's side, decoder statistics and Weyl corrections.  It holds d^8
    amplitudes, where ``teleport._composite_full_state_fidelity`` works on
    one 4-site block, and must give the same bits."""
    table = builtin_table(d)
    inv = _inverse_array(table)
    kernels = {c: _kernel(d, c) for c in (0, 1)}
    projectors = bell_projectors(d)
    psi = bell_state(d)

    dims = [d] * 8  # A1' A1 At1 B1 A2' A2 At2 B2
    block = np.kron(psi, psi)
    state = np.kron(block, block)
    labels = _weyl_labels(d)
    pair_sites = {0: (0, 3), 1: (4, 7)}  # (reference, output) per choice

    total = {0: 0.0, 1: 0.0}
    for (a1, b1), p1 in zip(labels, projectors):
        first = apply(p1.T, (1, 2), state, dims)
        for (a2, b2), p2 in zip(labels, projectors):
            branch = apply(p2.T, (5, 6), first, dims)
            e0 = inv[a1, a2]
            e1 = inv[b1, b2]
            for c in (0, 1):
                for (ga, gb), target in zip(labels, projectors):
                    p_dec = float(kernels[c][e0, ga] * kernels[c][e1, gb])
                    if p_dec < 1e-15:
                        continue
                    overlap = np.vdot(state, apply(target, pair_sites[c], branch, dims)).real
                    total[c] += p_dec * overlap
    return 0.5 * (total[0] + total[1])


def _branch_overlap(d: int, state: np.ndarray, element: np.ndarray, target: np.ndarray) -> float:
    """<s| (U^dagger T U)_CB (x) M_DA |s> on the four sites A, B, C, D."""
    dims = [d, d, d, d]
    measured = apply(element, (3, 0), state, dims)
    return np.vdot(state, apply(target, (2, 1), measured, dims)).real


def complement_route_fidelity(d: int, k: int, psi: np.ndarray | None = None) -> float:
    """The k-outcome teleportation fidelity summed over its branches, each
    simulated on its own: the Bell outcomes B_i^T, i < k-1, and the
    complement element of ``constrained_povm(d, k)`` itself, so no step
    assumes that the Bell projectors sum to the identity.  The state is
    psi_AB (x) psi_CD, with psi = |psi+> unless given, the POVM on (D, A)
    and the target on (C, B)."""
    povm = constrained_povm(d, k)
    projectors = bell_projectors(d)
    psi = bell_state(d) if psi is None else psi
    state = np.kron(psi, psi)
    total = 0.0
    for b in projectors[: k - 1]:
        total += _branch_overlap(d, state, b.T, b)
    return total + _branch_overlap(d, state, povm[-1], projectors[k - 1])


def fully_entangled_fraction(rho: np.ndarray) -> float | np.ndarray:
    """Maximal overlap of a two-qubit state with a maximally entangled state:
    the largest eigenvalue of the real part of rho in the magic basis.  A
    (..., 4, 4) stack of density matrices gives one value per matrix."""
    m = np.asarray(rho)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"fully entangled fraction is implemented for two qubits, got dimension {m.shape[-1]}")
    magic = _MAGIC_BASIS.conj().T @ m @ _MAGIC_BASIS
    top = np.linalg.eigvalsh(magic.real)[..., -1]
    return float(top) if top.ndim == 0 else top


def kay_density_matrix_residuals(n_states: int, seed: int) -> np.ndarray:
    """Every residual of ``bounds.kay_feasibility_scan(n_states, seed)`` by
    density matrices: the same states in the documented order, drawn by
    log1p and cmath.rect, both receiver marginals by einsum and
    hermitised, and the fully entangled fraction of each through the magic
    basis and eigvalsh."""
    uniform = random.Random(seed).random
    u = [uniform() for _ in range(16 * n_states)]
    v = [cmath.rect(math.sqrt(-2 * math.log1p(-u1)), 2 * math.pi * u2) for u1, u2 in zip(u[::2], u[1::2])]
    psi = np.array(v).reshape(n_states, 8)
    t = (psi / np.linalg.norm(psi, axis=1, keepdims=True)).reshape(n_states, 2, 2, 2)
    # rho[m, 0] and rho[m, 1] are the (A1, C) and (A2, C) marginals: trace out the other sender
    rho = np.stack([np.einsum("mabc,mdbf->macdf", t, t.conj()), np.einsum("mabc,madf->mbcdf", t, t.conj())], 1)
    rho = rho.reshape(n_states, 2, 4, 4)
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    return kay_constraint_residual(fully_entangled_fraction(rho), 2)
