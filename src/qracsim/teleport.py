"""Teleportation with a constrained classical channel and the strategies
built on it for random access coding with quantum inputs.

The constrained protocol gives Alice a POVM with only k <= d^2 outcomes.
Labelling Weyl corrections U_i = (X^a Z^b)^dagger and Bell projectors
B_i = (1 (x) X^a Z^b)|psi+><psi+|(1 (x) X^a Z^b)^dagger, the optimal POVM
takes the first k-1 elements to be transposed Bell projectors B_i^T and
the last to be the transposed complement.  The transpose lands on the POVM
elements, not the state: it is exactly what the double use of the identity
(X (x) 1)|psi+> = (1 (x) X^T)|psi+> produces when the measurement is pulled
through both entangled pairs.  No POVM or projector is built: the simulation
below reads every Bell outcome's overlaps, once per d, off the d x d Bell
vectors of the rank-one B_i, and takes the complement's term from Bell
completeness, checked once per frame; k/d^2 is its check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .codes import builtin_table
from .qcore import bell_state, check_dimension, f_from_F, fraction_json
from .qracse import QracTask, _inverse_array, _kernel, run_protocol

POVM_SUM_TOL = 1e-10


class StrategyResult(NamedTuple):
    """Outcome of one strategy: fidelities and provenance.  A strategy's
    success probability is its entanglement fidelity F."""

    strategy_name: str
    entanglement_fidelity_F: float
    exact: Fraction | None
    details: dict

    @property
    def transmission_fidelity_f(self) -> float:
        """Channel fidelity f = (d F + 1)/(d + 1), from the exact F where there is one."""
        F = self.entanglement_fidelity_F if self.exact is None else self.exact
        return float(f_from_F(F, self.details["d"]))

    def to_json_dict(self) -> dict:
        payload = {
            "strategy": self.strategy_name,
            "entanglement_fidelity_F": self.entanglement_fidelity_F,
            "transmission_fidelity_f": self.transmission_fidelity_f,
            "success_probability": self.entanglement_fidelity_F,
            "details": self.details,
        }
        if self.exact is not None:
            payload["exact"] = fraction_json(self.exact)
        return payload


def _weyl_labels(d: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(d) for b in range(d)]


def _weyl(d: int, a: int, b: int) -> np.ndarray:
    """X^a Z^b for integer a, b: Z^b multiplies |k> by exp(2 pi i k b / d) and
    X^a sends it to |k + a mod d>, so the one nonzero of column k is that
    phase, in row k + a mod d."""
    k = np.arange(d)
    w = np.zeros((d, d), dtype=complex)
    w[(k + a) % d, k] = np.exp(2j * np.pi * k * float(b) / d)
    return w


class _BellFrame(NamedTuple):
    """The numbers of the protocol that do not depend on k, indexed by the
    outcome label i = a d + b, on the four sites A' A At B of
    psi+_A'A (x) psi+_AtB: d^4 + d^2 floats."""

    overlaps: tuple[tuple[float, ...], ...]  # Q[i][g] = <s| (B_g)_A'B (B_i^T)_AAt |s>
    probabilities: tuple[float, ...]  # <s| (B_i^T)_AAt |s>


def _product_sum(a: np.ndarray, b: np.ndarray, axis: int) -> np.ndarray:
    """Sum over the (negative) ``axis`` of the complex products a b, for
    broadcastable arrays holding real and imaginary parts along axis 0: real
    products and one numpy sum over a fixed axis, so no BLAS kernel or fused
    complex multiply touches the bits."""
    (ar, ai), (br, bi) = a, b
    return np.stack([(ar * br - ai * bi).sum(axis=axis), (ar * bi + ai * br).sum(axis=axis)])


@lru_cache(maxsize=None)
def _bell_frame(d: int) -> _BellFrame:
    return _pair_frame(d, bell_state(d))


def _pair_frame(d: int, psi: np.ndarray) -> _BellFrame:
    """The frame on psi_A'A (x) psi_AtB, with psi the d^2 amplitudes of a pair.

    The Bell vector (1 (x) W_i)|psi+> is the d x d matrix beta_i = W_i^T/sqrt(d),
    and B_i^T = |conj(beta_i)><conj(beta_i)|.  Contracting <conj(beta_i)|
    with A and At leaves the (A', B) branch R_i = phi beta_i phi, with phi
    the pair's amplitude matrix, so prob[i] = ||R_i||^2 and
    Q[i][g] = |<beta_g|R_i>|^2.  Bell completeness is checked once as
    max |<beta_g|beta_i> - delta_gi| <= POVM_SUM_TOL: d^2 orthonormal
    vectors in d^2 dimensions are complete, and each |beta><beta| is
    positive semidefinite by construction, so this one Gram check is
    stronger than a sum and an eigenvalue test of the projectors."""
    w = np.array([_weyl(d, a, b).T for a, b in _weyl_labels(d)]) / np.sqrt(d)
    beta = np.stack([w.real, w.imag])  # beta_i at [:, i]
    kets = beta.reshape(2, d * d, 1, d * d)  # flattened beta_i at [:, i, 0]
    bras = np.stack([kets[0], -kets[1]]).swapaxes(1, 2)  # conj(beta_g) at [:, 0, g]
    gram = _product_sum(bras, kets, -1)
    if np.max(np.hypot(gram[0] - np.eye(d * d), gram[1])) > POVM_SUM_TOL:
        raise ValueError("Bell projectors do not sum to the identity")
    phi = np.stack([psi.real, psi.imag]).reshape(2, d, d)
    branches = _product_sum(_product_sum(phi[..., None], beta[:, :, None], -2)[..., None], phi, -2)
    overlaps = (_product_sum(bras, branches.reshape(kets.shape), -1) ** 2).sum(axis=0)
    probabilities = (branches**2).sum(axis=0).reshape(d * d, -1).sum(axis=-1)
    return _BellFrame(tuple(map(tuple, overlaps.tolist())), tuple(probabilities.tolist()))


def constrained_teleport_fidelity(d: int, k: int) -> StrategyResult:
    """End-to-end simulation of teleportation with only k classical messages.

    Four subsystems A', A, At, B of dimension d carry psi+_A'A (x) psi+_AtB.
    The POVM acts on (A, At) and Bob's correction U_i = (X^a Z^b)^dagger on
    B; the overlap of the corrected (A', B) branch with |psi+> is summed
    over outcomes.  The input is pure and the correction commutes with the
    POVM element, so tracing out A and At leaves the matrix element
    <s| (U^dagger T U)_A'B (x) M_AAt |s>, with T = |psi+><psi+|.  These
    elements for every Bell outcome and correction form the frame's overlap
    matrix Q, computed once per d from d x d Bell vectors: Q[i][i] for each
    Bell outcome i < k-1, and for the complement, which equals the sum of
    the remaining B_i^T by Bell completeness, the column sum of Q[i][k-1]
    over i >= k-1.  The frame's overlap step holds d^6 real products at
    once, so the dimension is capped at 8.  Every call returns a fresh
    result; the exact value k/d^2 is reported alongside.
    """
    if not 2 <= d <= 8:
        raise ValueError("supported dimensions are 2 <= d <= 8")
    if not 1 <= k <= d * d:
        raise ValueError(f"k must lie in 1..d^2, got k={k} for d={d}")
    q = _bell_frame(d).overlaps
    total = 0.0
    for i in range(d * d):  # left to right: sum() compensates on Python >= 3.12
        total += q[i][min(i, k - 1)]
    exact = Fraction(k, d * d)
    return StrategyResult(
        strategy_name="constrained_teleportation",
        entanglement_fidelity_F=total,
        exact=exact,
        details={"d": d, "k": k, "exact_float": float(exact)},
    )


def nsqrac_split_strategy(d: int, k_prime: int) -> StrategyResult:
    """Split the d^2 classical messages between two constrained teleportations.

    k' messages teleport the first qudit and d^2 - k' the second; the average
    success is (k'/d^2 + (d^2 - k')/d^2)/2 = 1/2 whatever the split.  Both
    halves are simulated end to end (an empty share contributes zero).
    """
    if not 0 <= k_prime <= d * d:
        raise ValueError(f"k' must lie in 0..d^2, got {k_prime}")
    f1 = constrained_teleport_fidelity(d, k_prime).entanglement_fidelity_F if k_prime else 0.0
    rest = d * d - k_prime
    f2 = constrained_teleport_fidelity(d, rest).entanglement_fidelity_F if rest else 0.0
    simulated = 0.5 * (f1 + f2)
    exact = Fraction(1, 2)
    return StrategyResult(
        strategy_name="nsqrac_split",
        entanglement_fidelity_F=simulated,
        exact=exact,
        details={"d": d, "k_prime": k_prime, "fidelity_first": f1, "fidelity_second": f2},
    )


def nsqrac_favored_strategy(d: int) -> StrategyResult:
    """Teleport the first qudit perfectly and output a maximally mixed guess
    for the second: success (1 + 1/d^2)/2, with a simulation witness."""
    check_dimension(d)
    f1 = constrained_teleport_fidelity(d, d * d).entanglement_fidelity_F
    psi = bell_state(d)
    f2 = float((psi.real**2 + psi.imag**2).sum()) / (d * d)  # <psi+| 1/d^2 |psi+>
    simulated = 0.5 * (f1 + f2)
    exact = Fraction(1, 2) * (1 + Fraction(1, d * d))
    return StrategyResult(
        strategy_name="nsqrac_favored",
        entanglement_fidelity_F=simulated,
        exact=exact,
        details={"d": d, "fidelity_first": f1, "fidelity_second": f2, "exact_float": float(exact)},
    )


def composite_nsqrac_via_qracse(d: int) -> StrategyResult:
    """Quantum-message strategy: encode the 16 teleportation outcomes with the
    entanglement-assisted code and correct with the decoded Weyl label.

    Alice Bell-measures both of her qudits against two shared pairs, getting
    a uniformly distributed outcome pair (i1, i2) of Weyl labels.  These four
    bits are the two strings of the d=2 two-string protocol, carried by a
    third shared pair plus one qubit of quantum communication.  Bob decodes
    the string of his choice as g and applies the Weyl correction for g; the
    correction fidelity is |tr(W_g W_i^dagger)/d|^2, which is 1 when g = i
    and 0 otherwise, so the success equals the decoder's average success.

    The teleportation layer is also simulated from the Bell frame's
    overlaps and outcome probabilities, one 4-site block per teleported
    qudit; both paths must agree to 1e-9, or RuntimeError is raised.
    """
    if d != 2:
        raise ValueError("the composite strategy is implemented for d=2")
    report = run_protocol(QracTask(d=d, table=builtin_table(d), variant="two_strings"))
    F = report.p_avg

    full = _composite_full_state_fidelity(d)
    if abs(full - F) > 1e-9:
        raise RuntimeError(f"full-state simulation disagrees: {full!r} vs {F!r}")
    q = _bell_frame(d).overlaps  # on psi+, d^2 Q[i][g] = |tr(W_g^dagger W_i)/d|^2
    details = {
        "d": d,
        "per_choice": report.per_choice,
        "max_wrong_correction_fidelity": d * d * max(q[i][g] for i in range(d * d) for g in range(d * d) if i != g),
        "value_matching_published_0_728": "entanglement_fidelity_F",
        "full_state_simulation": full,
    }
    return StrategyResult(
        strategy_name="nsqrac_via_qracse",
        entanglement_fidelity_F=F,
        exact=None,
        details=details,
    )


def _composite_full_state_fidelity(d: int) -> float:
    """Explicit teleportation layer: Bell outcomes on Alice's side, decoder
    statistics and Weyl corrections.  Each teleported qudit has its own
    4-site block A' A At B, so the 8-site overlap is a product of block
    terms read off the Bell frame: the overlap q[i][g] of the requested
    qudit times the outcome probability prob[i] of the other."""
    table = builtin_table(d)
    inv = _inverse_array(table)
    kernels = {c: _kernel(d, c) for c in (0, 1)}
    frame = _bell_frame(d)
    q, prob = frame.overlaps, frame.probabilities
    labels = _weyl_labels(d)

    total = {0: 0.0, 1: 0.0}
    for i1, (a1, b1) in enumerate(labels):
        for i2, (a2, b2) in enumerate(labels):
            e0 = inv[a1, a2]
            e1 = inv[b1, b2]
            for c in (0, 1):
                for g, (ga, gb) in enumerate(labels):
                    p_dec = float(kernels[c][e0, ga] * kernels[c][e1, gb])
                    if p_dec < 1e-15:
                        continue
                    overlap = q[i1][g] * prob[i2] if c == 0 else prob[i1] * q[i2][g]
                    total[c] += p_dec * overlap
    return float(0.5 * (total[0] + total[1]))
