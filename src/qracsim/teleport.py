"""Teleportation with a constrained classical channel and the strategies
built on it for random access coding with quantum inputs.

The constrained protocol gives Alice a POVM with only k <= d^2 outcomes.
Labelling Weyl corrections U_i = (X^a Z^b)^dagger and Bell projectors
B_i = (1 (x) X^a Z^b)|psi+><psi+|(1 (x) X^a Z^b)^dagger, the optimal POVM
takes the first k-1 elements to be transposed Bell projectors B_i^T and
the last to be the transposed complement.  The transpose lands on the POVM
elements, not the state: it is exactly what the double use of the identity
(X (x) 1)|psi+> = (1 (x) X^T)|psi+> produces when the measurement is pulled
through both entangled pairs, and the end-to-end simulation below checks
the resulting fidelity k/d^2 without assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .qcore import DensityMatrix, apply, bell_state, entanglement_fidelity, expectation, f_from_F
from .pauli import weyl

POVM_SUM_TOL = 1e-10
POVM_PSD_TOL = -1e-10


@dataclass(frozen=True)
class Povm:
    """Finite measurement: PSD elements on a d^2-dimensional space summing to 1."""

    d: int
    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        dim = self.d * self.d
        elems = []
        for m in self.elements:
            m = np.asarray(m, dtype=complex)
            if m.shape != (dim, dim):
                raise ValueError(f"POVM element has shape {m.shape}, expected {(dim, dim)}")
            if np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0] < POVM_PSD_TOL:
                raise ValueError("POVM element is not positive semidefinite")
            elems.append(m)
        total = sum(elems)
        if np.max(np.abs(total - np.eye(dim))) > POVM_SUM_TOL:
            raise ValueError("POVM elements do not sum to the identity")
        object.__setattr__(self, "elements", tuple(elems))

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class StrategyResult:
    """Outcome of one strategy: fidelities, success probability and provenance."""

    strategy_name: str
    entanglement_fidelity_F: float
    transmission_fidelity_f: float
    success_probability: float
    exact: Fraction | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        d = self.details.get("d")
        if d is not None:
            expected_f = (int(d) * self.entanglement_fidelity_F + 1) / (int(d) + 1)
            if abs(self.transmission_fidelity_f - expected_f) > 1e-10:
                raise ValueError("reported f does not match (d F + 1)/(d + 1)")

    def to_json_dict(self) -> dict:
        payload = {
            "strategy": self.strategy_name,
            "entanglement_fidelity_F": self.entanglement_fidelity_F,
            "transmission_fidelity_f": self.transmission_fidelity_f,
            "success_probability": self.success_probability,
            "details": self.details,
        }
        if self.exact is not None:
            payload["exact"] = {
                "numerator": self.exact.numerator,
                "denominator": self.exact.denominator,
            }
        return payload


def _weyl_labels(d: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(d) for b in range(d)]


def _bob_side_bell_projector(d: int, a: int, b: int) -> np.ndarray:
    """(1 (x) X^a Z^b)|psi+><psi+| (1 (x) X^a Z^b)^dagger."""
    w = weyl(d, a, b)
    ket = np.kron(np.eye(d), w) @ bell_state(d).amplitudes
    return np.outer(ket, ket.conj())


def constrained_povm(d: int, k: int) -> Povm:
    """k-outcome POVM: k-1 transposed Bell projectors plus the transposed complement."""
    if not 1 <= k <= d * d:
        raise ValueError(f"k must lie in 1..d^2, got k={k} for d={d}")
    projectors = [_bob_side_bell_projector(d, a, b) for a, b in _weyl_labels(d)]
    elements = [projectors[i].T for i in range(k - 1)]
    last = np.eye(d * d) - sum(projectors[i] for i in range(k - 1))
    elements.append(last.T)
    return Povm(d=d, elements=tuple(elements))


def correction_unitaries(d: int, k: int) -> list[np.ndarray]:
    """Bob's corrections: the inverse Weyl operator per outcome label."""
    return [weyl(d, a, b).conj().T for a, b in _weyl_labels(d)[:k]]


def _corrected_target(d: int, u: np.ndarray) -> np.ndarray:
    """(1 (x) u)^dagger |psi+><psi+| (1 (x) u): the target pulled back
    through a correction u on the second site."""
    v = np.kron(np.eye(d), u.conj().T) @ bell_state(d).amplitudes
    return np.outer(v, v.conj())


def constrained_teleport_fidelity(d: int, k: int) -> StrategyResult:
    """End-to-end simulation of teleportation with only k classical messages.

    Four subsystems A, B, C, D each of dimension d carry psi+_AB (x) psi+_CD.
    The POVM acts on (D, A) and Bob's correction on B; the overlap of the
    corrected (C, B) branch with |psi+> is summed over outcomes.  The input
    is pure and the correction commutes with the POVM element, so tracing
    out A and D leaves the matrix element <s| (U^dagger T U)_CB (x) M_DA |s>
    on the state vector, with T = |psi+><psi+|.  The exact value k/d^2 is
    reported alongside.
    """
    povm = constrained_povm(d, k)
    corrections = correction_unitaries(d, k)
    dims = [d, d, d, d]  # A, B, C, D
    state = np.kron(bell_state(d).amplitudes, bell_state(d).amplitudes)

    total = 0.0
    for element, u_b in zip(povm.elements, corrections):
        measured = apply(element, (3, 0), state, dims)
        total += expectation(_corrected_target(d, u_b), (2, 1), state, dims, ket=measured).real

    exact = Fraction(k, d * d)
    f = float(f_from_F(exact, d))
    return StrategyResult(
        strategy_name="constrained_teleportation",
        entanglement_fidelity_F=total,
        transmission_fidelity_f=f,
        success_probability=total,
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
        transmission_fidelity_f=float(f_from_F(exact, d)),
        success_probability=simulated,
        exact=exact,
        details={"d": d, "k_prime": k_prime, "fidelity_first": f1, "fidelity_second": f2},
    )


def nsqrac_favored_strategy(d: int) -> StrategyResult:
    """Teleport the first qudit perfectly and output a maximally mixed guess
    for the second: success (1 + 1/d^2)/2, with a simulation witness."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    f1 = constrained_teleport_fidelity(d, d * d).entanglement_fidelity_F
    mixed = DensityMatrix(np.eye(d * d) / (d * d))
    f2 = entanglement_fidelity(mixed).value
    simulated = 0.5 * (f1 + f2)
    exact = Fraction(1, 2) * (1 + Fraction(1, d * d))
    return StrategyResult(
        strategy_name="nsqrac_favored",
        entanglement_fidelity_F=simulated,
        transmission_fidelity_f=float(f_from_F(exact, d)),
        success_probability=simulated,
        exact=exact,
        details={"d": d, "fidelity_first": f1, "fidelity_second": f2, "exact_float": float(exact)},
    )


def composite_nsqrac_via_qracse(d: int = 2, cross_check: bool = False) -> StrategyResult:
    """Quantum-message strategy: encode the 16 teleportation outcomes with the
    entanglement-assisted code and correct with the decoded Weyl label.

    Alice Bell-measures both of her qudits against two shared pairs, getting
    a uniformly distributed outcome pair (i1, i2) of Weyl labels.  These four
    bits are the two strings of the d=2 two-string protocol, carried by a
    third shared pair plus one qubit of quantum communication.  Bob decodes
    the string of his choice as g and applies the Weyl correction for g; the
    correction fidelity is |tr(W_g W_i^dagger)/d|^2, which is 1 when g = i
    and 0 otherwise, so the success equals the decoder's average success.

    With ``cross_check=True`` the teleportation layer is also simulated as an
    explicit 8-qubit state vector (dimension 256) with Bell projectors and
    corrections; both paths must agree to 1e-9, or RuntimeError is raised.
    """
    if d != 2:
        raise ValueError("the composite strategy is implemented for d=2")
    from .codes import builtin_table
    from .qracse import QracTask, run_protocol

    report = run_protocol(QracTask(d=d, table=builtin_table(d), variant="two_strings"))
    F = report.p_avg

    wrong = _max_wrong_correction_overlap(d)
    details: dict = {
        "d": d,
        "per_choice": report.per_choice,
        "max_wrong_correction_fidelity": wrong,
        "value_matching_published_0_728": "entanglement_fidelity_F",
    }
    if cross_check:
        full = _composite_full_state_fidelity(d)
        if abs(full - F) > 1e-9:
            raise RuntimeError(f"full-state simulation disagrees: {full!r} vs {F!r}")
        details["full_state_simulation"] = full
    return StrategyResult(
        strategy_name="nsqrac_via_qracse",
        entanglement_fidelity_F=F,
        transmission_fidelity_f=(d * F + 1) / (d + 1),
        success_probability=F,
        exact=None,
        details=details,
    )


def _max_wrong_correction_overlap(d: int) -> float:
    labels = _weyl_labels(d)
    worst = 0.0
    for a1, b1 in labels:
        for a2, b2 in labels:
            if (a1, b1) == (a2, b2):
                continue
            w = weyl(d, a1, b1) @ weyl(d, a2, b2).conj().T
            worst = max(worst, abs(np.trace(w) / d) ** 2)
    return worst


def _composite_full_state_fidelity(d: int) -> float:
    """Explicit teleportation layer: two reference pairs, two shared pairs,
    Bell projectors on Alice's side, decoder statistics, Weyl corrections,
    all applied to the 8-site state vector."""
    from .codes import builtin_table
    from .qracse import _inverse_array, _success_tensor

    table = builtin_table(d)
    inv = _inverse_array(table)
    tensors = {c: _success_tensor(d, c, c).probs for c in (0, 1)}

    dims = [d] * 8  # A1' A1 At1 B1 A2' A2 At2 B2
    psi = bell_state(d).amplitudes
    state = np.kron(np.kron(psi, psi), np.kron(psi, psi))
    labels = _weyl_labels(d)
    targets = {(ga, gb): _corrected_target(d, weyl(d, ga, gb).conj().T) for ga, gb in labels}
    pair_sites = {0: (0, 3), 1: (4, 7)}  # (reference, output) per choice

    total = {0: 0.0, 1: 0.0}
    for a1, b1 in labels:
        first = apply(_bob_side_bell_projector(d, a1, b1).T, (1, 2), state, dims)
        for a2, b2 in labels:
            branch = apply(_bob_side_bell_projector(d, a2, b2).T, (5, 6), first, dims)
            e0 = inv[a1, a2]
            e1 = inv[b1, b2]
            for c in (0, 1):
                for ga, gb in labels:
                    p_dec = float(tensors[c][e0, e1, ga, gb])
                    if p_dec < 1e-15:
                        continue
                    overlap = expectation(targets[ga, gb], pair_sites[c], state, dims, ket=branch).real
                    total[c] += p_dec * overlap
    return 0.5 * (total[0] + total[1])
