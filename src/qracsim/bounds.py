"""Monogamy-based upper bounds for random access coding with bounded
entanglement and unconstrained classical communication.

Closed-form bounds are evaluated in exact rational arithmetic; the
asymmetric case maximises a weighted sum of squares on the ellipsoid
surface that the fidelity constraint carves out of [0, 1]^N, which is
solved exactly as the top eigenpair of an N x N symmetric matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .qcore import DensityMatrix, F_from_f, haar_random_ket, partial_trace

PROB_SUM_TOL = 1e-12

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


@dataclass(frozen=True)
class CloningParams:
    """N1 input copies cloned to N2 outputs in dimension d."""

    n1: int
    n2: int
    d: int

    def __post_init__(self):
        if not 1 <= self.n1 <= self.n2:
            raise ValueError(f"need 1 <= n1 <= n2, got n1={self.n1}, n2={self.n2}")
        if self.d < 2:
            raise ValueError(f"dimension must be at least 2, got {self.d}")


@dataclass(frozen=True)
class AsymSpec:
    """Receiver dimension and the probabilities with which inputs are requested."""

    d: int
    probabilities: tuple[float, ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"dimension must be at least 2, got {self.d}")
        p = tuple(float(x) for x in self.probabilities)
        if len(p) < 2:
            raise ValueError("need at least two receivers")
        if not all(np.isfinite(p)):
            raise ValueError(f"probabilities must be finite, got {list(p)}")
        if any(x < 0 for x in p):
            raise ValueError("probabilities must be nonnegative")
        if abs(sum(p) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities must sum to 1, got {sum(p)!r}")
        object.__setattr__(self, "probabilities", p)

    @property
    def n(self) -> int:
        return len(self.probabilities)


@dataclass(frozen=True)
class BoundResult:
    """A bound value with exact rational form when one exists."""

    label: str
    value: float
    exact: Fraction | None = None
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        payload: dict = {"label": self.label, "value": self.value, "details": self.details}
        if self.exact is not None:
            payload["exact"] = {
                "numerator": self.exact.numerator,
                "denominator": self.exact.denominator,
            }
        return payload


def werner_fidelity(params: CloningParams) -> Fraction:
    """Optimal universal cloning fidelity N1/N2 + (N2-N1)(N1+1)/(N2(N1+d))."""
    n1, n2, d = params.n1, params.n2, params.d
    return Fraction(n1, n2) + Fraction((n2 - n1) * (n1 + 1), n2 * (n1 + d))


def symmetric_bound(d: int, n: int) -> Fraction:
    """Success bound (N + d - 1)/(d N) for N equally likely d-dimensional inputs."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if n < 1:
        raise ValueError(f"need at least one receiver, got {n}")
    return Fraction(n + d - 1, d * n)


def symmetric_bound_via_cloning(d: int, n: int) -> Fraction:
    """Same bound derived through the cloning fidelity and the f -> F conversion."""
    f = werner_fidelity(CloningParams(n1=1, n2=n, d=d))
    return F_from_f(f, d)


def kay_constraint_residual(F_values: Sequence[float], d: int) -> float:
    """Slack of the entanglement-fidelity constraint
    sum F_i <= (d-1)/d + (sum sqrt(F_i))^2 / (N + d - 1); >= 0 means feasible."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    fs = [float(v) for v in F_values]
    if any(not 0 <= v <= 1 + 1e-12 for v in fs):
        raise ValueError("fidelities must lie in [0, 1]")
    n = len(fs)
    rhs = (d - 1) / d + sum(np.sqrt(max(v, 0.0)) for v in fs) ** 2 / (n + d - 1)
    return float(rhs - sum(fs))


def asym_closed_form_n2(p: float, d: int) -> float:
    """Two-receiver bound (1 + sqrt(1 + 4 (d^2-1) (p-1) p / d^2)) / 2."""
    if not 0 <= p <= 1:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    return float(0.5 * (1 + np.sqrt(1 + 4 * (d * d - 1) * (p - 1) * p / d**2)))


@dataclass(frozen=True)
class AsymOptimum:
    value: float
    point: tuple[float, ...]
    details: dict = field(default_factory=dict)


def asym_optimize(spec: AsymSpec) -> AsymOptimum:
    """Maximise sum p_i x_i^2 over x in [0,1]^N on the constraint surface.

    The surface is x^T Q x = c with Q = 1 - J/(N+d-1), c = (d-1)/d.  Q is
    positive definite with Q^-1 = 1 + J/(d-1) (Sherman-Morrison), so the
    stationarity condition P x = mu Q x is the symmetric eigenproblem
    S y = mu y with u = sqrt(p), S = diag(p) + u u^T/(d-1) and
    x = Q^-1 (u * y).  The optimum is c * lambda_max(S), attained at the top
    eigenvector rescaled onto the surface.  Q^-1 P is entrywise nonnegative,
    so by Perron-Frobenius the maximiser can be taken nonnegative; if it
    still leaves the unit box the bound is not attained there and a
    ValueError is raised.
    """
    n, d = spec.n, spec.d
    if n > 8:
        raise ValueError("supported receiver counts are 2 <= N <= 8")
    p = np.asarray(spec.probabilities)
    u = np.sqrt(p)
    c = (d - 1) / d
    eigenvalues, eigenvectors = np.linalg.eigh(np.diag(p) + np.outer(u, u) / (d - 1))
    lam, y = float(eigenvalues[-1]), eigenvectors[:, -1]
    z = u * y
    x = z + z.sum() / (d - 1)
    if x.sum() < 0:
        x = -x
    q = np.eye(n) - np.ones((n, n)) / (n + d - 1)
    x *= np.sqrt(c / float(x @ q @ x))
    if x.min() < -1e-12 or x.max() > 1 + 1e-12:
        raise ValueError(f"maximiser {x.tolist()} leaves the unit box")
    return AsymOptimum(
        value=c * lam,
        point=tuple(float(v) for v in x),
        details={"d": d, "n": n, "surface_residual": abs(float(x @ q @ x) - c)},
    )


def fully_entangled_fraction(rho: DensityMatrix) -> float:
    """Maximal overlap of a two-qubit state with a maximally entangled state:
    the largest eigenvalue of the real part of rho in the magic basis."""
    m = rho.matrix
    if m.shape != (4, 4):
        raise ValueError(f"fully entangled fraction is implemented for two qubits, got dimension {m.shape[0]}")
    magic = _MAGIC_BASIS.conj().T @ m @ _MAGIC_BASIS
    return float(np.linalg.eigvalsh(magic.real)[-1])


@dataclass(frozen=True)
class MonogamyScan:
    min_residual: float
    n_states: int
    seed: int
    residuals_head: tuple[float, ...]


def kay_feasibility_scan(n_states: int = 500, seed: int = 20220314, keep_head: int = 8) -> MonogamyScan:
    """Sample random pure three-qubit states and check the fidelity constraint
    on the two marginals that share the receiver qubit."""
    if n_states < 1:
        raise ValueError("need at least one state")
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(n_states):
        psi = haar_random_ket(8, rng)
        rho = DensityMatrix(psi.projector())
        marg_1 = partial_trace(rho, [2, 2, 2], keep=[0, 2])
        marg_2 = partial_trace(rho, [2, 2, 2], keep=[1, 2])
        f1 = fully_entangled_fraction(marg_1)
        f2 = fully_entangled_fraction(marg_2)
        residuals.append(kay_constraint_residual([f1, f2], d=2))
    return MonogamyScan(
        min_residual=float(min(residuals)),
        n_states=n_states,
        seed=seed,
        residuals_head=tuple(float(r) for r in residuals[:keep_head]),
    )
