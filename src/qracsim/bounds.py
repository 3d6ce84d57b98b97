"""Monogamy-based upper bounds for random access coding with bounded
entanglement and unconstrained classical communication.

Closed-form bounds are evaluated in exact rational arithmetic; the
asymmetric case maximises a weighted sum of squares on the ellipsoid
surface that the fidelity constraint carves out of [0, 1]^N, whose optimum
is the root of a secular equation, bisected in scalar math, with the
maximiser in closed form and no matrix built.  The feasibility scan reads
each two-qubit marginal's fully entangled fraction off the state's
amplitudes, as half the top eigenvalue of a real 4 x 4 Gram matrix, and
builds no density matrix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .qcore import NORM_TOL, PSD_TOL, F_from_f, check_dimension, check_integer, check_seed

if TYPE_CHECKING:
    import numpy as np

PROB_SUM_TOL = 1e-12
KAY_SCAN_HEAD = 8  # leading residuals that kay_feasibility_scan reports


@dataclass(frozen=True)
class AsymSpec:
    """Receiver dimension and the probabilities with which inputs are requested."""

    d: int
    probabilities: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "d", check_dimension(self.d))
        p = tuple(float(x) for x in self.probabilities)
        if len(p) < 2:
            raise ValueError("need at least two receivers")
        if not all(map(math.isfinite, p)):
            raise ValueError(f"probabilities must be finite, got {list(p)}")
        if any(x < 0 for x in p):
            raise ValueError("probabilities must be nonnegative")
        if abs(sum(p) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities must sum to 1, got {sum(p)!r}")
        object.__setattr__(self, "probabilities", p)

    @property
    def n(self) -> int:
        return len(self.probabilities)


def werner_fidelity(n1: int, n2: int, d: int) -> Fraction:
    """Optimal universal cloning fidelity N1/N2 + (N2-N1)(N1+1)/(N2(N1+d)) of
    N1 input copies cloned to N2 outputs in dimension d."""
    n1, n2 = check_integer(n1, "n1"), check_integer(n2, "n2")
    if not 1 <= n1 <= n2:
        raise ValueError(f"need 1 <= n1 <= n2, got n1={n1}, n2={n2}")
    check_dimension(d)
    return Fraction(n1, n2) + Fraction((n2 - n1) * (n1 + 1), n2 * (n1 + d))


def symmetric_bound(d: int, n: int) -> Fraction:
    """Success bound (N + d - 1)/(d N) for N equally likely d-dimensional inputs."""
    check_dimension(d)
    if (n := check_integer(n, "n")) < 1:
        raise ValueError(f"need at least one receiver, got {n}")
    return Fraction(n + d - 1, d * n)


def symmetric_bound_via_cloning(d: int, n: int) -> Fraction:
    """Same bound derived through the cloning fidelity and the f -> F conversion."""
    f = werner_fidelity(1, n, d)
    return F_from_f(f, d)


def kay_constraint_residual(F_values: Sequence[float] | np.ndarray, d: int) -> float | np.ndarray:
    """Slack of the entanglement-fidelity constraint
    sum F_i <= (d-1)/d + (sum sqrt(F_i))^2 / (N + d - 1); >= 0 means feasible.
    The F_i run along the last axis, so a stack gives one slack per row."""
    import numpy as np
    check_dimension(d)
    fs = np.asarray(F_values, dtype=float)
    if not np.all((fs >= 0) & (fs <= 1 + 1e-12)):  # NaN fails both comparisons
        raise ValueError("fidelities must lie in [0, 1]")
    n = fs.shape[-1]
    rhs = (d - 1) / d + np.sqrt(fs).sum(axis=-1) ** 2 / (n + d - 1)
    return rhs - fs.sum(axis=-1)


def asym_closed_form_n2(p: float, d: int) -> float:
    """Two-receiver bound (1 + sqrt(1 + 4 (d^2-1) (p-1) p / d^2)) / 2."""
    if not 0 <= p <= 1:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    check_dimension(d)
    return 0.5 * (1 + math.sqrt(1 + 4 * (d * d - 1) * (p - 1) * p / d**2))


class AsymOptimum(NamedTuple):
    value: float
    point: tuple[float, ...]
    details: dict


def asym_optimize(spec: AsymSpec) -> AsymOptimum:
    """Maximise sum p_i x_i^2 over x in [0,1]^N on the surface x^T Q x = c,
    Q = 1 - J/(N+d-1), c = (d-1)/d.  As Q^-1 = 1 + J/(d-1), the optimum is c l
    for the top eigenvalue l of diag(p) + u u^T/(d-1), u = sqrt(p): the root
    of g(l) = sum p_i/(l - p_i) - (d-1) (Golub, SIAM Rev. 15, 318 (1973)).  g
    falls strictly above max p and is <= 0 from max p + 1/(d-1) on, so l is
    bisected on (max p, max p + 1], whose ends stay apart in floats for any
    d, to adjacent floats, keeping the end with the smaller |g|; every sum
    is a math.fsum, so no BLAS kernel moves a bit.  The eigenvector
    y_i ~ u_i/(l - p_i) gives Q^-1 (u * y) ~ p_i/(l - p_i) + 1 = l/(l - p_i)
    by g(l) = 0, so the maximiser is x_i ~ 1/(l - p_i) > 0 rescaled onto the
    surface; if it leaves the unit box, a ValueError is raised."""
    n, d = spec.n, spec.d
    if n > 8:
        raise ValueError("supported receiver counts are 2 <= N <= 8")
    p, c = spec.probabilities, (d - 1) / d

    def surface(v):  # v^T Q v
        return math.fsum([a * a for a in v] + [-math.fsum(v) ** 2 / (n + d - 1)])

    lo, hi, g_lo, g_hi = max(p), max(p) + 1, math.inf, 0.0  # g at an end once that end has moved
    while lo < (mid := (lo + hi) / 2) < hi:
        g = math.fsum([q / (mid - q) for q in p] + [1 - d])
        lo, hi, g_lo, g_hi = (mid, hi, g, g_hi) if g > 0 else (lo, mid, g_lo, g)
    lam = lo if g_lo < -g_hi else hi
    w = [1 / (lam - q) for q in p]
    scale = math.sqrt(c / surface(w))
    x = tuple(a * scale for a in w)
    if max(x) > 1 + 1e-12:
        raise ValueError(f"maximiser {list(x)} leaves the unit box")
    return AsymOptimum(value=c * lam, point=x, details={"surface_residual": abs(surface(x) - c)})


class MonogamyScan(NamedTuple):
    min_residual: float
    n_states: int
    residuals_head: tuple[float, ...]


def kay_feasibility_scan(n_states: int, seed: int) -> MonogamyScan:
    """Sample random pure three-qubit states on (A1, A2, C) and check the
    fidelity constraint on the two marginals that share the receiver C.

    The states come from one stdlib stream, random.Random(seed).random(),
    whose sequence Python keeps across versions.  State m = 0, 1, ... takes
    the next 16 uniforms in order: amplitude j = 0..7 takes u1, u2 and is
    r (cos t + i sin t) with r = sqrt(-2 ln(1 - u1)) and t = 2 pi u2, by
    scalar Box-Muller in math, so the draw does not depend on numpy's SIMD
    dispatch.  The normalised complex Gaussian vector is Haar-random.

    The marginal on (A_k, C) is rho = sum_b |psi_b><psi_b| over the two
    branches psi_b left with the other sender in state b.  Its fully
    entangled fraction is the top eigenvalue of Re(M^dag rho M), M the magic
    basis.  With w_b = sqrt(2) M^dag psi_b = (psi00 + psi11, -i(psi00 - psi11),
    -i(psi01 + psi10), psi01 - psi10), 2 Re(M^dag rho M) = V^T V for the
    rows Re w_0, Im w_0, Re w_1, Im w_1 of V, and the real Gram matrix V V^T
    has the same eigenvalues: one stacked eigvalsh gives the fraction as half
    the top one and the positivity check as the lowest.  The Gram trace is
    2 |psi|^2, which the norm check bounds, so no trace check is needed."""
    import numpy as np
    n_states = check_integer(n_states, "n_states")
    if n_states < 1:
        raise ValueError("need at least one state")
    uniform = random.Random(check_seed(seed)).random
    amplitudes = []
    for _ in range(8 * n_states):
        r = math.sqrt(-2.0 * math.log(1.0 - uniform()))
        t = 2.0 * math.pi * uniform()
        amplitudes.append(complex(r * math.cos(t), r * math.sin(t)))
    psi = np.array(amplitudes).reshape(n_states, 8)
    # squares and sum in separate loops: np.linalg.norm's complex product fuses into an FMA on AVX2/AVX-512
    psi /= np.sqrt((psi.real**2 + psi.imag**2).sum(axis=1, keepdims=True))
    norm_error = np.abs(np.linalg.norm(psi, axis=1) - 1.0).max()
    if not norm_error <= NORM_TOL:  # NaN fails this comparison
        raise ValueError(f"ket must be normalised, |norm - 1| = {norm_error:.3e}")
    t = psi.reshape(n_states, 2, 2, 2)
    # psi_b of the (A_k, C) marginal at [:, k, b], entries 00, 01, 10, 11 along the last axis
    branches = np.stack([t.swapaxes(1, 2), t], 1).reshape(n_states, 2, 2, 4)
    (x00, x01, x10, x11), (y00, y01, y10, y11) = np.moveaxis(branches.real, -1, 0), np.moveaxis(branches.imag, -1, 0)
    w_real, w_imag = [x00 + x11, y00 - y11, y01 + y10, x01 - x10], [y00 + y11, x11 - x00, -x01 - x10, y01 - y10]
    rows = np.stack(w_real + w_imag, -1).reshape(n_states, 2, 4, 4)
    gram = (rows[..., :, None, :] * rows[..., None, :, :]).sum(axis=-1)
    eigenvalues = np.linalg.eigvalsh(gram)
    lowest = eigenvalues[..., 0].min()
    if not lowest >= PSD_TOL:
        raise ValueError(f"marginal Gram matrix has negative eigenvalue {lowest:.3e}")
    residuals = kay_constraint_residual(eigenvalues[..., -1] / 2, d=2)
    return MonogamyScan(
        min_residual=float(residuals.min()),
        n_states=n_states,
        residuals_head=tuple(float(r) for r in residuals[:KAY_SCAN_HEAD]),
    )
