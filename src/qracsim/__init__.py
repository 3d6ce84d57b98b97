"""Exact simulation and bound computation for quantum random access codes.

Subpackages by theme: :mod:`qracsim.qcore` (states, local operators,
fidelities), :mod:`qracsim.pauli` (Weyl operators and fractional powers),
:mod:`qracsim.codes` (single-distance encoding tables), :mod:`qracsim.qracse`
(the protocol engine), :mod:`qracsim.teleport` (constrained teleportation and
strategies), :mod:`qracsim.bounds` (monogamy upper bounds) and
:mod:`qracsim.cli` (reproduction frontend).
"""

from . import bounds, codes, pauli, qcore, qracse, teleport  # noqa: F401

__all__ = ["bounds", "codes", "pauli", "qcore", "qracse", "teleport"]
__version__ = "0.1.0"
