"""Exact simulation and bound computation for quantum random access codes.

Subpackages by theme: :mod:`qracsim.qcore` (the maximally entangled state,
tolerances, fidelity conversion), :mod:`qracsim.codes` (single-distance
encoding tables), :mod:`qracsim.qracse` (the protocol engine, read off
closed-form success kernels), :mod:`qracsim.teleport` (constrained
teleportation and strategies, read off d x d Bell vectors built from exact
integer Weyl operators), :mod:`qracsim.bounds` (monogamy upper bounds) and
:mod:`qracsim.cli` (reproduction frontend).  Importing the package imports
no submodule, and numpy loads with the first module or call that needs arrays.
"""

__all__ = ["bounds", "codes", "qcore", "qracse", "teleport"]
__version__ = "0.1.0"
