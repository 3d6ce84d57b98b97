"""Single-distance (m-ary Gray) encoding tables on digit pairs.

An encoding table for base d lists, for each encoding index e in
0..d^2-1, a digit pair (a0, a1).  A good table is a bijection onto
{0..d-1}^2 whose consecutive entries (cyclically, so the last wraps to
the first) differ in exactly one digit.  Cyclic enforcement matches the
torus of Weyl exponents the indices are mapped onto.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

Pair = tuple[int, int]

# published tables for d = 2, 3, 4; entry e -> (a0, a1)
_BUILTIN: dict[int, tuple[Pair, ...]] = {
    2: ((0, 0), (0, 1), (1, 1), (1, 0)),
    3: ((0, 0), (0, 1), (0, 2), (1, 2), (1, 0), (1, 1), (2, 1), (2, 2), (2, 0)),
    4: (
        (0, 0), (0, 1), (0, 2), (0, 3),
        (1, 3), (1, 0), (1, 1), (1, 2),
        (2, 2), (2, 3), (2, 0), (2, 1),
        (3, 1), (3, 2), (3, 3), (3, 0),
    ),
}


class TableUnavailableError(LookupError):
    """No built-in table for this dimension; generate or search instead."""


@dataclass(frozen=True)
class EncodingTable:
    """Map from encoding index e to digit pair (a0, a1), both digits in 0..d-1.

    The constructor checks shape and digit ranges only; bijectivity and the
    single-distance property are checked by :func:`validate` so that broken
    candidate tables can still be inspected.
    """

    d: int
    pairs: tuple[Pair, ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"dimension must be at least 2, got {self.d}")
        pairs = tuple((int(a), int(b)) for a, b in self.pairs)
        if len(pairs) != self.d**2:
            raise ValueError(f"table must have d^2 = {self.d ** 2} entries, got {len(pairs)}")
        for a, b in pairs:
            if not (0 <= a < self.d and 0 <= b < self.d):
                raise ValueError(f"digit pair ({a}, {b}) out of range for d={self.d}")
        object.__setattr__(self, "pairs", pairs)

    def index_of(self, pair: Pair) -> int:
        """Encoding index of a digit pair; the table must be bijective."""
        try:
            return self.pairs.index((int(pair[0]), int(pair[1])))
        except ValueError:
            raise ValueError(f"pair {tuple(pair)} not present in the table") from None

    def inverse(self) -> dict[Pair, int]:
        return {p: e for e, p in enumerate(self.pairs)}

    def to_json(self) -> str:
        return json.dumps([[a, b] for a, b in self.pairs])

    @staticmethod
    def from_json(text: str) -> "EncodingTable":
        data = json.loads(text)
        d = int(round(np.sqrt(len(data))))
        if d * d != len(data):
            raise ValueError(f"array length {len(data)} is not a perfect square")
        return EncodingTable(d=d, pairs=tuple((int(a), int(b)) for a, b in data))


@dataclass(frozen=True)
class ValidationReport:
    bijective: bool
    single_distance: bool
    duplicate_pairs: tuple[Pair, ...] = ()
    missing_pairs: tuple[Pair, ...] = ()
    distance_violations: tuple[int, ...] = field(default=())

    @property
    def valid(self) -> bool:
        return self.bijective and self.single_distance


def validate(table: EncodingTable) -> ValidationReport:
    """Check bijectivity and cyclic single distance, listing violations.

    ``distance_violations`` holds every index e whose step e -> (e+1) mod d^2
    changes zero digits or both digits.
    """
    d = table.d
    seen: dict[Pair, int] = {}
    duplicates = []
    for pair in table.pairs:
        seen[pair] = seen.get(pair, 0) + 1
        if seen[pair] == 2:
            duplicates.append(pair)
    missing = [(a, b) for a in range(d) for b in range(d) if (a, b) not in seen]
    violations = []
    n = len(table.pairs)
    for e in range(n):
        p, q = table.pairs[e], table.pairs[(e + 1) % n]
        if (p[0] != q[0]) + (p[1] != q[1]) != 1:
            violations.append(e)
    return ValidationReport(
        bijective=not duplicates and not missing,
        single_distance=not violations,
        duplicate_pairs=tuple(duplicates),
        missing_pairs=tuple(missing),
        distance_violations=tuple(violations),
    )


def builtin_table(d: int) -> EncodingTable:
    """The published table for d in {2, 3, 4}."""
    if d not in _BUILTIN:
        raise TableUnavailableError(
            f"no built-in table for d={d}; use generate_single_distance or search_tables"
        )
    return EncodingTable(d=d, pairs=_BUILTIN[d])


def generate_single_distance(d: int) -> EncodingTable:
    """Constructive single-distance table for any d >= 2.

    Entry e = r*d + j maps to (r, (j - r) mod d): within a run the second
    digit cycles through 0..d-1 (starting at -r mod d), and between runs only
    the first digit steps.  For d in {2, 3, 4} this reproduces the built-in
    tables entry by entry.
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    pairs = tuple((r, (j - r) % d) for r in range(d) for j in range(d))
    return EncodingTable(d=d, pairs=pairs)


@dataclass(frozen=True)
class SearchResult:
    table: EncodingTable
    score: float
    objective: str
    evaluations: int


@lru_cache(maxsize=None)
def _rook_neighbours(d: int) -> tuple[tuple[int, ...], ...]:
    """Cells a*d + b one digit away from each cell: first digit changed, then second."""
    return tuple(
        tuple(x * d + b for x in range(d) if x != a) + tuple(a * d + y for y in range(d) if y != b)
        for a in range(d)
        for b in range(d)
    )


def _random_cycle(d: int, rng: np.random.Generator) -> list[int] | None:
    """Random Hamiltonian cycle on the rook graph of the d x d digit grid, as cells a*d + b."""
    nbrs = _rook_neighbours(d)
    path = [int(rng.integers(d * d))]
    used = [False] * (d * d)
    used[path[0]] = True

    def extend() -> bool:
        if len(path) == d * d:
            return path[0] in nbrs[path[-1]]
        options = nbrs[path[-1]]
        for i in rng.permutation(len(options)).tolist():
            nxt = options[i]
            if used[nxt]:
                continue
            path.append(nxt)
            used[nxt] = True
            if extend():
                return True
            path.pop()
            used[nxt] = False
        return False

    return path if extend() else None


@lru_cache(maxsize=None)
def _all_cycles(d: int) -> np.ndarray:
    """Every valid table as a row of cells a*d + b, in lexicographic order.

    Enumerated depth first; 8 tables for d = 2 and 864 for d = 3 (the count
    grows too fast to enumerate beyond that).
    """
    nbrs = _rook_neighbours(d)
    found = []

    def extend(path: list[int]):
        if len(path) == d * d:
            if path[0] in nbrs[path[-1]]:
                found.append(path)
            return
        for q in sorted(nbrs[path[-1]]):
            if q not in path:
                extend(path + [q])

    for start in range(d * d):
        extend([start])
    cycles = np.array(found, dtype=np.intp)
    cycles.setflags(write=False)
    return cycles


@lru_cache(maxsize=None)
def _climb_moves(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Moves of one climb step on a cycle of n = d^2 cells, and the one-digit steps.

    Row r - 1 of ``moves`` takes a cycle to its rotation by r; the rows after
    them reverse the segment [i..j] for each i < j in row-major order.
    ``one_step[p, q]`` says whether cells p and q differ in exactly one digit.
    """
    n = d * d
    k = np.arange(n)
    i, j = np.triu_indices(n, 1)
    reversals = np.where((k >= i[:, None]) & (k <= j[:, None]), (i + j)[:, None] - k, k)
    moves = np.concatenate([(k + k[1:, None]) % n, reversals])
    a, b = np.divmod(k, d)
    one_step = (a[:, None] != a) ^ (b[:, None] != b)
    moves.setflags(write=False)
    one_step.setflags(write=False)
    return moves, one_step


def search_tables(
    d: int,
    objective: str = "p_min",
    budget: int = 200,
    seed: int = 0,
) -> SearchResult:
    """Search valid single-distance tables for the best protocol score.

    Exhaustive for d = 2, and for d = 3 once the budget covers all 864
    valid tables; otherwise seeded random restarts over Hamiltonian cycles
    of the rook graph, climbing by rotation and segment-reversal moves.
    ``budget`` caps the number of distinct tables evaluated.  The generated
    table (and the built-in one where it exists) is always evaluated first,
    so the result never scores below it.  Each climb step scores its whole
    move list in one batch and takes the first improving move; the scores
    past that move are not counted and do not change the result.
    Deterministic for a fixed seed; ties break to the lexicographically
    smallest pair sequence.
    """
    from .qracse import _two_string_values  # local import; qracse depends on this module

    if objective not in ("p_min", "p_avg"):
        raise ValueError(f"unknown objective {objective!r}")
    if budget < 1:
        raise ValueError("budget must be a positive number of evaluations")
    if not 2 <= d <= 5:
        raise ValueError("search supports 2 <= d <= 5 (evaluation cost grows as d^4)")

    n = d * d
    rng = np.random.default_rng(seed)
    evaluated: dict[tuple[int, ...], float] = {}  # cells a*d + b of each table -> score

    def score(cycles: np.ndarray) -> list[float]:
        invs = np.full(cycles.shape, -1, dtype=np.intp)
        np.put_along_axis(invs, cycles, np.arange(n), axis=1)
        per_string, per_choice = _two_string_values(invs.reshape(-1, d, d))
        if objective == "p_min":
            return per_string.reshape(len(cycles), -1).min(axis=1).tolist()
        return per_choice.mean(axis=1).tolist()

    def walk(cycles: np.ndarray, beat: float = np.inf) -> int | None:
        """Evaluate the rows in order until one scores above ``beat`` (its
        index is returned) or the budget runs out; rows seen before are free."""
        keys = list(map(tuple, cycles.tolist()))
        unseen: dict[tuple[int, ...], int] = {}
        room = budget - len(evaluated)
        for row, key in enumerate(keys):
            if key not in evaluated and key not in unseen:
                if len(unseen) == room:  # out of budget: evaluation stops here
                    keys = keys[:row]
                    break
                unseen[key] = row
        scores = dict(zip(unseen, score(cycles[list(unseen.values())]))) if unseen else {}
        for row, key in enumerate(keys):
            if key not in evaluated:
                evaluated[key] = scores[key]
            if evaluated[key] > beat + 1e-12:
                return row
        return None

    def cells(pairs: tuple[Pair, ...]) -> np.ndarray:
        return np.array([[a * d + b for a, b in pairs]], dtype=np.intp)

    walk(cells(generate_single_distance(d).pairs))
    if d in _BUILTIN:
        walk(cells(_BUILTIN[d]))

    if d == 2 or (d == 3 and budget >= len(_all_cycles(3))):
        walk(_all_cycles(d))
    else:
        all_moves, one_step = _climb_moves(d)
        while len(evaluated) < budget:
            cycle = _random_cycle(d, rng)
            if cycle is None:
                break
            current = np.array(cycle, dtype=np.intp)
            walk(current[None])
            while len(evaluated) < budget:
                moves = current[all_moves]
                moves = moves[one_step[moves, np.roll(moves, -1, axis=1)].all(axis=1)]
                accepted = walk(moves, evaluated[tuple(current.tolist())])
                if accepted is None:
                    break
                current = moves[accepted]

    best = min(evaluated, key=lambda cycle: (-evaluated[cycle], cycle))
    return SearchResult(
        table=EncodingTable(d=d, pairs=tuple(divmod(c, d) for c in best)),
        score=evaluated[best],
        objective=objective,
        evaluations=len(evaluated),
    )
