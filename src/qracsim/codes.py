"""Single-distance (m-ary Gray) encoding tables on digit pairs.

An encoding table for base d lists, for each encoding index e in
0..d^2-1, a digit pair (a0, a1).  A good table is a bijection onto
{0..d-1}^2 whose consecutive entries (cyclically, so the last wraps to
the first) differ in exactly one digit.  Cyclic enforcement matches the
torus of Weyl exponents the indices are mapped onto.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

Pair = tuple[int, int]

# dimensions whose tables are published; generate_single_distance builds them
_PUBLISHED_DIMENSIONS = (2, 3, 4)


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

    def to_json(self) -> str:
        return json.dumps([[a, b] for a, b in self.pairs])


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
    """The published table for d in {2, 3, 4}, which is the Gray construction
    of :func:`generate_single_distance` at those dimensions."""
    if d not in _PUBLISHED_DIMENSIONS:
        raise TableUnavailableError(
            f"no built-in table for d={d}; use generate_single_distance or search_tables"
        )
    return generate_single_distance(d)


def generate_single_distance(d: int) -> EncodingTable:
    """Constructive single-distance table for any d >= 2.

    Entry e = r*d + j maps to (r, (j - r) mod d): within a run the second
    digit cycles through 0..d-1 (starting at -r mod d), and between runs only
    the first digit steps.  For d in {2, 3, 4} these are the published
    tables, entry by entry.
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


def _cycles(d: int, start: int, rng: np.random.Generator | None = None) -> Iterator[list[int]]:
    """Hamiltonian cycles of the rook graph of the d x d digit grid that begin
    at ``start``, as cells a*d + b, found lazily depth first.  The neighbours
    of the path's end are tried in a fixed order, or shuffled by ``rng``."""
    nbrs = _rook_neighbours(d)
    n = d * d
    path = [start]
    used = [False] * n
    used[start] = True

    def options(cell: int) -> Iterator[int]:
        cells = list(nbrs[cell])
        if rng is not None:
            rng.shuffle(cells)
        return iter(cells)

    stack = [options(start)]  # untried neighbours of each cell on the path
    while stack:
        for nxt in stack[-1]:
            if not used[nxt]:
                break
        else:
            stack.pop()
            used[path.pop()] = False
            continue
        if len(path) == n - 1:
            if start in nbrs[nxt]:
                yield path + [nxt]
        else:
            path.append(nxt)
            used[nxt] = True
            stack.append(options(nxt))


def _random_cycle(d: int, rng: np.random.Generator) -> list[int]:
    """Random Hamiltonian cycle on the rook graph: the first one a depth-first
    search from a random cell finds, trying neighbours in random order."""
    return next(_cycles(d, int(rng.integers(d * d)), rng))


@lru_cache(maxsize=None)
def _all_cycles(d: int) -> np.ndarray:
    """Every valid table as a row of cells a*d + b, in lexicographic order.

    Enumerated depth first: 8 tables for d = 2 and 864 for d = 3, the only
    dimensions the search enumerates.  d = 4 has 284 112 undirected cycles,
    which give 9 091 584 tables (16 starts times 2 directions each).
    """
    cycles = np.array(sorted(c for start in range(d * d) for c in _cycles(d, start)), dtype=np.intp)
    cycles.setflags(write=False)
    return cycles


@lru_cache(maxsize=None)
def _climb_moves(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moves of one climb step on a cycle of n = d^2 cells, the joins each
    move makes, and the one-digit steps.

    Row r - 1 of ``moves`` takes a cycle to its rotation by r; the rows after
    them reverse the segment [i..j] for each i < j in row-major order.
    ``joins[r]`` holds the two pairs of positions whose cells become
    neighbours under move r, so a move keeps a valid cycle valid exactly when
    both pairs are one-digit steps.  Rotations and the full reversal join no
    new cells; their pairs repeat positions 0 and 1, neighbours already.
    ``one_step[p, q]`` says whether cells p and q differ in exactly one digit.
    """
    n = d * d
    k = np.arange(n)
    i, j = np.triu_indices(n, 1)
    reversals = np.where((k >= i[:, None]) & (k <= j[:, None]), (i + j)[:, None] - k, k)
    moves = np.concatenate([(k + k[1:, None]) % n, reversals])
    joins = np.stack([(i - 1) % n, j, i, (j + 1) % n], axis=1)
    joins[(i == 0) & (j == n - 1)] = (0, 1, 0, 1)
    joins = np.concatenate([np.tile((0, 1, 0, 1), (n - 1, 1)), joins]).reshape(-1, 2, 2)
    a, b = np.divmod(k, d)
    one_step = (a[:, None] != a) ^ (b[:, None] != b)
    for array in (moves, joins, one_step):
        array.setflags(write=False)
    return moves, joins, one_step


# Restarts climbing at once in one round of the search; each round step scores
# the move lists of all of them in one batch, so this caps the batch's rows and
# with them the search's peak memory.  Peak RSS of a process that imports the
# package and runs search_tables(4, "p_min", 10000, 1), median of 8 runs (numpy
# 2.4.6, x86-64): 38.25 MiB at 16, 38.51 MiB at 32, 39.43 MiB at 64.
_ROUND_CLIMBS = 32


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
    table, which is the built-in one where that exists, is always evaluated
    first, so the result never scores below it.  Each climb step takes the
    first move that improves the score; the scores past that move are not
    counted and do not change the result.

    Restarts climb in rounds of up to 32, with one scorer batch for one
    step of every climb in the round, and the tables each climb walks
    through are counted against the budget in start order.  The result is
    the same as climbing the restarts one at a time: every table's score is
    exact and independent of its batch, so a climb's path depends only on
    its start.  Deterministic for a fixed seed; ties break to the
    lexicographically smallest pair sequence.
    """
    from .qracse import _two_string_values  # local import; qracse depends on this module

    if objective not in ("p_min", "p_avg"):
        raise ValueError(f"unknown objective {objective!r}")
    if budget < 1:
        raise ValueError("budget must be a positive number of evaluations")
    if not 2 <= d <= 5:
        raise ValueError(
            "supported dimensions are 2 <= d <= 5 (the random cycle generator takes exponential time beyond d = 5)"
        )

    n = d * d
    rng = np.random.default_rng(seed)
    evaluated: dict[bytes, float] = {}  # uint8 cells a*d + b of each table -> score

    def score(cycles: np.ndarray) -> np.ndarray:
        invs = np.full(cycles.shape, -1, dtype=np.intp)  # a row that is no permutation keeps a -1
        invs[np.arange(len(cycles))[:, None], cycles] = np.arange(n)
        per_string, per_choice = _two_string_values(invs.reshape(-1, d, d))
        if objective == "p_min":
            return per_string.reshape(len(cycles), -1).min(axis=1)
        return per_choice.mean(axis=1)

    def keys(cycles: np.ndarray) -> list[bytes]:
        return cycles.astype(np.uint8).view(np.dtype((np.void, n))).ravel().tolist()

    def count(walked: Iterable[tuple[bytes, float]]) -> None:
        """Count the walked tables in order until the budget runs out; tables
        seen before are free."""
        for key, value in walked:
            if key not in evaluated:
                if len(evaluated) == budget:
                    return
                evaluated[key] = value

    def walk(cycles: np.ndarray) -> None:
        count(zip(keys(cycles), score(cycles).tolist()))

    def climb_round(size: int) -> None:
        """Climb ``size`` fresh restarts in lockstep, counting each climb's
        tables once every earlier climb is counted, until the budget runs out."""
        current = np.array([_random_cycle(d, rng) for _ in range(size)], dtype=np.intp)
        beats = score(current)  # each climb's score to beat
        walked = [[(key, value)] for key, value in zip(keys(current), beats.tolist())]
        active = np.arange(size)  # climbs still moving, in start order
        head = 0  # the first climb not yet fully counted
        while head < size:
            count(walked[head])
            if len(evaluated) == budget:
                return
            walked[head] = []
            if not len(active) or active[0] != head:
                head += 1
                continue
            cycles = current[active]
            joined = cycles[:, joins]
            owner, move = np.nonzero(one_step[joined[..., 0], joined[..., 1]].all(axis=2))
            rows = cycles[owner[:, None], all_moves[move]]  # each active climb's move list, one after another
            values = score(rows)
            counts = np.bincount(owner, minlength=len(active))
            ends = np.cumsum(counts)
            starts = ends - counts
            hits = np.append(np.flatnonzero(values > np.repeat(beats[active], counts) + 1e-12), len(rows))
            accepted = hits[np.searchsorted(hits, starts)]  # first improving row of each list, if below its end
            moved = accepted < ends
            row_keys, row_values = keys(rows), values.tolist()
            for climb, lo, hi in zip(active.tolist(), starts.tolist(), np.minimum(accepted + 1, ends).tolist()):
                walked[climb].extend(zip(row_keys[lo:hi], row_values[lo:hi]))
            active = active[moved]
            current[active] = rows[accepted[moved]]
            beats[active] = values[accepted[moved]]

    def cells(pairs: tuple[Pair, ...]) -> np.ndarray:
        return np.array([[a * d + b for a, b in pairs]], dtype=np.intp)

    walk(cells(generate_single_distance(d).pairs))

    if d == 2 or (d == 3 and budget >= len(_all_cycles(3))):
        walk(_all_cycles(d))
    else:
        all_moves, joins, one_step = _climb_moves(d)
        seeded, climbs = len(evaluated), 0
        while len(evaluated) < budget:
            # one restart first, then as many as the budget left needs at the
            # tables per climb counted so far
            room, climbed = budget - len(evaluated), max(len(evaluated) - seeded, 1)
            size = min(_ROUND_CLIMBS, math.ceil(room * climbs / climbed)) if climbs else 1
            climbs += size
            climb_round(size)

    top = max(evaluated.values())
    best = min(key for key, value in evaluated.items() if value == top)
    return SearchResult(
        table=EncodingTable(d=d, pairs=tuple(divmod(c, d) for c in best)),
        score=evaluated[best],
        objective=objective,
        evaluations=len(evaluated),
    )
