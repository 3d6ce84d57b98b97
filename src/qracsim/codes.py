"""Single-distance (m-ary Gray) encoding tables on digit pairs.

An encoding table for base d lists, for each encoding index e in
0..d^2-1, a digit pair (a0, a1).  A good table is a bijection onto
{0..d-1}^2 whose consecutive entries (cyclically, so the last wraps to
the first) differ in exactly one digit.  Cyclic enforcement matches the
torus of Weyl exponents the indices are mapped onto.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .qcore import check_dimension, check_integer

Pair = tuple[int, int]

# dimensions whose tables are published; generate_single_distance builds them
_PUBLISHED_DIMENSIONS = (2, 3, 4)


class TableUnavailableError(LookupError):
    """No built-in table for this dimension."""


@dataclass(frozen=True)
class EncodingTable:
    """Map from encoding index e to digit pair (a0, a1), both digits in 0..d-1.

    The constructor checks the dimension, the shape and the digit ranges
    only; :func:`validate` says whether the table is a bijection and single
    distance, so a broken candidate table can still be built.
    """

    d: int
    pairs: tuple[Pair, ...]

    def __post_init__(self):
        object.__setattr__(self, "d", check_dimension(self.d))
        pairs = tuple((check_integer(a, "digit"), check_integer(b, "digit")) for a, b in self.pairs)
        if len(pairs) != self.d**2:
            raise ValueError(f"table must have d^2 = {self.d ** 2} entries, got {len(pairs)}")
        for a, b in pairs:
            if not (0 <= a < self.d and 0 <= b < self.d):
                raise ValueError(f"digit pair ({a}, {b}) out of range for d={self.d}")
        object.__setattr__(self, "pairs", pairs)


class ValidationReport(NamedTuple):
    bijective: bool
    single_distance: bool

    @property
    def valid(self) -> bool:
        return self.bijective and self.single_distance


def validate(table: EncodingTable) -> ValidationReport:
    """Whether the table is a bijection onto the d^2 digit pairs, and whether
    every step e -> (e+1) mod d^2 changes exactly one digit."""
    pairs = table.pairs
    return ValidationReport(
        bijective=len(set(pairs)) == len(pairs),  # d^2 in-range pairs, so distinct means all of them
        single_distance=all((p[0] != q[0]) + (p[1] != q[1]) == 1 for p, q in zip(pairs, pairs[1:] + pairs[:1])),
    )


def builtin_table(d: int) -> EncodingTable:
    """The published table for d in {2, 3, 4}, which is the Gray construction
    of :func:`generate_single_distance` at those dimensions."""
    if d not in _PUBLISHED_DIMENSIONS:
        dims = ", ".join(map(str, _PUBLISHED_DIMENSIONS))
        raise TableUnavailableError(f"no built-in table for d={d}; built-in tables exist for d = {dims}")
    return generate_single_distance(d)


def generate_single_distance(d: int) -> EncodingTable:
    """Constructive single-distance table for any d >= 2.

    Entry e = r*d + j maps to (r, (j - r) mod d): within a run the second
    digit cycles through 0..d-1 (starting at -r mod d), and between runs only
    the first digit steps.  For d in {2, 3, 4} these are the published
    tables, entry by entry.
    """
    check_dimension(d)
    pairs = tuple((r, (j - r) % d) for r in range(d) for j in range(d))
    return EncodingTable(d=d, pairs=pairs)


class SearchResult(NamedTuple):
    table: EncodingTable
    score: float
    evaluations: int


@lru_cache(maxsize=None)
def _rook_neighbours(d: int) -> tuple[tuple[int, ...], ...]:
    """Cells a*d + b one digit away from each cell: first digit changed, then second."""
    return tuple(
        tuple(x * d + b for x in range(d) if x != a) + tuple(a * d + y for y in range(d) if y != b)
        for a in range(d)
        for b in range(d)
    )


# Tried neighbours per d^4 after which a random draw gives up.  The first 250
# draws of seeds 0-29 try at most 913 at d = 4; unlimited d = 5 draws tried up to 2.8 M.
_DRAW_TRIES = 8


def _cycles(d: int, start: int, rng: random.Random | None = None) -> Iterator[list[int]]:
    """Hamiltonian cycles of the rook graph of the d x d digit grid that begin
    at ``start``, as cells a*d + b, found lazily depth first.  Each cell on the
    path keeps the neighbours that were free when the path reached it, which
    are free again whenever the search comes back to it, and tries the last of
    them or one drawn with ``rng.randrange``.  A branch ends as soon as no free
    neighbour of ``start`` is left to close the cycle.  A draw with ``rng``
    gives up after ``_DRAW_TRIES * d**4`` tried neighbours."""
    nbrs = _rook_neighbours(d)
    n = d * d
    closes = [start in nbrs[cell] for cell in range(n)]
    free = [cell != start for cell in range(n)]
    ends = sum(closes)  # free neighbours of start
    path = [start]
    stack = [list(nbrs[start])]  # untried free neighbours of each cell on the path
    tries = _DRAW_TRIES * n * n if rng is not None else math.inf
    while stack and tries:
        options = stack[-1]
        if not options:
            stack.pop()
            cell = path.pop()
            free[cell] = True
            ends += closes[cell]
            continue
        nxt = options.pop(rng.randrange(len(options)) if rng is not None else -1)
        tries -= 1
        if len(path) == n - 1:
            if closes[nxt]:
                yield path + [nxt]
        elif ends > closes[nxt]:
            free[nxt] = False
            ends -= closes[nxt]
            path.append(nxt)
            stack.append([cell for cell in nbrs[nxt] if free[cell]])


def _random_cycle(d: int, rng: random.Random) -> list[int]:
    """Random Hamiltonian cycle on the rook graph: the first one a depth-first
    search from a random cell finds, trying neighbours in random order.  A
    search that gives up starts again from a fresh random cell."""
    while True:
        for cycle in _cycles(d, rng.randrange(d * d), rng):
            return cycle


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
    """Segment reversals of one climb step on a cycle of n = d^2 cells, the
    joins each reversal makes, and the one-digit steps.

    Row r of ``reversals`` reverses the segment [i..j] of a cycle, for each
    i < j in row-major order.  ``joins[r]`` holds the two pairs of positions
    whose cells become neighbours under reversal r, so reversal r keeps a
    valid cycle valid exactly when both pairs are one-digit steps.  The full
    reversal joins no new cells; its pairs repeat positions 0 and 1,
    neighbours already.  ``one_step[p, q]`` says whether cells p and q differ in exactly
    one digit.  The rotations need no table: a climb reads them off the
    rotation orbit of its table.
    """
    n = d * d
    k = np.arange(n)
    i, j = np.triu_indices(n, 1)
    reversals = np.where((k >= i[:, None]) & (k <= j[:, None]), (i + j)[:, None] - k, k)
    joins = np.stack([(i - 1) % n, j, i, (j + 1) % n], axis=1)
    joins[(i == 0) & (j == n - 1)] = (0, 1, 0, 1)
    joins = joins.reshape(-1, 2, 2)
    a, b = np.divmod(k, d)
    one_step = (a[:, None] != a) ^ (b[:, None] != b)
    for array in (reversals, joins, one_step):
        array.setflags(write=False)
    return reversals, joins, one_step


# Restarts climbing at once in one round of the search; their orbits, and
# then their legal reversals, share one batch, so this caps a batch's rows and
# with them the search's peak memory.  Peak RSS of a process that imports the
# package and runs search_tables(4, "p_min", 10000, 1), median of 8 runs (numpy
# 2.4.6, x86-64): 31.03 MiB at 16, 31.22 MiB at 32, 31.59 MiB at 64.
_ROUND_CLIMBS = 32


def search_tables(
    d: int,
    objective: str = "p_min",
    budget: int = 200,
    seed: int = 0,
) -> SearchResult:
    """Search valid single-distance tables for the best protocol score.

    Exhaustive for d = 2, and for d = 3 once the budget covers all 864
    valid tables; otherwise random restarts over Hamiltonian cycles of the
    rook graph, drawn by ``_random_cycle`` from ``random.Random(seed)``,
    climbing by rotation and segment-reversal moves.
    ``budget`` caps the number of distinct tables evaluated.  The generated
    table, which is the built-in one where that exists, is always evaluated
    first, so the result never scores below it.  Each climb step takes the
    first move that improves the score, rotations before reversals; the
    tables past that move are not counted and do not change the result.
    The rotations come from the table's rotation orbit, the reversals from
    the move table of ``_climb_moves``.

    Restarts climb in rounds of up to 32.  Once every climb of a round has
    stopped, the tables each one walked through are counted against the
    budget in start order.  A climb scores the rotation orbit of each table
    it reaches, and the result is the same as climbing the restarts one at
    a time, every table scored alone: each table's score is exact and
    independent of its batch.
    Deterministic for a fixed seed, which must be a non-negative integer;
    ties break to the lexicographically smallest pair sequence.  ``p_min``
    is the square of the smallest line mean of ``qracse._line_means``.
    """
    from .qracse import _line_means, _two_string_values  # local import; qracse depends on this module

    if not isinstance(seed, int) or seed < 0:  # random.Random would take abs(seed), or hash a float
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if objective not in ("p_min", "p_avg"):
        raise ValueError(f"unknown objective {objective!r}")
    if not isinstance(budget, int) or budget < 1:  # a fractional budget is never reached exactly
        raise ValueError("budget must be a positive number of evaluations")
    if not 2 <= d <= 5:
        raise ValueError("supported dimensions are 2 <= d <= 5")

    n = d * d
    rng = random.Random(seed)
    evaluated: dict[bytes, float] = {}  # uint8 cells a*d + b of each table -> score

    def score(cycles: np.ndarray) -> np.ndarray:
        invs = np.full(cycles.shape, -1, dtype=np.intp)  # a row that is no permutation keeps a -1
        invs[np.arange(len(cycles))[:, None], cycles] = np.arange(n)
        invs = invs.reshape(-1, d, d)
        if objective == "p_min":  # min of r_c[v0] r_c[v1] is (min r)^2, as r >= 0 and rounding is monotone
            return _line_means(invs).reshape(len(cycles), -1).min(axis=1) ** 2
        return _two_string_values(invs)[1].mean(axis=1)

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
        """Climb ``size`` fresh restarts in lockstep until each stops, then
        count the tables each climb walked through, in start order.  One batch
        scores the rotation orbits of the tables the climbs reach (a start or
        an accepted reversal); rotating the orbit's table at offset p by r
        gives the one at (p + r) mod n, so the rotation steps need no more
        scores.  Then one batch scores every moving climb's reversals."""
        tables = np.array([_random_cycle(d, rng) for _ in range(size)], dtype=np.intp)
        walked = [[] for _ in range(size)]
        active = np.arange(size)  # climbs still moving, in start order
        while len(active):
            rows = tables[:, orbits].reshape(-1, n)
            row_keys, row_values = keys(rows), score(rows).tolist()
            offsets, beats = [], []
            for i, climb in enumerate(active.tolist()):
                ks = row_keys[i * n : (i + 1) * n] * 2  # the orbit twice, so offsets past n wrap
                vs = row_values[i * n : (i + 1) * n] * 2
                walked[climb].append((ks[0], vs[0]))
                p = 0
                while True:  # the first rotation that improves, until none does
                    beat = vs[p] + 1e-12
                    r = next((r for r in range(p + 1, p + n) if vs[r] > beat), p + n - 1)
                    walked[climb].extend(zip(ks[p + 1 : r + 1], vs[p + 1 : r + 1]))
                    if vs[r] <= beat:
                        break
                    p = r % n
                offsets.append(p)
                beats.append(vs[p])
            current = tables[np.arange(len(offsets))[:, None], orbits[offsets]]
            joined = current[:, joins]
            owner, move = np.nonzero(one_step[joined[..., 0], joined[..., 1]].all(axis=2))
            rows = current[owner[:, None], reversals[move]]  # each climb's legal reversals, one after another
            values = score(rows)
            counts = np.bincount(owner, minlength=len(active))
            ends = np.cumsum(counts)
            starts = ends - counts
            hits = np.append(np.flatnonzero(values > np.repeat(beats, counts) + 1e-12), len(rows))
            accepted = hits[np.searchsorted(hits, starts)]  # first improving row of each list, if below its end
            moved = accepted < ends
            row_keys, row_values = keys(rows), values.tolist()
            for climb, lo, hi in zip(active.tolist(), starts.tolist(), np.minimum(accepted + 1, ends).tolist()):
                walked[climb].extend(zip(row_keys[lo:hi], row_values[lo:hi]))
            active, tables = active[moved], rows[accepted[moved]]
        for tables_walked in walked:
            count(tables_walked)

    def cells(pairs: tuple[Pair, ...]) -> np.ndarray:
        return np.array([[a * d + b for a, b in pairs]], dtype=np.intp)

    walk(cells(generate_single_distance(d).pairs))

    if d == 2 or (d == 3 and budget >= len(_all_cycles(3))):
        walk(_all_cycles(d))
    else:
        reversals, joins, one_step = _climb_moves(d)
        orbits = (np.arange(n) + np.arange(n)[:, None]) % n  # row r rotates a table by r
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
        evaluations=len(evaluated),
    )
