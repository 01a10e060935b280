"""Root systems of the simple Lie types with a marked node.

Roots are integer coefficient vectors over the simple roots, in Bourbaki
numbering.  The Cartan matrix convention is C[i][j] = 2(a_i, a_j)/(a_i, a_i),
so pairing a root (as a coefficient vector) against the i-th simple coroot is
row i of C times the vector.  Marking a node rescales the invariant pairing
so the marked simple root has squared length 2.  The pairing runs on integers:
the symmetrizer is kept as coprime integers, rescaled by a marking's one
denominator.  The root closure carries each root's coroot pairings (C a)
along, and each `RootSystem` keeps the integer rho-numerators of its positive
roots, which every marking of it shares.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from typing import Callable, NamedTuple

from .ratpoly import ConsistencyError, Record

Root = tuple[int, ...]


def _chain(nodes) -> list[tuple[int, int, int, int]]:
    """Simple bonds joining consecutive nodes of a path."""
    return [(a, b, -1, -1) for a, b in zip(nodes, nodes[1:])]


class _Series(NamedTuple):
    lo: int  # smallest rank
    hi: int | None  # largest rank, None for a classical series
    count: Callable[[int], int]  # number of positive roots at rank n
    bonds: Callable[[int], list[tuple[int, int, int, int]]]  # (i, j, C_ij, C_ji) at rank n


# the Cartan-Killing classification: one row per series, Bourbaki numbering
_SERIES = {
    "A": _Series(1, None, lambda n: n * (n + 1) // 2, lambda n: _chain(range(1, n + 1))),
    "B": _Series(2, None, lambda n: n * n,
                 lambda n: _chain(range(1, n)) + [(n - 1, n, -1, -2)]),  # a_n short
    "C": _Series(3, None, lambda n: n * n,
                 lambda n: _chain(range(1, n)) + [(n - 1, n, -2, -1)]),  # a_n long
    "D": _Series(4, None, lambda n: n * (n - 1),
                 lambda n: _chain(range(1, n)) + [(n - 2, n, -1, -1)]),
    "E": _Series(6, 8, lambda n: {6: 36, 7: 63, 8: 120}[n],
                 lambda n: _chain((1, 3, 4, 5, 6, 7, 8)[: n - 1]) + [(2, 4, -1, -1)]),
    "F": _Series(4, 4, lambda n: 24,
                 lambda n: [(1, 2, -1, -1), (2, 3, -1, -2), (3, 4, -1, -1)]),  # a_3, a_4 short
    "G": _Series(2, 2, lambda n: 6, lambda n: [(1, 2, -3, -1)]),  # a_1 short
}

# low-rank coincidences accepted as input and renumbered onto the canonical
# series (C2 = B2 and D3 = A3 with the nodes permuted)
_ALIASES = {
    ("C", 2): ("B", 2, {1: 2, 2: 1}),
    ("D", 3): ("A", 3, {1: 2, 2: 1, 3: 3}),
}


def canonicalize(series: str, rank: int, node: int | None = None):
    """Normalize a (series, rank[, node]) triple, resolving the aliases."""
    series = series.upper()
    if (series, rank) in _ALIASES:
        new_series, new_rank, node_map = _ALIASES[(series, rank)]
        if node is not None:
            if node not in node_map:
                raise ValueError(f"node {node} out of range for {series}{rank}")
            node = node_map[node]
        return new_series, new_rank, node
    return series, rank, node


def _check_series_rank(series: str, rank: int) -> None:
    if series not in _SERIES:
        raise ValueError(f"unknown series {series!r}")
    lo, hi, *_ = _SERIES[series]
    if not lo <= rank <= (rank if hi is None else hi):
        allowed = f">= {lo}" if hi is None else f"{lo}" if lo == hi else f"{lo} to {hi}"
        alias = [f" ({s}{r} is read as {t}{n})" for (s, r), (t, n, _) in _ALIASES.items() if s == series]
        raise ValueError(f"invalid type {series}{rank}: rank must be {allowed}{''.join(alias)}")


class SimpleType(Record):
    __slots__ = _fields = ("series", "rank")

    def __init__(self, series: str, rank: int) -> None:
        _check_series_rank(series, rank)
        self._fill(series, rank)

    @property
    def name(self) -> str:
        return f"{self.series}{self.rank}"


def _cartan_matrix(t: SimpleType) -> tuple[tuple[int, ...], ...]:
    n = t.rank
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, cij, cji in _SERIES[t.series].bonds(n):
        C[i - 1][j - 1], C[j - 1][i - 1] = cij, cji
    return tuple(tuple(row) for row in C)


def _symmetrizer(cartan: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Coprime positive integers d with d_i C_ij symmetric, spread over the
    diagram: d_j = d_i C_ij / C_ji, every entry rescaled when that is no integer."""
    n = len(cartan)
    d = [1] + [0] * (n - 1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if j != i and cartan[i][j] != 0 and not d[j]:
                if d[i] * cartan[i][j] % cartan[j][i]:
                    d = [v * abs(cartan[j][i]) for v in d]
                d[j] = d[i] * cartan[i][j] // cartan[j][i]
                todo.append(j)
    if 0 in d:
        raise ConsistencyError("Dynkin diagram is not connected")
    g = gcd(*d)
    return tuple(v // g for v in d)


def _generate_positive_roots(cartan: tuple[tuple[int, ...], ...]) -> tuple[Root, ...]:
    """Closure of the simple roots under the simple reflections that raise them.

    Each root is stored with its coroot pairings C a.  When m = <a, a_i^vee>
    is negative, s_i(a) = a - m a_i is a higher positive root with pairings
    C a - m (column i of C).  Every positive root is reached: a non-simple
    one pairs positively with some a_i^vee, and s_i lowers it to a positive
    root that s_i raises back.
    """
    n = len(cartan)
    columns = list(zip(*cartan))
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    pairings: dict[Root, tuple[int, ...]] = dict(zip(simple, columns))
    todo = simple
    while todo:
        a = todo.pop()
        pairing = pairings[a]
        for i, m in enumerate(pairing):
            if m < 0:
                up = list(a)
                up[i] -= m
                b = tuple(up)
                if b not in pairings:
                    pairings[b] = tuple([u - m * v for u, v in zip(pairing, columns[i])])
                    todo.append(b)
    return tuple(sorted(pairings, key=lambda r: (sum(r), r)))


class RootSystem(Record):
    # no __slots__: the cached properties live in the instance __dict__
    _fields = ("simple_type", "cartan", "d_num", "positive_roots")

    def __init__(self, simple_type: SimpleType, cartan: tuple[tuple[int, ...], ...],
                 d_num: tuple[int, ...], positive_roots: tuple[Root, ...]) -> None:
        self._fill(simple_type, cartan, d_num, positive_roots)  # d_num: the coprime symmetrizer

    @property
    def rank(self) -> int:
        return self.simple_type.rank

    @cached_property
    def rho_numerators(self) -> tuple[int, ...]:
        """sum of c_i * d_num_i for each positive root, in stored order: the
        (rho, a) of every marking over that mark's one denominator."""
        d = self.d_num
        return tuple(sum([c * v for c, v in zip(a, d)]) for a in self.positive_roots)

    @property
    def highest_root(self) -> Root:
        return self.positive_roots[-1]


@lru_cache(maxsize=None)
def build_root_system(t: SimpleType) -> RootSystem:
    """All positive roots plus Cartan data for a simple type."""
    cartan = _cartan_matrix(t)
    roots = _generate_positive_roots(cartan)
    expected = _SERIES[t.series].count(t.rank)
    if len(roots) != expected:
        raise ConsistencyError(f"{t.name}: generated {len(roots)} positive roots, expected {expected}")
    rs = RootSystem(t, cartan, _symmetrizer(cartan), roots)
    d = rs.d_num
    if any(d[i] * row[j] != d[j] * cartan[j][i] for i, row in enumerate(cartan) for j in range(i)):
        raise ConsistencyError(f"{t.name}: the symmetrizer does not make d C symmetric")
    return rs


class MarkedSystem(NamedTuple):
    rs: RootSystem
    node: int  # 1-based Bourbaki index of the marked simple root
    d_num: tuple[int, ...]  # d = d_num / d_den: the symmetrizer with d[node-1] == 1
    d_den: int
    index: int
    dim: int
    levels: dict[int, tuple[Root, ...]]  # each level in increasing (rho, .) order
    pairings: dict[int, tuple[int, ...]]  # d_den * (rho, a) for the roots of levels[l]

    # the dict fields cannot be hashed: a marking is itself, as with any object
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def description(self) -> str:
        return f"{self.rs.simple_type.name}/P{self.node}"


def mark(rs: RootSystem, node: int) -> MarkedSystem:
    """Mark a node: normalized pairing, grading, index, extremal data.

    Memoized on rs's type and the node, so a hit hashes those two and not
    the whole root system; the marking holds the type's one RootSystem, the
    one `build_root_system` returns."""
    return _mark_type(rs.simple_type, node)


@lru_cache(maxsize=None)
def _mark_type(t: SimpleType, node: int) -> MarkedSystem:
    rs = build_root_system(t)
    n = rs.rank
    if not 1 <= node <= n:
        raise ValueError(f"node {node} out of range for {rs.simple_type.name} (1..{n})")
    i = node - 1

    levels: dict[int, list[tuple[int, Root]]] = {}
    for a, key in zip(rs.positive_roots, rs.rho_numerators):
        if a[i] > 0:
            levels.setdefault(a[i], []).append((key, a))
    if sorted(levels) != list(range(1, rs.highest_root[i] + 1)):
        raise ConsistencyError("empty level in the grading")

    # 2 rho_X, the sum of the roots at positive level, is iota * omega_0, and
    # <omega_0, a_j^vee> = delta_ij: so p = C 2 rho_X vanishes off the marked
    # node, and its marked entry is the index
    two_rho_x = [sum(col) for col in zip(*(a for v in levels.values() for _, a in v))]
    p = [sum([c * x for c, x in zip(row, two_rho_x)]) for row in rs.cartan]
    index = p[i]
    if any(p[:i] + p[i + 1:]):
        raise ConsistencyError(f"{t.name}/P{node}: the sum of positive-level roots is not "
                               "proportional to omega_0")
    if index <= 0:
        raise ConsistencyError(f"{t.name}/P{node}: the index {index} is not positive")

    for v in levels.values():
        v.sort()
    ms = MarkedSystem(
        rs=rs,
        node=node,
        d_num=rs.d_num,
        d_den=rs.d_num[i],
        index=index,
        dim=sum(len(v) for v in levels.values()),
        levels={l: tuple(a for _, a in levels[l]) for l in sorted(levels)},
        pairings={l: tuple(k for k, _ in levels[l]) for l in sorted(levels)},
    )
    for l in ms.levels:
        extremal_roots(ms, l)  # asserts uniqueness and (rho, b+g) = iota*l
    return ms


# the cache is read and reset through `mark`, as an lru_cache would be
mark.cache_info, mark.cache_clear = _mark_type.cache_info, _mark_type.cache_clear


def extremal_roots(ms: MarkedSystem, l: int) -> tuple[Root, Root]:
    """The (rho, .)-minimal and -maximal roots of one level, both unique."""
    if l not in ms.levels:
        raise ValueError(f"level {l} is empty in {ms.description}")
    keys = ms.pairings[l]
    lo, hi = min(keys), max(keys)
    if keys.count(lo) != 1 or keys.count(hi) != 1:
        raise ConsistencyError(f"{ms.description}: non-unique extremal root at level {l}")
    if lo + hi != ms.index * l * ms.d_den:
        raise ConsistencyError(
            f"{ms.description}: (rho, beta+gamma) = {Fraction(lo + hi, ms.d_den)} "
            f"!= iota*l = {ms.index * l}"
        )
    return ms.levels[l][keys.index(lo)], ms.levels[l][keys.index(hi)]


def marked(series: str, rank: int, node: int) -> MarkedSystem:
    """Build and mark in one step, accepting alias names (C2, D3)."""
    series, rank, node = canonicalize(series, rank, node)
    return mark(build_root_system(SimpleType(series, rank)), node)


def all_simple_types(max_rank: int) -> list[SimpleType]:
    """Every canonical simple type with rank <= max_rank, in a fixed order:
    series by series as the table lists them, each rank its row allows."""
    return [SimpleType(series, r) for series, (lo, hi, *_) in _SERIES.items()
            for r in range(lo, min(max_rank, hi or max_rank) + 1)]
