"""Root systems of the simple Lie types with a marked node.

Roots are integer coefficient vectors over the simple roots, in Bourbaki
numbering.  The Cartan matrix convention is C[i][j] = 2(a_i, a_j)/(a_i, a_i),
so pairing a root (as a coefficient vector) against the i-th simple coroot is
row i of C times the vector.  Marking a node rescales the invariant pairing
so the marked simple root has squared length 2.  The pairing runs on integers:
the rescaled symmetrizer and the inverse Cartan matrix each carry one common
denominator, and the public values are exact `Fraction`s built from them.
The root closure carries each root's coroot pairings (C a) along, and each
`RootSystem` keeps the integer rho-numerators of its positive roots, which
every marking of it shares.
"""

from __future__ import annotations

from contextlib import suppress
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import lcm
from typing import NamedTuple

from .ratpoly import Record

Root = tuple[int, ...]

_RANK_BOUNDS = {"A": 1, "B": 2, "C": 3, "D": 4, "F": 4, "G": 2}

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
    if series == "E":
        if rank not in (6, 7, 8):
            raise ValueError(f"invalid type E{rank}: rank must be 6, 7 or 8")
        return
    if series in ("F", "G"):
        if rank != _RANK_BOUNDS[series]:
            raise ValueError(f"invalid type {series}{rank}")
        return
    if series == "A" or series in _RANK_BOUNDS:
        lo = _RANK_BOUNDS.get(series, 1)
        if rank < lo:
            raise ValueError(f"invalid type {series}{rank}: rank must be >= {lo}")
        return
    raise ValueError(f"unknown series {series!r}")


class SimpleType(Record):
    __slots__ = _fields = ("series", "rank")

    def __init__(self, series: str, rank: int) -> None:
        _check_series_rank(series, rank)
        self._fill(series, rank)

    @property
    def name(self) -> str:
        return f"{self.series}{self.rank}"


def _expected_count(t: SimpleType) -> int:
    n = t.rank
    if t.series == "A":
        return n * (n + 1) // 2
    if t.series in ("B", "C"):
        return n * n
    if t.series == "D":
        return n * (n - 1)
    if t.series == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    return 24 if t.series == "F" else 6


def _cartan_matrix(t: SimpleType) -> tuple[tuple[int, ...], ...]:
    n = t.rank
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        C[i - 1][j - 1] = cij
        C[j - 1][i - 1] = cji

    s = t.series
    if s in ("A", "B", "C"):
        for i in range(1, n):
            bond(i, i + 1)
        if s == "B":
            bond(n - 1, n, -1, -2)  # a_n short
        if s == "C":
            bond(n - 1, n, -2, -1)  # a_n long
    elif s == "D":
        for i in range(1, n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1)
        bond(n - 2, n)
    elif s == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(2, 4)
    elif s == "F":
        bond(1, 2)
        bond(2, 3, -1, -2)  # a_3, a_4 short
        bond(3, 4)
    elif s == "G":
        bond(1, 2, -3, -1)  # a_1 short
    return tuple(tuple(row) for row in C)


def _symmetrizer(cartan: tuple[tuple[int, ...], ...]) -> tuple[Fraction, ...]:
    """Positive rationals d with d_i C_ij symmetric, spread over the diagram."""
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if j != i and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
                todo.append(j)
    assert all(v is not None for v in d), "Dynkin diagram is not connected"
    return tuple(d)  # type: ignore[arg-type]


def _generate_positive_roots(cartan: tuple[tuple[int, ...], ...]) -> tuple[Root, ...]:
    """Closure over root strings, breadth-first by height.

    Each root is stored with its coroot pairings C a, which move by column i
    of C when a_i is added, so no pairing is summed from scratch.
    """
    n = len(cartan)
    columns = list(zip(*cartan))
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    pairings: dict[Root, tuple[int, ...]] = dict(zip(simple, columns))
    layer = simple
    while layer:
        nxt = []
        for a in layer:
            pairing = pairings[a]
            for i in range(n):
                down = list(a)
                p = 0
                while True:
                    down[i] -= 1
                    if down[i] < 0 or tuple(down) not in pairings:
                        break
                    p += 1
                if p - pairing[i] > 0:
                    up = list(a)
                    up[i] += 1
                    c = tuple(up)
                    if c not in pairings:
                        pairings[c] = tuple([u + v for u, v in zip(pairing, columns[i])])
                        nxt.append(c)
        layer = nxt
    return tuple(sorted(pairings, key=lambda r: (sum(r), r)))


class RootSystem(Record):
    # no __slots__: the cached properties live in the instance __dict__
    _fields = ("simple_type", "cartan", "symmetrizer", "positive_roots")

    def __init__(self, simple_type: SimpleType, cartan: tuple[tuple[int, ...], ...],
                 symmetrizer: tuple[Fraction, ...], positive_roots: tuple[Root, ...]) -> None:
        self._fill(simple_type, cartan, symmetrizer, positive_roots)

    @property
    def rank(self) -> int:
        return self.simple_type.rank

    @cached_property
    def root_set(self) -> frozenset[Root]:
        return frozenset(self.positive_roots)

    @cached_property
    def d_num(self) -> tuple[int, ...]:
        """The symmetrizer scaled to coprime positive integers."""
        scale = lcm(*(v.denominator for v in self.symmetrizer))
        return tuple(int(v * scale) for v in self.symmetrizer)

    @cached_property
    def rho_numerators(self) -> tuple[int, ...]:
        """sum of c_i * d_num_i for each positive root, in stored order: the
        (rho, a) of every marking over that mark's one denominator."""
        d = self.d_num
        return tuple(sum([c * v for c, v in zip(a, d)]) for a in self.positive_roots)

    @cached_property
    def cartan_inverse(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(det C, adj C) with C^-1 = adj / det, by fraction-free Gauss-Jordan on
        [C | I]: every division is exact, and no pivot is zero because the
        leading principal minors of a finite-type Cartan matrix are positive."""
        n = self.rank
        aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.cartan)]
        prev = 1
        for col in range(n):
            pivot = aug[col]
            p = pivot[col]
            for r in range(n):
                if r != col:
                    f = aug[r][col]
                    aug[r] = [(p * a - f * b) // prev for a, b in zip(aug[r], pivot)]
            prev = p
        return prev, tuple(tuple(row[n:]) for row in aug)

    @property
    def highest_root(self) -> Root:
        return self.positive_roots[-1]

    def is_root(self, a: Root) -> bool:
        a = tuple(a)
        return a in self.root_set or tuple(-c for c in a) in self.root_set


@lru_cache(maxsize=None)
def build_root_system(t: SimpleType) -> RootSystem:
    """All positive roots plus Cartan data for a simple type."""
    cartan = _cartan_matrix(t)
    roots = _generate_positive_roots(cartan)
    if len(roots) != _expected_count(t):
        raise AssertionError(
            f"{t.name}: generated {len(roots)} positive roots, expected {_expected_count(t)}"
        )
    rs = RootSystem(t, cartan, _symmetrizer(cartan), roots)
    d = rs.d_num
    for i in range(t.rank):
        for j in range(t.rank):
            assert d[i] * cartan[i][j] == d[j] * cartan[j][i]
    return rs


class MarkedSystem(NamedTuple):
    rs: RootSystem
    node: int  # 1-based Bourbaki index of the marked simple root
    d_num: tuple[int, ...]  # d = d_num / d_den: the symmetrizer with d[node-1] == 1
    d_den: int
    omega0: tuple[Fraction, ...]  # omega_0 over the simple roots
    omega0_norm: Fraction  # (omega_0, omega_0)
    index: int
    lmax: int
    dim: int
    levels: dict[int, tuple[Root, ...]]  # each level in increasing (rho, .) order
    pairings: dict[int, tuple[int, ...]]  # d_den * (rho, a) for the roots of levels[l]
    coxeter_number: int

    # the dict fields cannot be hashed: a marking is itself, as with any object
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def d(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.d_den) for v in self.d_num)

    @property
    def description(self) -> str:
        return f"{self.rs.simple_type.name}/P{self.node}"

    @property
    def cominuscule(self) -> bool:
        return self.lmax == 1


def rho_pair(ms: MarkedSystem, a: Root) -> Fraction:
    """(rho, a) in the marked normalization: sum of c_i * d_i."""
    a = tuple(a)
    if not ms.rs.is_root(a):
        raise ValueError(f"{a} is not a root of {ms.rs.simple_type.name}")
    return Fraction(sum(c * di for c, di in zip(a, ms.d_num)), ms.d_den)


def index_formulas(ms: MarkedSystem) -> tuple[Fraction, Fraction]:
    """The index computed two independent ways.

    (a) (2 rho, omega_0) / (omega_0, omega_0), the numerator being the sum of
        the marked coefficients over all positive roots;
    (b) the proportionality 2 rho_X = iota * omega_0, where 2 rho_X is the sum
        of the roots at positive level (checked on every coordinate).
    """
    i = ms.node - 1
    det, adj = ms.rs.cartan_inverse
    w = [row[i] for row in adj]  # det * omega_0
    via_remark = Fraction(sum(a[i] for a in ms.rs.positive_roots) * det, w[i])

    two_rho_x = [sum(col) for col in zip(*(a for roots in ms.levels.values() for a in roots))]
    via_lemma = Fraction(two_rho_x[i] * det, w[i])
    for j in range(ms.rs.rank):
        if two_rho_x[j] * w[i] != two_rho_x[i] * w[j]:
            raise AssertionError(
                f"{ms.description}: sum of positive-level roots is not proportional to omega_0"
            )
    return via_remark, via_lemma


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
    d_num = rs.d_num

    det, adj = rs.cartan_inverse
    w = [row[i] for row in adj]  # det * omega_0
    # (omega_0, a_j^vee) = delta check, directly against every simple coroot
    for j in range(n):
        assert sum([c * v for c, v in zip(rs.cartan[j], w)]) == (det if j == i else 0)
    omega0 = tuple(Fraction(v, det) for v in w)

    levels: dict[int, list[tuple[int, Root]]] = {}
    for a, key in zip(rs.positive_roots, rs.rho_numerators):
        if a[i] > 0:
            levels.setdefault(a[i], []).append((key, a))
    lmax = rs.highest_root[i]
    assert sorted(levels) == list(range(1, lmax + 1)), "empty level in the grading"
    dim = sum(len(v) for v in levels.values())
    for v in levels.values():
        v.sort()

    ms = MarkedSystem(
        rs=rs,
        node=node,
        d_num=d_num,
        d_den=d_num[i],
        omega0=omega0,
        omega0_norm=omega0[i],
        index=0,  # placeholder, replaced below once the formulas agree
        lmax=lmax,
        dim=dim,
        levels={l: tuple(a for _, a in levels[l]) for l in sorted(levels)},
        pairings={l: tuple(k for k, _ in levels[l]) for l in sorted(levels)},
        coxeter_number=sum(rs.highest_root) + 1,
    )
    via_remark, via_lemma = index_formulas(ms)
    if via_remark != via_lemma or via_remark.denominator != 1 or via_remark <= 0:
        raise AssertionError(
            f"{ms.description}: index formulas disagree or give a non-positive "
            f"non-integer ({via_remark} vs {via_lemma})"
        )
    ms = ms._replace(index=int(via_remark))

    for l in range(1, lmax + 1):
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
        raise AssertionError(f"{ms.description}: non-unique extremal root at level {l}")
    if lo + hi != ms.index * l * ms.d_den:
        raise AssertionError(
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
    series by series, each rank that `_check_series_rank` accepts."""
    out = []
    for series, r in product("ABCDEFG", range(1, max_rank + 1)):
        with suppress(ValueError):
            out.append(SimpleType(series, r))
    return out
