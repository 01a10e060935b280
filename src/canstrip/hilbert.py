"""Hilbert polynomials of marked homogeneous spaces, kept in factored form.

The primary object is the table of exponents h_{l,k}: the number of positive
roots at level l whose rho-pairing equals k.  Each table keeps its keys as
integer numerators over one denominator, so the tables, the min rule of the
sections and the products all run on integers.  The polynomial is the
product of the factors ((l*z + k)/k)^h times a residual factor, kept in
v = 2z + iota, where the anticanonical symmetry makes it v^eps * Q(v^2).
A G/P that is only reported is never multiplied out.  Every `HilbertData`
is validated once, when it is built, with no product taken; it is frozen,
so `hilbert_gp` can hand the same object to every caller of a mark.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, prod
from operator import add
from typing import Optional, Sequence

from .ratpoly import ConsistencyError, RatPoly, Record, _ONE, _from_integer, _reduced, _scaled_value, _set
from .root_system import MarkedSystem


class LevelTable(Record):
    """Exponents of one level's factors, keyed by the rho-pairing value k.

    A key k is stored as its numerator n = k * den over the table's one
    denominator `den` (1 in the simply-laced case), and `counts` maps the
    numerators, in increasing order, to their multiplicities.  The level,
    `den`, every key (a rho-pairing) and every multiplicity are positive
    `int`s (not `bool`s); anything else is refused, since `multiply_linear`
    reads its product back unsigned and `validate` takes integer powers.
    Construction sorts the keys and divides `den` and the numerators by
    their gcd, so `den` is as small as the keys allow and equal tables
    compare equal.  `exponents` is the same table keyed by the rationals k.
    A table holds a dict, so it has no hash.
    """

    __slots__ = _fields = ("level", "den", "counts")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, level: int, den: int, counts: dict[int, int]) -> None:
        if not all(type(x) is int and x >= 1 for x in (level, den, *counts, *counts.values())):
            raise ValueError(f"level {level}: the level, the denominator and every key must be "
                             "positive integers, and every multiplicity a positive integer")
        g = gcd(den, *counts)
        if g > 1:
            den, counts = den // g, {n // g: h for n, h in counts.items()}
        self._fill(level, den, dict(sorted(counts.items())))

    @property
    def exponents(self) -> dict[Fraction, int]:
        return {Fraction(n, self.den): h for n, h in self.counts.items()}

    def check_symmetric(self, index: int, description: str) -> None:
        """Assert property (S): h at k matches h at level*index - k."""
        counts, li = self.counts, self.level * index * self.den
        for n, h in counts.items():
            if counts.get(li - n) != h:
                raise ConsistencyError(
                    f"{description}: level {self.level} not symmetric: h({Fraction(n, self.den)}) = "
                    f"{h} but h({Fraction(li - n, self.den)}) = {counts.get(li - n, 0)}"
                )

    def unimodality_violations(self, index: int) -> list[tuple[Fraction, Fraction]]:
        """Key pairs k < k' <= level*index/2 with h(k) > h(k').

        Empty for every simply-laced mark (there it is a theorem about weight
        multiplicities).  Mixed root lengths genuinely break it: B4/P2 fails
        across the half-integer lattice and C4/P2 fails on the integer keys,
        so for those marks violations are reported rather than asserted.
        """
        full = self.level * index * self.den
        lower = [(n, h) for n, h in self.counts.items() if 2 * n <= full]
        return [
            (Fraction(n1, self.den), Fraction(n2, self.den))
            for (n1, h1), (n2, h2) in zip(lower, lower[1:])
            if h1 > h2
        ]


def _factors(levels: Sequence[LevelTable]) -> tuple[list[int], list[int], list[int]]:
    """The factors ((a*z + n)/n)^h of the tables as three columns: the slopes
    a = l*q, the key numerators n (k = n/q) and the multiplicities h."""
    slopes = [t.level * t.den for t in levels for _ in t.counts]
    keys = [n for t in levels for n in t.counts]
    return slopes, keys, [h for t in levels for h in t.counts.values()]


def multiply_linear(levels: Sequence[LevelTable], dim: int, index: int) -> RatPoly:
    """D with F(v) * (v/2)^e = v^(dim mod 2) * D(v^2), v = 2z + iota, for the
    product F of symmetric tables' factors ((l*z + k)/k)^h and e = deg R mod 2.

    With k = n/q and a = l*q a factor is (a*v + b)/(2n), b = 2n - a*iota, and
    (S) pairs it with the key a*iota - n, whose b is -b: the pair is
    (a^2 u - b^2)/(4n(a*iota - n)) in u = v^2; a middle key, b = 0, is v/iota.
    In t = -u a pair is -(a^2 t + b^2): at X = 2^(8w) each is one integer,
    and one big-int product holds the coefficients in w-byte slots.  None is
    negative or above their sum prod (a^2 + b^2)^h < X: read unsigned.
    """
    slopes, keys, exps, den, middle = [], [], [], 1, 0
    for t in levels:
        a = t.level * t.den
        for n, h in t.counts.items():
            if 2 * n < a * index:  # the pair's lower key
                slopes.append(a * a), keys.append((a * index - 2 * n) ** 2), exps.append(h)
                den *= (4 * n * (a * index - n)) ** h
            elif 2 * n == a * index:
                middle, den = middle + h, den * index**h
    w = (prod(map(pow, map(add, slopes, keys), exps)).bit_length() + 7) // 8
    raw = prod(map(pow, [(a << 8 * w) + n for a, n in zip(slopes, keys)], exps)).to_bytes(
        w + w * sum(exps), "little")
    ints = [(-1) ** i * int.from_bytes(raw[w * i : w * i + w], "little") for i in range(len(raw) // w)]
    e = (dim - middle) % 2  # sum h = middle + 2 * sum(exps)
    return _from_integer([0] * ((e + middle - dim % 2) // 2) + ints, (-1) ** sum(exps), den << e)


def _at(eps: int, q: RatPoly, a: int, b: int, den: int = 1) -> RatPoly:
    """v^eps * q(v^2) / den at v = a*z + b, by one substitution."""
    ints = [0] * (eps + 2 * len(q.ints) - 1)
    ints[eps::2] = q.ints
    return _reduced(tuple(ints), q.num, q.den * den).compose_affine(a, b)


class HilbertData(Record):
    """A Hilbert polynomial in factored and centered form with its invariants.

    `levels` carries the rational-root factors.  In v = 2z + iota the whole
    is v^eps * Q(v^2), eps = dim mod 2, and the leftover factor R is
    (v/2)^e * Q_R(v^2), e = deg R mod 2, so Q_R(4w^2) is R's even part in
    w = z + iota/2.  `residual_even` is Q_R (1 on a G/P); `even` is Q, carried
    from a section's step, else multiplied out on its first read and kept.
    `residual` is R in z, and `expand(hd)` H, by one substitution where read.
    `sections` memoizes sections by degree for `complete_intersection`; the
    caches take no part in equality.  `simply_laced` makes (U) a theorem.
    The constructor takes the fields as they are kept: e is what the degree
    leaves, dim - sum h - 2 deg Q_R, refused unless 0 or 1, so R is
    symmetric about -iota/2 by its form.  Every construction runs
    `validate`.  Its tables hold dicts, so it has no hash.
    """

    _fields = ("description", "dim", "index", "levels", "residual_even", "simply_laced")
    __slots__ = (*_fields, "_even", "sections")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, description: str, dim: int, index: int, levels: Sequence[LevelTable] = (),
                 residual_even: RatPoly = _ONE, simply_laced: bool = True) -> None:
        if not residual_even:
            raise ConsistencyError(f"{description}: the residual is zero")
        levels = tuple(levels)
        degree = sum(_factors(levels)[2]) + 2 * residual_even.degree
        if dim - degree not in (0, 1):
            raise ConsistencyError(f"{description}: dim {dim} is neither {degree}, the degree of "
                                   "the tables and Q_R(v^2), nor one more")
        _carrying(None, description, dim, index, levels, residual_even, simply_laced, hd=self)

    @property
    def residual(self) -> RatPoly:
        e = (self.dim - sum(_factors(self.levels)[2])) % 2
        return _at(e, self.residual_even, 2, self.index, 2**e)

    @property
    def even(self) -> RatPoly:
        if self._even is None:
            D = multiply_linear(self.levels, self.dim, self.index)
            _set(self, "_even", D if self.residual_even == _ONE else self.residual_even * D)
        return self._even


def _carrying(even: Optional[RatPoly], *fields, hd: Optional[HilbertData] = None) -> HilbertData:
    """The HilbertData of `fields` (into `hd`, if given), validated; `even` is
    its Q, or None to multiply it out when it is first read."""
    hd = object.__new__(HilbertData) if hd is None else hd
    hd._fill(*fields)
    _set(hd, "_even", even)
    _set(hd, "sections", {})
    validate(hd)
    return hd


def expand(hd: HilbertData) -> RatPoly:
    """H in the ample-generator variable z: v^eps * Q(v^2) at v = 2z + iota,
    by one substitution on each call."""
    return _at(hd.dim % 2, hd.even, 2, hd.index)


def degree_of(hd: HilbertData) -> int:
    """dim! times the leading coefficient, the degree of the polarization, read
    off the factors' (l*q/n)^h and R's 4^(deg Q_R) * lead(Q_R)."""
    slopes, keys, exps = _factors(hd.levels)
    R = hd.residual_even
    num = factorial(hd.dim) * R.num * R.ints[-1] * prod(map(pow, slopes, exps)) << 2 * R.degree
    den = R.den * prod(map(pow, keys, exps))
    value, rest = divmod(num, den)
    if rest or value <= 0:
        raise ConsistencyError(f"{hd.description}: degree {Fraction(num, den)} is not a positive integer")
    return value


def validate(hd: HilbertData) -> None:
    """Assert the structural invariants (once per object, from `_carrying`):
    symmetry of every table (unimodality too, for simply-laced marks),
    integrality on the window `_WINDOW` and chi(O) = H(0) = 1 for a positive
    index, with no product taken.  The degree and H(-iota-z) = (-1)^dim H(z)
    hold by construction: a section divides a Q exactly, and the constructor
    checks the degree and takes Q_R in v^2."""
    for table in hd.levels:
        table.check_symmetric(hd.index, hd.description)
        if hd.simply_laced:
            bad = table.unimodality_violations(hd.index)
            if bad:
                raise ConsistencyError(f"{hd.description}: level {table.level} not unimodal: "
                                       f"h({bad[0][0]}) > h({bad[0][1]})")
    values, den = _window_values(hd)
    for k, value in zip(_WINDOW, values):
        if value % den:
            raise ConsistencyError(
                f"{hd.description}: H({k}) = {Fraction(value, den)} is not an integer"
            )
    chi = values[_WINDOW.index(0)]
    if hd.index > 0 and chi != den:
        raise ConsistencyError(f"{hd.description}: chi(O) = {Fraction(chi, den)} != 1")


_WINDOW = range(-3, 10)  # the integers k on which `validate` asks H(k) to be an integer


def _window_values(hd: HilbertData) -> tuple[list[int], int]:
    """([H(k) * den for k in _WINDOW], den), all integers, at v = 2k + iota:
    v^eps * Q(v^2) by Horner at half the degree where Q is carried, as on
    every section, else (v/2)^e * Q_R(v^2) * prod (l*q*k + n)^h / prod n^h
    from the tables, as on every G/P."""
    Q, vs = hd._even, range(2 * _WINDOW.start + hd.index, 2 * _WINDOW.stop + hd.index, 2)
    if Q is not None:
        return [_scaled_value(Q.ints, v * v) * v ** (hd.dim % 2) * Q.num for v in vs], Q.den
    R, (slopes, keys, exps) = hd.residual_even, _factors(hd.levels)
    e = (hd.dim - sum(exps)) % 2
    bases, values = [n + a * (_WINDOW.start - 1) for a, n in zip(slopes, keys)], []
    for v in vs:
        bases = list(map(add, bases, slopes))  # a*k + n
        values.append(_scaled_value(R.ints, v * v) * v**e * R.num * prod(map(pow, bases, exps)))
    return values, R.den * prod(map(pow, keys, exps)) << e


@lru_cache(maxsize=1)
def hilbert_gp(ms: MarkedSystem) -> HilbertData:
    """The factored, validated Hilbert polynomial of the ample generator on G/P.

    Cached for the last mark asked for: a sweep visits each mark's cases one
    after another, and they share this object and its memoized sections.
    """
    # `mark` has asserted through `extremal_roots` that each level's
    # extremal keys sum to l * iota
    tables = [LevelTable(l, ms.d_den, Counter(keys)) for l, keys in ms.pairings.items()]
    return HilbertData(
        description=ms.description,
        dim=ms.dim,
        index=ms.index,
        levels=tables,
        simply_laced=len(set(ms.d_num)) == 1,
    )
